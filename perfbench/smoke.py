"""Smoke check for the benchmark: every workload, a few requests, outputs
checked, no timing gate.

    python3 perfbench/smoke.py

Run from the root of a lexgate checkout. For each workload it runs the
untraced and the traced path for a handful of requests and fails (exit 1)
when a response contradicts its expectation, or when a request fails that
is not one of reject-mix's non-UTF-8 bodies. Those raise UnicodeDecodeError
out of handle_request today, a known defect that the benchmark counts in
`failed` and that this check reports without failing on it.
"""

from __future__ import annotations

import sys

import run

REQUESTS = 48
KNOWN_DEFECTS = {"reject-mix": {"non-utf8"}}


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, seed=1, seconds=0, trace=trace, max_requests=REQUESTS,
                             emit=lambda lines: None)
            unexpected = set(result["failed_kinds"]) - KNOWN_DEFECTS.get(workload, set())
            names = sorted(result["metrics"])
            print(f"{workload:<11} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed kinds={sorted(result['failed_kinds']) or '-'} metrics={len(names)}")
            if not result["correct"] or unexpected or result["attempted"] < REQUESTS:
                problems.append(f"{workload} trace={int(trace)}: {result}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
