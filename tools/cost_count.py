"""Exact cost counts of a workload's request stream, per request.

    python3 tools/cost_count.py --workload world-200 --seed 5 --warmup 2000 --requests 8000

Run from the root of a lexgate checkout: the workload generator, the loader
and the request stream are those of `perfbench/run.py` in the working
directory, and the program is the `src/` beside it, as for
`tools/stream_digest.py`. The first `--warmup` requests of the generated
stream go through `ReferenceMonitor.handle_request`, the monitor's
`FixedClock` set to each request's instant; then a full garbage collection
runs and the next `--requests` are counted. Prints one JSON line per
workload with, per counted request:

- `calls`: Python calls, as cProfile counts them (built-in calls included);
- `calls_by_module`: those calls by the module of the function called:
  a dotted name such as `lexgate.engine`, `<built-in>` for a function
  written in C, or the file name of code no module holds (`<string>` for
  the methods `dataclasses` generates);
- `memo_misses`: each memo's misses (`ReferenceMonitor.memos()`), and as
  `response` those of every plan's response memo, summed over the plans
  the forest holds at each end of the window (a plan evicted during the
  window takes its misses with it; no workload evicts one after the
  warm-up today);
- `gc_collections`: collections by generation (`gc.get_stats` deltas);
- `response_bytes` and `audit_bytes`;

and `memo_held`, each memo's entries at the end of the replay (`response`:
summed over the plans held then). The line memo
is shared by the whole process; it is emptied before each workload, so a
workload's counts do not depend on the one replayed before it. These counts
do not depend on the speed of the host: two runs of one checkout give the
same figures, so a change of a few percent shows where paired timings
cannot. A call is not a unit of time, though: a `sha256` and a one-line
helper each count once.

    python3 tools/cost_count.py --workload all --seed 5 --warmup 2000 --requests 8000 --against ../parent

`--workload` may be given more than once, or as `all`. With `--against DIR`,
the same counts are taken a second time with DIR (another checkout) as the
working directory, and each workload's line from this checkout is followed
by DIR's; every line names the checkout it counted. Standard library only.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import itertools
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "perfbench"))

import run as bench  # noqa: E402


def _empty_line_memo() -> None:
    """Empty the process-wide line memo, and its doorkeeper where it has one."""
    lines = sys.modules["lexgate.parsing.wire"]._LINES
    lines.clear()
    seen = getattr(lines, "seen", None)
    if seen:
        seen.clear()


def _module_of(code: object, roots: list[Path]) -> str:
    """The module a profiled function belongs to (see `calls_by_module`)."""
    if isinstance(code, str):
        return "<built-in>"
    path = Path(code.co_filename)
    for root in roots:
        if path.is_relative_to(root):
            parts = path.relative_to(root).with_suffix("").parts
            return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    return code.co_filename


def counts(workload: str, seed: int, warmup: int, requests: int) -> dict:
    program = bench.import_program()
    _empty_line_memo()
    with tempfile.TemporaryDirectory() as work:
        fixtures, audit_path = Path(work) / "fixtures", Path(work) / "audit.log"
        meta = bench.generate(workload, seed, fixtures)
        monitor, clock, _raw, _scaled = bench.set_up(program, fixtures, audit_path, meta["pseudonym_key"], 1)
        auth = program["AuthState"]
        stream = bench.request_stream(fixtures, meta)
        for _round, at, user, secret, raw, _outcome, _kind in itertools.islice(stream, warmup):
            clock.set(at)
            monitor.handle_request(raw, auth(user, secret))
        counted = [(at, auth(user, secret), raw) for _round, at, user, secret, raw, _outcome, _kind
                   in itertools.islice(stream, requests)]
        if not counted:
            raise SystemExit(f"{workload}: the stream ended during the warm-up")
        memos = monitor.memos()
        misses = {name: memo.misses for name, memo in memos.items()}
        misses["response"] = sum(plan.responses.misses for plan in monitor.forest._plans.values())
        audit_before = audit_path.stat().st_size if audit_path.exists() else 0
        response_bytes = 0
        gc.collect()
        collections = [generation["collections"] for generation in gc.get_stats()]
        profile = cProfile.Profile()
        profile.enable()
        for at, session, raw in counted:
            clock.set(at)
            response, _record = monitor.handle_request(raw, session)
            response_bytes += len(response)
        profile.disable()
        collections = [generation["collections"] - before for generation, before in zip(gc.get_stats(), collections)]
        monitor.audit.close()
        audit_bytes = audit_path.stat().st_size - audit_before
    sent = len(counted)
    # Summed per code object: pstats would merge the entries of functions
    # that share a file, line and name (such as dataclasses' `__init__`s).
    # The deepest import root first, so that `src/lexgate/engine.py` is
    # `lexgate.engine` even when the checkout itself is on the path.
    roots = sorted({Path(entry).resolve() for entry in sys.path if entry}, key=lambda root: -len(root.parts))
    by_module: Counter[str] = Counter()
    for entry in profile.getstats():
        by_module[_module_of(entry.code, roots)] += entry.callcount
    calls = sum(by_module.values())
    plans = monitor.forest._plans.values()
    memo_misses = {name: memo.misses - misses[name] for name, memo in memos.items()}
    memo_misses["response"] = sum(plan.responses.misses for plan in plans) - misses["response"]
    memo_held = {name: len(memo) for name, memo in memos.items()}
    memo_held["response"] = sum(len(plan.responses) for plan in plans)
    return {
        "checkout": str(Path.cwd()),
        "workload": workload, "seed": seed, "requests": sent,
        "calls": round(calls / sent, 4),
        "calls_by_module": {module: round(count / sent, 4) for module, count in sorted(by_module.items())},
        "memo_misses": {name: round(count / sent, 4) for name, count in memo_misses.items()},
        "memo_held": memo_held,
        "gc_collections": [round(count / sent, 6) for count in collections],
        "response_bytes": round(response_bytes / sent, 2),
        "audit_bytes": round(audit_bytes / sent, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append",
                        choices=[*sorted(bench.WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warmup", type=int, default=2000)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--against", type=Path, help="another checkout to count the stream in")
    args = parser.parse_args(argv)
    if args.requests < 1 or args.warmup < 0:
        parser.error("--requests must be positive and --warmup not negative")
    named = sorted(bench.WORKLOADS) if "all" in args.workload else args.workload
    workloads = list(dict.fromkeys(named))
    here = [counts(workload, args.seed, args.warmup, args.requests) for workload in workloads]
    if args.against is None:
        for line in here:
            print(json.dumps(line, sort_keys=True))
        return 0
    replay = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
              "--warmup", str(args.warmup), "--requests", str(args.requests)]
    for workload in workloads:
        replay += ["--workload", workload]
    completed = subprocess.run(replay, cwd=args.against, check=True, stdout=subprocess.PIPE, text=True)
    there = [json.loads(line) for line in completed.stdout.splitlines()[-len(workloads):]]
    for pair in zip(here, there):
        for line in pair:
            print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
