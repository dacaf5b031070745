"""Digests of the responses and audit trail a workload's request stream gets.

    python3 tools/stream_digest.py --workload pack-mix --seed 1 --requests 2000

Run from the root of a lexgate checkout: the workload generator, the loader
and the request stream are those of `perfbench/run.py` in the working
directory (`generate`, `set_up`, `request_stream`), and the program is the
`src/` beside it. The first N requests of the generated stream go through
`ReferenceMonitor.handle_request`, the monitor's `FixedClock` set to each
request's instant. Prints one JSON line: the workload, seed and request
count, the SHA-256 of the response bytes in order, and that of the audit
file. Two checkouts that give equal digests answer and audit the stream
byte for byte alike. Standard library only.

    python3 tools/stream_digest.py --workload pack-mix --seed 1 --requests 2000 --against ../parent

With `--against DIR`, the same replay runs a second time with DIR (another
checkout) as the working directory, so with DIR's generator, loader and
program. Prints this checkout's line, DIR's line, then `{"equal": ...}`, and
exits 1 when the digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "perfbench"))

import run as bench  # noqa: E402


def digests(workload: str, seed: int, requests: int) -> dict:
    program = bench.import_program()
    with tempfile.TemporaryDirectory() as work:
        fixtures, audit_path = Path(work) / "fixtures", Path(work) / "audit.log"
        meta = bench.generate(workload, seed, fixtures)
        monitor, clock, _raw, _scaled = bench.set_up(program, fixtures, audit_path, meta["pseudonym_key"], 1)
        responses = hashlib.sha256()
        sent = 0
        for _round, at, user, secret, raw, _outcome, _kind in bench.request_stream(fixtures, meta):
            if sent == requests:
                break
            clock.set(at)
            response, _record = monitor.handle_request(raw, program["AuthState"](user, secret))
            responses.update(response)
            sent += 1
        monitor.audit.close()
        audit = hashlib.sha256(audit_path.read_bytes()).hexdigest()
    return {"workload": workload, "seed": seed, "requests": sent,
            "response_sha256": responses.hexdigest(), "audit_sha256": audit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--against", type=Path, help="another checkout to replay the stream in")
    args = parser.parse_args(argv)
    here = digests(args.workload, args.seed, args.requests)
    print(json.dumps(here, sort_keys=True))
    if args.against is None:
        return 0
    replay = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
              "--seed", str(args.seed), "--requests", str(args.requests)]
    completed = subprocess.run(replay, cwd=args.against, check=True, stdout=subprocess.PIPE, text=True)
    there = json.loads(completed.stdout.splitlines()[-1])
    print(json.dumps(there, sort_keys=True))
    print(json.dumps({"equal": here == there}))
    return 0 if here == there else 1


if __name__ == "__main__":
    sys.exit(main())
