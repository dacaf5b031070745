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

    python3 tools/stream_digest.py --workload all --seed 1 --requests 2000 --against ../parent

`--workload` may be given more than once, or as `all` for every workload of
`perfbench/run.py`; each is replayed in turn. With `--against`, each
workload's line from this checkout is followed by DIR's, and the closing
`{"equal": ...}` holds only when every workload's digests are equal.
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
    parser.add_argument("--workload", required=True, action="append",
                        choices=[*sorted(bench.WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--against", type=Path, help="another checkout to replay the stream in")
    args = parser.parse_args(argv)
    named = sorted(bench.WORKLOADS) if "all" in args.workload else args.workload
    workloads = list(dict.fromkeys(named))
    here = [digests(workload, args.seed, args.requests) for workload in workloads]
    if args.against is None:
        for line in here:
            print(json.dumps(line, sort_keys=True))
        return 0
    replay = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
              "--requests", str(args.requests)]
    for workload in workloads:
        replay += ["--workload", workload]
    completed = subprocess.run(replay, cwd=args.against, check=True, stdout=subprocess.PIPE, text=True)
    there = [json.loads(line) for line in completed.stdout.splitlines()[-len(workloads):]]
    for pair in zip(here, there):
        for line in pair:
            print(json.dumps(line, sort_keys=True))
    print(json.dumps({"equal": here == there}))
    return 0 if here == there else 1


if __name__ == "__main__":
    sys.exit(main())
