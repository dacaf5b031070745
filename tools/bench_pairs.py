"""Paired benchmark runs: a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent de72bae \
        --runs reject-mix:7101-7110 --runs pack-mix:7201-7205 \
        --trace 0 --out BENCH_pr7.json

Run from the root of a lexgate checkout. The parent revision is extracted
with `git archive <rev> | tar -x` into a temporary directory, and the change
is copied from this checkout, committed or not, into another one: its
tracked files as they are on disk and the untracked files git does not
ignore, so both sides run from fresh copies without the checkout's caches
or build leftovers. For each workload and seed the two
sides run `perfbench/run.py` with the same command line, for the
`run_seconds` BENCHMARK.json fixes, one after the other, and the side that
runs first alternates from pair to pair. Each run's last line of output (the
benchmark's JSON result) is kept. The summary prints, per workload and
end-to-end metric of BENCHMARK.json, each side's median and quartiles, the
pairs the change won (ties count for neither side) and two verdicts, also
kept in the output file's summary. The claim verdict is "met" when the
change won at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile range (q3 - q1). The
regression verdict is "beyond bound" when the change's median is worse
than the parent's by more than the metric's BENCHMARK.json `bound`, a
fraction of the parent's median, else "within bound". The output file
holds the machine, the Python version, both revisions and every run; it
is rewritten after each run, so an interrupted session keeps what it ran.
The change side is identified by the git tree of its tracked files as
copied, the output file left out, and the list of untracked files git does
not ignore: a commit holds the measured code when `git diff --stat <tree>
<commit>` names no program file (only the output file and documents
written after the run).
Standard library only.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SIDES = ("parent", "change")


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True,
        env={**os.environ, **(env or {})},
    ).stdout.strip()


def measured_tree(out: Path) -> dict:
    """The change side as it is run: the tree of the tracked files in the
    checkout (written with a copy of the index, so the real one is left
    alone), without `out` when it lies in the checkout; the untracked files
    git does not ignore; and whether anything differs from HEAD."""
    try:
        inside = [str(out.resolve().relative_to(ROOT.resolve()))]
    except ValueError:
        inside = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-index-") as temp:
        env = {"GIT_INDEX_FILE": str(Path(temp) / "index")}
        shutil.copyfile(ROOT / git("rev-parse", "--git-path", "index"), env["GIT_INDEX_FILE"])
        git("add", "-u", env=env)
        if inside:
            git("rm", "-q", "--cached", "--ignore-unmatch", "--", *inside, env=env)
        tree = git("write-tree", env=env)
    excluded = [f":(exclude){path}" for path in inside]
    return {
        "rev": "working tree",
        "head": git("rev-parse", "HEAD"),
        "tree": tree,
        "untracked": git("ls-files", "--others", "--exclude-standard").splitlines(),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", ".", *excluded)),
    }


def extract(rev: str, into: Path) -> Path:
    """The files of `rev`, as `git archive` gives them, under `into`."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")
    return into


def copy_checkout(into: Path, leave_out: Path) -> Path:
    """The checkout's files as they are on disk, under `into`: its tracked
    files (edits included, files deleted from disk left out) and the
    untracked files git does not ignore, `leave_out` (the output file)
    excepted."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    into.mkdir(parents=True)
    for name in filter(None, dict.fromkeys(names)):
        source = ROOT / name
        if not source.exists() or source.resolve() == leave_out.resolve():
            continue
        (into / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, into / name)
    return into


def parse_runs(text: str) -> tuple[str, list[int]]:
    """'reject-mix:7101-7110' or 'pack-mix:7201' -> workload, seeds."""
    workload, _, seeds = text.partition(":")
    if not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    low, _, high = seeds.partition("-")
    return workload, list(range(int(low), int(high or low) + 1))


def run_once(checkout: Path, command: list[str]) -> dict:
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdicts(row: dict, pairs: int, higher: bool, bound: float) -> tuple[str, str]:
    """The claim verdict and the regression verdict of one metric's row."""
    parent, change = row["parent"]["median"], row["change"]["median"]
    gain = change - parent if higher else parent - change
    missing = []
    if row["change_wins"] * 10 < 9 * pairs:
        missing.append(f"wins {row['change_wins']}/{pairs} < 9/10")
    if gain <= row["parent"]["q3"] - row["parent"]["q1"]:
        missing.append("median gap <= parent q3-q1")
    claim = "not met: " + ", ".join(missing) if missing else "met"
    beyond = -gain > bound * abs(parent)
    return claim, "beyond bound" if beyond else "within bound"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the complete pairs, attempted and failed counts, and
    per end-to-end metric each side's quartiles, the change's wins and the
    claim and regression verdicts."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [p for p in pairs.values() if len(p) == 2]
        rows = {
            "pairs": len(complete),
            "attempted": {side: [p[side]["attempted"] for p in complete] for side in SIDES},
            "failed": {side: sum(p[side]["failed"] for p in complete) for side in SIDES},
            "metrics": {},
        }
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [p[side]["metrics"].get(name, {}).get("value") for p in complete]
                      for side in SIDES}
            if not complete or None in values["parent"] + values["change"]:
                continue
            row = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side]))) for side in SIDES}
            row["change_wins"] = sum(
                (c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"])
            )
            row["claim"], row["regression"] = verdicts(row, len(complete), higher, metric["bound"])
            rows["metrics"][name] = row
        summary[workload] = rows
    return summary


def print_summary(summary: dict) -> None:
    for workload, rows in summary.items():
        print(f"{workload}: {rows['pairs']} pairs, failed parent={rows['failed']['parent']} "
              f"change={rows['failed']['change']}")
        for name, row in rows["metrics"].items():
            p, c = row["parent"], row["change"]
            ratio = c["median"] / p["median"] if p["median"] else float("nan")
            print(f"  {name:16} parent {p['median']:12.3f} [{p['q1']:.3f}, {p['q3']:.3f}]  "
                  f"change {c['median']:12.3f} [{c['q1']:.3f}, {c['q3']:.3f}]  "
                  f"ratio {ratio:.3f}  change wins {row['change_wins']}/{rows['pairs']}  "
                  f"claim {row['claim']}; {row['regression']}")
        for side in SIDES:
            print(f"  attempted {side} {rows['attempted'][side]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change pairs of perfbench/run.py")
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--runs", type=parse_runs, action="append", required=True,
                        metavar="WORKLOAD:SEEDS", help="e.g. reject-mix:7101-7110; repeatable")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], f"{benchmark['run_seconds']:g}"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as temp:
        checkouts = {
            "parent": extract(args.parent, Path(temp) / "parent"),
            "change": copy_checkout(Path(temp) / "change", args.out),
        }
        sides = {
            "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
            "change": measured_tree(args.out),
        }
        document = {
            "tool": "tools/bench_pairs.py",
            "started": dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds"),
            "machine": {
                "platform": platform.platform(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
            },
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "sides": sides,
            "command": ["python3", "perfbench/run.py", "--workload", "W", "--seed", "N",
                        "--seconds", seconds, "--trace", str(args.trace)],
            "runs": [],
        }
        pair = 0
        for workload, seeds in args.runs:
            for seed in seeds:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    command = [sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", seconds,
                               "--trace", str(args.trace)]
                    result = run_once(checkouts[side], command)
                    document["runs"].append(
                        {"pair": pair, "side": side, "workload": workload, "seed": seed, "result": result}
                    )
                    values = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
                    print(f"pair {pair} {workload} seed {seed} {side}: attempted={result['attempted']} "
                          f"failed={result['failed']} {values}", flush=True)
                    document["summary"] = summarize(document["runs"], metrics)
                    args.out.write_text(json.dumps(document, indent=1) + "\n")
                pair += 1
    print_summary(document["summary"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
