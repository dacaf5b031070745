"""tools/cost_count.py counts the same Python calls, memo misses, garbage
collections and bytes on every run of a workload's stream."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _counts(*extra):
    completed = subprocess.run(
        [sys.executable, "tools/cost_count.py", "--workload", "pack-mix", "--seed", "3",
         "--warmup", "200", "--requests", "200", *extra],
        cwd=REPO, check=True, capture_output=True, text=True, timeout=300,
    )
    return [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]


def test_two_runs_give_identical_counts():
    [first] = _counts()
    assert first["requests"] == 200 and first["workload"] == "pack-mix"
    assert first["calls"] > 0 and first["response_bytes"] > 0 and first["audit_bytes"] > 0
    assert set(first["memo_misses"]) == set(first["memo_held"]) == {
        "body", "line", "trusted-bag", "plan", "screen", "location", "cell", "legislation"
    }
    assert len(first["gc_collections"]) == 3
    assert _counts() == [first]


def test_against_a_checkout_follows_each_line_with_its_count_there():
    here, there = _counts("--against", str(REPO))
    assert here == there
