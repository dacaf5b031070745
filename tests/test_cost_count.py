"""tools/cost_count.py counts the same Python calls, memo misses, garbage
collections and bytes on every run of a workload's stream, and each
workload's calls per request stay within a checked-in bound."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
        "body", "line", "trusted-bag", "plan", "screen", "location", "cell", "response"
    }
    assert len(first["gc_collections"]) == 3
    assert _counts() == [first]


def test_against_a_checkout_follows_each_line_with_its_count_there():
    here, there = _counts("--against", str(REPO))
    assert here == there


# Python calls per request over seed 5's streams, 1,000 requests after 300
# warm-up: the counts when the bounds were set (CPython 3.11.7), plus 1%. A change that
# adds calls to a request fails here; raising a bound is a visible edit,
# listed in CHANGES.md like a BENCHMARK.json bound.
CALLS_PER_REQUEST_BOUNDS = {
    "forest-600": 171.34,  # 169.635
    "pack-mix": 175.75,  # 174.008
    "reject-mix": 55.44,  # 54.89
    "world-200": 316.35,  # 313.217
}


def test_calls_per_request_stay_within_their_bounds():
    completed = subprocess.run(
        [sys.executable, "tools/cost_count.py", "--workload", "all", "--seed", "5",
         "--warmup", "300", "--requests", "1000"],
        cwd=REPO, check=True, capture_output=True, text=True, timeout=600,
    )
    counted = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    calls = {line["workload"]: line["calls"] for line in counted}
    assert set(calls) == set(CALLS_PER_REQUEST_BOUNDS)
    assert all(line["requests"] == 1000 for line in counted)
    over = {name: (calls[name], bound) for name, bound in CALLS_PER_REQUEST_BOUNDS.items() if calls[name] > bound}
    assert not over, f"calls per request over their bounds (count, bound): {over}"
    for line in counted:
        assert sum(line["calls_by_module"].values()) == pytest.approx(line["calls"], abs=0.01)


# Response-memo misses per request, each one a walk of the policy tree, over
# the same seed-5 replay: the counts when the bounds were set plus one walk
# in the 1,000 requests, since a share of 1% of so few walks is not one.
# Walk keys that stop repeating would give a walk on most requests.
WALKS_PER_REQUEST_BOUNDS = {
    "forest-600": 0.001,  # 0.0
    "pack-mix": 0.001,  # 0.0
    "reject-mix": 0.001,  # 0.0
    "world-200": 0.003,  # 0.002
}


def test_walks_per_request_stay_within_their_bounds():
    completed = subprocess.run(
        [sys.executable, "tools/cost_count.py", "--workload", "all", "--seed", "5",
         "--warmup", "300", "--requests", "1000"],
        cwd=REPO, check=True, capture_output=True, text=True, timeout=600,
    )
    counted = [json.loads(line) for line in completed.stdout.splitlines() if line.startswith("{")]
    walks = {line["workload"]: line["memo_misses"]["response"] for line in counted}
    assert set(walks) == set(WALKS_PER_REQUEST_BOUNDS)
    over = {name: (walks[name], bound) for name, bound in WALKS_PER_REQUEST_BOUNDS.items() if walks[name] > bound}
    assert not over, f"walks per request over their bounds (count, bound): {over}"
