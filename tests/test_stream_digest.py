"""tools/stream_digest.py gives the same digests on every run of a workload:
the monitor's responses and audit lines depend only on the request stream
and the pinned clock."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
REQUESTS = 40


def _digests(workload):
    completed = subprocess.run(
        [sys.executable, "tools/stream_digest.py", "--workload", workload, "--seed", "3",
         "--requests", str(REQUESTS)],
        cwd=REPO, check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["pack-mix", "forest-600", "world-200", "reject-mix"])
def test_a_workload_replays_to_the_same_digests(workload):
    first = _digests(workload)
    assert first["requests"] == REQUESTS
    assert _digests(workload) == first


def test_against_the_same_checkout_reports_equal_digests():
    completed = subprocess.run(
        [sys.executable, "tools/stream_digest.py", "--workload", "reject-mix", "--seed", "3",
         "--requests", str(REQUESTS), "--against", str(REPO)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    here, there, verdict = (json.loads(line) for line in completed.stdout.splitlines()[-3:])
    assert here == there and here["requests"] == REQUESTS
    assert verdict == {"equal": True}
