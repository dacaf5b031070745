"""The verdicts tools/bench_pairs.py prints for paired benchmark runs, and
the copy of the checkout its change side runs in."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "decisions_per_s", "better": "higher", "bound": 0.2},
]


def _runs(metric, parent, change):
    """One complete pair per (parent, change) value of `metric`, the side
    that runs first alternating as bench_pairs.py runs them."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            value = values[0] if side == "parent" else values[1]
            result = {"attempted": 100, "failed": 0, "metrics": {metric: {"value": value}}}
            runs.append({"pair": pair, "side": side, "workload": "w", "seed": pair, "result": result})
    return runs


def _row(metric, parent, change):
    return bench_pairs.summarize(_runs(metric, parent, change), METRICS)["w"]["metrics"][metric]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_a_clear_gain_meets_the_claim():
    row = _row("setup_s", PARENT, [value / 2 for value in PARENT])
    assert row["change_wins"] == 10
    assert (row["claim"], row["regression"]) == ("met", "within bound")


def test_two_lost_pairs_of_ten_fail_the_claim_on_wins():
    change = [value / 2 for value in PARENT[:8]] + [value * 1.1 for value in PARENT[8:]]
    row = _row("setup_s", PARENT, change)
    assert row["change_wins"] == 8
    assert row["claim"] == "not met: wins 8/10 < 9/10"


def test_a_gain_inside_the_parents_spread_fails_the_claim():
    parent = [1.0 + step / 10 for step in range(10)]
    row = _row("setup_s", parent, [value - 0.01 for value in parent])
    assert row["change_wins"] == 10
    assert row["parent"]["q3"] - row["parent"]["q1"] > 0.01
    assert row["claim"] == "not met: median gap <= parent q3-q1"


@pytest.mark.parametrize("factor,regression", [(0.7, "beyond bound"), (0.85, "within bound")])
def test_a_loss_is_judged_against_the_metrics_bound(factor, regression):
    parent = [100.0 + step for step in range(10)]
    row = _row("decisions_per_s", parent, [value * factor for value in parent])
    assert row["change_wins"] == 0
    assert row["claim"].startswith("not met")
    assert row["regression"] == regression


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_the_change_side_is_a_copy_of_the_files_on_disk_outside_the_checkout(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    (checkout / "src" / "program.py").write_text("VALUE = 1\n")
    (checkout / "gone.py").write_text("")
    (checkout / ".gitignore").write_text("ignored/\n")
    _git(checkout, "init", "-q")
    _git(checkout, "add", "-A")
    _git(checkout, "commit", "-q", "-m", "first")
    (checkout / "src" / "program.py").write_text("VALUE = 2\n")  # uncommitted
    (checkout / "gone.py").unlink()
    (checkout / "new.py").write_text("NEW = True\n")  # untracked
    (checkout / "ignored").mkdir()
    (checkout / "ignored" / "cache.bin").write_text("x")
    (checkout / "BENCH.json").write_text("{}")  # the output file
    monkeypatch.setattr(bench_pairs, "ROOT", checkout)
    copy = bench_pairs.copy_checkout(tmp_path / "change", checkout / "BENCH.json")
    assert not copy.resolve().is_relative_to(checkout.resolve())
    assert (copy / "src" / "program.py").read_text() == "VALUE = 2\n"
    files = sorted(str(path.relative_to(copy)) for path in copy.rglob("*") if path.is_file())
    assert files == [".gitignore", "new.py", "src/program.py"]
