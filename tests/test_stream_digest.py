"""tools/stream_digest.py gives the same digests on every run of a workload:
the monitor's responses and audit lines depend only on the request stream
and the pinned clock. The workloads' streams, replayed the same way, also
check that a trace's body is its records' wire text."""

import dataclasses
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lexgate.model import Trace
from lexgate.parsing.wire import serialize_response

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


def test_several_workloads_are_checked_against_a_checkout_in_one_command():
    # A workload named twice is replayed once.
    completed = subprocess.run(
        [sys.executable, "tools/stream_digest.py", "--workload", "reject-mix", "--workload", "pack-mix",
         "--workload", "reject-mix", "--seed", "3", "--requests", str(REQUESTS), "--against", str(REPO)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    *lines, verdict = (json.loads(line) for line in completed.stdout.splitlines())
    assert [line["workload"] for line in lines] == ["reject-mix", "reject-mix", "pack-mix", "pack-mix"]
    assert lines[0] == lines[1] == _digests("reject-mix")
    assert lines[2] == lines[3]
    assert verdict == {"equal": True}


def test_all_replays_every_workload():
    completed = subprocess.run(
        [sys.executable, "tools/stream_digest.py", "--workload", "all", "--seed", "3",
         "--requests", str(REQUESTS)],
        cwd=REPO, check=True, capture_output=True, text=True, timeout=300,
    )
    lines = [json.loads(line) for line in completed.stdout.splitlines()]
    assert [line["workload"] for line in lines] == ["forest-600", "pack-mix", "reject-mix", "world-200"]
    assert lines[1] == _digests("pack-mix")


def test_the_digests_do_not_depend_on_string_hashing():
    # The caller-text memos admit a key by its hash, and a set of strings
    # iterates in hash order: neither may reach an output byte.
    def digests(hash_seed):
        completed = subprocess.run(
            [sys.executable, "tools/stream_digest.py", "--workload", "reject-mix", "--workload", "world-200",
             "--seed", "1", "--requests", "600"],
            cwd=REPO, check=True, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        return [json.loads(line) for line in completed.stdout.splitlines()[-2:]]

    zero = digests("0")
    assert [line["requests"] for line in zero] == [600, 600]
    assert digests("7") == zero


@pytest.fixture(scope="module")
def bench():
    # run.py resolves the checkout from the working directory at import.
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO)
        spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("workload", ["forest-600", "world-200"])
def test_a_workload_trace_serializes_as_its_records_do(bench, tmp_path, workload):
    # The first 200 requests of the stream, as tools/stream_digest.py
    # generates, loads and replays them: each response, its trace's body
    # spliced from views of the forest's shared text or recalled from the
    # response memo, gives the bytes of the plain tuple of its records.
    program = bench.import_program()
    fixtures = tmp_path / "fixtures"
    meta = bench.generate(workload, 1, fixtures)
    monitor, clock, _raw, _scaled = bench.set_up(program, fixtures, tmp_path / "audit.log", meta["pseudonym_key"], 1)
    spliced = 0
    for _round, at, user, secret, raw, _outcome, _kind in itertools.islice(bench.request_stream(fixtures, meta), 200):
        clock.set(at)
        _request, response, view = monitor._decide(raw, program["AuthState"](user, secret))
        plain = dataclasses.replace(response, trace=tuple(response.trace))
        assert serialize_response(response, view) == serialize_response(plain, view)
        spliced += type(response.trace) is Trace and any(isinstance(p, memoryview) for p in response.trace.body)
    monitor.audit.close()
    assert spliced > 100
