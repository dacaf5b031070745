"""lexgate benchmark: one closed loop through ReferenceMonitor.handle_request.

    python3 perfbench/run.py --workload pack-mix --seed 1 --seconds 15 --trace 0

Run from the root of a lexgate checkout. One caller in one thread sends a
request, waits for handle_request to return, checks the response and its
audit record outside the timed interval, and sends the next one, the way an
in-process enforcement point calls the monitor. perfbench/README.md lists
the workloads and metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is split into an
untraced and a traced half and reports per-layer metrics (see tracing.py).
"""

from __future__ import annotations

import argparse
import datetime as dt
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from gen import WORKLOADS  # noqa: E402

# Per workload: fresh set-up loads per run, and the warm-up length in
# requests. Peak RSS is read at the end of the warm-up, so rss_peak_mib
# does not depend on how many requests a run gets through.
SETTINGS = {
    "pack-mix": {"setup_loads": 41, "warmup": 5000},
    "forest-600": {"setup_loads": 9, "warmup": 300},
    "world-200": {"setup_loads": 3, "warmup": 200},
    "reject-mix": {"setup_loads": 41, "warmup": 20000},
}

# The host is shared: while neighbours run, everything here runs up to
# about 1.6 times slower, and the share of such time differs from run to
# run and minute to minute. So the loop is cut into windows of WINDOW_NS
# spent inside handle_request, and a fixed probe (a pure-Python loop plus
# strided reads of a PROBE_BUFFER-byte buffer, so that it feels both CPU and
# cache contention) is timed before and after each window, outside the
# timed intervals. Each time is scaled by PROBE_REF_NS / probe, the slower
# of the window's two probes: time metrics are in microseconds of a host on
# which the probe takes PROBE_REF_NS, about a 2-vCPU x86-64 VM under
# CPython 3.11 with no busy neighbour. The probe does not depend on the program, so a change to the
# program moves the scaled times as it moves the raw ones. Set-up loads are
# scaled the same way. The report also prints the unscaled figures.
WINDOW_NS = 10_000_000
PROBE_LOOPS = 10_000
PROBE_READS = 4_000
PROBE_BUFFER = 1 << 22
PROBE_STRIDE = 262_147
PROBE_REF_NS = 600_000
_probe_buffer = bytes(range(256)) * (PROBE_BUFFER // 256)

END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p95_us": "us",
    "setup_s": "s",
    "rss_peak_mib": "MiB",
    "ok_share": "ratio",
}

NOT_APPLICABLE_REASONS = ("legislation-scope-miss", "target-no-match")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad inputs)."""


def import_program():
    src = ROOT / "src"
    if not (src / "lexgate" / "__init__.py").is_file():
        raise BenchError(f"no lexgate sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    from lexgate import cli, engine, model, pep
    from lexgate.context import bundle, clock, loader

    return {
        "load_bundle": bundle.load_bundle,
        "cli": cli,
        "load_scopes": loader.load_scopes,
        "FixedClock": clock.FixedClock,
        "AuditLog": pep.AuditLog,
        "AuthState": pep.AuthState,
        "ReferenceMonitor": pep.ReferenceMonitor,
        "PolicyDecisionPoint": engine.PolicyDecisionPoint,
        "validate_document": model.validate_document,
    }


def probe_ns() -> int:
    """Time the fixed probe: how fast the host runs right now."""
    buffer, mask = _probe_buffer, PROBE_BUFFER - 1
    start = time.perf_counter_ns()
    total = index = 0
    for i in range(PROBE_LOOPS):
        total += i
    for _ in range(PROBE_READS):
        index = (index + PROBE_STRIDE) & mask
        total += buffer[index]
    return time.perf_counter_ns() - start


def probe_level(count: int = 7) -> float:
    return statistics.median(probe_ns() for _ in range(count))


# -- inputs --------------------------------------------------------------------


def parse_at(text: str) -> dt.datetime:
    return dt.datetime.fromisoformat(text.replace("Z", "+00:00"))


def request_stream(fixtures: Path, meta: dict):
    """Yield (round, instant, user, secret, raw bytes, expectation, kind) in
    time order. A run ends on a round boundary, so a round holds the
    workload's whole mix."""
    if "stream" in meta:
        with open(fixtures / meta["stream"], encoding="utf-8") as lines:
            for line in lines:
                round_id, at, user, secret, raw, outcome, kind = json.loads(line)
                yield round_id, parse_at(at), user, secret, raw.encode("latin-1"), outcome, kind
        return
    templates = meta["templates"]
    encoded = [t["raw"].encode("latin-1") for t in templates]
    start = dt.datetime.combine(dt.date.fromisoformat(meta["start"]), dt.time(0), tzinfo=dt.timezone.utc)
    for day in range(meta["days"]):
        midnight = start + dt.timedelta(days=day)
        for tod_us, repeat, step_us, group in meta["plan"]:
            for r in range(repeat):
                round_id = day if meta["round"] == "day" else day * repeat + r
                for offset_us, ids in group:
                    index = ids[(day * repeat + r) % len(ids)]
                    tpl = templates[index]
                    at = midnight + dt.timedelta(microseconds=tod_us + r * step_us + offset_us)
                    raw = encoded[index]
                    if b"{AT}" in raw:
                        raw = raw.replace(b"{AT}", at.strftime("%Y-%m-%dT%H:%M:%S.%fZ").encode())
                    yield round_id, at, tpl["user"], tpl["secret"], raw, tpl["expect"], tpl["kind"]


class Requests:
    """Iterator over a request stream that can take back the last item."""

    def __init__(self, items):
        self._items = iter(items)
        self._back = []

    def __iter__(self):
        return self

    def __next__(self):
        return self._back.pop() if self._back else next(self._items)

    def push_back(self, item) -> None:
        self._back.append(item)


def generate(workload: str, seed: int, fixtures: Path) -> dict:
    # A separate process, so the generator's memory stays out of rss_peak_mib.
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(fixtures), "--src", str(ROOT / "src" / "lexgate" / "fixtures")],
        check=True,
        timeout=150,
    )
    return json.loads((fixtures / "requests.json").read_text())


def validate(program: dict, fixtures: Path) -> int:
    """Every generated document must pass validate_document against the
    generated scope registry."""
    known = program["load_scopes"](fixtures / "scopes.txt").ids()
    documents = program["cli"].load_policy_dir(fixtures / "policies")
    for document in documents:
        violations = program["validate_document"](document, known_scopes=known)
        if violations:
            raise BenchError(f"{document.source_name}: {violations[0].code} at {violations[0].node_id}")
    return len(documents)


def set_up(program: dict, fixtures: Path, audit_path: Path, key: str, loads: int, tracer=None):
    """`loads` fresh loads of the fixture root through load_bundle and
    load_policy_dir plus monitor construction. Returns the last monitor,
    its clock, and the median seconds per load, raw and scaled by the
    probe level around each load (a load can take seconds, so the level
    is the median of several probes before and after it)."""
    timed = []
    monitor = clock = None
    before = probe_level()
    for n in range(loads):
        monitor = None
        gc.collect()  # the previous load's garbage is not this load's cost
        if tracer is not None:
            tracer.request = -(n + 1)
        start = time.perf_counter()
        clock = program["FixedClock"](dt.datetime(2000, 1, 1, tzinfo=dt.timezone.utc))
        pips = program["load_bundle"](fixtures, clock=clock)
        documents = program["cli"].load_policy_dir(fixtures / "policies")
        monitor = program["ReferenceMonitor"](
            program["PolicyDecisionPoint"](), documents, pips,
            audit=program["AuditLog"](audit_path), pseudonym_key=key,
        )
        seconds = time.perf_counter() - start
        after = probe_level()
        timed.append((seconds, seconds * PROBE_REF_NS * 2 / (before + after)))
        before = after
    if tracer is not None:
        tracer.request = 0
    raw_times, scaled_times = zip(*timed)
    return monitor, clock, statistics.median(raw_times), statistics.median(scaled_times)


# -- the closed loop -------------------------------------------------------------


def read_response(data: bytes, tally) -> list:
    """[decision, status, sorted obligation ids, view mode] of one response
    (docs/wire-format.md), counting its trace records into `tally`. Read
    here rather than with lexgate's parse_response, which rejects the view
    line of a permitted response whose payload is empty."""
    decision = status = view = None
    obligations = []
    for line in data.decode("utf-8").splitlines():
        head, _, rest = line.partition(" ")
        if head == "trace":
            tally.trace_records += 1
            reason = rest.split(" ", 2)[2] if rest.count(" ") >= 2 else ""
            if not reason.startswith(NOT_APPLICABLE_REASONS):
                tally.applicable_records += 1
        elif head == "decision":
            decision = rest
        elif head == "status":
            status = rest
        elif head == "obligation":
            obligations.append(rest.split(" ", 1)[0])
        elif head == "view":
            view = rest.split(" ", 1)[0]
    return [decision, status, sorted(obligations), view]


class Tally:
    """Outcome bookkeeping; keeps counts, never the responses."""

    def __init__(self):
        self.attempted = 0
        self.answered = 0
        self.wrong = 0
        self.raised = 0
        self.outcomes: Counter[str] = Counter()
        self.failures: Counter[str] = Counter()
        self.first_problem = ""
        self.response_bytes = 0
        self.trace_records = 0
        self.applicable_records = 0

    def problem(self, kind: str, text: str) -> None:
        self.failures[kind] += 1
        if not self.first_problem:
            self.first_problem = f"{kind}: {text}"

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "answered", "wrong", "raised"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.outcomes.update(other.outcomes)
        self.failures.update(other.failures)
        self.first_problem = other.first_problem or self.first_problem

    def check(self, kind: str, outcome: list, response: bytes, audit_lines: bytes) -> None:
        """The response must match the expectation recorded with the input,
        and the audit file must have grown by exactly one matching line."""
        self.answered += 1
        self.response_bytes += len(response)
        got = read_response(response, self)
        self.outcomes[got[0]] += 1
        if got != outcome:
            self.wrong += 1
            self.problem(kind, f"expected {outcome}, got {got}")
            return
        fields = audit_lines.split(b"|")
        if audit_lines.count(b"\n") != 1 or len(fields) < 6 or fields[4].decode() != got[0] \
                or fields[5].decode() != got[1]:
            self.wrong += 1
            self.problem(kind, f"audit trail grew by {audit_lines!r}")


class Window:
    """Requests answered while WINDOW_NS were spent inside handle_request."""

    def __init__(self, probe: int):
        self.probe = probe  # slower of the probes before and after
        self.latencies: list[int] = []
        self.inside_ns = 0
        self.answered = 0


def drive(program, monitor, clock, stream, audit_reader, seconds, tally, windows=None,
          max_requests=None, tracer=None):
    """Send requests until `seconds` have passed and the current round is
    complete, or until `max_requests` are sent. Timed windows go to
    `windows` when it is a list. Returns the wall seconds taken."""
    AuthState = program["AuthState"]
    handle = monitor.handle_request
    clock_ns = time.perf_counter_ns
    began = clock_ns()
    deadline = began + int(seconds * 1e9)
    hard_stop = began + int((seconds * 2 + 30) * 1e9)
    window = Window(probe_ns()) if windows is not None else None
    sent = 0
    current = None
    for item in stream:
        round_id, at, user, secret, raw, outcome, kind = item
        now = clock_ns()
        if (sent >= max_requests) if max_requests is not None else (
            (now >= deadline and round_id != current) or now >= hard_stop
        ):
            stream.push_back(item)
            break
        current = round_id
        clock.set(at)
        session = AuthState(user, secret)
        sent += 1
        tally.attempted += 1
        if tracer is not None:
            tracer.request = sent
        start = clock_ns()
        try:
            response, _record = handle(raw, session)
        except Exception as exc:  # counted as a failed request, never hidden
            elapsed = clock_ns() - start
            tally.raised += 1
            tally.problem(kind, f"{type(exc).__name__} raised out of handle_request")
            audit_reader.read()
            response = None
        else:
            elapsed = clock_ns() - start
            tally.check(kind, outcome, response, audit_reader.read() or b"")
        if window is None:
            continue
        window.inside_ns += elapsed
        if response is not None:
            window.answered += 1
            window.latencies.append(elapsed)
        if window.inside_ns >= WINDOW_NS:
            probe = probe_ns()
            window.probe = max(window.probe, probe)
            windows.append(window)
            window = Window(probe)
    if window is not None and window.inside_ns:
        window.probe = max(window.probe, probe_ns())
        windows.append(window)
    return (clock_ns() - began) / 1e9


def scaled(windows: list) -> tuple[list[float], float, int]:
    """Latencies and time inside handle_request (ns) scaled by each
    window's probe, and the answered count."""
    latencies, inside, answered = [], 0.0, 0
    for window in windows:
        factor = PROBE_REF_NS / window.probe
        latencies += [latency * factor for latency in window.latencies]
        inside += window.inside_ns * factor
        answered += window.answered
    latencies.sort()
    return latencies, inside, answered


def percentile(sorted_values, q: float) -> float:
    index = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[index]


# -- report ----------------------------------------------------------------------


def commit_of(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def report(lines: list[str]) -> None:
    for line in lines:
        print(line)


def run(workload: str, seed: int, seconds: float, trace: bool, max_requests=None, emit=report) -> dict:
    """One benchmark run. With max_requests set (the smoke check) the run
    is that many requests and a single set-up load, whatever the time."""
    program = import_program()
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(program, SETTINGS[workload], work, workload, seed, seconds, trace, max_requests, emit)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(program, settings, work, workload, seed, seconds, trace, max_requests, emit) -> dict:
    fixtures = work / "fixtures"
    meta = generate(workload, seed, fixtures)
    documents = validate(program, fixtures)
    audit_path = work / "audit.log"
    audit_path.write_bytes(b"")
    loads = settings["setup_loads"] if max_requests is None else 1
    monitor, clock, setup_raw, setup_s = set_up(program, fixtures, audit_path, meta["pseudonym_key"], loads)

    lines = [
        f"lexgate benchmark: workload={workload} seed={seed} trace={int(trace)}",
        f"machine: {platform.machine()} {platform.system()} {platform.release()}  nproc={os.cpu_count()}  "
        f"python={platform.python_version()}  commit={commit_of(ROOT)}",
        f"inputs: {documents} policy documents, stream {meta.get('stream', 'requests.json')}",
        "loop: closed, one caller, one thread; each request waits for the previous response",
    ]
    stream = Requests(request_stream(fixtures, meta))
    tally = Tally()
    warmup = settings["warmup"] if max_requests is None else max_requests // 2
    with open(audit_path, "rb", buffering=0) as audit_reader:
        drive(program, monitor, clock, stream, audit_reader, 0, tally, max_requests=warmup)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rest = None if max_requests is None else max_requests - warmup
        if trace:
            result = _traced(program, monitor, clock, stream, audit_reader, seconds, tally, fixtures,
                             meta, settings, rest, lines, work, workload, seed)
        else:
            windows: list[Window] = []
            wall = drive(program, monitor, clock, stream, audit_reader, seconds, tally, windows, rest)
            result = _end_to_end(tally, windows, wall, setup_raw, setup_s, rss_mib, lines)
    failed = tally.wrong + tally.raised
    lines.append(
        "outcomes: " + " ".join(f"{d}={tally.outcomes.get(d, 0)}" for d in
                                ("Permit", "Deny", "NotApplicable", "Indeterminate"))
        + f" raised={tally.raised}"
    )
    lines.append(f"failed: {failed} of {tally.attempted} ({failed / max(1, tally.attempted):.4f})"
                 + (f"; by kind {dict(tally.failures)}; first: {tally.first_problem}" if failed else ""))
    emit(lines)
    return {
        "correct": tally.wrong == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": result,
        "failed_kinds": dict(tally.failures),
    }


def _end_to_end(tally, windows, wall, setup_raw, setup_s, rss_mib, lines) -> dict:
    latencies, inside_ns, answered = scaled(windows)
    values = {
        "decisions_per_s": answered / (inside_ns / 1e9) if inside_ns else 0.0,
        "latency_p50_us": percentile(latencies, 0.50) / 1000.0 if latencies else 0.0,
        "latency_p95_us": percentile(latencies, 0.95) / 1000.0 if latencies else 0.0,
        "setup_s": setup_s,
        "rss_peak_mib": rss_mib,
        "ok_share": (tally.attempted - tally.wrong - tally.raised) / max(1, tally.attempted),
    }
    raw = sorted(latency for window in windows for latency in window.latencies) or [0]
    raw_inside = sum(window.inside_ns for window in windows) or 1
    probes = sorted(window.probe for window in windows) or [0]
    lines.append(f"samples: {len(latencies)} timed requests in {len(windows)} windows over {wall:.2f} s "
                 f"({int(len(latencies) * 0.05)} beyond p95)")
    lines.append(f"probe: fastest {probes[0] / 1e3:.0f} us, median {statistics.median(probes) / 1e3:.0f} us, "
                 f"reference {PROBE_REF_NS / 1e3:.0f} us")
    lines.append(f"unscaled: decisions_per_s {answered / (raw_inside / 1e9):.6g} 1/s, latency_p50_us "
                 f"{percentile(raw, 0.5) / 1e3:.6g} us, latency_p95_us {percentile(raw, 0.95) / 1e3:.6g} us, "
                 f"setup_s {setup_raw:.6g} s")
    for name, value in values.items():
        lines.append(f"{name:>16} {value:.6g} {END_TO_END_UNITS[name]}")
    failed_share = (tally.wrong + tally.raised) / max(1, tally.attempted)
    lines.append(f"{'failed_share':>16} {failed_share:.6g} ratio")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def _traced(program, monitor, clock, stream, audit_reader, seconds, tally, fixtures, meta, settings,
            max_requests, lines, work, workload, seed) -> dict:
    from tracing import Tracer

    # Untraced half first: the reference rate for bench.trace_overhead.
    half = seconds / 2
    cap = None if max_requests is None else max(1, max_requests // 2)
    plain_tally, plain_windows = Tally(), []
    drive(program, monitor, clock, stream, audit_reader, half, plain_tally, plain_windows, cap)
    _, inside, answered = scaled(plain_windows)
    untraced_rate = answered / (inside / 1e9) if inside else 0.0

    tracer = Tracer()
    tracer.install()
    loads = settings["setup_loads"] if max_requests is None else 1
    set_up(program, fixtures, work / "setup-audit.log", meta["pseudonym_key"], loads, tracer)
    setup = tracer.setup_medians(loads)
    tracer.reset()

    traced, traced_windows = Tally(), []
    wall = drive(program, monitor, clock, stream, audit_reader, half, traced, traced_windows, cap, tracer)
    _, inside, answered = scaled(traced_windows)
    traced_rate = answered / (inside / 1e9) if inside else 0.0
    n = max(1, traced.attempted)

    def held(read):
        try:
            return float(read())
        except AttributeError:
            return 0.0

    def per_request(name: str, self_time: bool = False) -> float:
        return (tracer.self_us(name) if self_time else tracer.total_us(name)) / n

    values = {
        "wire.parse_us": ("us", per_request("wire.parse")),
        "wire.serialize_us": ("us", per_request("wire.serialize")),
        "wire.response_bytes": ("bytes", traced.response_bytes / max(1, traced.answered)),
        "zones.locate_us": ("us", per_request("zones.locate")),
        "zones.polygon_tests": ("count", tracer.counts["zones.polygon_tests"] / n),
        "zones.locate_failures": ("count", tracer.counts["zones.locate_failures"] / n),
        "diary.check_task_us": ("us", per_request("diary.check_task")),
        "identity.us": ("us", per_request("identity.authenticate") + per_request("identity.relationship")),
        "legal.select_us": ("us", per_request("legal.select")),
        "engine.evaluate_us": ("us", per_request("engine.evaluate")),
        "engine.self_us": ("us", per_request("engine.evaluate", self_time=True)),
        "engine.nodes_visited": ("count", traced.trace_records / max(1, traced.answered)),
        "engine.applicable_share": ("ratio", traced.applicable_records / max(1, traced.trace_records)),
        "combining.calls": ("count", tracer.counts["combining.calls"] / n),
        "pep.obligations_us": ("us", per_request("pep.obligations")),
        "pep.audit_append_us": ("us", per_request("pep.audit_append")),
        "pep.monitor_self_us": ("us", per_request("pep.monitor", self_time=True)),
        "pep.audit_records_held": ("count", held(lambda: len(monitor.audit.records()))),
        "context.log_events_held": ("count", held(lambda: len(monitor.pips.log.events))),
        "setup.policies_s": ("s", setup.get("setup.policies", 0.0)),
        "setup.zones_s": ("s", setup.get("setup.zones", 0.0)),
        "setup.stores_s": ("s", setup.get("setup.stores", 0.0)),
        "bench.trace_overhead": ("ratio", traced_rate / untraced_rate - 1 if untraced_rate else 0.0),
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.tsv"
    tracer.write(spans_path)
    lines.append(f"samples: {plain_tally.attempted} untraced, then {n} traced requests in {wall:.2f} s; "
                 f"spans written to {spans_path.relative_to(ROOT)}")
    lines.append(f"{'span':<24}{'calls/req':>10}{'total us/req':>14}{'self us/req':>13}")
    for name in tracer.names():
        if not name.startswith("setup."):
            lines.append(f"{name:<24}{tracer.calls(name) / n:>10.3g}{per_request(name):>14.2f}"
                         f"{per_request(name, self_time=True):>13.2f}")
    for name, (unit, value) in values.items():
        lines.append(f"{name:>26} {value:.6g} {unit}")
    for absent in tracer.absent:
        lines.append(f"absent layer (hook point not found, reported as 0): {absent}")
    tally.merge(plain_tally)
    tally.merge(traced)
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lexgate closed-loop benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    del result["failed_kinds"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
