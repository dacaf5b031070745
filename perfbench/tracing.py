"""Per-layer spans for the traced benchmark run.

The hooks wrap public entry points of each lexgate layer from outside the
package: a wrapper replaces the attribute on its module or class, records
one span per call (name, request number, start, end, parent) in memory and
charges its duration to the enclosing span, so a layer's self time is its
span minus its child spans. Counters wrap hot helpers without timing them.
A hook whose target no longer exists is reported as absent; the run goes on.
The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# (span name, module, attribute path). Spans nest at run time; the
# per-request self time of a span excludes the spans called inside it.
SPANS = (
    ("pep.monitor", "lexgate.pep", "ReferenceMonitor.handle_request"),
    ("identity.authenticate", "lexgate.context.identity", "IdentityRegistry.authenticate"),
    ("identity.relationship", "lexgate.context.identity", "IdentityRegistry.check_relationship"),
    ("wire.parse", "lexgate.pep", "parse_request"),
    ("wire.serialize", "lexgate.pep", "serialize_response"),
    ("engine.evaluate", "lexgate.engine", "PolicyDecisionPoint.evaluate"),
    ("zones.locate", "lexgate.context.bundle", "LocationSupplier.locate"),
    ("diary.check_task", "lexgate.context.diary", "DiaryStore.check_task"),
    ("legal.select", "lexgate.context.legal", "LegalScopeRegistry.select_legislation"),
    ("pep.obligations", "lexgate.pep", "ObligationService.apply_all"),
    ("pep.audit_append", "lexgate.pep", "AuditLog.append"),
    ("setup.policies", "lexgate.cli", "load_policy_dir"),
    ("setup.zones", "lexgate.context.bundle", "load_zone_tree"),
    ("setup.stores", "lexgate.context.bundle", "load_identities"),
    ("setup.stores", "lexgate.context.bundle", "load_diary"),
    ("setup.stores", "lexgate.context.bundle", "load_scopes"),
    ("setup.stores", "lexgate.context.bundle", "load_resources"),
)

# (counter name, module, attribute path): calls counted, not timed.
COUNTERS = (
    ("zones.polygon_tests", "lexgate.context.zones", "point_in_polygon"),
    ("zones.polygon_tests", "lexgate.context.zones", "disc_polygon_relation"),
    ("combining.calls", "lexgate.combining", "CombinerRegistry.combine"),
)

# Exceptions raised out of locate that mark the degraded location path.
LOCATE_FAILURES = ("PrecisionError", "UnknownTerritoryError")


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    return None if value is None else (owner, parts[-1], value)


class Tracer:
    def __init__(self) -> None:
        self.request = 0  # current request number; 0 outside requests
        self.spans: list[tuple[int, str, int, int, str]] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child_ns]
        self._self_ns: dict[str, int] = defaultdict(int)
        self._total_ns: dict[str, int] = defaultdict(int)
        self._calls: Counter[str] = Counter()
        self._failure_types: tuple = ()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        errors = importlib.import_module("lexgate.errors")
        self._failure_types = tuple(getattr(errors, n) for n in LOCATE_FAILURES if hasattr(errors, n))
        for name, module_name, path in SPANS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{name} ({module_name}.{path})")
                continue
            owner, attribute, fn = found
            setattr(owner, attribute, self._span(name, fn))
        for name, module_name, path in COUNTERS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{name} ({module_name}.{path})")
                continue
            owner, attribute, fn = found
            setattr(owner, attribute, self._counter(name, fn))

    def _span(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter_ns
        self_ns, total_ns, calls, spans = self._self_ns, self._total_ns, self._calls, self.spans
        failures = self._failure_types if name == "zones.locate" else ()
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except failures:
                counts["zones.locate_failures"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total_ns[name] += duration
                self_ns[name] += duration - frame[1]
                calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                spans.append((self.request, name, start, end, parent[0] if parent else ""))

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (spans of set-up included)."""
        self.spans.clear()
        self.counts.clear()
        self._self_ns.clear()
        self._total_ns.clear()
        self._calls.clear()

    def total_us(self, name: str) -> float:
        return self._total_ns.get(name, 0) / 1000.0

    def self_us(self, name: str) -> float:
        return self._self_ns.get(name, 0) / 1000.0

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def names(self) -> list[str]:
        return sorted(self._total_ns)

    def setup_medians(self, loads: int) -> dict[str, float]:
        """Median seconds per set-up load for each setup.* span; spans of
        load n carry request number -(n + 1)."""
        per_load: dict[str, list[float]] = defaultdict(lambda: [0.0] * loads)
        for request, name, start, end, _parent in self.spans:
            if request < 0 and name.startswith("setup."):
                per_load[name][-request - 1] += (end - start) / 1e9
        return {name: statistics.median(values) for name, values in per_load.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("request\tspan\tstart_ns\tend_ns\tparent\n")
            for request, name, start, end, parent in self.spans:
                out.write(f"{request}\t{name}\t{start}\t{end}\t{parent}\n")
