import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from lexgate.context.legal import LegalScope, LegalScopeRegistry
from lexgate.context.loader import load_scopes
from lexgate.errors import FixtureError, UnknownScopeError


@pytest.fixture(scope="module")
def registry(fixtures_root):
    return load_scopes(fixtures_root / "scopes.txt")


def closure_oracle(edges: dict[str, frozenset[str]], start: str) -> frozenset[str]:
    """Independent reachability over membership edges (breadth-first)."""
    seen = {start}
    queue = [start]
    while queue:
        for parent in edges.get(queue.pop(0), frozenset()):
            if parent not in seen:
                seen.add(parent)
                queue.append(parent)
    return frozenset(seen)


def _edges_of(registry: LegalScopeRegistry) -> dict[str, frozenset[str]]:
    return {sid: registry.get(sid).parent_memberships for sid in registry.ids()}


def test_same_country_connection(registry):
    assert registry.select_legislation("LU", "LU") == frozenset({"LU", "EU", "org:bank"})


def test_cross_border_inside_the_union(registry):
    edges = _edges_of(registry)
    expected = closure_oracle(edges, "DE") | closure_oracle(edges, "LU") | {"org:bank"}
    assert expected == frozenset({"DE", "LU", "EU", "org:bank"})
    assert registry.select_legislation("DE", "LU") == expected


def test_connection_from_outside_any_union(registry):
    edges = _edges_of(registry)
    expected = closure_oracle(edges, "JP") | closure_oracle(edges, "LU") | {"org:bank"}
    assert expected == frozenset({"JP", "LU", "EU", "org:bank"})
    assert registry.select_legislation("JP", "LU") == expected


def test_unknown_scope_raises(registry):
    with pytest.raises(UnknownScopeError):
        registry.select_legislation("XX", "LU")
    with pytest.raises(UnknownScopeError):
        registry.closure("nowhere")


def test_membership_cycles_are_rejected():
    with pytest.raises(FixtureError):
        LegalScopeRegistry(
            [
                LegalScope("A", "union", frozenset({"B"})),
                LegalScope("B", "union", frozenset({"A"})),
            ]
        )


def test_undeclared_parent_is_rejected():
    with pytest.raises(FixtureError):
        LegalScopeRegistry([LegalScope("A", "state", frozenset({"ghost"}))])


# -- properties over random membership DAGs ----------------------------------

_scope_names = [f"s{i}" for i in range(8)]


@st.composite
def random_registries(draw):
    # Edges only point from higher indices to lower ones, so acyclicity holds
    # by construction.
    scopes = []
    for index, name in enumerate(_scope_names):
        parents = draw(
            st.frozensets(st.sampled_from(_scope_names[:index]) if index else st.nothing(),
                          max_size=min(index, 3))
        )
        scopes.append(LegalScope(name, "sovereign-state", parents))
    return LegalScopeRegistry(scopes)


@given(
    random_registries(),
    st.sampled_from(_scope_names),
    st.sampled_from(_scope_names),
)
def test_select_legislation_is_symmetric(registry, a, b):
    assert registry.select_legislation(a, b) == registry.select_legislation(b, a)


@given(
    random_registries(),
    st.sampled_from(_scope_names),
    st.sampled_from(_scope_names),
    st.sampled_from(_scope_names),
    st.sampled_from(_scope_names),
)
def test_adding_a_membership_edge_never_shrinks_results(registry, a, b, child, parent):
    if child == parent:
        return
    before = registry.select_legislation(a, b)
    grown = []
    for sid in registry.ids():
        scope = registry.get(sid)
        if sid == child and parent not in scope.parent_memberships:
            scope = LegalScope(sid, scope.kind, scope.parent_memberships | {parent})
        grown.append(scope)
    try:
        grown_registry = LegalScopeRegistry(grown)
    except FixtureError:
        return  # the extra edge would create a cycle; not a comparable case
    after = grown_registry.select_legislation(a, b)
    assert before <= after


def test_the_legislation_memo_stays_bounded_over_distinct_pairs():
    # 150 states give 22,500 pairs; unbounded, the 20,000 asked would hold
    # some 6 MiB of scope sets.
    states = [LegalScope(f"S{n:03d}", "sovereign-state", frozenset({"U"} if n % 2 else ())) for n in range(150)]
    registry = LegalScopeRegistry(
        [LegalScope("U", "union"), LegalScope("org", "organization"), *states], organization="org"
    )
    pairs = itertools.islice(itertools.product([state.id for state in states], repeat=2), 20_000)
    gc.collect()
    tracemalloc.start()
    try:
        for source, destination in pairs:
            assert registry.select_legislation(source, destination) >= {source, destination, "org"}
            assert len(registry._selected) <= 1_024
        gc.collect()
        _held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert registry._selected.misses == 20_000
    assert peak < 1 << 20  # a full memo holds about 0.3 MiB
