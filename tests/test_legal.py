import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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


def test_the_registry_keeps_nothing_per_pair():
    # 150 states give 22,500 pairs; a registry that kept each pair's scope
    # set would hold some 6 MiB after the 20,000 asked.
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
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4 * 1024
    assert peak < 1 << 20


# -- properties over random membership graphs, cycles and undeclared parents included --

_graph_names = [f"g{i}" for i in range(6)]
# The refusals, in the order the registry checks for them.
_REFUSALS = {
    "organization": "organization scope .* is not declared",
    "undeclared": "is member of undeclared scope",
    "cycle": "membership cycle through scope",
}


@st.composite
def membership_graphs(draw):
    """(parents by declared scope id, organization or None). Each scope is
    first a member of scopes drawn before it, which makes a DAG; then up to
    two more edges go in any direction, self-loops and undeclared parents
    among them, and the organization may be undeclared too."""
    declared = draw(st.lists(st.sampled_from(_graph_names), min_size=1, max_size=6, unique=True))
    edges = {
        sid: draw(st.frozensets(st.sampled_from(declared[:index]), max_size=3)) if index else frozenset()
        for index, sid in enumerate(declared)
    }
    extra = st.tuples(st.sampled_from(declared), st.sampled_from([*_graph_names, "ghost"]))
    for child, parent in draw(st.lists(extra, max_size=2)):
        edges[child] |= {parent}
    organization = draw(st.sampled_from([None, *declared, "ghost"]))
    # Declared in an order of their own, so that the registry may meet a
    # scope before its parents.
    return {sid: edges[sid] for sid in draw(st.permutations(declared))}, organization


def refusal_oracle(edges: dict[str, frozenset[str]], organization) -> str | None:
    """Why the registry must refuse the graph (a `_REFUSALS` key), or None.
    A scope lies on a cycle when it is reachable from one of its parents."""
    if organization is not None and organization not in edges:
        return "organization"
    if any(parent not in edges for parents in edges.values() for parent in parents):
        return "undeclared"
    if any(sid in closure_oracle(edges, parent) for sid, parents in edges.items() for parent in parents):
        return "cycle"
    return None


def _scopes_of(edges, organization):
    return [
        LegalScope(sid, "organization" if sid == organization else "sovereign-state", parents)
        for sid, parents in edges.items()
    ]


def test_an_undeclared_parent_is_named_before_a_cycle():
    scopes = [LegalScope("A", "union", frozenset({"B", "ghost"})), LegalScope("B", "union", frozenset({"A"}))]
    with pytest.raises(FixtureError, match=_REFUSALS["undeclared"]):
        LegalScopeRegistry(scopes)


@settings(max_examples=300)
@given(membership_graphs())
def test_the_registry_refuses_exactly_the_graphs_the_oracle_refuses(graph):
    edges, organization = graph
    refused = refusal_oracle(edges, organization)
    if refused is None:
        LegalScopeRegistry(_scopes_of(edges, organization), organization)
        return
    with pytest.raises(FixtureError, match=_REFUSALS[refused]):
        LegalScopeRegistry(_scopes_of(edges, organization), organization)


@settings(max_examples=300)
@given(membership_graphs())
def test_load_time_closures_and_selections_match_the_oracle(graph):
    edges, organization = graph
    if refusal_oracle(edges, organization) is not None:
        return
    registry = LegalScopeRegistry(_scopes_of(edges, organization), organization)
    own = frozenset(() if organization is None else (organization,))
    for sid in edges:
        assert registry.closure(sid) == closure_oracle(edges, sid)
    for a, b in itertools.product(edges, repeat=2):
        assert registry.select_legislation(a, b) == closure_oracle(edges, a) | closure_oracle(edges, b) | own
    known = next(iter(edges))
    for source, destination, named in (("XX", "YY", "XX"), ("XX", known, "XX"), (known, "YY", "YY")):
        with pytest.raises(UnknownScopeError, match=f"unknown legal scope '{named}'"):
            registry.select_legislation(source, destination)
    with pytest.raises(UnknownScopeError, match="unknown legal scope 'XX'"):
        registry.closure("XX")
