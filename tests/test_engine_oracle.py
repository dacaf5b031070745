"""The engine against the reference evaluator in engine_oracle.py.

Random forests (tests/policybuild.random_forest, with its hostile
extension points: unknown functions and combiners, wrong arities,
registered functions that raise or return a non-boolean) are evaluated
through the compiled, indexed forest and by the oracle's full walk; both
must give the same decision, status, obligations and trace, down to the
response bytes and the audit trace digest, in both legislation modes. The requests carry
missing, multi-valued and non-string bags for the attributes the forests'
targets name, so the literal index meets every case it must not screen.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import engine_oracle
from conftest import make_bundle
from lexgate.engine import FunctionRegistry, PolicyDecisionPoint
from lexgate.model import AttributeValue, Category, DataType, GeoPoint, Target
from lexgate.parsing.wire import RequestContext, serialize_response
from lexgate.pep import trace_digest
from policybuild import (
    HOSTILE_FUNCTIONS,
    TARGET_LITERALS,
    document,
    policy,
    random_forest,
    rule,
    string_clause,
)

# Registers the misbehaving functions that hostile random forests call.
ENGINE = PolicyDecisionPoint(FunctionRegistry(HOSTILE_FUNCTIONS))
NOON = "2026-03-10T12:00:00Z"
# London (GB), Zurich (CH) and Frankfurt (DE); and open sea, in one request
# of ten: no country, so the context build fails and both sides fold to a
# processing error.
LAND = (GeoPoint(51.507861, -0.099349), GeoPoint(47.36, 8.53), GeoPoint(50.40, 8.70))
POINTS = LAND * 3 + (GeoPoint(0.0, 0.0),)


@pytest.fixture(scope="module")
def pips():
    return make_bundle(NOON)


def _values(pool):
    """One attribute value: in one case of eight an integer or boolean,
    else a string or identifier from the pool or not."""
    text = st.sampled_from(pool + ("other",))
    return st.sampled_from(("string",) * 5 + ("identifier", "integer", "boolean")).flatmap(
        lambda kind: {
            "string": text.map(lambda t: AttributeValue(DataType.STRING, t)),
            "identifier": text.map(lambda t: AttributeValue(DataType.IDENTIFIER, t)),
            "integer": st.integers(0, 2).map(lambda n: AttributeValue(DataType.INTEGER, n)),
            "boolean": st.booleans().map(lambda b: AttributeValue(DataType.BOOLEAN, b)),
        }[kind]
    )


@st.composite
def requests(draw):
    """A request whose target attributes have empty, single or two-valued
    bags, with non-string values among them."""
    bags = {category: [] for category in Category}
    bags[Category.SUBJECT].append(("user-id", AttributeValue(DataType.IDENTIFIER, "c.miller")))
    for (category, attribute_id), pool in TARGET_LITERALS.items():
        for value in draw(st.lists(_values(pool), max_size=2)):
            bags[category].append((attribute_id, value))
    point = draw(st.sampled_from(POINTS))
    bags[Category.ENVIRONMENT].append(("current-position", AttributeValue(DataType.GEO_POINT, point)))
    return RequestContext(
        subject=tuple(bags[Category.SUBJECT]),
        resource=tuple(bags[Category.RESOURCE]),
        action=tuple(bags[Category.ACTION]),
        environment=tuple(bags[Category.ENVIRONMENT]),
    )


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    request=requests(),
    mode=st.sampled_from(("aware", "ignore-tags")),
)
def test_engine_agrees_with_the_oracle(pips, seed, request, mode):
    forest = random_forest(random.Random(seed), hostile=True)
    got = ENGINE.evaluate(ENGINE.compile(forest), request, pips, legislation_mode=mode)
    want = engine_oracle.evaluate(ENGINE, forest, request, pips, legislation_mode=mode)
    assert got.decision is want.decision
    assert got.status == want.status
    assert got.obligations == want.obligations
    assert got.trace == want.trace
    assert serialize_response(got) == serialize_response(want)
    assert trace_digest(got.trace) == trace_digest(want.trace)


def test_only_candidate_documents_are_walked(pips):
    # GB -> LU: LU and EU apply, FR does not; the request reads
    # products/overview, so the res-x document is screened on its literal.
    forest = ENGINE.compile([
        document(policy("lu", [rule("lu-r")], legislation=frozenset({"LU"}))),
        document(policy("fr", [rule("fr-r")], legislation=frozenset({"FR"}))),
        document(policy("untagged", [rule("u-r")])),
        document(policy(
            "res-x", [rule("x-r")],
            target=Target(resources=(string_clause("resource-id", "res-x"),)),
        )),
        document(policy(
            "overview", [rule("o-r")],
            target=Target(resources=(string_clause("resource-id", "products/overview"),)),
        )),
    ])
    request = RequestContext(
        subject=(("user-id", AttributeValue(DataType.IDENTIFIER, "c.miller")),),
        resource=(("resource-id", AttributeValue(DataType.STRING, "products/overview")),),
        environment=(("current-position", AttributeValue(DataType.GEO_POINT, LAND[0])),),
    )
    ctx = ENGINE._build_context(request, pips, "aware")
    ctx.applicable_scopes = pips.scopes.select_legislation(ctx.source_country, ctx.destination_country)
    screened, walk = forest.plan(ctx)
    assert walk == [0, 2, 4]
    assert [screened[i].reason for i in (1, 3)] == [
        "legislation-scope-miss:FR", "target-no-match:resource",
    ]

