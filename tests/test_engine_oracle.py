"""The engine against the reference evaluator in engine_oracle.py.

Random forests (tests/policybuild.random_forest, with its hostile
extension points: unknown functions and combiners, wrong arities,
registered functions that raise or return a non-boolean) are evaluated
through the compiled, indexed forest and by the oracle's full walk; both
must give the same decision, status, obligations and trace, down to the
response bytes and the audit trace digest, in both legislation modes. The requests carry
missing, multi-valued and non-string bags for the attributes the forests'
targets name, so the literal index meets every case it must not screen.
The forests' conditions compare typed attributes and literals, well- or
ill-typed, and their targets match booleans against bags of other
types, so the engine's typed closures meet the checked functions the
oracle calls; the "level" bags the comparisons read often hold two
values of one type, and a further property evaluates single comparisons,
so a typed one-and-only meets the two-value bags it must refuse.
A second property checks the plan, screen and digest memos: a request
gives the same response, bytes and digest on a cold forest, on a second
call and on a forest warmed by other requests, and each of those
responses serializes, from the forest's shared wire text, to the bytes
its records give line by line. The forests' node ids include non-ASCII
ones, so a byte offset taken for a character offset shows in the bytes.
"""

import dataclasses
import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import engine_oracle
from conftest import make_bundle
from lexgate import engine
from lexgate.engine import FunctionRegistry, PolicyDecisionPoint
from lexgate.model import AttributeValue, Category, DataType, GeoPoint, Target, Trace
from lexgate.parsing.wire import RequestContext, serialize_response
from lexgate.pep import trace_digest
from policybuild import (
    HOSTILE_FUNCTIONS,
    TARGET_LITERALS,
    TYPED_PAIRS,
    TYPED_VALUES,
    document,
    policy,
    random_comparison,
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
    """A request whose target attributes, and the "level" attribute that
    typed conditions read, have empty, single or two-valued bags, with
    values of other types among them."""
    bags = {category: [] for category in Category}
    bags[Category.SUBJECT].append(("user-id", AttributeValue(DataType.IDENTIFIER, "c.miller")))
    for (category, attribute_id), pool in TARGET_LITERALS.items():
        for value in draw(st.lists(_values(pool), max_size=2)):
            bags[category].append((attribute_id, value))
    pairs = st.lists(st.sampled_from(TYPED_PAIRS), min_size=1, max_size=3)
    level = st.just(TYPED_VALUES) | pairs.map(lambda drawn: [value for pair in drawn for value in pair])
    for value in draw(level | st.lists(st.sampled_from(TYPED_VALUES), max_size=2)):
        bags[Category.ENVIRONMENT].append(("level", value))
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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    request=requests(),
    mode=st.sampled_from(("aware", "ignore-tags")),
    earlier=st.lists(st.tuples(requests(), st.sampled_from(("aware", "ignore-tags"))), max_size=6),
)
def test_the_plan_and_digest_memos_change_no_response(pips, seed, request, mode, earlier):
    # The same request on a cold forest, on that forest a second time, and
    # on a forest warmed by earlier requests, the last of them this one in
    # the other mode, whose memos hold one entry at most, so that every new
    # plan, scope set and digest empties them (`_PLANS_HELD` bounds the
    # plans and the screens with their shared wire text). Every plan
    # splices its runs, however short, out of the shared text.
    forest = random_forest(random.Random(seed), hostile=True)
    with mock.patch.object(engine, "_RECORDS_PER_SPLICED_RUN", 0):
        cold = ENGINE.compile(forest)
        first = ENGINE.evaluate(cold, request, pips, legislation_mode=mode)
        second = ENGINE.evaluate(cold, request, pips, legislation_mode=mode)
        other_mode = "ignore-tags" if mode == "aware" else "aware"
        with mock.patch.object(engine, "_PLANS_HELD", 1), mock.patch.object(engine, "_DIGESTS_HELD", 1):
            warm = ENGINE.compile(forest)
            for other, its_mode in [*earlier, (request, other_mode)]:
                ENGINE.evaluate(warm, other, pips, legislation_mode=its_mode)
            warmed = ENGINE.evaluate(warm, request, pips, legislation_mode=mode)
    body = "\n".join(record.digest_text for record in first.trace)
    assert trace_digest(first.trace) == hashlib.sha256(body.encode("utf-8")).hexdigest()
    for again in (second, warmed):
        assert again == first
        assert serialize_response(again) == serialize_response(first)
        assert trace_digest(again.trace) == trace_digest(first.trace)
    for response in (first, second, warmed):
        # A plain tuple of the same records takes the per-record path.
        spliced = isinstance(response.trace, Trace) and response.trace.text is not None
        assert spliced or response.trace[-1].node_id == "<context>"
        per_record = dataclasses.replace(response, trace=tuple(response.trace))
        assert serialize_response(response) == serialize_response(per_record)


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(), request=requests())
def test_a_typed_comparison_agrees_with_the_oracle(pips, rng, request):
    # One rule that always applies, so its condition is evaluated, over
    # requests that often carry two "level" values of the type a typed
    # one-and-only reads. The comparison is drawn step by step, so that
    # Hypothesis varies each choice.
    condition = random_comparison(rng)
    forest = [document(policy("p", [rule("r", condition=condition)]))]
    got = ENGINE.evaluate(ENGINE.compile(forest), request, pips)
    want = engine_oracle.evaluate(ENGINE, forest, request, pips)
    assert (got.decision, got.status, got.trace) == (want.decision, want.status, want.trace)


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
    plan = forest.plan(ctx)
    walk = list(plan.walk)
    # Each run holds the screened documents between two walked ones.
    bounds = [-1, *walk]
    screened = {
        bounds[k] + 1 + offset: record
        for k, run in enumerate(plan.runs)
        for offset, record in enumerate(run)
    }
    assert walk == [0, 2, 4]
    assert [screened[i].reason for i in (1, 3)] == [
        "legislation-scope-miss:FR", "target-no-match:resource",
    ]

