"""The engine against the reference evaluator in engine_oracle.py.

Random forests (tests/policybuild.random_forest, with its hostile
draws: unknown functions and combiners, wrong arities) are evaluated
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
A second property checks the plan, screen and response memos: a request
gives the same response, bytes and digest on a cold forest, on a second
call and on a forest warmed by other requests at other instants and
from other places, with the local time at, and 1 µs to either side of,
each time literal that the forest compares it with; and each of those
responses serializes, from the forest's shared wire text, to the bytes
its records give line by line. The forests' node ids include non-ASCII
ones, so a byte offset taken for a character offset shows in the bytes.
"""

import dataclasses
import datetime as dt
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import engine_oracle
from conftest import make_bundle
from lexgate.context.clock import FixedClock
from lexgate.context.zones import resolve_location
from lexgate.engine import PolicyDecisionPoint
from lexgate.instant import parse_instant
from lexgate.model import (
    AttributeSelector,
    AttributeValue,
    Category,
    DataType,
    Decision,
    Effect,
    FunctionApplication,
    GeoPoint,
    Literal,
    MatchClause,
    STATUS_OK,
    Target,
    Trace,
    trace_digest,
)
from lexgate.parsing.wire import RequestContext, serialize_response
from policybuild import (
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

ENGINE = PolicyDecisionPoint()
NOON = "2026-03-10T12:00:00Z"
# London (GB), Zurich (CH) and Frankfurt (DE); and open sea, in one request
# of ten: no country, so the context build fails and both sides fold to a
# processing error.
LAND = (GeoPoint(51.507861, -0.099349), GeoPoint(47.36, 8.53), GeoPoint(50.40, 8.70))
POINTS = LAND * 3 + (GeoPoint(0.0, 0.0),)
# The hours by which each point's local time is ahead of UTC.
UTC_OFFSETS = dict(zip(POINTS, (0, 1, 1) * 3 + (0,)))


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
    if not got.trace or got.trace[-1].node_id != "<context>":  # a completed walk
        assert got.status == STATUS_OK and got.decision is not Decision.INDETERMINATE
    assert got.decision is want.decision
    assert got.status == want.status
    assert got.obligations == want.obligations
    assert got.trace == want.trace
    assert serialize_response(got) == serialize_response(want)
    assert trace_digest(got.trace) == trace_digest(want.trace)


# The time literals of the generated conditions; a document that compares
# the local time by order with each of them, through a selector and a
# match clause; and the instants at which the local time of a GB (UTC+0)
# or a CH or DE (UTC+1) source is at one of them or 1 µs to either side.
TIMES = sorted({value.value for value in TYPED_VALUES if value.data_type is DataType.TIME_OF_DAY})
_LOCAL_TIME = FunctionApplication(
    "function:time-one-and-only",
    (AttributeSelector(Category.ENVIRONMENT, "current-time", DataType.TIME_OF_DAY),),
)
CLOCK_DOCUMENT = document(policy("clock", [
    rule(f"clock-{k}-{kind}", effect, condition=condition, target=target)
    for k, time in enumerate(TIMES)
    for literal in [AttributeValue(DataType.TIME_OF_DAY, time)]
    for kind, effect, condition, target in (
        ("ge", Effect.PERMIT,
         FunctionApplication("function:time-greater-than-or-equal", (_LOCAL_TIME, Literal(literal))), Target()),
        ("le", Effect.DENY,
         FunctionApplication("function:time-less-than-or-equal", (Literal(literal), _LOCAL_TIME)), Target()),
        ("match", Effect.PERMIT, None,
         Target(environments=(MatchClause("current-time", "function:time-less-than-or-equal", literal),))),
    )
], combining="first-applicable"))
# A document whose target reads the location: its location-match on the
# user id, which every request carries, is true for a GB source.
PLACE_DOCUMENT = document(policy("place", [rule("place-r", Effect.PERMIT)], target=Target(
    subjects=(MatchClause("user-id", "function:location-match", AttributeValue(DataType.STRING, "GB")),),
)))
INSTANTS = [
    dt.datetime.combine(dt.date(2026, 3, 10), time, tzinfo=dt.timezone.utc) + step - offset
    for time in TIMES
    for step in (-dt.timedelta(microseconds=1), dt.timedelta(0), dt.timedelta(microseconds=1))
    for offset in (dt.timedelta(0), dt.timedelta(hours=1))
]
MODES = st.sampled_from(("aware", "ignore-tags"))


# The attributes whose bags generated requests vary, and their position,
# which location-match reads through the source country and zone.
POSITION = (Category.ENVIRONMENT, "current-position")
VARIED = (*TARGET_LITERALS, (Category.ENVIRONMENT, "level"), POSITION)


def _with_bag(request, other, attribute):
    """The request with its bag for `attribute` taken from `other`."""
    category, attribute_id = attribute
    kept = [pair for pair in request.category(category) if pair[0] != attribute_id]
    taken = [pair for pair in other.category(category) if pair[0] == attribute_id]
    return dataclasses.replace(request, **{category.value: (*kept, *taken)})


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    request=requests(),
    mode=MODES,
    at=st.sampled_from(INSTANTS),
    neighbour=st.sampled_from(INSTANTS),
    earlier=st.lists(
        st.tuples(requests(), st.sampled_from([None, *VARIED]), MODES, st.sampled_from(INSTANTS)), max_size=6
    ),
)
def test_the_plan_and_response_memos_change_no_response(pips, seed, request, mode, at, neighbour, earlier):
    # The same request at the same instant on a cold forest, on that forest
    # a second time, and on a forest whose memos hold one entry at most, so
    # that every new plan, scope set and walk key empties them (the plan
    # memo, the screen memo with its shared wire text, and each plan's
    # response memo). That forest is warmed by this request in the other
    # mode; then by earlier requests: generated ones in either mode at any
    # instant, and this one in its mode at its instant with its bag for one
    # attribute taken from a generated one. A position taken so (another of
    # the POINTS) follows this request itself, in each mode, and is sent at
    # the instant with the same local time, so the two differ in their
    # location alone, which a target's location-match reads (under
    # ignore-tags, a request from another country keeps its plan); and
    # last by this request at the `neighbour` instant, whose response the
    # memo then holds. The forest ends with PLACE_DOCUMENT and
    # CLOCK_DOCUMENT, so a walk key that left out the location, or put two
    # sides of a time literal together, would show.
    forest = [*random_forest(random.Random(seed), hostile=True), PLACE_DOCUMENT, CLOCK_DOCUMENT]

    def evaluate(compiled, request, mode, at):
        pips.clock.set(at)
        return ENGINE.evaluate(compiled, request, pips, legislation_mode=mode)

    try:
        cold = ENGINE.compile(forest)
        first = evaluate(cold, request, mode, at)
        second = evaluate(cold, request, mode, at)
        other_mode = "ignore-tags" if mode == "aware" else "aware"
        warm = ENGINE.compile(forest)
        warm._plans.bound = warm._screens.bound = warm.responses_held = 1
        variants = []
        for other, attribute, its_mode, its_at in earlier:
            if attribute is None:
                variants.append((other, its_mode, its_at))
                continue
            moved = _with_bag(request, other, attribute)
            if attribute != POSITION:
                variants.append((moved, mode, at))
                continue
            (here,), (there,) = (r.bag(*POSITION) for r in (request, moved))
            shift = dt.timedelta(hours=UTC_OFFSETS[here.value] - UTC_OFFSETS[there.value])
            variants += [pair for its_mode in ("aware", "ignore-tags") for pair in (
                (request, its_mode, at), (moved, its_mode, at + shift)
            )]
        for other, its_mode, its_at in [(request, other_mode, at), *variants, (request, mode, neighbour)]:
            # The memo holds the previous request's response: it
            # must not be this one's unless a cold forest agrees.
            got = evaluate(warm, other, its_mode, its_at)
            assert got == evaluate(ENGINE.compile(forest), other, its_mode, its_at)
        warmed = evaluate(warm, request, mode, at)
    finally:
        pips.clock.set(parse_instant(NOON))
    body = "\n".join(record.digest_text for record in first.trace)
    assert trace_digest(first.trace) == hashlib.sha256(body.encode("utf-8")).hexdigest()
    for again in (second, warmed):
        assert again == first
        assert serialize_response(again) == serialize_response(first)
        assert trace_digest(again.trace) == trace_digest(first.trace)
    for response in (first, second, warmed):
        # A plain tuple of the same records is rendered in `serialize_response`.
        assert type(response.trace) is Trace or response.trace[-1].node_id == "<context>"
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
    ctx = ENGINE._build_context(request, pips)
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



# Roots keyed on an attribute the context build sets per evaluation, with
# literals it can set (and a string for a time, which string-equal refuses).
EVALUATION_LITERALS = {
    (Category.ENVIRONMENT, "task-status"): ("full-match", "pseudonymous-window", "no-task"),
    (Category.ENVIRONMENT, "source-country"): ("GB", "CH", "DE"),
    (Category.ENVIRONMENT, "current-zone"): ("restricted", "unrestricted"),
    (Category.SUBJECT, "relationship"): ("one-to-one", "unauthorized"),
    (Category.ENVIRONMENT, "current-time"): ("12:00:00",),
}
_SECTIONS = {
    Category.SUBJECT: "subjects", Category.RESOURCE: "resources",
    Category.ACTION: "actions", Category.ENVIRONMENT: "environments",
}
PORTFOLIO = (("resource-id", AttributeValue(DataType.STRING, "cust/4711/portfolio")),)
# The points above, and the LCY customs hall, a restricted area in GB.
PLACES = (*POINTS, GeoPoint(51.505, 0.05))
# The instants above, and two inside c.miller's Frankfurt and Zurich
# diary windows, so that the task status varies too.
MOMENTS = (*INSTANTS, parse_instant("2026-03-10T09:30:00Z"), parse_instant("2026-03-10T13:45:00Z"))


class _Device:
    """A location supplier that places every request at `point`, as a
    device query would: one request then meets many places."""

    def __init__(self, point, zones):
        self.point, self.zones = point, zones

    def locate(self, request):
        return resolve_location(self.point, 0.0, self.zones)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    request=requests(),
    keyed=st.lists(
        st.tuples(
            st.sampled_from(sorted(EVALUATION_LITERALS, key=str)).flatmap(
                lambda attribute: st.tuples(st.just(attribute), st.sampled_from(EVALUATION_LITERALS[attribute]))
            ),
            st.sampled_from((Effect.PERMIT, Effect.DENY)),
        ),
        max_size=4,
    ),
    portfolio=st.booleans(),
    clocked=st.booleans(),
    sent=st.lists(
        st.tuples(st.sampled_from(MOMENTS), st.sampled_from(PLACES), MODES, st.booleans()),
        min_size=1, max_size=8,
    ),
)
def test_one_facts_value_answers_every_evaluation_as_fresh_facts_do(
    pips, seed, request, keyed, portfolio, clocked, sent
):
    # One facts value is evaluated on one forest at instants, places and
    # in modes drawn afresh, so its choices (the plan and the body's part
    # of the walk key per scope set) serve evaluations that differ in
    # every attribute set per evaluation; some roots are keyed on those.
    # Each response must be the one fresh facts get on a cold forest, and
    # the oracle's. The instant comes from the clock, or, with `given`,
    # from `evaluate`'s argument while the clock reads another. A request
    # for c.miller's diary resource gets a task status and a relationship
    # that vary; CLOCK_DOCUMENT, which puts the local time in every walk
    # key, is left out half the time, so that more evaluations share one.
    if portfolio:
        request = _with_bag(request, RequestContext(resource=PORTFOLIO), (Category.RESOURCE, "resource-id"))
    documents = [
        *random_forest(random.Random(seed), hostile=True),
        *(
            document(policy(f"ev{k}", [rule(f"ev{k}-r", effect)], target=Target(
                **{_SECTIONS[category]: (string_clause(attribute_id, literal),)}
            )))
            for k, (((category, attribute_id), literal), effect) in enumerate(keyed)
        ),
        PLACE_DOCUMENT,
        *([CLOCK_DOCUMENT] if clocked else []),
    ]
    forest = ENGINE.compile(documents)
    facts = ENGINE.facts(request, pips)
    for at, point, mode, given_instant in sent:
        moved = dataclasses.replace(pips, clock=FixedClock(at), location=_Device(point, pips.zones))
        if given_instant:
            elsewhen = dataclasses.replace(moved, clock=FixedClock(parse_instant(NOON) - dt.timedelta(days=3)))
            got = ENGINE.evaluate(forest, facts, elsewhen, legislation_mode=mode, now=at)
        else:
            got = ENGINE.evaluate(forest, facts, moved, legislation_mode=mode)
        fresh = ENGINE.evaluate(ENGINE.compile(documents), ENGINE.facts(request, moved), moved, legislation_mode=mode)
        want = engine_oracle.evaluate(ENGINE, documents, request, moved, legislation_mode=mode)
        assert got == fresh
        assert serialize_response(got) == serialize_response(fresh)
        assert trace_digest(got.trace) == trace_digest(fresh.trace)
        assert (got.decision, got.status, got.obligations, got.trace) == (
            want.decision, want.status, want.obligations, want.trace
        )
        assert serialize_response(got) == serialize_response(want)
