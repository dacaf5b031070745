import copy
import dataclasses
import datetime as dt
import gc
import pickle
import random
import shutil
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import engine_oracle
from conftest import make_bundle, wire_request
from lexgate import engine as engine_module
from lexgate.context.bundle import load_bundle
from lexgate.context.clock import FixedClock
from lexgate.context.diary import TaskAssessment
from lexgate.context.identity import IdentityKind, Relationship
from lexgate.context.zones import ZoneTree
from lexgate.engine import EvaluationContext, PolicyDecisionPoint, _EvalError
from lexgate.instant import parse_instant
from lexgate.model import (
    SIGNATURES,
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
    Obligation,
    STATUS_MISSING_ATTRIBUTE,
    STATUS_OK,
    STATUS_PROCESSING_ERROR,
    Target,
    Trace,
    TraceRecord,
    trace_digest,
    trace_text,
    validate_document,
)
from lexgate.parsing.location_xml import ZoneKind
from lexgate.parsing.wire import RequestContext, parse_request, serialize_response
from lexgate.pep import ReferenceMonitor
from policybuild import TARGET_LITERALS, always, document, policy, policy_set, random_forest, rule, string_clause

NOON = "2026-03-10T12:00:00Z"
LONDON_POINT = "51.507861 -0.099349"


def _working_time_doc(policy_pack):
    return [d for d in policy_pack if d.root.id == "WorkingTimePolicy"]


def _decide(engine, node, at=NOON):
    """The response to the London request over a forest of one policy."""
    request = parse_request(wire_request(point=LONDON_POINT))
    return engine.evaluate(engine.compile([document(node)]), request, make_bundle(at))


def _record(response, node_id):
    return {t.node_id: t for t in response.trace}[node_id]


# -- applicability -------------------------------------------------------------


def test_node_tagged_with_destination_scope_is_applicable(engine):
    # GB -> LU connection: a node tagged {LU} applies (destination country).
    node = policy("p", [rule("r", Effect.DENY)], legislation=frozenset({"LU"}))
    response = _decide(engine, node)
    assert response.decision is Decision.DENY
    assert _record(response, "p").reason == "combined:deny-overrides"


def test_unrelated_scope_tag_is_not_applicable(engine):
    node = policy("p", [rule("r", Effect.DENY)], legislation=frozenset({"FR"}))
    response = _decide(engine, node)
    assert response.decision is Decision.NOT_APPLICABLE
    assert _record(response, "p").reason == "legislation-scope-miss:FR"


def test_match_any_node_applies_to_every_request(engine):
    assert _decide(engine, policy("p", [rule("r", Effect.PERMIT)])).decision is Decision.PERMIT


def test_target_clause_matching(engine):
    matching = Target(subjects=(string_clause("user-id", "c.miller"),))
    other = Target(subjects=(string_clause("user-id", "someone-else"),))
    assert _decide(engine, policy("a", [rule("a-r")], target=matching)).decision is Decision.PERMIT
    missed = _decide(engine, policy("b", [rule("b-r")], target=other))
    assert missed.decision is Decision.NOT_APPLICABLE
    assert _record(missed, "b").reason == "target-no-match:subject"


def test_string_clause_matches_identifier_typed_value(engine):
    # user-id travels as an identifier; string-equal still compares text.
    node = policy("p", [rule("r")], target=Target(subjects=(string_clause("user-id", "c.miller"),)))
    assert _decide(engine, node).decision is Decision.PERMIT


# -- condition evaluation ---------------------------------------------------------


@pytest.mark.parametrize(
    "at,expected",
    [
        ("2026-03-10T09:00:00Z", True),
        ("2026-03-10T08:00:00Z", True),   # inclusive lower bound
        ("2026-03-10T18:00:00Z", True),   # inclusive upper bound
        ("2026-03-10T07:59:59Z", False),
        ("2026-03-10T19:30:00Z", False),
    ],
)
def test_working_time_condition_boundaries(engine, policy_pack, at, expected):
    condition = _working_time_doc(policy_pack)[0].root.children[0].condition
    # London: local time equals UTC.
    response = _decide(engine, policy("p", [rule("r", Effect.PERMIT, condition=condition)]), at=at)
    if expected:
        assert response.decision is Decision.PERMIT
    else:
        assert response.decision is Decision.NOT_APPLICABLE
        assert _record(response, "r").reason == "condition-false"


def test_missing_current_time_is_indeterminate_missing_attribute(engine):
    # A time the request does not carry has an empty bag, as current-time
    # would without a resolved location; time-one-and-only refuses it.
    shift_start = FunctionApplication(
        "function:time-one-and-only",
        (AttributeSelector(Category.ENVIRONMENT, "shift-start", DataType.TIME_OF_DAY),),
    )
    condition = FunctionApplication(
        "function:time-greater-than-or-equal",
        (shift_start, Literal(AttributeValue(DataType.TIME_OF_DAY, dt.time(8)))),
    )
    response = _decide(engine, policy("p", [rule("r", Effect.PERMIT, condition=condition)]))
    record = _record(response, "r")
    assert record.decision is Decision.INDETERMINATE
    assert record.reason == f"condition-error:{STATUS_MISSING_ATTRIBUTE}"
    assert response.decision is Decision.DENY  # deny-overrides folds Indeterminate


def test_location_match_function(engine):
    # London point.
    def match(name):
        condition = FunctionApplication(
            "function:location-match", (Literal(AttributeValue(DataType.STRING, name)),)
        )
        decision = _decide(engine, policy("p", [rule("r", condition=condition)])).decision
        assert decision in (Decision.PERMIT, Decision.NOT_APPLICABLE)
        return decision is Decision.PERMIT

    assert match("GB") is True
    assert match("unrestricted") is True
    assert match("EU") is False  # GB is not an EU member in the fixtures
    assert match("restricted") is False


def test_location_match_over_an_integer_is_reported_and_always_fails(engine):
    condition = FunctionApplication("function:location-match", (Literal(AttributeValue(DataType.INTEGER, 1)),))
    node = policy("p", [rule("r", condition=condition)])
    assert [v.code for v in validate_document(document(node))] == ["ill-typed:function:location-match"]
    for at in (NOON, "2026-03-10T21:00:00Z"):
        record = _record(_decide(engine, node, at), "r")
        assert (record.decision, record.reason) == (
            Decision.INDETERMINATE, f"condition-error:{STATUS_PROCESSING_ERROR}"
        )


def test_location_match_without_an_argument_or_a_zone_is_indeterminate(engine):
    no_argument = FunctionApplication("function:location-match", ())
    record = _record(_decide(engine, policy("p", [rule("r", condition=no_argument)])), "r")
    assert (record.decision, record.reason) == (Decision.INDETERMINATE, f"condition-error:{STATUS_PROCESSING_ERROR}")
    # A 20 m disc at Findel straddles the customs area: the country, LU, is
    # certain and the zone is not, so only a zone category is missing.
    def located(name):
        return FunctionApplication("function:location-match", (Literal(AttributeValue(DataType.STRING, name)),))

    forest = engine.compile([document(policy("p", [rule("zone", condition=located("restricted")),
                                                   rule("country", condition=located("LU"))]))])
    request = parse_request(wire_request(point="49.634948 6.200151",
                                         extra_lines=("environment position-accuracy integer 20",)))
    response = engine.evaluate(forest, request, make_bundle("2026-03-12T14:40:00Z"))
    zone, country = _record(response, "zone"), _record(response, "country")
    assert (zone.decision, zone.reason) == (Decision.INDETERMINATE, f"condition-error:{STATUS_MISSING_ATTRIBUTE}")
    assert (country.decision, country.reason) == (Decision.PERMIT, "effect")


def test_a_scalar_where_a_bag_is_due_is_reported_and_is_a_processing_error(engine):
    # XACML types a *-one-and-only argument as a bag, so a literal is no
    # bag of one: validate and evaluation refuse it alike.
    only = FunctionApplication("function:string-one-and-only", (Literal(AttributeValue(DataType.STRING, "GB")),))
    condition = FunctionApplication("function:string-equal", (only, Literal(AttributeValue(DataType.STRING, "GB"))))
    node = policy("p", [rule("r", condition=condition)], combining="permit-overrides")
    assert [(v.code, v.node_id) for v in validate_document(document(node))] == [
        ("ill-typed:function:string-one-and-only", "r")
    ]
    response = _decide(engine, node)
    record = _record(response, "r")
    assert (record.decision, record.reason) == (Decision.INDETERMINATE, f"condition-error:{STATUS_PROCESSING_ERROR}")
    assert _record(response, "p").decision is Decision.INDETERMINATE
    assert response.decision is Decision.DENY  # the forest's deny-overrides folds Indeterminate
    with pytest.raises(_EvalError, match="expects a bag, got a scalar"):
        engine_module._BUILTINS["function:string-one-and-only"](None, ["GB"])


@pytest.mark.parametrize("function, other, expected", [
    ("function:and", False, (Decision.NOT_APPLICABLE, "condition-false")),
    ("function:or", True, (Decision.PERMIT, "effect")),
    ("function:and", True, (Decision.INDETERMINATE, f"condition-error:{STATUS_PROCESSING_ERROR}")),
    ("function:or", False, (Decision.INDETERMINATE, f"condition-error:{STATUS_PROCESSING_ERROR}")),
])
def test_a_non_boolean_and_or_operand_surfaces_only_when_no_other_operand_decides(engine, function, other, expected):
    one = Literal(AttributeValue(DataType.INTEGER, 1))
    for operands in ((one, always(other)), (always(other), one)):
        node = policy("p", [rule("r", condition=FunctionApplication(function, operands))])
        record = _record(_decide(engine, node), "r")
        assert (record.decision, record.reason) == expected


def test_a_condition_that_is_no_expression_node_is_indeterminate(engine):
    # compile takes the rule as it is; the walk refuses the condition.
    node = policy("p", [rule("r", condition=AttributeValue(DataType.BOOLEAN, True))])
    response = _decide(engine, node)
    record = _record(response, "r")
    assert (record.decision, record.reason) == (Decision.INDETERMINATE, f"condition-error:{STATUS_PROCESSING_ERROR}")
    assert (response.decision, response.status) == (Decision.DENY, STATUS_OK)


# -- rule and forest evaluation ----------------------------------------------------


def test_working_time_policy_noon_permits(engine, policy_pack):
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(engine.compile(_working_time_doc(policy_pack)), request, pips)
    assert response.decision is Decision.PERMIT
    assert response.status == STATUS_OK
    by_node = {t.node_id: t for t in response.trace}
    assert by_node["LoginRule"].decision is Decision.PERMIT
    assert "FinalRule" not in by_node  # not reached inside the interval


def test_working_time_policy_evening_denies(engine, policy_pack):
    pips = make_bundle("2026-03-10T19:30:00Z")
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(engine.compile(_working_time_doc(policy_pack)), request, pips)
    assert response.decision is Decision.DENY
    by_node = {t.node_id: t for t in response.trace}
    assert by_node["LoginRule"].decision is Decision.NOT_APPLICABLE
    assert by_node["FinalRule"].decision is Decision.DENY
    assert by_node["WorkingTimePolicy"].decision is Decision.DENY


def test_zone_insulation_policy_in_isolation(engine, policy_pack):
    insulation = engine.compile(d for d in policy_pack if d.root.id == "RestrictedZoneInsulation")
    in_customs = parse_request(
        wire_request(resource="cust/4711/portfolio", point="51.505 0.05")
    )
    in_the_city = parse_request(
        wire_request(resource="cust/4711/portfolio", point=LONDON_POINT)
    )
    pips = make_bundle(NOON)
    assert engine.evaluate(insulation, in_customs, pips).decision is Decision.DENY
    assert engine.evaluate(insulation, in_the_city, pips).decision is Decision.NOT_APPLICABLE


def test_rule_with_non_matching_target_is_not_applicable(engine):
    doc = document(
        policy(
            "p",
            [rule("r", Effect.PERMIT, target=Target(actions=(string_clause("action-id", "delete"),)))],
        )
    )
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(engine.compile([doc]), request, pips)
    assert response.decision is Decision.NOT_APPLICABLE
    by_node = {t.node_id: t for t in response.trace}
    assert by_node["r"].decision is Decision.NOT_APPLICABLE


def test_empty_forest_is_not_applicable(engine):
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(engine.compile([]), request, pips)
    assert response.decision is Decision.NOT_APPLICABLE
    assert response.status == STATUS_OK
    assert response.obligations == ()


class _ExplodingSupplier:
    def locate(self, request):
        raise RuntimeError("gps daemon crashed")


def test_location_pip_failure_folds_to_processing_error(engine, policy_pack):
    pips = dataclasses.replace(make_bundle(NOON), location=_ExplodingSupplier())
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(engine.compile(policy_pack), request, pips)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR


def test_unlocatable_request_folds_to_processing_error(engine, policy_pack):
    pips = make_bundle(NOON)
    request = parse_request(wire_request(subject="s.boss", point=""))  # no point, no device
    response = engine.evaluate(engine.compile(policy_pack), request, pips)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR


def test_unknown_combiner_in_document_folds_fail_safe(engine):
    # The node becomes Indeterminate; top-level deny-overrides folds that
    # into Deny. validate_document catches unknown combiners pre-flight.
    doc = document(policy("p", [rule("r", Effect.PERMIT)], combining="mystery"))
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(engine.compile([doc]), request, pips)
    assert response.decision is Decision.DENY
    by_node = {t.node_id: t for t in response.trace}
    assert by_node["p"].decision is Decision.INDETERMINATE
    assert by_node["p"].reason.startswith("combiner-error")


# -- legislation tag handling ---------------------------------------------------


def _fr_tagged_deny():
    return document(
        policy("FRLockdown", [rule("fr-deny", Effect.DENY)], legislation=frozenset({"FR"})),
        name="fr.xml",
    )


def test_tag_modes_diverge_on_foreign_tagged_policy(engine):
    request = parse_request(wire_request(point=LONDON_POINT))  # GB -> LU
    forest = engine.compile([_fr_tagged_deny()])
    aware = engine.evaluate(forest, request, make_bundle(NOON))
    ignoring = engine.evaluate(forest, request, make_bundle(NOON), legislation_mode="ignore-tags")
    assert aware.decision is Decision.NOT_APPLICABLE
    assert ignoring.decision is Decision.DENY  # over-restrictive, never permissive


def test_tag_modes_agree_without_tagged_policies(engine, policy_pack):
    untagged = engine.compile(d for d in policy_pack if d.root.id == "WorkingTimePolicy")
    request = parse_request(wire_request(point=LONDON_POINT))
    aware = engine.evaluate(untagged, request, make_bundle(NOON))
    ignoring = engine.evaluate(untagged, request, make_bundle(NOON), legislation_mode="ignore-tags")
    assert aware == ignoring


def test_ignore_tags_never_flips_deny_to_permit_over_random_forests(engine):
    rng = random.Random(20260310)
    request = parse_request(wire_request(point=LONDON_POINT))
    flips = 0
    for _ in range(1000):
        forest = engine.compile(random_forest(rng))
        pips = make_bundle(NOON)
        aware = engine.evaluate(forest, request, pips)
        ignoring = engine.evaluate(forest, request, pips, legislation_mode="ignore-tags")
        assert aware.decision in Decision and ignoring.decision in Decision
        if aware.decision is Decision.DENY and ignoring.decision is Decision.PERMIT:
            flips += 1
        assert ignoring.decision is Decision.DENY or ignoring.decision is aware.decision
    assert flips == 0


@pytest.mark.parametrize("mode", ["aware", "ignore-tags"])
def test_an_undeclared_destination_country_is_refused_in_both_modes(engine, policy_pack, mode):
    # Ignoring the tags still selects the request's scopes, which fails. The
    # catalog does not hold the resource, so the line names its destination.
    request = parse_request(
        wire_request(resource="caller/1", point=LONDON_POINT, extra_lines=("destination-country XX",))
    )
    response = engine.evaluate(engine.compile(policy_pack), request, make_bundle(NOON), legislation_mode=mode)
    assert (response.decision, response.status) == (Decision.INDETERMINATE, STATUS_PROCESSING_ERROR)
    assert response.trace[-1] == TraceRecord("<context>", Decision.INDETERMINATE, "unknown legal scope 'XX'")


def test_a_request_line_cannot_move_a_catalogued_resource_abroad(engine, policy_pack, tmp_path, fixtures_root):
    # cust/4711/portfolio hosted in DE: c.miller reads it from Zurich with a
    # fresh proximity token, and the DE lockdown denies. Naming CH as the
    # destination dropped the DE scope and turned the Deny into a Permit;
    # the catalog's host stays the destination.
    fixtures = tmp_path / "fixtures"
    shutil.copytree(fixtures_root, fixtures)
    resources = fixtures / "resources.txt"
    hosted = "resource id=cust/4711/portfolio host=LU"
    assert resources.read_text().count(hosted) == 1
    resources.write_text(resources.read_text().replace(hosted, hosted.replace("LU", "DE")))
    pips = load_bundle(fixtures, clock=FixedClock(parse_instant("2026-03-10T13:40:00Z")))
    forest = engine.compile(policy_pack)

    def decide(*extra_lines):
        raw = wire_request(resource="cust/4711/portfolio", point="47.3769 8.5417", tokens=("cust:4711",),
                           token_at="2026-03-10T13:35:00Z", extra_lines=extra_lines)
        return engine.evaluate(forest, parse_request(raw), pips)

    hosted_response = decide()
    assert hosted_response.decision is Decision.DENY
    assert TraceRecord("DECustomerDataLockdown", Decision.DENY, "combined:deny-overrides") in hosted_response.trace
    assert decide("destination-country CH") == hosted_response


# -- purity and snapshots ----------------------------------------------------------


def test_precision_failure_degrades_to_pseudonymous_access(engine, policy_pack):
    # ~38 m west of the Zurich customs boundary with a 200 m accuracy disc:
    # the zone is uncertain but the country is not. During the pre-meeting
    # window the pack then grants pseudonymized access instead of locking up.
    from lexgate.context.zones import resolve_location
    from lexgate.errors import PrecisionError
    from lexgate.model import GeoPoint

    pips = make_bundle("2026-03-10T12:45:00Z")
    with pytest.raises(PrecisionError) as err:
        resolve_location(GeoPoint(47.45, 8.5395), 200.0, pips.zones)
    assert err.value.country == "CH"  # the disc straddles only the zone edge

    raw = wire_request(
        resource="cust/4711/portfolio",
        point="47.45 8.5395",
        extra_lines=("environment position-accuracy integer 200",),
    )
    request = parse_request(raw)
    response = engine.evaluate(engine.compile(policy_pack), request, pips)
    assert response.decision is Decision.PERMIT
    assert [ob.id for ob in response.obligations] == ["pseudonymize"]


def test_precision_failure_across_countries_is_a_processing_error(engine, policy_pack):
    # Same disc trick across the LU/DE fixture gap: not even the country is
    # certain, so the evaluation folds to an error.
    raw = wire_request(
        resource="cust/4711/portfolio",
        point="50.14 6.2",
        extra_lines=("environment position-accuracy integer 15000",),
    )
    response = engine.evaluate(
        engine.compile(policy_pack), parse_request(raw), make_bundle("2026-03-10T12:45:00Z")
    )
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR


def test_request_with_embedded_report_skips_the_supplier(engine, policy_pack):
    data = b"""request
location country GB
location city London
location zone unrestricted
location timezone GMT 0
location point 51.507861 -0.099349
subject user-id identifier c.miller
resource resource-id string products/overview
action action-id string read
end
"""
    pips = make_bundle(NOON, count_locates=True)
    response = engine.evaluate(engine.compile(policy_pack), parse_request(data), pips)
    assert response.decision is Decision.PERMIT
    assert pips.location.calls == 0  # the embedded snapshot is trusted


def test_location_supplier_called_exactly_once_per_evaluate(engine, policy_pack):
    pips = make_bundle(NOON, count_locates=True)
    request = parse_request(wire_request(point=LONDON_POINT))
    engine.evaluate(engine.compile(policy_pack), request, pips)
    assert pips.location.calls == 1
    engine.evaluate(engine.compile(policy_pack), request, pips)
    assert pips.location.calls == 2  # once more for the second evaluation


def test_repeated_evaluations_are_identical(engine, policy_pack):
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    responses = {
        engine.evaluate(engine.compile(policy_pack), request, make_bundle("2026-03-10T12:45:00Z"))
        for _ in range(25)
    }
    assert len(responses) == 1


def test_trace_covers_every_visited_node_exactly_once(engine, policy_pack):
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    response = engine.evaluate(engine.compile(policy_pack), request, make_bundle("2026-03-10T12:45:00Z"))
    node_ids = [t.node_id for t in response.trace]
    assert len(node_ids) == len(set(node_ids))


def test_obligation_coherence(engine, policy_pack):
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    response = engine.evaluate(engine.compile(policy_pack), request, make_bundle("2026-03-10T12:45:00Z"))
    assert response.decision is Decision.PERMIT
    assert [ob.id for ob in response.obligations] == ["pseudonymize"]
    for ob in response.obligations:
        assert ob.fulfill_on.to_decision() is response.decision


def test_evaluate_refuses_anything_but_a_compiled_forest(engine, policy_pack):
    request = parse_request(wire_request(point=LONDON_POINT))
    with pytest.raises(TypeError, match="CompiledForest"):
        engine.evaluate(policy_pack, request, make_bundle(NOON))


@pytest.mark.parametrize(
    "bad_id", ["a b", "a\nb", "a\u2028b", "", "a\ud800b"], ids=["space", "lf", "u2028", "empty", "surrogate"]
)
@pytest.mark.parametrize("where", ["root", "rule"])
def test_a_node_id_that_is_not_one_wire_field_is_refused_when_the_forest_is_built(
    policy_pack, bad_id, where
):
    # Its trace line could not be read back from the response.
    node = policy(bad_id, [rule("r")]) if where == "root" else policy("p", [rule(bad_id)])
    with pytest.raises(ValueError, match="not one wire field"):
        ReferenceMonitor(PolicyDecisionPoint(), [*policy_pack, document(node)], make_bundle(NOON))


@pytest.mark.parametrize("where", ["root", "rule"])
def test_a_node_with_an_empty_legislation_set_is_refused_when_the_forest_is_built(policy_pack, where):
    # No scope meets it, so not even ignore-tags, which observes every
    # scope the forest names, could walk it.
    if where == "root":
        node, node_id = policy("p", [rule("r")], legislation=frozenset()), "p"
    else:
        node, node_id = policy("p", [rule("r", legislation=frozenset())]), "r"
    with pytest.raises(ValueError, match=rf"node '{node_id}' in test\.xml has an empty legislation set"):
        PolicyDecisionPoint().compile([*policy_pack, document(node)])


@pytest.mark.parametrize("bad_id", ["limit duration\nx", "a b", "a\u2028b", ""], ids=["lf", "space", "u2028", "empty"])
def test_an_obligation_id_that_is_not_one_wire_field_is_refused_when_the_forest_is_built(policy_pack, bad_id):
    # Its `obligation <id> <effect>` line could not be read back from the
    # response.
    node = policy("p", [rule("r", obligations=(Obligation(bad_id, Effect.PERMIT),))])
    with pytest.raises(ValueError, match="obligation id .* not one wire field"):
        ReferenceMonitor(PolicyDecisionPoint(), [*policy_pack, document(node)], make_bundle(NOON))


@pytest.mark.parametrize(
    "name,text", [("note", "a\nb"), ("my note", "ab"), ("note", "a\ud800b")], ids=["lf", "space-in-name", "surrogate"]
)
def test_an_obligation_parameter_no_param_line_carries_is_refused_when_the_forest_is_built(policy_pack, name, text):
    # Its `param <name> <type> <value>` line could not be written, or not
    # be read back, after the audit line.
    parameter = (name, AttributeValue(DataType.STRING, text))
    node = policy("p", [rule("r", obligations=(Obligation("limit-duration", Effect.PERMIT, (parameter,)),))])
    with pytest.raises(ValueError, match=r"obligation parameter .* in test\.xml"):
        ReferenceMonitor(PolicyDecisionPoint(), [*policy_pack, document(node)], make_bundle(NOON))


def test_plans_of_one_scope_set_splice_one_shared_text(engine, policy_pack):
    # 200 documents keyed on resource-id literals after the packaged ones:
    # two requests from London that hit different literals have plans of
    # their own, long runs of screened records, and one text between them.
    keyed = [
        document(policy(
            f"lit-{i}", [rule(f"lit-{i}-r", Effect.DENY)],
            target=Target(resources=(string_clause("resource-id", f"lit/{i}"),)),
        ))
        for i in range(200)
    ]
    forest = engine.compile([*policy_pack, *keyed])
    pips = make_bundle(NOON)
    first, second = (
        engine.evaluate(forest, parse_request(wire_request(resource=f"lit/{i}")), pips)
        for i in (3, 150)
    )
    assert len(forest._plans) == 2 and len(forest._screens) == 1
    (screen,) = forest._screens.values()
    for response in (first, second):
        views = [piece for piece in response.trace.body if isinstance(piece, memoryview)]
        assert views and all(view.obj is screen.text for view in views)
        assert b"".join(response.trace.body) == trace_text(response.trace)
        per_record = dataclasses.replace(response, trace=tuple(response.trace))
        assert serialize_response(response) == serialize_response(per_record)
    # The packaged forest's runs hold a record or two, and splice all the same.
    packaged = engine.evaluate(engine.compile(policy_pack), parse_request(wire_request()), pips)
    assert type(packaged.trace) is Trace
    assert any(isinstance(piece, memoryview) and piece for piece in packaged.trace.body)
    assert b"".join(packaged.trace.body) == trace_text(packaged.trace)
    # A memo of one entry keeps one scope set's text: Frankfurt's
    # replaces London's. (Zurich would not: it observes the same scopes
    # the forest names as London does, and so shares London's screen.)
    london = set(forest._screens)
    forest._plans.bound = forest._screens.bound = 1
    engine.evaluate(forest, parse_request(wire_request(point="50.40 8.70")), pips)
    assert len(forest._screens) == 1 and set(forest._screens) != london


def test_a_trace_from_a_forest_survives_pickle_and_deepcopy(engine, policy_pack):
    # Screened documents before and after the walked ones, with non-ASCII
    # ids, so that the trace's body carries views of its forest's shared
    # text, which pickle cannot take as they are.
    forest = engine.compile([
        document(policy("jp-é", [rule("jp-r")], legislation=frozenset({"JP"}))),
        *policy_pack,
        document(policy(
            "res-文", [rule("x-r")],
            target=Target(resources=(string_clause("resource-id", "res-x"),)),
        )),
    ])
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(forest, request, make_bundle(NOON))
    trace = response.trace
    assert type(trace) is Trace and any(isinstance(piece, memoryview) for piece in trace.body)
    for copied in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace), copy.copy(trace)):
        assert type(copied) is Trace
        assert copied == trace
        assert b"".join(copied.body) == b"".join(trace.body)
        assert trace_digest(copied) == trace_digest(trace)
        again = dataclasses.replace(response, trace=copied)
        assert serialize_response(again) == serialize_response(response)


def test_threads_sharing_a_forest_get_what_one_thread_gets(engine, policy_pack):
    # Memos of one entry: each change of plan or scope set among the
    # threads empties them, so the threads keep replacing what the others
    # just put in; every plan splices its runs out of the shared text.
    requests = [
        parse_request(wire_request(resource=resource, point=point))
        for resource in ("products/overview", "cust/4711/portfolio")
        for point in (LONDON_POINT, "47.36 8.53", "50.40 8.70")
    ]
    pips = make_bundle("2026-03-10T12:45:00Z")
    expected = [engine.evaluate(engine.compile(policy_pack), request, pips) for request in requests]
    failures = []

    def work():
        try:
            for _ in range(50):
                for request, want in zip(requests, expected):
                    got = engine.evaluate(forest, request, pips)
                    if (
                        got != want
                        or trace_digest(got.trace) != trace_digest(want.trace)
                        or serialize_response(got) != serialize_response(want)
                    ):
                        failures.append(request)
        except Exception as exc:  # reported below, with the thread's failures
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        forest = engine.compile(policy_pack)
        forest._plans.bound = forest._screens.bound = forest.responses_held = 1
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_a_warm_forest_answers_each_request_by_what_its_documents_read(engine):
    # One policy reads "note" through a selector and "channel" through a
    # rule's match clause, neither of them a root literal, so all the
    # requests below share one plan and differ only in their walk keys.
    note = FunctionApplication("function:string-one-and-only", (
        AttributeSelector(Category.ENVIRONMENT, "note", DataType.STRING),
    ))
    documents = [document(policy("p", [
        rule("by-note", Effect.PERMIT, FunctionApplication(
            "function:string-equal", (note, Literal(AttributeValue(DataType.STRING, "yes")))
        )),
        rule("by-channel", Effect.DENY, target=Target(environments=(string_clause("channel", "remote"),))),
    ]))]
    forest = engine.compile(documents)
    pips = make_bundle(NOON)
    for notes in ("yes", "no"):
        for channel in ("branch", "remote"):
            extra = (f"environment note string {notes}", f"environment channel string {channel}")
            request = parse_request(wire_request(extra_lines=extra))
            assert engine.evaluate(forest, request, pips) == engine.evaluate(engine.compile(documents), request, pips)
    assert len(forest._plans) == 1 and len(next(iter(forest._plans.values())).responses) == 4


def test_a_forest_gives_each_bundle_its_own_location_match(engine):
    # Frankfurt lies in the EU of the packaged zone tree, and in no EU of
    # a tree whose union is dissolved into its countries.
    in_eu = FunctionApplication("function:location-match", (Literal(AttributeValue(DataType.STRING, "EU")),))
    forest = engine.compile([document(policy("eu", [rule("in-eu", Effect.PERMIT, in_eu)]))])
    packaged = make_bundle(NOON)
    union = next(root for root in packaged.zones.roots if root.id == "EU")
    others = tuple(root for root in packaged.zones.roots if root is not union)
    dissolved = dataclasses.replace(packaged, zones=ZoneTree(others + union.children))
    request = parse_request(wire_request(point="50.40 8.70"))
    for _ in range(2):
        assert engine.evaluate(forest, request, packaged).decision is Decision.PERMIT
        assert engine.evaluate(forest, request, dissolved).decision is Decision.NOT_APPLICABLE


CUSTOMS_HALL_POINT = "51.505 0.05"  # GB, in the LCY customs restricted area
ZURICH_POINT = "47.36 8.53"


@pytest.mark.parametrize("mode, literal, points, decisions", [
    # London (GB) and Zurich (CH) observe other scopes, but the forest
    # names none, so they share a plan in either mode; the customs hall and
    # the bank are both in GB.
    ("ignore-tags", "GB", (LONDON_POINT, ZURICH_POINT), ("Permit", "NotApplicable")),
    ("aware", "GB", (ZURICH_POINT, LONDON_POINT), ("NotApplicable", "Permit")),
    ("aware", "restricted", (CUSTOMS_HALL_POINT, LONDON_POINT), ("Permit", "NotApplicable")),
    ("aware", "restricted", (LONDON_POINT, CUSTOMS_HALL_POINT), ("NotApplicable", "Permit")),
])
def test_a_location_match_in_a_target_keys_the_response_on_the_location(engine, mode, literal, points, decisions):
    # The target asks location-match of the action's value and the
    # literal: true where the literal names the source. The requests carry
    # the same bags, so they share a plan and differ only in the location.
    where = MatchClause("action-id", "function:location-match", AttributeValue(DataType.STRING, literal))
    documents = [document(policy("where", [rule("where-r", Effect.PERMIT)], target=Target(actions=(where,))))]
    assert validate_document(documents[0]) == []
    forest = engine.compile(documents)
    pips = make_bundle(NOON)
    for point, decision in zip(points, decisions):
        request = parse_request(wire_request(point=point))
        warm = engine.evaluate(forest, request, pips, legislation_mode=mode)
        cold = engine.evaluate(engine.compile(documents), request, pips, legislation_mode=mode)
        assert warm == cold
        assert serialize_response(warm) == serialize_response(cold)
        assert trace_digest(warm.trace) == trace_digest(cold.trace)
        assert warm.decision.value == decision
    assert len(forest._plans) == 1


def test_sources_whose_scopes_differ_only_outside_the_forest_share_plan_and_response(engine):
    # London observes {GB, EU, LU, org:bank} and Zurich {CH, EU, LU,
    # org:bank}; the forest names LU and JP alone, so both see {LU}, and
    # nothing the forest reads tells them apart.
    documents = [
        document(policy("lu", [rule("lu-r", Effect.DENY)], legislation=frozenset({"LU"}))),
        document(policy("jp", [rule("jp-r", Effect.PERMIT)], legislation=frozenset({"JP"}))),
        document(policy("res", [rule("res-r", Effect.PERMIT)],
                        target=Target(resources=(string_clause("resource-id", "products/overview"),)))),
    ]
    forest = engine.compile(documents)
    pips = make_bundle(NOON)
    london, zurich = (parse_request(wire_request(point=point)) for point in (LONDON_POINT, ZURICH_POINT))
    first = engine.evaluate(forest, london, pips)
    shared = engine.evaluate(forest, zurich, pips)
    assert shared is first
    assert len(forest._plans) == len(forest._screens) == 1
    assert set(forest._screens) == {frozenset({"LU"})}
    fresh = engine.evaluate(engine.compile(documents), zurich, pips)
    assert serialize_response(shared) == serialize_response(fresh)
    assert trace_digest(shared.trace) == trace_digest(fresh.trace)
    assert shared.decision is Decision.DENY


def test_a_location_match_in_a_nested_condition_keys_the_response_on_the_place(engine):
    # The only location-match stands inside an and, in the condition of a
    # rule of a policy inside a policy set; no target reads the place, and
    # the forest names no scope, so London and Zurich share one plan.
    in_gb = FunctionApplication("function:and", (
        Literal(AttributeValue(DataType.BOOLEAN, True)),
        FunctionApplication("function:location-match", (Literal(AttributeValue(DataType.STRING, "GB")),)),
    ))
    documents = [document(policy_set("outer", [policy("inner", [rule("in-gb", Effect.PERMIT, in_gb)])]))]
    forest = engine.compile(documents)
    pips = make_bundle(NOON)
    for point, decision in ((LONDON_POINT, Decision.PERMIT), (ZURICH_POINT, Decision.NOT_APPLICABLE)) * 2:
        request = parse_request(wire_request(point=point))
        warm = engine.evaluate(forest, request, pips)
        assert warm.decision is decision
        assert serialize_response(warm) == serialize_response(engine.evaluate(engine.compile(documents), request, pips))
    assert len(forest._plans) == 1
    assert len(next(iter(forest._plans.values())).responses) == 2


# Every place of the packaged zone tree, in GB, LU, DE, FR, CH and JP, the
# customs halls among them.
PACKAGED_PLACES = (
    "GB-london-bank", "GB-LCY-customs-hall", "LU-hq", "DE-FRA-customs-hall", "DE-frankfurt-office",
    "FR-paris-office", "CH-zurich-hotel", "CH-zurich-meeting", "JP-tokyo-office",
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    sent=st.lists(
        st.tuples(
            st.sampled_from(PACKAGED_PLACES),
            st.sampled_from(TARGET_LITERALS[Category.RESOURCE, "resource-id"]),
            st.sampled_from(TARGET_LITERALS[Category.ACTION, "action-id"]),
            st.sampled_from(("aware", "ignore-tags")),
        ),
        min_size=1, max_size=8,
    ),
)
def test_a_shared_forest_answers_packaged_places_as_a_fresh_one_does(seed, sent):
    # random_forest tags documents with a few of the packaged countries and
    # puts location-match "GB" in some targets, so requests from places
    # whose scopes differ only where the forest names none share plans
    # and responses, while the place still decides where it is read.
    engine = PolicyDecisionPoint()
    documents = random_forest(random.Random(seed), hostile=True)
    forest = engine.compile(documents)
    pips = make_bundle(NOON)
    for place, resource, action, mode in sent:
        point = pips.zones.place(place)[0].point
        request = parse_request(wire_request(resource=resource, action=action, point=f"{point.lat} {point.lon}"))
        warm = engine.evaluate(forest, request, pips, legislation_mode=mode)
        fresh = engine.evaluate(engine.compile(documents), request, pips, legislation_mode=mode)
        assert warm == fresh
        assert serialize_response(warm) == serialize_response(fresh)
        assert trace_digest(warm.trace) == trace_digest(fresh.trace)


def test_a_forest_of_more_than_4096_documents_keeps_one_response_per_plan(engine):
    # One-rule documents, each keyed on a resource-id literal of its own.
    documents = [
        document(policy(f"lit-{i}", [rule(f"lit-{i}-r", Effect.DENY)],
                        target=Target(resources=(string_clause("resource-id", f"lit/{i}"),))))
        for i in range(4100)
    ]
    forest = engine.compile(documents)
    assert forest.responses_held == 1
    pips = make_bundle(NOON)
    request = parse_request(wire_request(resource="lit/0"))
    first = engine.evaluate(forest, request, pips)
    assert first.decision is Decision.DENY
    assert engine.evaluate(forest, request, pips) is first
    # 300 plans of one walked document each, every one asked with two
    # walk keys: the resource-id bag also holds a value no document names.
    requests = [
        parse_request(wire_request(resource=f"lit/{n}", extra_lines=(f"resource resource-id string caller/{k}",)))
        for n in range(300)
        for k in range(2)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        for request in requests:
            engine.evaluate(forest, request, pips)
        _held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A plan's runs hold a reference per document, and so does the trace
    # of the one response it keeps: two references of 8 bytes per document
    # for each of the 256 plans the memo holds, with room for what else a
    # plan keeps, and none for a second response.
    assert peak < 256 * len(documents) * 8 * 3


# -- typed closures and trusted bags ---------------------------------------------


class _Text(str):
    """A str subclass: a string to the string functions."""


_VALUES = (
    AttributeValue(DataType.BOOLEAN, True),
    AttributeValue(DataType.BOOLEAN, False),
    AttributeValue(DataType.INTEGER, 1),
    AttributeValue(DataType.STRING, "GB"),
    AttributeValue(DataType.STRING, _Text("GB")),
    AttributeValue(DataType.COUNTRY_CODE, "GB"),
    AttributeValue(DataType.IDENTIFIER, "c.miller"),
    AttributeValue(DataType.TIME_OF_DAY, dt.time(9, 0)),
    AttributeValue(DataType.TIME_OF_DAY, dt.time(18, 0)),
    AttributeValue(DataType.DATE, dt.date(2026, 3, 10)),
    AttributeValue(DataType.GEO_POINT, GeoPoint(0.0, 0.0)),
)
_ATTRIBUTES = ("a", "b")
_FUNCTIONS = sorted(SIGNATURES)


def _selectors():
    return st.builds(
        AttributeSelector, st.just(Category.ENVIRONMENT), st.sampled_from(_ATTRIBUTES), st.sampled_from(DataType)
    )


def _operands(depth=0):
    """Literals, selectors (bags of 0 to 2 values of any type), and
    built-in applications over them, right or wrong."""
    leaves = st.one_of(
        st.sampled_from(_VALUES).map(Literal),
        _selectors(),
        st.builds(lambda fn, selector: FunctionApplication(fn, (selector,)),
                  st.sampled_from(("function:string-one-and-only", "function:time-one-and-only")), _selectors()),
    )
    if depth >= 2:
        return leaves
    inner = _operands(depth + 1)
    return st.one_of(leaves, _applications(inner))


def _applications(operands):
    """A built-in with a signature over its number of operands, or, in one
    case of three, one more or one fewer."""

    def applied(function):
        arity = len(SIGNATURES[function].args)
        counts = st.sampled_from((arity, arity, arity, arity, arity - 1, arity + 1))
        return counts.flatmap(lambda n: st.lists(operands, min_size=n, max_size=n)).map(
            lambda args: FunctionApplication(function, tuple(args))
        )

    return st.sampled_from(_FUNCTIONS).flatmap(applied)


@st.composite
def _typing_contexts(draw):
    bags = tuple(
        (attribute, value)
        for attribute in _ATTRIBUTES
        for value in draw(st.lists(st.sampled_from(_VALUES), max_size=2))
    )
    request = RequestContext(subject=(), environment=bags)
    return EvaluationContext(request, None, None, None, "GB")


def _outcome(thunk):
    """The value with its type, or the error's status and message."""
    try:
        value = thunk()
    except _EvalError as exc:
        return "error", exc.status, str(exc)
    return "value", type(value), value


@settings(max_examples=1000, deadline=None)
@given(expr=_applications(_operands()), ctx=_typing_contexts())
def test_walked_expressions_give_what_the_checked_functions_give(expr, ctx):
    # The oracle applies the built-in checked functions to its operands.
    oracle = engine_oracle._Oracle(ctx, frozenset(), "aware")
    assert _outcome(lambda: engine_module._value(expr, ctx)) == _outcome(lambda: oracle.value(expr))


@settings(max_examples=300, deadline=None)
@given(function=st.sampled_from(_FUNCTIONS), literal=st.sampled_from(_VALUES), ctx=_typing_contexts())
def test_walked_match_clauses_give_what_the_checked_functions_give(function, literal, ctx):
    clause = MatchClause("a", function, literal)
    oracle = engine_oracle._Oracle(ctx, frozenset(), "aware")
    assert _outcome(lambda: engine_module._matches(Category.ENVIRONMENT, clause, ctx)) == _outcome(
        lambda: oracle.section_matches(Category.ENVIRONMENT, [clause])
    )


# Store- and enum-derived attributes: one shared bag per value.
_TRUSTED_KEYS = (
    (Category.ENVIRONMENT, "current-zone"),
    (Category.ENVIRONMENT, "source-country"),
    (Category.ENVIRONMENT, "destination-country"),
    (Category.ENVIRONMENT, "task-status"),
    (Category.SUBJECT, "kind"),
    (Category.SUBJECT, "relationship"),
    (Category.RESOURCE, "confidential"),
    (Category.RESOURCE, "customer-related"),
    (Category.RESOURCE, "host-country"),
    (Category.RESOURCE, "category"),
)
_CLOCK_KEYS = ((Category.ENVIRONMENT, "current-time"), (Category.ENVIRONMENT, "current-date"))


def test_trusted_bags_are_shared_and_immutable(engine):
    # The catalog and the zone tree build their bags at load, so requests
    # share them within one bundle.
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    pips = make_bundle("2026-03-10T12:45:00Z")
    contexts = []
    for at in ("2026-03-10T12:45:00Z", "2026-03-10T12:45:00Z", "2026-03-10T13:10:00Z"):
        pips.clock.set(parse_instant(at))
        contexts.append(engine._build_context(request, pips))
    first, again, later = contexts
    assert set(first._cache) == set(_TRUSTED_KEYS + _CLOCK_KEYS)
    for key in _TRUSTED_KEYS:
        assert later._cache[key] is first._cache[key] is again._cache[key]
    for key in _CLOCK_KEYS:
        # Made per request, even at the same instant.
        assert again._cache[key] == first._cache[key]
        assert again._cache[key] is not first._cache[key]
    assert later._cache[_CLOCK_KEYS[0]] != first._cache[_CLOCK_KEYS[0]]
    (value,) = first._cache[(Category.RESOURCE, "category")]
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.value = "strategic"
    # Enum-derived bags are built once per member, looked up by identity.
    enums = (ZoneKind, IdentityKind, Relationship, TaskAssessment)
    assert set(engine_module._MEMBER_BAGS) == {member for enum in enums for member in enum}
    for member, bag in engine_module._MEMBER_BAGS.items():
        assert hash(member) == object.__hash__(member)
        assert bag == (AttributeValue(DataType.STRING, member.value),)
    for key, enum in zip(
        [(Category.ENVIRONMENT, "current-zone"), (Category.SUBJECT, "kind"),
         (Category.SUBJECT, "relationship"), (Category.ENVIRONMENT, "task-status")],
        enums,
    ):
        (value,) = first._cache[key]
        assert first._cache[key] is engine_module._MEMBER_BAGS[enum(value.value)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        engine_module._MEMBER_BAGS[ZoneKind.RESTRICTED][0].value = "unrestricted"
    # A destination the zone tree does not hold, as a caller may name one,
    # gets an equal bag made per request.
    named = parse_request(wire_request(resource="caller/1", point="47.36 8.53",
                                       extra_lines=("destination-country ZZ",)))
    one, two = (engine._build_context(named, pips) for _ in range(2))
    key = (Category.ENVIRONMENT, "destination-country")
    assert one._cache[key] == two._cache[key] == (AttributeValue(DataType.COUNTRY_CODE, "ZZ"),)
    assert one._cache[key] is not two._cache[key]
    # The zone tree's bag for a country it holds; equal catalog records
    # share one tuple of pairs, and every record hosted in LU one bag.
    assert first._cache[(Category.ENVIRONMENT, "source-country")] is pips.zones.country_bags["CH"]
    (_record, pairs), (_other, same) = map(pips.resources.lookup, ("cust/4711/portfolio", "cust/4712/portfolio"))
    assert pairs is same and dict(pairs) == {key: first._cache[key] for key in _TRUSTED_KEYS[6:]}
    (_overview, product) = pips.resources.lookup("products/overview")
    assert dict(product)[(Category.RESOURCE, "host-country")] is dict(pairs)[(Category.RESOURCE, "host-country")]


def test_an_unknown_legislation_mode_raises_value_error(engine, policy_pack):
    forest = engine.compile(policy_pack)
    request = parse_request(wire_request(point=LONDON_POINT))
    with pytest.raises(ValueError, match="unknown legislation mode 'strict'"):
        engine.evaluate(forest, request, make_bundle(NOON), legislation_mode="strict")


# -- a body's choices ---------------------------------------------------------------


@pytest.mark.parametrize("attribute", sorted(engine_module.PER_EVALUATION, key=str))
def test_no_root_is_keyed_on_an_attribute_set_per_evaluation(engine, attribute):
    # A root that opens with one string-equal clause on a string literal is
    # keyed, but not on an attribute the build sets per evaluation: such a
    # root is walked, and its target miss comes from the walk.
    category, attribute_id = attribute
    sections = {"subject": "subjects", "resource": "resources", "action": "actions", "environment": "environments"}
    keyed, kept = (
        Target(**{sections[category.value]: (string_clause(name, "x"),)})
        for name in (attribute_id, "carried-by-the-request")
    )
    assert engine_module._literal_key(keyed) is None
    assert engine_module._literal_key(kept) == ((category, "carried-by-the-request"), "x")
    documents = [document(policy("p", [rule("r")], target=keyed))]
    forest = engine.compile(documents)
    assert forest.literal_keys == (None,) and forest.selectors == ()
    request, pips = parse_request(wire_request(point=LONDON_POINT)), make_bundle(NOON)
    response = engine.evaluate(forest, request, pips)
    # A miss, or an error for a date or a time, which string-equal refuses.
    assert response.trace[-1].decision in (Decision.NOT_APPLICABLE, Decision.INDETERMINATE)
    assert response.trace == engine_oracle.evaluate(engine, documents, request, pips).trace


def test_a_body_keeps_a_bounded_choice_per_forest_and_scope_set(engine, policy_pack):
    # One facts value meets three times as many forests as its choices
    # hold, from places of two scope sets and in both modes: the choices
    # never grow past their bound, and every response is a fresh one's.
    tagged = document(policy("lu", [rule("lu-r", Effect.DENY)], legislation=frozenset({"LU"})))
    documents = [*policy_pack, tagged]
    pips = make_bundle(NOON)
    facts = engine.facts(parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53")), pips)
    held = engine_module._CHOICES_HELD
    forests = [engine.compile(documents) for _ in range(3 * held)]
    for forest in forests:
        for mode in ("aware", "ignore-tags"):
            got = engine.evaluate(forest, facts, pips, legislation_mode=mode)
            want = engine.evaluate(engine.compile(documents), facts.request, pips, legislation_mode=mode)
            assert got == want and serialize_response(got) == serialize_response(want)
            assert 0 < len(facts.choices) <= held
    assert {chosen_forest for chosen_forest, _scopes in facts.choices} <= set(forests[-held:])
