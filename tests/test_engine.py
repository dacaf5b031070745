import datetime as dt
import random

import pytest

from conftest import make_bundle, wire_request
from lexgate.engine import FunctionRegistry, PolicyDecisionPoint
from lexgate.model import (
    AttributeSelector,
    AttributeValue,
    Category,
    DataType,
    Decision,
    Effect,
    FunctionApplication,
    Literal,
    STATUS_MISSING_ATTRIBUTE,
    STATUS_OK,
    STATUS_PROCESSING_ERROR,
    Target,
)
from lexgate.parsing.wire import parse_request
from policybuild import document, policy, random_forest, rule, string_clause

NOON = "2026-03-10T12:00:00Z"
LONDON_POINT = "51.507861 -0.099349"


def _working_time_doc(policy_pack):
    return [d for d in policy_pack if d.root.id == "WorkingTimePolicy"]


def _decide(engine, node, at=NOON):
    """The response to the London request over a forest of one policy."""
    request = parse_request(wire_request(point=LONDON_POINT))
    return engine.evaluate([document(node)], request, make_bundle(at))


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


# -- rule and forest evaluation ----------------------------------------------------


def test_working_time_policy_noon_permits(engine, policy_pack):
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(_working_time_doc(policy_pack), request, pips)
    assert response.decision is Decision.PERMIT
    assert response.status == STATUS_OK
    by_node = {t.node_id: t for t in response.trace}
    assert by_node["LoginRule"].decision is Decision.PERMIT
    assert "FinalRule" not in by_node  # not reached inside the interval


def test_working_time_policy_evening_denies(engine, policy_pack):
    pips = make_bundle("2026-03-10T19:30:00Z")
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(_working_time_doc(policy_pack), request, pips)
    assert response.decision is Decision.DENY
    by_node = {t.node_id: t for t in response.trace}
    assert by_node["LoginRule"].decision is Decision.NOT_APPLICABLE
    assert by_node["FinalRule"].decision is Decision.DENY
    assert by_node["WorkingTimePolicy"].decision is Decision.DENY


def test_zone_insulation_policy_in_isolation(engine, policy_pack):
    insulation = [d for d in policy_pack if d.root.id == "RestrictedZoneInsulation"]
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
    response = engine.evaluate([doc], request, pips)
    assert response.decision is Decision.NOT_APPLICABLE
    by_node = {t.node_id: t for t in response.trace}
    assert by_node["r"].decision is Decision.NOT_APPLICABLE


def test_empty_forest_is_not_applicable(engine):
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate([], request, pips)
    assert response.decision is Decision.NOT_APPLICABLE
    assert response.status == STATUS_OK
    assert response.obligations == ()


class _ExplodingSupplier:
    def locate(self, request):
        raise RuntimeError("gps daemon crashed")


def test_location_pip_failure_folds_to_processing_error(engine, policy_pack):
    pips = make_bundle(NOON)
    pips.location = _ExplodingSupplier()
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate(policy_pack, request, pips)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR


def test_unlocatable_request_folds_to_processing_error(engine, policy_pack):
    pips = make_bundle(NOON)
    request = parse_request(wire_request(subject="s.boss", point=""))  # no point, no device
    response = engine.evaluate(policy_pack, request, pips)
    assert response.decision is Decision.INDETERMINATE
    assert response.status == STATUS_PROCESSING_ERROR


def test_unknown_combiner_in_document_folds_fail_safe(engine):
    # The node becomes Indeterminate; top-level deny-overrides folds that
    # into Deny. validate_document catches unknown combiners pre-flight.
    doc = document(policy("p", [rule("r", Effect.PERMIT)], combining="mystery"))
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    response = engine.evaluate([doc], request, pips)
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
    aware = engine.evaluate([_fr_tagged_deny()], request, make_bundle(NOON))
    ignoring = engine.evaluate(
        [_fr_tagged_deny()], request, make_bundle(NOON), legislation_mode="ignore-tags"
    )
    assert aware.decision is Decision.NOT_APPLICABLE
    assert ignoring.decision is Decision.DENY  # over-restrictive, never permissive


def test_tag_modes_agree_without_tagged_policies(engine, policy_pack):
    untagged = [d for d in policy_pack if d.root.id == "WorkingTimePolicy"]
    request = parse_request(wire_request(point=LONDON_POINT))
    aware = engine.evaluate(untagged, request, make_bundle(NOON))
    ignoring = engine.evaluate(
        untagged, request, make_bundle(NOON), legislation_mode="ignore-tags"
    )
    assert aware == ignoring


def test_ignore_tags_never_flips_deny_to_permit_over_random_forests(engine):
    rng = random.Random(20260310)
    request = parse_request(wire_request(point=LONDON_POINT))
    flips = 0
    for _ in range(1000):
        forest = random_forest(rng)
        pips = make_bundle(NOON)
        aware = engine.evaluate(forest, request, pips)
        ignoring = engine.evaluate(forest, request, pips, legislation_mode="ignore-tags")
        assert aware.decision in Decision and ignoring.decision in Decision
        if aware.decision is Decision.DENY and ignoring.decision is Decision.PERMIT:
            flips += 1
        assert ignoring.decision is Decision.DENY or ignoring.decision is aware.decision
    assert flips == 0


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
    response = engine.evaluate(policy_pack, request, pips)
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
        policy_pack, parse_request(raw), make_bundle("2026-03-10T12:45:00Z")
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
    response = engine.evaluate(policy_pack, parse_request(data), pips)
    assert response.decision is Decision.PERMIT
    assert pips.location.calls == 0  # the embedded snapshot is trusted


def test_location_supplier_called_exactly_once_per_evaluate(engine, policy_pack):
    pips = make_bundle(NOON, count_locates=True)
    request = parse_request(wire_request(point=LONDON_POINT))
    engine.evaluate(policy_pack, request, pips)
    assert pips.location.calls == 1
    engine.evaluate(policy_pack, request, pips)
    assert pips.location.calls == 2  # once more for the second evaluation


def test_repeated_evaluations_are_identical(engine, policy_pack):
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    responses = {
        engine.evaluate(policy_pack, request, make_bundle("2026-03-10T12:45:00Z"))
        for _ in range(25)
    }
    assert len(responses) == 1


def test_trace_covers_every_visited_node_exactly_once(engine, policy_pack):
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    response = engine.evaluate(policy_pack, request, make_bundle("2026-03-10T12:45:00Z"))
    node_ids = [t.node_id for t in response.trace]
    assert len(node_ids) == len(set(node_ids))


def test_obligation_coherence(engine, policy_pack):
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    response = engine.evaluate(policy_pack, request, make_bundle("2026-03-10T12:45:00Z"))
    assert response.decision is Decision.PERMIT
    assert [ob.id for ob in response.obligations] == ["pseudonymize"]
    for ob in response.obligations:
        assert ob.fulfill_on.to_decision() is response.decision


def test_user_registered_function_is_callable(policy_pack):
    functions = FunctionRegistry({"function:always-true": lambda ctx, args: True})
    engine = PolicyDecisionPoint(functions=functions)
    doc = document(
        policy("p", [rule("r", Effect.PERMIT, condition=FunctionApplication("function:always-true", ()))])
    )
    pips = make_bundle(NOON)
    request = parse_request(wire_request(point=LONDON_POINT))
    assert engine.evaluate([doc], request, pips).decision is Decision.PERMIT


def test_duplicate_function_registration_is_rejected():
    registry = FunctionRegistry()
    with pytest.raises(ValueError):
        registry.register("function:and", lambda ctx, args: True)


def test_forest_compiled_by_another_engine_is_refused(engine, policy_pack):
    request = parse_request(wire_request(point=LONDON_POINT))
    forest = PolicyDecisionPoint().compile(policy_pack)
    with pytest.raises(ValueError, match="another engine"):
        engine.evaluate(forest, request, make_bundle(NOON))
    assert engine.evaluate(engine.compile(policy_pack), request, make_bundle(NOON)) == \
        engine.evaluate(policy_pack, request, make_bundle(NOON))
