import datetime as dt

import pytest
from hypothesis import given, strategies as st

from lexgate import model
from lexgate.combining import CombinerRegistry
from lexgate.engine import FunctionRegistry
from lexgate.model import (
    AttributeValue,
    DataType,
    Decision,
    Effect,
    FunctionApplication,
    GeoPoint,
    NodeKind,
    PolicyNode,
    Target,
    single_line,
    undo_single_line,
    validate_document,
)
from policybuild import always, document, policy, policy_set, rule, string_clause


def test_effects_are_a_strict_subset_of_decisions():
    decision_values = {d.value for d in Decision}
    effect_values = {e.value for e in Effect}
    assert effect_values < decision_values
    for effect in Effect:
        assert effect.to_decision().value == effect.value


def test_validator_knows_exactly_the_engine_registries():
    assert set(model.BUILTIN_FUNCTIONS) == FunctionRegistry().ids()
    assert set(model.STANDARD_COMBINERS) == CombinerRegistry().ids()


def test_single_line_tells_a_line_feed_from_backslash_n():
    assert single_line("a\nb") == "a\\nb"
    assert single_line("a\\nb") == "a\\\\nb"
    assert single_line("a\nb") != single_line("a\\nb")


# Backslashes, letters of escapes and line breaks are drawn often, so
# that text which looks escaped meets real line breaks.
@given(st.text(st.sampled_from("\\nux2\n\u2028\udc80") | st.characters()))
def test_single_line_can_be_undone(text):
    line = single_line(text)
    assert line.splitlines() == [line] or line == ""
    line.encode("utf-8")
    assert undo_single_line(line) == text


def test_attribute_value_type_checks():
    AttributeValue(DataType.TIME_OF_DAY, dt.time(8, 0))
    AttributeValue(DataType.COUNTRY_CODE, "LU")
    with pytest.raises(TypeError):
        AttributeValue(DataType.TIME_OF_DAY, "08:00:00")
    with pytest.raises(ValueError):
        AttributeValue(DataType.COUNTRY_CODE, "Luxembourg")
    with pytest.raises(TypeError):
        AttributeValue(DataType.INTEGER, True)


def test_geo_point_domain():
    GeoPoint(90.0, -180.0)
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)


def _well_formed_doc():
    """A document exercising every feature the violation catalogue touches."""
    r1 = rule(
        "r1",
        Effect.PERMIT,
        condition=always(True),
        target=Target(subjects=(string_clause("user-id", "u"),)),
    )
    r2 = rule("r2", Effect.DENY, legislation=frozenset({"LU"}))
    return document(policy_set("root", [policy("p1", [r1, r2], legislation=frozenset({"EU"}))]))


KNOWN_SCOPES = frozenset({"LU", "EU", "DE"})


def test_well_formed_document_has_no_violations():
    assert validate_document(_well_formed_doc(), known_scopes=KNOWN_SCOPES) == []


def _replace_node(node, target_id, replacer):
    if node.id == target_id:
        return replacer(node)
    return PolicyNode(
        id=node.id,
        kind=node.kind,
        target=node.target,
        combining=node.combining,
        effect=node.effect,
        condition=node.condition,
        children=tuple(_replace_node(c, target_id, replacer) for c in node.children),
        obligations=node.obligations,
        legislation=node.legislation,
    )


def _mutate(doc, target_id, **changes):
    def replacer(node):
        kwargs = dict(
            id=node.id,
            kind=node.kind,
            target=node.target,
            combining=node.combining,
            effect=node.effect,
            condition=node.condition,
            children=node.children,
            obligations=node.obligations,
            legislation=node.legislation,
        )
        kwargs.update(changes)
        return PolicyNode(**kwargs)

    return document(_replace_node(doc.root, target_id, replacer))


# One mutation per violation catalogue entry, each introducing exactly one
# defect into the well-formed document above.
MUTATIONS = {
    "duplicate-id:r1": lambda d: _mutate(d, "r2", id="r1"),
    "rule-has-children": lambda d: _mutate(d, "r2", children=(rule("extra", Effect.PERMIT),)),
    "unknown-function:function:bogus": lambda d: _mutate(
        d, "r1", condition=FunctionApplication("function:bogus", ())
    ),
    "unknown-combiner:sometimes-applicable": lambda d: _mutate(
        d, "p1", combining="sometimes-applicable"
    ),
    "unknown-scope:XX": lambda d: _mutate(d, "r2", legislation=frozenset({"XX"})),
    "missing-combiner": lambda d: _mutate(d, "p1", combining=None),
    "effect-on-container": lambda d: _mutate(d, "p1", effect=Effect.PERMIT),
    "condition-on-container": lambda d: _mutate(d, "p1", condition=always(True)),
    "policy-contains-non-rule": lambda d: _mutate(
        d, "p1", children=(policy("inner", []),)
    ),
    "policy-set-contains-rule": lambda d: _mutate(
        d, "root", children=(rule("naked", Effect.DENY),)
    ),
    "empty-legislation": lambda d: _mutate(d, "r2", legislation=frozenset()),
    "rule-missing-effect": lambda d: _mutate(d, "r2", effect=None),
}


@pytest.mark.parametrize("expected_code", sorted(MUTATIONS))
def test_each_mutation_yields_exactly_its_violation(expected_code):
    mutated = MUTATIONS[expected_code](_well_formed_doc())
    violations = validate_document(mutated, known_scopes=KNOWN_SCOPES)
    # duplicate-id mutations also strip the duplicate node's other facets,
    # so compare on codes and require the expected one to be present alone.
    codes = [v.code for v in violations]
    assert codes == [expected_code], f"got {codes}"


# -- generated documents -----------------------------------------------------

_ids = st.uuids().map(lambda u: f"n-{u.hex[:8]}")


@st.composite
def generated_documents(draw):
    depth = draw(st.integers(min_value=0, max_value=2))
    used = set()

    def fresh_id():
        while True:
            candidate = draw(_ids)
            if candidate not in used:
                used.add(candidate)
                return candidate

    def make_rule():
        legislation = draw(st.sampled_from((None, frozenset({"LU"}), frozenset({"EU", "DE"}))))
        condition = draw(st.sampled_from((None, always(True), always(False))))
        return rule(
            fresh_id(),
            draw(st.sampled_from((Effect.PERMIT, Effect.DENY))),
            condition=condition,
            legislation=legislation,
        )

    def make_container(level):
        if level <= 0:
            rules = [make_rule() for _ in range(draw(st.integers(0, 3)))]
            return policy(fresh_id(), rules, combining=draw(
                st.sampled_from(("deny-overrides", "permit-overrides", "first-applicable"))
            ))
        children = [make_container(level - 1) for _ in range(draw(st.integers(1, 2)))]
        return policy_set(fresh_id(), children)

    return document(make_container(depth))


@given(generated_documents())
def test_generated_documents_are_well_formed(doc):
    assert validate_document(doc, known_scopes=KNOWN_SCOPES) == []


@given(generated_documents())
def test_decision_domain_closure_over_generated_documents(doc):
    # Structural guarantee at the type level: every rule effect maps into
    # the decision domain and every node kind is one of the three.
    for node in doc.walk():
        assert node.kind in NodeKind
        if node.effect is not None:
            assert node.effect.to_decision() in Decision
