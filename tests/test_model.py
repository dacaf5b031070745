import datetime as dt
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lexgate import combining, engine, model
from lexgate.cli import load_policy_dir
from lexgate.context.loader import load_scopes
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
    NodeKind,
    PolicyNode,
    Target,
    single_line,
    undo_single_line,
    validate_document,
)
from policybuild import always, document, policy, policy_set, rule, string_clause

REPO = Path(__file__).resolve().parent.parent


def test_effects_are_a_strict_subset_of_decisions():
    decision_values = {d.value for d in Decision}
    effect_values = {e.value for e in Effect}
    assert effect_values < decision_values
    for effect in Effect:
        assert effect.to_decision().value == effect.value


def test_validator_knows_exactly_the_engine_registries():
    assert set(model.BUILTIN_FUNCTIONS) == set(engine._BUILTINS) | set(engine._SPECIAL_FORMS)
    assert set(model.STANDARD_COMBINERS) == set(combining.STANDARD)


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
    "id-not-one-field": lambda d: _mutate(d, "r2", id="r 2"),
    # A time compared with the one value of a string attribute.
    "ill-typed:function:time-greater-than-or-equal": lambda d: _mutate(
        d, "r1", condition=FunctionApplication("function:time-greater-than-or-equal", (
            FunctionApplication("function:string-one-and-only", (
                AttributeSelector(Category.ENVIRONMENT, "task-status", DataType.STRING),
            )),
            Literal(AttributeValue(DataType.TIME_OF_DAY, dt.time(8, 0))),
        ))
    ),
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


# -- typing against the signature table -------------------------------------------


def _literal(data_type, value):
    return Literal(AttributeValue(data_type, value))


def _apply(function, *args):
    return FunctionApplication(function, args)


def _one_and_only(kind, data_type, attribute="a"):
    return _apply(f"function:{kind}-one-and-only", AttributeSelector(Category.ENVIRONMENT, attribute, data_type))


COUNTRY = _literal(DataType.COUNTRY_CODE, "LU")


@pytest.mark.parametrize(
    "condition,codes",
    [
        # Country codes and identifiers are strings to the string functions.
        (_apply("function:string-equal", _one_and_only("string", DataType.COUNTRY_CODE), COUNTRY), []),
        (_apply("function:string-equal", _one_and_only("string", DataType.IDENTIFIER),
                _literal(DataType.STRING, "c.miller")), []),
        (_apply("function:not", _apply("function:and")), []),
        # A bag where a scalar is due, and a scalar where a bag is due.
        (_apply("function:string-equal", AttributeSelector(Category.ENVIRONMENT, "a", DataType.STRING), COUNTRY),
         ["ill-typed:function:string-equal"]),
        (_apply("function:string-one-and-only", COUNTRY), ["ill-typed:function:string-one-and-only"]),
        # An integer is no boolean; a time bag is no string bag; arity.
        (_apply("function:not", _literal(DataType.INTEGER, 1)), ["ill-typed:function:not"]),
        (_apply("function:boolean-equal", _literal(DataType.BOOLEAN, True), _literal(DataType.INTEGER, 1)),
         ["ill-typed:function:boolean-equal"]),
        (_one_and_only("string", DataType.TIME_OF_DAY), ["ill-typed:function:string-one-and-only"]),
        (_apply("function:time-less-than-or-equal", _literal(DataType.TIME_OF_DAY, dt.time(8, 0))),
         ["ill-typed:function:time-less-than-or-equal"]),
        # Nested: the inner application is ill-typed, the outer one fits.
        (_apply("function:not", _apply("function:string-equal", COUNTRY, _literal(DataType.DATE, dt.date(2026, 3, 10)))),
         ["ill-typed:function:string-equal"]),
        # A function that is not built in has no signature, and its value
        # no known type.
        (_apply("function:string-equal", _apply("function:ext"), COUNTRY), ["unknown-function:function:ext"]),
        # location-match takes one or more strings, none of them a bag.
        (_apply("function:location-match", COUNTRY, _literal(DataType.STRING, "restricted")), []),
        (_apply("function:location-match", _one_and_only("string", DataType.STRING)), []),
        (_apply("function:location-match", _apply("function:ext")), ["unknown-function:function:ext"]),
        (_apply("function:location-match", _literal(DataType.INTEGER, 1)), ["ill-typed:function:location-match"]),
        (_apply("function:location-match", COUNTRY, _literal(DataType.BOOLEAN, True)),
         ["ill-typed:function:location-match"]),
        (_apply("function:location-match", AttributeSelector(Category.ENVIRONMENT, "a", DataType.STRING)),
         ["ill-typed:function:location-match"]),
        (_apply("function:location-match"), ["ill-typed:function:location-match"]),
    ],
)
def test_ill_typed_applications_are_reported(condition, codes):
    mutated = _mutate(_well_formed_doc(), "r1", condition=condition)
    assert [v.code for v in validate_document(mutated, known_scopes=KNOWN_SCOPES)] == codes


@pytest.mark.parametrize(
    "function,literal,codes",
    [
        ("function:string-equal", AttributeValue(DataType.COUNTRY_CODE, "LU"), []),
        ("function:boolean-equal", AttributeValue(DataType.BOOLEAN, False), []),
        ("function:location-match", AttributeValue(DataType.STRING, "GB"), []),
        ("function:string-equal", AttributeValue(DataType.INTEGER, 1), ["ill-typed:function:string-equal"]),
        ("function:boolean-equal", AttributeValue(DataType.STRING, "true"), ["ill-typed:function:boolean-equal"]),
        # A clause applies its function to two arguments.
        ("function:not", AttributeValue(DataType.BOOLEAN, True), ["ill-typed:function:not"]),
        ("function:time-one-and-only", AttributeValue(DataType.TIME_OF_DAY, dt.time(8, 0)),
         ["ill-typed:function:time-one-and-only"]),
        ("function:location-match", AttributeValue(DataType.INTEGER, 1), ["ill-typed:function:location-match"]),
    ],
)
def test_ill_typed_match_clauses_are_reported(function, literal, codes):
    target = Target(resources=(MatchClause("confidential", function, literal),))
    mutated = _mutate(_well_formed_doc(), "p1", target=target)
    assert [v.code for v in validate_document(mutated, known_scopes=KNOWN_SCOPES)] == codes


def test_generated_forest_documents_are_clean(tmp_path):
    # The benchmark's forest-600 documents compare string-one-and-only of a
    # country-code selector with a country-code literal.
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.gen_forest(REPO / "src" / "lexgate" / "fixtures", tmp_path, random.Random(5), days=2, documents=60)
    known = load_scopes(tmp_path / "scopes.txt").ids()
    documents = load_policy_dir(tmp_path / "policies")
    assert len(documents) >= 60
    assert [v for d in documents for v in validate_document(d, known_scopes=known)] == []
