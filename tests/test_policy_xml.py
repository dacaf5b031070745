import datetime as dt

import pytest
from hypothesis import given, strategies as st

from lexgate.errors import PolicySyntaxError, PolicyTypeError
from lexgate.model import (
    AttributeValue,
    Category,
    DataType,
    Effect,
    FunctionApplication,
    Literal,
    AttributeSelector,
    MatchClause,
    LINE_BREAK,
    NodeKind,
    Obligation,
    Target,
    validate_document,
)
from lexgate.parsing.policy_xml import (
    normalize_combiner_id,
    normalize_function_id,
    parse_policy_document,
    serialize_policy_document,
)
from policybuild import document, policy, policy_set, rule

WORKING_TIME = (__import__("pathlib").Path(__file__).parent.parent
                / "src/lexgate/fixtures/policies/working-time.xml")

MINIMAL = b"""
<Policy PolicyId="p" RuleCombiningAlgId="deny-overrides">
  <Rule RuleId="r" Effect="Permit"/>
</Policy>
"""


def test_working_time_policy_parses_field_for_field():
    doc = parse_policy_document(WORKING_TIME.read_bytes(), "working-time.xml")
    root = doc.root
    assert root.id == "WorkingTimePolicy"
    assert root.kind is NodeKind.POLICY
    assert root.combining == "deny-overrides"
    assert root.target.is_match_any()  # the elided "..." target matches any

    login, final = root.children
    assert login.id == "LoginRule" and login.effect is Effect.PERMIT
    assert final.id == "FinalRule" and final.effect is Effect.DENY
    assert final.condition is None and not final.children

    condition = login.condition
    assert isinstance(condition, FunctionApplication)
    assert condition.function == "function:and"
    ge, le = condition.args
    assert ge.function == "function:time-greater-than-or-equal"
    assert le.function == "function:time-less-than-or-equal"
    for apply_node, bound in ((ge, dt.time(8, 0)), (le, dt.time(18, 0))):
        unwrap, literal = apply_node.args
        assert unwrap.function == "function:time-one-and-only"
        selector = unwrap.args[0]
        assert isinstance(selector, AttributeSelector)
        assert selector.category is Category.ENVIRONMENT
        assert selector.attribute_id == "current-time"
        assert selector.data_type is DataType.TIME_OF_DAY
        assert literal == Literal(AttributeValue(DataType.TIME_OF_DAY, bound))

    assert validate_document(doc) == []


def test_minimal_document_shape():
    doc = parse_policy_document(MINIMAL)
    assert doc.root.kind is NodeKind.POLICY
    assert len(doc.root.children) == 1
    only = doc.root.children[0]
    assert only.kind is NodeKind.RULE and only.effect is Effect.PERMIT
    assert only.condition is None


def test_out_of_domain_time_literal_is_a_type_error():
    bad = WORKING_TIME.read_text().replace("18:00:00", "25:00:00")
    with pytest.raises(PolicyTypeError) as err:
        parse_policy_document(bad)
    assert "25:00:00" in str(err.value)


def test_malformed_markup_reports_path_and_line():
    with pytest.raises(PolicySyntaxError) as err:
        parse_policy_document(b"<Policy PolicyId='p'\n  <Rule/></Policy>")
    assert err.value.line is not None


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("urn:oasis:names:tc:xacml:1.0:function:and", "function:and"),
        ("function:time-greater-than-or-equal", "function:time-greater-than-or-equal"),
        ("and", "function:and"),
    ],
)
def test_function_id_normalization(raw, expected):
    assert normalize_function_id(raw) == expected


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("rule-combining-algorithm:deny-overrides", "deny-overrides"),
        ("urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable",
         "first-applicable"),
        ("only-one-applicable", "only-one-applicable"),
    ],
)
def test_combiner_id_normalization(raw, expected):
    assert normalize_combiner_id(raw) == expected


def test_environment_attribute_spelling_lifts_into_legislation_set():
    data = b"""
    <Policy PolicyId="p" RuleCombiningAlgId="deny-overrides">
      <Target>
        <Environments>
          <Match AttributeId="legislation-location" MatchId="function:string-equal">
            <AttributeValue DataType="XMLSchema#string">DE</AttributeValue>
          </Match>
          <Match AttributeId="legislation-location" MatchId="function:string-equal">
            <AttributeValue DataType="XMLSchema#string">EU</AttributeValue>
          </Match>
        </Environments>
      </Target>
      <Rule RuleId="r" Effect="Deny"/>
    </Policy>
    """
    doc = parse_policy_document(data)
    assert doc.root.legislation == frozenset({"DE", "EU"})
    assert doc.root.target.is_match_any()  # the clauses were normalized away


def test_dedicated_legislation_element_and_merge_with_lifted():
    data = b"""
    <Policy PolicyId="p" RuleCombiningAlgId="deny-overrides">
      <Target>
        <Environments>
          <Match AttributeId="legislation-location" MatchId="function:string-equal">
            <AttributeValue DataType="XMLSchema#string">FR</AttributeValue>
          </Match>
        </Environments>
      </Target>
      <Legislation><Scope>LU</Scope></Legislation>
      <Rule RuleId="r" Effect="Deny"/>
    </Policy>
    """
    doc = parse_policy_document(data)
    assert doc.root.legislation == frozenset({"FR", "LU"})


def test_policy_may_not_nest_policies():
    data = b"""
    <Policy PolicyId="p" RuleCombiningAlgId="deny-overrides">
      <Policy PolicyId="q" RuleCombiningAlgId="deny-overrides"/>
    </Policy>
    """
    with pytest.raises(PolicySyntaxError):
        parse_policy_document(data)


@pytest.mark.parametrize(
    "attribute_id,text",
    [("note", "a&#10;b"), ("note", "a&#13;b"), ("note", "a&#x2028;b"), ("my note", "ab")],
    ids=["lf", "cr", "u2028", "space-in-attribute-id"],
)
def test_obligation_parameter_must_fit_one_wire_line(attribute_id, text):
    # `param <name> <type> <value>` is one line of the response: a name with
    # whitespace or a value with a line break would break it after the audit
    # record is written.
    data = f"""
<Policy PolicyId="p" RuleCombiningAlgId="deny-overrides">
  <Rule RuleId="r" Effect="Permit">
    <Obligations>
      <Obligation ObligationId="limit-duration" FulfillOn="Permit">
        <AttributeAssignment AttributeId="{attribute_id}" DataType="XMLSchema#string">{text}</AttributeAssignment>
      </Obligation>
    </Obligations>
  </Rule>
</Policy>
""".encode()
    with pytest.raises(PolicySyntaxError) as err:
        parse_policy_document(data)
    assert err.value.line == 6


# -- round-trip property -------------------------------------------------------

_names = st.uuids().map(lambda u: f"n{u.hex[:10]}")
_safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\r\n"),
    min_size=1,
    max_size=20,
).map(str.strip).filter(bool)

_literals = st.one_of(
    _safe_text.map(lambda s: AttributeValue(DataType.STRING, s)),
    st.integers(-10**6, 10**6).map(lambda i: AttributeValue(DataType.INTEGER, i)),
    st.booleans().map(lambda b: AttributeValue(DataType.BOOLEAN, b)),
    st.times().map(lambda t: AttributeValue(DataType.TIME_OF_DAY, t.replace(microsecond=0))),
    st.sampled_from(("LU", "DE", "JP")).map(lambda c: AttributeValue(DataType.COUNTRY_CODE, c)),
)

# Obligation parameters must not hold a line break (U+2028 is not in Cc).
_one_line_literals = _literals.filter(
    lambda literal: not (isinstance(literal.value, str) and LINE_BREAK.search(literal.value))
)


@st.composite
def documents(draw):
    used = set()

    def fresh(prefix):
        while True:
            name = f"{prefix}{draw(_names)}"
            if name not in used:
                used.add(name)
                return name

    def target():
        if draw(st.booleans()):
            return Target()
        clause = MatchClause("user-id", "function:string-equal", draw(_literals))
        return Target(subjects=(clause,))

    def condition(depth=0):
        if depth >= 2 or draw(st.booleans()):
            return Literal(AttributeValue(DataType.BOOLEAN, draw(st.booleans())))
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return AttributeSelector(Category.ENVIRONMENT, "current-time", DataType.TIME_OF_DAY)
        return FunctionApplication(
            "function:not", (condition(depth + 1),)
        )

    def make_rule():
        obligations = ()
        if draw(st.booleans()):
            obligations = (
                Obligation(
                    fresh("ob-"),
                    draw(st.sampled_from((Effect.PERMIT, Effect.DENY))),
                    (("note", draw(_one_line_literals)),),
                ),
            )
        return rule(
            fresh("r-"),
            draw(st.sampled_from((Effect.PERMIT, Effect.DENY))),
            condition=draw(st.booleans()) and FunctionApplication("function:not", (condition(),)) or None,
            target=target(),
            legislation=draw(st.sampled_from((None, frozenset({"LU", "EU"})))),
            obligations=obligations,
        )

    def make_policy():
        return policy(
            fresh("p-"),
            [make_rule() for _ in range(draw(st.integers(0, 3)))],
            combining=draw(st.sampled_from(
                ("deny-overrides", "permit-overrides", "first-applicable", "only-one-applicable")
            )),
            target=target(),
            legislation=draw(st.sampled_from((None, frozenset({"DE"})))),
        )

    if draw(st.booleans()):
        root = policy_set(fresh("s-"), [make_policy() for _ in range(draw(st.integers(1, 2)))])
    else:
        root = make_policy()
    return document(root)


@given(documents())
def test_policy_round_trip_is_identity(doc):
    rebuilt = parse_policy_document(serialize_policy_document(doc), doc.source_name)
    assert rebuilt.root == doc.root
