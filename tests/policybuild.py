"""In-memory policy builders shared by engine and validator tests."""

from __future__ import annotations

import datetime as dt
import random

from lexgate.model import (
    SIGNATURES,
    AttributeSelector,
    AttributeValue,
    Category,
    DataType,
    Effect,
    FunctionApplication,
    GeoPoint,
    Literal,
    MatchClause,
    Obligation,
    NodeKind,
    PolicyDocument,
    PolicyNode,
    Target,
)


def rule(rule_id, effect=Effect.PERMIT, condition=None, target=Target(), legislation=None,
         obligations=(), children=()):
    return PolicyNode(
        id=rule_id,
        kind=NodeKind.RULE,
        target=target,
        effect=effect,
        condition=condition,
        children=tuple(children),
        obligations=tuple(obligations),
        legislation=legislation,
    )


def policy(policy_id, rules, combining="deny-overrides", target=Target(), legislation=None,
           obligations=()):
    return PolicyNode(
        id=policy_id,
        kind=NodeKind.POLICY,
        target=target,
        combining=combining,
        children=tuple(rules),
        obligations=tuple(obligations),
        legislation=legislation,
    )


def policy_set(set_id, children, combining="deny-overrides", legislation=None):
    return PolicyNode(
        id=set_id,
        kind=NodeKind.POLICY_SET,
        combining=combining,
        children=tuple(children),
        legislation=legislation,
    )


def document(root, name="test.xml"):
    return PolicyDocument(root=root, source_name=name)


def boolean_literal(value: bool):
    return Literal(AttributeValue(DataType.BOOLEAN, value))


def always(value: bool):
    """A condition that evaluates to the given boolean."""
    return FunctionApplication("function:not", (boolean_literal(not value),))


def string_clause(attribute_id: str, text: str) -> MatchClause:
    return MatchClause(attribute_id, "function:string-equal", AttributeValue(DataType.STRING, text))


# Literal pools shared by random_forest targets and generated requests.
TARGET_LITERALS = {
    (Category.RESOURCE, "resource-id"): ("products/overview", "cust/4711/portfolio", "res-x"),
    (Category.ACTION, "action-id"): ("read", "write"),
    (Category.SUBJECT, "role"): ("teller", "auditor"),
    (Category.ENVIRONMENT, "channel"): ("branch", "remote"),
}

# Typed conditions compare the one value of attributes read as any data
# type, or literals of any type, right or wrong: "level" is carried by
# generated requests with 0 to 2 values of TYPED_VALUES, the others are
# filled by the context build.
TYPED_ATTRIBUTES = (
    (Category.ENVIRONMENT, "level"),
    (Category.ENVIRONMENT, "current-time"),
    (Category.ENVIRONMENT, "task-status"),
    (Category.ENVIRONMENT, "source-country"),
    (Category.RESOURCE, "confidential"),
    (Category.SUBJECT, "user-id"),
)
TYPED_VALUES = (
    AttributeValue(DataType.STRING, "full-match"),
    AttributeValue(DataType.STRING, "GB"),
    AttributeValue(DataType.COUNTRY_CODE, "GB"),
    AttributeValue(DataType.COUNTRY_CODE, "LU"),
    AttributeValue(DataType.IDENTIFIER, "c.miller"),
    AttributeValue(DataType.IDENTIFIER, "d.weber"),
    AttributeValue(DataType.TIME_OF_DAY, dt.time(9, 30)),
    AttributeValue(DataType.TIME_OF_DAY, dt.time(12, 0)),
    AttributeValue(DataType.BOOLEAN, True),
    AttributeValue(DataType.BOOLEAN, False),
    AttributeValue(DataType.INTEGER, 1),
    AttributeValue(DataType.INTEGER, 7),
    AttributeValue(DataType.DATE, dt.date(2026, 3, 10)),
    AttributeValue(DataType.DATE, dt.date(2026, 3, 11)),
    AttributeValue(DataType.GEO_POINT, GeoPoint(51.5, -0.1)),
    AttributeValue(DataType.GEO_POINT, GeoPoint(49.6, 6.1)),
)
# Two values of each data type: a bag of two of one type is what makes a
# typed one-and-only fail, so generated requests often carry such a pair.
TYPED_PAIRS = tuple(
    tuple(value for value in TYPED_VALUES if value.data_type is data_type) for data_type in DataType
)
_COMPARISONS = (
    "function:string-equal",
    "function:boolean-equal",
    "function:time-greater-than-or-equal",
    "function:time-less-than-or-equal",
)


def _random_operand(rng: random.Random, depth: int, payload: type):
    """The one value of a typed attribute read as any data type (most often
    through the one-and-only function of its payload type), a literal, or,
    at depth 0, a comparison. The attribute is "level", the one that can
    hold two values of a type, half the time, and the data type or literal
    has the payload type the comparison takes half the time, so that typed
    one-and-only functions over two values are often reached."""
    roll = rng.random()
    fitting = rng.random() < 0.5
    if roll < 0.5:
        category, attribute_id = TYPED_ATTRIBUTES[0] if rng.random() < 0.5 else rng.choice(TYPED_ATTRIBUTES)
        pairs = [pair for pair in TYPED_PAIRS if isinstance(pair[0].value, payload)] if fitting else TYPED_PAIRS
        data_type = rng.choice(pairs)[0].data_type
        unwrap = ("string", "time")[(data_type is DataType.TIME_OF_DAY) != (rng.random() < 0.2)]
        selector = AttributeSelector(category, attribute_id, data_type)
        return FunctionApplication(f"function:{unwrap}-one-and-only", (selector,))
    if depth == 0 and roll < 0.6:
        return random_comparison(rng, depth + 1)
    values = [value for value in TYPED_VALUES if isinstance(value.value, payload)] if fitting else TYPED_VALUES
    return Literal(rng.choice(values))


def random_comparison(rng: random.Random, depth: int = 0):
    function = rng.choice(_COMPARISONS)
    payload = SIGNATURES[function].args[0][0]
    return FunctionApplication(
        function, (_random_operand(rng, depth, payload), _random_operand(rng, depth, payload))
    )


_ERRORS = (
    # function:not of a string: processing-error.
    FunctionApplication("function:not", (Literal(AttributeValue(DataType.STRING, "x")),)),
    # one-and-only over an attribute no request carries: missing-attribute.
    FunctionApplication(
        "function:string-one-and-only",
        (AttributeSelector(Category.ENVIRONMENT, "absent", DataType.STRING),),
    ),
)


UNKNOWN_FUNCTION = "function:no-such-function"
UNKNOWN_COMBINER = "no-such-combiner"
_UNKNOWN_APPLICATION = FunctionApplication(UNKNOWN_FUNCTION, (boolean_literal(True),))
_HOSTILE_CONDITIONS = (
    _UNKNOWN_APPLICATION,
    # Builtins with the wrong number of arguments.
    FunctionApplication("function:not", ()),
    FunctionApplication("function:string-equal", (Literal(AttributeValue(DataType.STRING, "x")),)),
    # Builtins that fit their signature around an operand of unknown type,
    # which the engine evaluates on its typed path.
    FunctionApplication("function:string-equal", (_UNKNOWN_APPLICATION, Literal(AttributeValue(DataType.STRING, "x")))),
    FunctionApplication("function:time-one-and-only", (_UNKNOWN_APPLICATION,)),
)


def _random_condition(rng: random.Random, depth: int = 0, hostile: bool = False):
    """None, a literal boolean, a typed comparison, an error, or and/or/not
    over those; when hostile, also unknown functions and wrong arities."""
    roll = rng.random()
    if depth == 0 and roll < 0.3:
        return None
    if depth < 2 and roll < 0.55:
        function = rng.choice(("function:and", "function:or", "function:not"))
        count = 1 if function == "function:not" else rng.randint(0, 3)
        return FunctionApplication(
            function,
            tuple(_random_condition(rng, depth + 1, hostile) or always(True) for _ in range(count)),
        )
    if roll < 0.75:
        return always(rng.random() < 0.5)
    if roll < 0.9:
        return random_comparison(rng)
    if hostile and rng.random() < 0.6:
        return rng.choice(_HOSTILE_CONDITIONS)
    return rng.choice(_ERRORS)


def _random_target(rng: random.Random, hostile: bool = False) -> Target:
    """Match-any, or string-equal literals on one or two categories (one or
    two clauses each), or a clause a literal index cannot key on; when
    hostile, sometimes also a clause with an unknown match function, on
    a carried attribute or on one no request carries (an unknown function
    fails even on an empty bag)."""
    roll = rng.random()
    if roll < 0.3:
        return Target()
    sections = {category: [] for category in Category}
    selectors = rng.sample(list(TARGET_LITERALS), rng.choice((1, 1, 2)))
    for category, attribute_id in selectors:
        for _ in range(rng.choice((1, 1, 1, 2))):
            literal = rng.choice(TARGET_LITERALS[(category, attribute_id)])
            sections[category].append(string_clause(attribute_id, literal))
    if roll > 0.85:
        # One clause that is not string-equal on a string literal: a third
        # of the time location-match (true for a GB source whatever the
        # string value), else boolean-equal against a bag of strings,
        # integers and booleans, or an integer literal.
        category, attribute_id = selectors[0]
        location = MatchClause(attribute_id, "function:location-match", AttributeValue(DataType.STRING, "GB"))
        sections[category] = [rng.choice((
            location,
            location,
            MatchClause(attribute_id, "function:boolean-equal", AttributeValue(DataType.BOOLEAN, True)),
            MatchClause(attribute_id, "function:boolean-equal", AttributeValue(DataType.BOOLEAN, False)),
            MatchClause(attribute_id, "function:boolean-equal", AttributeValue(DataType.BOOLEAN, True)),
            MatchClause(attribute_id, "function:string-equal", AttributeValue(DataType.INTEGER, 1)),
        ))]
    if hostile and rng.random() < 0.3:
        category, attribute_id = rng.choice(selectors)
        clause = MatchClause(
            rng.choice((attribute_id, "absent")),
            UNKNOWN_FUNCTION,
            AttributeValue(DataType.STRING, "x"),
        )
        sections[category].insert(rng.randint(0, len(sections[category])), clause)
    return Target(
        subjects=tuple(sections[Category.SUBJECT]),
        resources=tuple(sections[Category.RESOURCE]),
        actions=tuple(sections[Category.ACTION]),
        environments=tuple(sections[Category.ENVIRONMENT]),
    )


def _random_obligations(rng: random.Random, owner: str):
    if rng.random() < 0.7:
        return ()
    return (Obligation(f"ob-{owner}", rng.choice((Effect.PERMIT, Effect.DENY))),)


def _combiner(rng: random.Random, combiners, hostile: bool) -> str:
    if hostile and rng.random() < 0.1:
        return UNKNOWN_COMBINER
    return rng.choice(combiners)


def _random_policy(rng: random.Random, policy_id: str, scope_pool, hostile: bool = False):
    """An untagged policy (any effects) or a legislation-tagged one (one or
    two scopes) whose rules are all Deny. Only Deny rules carry a tag of
    their own, so ignoring tags can only add Deny decisions."""
    tagged = rng.random() < 0.5
    rules = []
    for rule_index in range(rng.randint(1, 4)):
        effect = Effect.DENY if tagged else rng.choice((Effect.PERMIT, Effect.PERMIT, Effect.DENY))
        rule_id = f"{policy_id}-r{rule_index}"
        rules.append(rule(
            rule_id,
            effect,
            _random_condition(rng, hostile=hostile),
            target=_random_target(rng, hostile) if rng.random() < 0.2 else Target(),
            legislation=(
                frozenset(rng.sample(scope_pool, 1))
                if effect is Effect.DENY and rng.random() < 0.15 else None
            ),
            obligations=_random_obligations(rng, rule_id),
        ))
    legislation = frozenset(rng.sample(scope_pool, rng.randint(1, 2))) if tagged else None
    combining = _combiner(
        rng, ("deny-overrides", "permit-overrides", "first-applicable", "only-one-applicable"), hostile
    )
    return policy(
        policy_id,
        rules,
        combining=combining,
        target=_random_target(rng, hostile),
        legislation=legislation,
        obligations=_random_obligations(rng, policy_id),
    )


def random_forest(
    rng: random.Random, scope_pool=("DE", "FR", "LU", "EU", "GB", "CH", "JP"), hostile=False
):
    """A random forest of untagged policies (any effects) and
    legislation-tagged policies whose rules are all Deny, some inside a
    policy set. Roots carry string-equal target literals from
    TARGET_LITERALS, several clauses, clauses no literal index keys on, or
    no target. Conditions are literal booleans, errors, comparisons over
    typed attributes and literals (TYPED_ATTRIBUTES, TYPED_VALUES), well-
    or ill-typed, and and/or/not over those.

    Every second and third document of each three has a non-ASCII id
    (its nodes' ids start with it), so that UTF-8 byte offsets and
    character offsets differ in the wire text.

    hostile=True also draws unknown function ids in conditions and target
    clauses, builtins with the wrong arity and unknown combiners."""
    documents = []
    for doc_index in range(rng.randint(1, 6)):
        doc_id = f"{('d', 'dé', 'd文')[doc_index % 3]}{doc_index}"
        if rng.random() < 0.15:
            root = policy_set(
                doc_id,
                [
                    _random_policy(rng, f"{doc_id}-p{n}", scope_pool, hostile)
                    for n in range(rng.randint(1, 2))
                ],
                combining=_combiner(
                    rng, ("deny-overrides", "permit-overrides", "first-applicable"), hostile
                ),
            )
        else:
            root = _random_policy(rng, doc_id, scope_pool, hostile)
        documents.append(document(root, name=f"{doc_id}.xml"))
    return documents
