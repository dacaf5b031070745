"""Reader and writer for the XML policy dialect.

The dialect is a small XACML-2.0-style subset: ``PolicySet``/``Policy``/
``Rule`` trees with ``Target`` (four clause sections holding ``Match``
elements), ``Condition``/``Apply`` expressions, per-category attribute
selectors, ``Obligations`` and the ``Legislation`` extension element that
lists the legal ``Scope`` ids under which a node applies. docs/
fixture-formats.md freezes the grammar.

Function and combiner identifiers are normalized on parse: any URN prefix
is dropped, functions canonicalize to ``function:<name>`` and combiners to
the bare algorithm name. The legislation scopes may alternatively be
spelled as an environment target clause on ``legislation-location``; those
clauses are lifted into the node's legislation set.
"""

from __future__ import annotations

import datetime as dt

from ..errors import PolicySyntaxError, PolicyTypeError
from ..model import (
    AttributeValue,
    Category,
    ConditionExpr,
    DataType,
    Effect,
    FunctionApplication,
    GeoPoint,
    Literal,
    MatchClause,
    NodeKind,
    Obligation,
    PolicyDocument,
    PolicyNode,
    AttributeSelector,
    Target,
    is_one_field,
    is_wire_text,
)
from .xmlread import XmlNode, XmlWriter, parse_xml

LEGISLATION_ATTRIBUTE_ID = "legislation-location"

_SELECTOR_TAGS = {
    "SubjectAttributeSelector": Category.SUBJECT,
    "ResourceAttributeSelector": Category.RESOURCE,
    "ActionAttributeSelector": Category.ACTION,
    "EnvironmentAttributeSelector": Category.ENVIRONMENT,
}

_SECTION_TAGS = (
    ("Subjects", Category.SUBJECT),
    ("Resources", Category.RESOURCE),
    ("Actions", Category.ACTION),
    ("Environments", Category.ENVIRONMENT),
)

_DATA_TYPE_TOKENS = {
    "string": DataType.STRING,
    "time": DataType.TIME_OF_DAY,
    "time-of-day": DataType.TIME_OF_DAY,
    "date": DataType.DATE,
    "integer": DataType.INTEGER,
    "int": DataType.INTEGER,
    "boolean": DataType.BOOLEAN,
    "geo-point": DataType.GEO_POINT,
    "country-code": DataType.COUNTRY_CODE,
    "identifier": DataType.IDENTIFIER,
}

_DATA_TYPE_LABELS = {
    DataType.STRING: "XMLSchema#string",
    DataType.TIME_OF_DAY: "XMLSchema#time",
    DataType.DATE: "XMLSchema#date",
    DataType.INTEGER: "XMLSchema#integer",
    DataType.BOOLEAN: "XMLSchema#boolean",
    DataType.GEO_POINT: "geo-point",
    DataType.COUNTRY_CODE: "country-code",
    DataType.IDENTIFIER: "identifier",
}


def normalize_function_id(raw: str) -> str:
    """Canonical short form, e.g. urn:...:function:and -> function:and."""
    name = raw.strip()
    marker = "function:"
    idx = name.rfind(marker)
    if idx >= 0:
        return marker + name[idx + len(marker):]
    return marker + name.rsplit(":", 1)[-1]


def normalize_combiner_id(raw: str) -> str:
    """Canonical short form, e.g. rule-combining-algorithm:deny-overrides
    -> deny-overrides."""
    return raw.strip().rsplit(":", 1)[-1]


def normalize_data_type(raw: str, node: XmlNode) -> DataType:
    token = raw.strip().rsplit("#", 1)[-1].rsplit(":", 1)[-1].lower()
    try:
        return _DATA_TYPE_TOKENS[token]
    except KeyError:
        raise PolicySyntaxError(f"unknown data type {raw!r}", node.path(), node.line) from None


def _strip_category_prefix(attribute_id: str, category: Category) -> str:
    prefix = category.value + ":"
    if attribute_id.startswith(prefix):
        return attribute_id[len(prefix):]
    return attribute_id


def parse_time_of_day(text: str) -> dt.time:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"expected HH:MM:SS, got {text!r}")
    hour, minute, second = (int(p) for p in parts)
    # dt.time rejects hour 24+, but report the domain explicitly.
    if not (0 <= hour < 24 and 0 <= minute < 60 and 0 <= second < 60):
        raise ValueError(f"time of day out of [00:00:00, 24:00:00): {text!r}")
    return dt.time(hour, minute, second)


def parse_geo_point(text: str) -> GeoPoint:
    pieces = text.replace(",", " ").split()
    if len(pieces) != 2:
        raise ValueError(f"expected 'lat lon', got {text!r}")
    return GeoPoint(float(pieces[0]), float(pieces[1]))


def parse_typed_value(data_type: DataType, text: str) -> AttributeValue:
    """Build a typed literal; ValueError/TypeError mean the text does not
    inhabit the declared type."""
    raw = text.strip()
    if data_type is DataType.STRING or data_type is DataType.IDENTIFIER:
        value: object = raw
    elif data_type is DataType.TIME_OF_DAY:
        value = parse_time_of_day(raw)
    elif data_type is DataType.DATE:
        value = dt.date.fromisoformat(raw)
    elif data_type is DataType.INTEGER:
        value = int(raw)
    elif data_type is DataType.BOOLEAN:
        if raw not in ("true", "false"):
            raise ValueError(f"boolean must be 'true' or 'false', got {raw!r}")
        value = raw == "true"
    elif data_type is DataType.GEO_POINT:
        value = parse_geo_point(raw)
    elif data_type is DataType.COUNTRY_CODE:
        value = raw
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled data type {data_type}")
    return AttributeValue(data_type, value)


def format_typed_value(value: AttributeValue) -> str:
    payload = value.value
    if value.data_type is DataType.TIME_OF_DAY:
        return payload.strftime("%H:%M:%S")
    if value.data_type is DataType.DATE:
        return payload.isoformat()
    if value.data_type is DataType.BOOLEAN:
        return "true" if payload else "false"
    if value.data_type is DataType.GEO_POINT:
        return f"{payload.lat!r} {payload.lon!r}"
    return str(payload)


def _parse_literal(node: XmlNode) -> AttributeValue:
    data_type = normalize_data_type(node.attrs.get("DataType", "string"), node)
    try:
        return parse_typed_value(data_type, node.text)
    except (ValueError, TypeError) as exc:
        raise PolicyTypeError(
            f"literal {node.text.strip()!r} is not a valid {data_type.value} "
            f"(at {node.path()}, line {node.line}): {exc}"
        ) from exc


def _parse_match(node: XmlNode, category: Category) -> MatchClause:
    attribute_id = node.attrs.get("AttributeId")
    match_id = node.attrs.get("MatchId")
    if not attribute_id or not match_id:
        raise PolicySyntaxError("Match needs AttributeId and MatchId", node.path(), node.line)
    literal_node = node.find("AttributeValue")
    if literal_node is None:
        raise PolicySyntaxError("Match needs an AttributeValue child", node.path(), node.line)
    return MatchClause(
        attribute_id=_strip_category_prefix(attribute_id, category),
        match_function=normalize_function_id(match_id),
        literal=_parse_literal(literal_node),
    )


def _parse_target(node: XmlNode | None) -> tuple[Target, frozenset[str]]:
    """Returns the target plus legislation scopes lifted from environment
    clauses on the legislation-location attribute (alternate spelling)."""
    if node is None:
        return Target(), frozenset()
    if not node.children and node.text.strip() in ("", "..."):
        # An elided target ("...") matches anything.
        return Target(), frozenset()

    sections: dict[Category, list[MatchClause]] = {c: [] for _, c in _SECTION_TAGS}
    lifted: set[str] = set()
    for section_tag, category in _SECTION_TAGS:
        section = node.find(section_tag)
        if section is None:
            continue
        for match in section.findall("Match"):
            clause = _parse_match(match, category)
            if category is Category.ENVIRONMENT and clause.attribute_id == LEGISLATION_ATTRIBUTE_ID:
                lifted.add(str(clause.literal.value))
                continue
            sections[category].append(clause)
    return (
        Target(
            subjects=tuple(sections[Category.SUBJECT]),
            resources=tuple(sections[Category.RESOURCE]),
            actions=tuple(sections[Category.ACTION]),
            environments=tuple(sections[Category.ENVIRONMENT]),
        ),
        frozenset(lifted),
    )


def _parse_expression(node: XmlNode) -> ConditionExpr:
    if node.tag in ("Apply", "Condition"):
        function = node.attrs.get("FunctionId")
        if not function:
            raise PolicySyntaxError(f"{node.tag} needs FunctionId", node.path(), node.line)
        args = tuple(
            _parse_expression(child)
            for child in node.children
        )
        return FunctionApplication(normalize_function_id(function), args)
    if node.tag == "AttributeValue":
        return Literal(_parse_literal(node))
    if node.tag in _SELECTOR_TAGS:
        category = _SELECTOR_TAGS[node.tag]
        attribute_id = node.attrs.get("AttributeId")
        if not attribute_id:
            raise PolicySyntaxError(f"{node.tag} needs AttributeId", node.path(), node.line)
        data_type = normalize_data_type(node.attrs.get("DataType", "string"), node)
        return AttributeSelector(
            category=category,
            attribute_id=_strip_category_prefix(attribute_id, category),
            data_type=data_type,
        )
    raise PolicySyntaxError(f"unexpected element {node.tag!r} in condition", node.path(), node.line)


def _parse_obligations(node: XmlNode | None) -> tuple[Obligation, ...]:
    if node is None:
        return ()
    obligations = []
    for ob_node in node.findall("Obligation"):
        ob_id = ob_node.attrs.get("ObligationId")
        fulfill_on = ob_node.attrs.get("FulfillOn")
        if not ob_id or fulfill_on not in ("Permit", "Deny"):
            raise PolicySyntaxError(
                "Obligation needs ObligationId and FulfillOn of Permit or Deny",
                ob_node.path(),
                ob_node.line,
            )
        # An obligation travels on one wire line, `obligation <id> <effect>`.
        if not is_one_field(ob_id):
            raise PolicySyntaxError(
                "ObligationId must not contain whitespace or a line break", ob_node.path(), ob_node.line
            )
        # A parameter travels on one wire line, `param <name> <type> <value>`.
        params = []
        for assign in ob_node.findall("AttributeAssignment"):
            name = assign.attrs.get("AttributeId")
            if not name or not is_one_field(name):
                raise PolicySyntaxError(
                    "AttributeAssignment needs an AttributeId without whitespace",
                    assign.path(),
                    assign.line,
                )
            value = _parse_literal(assign)
            if isinstance(value.value, str) and not is_wire_text(value.value):
                raise PolicySyntaxError(
                    "an obligation parameter must be one line of UTF-8, without line breaks",
                    assign.path(),
                    assign.line,
                )
            params.append((name, value))
        obligations.append(Obligation(ob_id, Effect(fulfill_on), tuple(params)))
    return tuple(obligations)


def _parse_legislation(node: XmlNode | None) -> frozenset[str]:
    if node is None:
        return frozenset()
    scopes = frozenset(scope.text.strip() for scope in node.findall("Scope") if scope.text.strip())
    if not scopes:
        raise PolicySyntaxError("Legislation needs at least one Scope", node.path(), node.line)
    return scopes


def _check_node_id(attribute: str, node_id: str, node: XmlNode) -> None:
    # A node id travels as one field of a `trace <node> <decision> <reason>`
    # wire line.
    if not is_one_field(node_id):
        raise PolicySyntaxError(
            f"{attribute} must not contain whitespace or a line break", node.path(), node.line
        )


def _parse_rule(node: XmlNode) -> PolicyNode:
    rule_id = node.attrs.get("RuleId")
    effect = node.attrs.get("Effect")
    if not rule_id or effect not in ("Permit", "Deny"):
        raise PolicySyntaxError(
            "Rule needs RuleId and Effect of Permit or Deny", node.path(), node.line
        )
    _check_node_id("RuleId", rule_id, node)
    target, lifted = _parse_target(node.find("Target"))
    condition_node = node.find("Condition")
    condition = _parse_expression(condition_node) if condition_node is not None else None
    scopes = _parse_legislation(node.find("Legislation")) | lifted
    # Nested rules are malformed but parse anyway so validate_document can
    # report them as rule-has-children instead of a bare syntax error.
    children = tuple(_parse_rule(child) for child in node.findall("Rule"))
    return PolicyNode(
        id=rule_id,
        kind=NodeKind.RULE,
        target=target,
        effect=Effect(effect),
        condition=condition,
        children=children,
        obligations=_parse_obligations(node.find("Obligations")),
        legislation=scopes or None,
    )


def _parse_container(node: XmlNode) -> PolicyNode:
    if node.tag == "Policy":
        node_id = node.attrs.get("PolicyId")
        combining_raw = node.attrs.get("RuleCombiningAlgId")
        kind = NodeKind.POLICY
        for child in node.children:
            if child.tag in ("Policy", "PolicySet"):
                raise PolicySyntaxError(
                    "a Policy may contain only Rules", child.path(), child.line
                )
        child_nodes = [_parse_rule(child) for child in node.findall("Rule")]
    elif node.tag == "PolicySet":
        node_id = node.attrs.get("PolicySetId")
        combining_raw = node.attrs.get("PolicyCombiningAlgId")
        kind = NodeKind.POLICY_SET
        child_nodes = [
            _parse_container(child)
            for child in node.children
            if child.tag in ("Policy", "PolicySet")
        ]
    else:
        raise PolicySyntaxError(f"unexpected element {node.tag!r}", node.path(), node.line)
    if not node_id:
        raise PolicySyntaxError(f"{node.tag} is missing its id attribute", node.path(), node.line)
    _check_node_id(f"{node.tag}Id", node_id, node)
    if not combining_raw:
        raise PolicySyntaxError(
            f"{node.tag} is missing its combining algorithm", node.path(), node.line
        )
    target, lifted = _parse_target(node.find("Target"))
    scopes = _parse_legislation(node.find("Legislation")) | lifted
    return PolicyNode(
        id=node_id,
        kind=kind,
        target=target,
        combining=normalize_combiner_id(combining_raw),
        children=tuple(child_nodes),
        obligations=_parse_obligations(node.find("Obligations")),
        legislation=scopes or None,
    )


def parse_policy_document(data: bytes | str, source_name: str = "<memory>") -> PolicyDocument:
    """Parse one policy or policy set document; no partial results."""
    root = parse_xml(data)
    return PolicyDocument(root=_parse_container(root), source_name=source_name)


def _write_target(writer: XmlWriter, target: Target) -> None:
    if target.is_match_any():
        writer.leaf("Target")
        return
    writer.open("Target")
    for section_tag, category in _SECTION_TAGS:
        clauses = getattr(target, section_tag.lower())
        if not clauses:
            continue
        writer.open(section_tag)
        for clause in clauses:
            writer.open(
                "Match",
                AttributeId=clause.attribute_id,
                MatchId=clause.match_function,
            )
            writer.leaf(
                "AttributeValue",
                format_typed_value(clause.literal),
                DataType=_DATA_TYPE_LABELS[clause.literal.data_type],
            )
            writer.close("Match")
        writer.close(section_tag)
    writer.close("Target")


def _write_expression(writer: XmlWriter, expr: ConditionExpr, tag: str = "Apply") -> None:
    if isinstance(expr, FunctionApplication):
        writer.open(tag, FunctionId=expr.function)
        for arg in expr.args:
            _write_expression(writer, arg)
        writer.close(tag)
    elif isinstance(expr, Literal):
        writer.leaf(
            "AttributeValue",
            format_typed_value(expr.value),
            DataType=_DATA_TYPE_LABELS[expr.value.data_type],
        )
    else:
        selector_tag = {v: k for k, v in _SELECTOR_TAGS.items()}[expr.category]
        writer.leaf(
            selector_tag,
            DataType=_DATA_TYPE_LABELS[expr.data_type],
            AttributeId=f"{expr.category.value}:{expr.attribute_id}",
        )


def _write_obligations(writer: XmlWriter, obligations: tuple[Obligation, ...]) -> None:
    if not obligations:
        return
    writer.open("Obligations")
    for ob in obligations:
        writer.open("Obligation", ObligationId=ob.id, FulfillOn=ob.fulfill_on.value)
        for name, value in ob.parameters:
            writer.leaf(
                "AttributeAssignment",
                format_typed_value(value),
                AttributeId=name,
                DataType=_DATA_TYPE_LABELS[value.data_type],
            )
        writer.close("Obligation")
    writer.close("Obligations")


def _write_legislation(writer: XmlWriter, scopes: frozenset[str] | None) -> None:
    if not scopes:
        return
    writer.open("Legislation")
    for scope in sorted(scopes):
        writer.leaf("Scope", scope)
    writer.close("Legislation")


def _write_node(writer: XmlWriter, node: PolicyNode) -> None:
    if node.kind is NodeKind.RULE:
        writer.open("Rule", RuleId=node.id, Effect=node.effect.value)
        _write_target(writer, node.target)
        _write_legislation(writer, node.legislation)
        if node.condition is not None:
            _write_expression(writer, node.condition, tag="Condition")
        _write_obligations(writer, node.obligations)
        writer.close("Rule")
        return
    if node.kind is NodeKind.POLICY:
        writer.open("Policy", PolicyId=node.id, RuleCombiningAlgId=node.combining)
    else:
        writer.open("PolicySet", PolicySetId=node.id, PolicyCombiningAlgId=node.combining)
    _write_target(writer, node.target)
    _write_legislation(writer, node.legislation)
    for child in node.children:
        _write_node(writer, child)
    _write_obligations(writer, node.obligations)
    writer.close("Policy" if node.kind is NodeKind.POLICY else "PolicySet")


def serialize_policy_document(doc: PolicyDocument) -> bytes:
    writer = XmlWriter()
    _write_node(writer, doc.root)
    return writer.render().encode("utf-8")
