"""The reserved-attribute table: what is derived from it, the docs list, and
the context build it describes."""

import re
from enum import EnumMeta

from conftest import REPO, make_bundle, wire_request
from lexgate import engine as engine_module
from lexgate.context.attributes import BY_KEY, RESERVED_ATTRIBUTES
from lexgate.context.diary import TaskAssessment
from lexgate.context.identity import IdentityKind, Relationship
from lexgate.context.resources import TRUSTED_IDS
from lexgate.engine import PolicyDecisionPoint
from lexgate.model import Category, DataType
from lexgate.parsing.location_xml import ZoneKind
from lexgate.parsing.wire import parse_request

ENV, SUBJECT, RESOURCE = Category.ENVIRONMENT, Category.SUBJECT, Category.RESOURCE


def test_the_derived_sets_equal_the_lists_they_replace():
    assert len(BY_KEY) == len(RESERVED_ATTRIBUTES) == 12
    assert engine_module.RESERVED == {
        (ENV, "current-time"), (ENV, "current-date"), (ENV, "current-zone"), (ENV, "source-country"),
        (ENV, "destination-country"), (ENV, "task-status"), (SUBJECT, "kind"), (SUBJECT, "relationship"),
        (RESOURCE, "confidential"), (RESOURCE, "customer-related"), (RESOURCE, "host-country"),
        (RESOURCE, "category"),
    }
    assert engine_module.PER_EVALUATION == {
        (ENV, "current-time"), (ENV, "current-date"), (ENV, "current-zone"), (ENV, "source-country"),
        (ENV, "task-status"), (SUBJECT, "relationship"),
    }
    # In the order the catalog zips with each record's values.
    assert TRUSTED_IDS == (
        ("confidential", DataType.BOOLEAN), ("customer-related", DataType.BOOLEAN),
        ("host-country", DataType.COUNTRY_CODE), ("category", DataType.STRING),
    )
    enums = (ZoneKind, IdentityKind, Relationship, TaskAssessment)
    assert set(engine_module._MEMBER_BAGS) == {member for enum in enums for member in enum}


def _docs_rows() -> list[list[str]]:
    """The rows of the reserved-id table in docs/wire-format.md, each cell
    without its backticks."""
    text = (REPO / "docs" / "wire-format.md").read_text()
    section = text[text.index("### Reserved attribute ids"):]
    section = section[:section.index("\n#")]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]  # past the head and rule
    return [[cell.strip().replace("`", "") for cell in row.strip("|").split("|")] for row in rows]


def _values(domain) -> str:
    if isinstance(domain, EnumMeta):
        return ", ".join(member.value for member in domain)
    return "false, true" if domain is bool else "open"


def test_the_wire_format_lists_the_table():
    assert _docs_rows() == [
        [row.category.value, row.id, row.data_type.value, row.supplier.value,
         "evaluation" if row.per_evaluation else "request", _values(row.domain)]
        for row in RESERVED_ATTRIBUTES
    ]


def test_the_build_gives_each_reserved_id_its_declared_type_and_values():
    engine, pips = PolicyDecisionPoint(), make_bundle("2026-03-10T12:45:00Z")
    request = parse_request(wire_request(resource="cust/4711/portfolio", point="47.36 8.53"))
    facts = engine.facts(request, pips)
    # The facts fix every reserved bag that is not set per evaluation: the
    # record has every resource value, the registry holds the subject, and
    # the destination is the record's host.
    assert {key for key, _bag in facts.bags} == engine_module.RESERVED - engine_module.PER_EVALUATION
    ctx = engine._build_context(facts, pips)
    assert set(ctx._cache) == engine_module.RESERVED
    for key, bag in ctx._cache.items():
        row = BY_KEY[key]
        (value,) = bag
        assert value.data_type is row.data_type, key
        if isinstance(row.domain, EnumMeta):
            assert row.domain(value.value), key
        elif row.domain is bool:
            assert value.value in (False, True), key
