"""The reserved attributes: the one declaration of the attribute ids that
only trusted suppliers fill.

Every row names a (category, id) key, the data type its supplier gives,
the supplier, whether the request's facts fix the value or the context
build sets it per evaluation, and the values the supplier can give.
`RESERVED` (the keys no request line fills) and `PER_EVALUATION` are
derived here for the engine, which also builds its enum bags from the
rows; the resource catalog takes its trusted ids from them, and
`model.validate_document` reports a policy read that no supplied value
can satisfy. docs/wire-format.md lists the same ids, and a test keeps the
two in step.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from ..model import Category, DataType
from ..parsing.location_xml import ZoneKind
from .diary import TaskAssessment
from .identity import IdentityKind, Relationship


class Supplier(Enum):
    CLOCK = "clock"
    ZONE_TREE = "zone tree"
    CATALOG = "catalog"
    IDENTITY_REGISTRY = "identity registry"
    DIARY = "diary"


class ReservedAttribute(NamedTuple):
    category: Category
    id: str
    data_type: DataType
    supplier: Supplier
    # True when the context build sets the value per evaluation, from the
    # instant or a supplier; False when the request's facts fix it.
    per_evaluation: bool
    # The values the supplier can give: an enum, whose members' values are
    # the strings; bool; or None, when open (times, dates, and the country
    # codes and categories, which are known only once the stores load).
    domain: Optional[type]

    @property
    def key(self) -> tuple[Category, str]:
        return self.category, self.id


_ENV, _SUBJECT, _RESOURCE = Category.ENVIRONMENT, Category.SUBJECT, Category.RESOURCE

# The resource rows are in the order `resources.ResourceCatalog` zips with
# each record's values. The destination is the resource's host in the
# catalog, unless the request's `destination-country` line names one.
RESERVED_ATTRIBUTES = (
    ReservedAttribute(_ENV, "current-time", DataType.TIME_OF_DAY, Supplier.CLOCK, True, None),
    ReservedAttribute(_ENV, "current-date", DataType.DATE, Supplier.CLOCK, True, None),
    ReservedAttribute(_ENV, "current-zone", DataType.STRING, Supplier.ZONE_TREE, True, ZoneKind),
    ReservedAttribute(_ENV, "source-country", DataType.COUNTRY_CODE, Supplier.ZONE_TREE, True, None),
    ReservedAttribute(_ENV, "destination-country", DataType.COUNTRY_CODE, Supplier.CATALOG, False, None),
    ReservedAttribute(_ENV, "task-status", DataType.STRING, Supplier.DIARY, True, TaskAssessment),
    ReservedAttribute(_SUBJECT, "kind", DataType.STRING, Supplier.IDENTITY_REGISTRY, False, IdentityKind),
    ReservedAttribute(_SUBJECT, "relationship", DataType.STRING, Supplier.IDENTITY_REGISTRY, True, Relationship),
    ReservedAttribute(_RESOURCE, "confidential", DataType.BOOLEAN, Supplier.CATALOG, False, bool),
    ReservedAttribute(_RESOURCE, "customer-related", DataType.BOOLEAN, Supplier.CATALOG, False, bool),
    ReservedAttribute(_RESOURCE, "host-country", DataType.COUNTRY_CODE, Supplier.CATALOG, False, None),
    ReservedAttribute(_RESOURCE, "category", DataType.STRING, Supplier.CATALOG, False, None),
)

# The rows by (category, id), the key of every bag lookup.
BY_KEY = {row.key: row for row in RESERVED_ATTRIBUTES}

# Every reserved key: the context build alone sets it, and one it leaves
# unset is absent.
RESERVED = frozenset(BY_KEY)

# The keys the build sets per evaluation; every other bag, the request's
# own and those its facts fix, is the same for every evaluation of one
# request.
PER_EVALUATION = frozenset(row.key for row in RESERVED_ATTRIBUTES if row.per_evaluation)
