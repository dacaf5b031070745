"""Resource catalogue: hosting country, confidentiality and content.

Backs destination-country resolution and the data views the enforcement
point serves; real deployments would replace this with a document store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..model import AttributeValue, Category, DataType
from .attributes import RESERVED_ATTRIBUTES

# The reserved resource attribute ids the catalog supplies, with their data
# types, in the order of the values `ResourceCatalog` zips with them.
TRUSTED_IDS = tuple((row.id, row.data_type) for row in RESERVED_ATTRIBUTES if row.category is Category.RESOURCE)


@dataclass(frozen=True)
class ResourceRecord:
    id: str
    host_country: str
    confidential: bool = False
    customer_related: bool = False
    customers: frozenset[str] = frozenset()
    category: str = ""
    content: str = ""


class ResourceCatalog:
    """The records by id, each with its trusted attributes as the (key,
    bag) pairs of `TRUSTED_IDS`, built here once; category only when the
    record has one. Records with equal values share one tuple of pairs,
    and equal values one bag."""

    def __init__(self, records: Iterable[ResourceRecord], default_host: Optional[str] = None):
        self.default_host = default_host
        self._records: dict[str, tuple[ResourceRecord, tuple]] = {}
        bags, shared = {}, {}
        for record in records:
            values = record.confidential, record.customer_related, record.host_country, record.category
            pairs = shared.get(values)
            if pairs is None:
                pairs = shared[values] = tuple(
                    ((Category.RESOURCE, attribute_id),
                     bags.setdefault((data_type, value), (AttributeValue._trusted(data_type, value),)))
                    for (attribute_id, data_type), value in zip(TRUSTED_IDS, values)
                    if value or data_type is not DataType.STRING  # a category only when set
                )
            self._records[record.id] = record, pairs

    def lookup(self, resource_id: Optional[str]) -> tuple[Optional[ResourceRecord], tuple]:
        """The record of a resource id with its trusted pairs; (None, ())
        when there is no id or the catalog holds none by it."""
        return self._records.get(resource_id, (None, ())) if resource_id else (None, ())
