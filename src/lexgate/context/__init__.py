from .bundle import LocationSupplier, PipBundle, load_bundle, organization_home
from .clock import Clock, FixedClock, SystemClock, local_time
from .diary import DiaryEntry, DiaryStore, ExpectedLocation, TaskAssessment, TimeRange
from .identity import (
    Delegation,
    IdentityKind,
    IdentityRecord,
    IdentityRegistry,
    ProximityToken,
    Relationship,
)
from .legal import LegalScope, LegalScopeRegistry
from .resources import ResourceCatalog, ResourceRecord
from .zones import Place, RestrictedArea, TerritoryNode, ZoneTree, load_zone_tree, resolve_location

__all__ = [
    "Clock",
    "Delegation",
    "DiaryEntry",
    "DiaryStore",
    "ExpectedLocation",
    "FixedClock",
    "IdentityKind",
    "IdentityRecord",
    "IdentityRegistry",
    "LegalScope",
    "LegalScopeRegistry",
    "LocationSupplier",
    "PipBundle",
    "Place",
    "ProximityToken",
    "Relationship",
    "ResourceCatalog",
    "ResourceRecord",
    "RestrictedArea",
    "SystemClock",
    "TaskAssessment",
    "TerritoryNode",
    "TimeRange",
    "ZoneTree",
    "load_bundle",
    "load_zone_tree",
    "local_time",
    "organization_home",
    "resolve_location",
]
