"""Wiring of the context suppliers handed to the decision engine.

The bundle is assembled once (per process or per CLI invocation) from
immutable fixture stores and is itself frozen: it holds no per-request
state, so a decision depends only on the request and the snapshot the
engine takes of these suppliers. The location supplier's memo keeps only
what the immutable zone tree makes of a position, never who stood there
or when.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import FixtureError, LocationUnavailableError
from ..model import Category, DataType, Memo
from ..parsing.location_xml import LocationReport
from ..parsing.wire import CURRENT_POSITION, RequestContext
from .clock import Clock, SystemClock
from .diary import DiaryStore
from .identity import IdentityRegistry
from .legal import LegalScopeRegistry
from .loader import load_diary, load_identities, load_resources, load_scopes
from .resources import ResourceCatalog
from .zones import ZoneTree, load_zone_tree, resolve_location

POSITION_ACCURACY = "position-accuracy"

# The location memo's key: the bytes of the three floats, so that -0.0 and
# 0.0 (equal as floats, and as GeoPoints) are told apart and a hit keeps
# the sign a fresh resolution would report.
_POSITION = struct.Struct("3d")


class LocationSupplier:
    """The single channel that produces one location snapshot per request.

    Resolution order: the request's raw geo-point environment attribute,
    else the device position registered for the requesting subject. Raw
    points are classified through the zone tree. A report embedded in the
    request is taken by the engine itself, which then does not ask the
    supplier.

    The classification is a pure function of the position, the accuracy
    radius and the immutable tree, so each supplier keeps the
    `LocationReport` of distinct (position, radius) pairs in a memo
    (`model.Memo`) and answers a pair it has kept without a polygon test.
    The memo admits a pair at its second sighting: its doorkeeper holds
    the hash of a pair seen once. The key holds no subject and no time:
    the memo records where requests were placed, not who moved where. A
    position that raises (PrecisionError, UnknownTerritoryError) is not
    kept and raises afresh each time. The supplier is still asked once
    per request.
    """

    def __init__(self, zones: ZoneTree, identities: IdentityRegistry):
        self._zones = zones
        self._identities = identities
        self._reports = Memo(256, doorkeeper=True)

    def locate(self, request: RequestContext) -> LocationReport:
        accuracy = 0.0
        accuracy_value = request.first(Category.ENVIRONMENT, POSITION_ACCURACY)
        if accuracy_value is not None and accuracy_value.data_type is DataType.INTEGER:
            try:
                accuracy = float(accuracy_value.value)
            except OverflowError:  # more digits than a float holds
                raise ValueError(f"{POSITION_ACCURACY} is out of range") from None

        point_value = request.first(Category.ENVIRONMENT, CURRENT_POSITION)
        if point_value is not None and point_value.data_type is DataType.GEO_POINT:
            point = point_value.value
        else:
            subject = request.subject_id()
            point = self._identities.device_position(subject) if subject else None
            if point is None:
                raise LocationUnavailableError(
                    f"no position source for subject {subject!r}"
                )

        key = _POSITION.pack(point.lat, point.lon, accuracy)
        report = self._reports.get(key)
        if report is None:
            report = self._reports.put(key, resolve_location(point, accuracy, self._zones))
        return report


@dataclass(frozen=True)
class PipBundle:
    """Everything the engine consults besides the policy store."""

    zones: ZoneTree
    clock: Clock
    location: LocationSupplier
    identities: IdentityRegistry
    diary: DiaryStore
    scopes: LegalScopeRegistry
    resources: ResourceCatalog


def organization_home(scopes: LegalScopeRegistry) -> Optional[str]:
    """The sovereign state the organization scope is a member of."""
    if scopes.organization is None:
        return None
    org = scopes.get(scopes.organization)
    states = sorted(
        parent for parent in org.parent_memberships
        if scopes.get(parent).kind == "sovereign-state"
    )
    return states[0] if states else None


# Store name -> standard file name under a fixtures root.
STORE_FILES = {
    "zones": "zones.xml",
    "identities": "identities.txt",
    "diary": "diary.txt",
    "scopes": "scopes.txt",
    "resources": "resources.txt",
}


def load_bundle(
    root: Path, clock: Optional[Clock] = None, stores: Optional[dict[str, str]] = None
) -> PipBundle:
    """Assemble a bundle from a fixtures directory. `stores` maps a store
    name of STORE_FILES to a path, relative to root, that replaces the
    store's standard file name."""
    root = Path(root)
    names = {store: (stores or {}).get(store, name) for store, name in STORE_FILES.items()}
    for name in names.values():
        if not (root / name).exists():
            raise FixtureError(f"fixtures root {root} is missing {name}")
    zones = load_zone_tree((root / names["zones"]).read_bytes())
    identities = load_identities(root / names["identities"])
    scopes = load_scopes(root / names["scopes"])
    home = organization_home(scopes)
    diary = load_diary(root / names["diary"], home_country=home)
    resources = load_resources(root / names["resources"], default_host=home)
    return PipBundle(
        zones=zones,
        clock=clock or SystemClock(),
        location=LocationSupplier(zones, identities),
        identities=identities,
        diary=diary,
        scopes=scopes,
        resources=resources,
    )
