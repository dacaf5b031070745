"""Identity registry: users, customers, delegations and proximity checks.

Consultants serve one assigned customer at a time; serving several at once
requires explicit delegations bounded by a time range. Customer presence
is evidenced by a proximity token (code card subset, hardware token or a
phone-entered code) that only proves logical proximity, never a physical
position. The registry keeps the set of customer ids, built when it loads.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from ..errors import FixtureError, UnknownCustomerError
from ..model import GeoPoint

# How long a proximity verification stays evidence of presence.
FRESHNESS = dt.timedelta(minutes=15)

TOKEN_METHODS = ("code-card-subset", "hardware-token", "phone-code")


class IdentityKind(Enum):
    CONSULTANT = "consultant"
    CUSTOMER = "customer"
    SUPPLIER = "supplier"
    SUPERVISOR = "supervisor"

    # Identity hashing, as for Category, for the engine's bags keyed on members.
    __hash__ = object.__hash__


class Relationship(Enum):
    ONE_TO_ONE = "one-to-one"
    ONE_TO_ONE_TO_N = "one-to-one-to-n"
    UNAUTHORIZED = "unauthorized"

    # Identity hashing, as for Category, for the engine's bags keyed on members.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Delegation:
    consultant: str
    customers: frozenset[str]
    start: dt.datetime
    end: dt.datetime

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("delegation time range is empty")

    def covers(self, customer: str, at: dt.datetime) -> bool:
        return customer in self.customers and self.start <= at <= self.end


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    kind: IdentityKind
    credentials: str = ""  # login secret for staff, stored verifier for customers
    assigned_customers: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class ProximityToken:
    customer: str
    verified_at: dt.datetime
    method: str

    def __post_init__(self) -> None:
        if self.method not in TOKEN_METHODS:
            raise ValueError(f"unknown proximity method {self.method!r}")

    @classmethod
    def _checked(cls, customer: str, verified_at: dt.datetime, method: str) -> "ProximityToken":
        """A token whose method the caller has checked to be one of
        `TOKEN_METHODS`, built without checking it again."""
        made = object.__new__(cls)
        setattr = object.__setattr__
        setattr(made, "customer", customer)
        setattr(made, "verified_at", verified_at)
        setattr(made, "method", method)
        return made


class IdentityRegistry:
    """The identities by id. `customers`, the ids of the customer
    records, is built when the registry loads, so a diary check tells the
    customers among a task's participants with one set intersection."""

    def __init__(
        self,
        records: Iterable[IdentityRecord],
        delegations: Iterable[Delegation] = (),
        device_positions: Optional[dict[str, GeoPoint]] = None,
    ):
        self._records = {record.id: record for record in records}
        self.customers = frozenset(
            record.id for record in self._records.values() if record.kind is IdentityKind.CUSTOMER
        )
        self._delegations = tuple(delegations)
        self._device_positions = dict(device_positions or {})
        for record in self._records.values():
            for customer in record.assigned_customers:
                if customer not in self._records:
                    raise FixtureError(
                        f"{record.id!r} is assigned unknown customer {customer!r}"
                    )
        for delegation in self._delegations:
            if delegation.consultant not in self._records:
                raise FixtureError(
                    f"delegation names unknown consultant {delegation.consultant!r}"
                )

    def get(self, identity_id: str) -> Optional[IdentityRecord]:
        return self._records.get(identity_id)

    def kind_of(self, identity_id: str) -> Optional[IdentityKind]:
        record = self._records.get(identity_id)
        return record.kind if record else None

    def authenticate(self, user: str, secret: str) -> bool:
        record = self._records.get(user)
        if record is None or record.kind is IdentityKind.CUSTOMER:
            return False
        return bool(record.credentials) and record.credentials == secret

    def verify_customer(self, customer: str, evidence: ProximityToken, now: dt.datetime) -> bool:
        """True iff the token names this customer, the stored verifier
        exists and the verification is still fresh."""
        record = self._records.get(customer)
        if record is None or record.kind is not IdentityKind.CUSTOMER:
            raise UnknownCustomerError(f"unknown customer {customer!r}")
        if evidence.customer != customer:
            return False
        if not record.credentials:
            return False
        age = now - evidence.verified_at
        return dt.timedelta(0) <= age <= FRESHNESS

    def verified_customers(
        self, tokens: Iterable[ProximityToken], now: dt.datetime
    ) -> frozenset[str]:
        """Customers with at least one fresh, valid token; unknown customer
        ids in tokens are ignored here (they verify as nothing)."""
        verified = set()
        for token in tokens:
            try:
                if self.verify_customer(token.customer, token, now):
                    verified.add(token.customer)
            except UnknownCustomerError:
                continue
        return frozenset(verified)

    def check_relationship(
        self, consultant: str, customers: frozenset[str], at: dt.datetime
    ) -> Relationship:
        """Classify the consultant/customer constellation at an instant."""
        record = self._records.get(consultant)
        if record is None or not customers:
            return Relationship.UNAUTHORIZED
        if len(customers) == 1 and next(iter(customers)) in record.assigned_customers:
            return Relationship.ONE_TO_ONE

        def covered(customer: str) -> bool:
            if customer in record.assigned_customers:
                return True
            return any(
                d.consultant == consultant and d.covers(customer, at)
                for d in self._delegations
            )

        if all(covered(customer) for customer in customers):
            return Relationship.ONE_TO_ONE_TO_N
        return Relationship.UNAUTHORIZED

    def device_position(self, user: str) -> Optional[GeoPoint]:
        return self._device_positions.get(user)
