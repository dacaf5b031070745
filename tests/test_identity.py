import datetime as dt

import pytest

from lexgate.context.identity import (
    Delegation,
    IdentityKind,
    IdentityRecord,
    IdentityRegistry,
    ProximityToken,
    Relationship,
)
from lexgate.context.loader import load_identities
from lexgate.errors import UnknownCustomerError

NOW = dt.datetime(2026, 3, 10, 14, 0, tzinfo=dt.timezone.utc)


@pytest.fixture(scope="module")
def registry(fixtures_root):
    return load_identities(fixtures_root / "identities.txt")


def _token(customer: str, minutes_ago: int) -> ProximityToken:
    return ProximityToken(
        customer=customer,
        verified_at=NOW - dt.timedelta(minutes=minutes_ago),
        method="code-card-subset",
    )


def test_fresh_valid_token_verifies(registry):
    assert registry.verify_customer("cust:4711", _token("cust:4711", 2), NOW) is True


def test_stale_token_fails(registry):
    assert registry.verify_customer("cust:4711", _token("cust:4711", 20), NOW) is False


def test_token_for_a_different_customer_fails(registry):
    assert registry.verify_customer("cust:4712", _token("cust:4711", 2), NOW) is False


def test_unknown_customer_raises(registry):
    with pytest.raises(UnknownCustomerError):
        registry.verify_customer("cust:9999", _token("cust:9999", 1), NOW)


def test_future_dated_token_fails(registry):
    assert registry.verify_customer("cust:4711", _token("cust:4711", -5), NOW) is False


def test_token_method_domain():
    with pytest.raises(ValueError):
        ProximityToken("cust:4711", NOW, "carrier-pigeon")


def test_a_proximity_token_has_slots_and_no_instance_dict():
    token = ProximityToken("cust:4711", NOW, "phone-code")
    assert not hasattr(token, "__dict__")
    assert ProximityToken.__slots__ == ("customer", "verified_at", "method")
    with pytest.raises(AttributeError):
        token.customer = "cust:0815"


def test_assigned_customer_is_one_to_one(registry):
    assert (
        registry.check_relationship("c.miller", frozenset({"cust:4711"}), NOW)
        is Relationship.ONE_TO_ONE
    )


def test_delegation_covers_one_to_one_to_n(registry):
    # cust:4720 is a.chen's customer; the March delegation lets c.miller relay.
    result = registry.check_relationship("c.miller", frozenset({"cust:4711", "cust:4720"}), NOW)
    assert result is Relationship.ONE_TO_ONE_TO_N


def test_delegation_outside_its_time_range_does_not_cover(registry):
    april = dt.datetime(2026, 4, 2, 9, 0, tzinfo=dt.timezone.utc)
    result = registry.check_relationship("c.miller", frozenset({"cust:4711", "cust:4720"}), april)
    assert result is Relationship.UNAUTHORIZED


def test_no_assignment_or_delegation_is_unauthorized(registry):
    assert (
        registry.check_relationship("a.chen", frozenset({"cust:4711"}), NOW)
        is Relationship.UNAUTHORIZED
    )


def test_empty_customer_set_is_unauthorized(registry):
    assert registry.check_relationship("c.miller", frozenset(), NOW) is Relationship.UNAUTHORIZED


def test_one_to_one_to_n_requires_an_explicit_delegation():
    records = [
        IdentityRecord("c1", IdentityKind.CONSULTANT, "pw", frozenset({"k1"})),
        IdentityRecord("k1", IdentityKind.CUSTOMER, "v1"),
        IdentityRecord("k2", IdentityKind.CUSTOMER, "v2"),
    ]
    bare = IdentityRegistry(records)
    assert bare.check_relationship("c1", frozenset({"k1", "k2"}), NOW) is Relationship.UNAUTHORIZED
    delegated = IdentityRegistry(
        records,
        [Delegation("c1", frozenset({"k2"}), NOW - dt.timedelta(days=1), NOW + dt.timedelta(days=1))],
    )
    assert (
        delegated.check_relationship("c1", frozenset({"k1", "k2"}), NOW)
        is Relationship.ONE_TO_ONE_TO_N
    )


def test_authentication_against_fixture_secrets(registry):
    assert registry.authenticate("c.miller", "miller-pass-1") is True
    assert registry.authenticate("c.miller", "wrong") is False
    assert registry.authenticate("ghost", "pw") is False
    # customers never log in with their proximity verifier
    assert registry.authenticate("cust:4711", "card-4711") is False


def test_device_positions_load(registry):
    assert registry.device_position("c.miller") is not None
    assert registry.device_position("s.boss") is None


def test_a_token_for_a_customer_with_no_stored_verifier_fails():
    # The token names the customer and is fresh, but the registry holds no
    # verifier to check it against, so it proves no presence.
    registry = IdentityRegistry([
        IdentityRecord("cust:1", IdentityKind.CUSTOMER, "verifier"),
        IdentityRecord("cust:2", IdentityKind.CUSTOMER),
    ])
    assert registry.verify_customer("cust:1", _token("cust:1", 2), NOW) is True
    assert registry.verify_customer("cust:2", _token("cust:2", 2), NOW) is False
    assert registry.verified_customers([_token("cust:1", 2), _token("cust:2", 2)], NOW) == {"cust:1"}
