import dataclasses
import datetime as dt
import importlib.util
from pathlib import Path

import pytest

from lexgate.cli import default_fixtures_root, load_policy_dir
from lexgate.context.bundle import LocationSupplier, PipBundle, load_bundle
from lexgate.context.clock import FixedClock
from lexgate import engine as engine_module
from lexgate.engine import PolicyDecisionPoint
from lexgate.instant import parse_instant

FIXTURES = default_fixtures_root()
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def fixtures_root() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def policy_pack():
    return load_policy_dir(FIXTURES / "policies")


@pytest.fixture(scope="session")
def bench():
    """perfbench/run.py, the benchmark harness, as a module."""
    # run.py resolves the checkout from the working directory at import.
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO)
        spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def engine() -> PolicyDecisionPoint:
    return PolicyDecisionPoint()


class CountingLocationSupplier:
    """Wraps the location supplier to assert the no-tracking invariant."""

    def __init__(self, inner: LocationSupplier):
        self.inner = inner
        self.calls = 0

    def locate(self, request):
        self.calls += 1
        return self.inner.locate(request)


def make_bundle(at: str | dt.datetime, count_locates: bool = False) -> PipBundle:
    instant = parse_instant(at) if isinstance(at, str) else at
    bundle = load_bundle(FIXTURES, clock=FixedClock(instant))
    if count_locates:
        bundle = dataclasses.replace(bundle, location=CountingLocationSupplier(bundle.location))
    return bundle


# The event flow of a permitted request with customer data and an
# obligation, as the components the monitor and its engine call see it.
EVENT_FLOW = (
    "identities.authenticate",
    "location.locate",
    "identities.check_relationship",
    "diary.check_task",
    "scopes.select_legislation",
    "combiners.combine",
    "obligations.apply_all",
    "audit.append",
)


def watch(monkeypatch, monitor, steps=EVENT_FLOW) -> list[str]:
    """Wrap the methods `steps` names ("component.method") on the
    instances the monitor uses, so that each call appends its step to the
    returned list. Components: the bundle's suppliers, the engine, the
    obligation service and the audit log; "combiners" is the engine
    module, whose `combine` combines the forest's decisions."""
    owners = {
        "identities": monitor.pips.identities,
        "location": monitor.pips.location,
        "diary": monitor.pips.diary,
        "scopes": monitor.pips.scopes,
        "engine": monitor.engine,
        "combiners": engine_module,
        "obligations": monitor.obligations,
        "audit": monitor.audit,
    }
    calls: list[str] = []

    def recording(step, method):
        def recorded(*args, **kwargs):
            calls.append(step)
            return method(*args, **kwargs)

        return recorded

    for step in steps:
        owner, name = step.split(".")
        instance = owners[owner]
        monkeypatch.setattr(instance, name, recording(step, getattr(instance, name)))
    return calls


def wire_request(
    subject: str = "c.miller",
    resource: str = "products/overview",
    action: str = "read",
    point: str = "51.507861 -0.099349",
    tokens: tuple[str, ...] = (),
    token_at: str = "",
    extra_lines: tuple[str, ...] = (),
) -> bytes:
    lines = [
        "request",
        f"subject user-id identifier {subject}",
        f"resource resource-id string {resource}",
        f"action action-id string {action}",
    ]
    if point:
        lines.append(f"environment current-position geo-point {point}")
    for customer in tokens:
        lines.append(
            f"environment proximity-token string {customer}|code-card-subset|{token_at}"
        )
    lines.extend(extra_lines)
    lines.append("end")
    return ("\n".join(lines) + "\n").encode()
