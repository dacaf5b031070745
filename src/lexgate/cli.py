"""Operator command line: validate policy stores, evaluate requests,
replay travel scenarios.

Exit codes: 0 success, 1 validation/expectation failure, 2 input error.
Scenario mode drives the full enforcement path with a simulated clock, so
runs are reproducible byte for byte; `eval --at` pins the clock the same
way. The pseudonym key comes from the LEXGATE_PSEUDONYM_KEY environment
variable (a scenario file may carry a fixture default).
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .context.bundle import STORE_FILES, PipBundle, load_bundle
from .context.clock import FixedClock, SystemClock
from .context.loader import read_utf8, split_record
from .engine import PolicyDecisionPoint
from .errors import FixtureError, LexgateError, ScenarioFormatError
from .instant import format_instant, parse_instant
from .model import Decision, PolicyDocument, validate_document
from .parsing.policy_xml import parse_policy_document
from .parsing.wire import parse_request, parse_response
from .parsing.xmlread import parse_xml
from .pep import AuditLog, AuthState, ReferenceMonitor

PSEUDONYM_KEY_ENV = "LEXGATE_PSEUDONYM_KEY"


def default_fixtures_root() -> Path:
    return Path(str(resources.files(__package__) / "fixtures"))


def load_policy_dir(path: Path) -> list[PolicyDocument]:
    documents = []
    for file in sorted(path.glob("*.xml")):
        documents.append(parse_policy_document(file.read_bytes(), source_name=file.name))
    return documents


def _node_lines(data: bytes) -> dict[str, int]:
    """Map node ids to source lines for validation reports."""
    lines: dict[str, int] = {}

    def walk(node):
        for key in ("PolicyId", "PolicySetId", "RuleId"):
            node_id = node.attrs.get(key)
            if node_id and node_id not in lines:
                lines[node_id] = node.line
        for child in node.children:
            walk(child)

    walk(parse_xml(data))
    return lines


# -- validate ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    policy_dir = Path(args.policy_dir)
    if not policy_dir.is_dir():
        print(f"error: {policy_dir} is not a directory", file=sys.stderr)
        return 2

    known_scopes = None
    if args.scopes:
        try:
            from .context.loader import load_scopes

            known_scopes = load_scopes(Path(args.scopes)).ids()
        except (OSError, FixtureError) as exc:
            print(f"error: cannot load scope registry: {exc}", file=sys.stderr)
            return 2

    files = sorted(policy_dir.glob("*.xml"))
    if not files:
        print("warning: no policies")
        return 0

    failures = 0
    for file in files:
        try:
            data = file.read_bytes()
            document = parse_policy_document(data, source_name=file.name)
        except OSError as exc:
            print(f"{file.name}: read error: {exc}")
            failures += 1
            continue
        except LexgateError as exc:
            print(f"{file.name}: {exc}")
            failures += 1
            continue
        lines = _node_lines(data)
        violations = validate_document(document, known_scopes=known_scopes)
        for violation in violations:
            line = lines.get(violation.node_id, 0)
            print(f"{file.name}:{line}: {violation.node_id}: {violation.code}")
        if violations:
            failures += 1
        else:
            print(f"{file.name}: ok")
    return 1 if failures else 0


def _load_deployment(args: argparse.Namespace) -> tuple[PipBundle, list[PolicyDocument]]:
    """The bundle, on a clock pinned by --at if given, and the policy
    documents of the fixtures root and policy subdir `args` name."""
    fixtures = Path(args.fixtures) if args.fixtures else default_fixtures_root()
    clock = FixedClock(parse_instant(args.at)) if args.at else SystemClock()
    return load_bundle(fixtures, clock=clock), load_policy_dir(fixtures / args.policies)


# -- eval --------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    engine = PolicyDecisionPoint()
    try:
        pips, documents = _load_deployment(args)
        forest = engine.compile(documents)
        request = parse_request(Path(args.request).read_bytes())
    except (OSError, LexgateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mode = "ignore-tags" if args.ignore_legislation_tags else "aware"
    response = engine.evaluate(forest, request, pips, legislation_mode=mode)

    print(f"decision: {response.decision.value}")
    print(f"status: {response.status}")
    obligations = ", ".join(ob.id for ob in response.obligations) or "none"
    print(f"obligations: {obligations}")
    if args.explain:
        print("trace:")
        for record in response.trace:
            reason = f" {record.reason}" if record.reason else ""
            print(f"  {record.node_id} {record.decision.value}{reason}")
    return 0


# -- serve ---------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    """Handle one wire-format request from stdin through the full
    enforcement path and write the response to stdout."""
    try:
        pips, documents = _load_deployment(args)
    except (OSError, LexgateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with AuditLog(Path(args.audit) if args.audit else None) as audit:
        monitor = ReferenceMonitor(
            PolicyDecisionPoint(),
            documents,
            pips,
            audit=audit,
            pseudonym_key=os.environ.get(PSEUDONYM_KEY_ENV),
        )
        raw = sys.stdin.buffer.read()
        response_bytes, _record = monitor.handle_request(raw, AuthState(args.user, args.secret))
    sys.stdout.buffer.write(response_bytes)
    sys.stdout.buffer.flush()
    return 0


# -- scenario ------------------------------------------------------------------


@dataclass
class ScenarioStep:
    at: dt.datetime
    actor: str
    place: str
    action: str
    resource: str
    expect: Decision
    tokens: tuple[str, ...] = ()
    expect_obligations: Optional[tuple[str, ...]] = None


@dataclass
class Scenario:
    name: str
    stores: dict[str, str] = field(default_factory=dict)
    policies: str = "policies"
    pseudonym_key: Optional[str] = None
    steps: list[ScenarioStep] = field(default_factory=list)


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario(name="")
    last_at = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = split_record(line)
        except ValueError as exc:
            raise ScenarioFormatError(f"line {line_no}: {exc}") from exc
        head, rest = tokens[0], tokens[1:]
        if head == "scenario":
            scenario.name = " ".join(rest)
        elif head in STORE_FILES:
            if len(rest) != 1:
                raise ScenarioFormatError(f"line {line_no}: {head} needs one path")
            scenario.stores[head] = rest[0]
        elif head == "policies":
            if len(rest) != 1:
                raise ScenarioFormatError(f"line {line_no}: policies needs one path")
            scenario.policies = rest[0]
        elif head == "pseudonym-key":
            scenario.pseudonym_key = " ".join(rest)
        elif head == "step":
            fields = {}
            for token in rest:
                key, sep, value = token.partition("=")
                if not sep:
                    raise ScenarioFormatError(f"line {line_no}: expected key=value, got {token!r}")
                fields[key] = value
            try:
                at = parse_instant(fields["at"])
                step = ScenarioStep(
                    at=at,
                    actor=fields["actor"],
                    place=fields["place"],
                    action=fields.get("action", "read"),
                    resource=fields["resource"],
                    expect=Decision(fields["expect"]),
                    tokens=tuple(t for t in fields.get("token", "").split(",") if t),
                    expect_obligations=(
                        tuple(t for t in fields["obligations"].split(",") if t)
                        if "obligations" in fields
                        else None
                    ),
                )
            except (KeyError, ValueError) as exc:
                raise ScenarioFormatError(f"line {line_no}: {exc}") from exc
            if last_at is not None and step.at < last_at:
                raise ScenarioFormatError(f"line {line_no}: steps must be clock-monotone")
            last_at = step.at
            scenario.steps.append(step)
        else:
            raise ScenarioFormatError(f"line {line_no}: unknown record {head!r}")
    if not scenario.name:
        raise ScenarioFormatError("scenario file needs a 'scenario <name>' line")
    return scenario


def _step_request(step: ScenarioStep, pips: PipBundle) -> bytes:
    place, _territory = pips.zones.place(step.place)
    lines = [
        "request",
        f"subject user-id identifier {step.actor}",
        f"resource resource-id string {step.resource}",
        f"action action-id string {step.action}",
        f"environment current-position geo-point {place.point.lat!r} {place.point.lon!r}",
    ]
    for customer in step.tokens:
        token = f"{customer}|code-card-subset|{format_instant(step.at)}"
        lines.append(f"environment proximity-token string {token}")
    lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


def cmd_scenario(args: argparse.Namespace) -> int:
    root = Path(args.fixtures) if args.fixtures else default_fixtures_root()
    try:
        scenario = parse_scenario(read_utf8(Path(args.scenario), ScenarioFormatError))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioFormatError as exc:
        print(f"error: malformed scenario: {exc}", file=sys.stderr)
        return 2

    if not scenario.steps:
        print(f"scenario {scenario.name}: 0 steps")
        return 0

    clock = FixedClock(scenario.steps[0].at)
    try:
        pips = load_bundle(root, clock=clock, stores=scenario.stores)
        documents = load_policy_dir(root / scenario.policies)
    except (OSError, LexgateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    key = os.environ.get(PSEUDONYM_KEY_ENV) or scenario.pseudonym_key
    with AuditLog(Path(args.audit) if args.audit else None) as audit:
        monitor = ReferenceMonitor(
            PolicyDecisionPoint(), documents, pips, audit=audit, pseudonym_key=key
        )

        failed = 0
        for index, step in enumerate(scenario.steps, start=1):
            clock.set(step.at)
            record = pips.identities.get(step.actor)
            session = AuthState(step.actor, record.credentials if record else "")
            try:
                raw = _step_request(step, pips)
                response_bytes, _audit_record = monitor.handle_request(raw, session)
                response, _view = parse_response(response_bytes)
            except LexgateError as exc:
                print(f"error: step {index}: {exc}", file=sys.stderr)
                return 2

            got_obligations = tuple(ob.id for ob in response.obligations)
            ok = response.decision is step.expect
            if step.expect_obligations is not None:
                ok = ok and sorted(got_obligations) == sorted(step.expect_obligations)

            verdict = "PASS" if ok else "FAIL"
            detail = f"expect={step.expect.value} got={response.decision.value}"
            if step.expect_obligations is not None or got_obligations:
                wanted = ",".join(step.expect_obligations or ()) or "-"
                got = ",".join(got_obligations) or "-"
                detail += f" obligations={got} (wanted {wanted})"
            print(
                f"step {index} {verdict} at={format_instant(step.at)} "
                f"place={step.place} {detail}"
            )
            if not ok:
                failed += 1

    total = len(scenario.steps)
    print(f"scenario {scenario.name}: {total} steps, {total - failed} passed, {failed} failed")
    return 1 if failed else 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexgate",
        description="Jurisdiction-aware policy decision engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate every policy in a directory")
    p_validate.add_argument("policy_dir")
    p_validate.add_argument("--scopes", help="scope registry for referential checks")
    p_validate.set_defaults(func=cmd_validate)

    p_eval = sub.add_parser("eval", help="evaluate one request against a policy store")
    p_eval.add_argument("--request", required=True, help="request file (wire format)")
    p_eval.add_argument("--fixtures", help="fixtures root (default: packaged fixtures)")
    p_eval.add_argument("--policies", default="policies", help="policy subdir under fixtures")
    p_eval.add_argument("--explain", action="store_true", help="print the evaluation trace")
    p_eval.add_argument(
        "--ignore-legislation-tags",
        action="store_true",
        help="evaluate as an engine that does not understand legislation tags",
    )
    p_eval.add_argument("--at", help="pin the clock to this UTC instant")
    p_eval.set_defaults(func=cmd_eval)

    p_scenario = sub.add_parser("scenario", help="replay a multi-step scenario")
    p_scenario.add_argument("scenario")
    p_scenario.add_argument("--fixtures", help="fixtures root (default: packaged fixtures)")
    p_scenario.add_argument("--audit", help="append audit records to this file")
    p_scenario.set_defaults(func=cmd_scenario)

    p_serve = sub.add_parser(
        "serve", help="handle one request from stdin through the enforcement path"
    )
    p_serve.add_argument("--user", required=True, help="authenticated requester id")
    p_serve.add_argument("--secret", required=True, help="requester secret")
    p_serve.add_argument("--fixtures", help="fixtures root (default: packaged fixtures)")
    p_serve.add_argument("--policies", default="policies", help="policy subdir under fixtures")
    p_serve.add_argument("--at", help="pin the clock to this UTC instant")
    p_serve.add_argument("--audit", help="append audit records to this file")
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
