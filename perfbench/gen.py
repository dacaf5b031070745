"""Seeded, stdlib-only input generators for the lexgate benchmark.

    python3 perfbench/gen.py --workload pack-mix --seed 7 --out DIR

writes a complete fixture root into DIR: the five stores (zones.xml,
identities.txt, diary.txt, scopes.txt, resources.txt), a policies/
directory and the request stream. The stream is either requests.json (a
set of request templates plus a day plan that repeats them over
consecutive days) or requests.jsonl (one explicit request per line).
Every request carries the outcome it must produce: decision, status,
obligation ids and view mode. Those expectations come from the generator's
own construction and from `reference_decision`, a direct transcription of
the packaged policy pack; the program under test is never consulted.

The same workload and seed always give byte-identical files. The packaged
fixtures are read from SRC (default: src/lexgate/fixtures next to this
directory) as plain data; nothing here imports lexgate.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import random
import re
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

WORKLOADS = ("pack-mix", "forest-600", "world-200", "reject-mix")

PERMIT, DENY, NA, IND = "Permit", "Deny", "NotApplicable", "Indeterminate"
OK, PROCESSING, SYNTAX = "ok", "processing-error", "syntax-error"
PSEUDONYMIZE = "pseudonymize"
ORG_SCOPE = "org:bank"
HOME = "LU"
PSEUDONYM_KEY = "bench-pseudonym-key"

UTC = dt.timezone.utc


def fmt_instant(at: dt.datetime) -> str:
    return at.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"


def us_of(hhmm: str) -> int:
    hours, minutes = hhmm.split(":")
    return (int(hours) * 60 + int(minutes)) * 60_000_000


def expect(decision: str, status: str = OK, obligations=(), view=None) -> list:
    if view is None and decision == PERMIT:
        view = "pseudonymous" if PSEUDONYMIZE in obligations else "cleartext"
    return [decision, status, sorted(obligations), view]


# -- reference decision for the packaged policy pack ---------------------------


def deny_overrides(decisions) -> str:
    decisions = list(decisions)
    if DENY in decisions or IND in decisions:
        return DENY
    return PERMIT if PERMIT in decisions else NA


def reference_decision(*, source, scopes, zone, local_ok, resource, relationship, task) -> list:
    """Outcome of the six packaged policies for one request, as README
    "How a decision is made" describes them.

    source is the resolved source country (None: the location could not
    be resolved, which is Indeterminate/processing-error); scopes the
    observed legislation scopes; zone 'restricted', 'unrestricted' or None
    (degraded precision); local_ok whether local time lies in 08:00-18:00;
    resource the catalogue record (dict) or None; relationship and task the
    derived subject/diary attributes.
    """
    if source is None:
        return expect(IND, PROCESSING)
    confidential = resource is not None and resource["confidential"]
    customer_related = resource is not None and resource["customer_related"]
    decisions = []
    # legislation-de: lock customer data under German law.
    decisions.append(DENY if "DE" in scopes and customer_related else NA)
    # legislation-eu: customer data needs a task and an authorized relationship.
    if "EU" in scopes and customer_related:
        if relationship is None:
            raise ValueError("customer-related resources must name customers")
        denied = task in ("no-task", "location-mismatch") or relationship == "unauthorized"
        decisions.append(DENY if denied else NA)
    else:
        decisions.append(NA)
    # legislation-lu: strategic data stays in Luxembourg.
    strategic = resource is not None and resource["category"] == "strategic"
    decisions.append(DENY if "LU" in scopes and strategic and source != "LU" else NA)
    # org-access: first-applicable grants.
    obligations = []
    if ORG_SCOPE not in scopes:
        decisions.append(NA)
    elif resource is not None and not confidential:
        decisions.append(PERMIT)
    elif customer_related and task == "full-match":
        decisions.append(PERMIT)
    elif customer_related and task == "pseudonymous-window":
        decisions.append(PERMIT)
        obligations = [PSEUDONYMIZE]
    else:
        decisions.append(NA)
    # working-time: 08:00-18:00 local, default Deny.
    decisions.append(PERMIT if local_ok else DENY)
    # zone-insulation: no confidential data in restricted zones.
    decisions.append(DENY if confidential and zone == "restricted" else NA)
    final = deny_overrides(decisions)
    return expect(final, OK, obligations if final == PERMIT else ())


# -- packaged fixtures -------------------------------------------------------


def packaged_places(src: Path) -> dict[str, tuple[float, float]]:
    root = ET.fromstring((src / "zones.xml").read_bytes())
    places = {}
    for place in root.iter("place"):
        lat, lon = place.attrib["pos"].split()
        places[place.attrib["name"]] = (float(lat), float(lon))
    return places


def packaged_steps(src: Path) -> list[dict]:
    steps = []
    for line in (src / "scenarios" / "border-trip.scenario").read_text().splitlines():
        if not line.startswith("step "):
            continue
        fields = dict(token.split("=", 1) for token in line.split()[1:])
        steps.append(fields)
    return steps


def step_body(actor, resource, action, point, tokens) -> str:
    lines = [
        "request",
        f"subject user-id identifier {actor}",
        f"resource resource-id string {resource}",
        f"action action-id string {action}",
        f"environment current-position geo-point {point[0]!r} {point[1]!r}",
    ]
    for customer in tokens:
        lines.append(f"environment proximity-token string {customer}|code-card-subset|{{AT}}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def pack_templates(src: Path) -> list[dict]:
    """The four border-trip steps and the three packaged .req files, in
    time-of-day order. Step expectations come from the scenario file; the
    .req files' from the instants their comments name."""
    places = packaged_places(src)
    secrets = credentials(src)
    templates = []
    for index, step in enumerate(packaged_steps(src), start=1):
        obligations = [o for o in step.get("obligations", "").split(",") if o]
        tokens = [t for t in step.get("token", "").split(",") if t]
        templates.append(
            {
                "kind": f"step{index}",
                "tod": step["at"][11:16],
                "user": step["actor"],
                "raw": step_body(
                    step["actor"], step["resource"], step["action"], places[step["place"]], tokens
                ),
                "expect": expect(step["expect"], OK, obligations),
            }
        )
    packaged_reqs = {
        "login-noon": ("12:00", expect(PERMIT)),
        "portfolio-ch-window": ("12:45", expect(PERMIT, OK, [PSEUDONYMIZE])),
        "portfolio-de-office": ("09:10", expect(DENY)),
    }
    for name, (tod, outcome) in packaged_reqs.items():
        raw = (src / "requests" / f"{name}.req").read_text()
        user = re.search(r"^subject user-id identifier (\S+)$", raw, re.M).group(1)
        templates.append({"kind": name, "tod": tod, "user": user, "raw": raw, "expect": outcome})
    for tpl in templates:
        tpl["secret"] = secrets[tpl["user"]]
    templates.sort(key=lambda t: t["tod"])
    return templates


def repeat_diary(src: Path, start: dt.date, days: int) -> str:
    """The packaged diary day repeated for each replayed day."""
    entries = [l for l in (src / "diary.txt").read_text().splitlines() if l.startswith("entry ")]
    base = dt.date(2026, 3, 10)
    out = ["# Packaged diary day repeated for each replayed day."]
    for day in range(days):
        shift = (start - base).days + day

        def moved(match, shift=shift):
            when = dt.datetime.fromisoformat(match.group(1)) + dt.timedelta(days=shift)
            return when.strftime("%Y-%m-%dT%H:%M:%S") + "Z"

        out.extend(re.sub(r"(\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d)Z", moved, e) for e in entries)
    return "\n".join(out) + "\n"


def credentials(src: Path) -> dict[str, str]:
    secrets = {}
    for line in (src / "identities.txt").read_text().splitlines():
        match = re.match(r"^(consultant|supervisor|supplier) (\S+) .*secret=(\S+)", line)
        if match:
            secrets[match.group(2)] = match.group(3)
    return secrets


def copy_packaged(src: Path, out: Path, stores=("zones.xml", "identities.txt", "scopes.txt", "resources.txt")):
    for name in stores:
        shutil.copyfile(src / name, out / name)
    (out / "policies").mkdir(exist_ok=True)
    for policy in sorted((src / "policies").glob("*.xml")):
        shutil.copyfile(policy, out / "policies" / policy.name)


def day_start(rng: random.Random) -> dt.date:
    return dt.date(2026, 3, 10) + dt.timedelta(days=rng.randrange(0, 180))


def plan_entry(tod_us: int, repeat: int, step_us: int, group) -> list:
    """Send `group` (offset_us, [template ids]) `repeat` times from tod_us,
    one repetition every step_us; a group member cycles through its ids."""
    return [tod_us, repeat, step_us, group]


def sequential(plan: list) -> list:
    """Sort the plan by time of day and delay any entry that would start
    before the previous one ends: the clock must never step back while one
    audit log is in use."""
    plan = sorted(plan, key=lambda entry: entry[0])
    free = 0
    for entry in plan:
        tod_us, repeat, step_us, group = entry
        entry[0] = max(tod_us, free)
        free = entry[0] + (repeat - 1) * step_us + max(offset for offset, _ in group) + 1
    return plan


# -- pack-mix ------------------------------------------------------------------


# Every packaged request yields its packaged outcome anywhere in this hour:
# it is the Zurich meeting's core interval, where step 3 and the CH window
# request (no proximity token) are assessed pseudonymous-window just as in
# the pre-meeting window, and step 4 (token) a full match. Rounds sent in
# this hour interleave all seven requests while the clock only moves on.
ROUND_HOUR = "13:30"


def gen_pack(src: Path, out: Path, rng: random.Random, days=24, rounds=1000):
    """Rounds of the seven packaged requests in packaged time order, one
    millisecond apart, `rounds` per replayed day."""
    copy_packaged(src, out)
    start = day_start(rng)
    (out / "diary.txt").write_text(repeat_diary(src, start, days))
    templates = pack_templates(src)
    group = [[1000 * k, [k]] for k in range(len(templates))]
    plan = [plan_entry(us_of(ROUND_HOUR) + rng.randrange(0, 1000), rounds, 1000 * len(group), group)]
    return {"start": start.isoformat(), "days": days, "round": "repeat", "templates": templates, "plan": plan}


# -- reject-mix ----------------------------------------------------------------

VARIANTS = 16


def reject_templates(pack: list[dict], secrets: dict[str, str], rng: random.Random):
    """Requests the monitor must refuse, VARIANTS of each kind."""
    kinds: dict[str, list[dict]] = {}
    for n in range(VARIANTS):
        body = pack[n % len(pack)]
        raw, user = body["raw"], body["user"]
        refuse = expect(DENY, PROCESSING)
        syntax = expect(IND, SYNTAX)
        cut = rng.randrange(1, raw.rindex("end"))
        bad_line = rng.choice(
            [
                "bogus line kind",
                "environment position-accuracy no-such-type 5",
                "environment position-accuracy integer twelve",
                "subject",
            ]
        )
        lines = raw.splitlines()
        malformed = "\n".join(lines[:-1] + [bad_line, "end"]) + "\n"
        if bad_line == "subject":
            malformed = "request\nresource resource-id string products/overview\nend\n"
        split = raw.index("\nresource") + 1
        binary = raw[:split] + "resource note string caf\xe9 \xff\xfe\n" + raw[split:]
        variants = {
            "wrong-secret": dict(user=user, secret=f"wrong-{rng.randrange(10**6)}", raw=raw, expect=refuse),
            "unknown-user": dict(user=f"ghost.{rng.randrange(10**6)}", secret="x", raw=raw, expect=refuse),
            "subject-mismatch": dict(
                user="a.chen", secret=secrets["a.chen"], raw=raw, expect=refuse
            ),
            "malformed": dict(user=user, secret=secrets[user], raw=malformed, expect=syntax),
            "truncated": dict(user=user, secret=secrets[user], raw=raw[:cut], expect=syntax),
            "empty": dict(user=user, secret=secrets[user], raw="", expect=syntax),
            # Bytes that are not UTF-8 (latin-1 0xE9, 0xFF, 0xFE). The
            # monitor promises a syntax-error response and one audit record.
            "non-utf8": dict(user=user, secret=secrets[user], raw=binary, expect=syntax),
        }
        for kind, variant in variants.items():
            kinds.setdefault(kind, []).append(dict(variant, kind=kind))
    return kinds


def gen_reject(src: Path, out: Path, rng: random.Random, days=24, rounds=3000):
    """Rounds of nine in a seeded order: one packaged request and eight
    refusals, one of each kind and a second wrong secret, so about one
    request in nine takes the happy path. The packaged requests cycle
    through the seven with step 4 twice. Both choices keep the median (in
    the refusals) and p95 (in the packaged requests) away from the edge
    between two kinds' latency bands. Requests of a round are 100 us
    apart, rounds 1 ms apart."""
    copy_packaged(src, out)
    start = day_start(rng)
    (out / "diary.txt").write_text(repeat_diary(src, start, days))
    secrets = credentials(src)
    templates = pack_templates(src)
    step4 = next(k for k, t in enumerate(templates) if t["kind"] == "step4")
    group = [[0, list(range(len(templates))) + [step4]]]
    members = []
    for kind, variants in reject_templates(templates, secrets, rng).items():
        ids = list(range(len(templates), len(templates) + len(variants)))
        templates.extend(variants)
        members.append(ids)
        if kind == "wrong-secret":
            members.append(ids[1:] + ids[:1])
    rng.shuffle(members)
    group += [[100 * k, ids] for k, ids in enumerate(members, start=1)]
    plan = [plan_entry(us_of(ROUND_HOUR) + rng.randrange(0, 1000), rounds, 1000, group)]
    return {"start": start.isoformat(), "days": days, "round": "repeat", "templates": templates, "plan": plan}


# -- forest-600 ------------------------------------------------------------------

TREATIES = 48
RESOURCE_LITERALS = 60
ACTIONS = ("read", "write", "export", "share")
COMBINERS = ("deny-overrides", "permit-overrides", "first-applicable")
# (packaged place, its country, that country's UTC offset)
FOREST_PLACES = (
    ("LU-hq", "LU", 1),
    ("FR-paris-office", "FR", 1),
    ("CH-zurich-hotel", "CH", 1),
    ("GB-london-bank", "GB", 0),
    ("DE-frankfurt-office", "DE", 1),
    ("JP-tokyo-office", "JP", 9),
)


def combine_rules(combiner: str, decisions: list[str]) -> str:
    if combiner == "deny-overrides":
        return deny_overrides(decisions)
    if combiner == "permit-overrides":
        if PERMIT in decisions:
            return PERMIT
        return DENY if DENY in decisions else NA
    return next((d for d in decisions if d != NA), NA)


def forest_document(doc_id: str, rng: random.Random, countries: list[str]) -> tuple[str, dict]:
    resource = f"gen/res/{rng.randrange(RESOURCE_LITERALS):03d}"
    action = rng.choice(ACTIONS)
    legislation = sorted(rng.sample([f"gen:t{t:02d}" for t in range(TREATIES)], rng.choice((1, 2))))
    combiner = rng.choice(COMBINERS)
    rules = []
    for _ in range(rng.choice((2, 3))):
        effect = rng.choice((PERMIT, DENY))
        country = rng.choice(countries) if rng.random() < 0.7 else None
        rules.append((effect, country))
    xml = [
        f'<Policy PolicyId="{doc_id}" RuleCombiningAlgId="rule-combining-algorithm:{combiner}">',
        "  <Target>",
        "    <Resources>",
        '      <Match AttributeId="resource-id" MatchId="function:string-equal">',
        f'        <AttributeValue DataType="XMLSchema#string">{resource}</AttributeValue>',
        "      </Match>",
        "    </Resources>",
        "    <Actions>",
        '      <Match AttributeId="action-id" MatchId="function:string-equal">',
        f'        <AttributeValue DataType="XMLSchema#string">{action}</AttributeValue>',
        "      </Match>",
        "    </Actions>",
        "  </Target>",
        "  <Legislation>" + "".join(f"<Scope>{s}</Scope>" for s in legislation) + "</Legislation>",
    ]
    for n, (effect, country) in enumerate(rules):
        if country is None:
            xml.append(f'  <Rule RuleId="{doc_id}R{n}" Effect="{effect}"/>')
            continue
        xml += [
            f'  <Rule RuleId="{doc_id}R{n}" Effect="{effect}">',
            '    <Condition FunctionId="function:string-equal">',
            '      <Apply FunctionId="function:string-one-and-only">',
            '        <EnvironmentAttributeSelector DataType="country-code"',
            '          AttributeId="environment:source-country"/>',
            "      </Apply>",
            f'      <AttributeValue DataType="country-code">{country}</AttributeValue>',
            "    </Condition>",
            "  </Rule>",
        ]
    xml.append("</Policy>")
    model = {
        "resource": resource,
        "action": action,
        "legislation": set(legislation),
        "combiner": combiner,
        "rules": rules,
    }
    return "\n".join(xml) + "\n", model


def forest_decision(doc: dict, source: str, scopes: set[str], resource: str, action: str) -> str:
    if not (doc["legislation"] & scopes) or doc["resource"] != resource or doc["action"] != action:
        return NA
    decisions = [effect if country in (None, source) else NA for effect, country in doc["rules"]]
    effect, country = doc["rules"][-1]
    if country is None:
        # Trailing unconditional rule: the policy's default (README).
        combined = combine_rules(doc["combiner"], decisions[:-1])
        return effect if combined == NA else combined
    return combine_rules(doc["combiner"], decisions)


def gen_forest(src: Path, out: Path, rng: random.Random, days=128, documents=600, generated_per_day=57):
    copy_packaged(src, out, stores=("zones.xml", "identities.txt", "resources.txt"))
    start = day_start(rng)
    (out / "diary.txt").write_text(repeat_diary(src, start, days))

    # Packaged scopes, plus generated treaty scopes the packaged countries
    # belong to, so the legislation check passes for a few documents only.
    memberships: dict[str, set[str]] = {}
    lines = []
    for line in (src / "scopes.txt").read_text().splitlines():
        match = re.match(r"^scope id=(\S+) kind=(\S+)", line)
        if match and match.group(2) in ("sovereign-state", "union"):
            treaties = rng.sample(range(TREATIES), 2 if match.group(2) == "sovereign-state" else 1)
            extra = ",".join(f"gen:t{t:02d}" for t in sorted(treaties))
            memberships[match.group(1)] = {f"gen:t{t:02d}" for t in treaties}
            if " member-of=" in line:
                line = re.sub(r" member-of=(\S+)", rf" member-of=\1,{extra}", line)
            else:
                line += f" member-of={extra}"
            parent = re.search(r" member-of=(\S+)", line).group(1).split(",")
            memberships[match.group(1)] |= {p for p in parent if not p.startswith("gen:")}
        lines.append(line)
    lines.append("")
    lines += [f"scope id=gen:t{t:02d} kind=union rank=1" for t in range(TREATIES)]
    (out / "scopes.txt").write_text("\n".join(lines) + "\n")

    def closure(scope: str) -> set[str]:
        seen, todo = set(), [scope]
        while todo:
            current = todo.pop()
            if current not in seen:
                seen.add(current)
                todo.extend(memberships.get(current, ()))
        return seen

    countries = [country for _, country, _ in FOREST_PLACES]
    models = []
    for n in range(documents - len(list((src / "policies").glob("*.xml")))):
        doc_id = f"GenPolicy{n:04d}"
        xml, model = forest_document(doc_id, rng, countries)
        (out / "policies" / f"gen-{n:04d}.xml").write_text(xml)
        models.append(model)

    secrets = credentials(src)
    places = packaged_places(src)
    templates = pack_templates(src)
    plan = [plan_entry(us_of(t["tod"]) + rng.randrange(0, 1000), 1, 1000, [[0, [i]]]) for i, t in enumerate(templates)]
    for j in range(generated_per_day):
        # Aim each request at a generated document's literals; whether that
        # document applies still depends on the legislation check.
        doc = rng.choice(models)
        place, source, offset = rng.choice(FOREST_PLACES)
        tod_us = us_of("10:00") + j * 1_000_000 + rng.randrange(0, 1000)
        local_hour = 10 + offset
        scopes = closure(source) | closure(HOME) | {ORG_SCOPE}
        decisions = [PERMIT if 8 <= local_hour < 18 else DENY]
        decisions += [forest_decision(m, source, scopes, doc["resource"], doc["action"]) for m in models]
        final = deny_overrides(decisions)
        raw = "\n".join(
            [
                "request",
                "subject user-id identifier c.miller",
                f"resource resource-id string {doc['resource']}",
                f"action action-id string {doc['action']}",
                f"environment current-position geo-point {places[place][0]!r} {places[place][1]!r}",
                "end",
            ]
        ) + "\n"
        templates.append(
            {"kind": "generated", "user": "c.miller", "secret": secrets["c.miller"], "raw": raw, "expect": expect(final)}
        )
        plan.append(plan_entry(tod_us, 1, 1000, [[0, [len(templates) - 1]]]))
    return {"start": start.isoformat(), "days": days, "round": "day", "templates": templates,
            "plan": sequential(plan)}


# -- world-200 ---------------------------------------------------------------------

ROWS, COLS = 10, 20
CONSULTANTS = 2000
WORLD_DAYS = 10
NORMAL_ACCURACY = 500
CROSS_BORDER_ACCURACY = 40_000
# One mix cycle: (kind, count). Raw points with accuracy dominate; the
# degraded (straddle, cross-border), device and embedded paths are shares.
WORLD_CYCLE = (
    ("core", 3), ("window", 2), ("wrong-place", 2), ("no-task", 1), ("product", 2),
    ("after-hours", 1), ("device", 1), ("embedded", 1), ("straddle", 1),
    ("restricted", 1), ("cross-border", 1),
)


def country_codes(rng: random.Random) -> list[str]:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    pool = [a + b for a in letters for b in letters if a + b not in (HOME, "DE", "EU")]
    codes = rng.sample(pool, ROWS * COLS - 2) + [HOME, "DE"]
    rng.shuffle(codes)
    return codes


def box(lat0, lon0, lat1, lon1) -> str:
    return f"{lat0:.4f} {lon0:.4f}  {lat0:.4f} {lon1:.4f}  {lat1:.4f} {lon1:.4f}  {lat1:.4f} {lon0:.4f}"


def gen_world(src: Path, out: Path, rng: random.Random, requests_per_day=3000):
    (out / "policies").mkdir(exist_ok=True)
    for policy in sorted((src / "policies").glob("*.xml")):
        shutil.copyfile(policy, out / "policies" / policy.name)

    codes = country_codes(rng)
    eu = set(rng.sample([c for c in codes if c not in (HOME, "DE")], 40)) | {HOME, "DE"}
    world = {}
    for index, code in enumerate(codes):
        row, col = divmod(index, COLS)
        lat0, lon0 = row * 2.0, col * 2.0
        # One country in ten keeps far-eastern time (UTC+9), where the
        # working day is over while it runs in the others.
        tz = 9 if rng.random() < 0.1 and code not in (HOME, "DE") else rng.randrange(0, 3)
        world[code] = {"row": row, "col": col, "lat0": lat0, "lon0": lon0, "tz": tz}
    near = [code for code in codes if world[code]["tz"] < 9]
    far = [code for code in codes if world[code]["tz"] == 9]

    def territory(code: str, indent: str) -> list[str]:
        c = world[code]
        lat0, lon0 = c["lat0"], c["lon0"]
        lo, hi = 0.1, 1.9
        # A convex 12-gon: the box corners plus two points on each edge,
        # pushed outwards by up to 0.05 degrees.
        bump = [rng.uniform(0.0, 0.05) for _ in range(4)]
        third, two_thirds = 0.7, 1.3
        ring = [
            (lat0 + lo, lon0 + lo), (lat0 + lo - bump[0], lon0 + third), (lat0 + lo - bump[0], lon0 + two_thirds),
            (lat0 + lo, lon0 + hi), (lat0 + third, lon0 + hi + bump[1]), (lat0 + two_thirds, lon0 + hi + bump[1]),
            (lat0 + hi, lon0 + hi), (lat0 + hi + bump[2], lon0 + two_thirds), (lat0 + hi + bump[2], lon0 + third),
            (lat0 + hi, lon0 + lo), (lat0 + two_thirds, lon0 + lo - bump[3]), (lat0 + third, lon0 + lo - bump[3]),
        ]
        pos = "  ".join(f"{lat:.4f} {lon:.4f}" for lat, lon in ring)
        lines = [
            f'{indent}<territory kind="country" id="{code}" name="Country {code}">',
            f"{indent}  <timezone><name>TZ{c['tz']}</name><value>{c['tz']}</value></timezone>",
            f"{indent}  <boundary><posList>{pos}</posList></boundary>",
        ]
        for k in range(2):
            a, b = lat0 + 0.4 + 0.8 * k, lon0 + 0.4 + 0.8 * k
            lines.append(f'{indent}  <city name="{code}-city-{k}">')
            lines.append(f"{indent}    <boundary><posList>{box(a, b, a + 0.3, b + 0.3)}</posList></boundary>")
            lines.append(f"{indent}  </city>")
        for k, (a, b) in enumerate(((lat0 + 0.4, lon0 + 1.2), (lat0 + 1.2, lon0 + 0.4))):
            lines.append(f'{indent}  <restricted id="{code}-customs-{k}" name="{code} customs {k}">')
            lines.append(f"{indent}    <boundary><posList>{box(a, b, a + 0.1, b + 0.1)}</posList></boundary>")
            lines.append(f"{indent}  </restricted>")
        lines.append(f'{indent}  <place name="{code}-office" pos="{lat0 + 0.55:.4f} {lon0 + 0.55:.4f}"/>')
        lines.append(f"{indent}</territory>")
        return lines

    zones = ['<?xml version="1.0" encoding="UTF-8"?>', "<zones>"]
    zones.append('  <territory kind="union" id="EU" name="European Union">')
    for code in codes:
        if code in eu:
            zones += territory(code, "    ")
    zones.append("  </territory>")
    for code in codes:
        if code not in eu:
            zones += territory(code, "  ")
    zones.append("</zones>")
    (out / "zones.xml").write_text("\n".join(zones) + "\n")

    scopes = ["scope id=EU kind=union rank=1"]
    for code in codes:
        member = " member-of=EU" if code in eu else ""
        scopes.append(f"scope id={code} kind=sovereign-state rank=2{member}")
    scopes += [f"scope id={ORG_SCOPE} kind=organization rank=4 member-of={HOME}", f"organization {ORG_SCOPE}"]
    (out / "scopes.txt").write_text("\n".join(scopes) + "\n")

    def city_point(code: str, k: int) -> tuple[float, float]:
        c = world[code]
        centre_lat, centre_lon = c["lat0"] + 0.55 + 0.8 * k, c["lon0"] + 0.55 + 0.8 * k
        return (round(centre_lat + rng.uniform(-0.1, 0.1), 6), round(centre_lon + rng.uniform(-0.1, 0.1), 6))

    secret_salt = rng.randrange(16**6)
    users = [f"u{i:04d}" for i in range(CONSULTANTS)]
    identities = ["supervisor s.boss secret=boss-pass-7"]
    devices = {}
    for i, user in enumerate(users):
        identities.append(f"consultant {user} secret=pw-{i:04d}-{secret_salt:06x} customers=cust:{i}")
        identities.append(f"customer cust:{i} verifier=card-{i}")
        device_country = rng.choice(codes)
        devices[user] = (device_country, city_point(device_country, rng.randrange(2)))
        identities.append(f"device {user} pos={devices[user][1][0]!r},{devices[user][1][1]!r}")
    (out / "identities.txt").write_text("\n".join(identities) + "\n")

    resources = {
        f"cust/{i}/portfolio": {"confidential": True, "customer_related": True, "category": "portfolio"}
        for i in range(CONSULTANTS)
    }
    resources["products/overview"] = {"confidential": False, "customer_related": False, "category": "product"}
    catalogue = [
        f'resource id=cust/{i}/portfolio host={HOME} confidential=true customer-related=true '
        f'customers=cust:{i} category=portfolio content="Portfolio statement for cust:{i}."'
        for i in range(CONSULTANTS)
    ]
    catalogue.append(
        f'resource id=products/overview host={HOME} confidential=false customer-related=false '
        'category=product content="General product overview."'
    )
    (out / "resources.txt").write_text("\n".join(catalogue) + "\n")

    start = day_start(rng)
    midnight = dt.datetime.combine(start, dt.time(0), tzinfo=UTC)
    diary = []
    entries = {}
    for day in range(WORLD_DAYS):
        for i, user in enumerate(users):
            core = midnight + dt.timedelta(days=day, hours=10, minutes=30 * rng.randrange(0, 9))
            country = rng.choice(near)
            city = rng.randrange(2)
            entries[(day, i)] = (core, country, city)
            travel = " travel-authorized-by=s.boss" if country != HOME else ""
            diary.append(
                f'entry owner={user} task="customer service {day}" '
                f"start={core:%Y-%m-%dT%H:%M:%S}Z end={core + dt.timedelta(hours=1):%Y-%m-%dT%H:%M:%S}Z "
                f"pre=60 post=30 country={country} city={country}-city-{city} participants=cust:{i} "
                f"resources=cust/{i}/portfolio{travel}"
            )
    (out / "diary.txt").write_text("\n".join(diary) + "\n")

    def observed(source: str) -> set[str]:
        # Closures of source and destination (always LU, an EU member)
        # plus the organization scope.
        return {source, HOME, "EU", ORG_SCOPE}

    def local_ok(at: dt.datetime, code: str) -> bool:
        local = (at + dt.timedelta(hours=world[code]["tz"])).time()
        return dt.time(8) <= local <= dt.time(18)

    def body(user, resource, point=None, accuracy=None, token=None, location=None) -> str:
        lines = ["request", f"subject user-id identifier {user}", f"resource resource-id string {resource}",
                 "action action-id string read"]
        if location is not None:
            lines += location
        if point is not None:
            lines.append(f"environment current-position geo-point {point[0]!r} {point[1]!r}")
        if accuracy is not None:
            lines.append(f"environment position-accuracy integer {accuracy}")
        if token is not None:
            lines.append(f"environment proximity-token string {token}|code-card-subset|{{AT}}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    cycle = [kind for kind, count in WORLD_CYCLE for _ in range(count)]
    north_ok = [code for code in codes if world[code]["row"] < ROWS - 1]
    # Every kind is spread over the same hours, so that any run of
    # consecutive requests holds about the same mix.
    hours = (9 * 60 + 30) * 60_000_000, 15 * 60 * 60_000_000
    records = []
    for day in range(WORLD_DAYS):
        day_requests = []
        for n in range(requests_per_day):
            if n % len(cycle) == 0:
                rng.shuffle(cycle)
            kind = cycle[n % len(cycle)]
            i = rng.randrange(CONSULTANTS)
            user = users[i]
            portfolio = f"cust/{i}/portfolio"
            core, country, city = entries[(day, i)]
            in_core = core + dt.timedelta(microseconds=rng.randrange(3_600_000_000))
            anywhere = midnight + dt.timedelta(days=day, microseconds=rng.randrange(*hours))
            resource, source, zone, task, raw = portfolio, country, "unrestricted", None, None
            at = in_core
            if kind == "core":
                raw = body(user, portfolio, city_point(country, city), NORMAL_ACCURACY, f"cust:{i}")
                task = "full-match"
            elif kind == "window":
                at = core - dt.timedelta(microseconds=rng.randrange(1, 3_600_000_000))
                raw = body(user, portfolio, city_point(country, city), NORMAL_ACCURACY)
                task = "pseudonymous-window"
            elif kind == "wrong-place":
                source = rng.choice([c for c in codes if c != country])
                raw = body(user, portfolio, city_point(source, rng.randrange(2)), NORMAL_ACCURACY, f"cust:{i}")
                task = "location-mismatch"
            elif kind == "no-task":
                at = anywhere
                while core - dt.timedelta(minutes=60) <= at <= core + dt.timedelta(minutes=90):
                    at = midnight + dt.timedelta(days=day, microseconds=rng.randrange(*hours))
                source = rng.choice(codes)
                raw = body(user, portfolio, city_point(source, rng.randrange(2)), NORMAL_ACCURACY)
                task = "no-task"
            elif kind in ("product", "after-hours"):
                resource, at = "products/overview", anywhere
                source = rng.choice(far if kind == "after-hours" else near)
                raw = body(user, resource, city_point(source, rng.randrange(2)), NORMAL_ACCURACY)
                task = "no-task"
            elif kind == "device":
                resource, at = "products/overview", anywhere
                source = devices[user][0]
                raw = body(user, resource)
                task = "no-task"
            elif kind == "embedded":
                point = city_point(country, city)
                location = [
                    f"location country {country}", f"location city {country}-city-{city}",
                    "location zone unrestricted", f"location timezone TZ{world[country]['tz']} {world[country]['tz']}",
                    f"location point {point[0]!r} {point[1]!r}",
                ]
                raw = body(user, portfolio, token=f"cust:{i}", location=location)
                task = "full-match"
            elif kind == "straddle":
                c = world[country]
                point = (round(c["lat0"] + 0.45, 6), round(c["lon0"] + 1.2 - 0.001, 6))
                raw = body(user, portfolio, point, NORMAL_ACCURACY, f"cust:{i}")
                zone, task = None, "pseudonymous-window"
            elif kind == "restricted":
                c = world[country]
                point = (round(c["lat0"] + 0.45, 6), round(c["lon0"] + 1.25, 6))
                raw = body(user, portfolio, point, NORMAL_ACCURACY, f"cust:{i}")
                zone, task = "restricted", "full-match"
            elif kind == "cross-border":
                source = rng.choice([code for code in north_ok if world[code]["tz"] < 9])
                c = world[source]
                point = (round(c["lat0"] + 1.85, 6), round(c["lon0"] + 1.0, 6))
                raw = body(user, portfolio, point, CROSS_BORDER_ACCURACY, f"cust:{i}")
                source = None
            outcome = reference_decision(
                source=source,
                scopes=observed(source) if source else set(),
                zone=zone,
                local_ok=local_ok(at, source) if source else True,
                resource=resources[resource],
                relationship="one-to-one" if resource == portfolio else None,
                task=task,
            )
            day_requests.append((at, kind, user, raw, outcome))
        day_requests.sort(key=lambda r: r[0])
        for at, kind, user, raw, outcome in day_requests:
            i = int(user[1:])
            raw = raw.replace("{AT}", fmt_instant(at))
            # A round is 64 consecutive requests.
            records.append(json.dumps(
                [len(records) // 64, fmt_instant(at), user, f"pw-{i:04d}-{secret_salt:06x}", raw, outcome, kind]
            ))
    (out / "requests.jsonl").write_text("\n".join(records) + "\n")
    return {"start": start.isoformat(), "days": WORLD_DAYS, "stream": "requests.jsonl"}


GENERATORS = {"pack-mix": gen_pack, "forest-600": gen_forest, "world-200": gen_world, "reject-mix": gen_reject}


def generate(workload: str, seed: int, out: Path, src: Path) -> dict:
    """Write the fixture root and request stream; returns the stream meta."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    meta = GENERATORS[workload](src, out, rng)
    meta.update(workload=workload, seed=seed, pseudonym_key=PSEUDONYM_KEY)
    (out / "requests.json").write_text(json.dumps(meta, indent=1) + "\n")
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src" / "lexgate" / "fixtures")
    args = parser.parse_args(argv)
    if not (args.src / "zones.xml").is_file():
        parser.error(f"packaged fixtures not found under {args.src}")
    generate(args.workload, args.seed, args.out, args.src)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
