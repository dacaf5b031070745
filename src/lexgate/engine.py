"""Policy decision point: applicability, conditions, tree evaluation.

Evaluation is a pure function of (documents, request, supplier snapshot):
the location supplier is consulted at most once per call, the clock once
unless the caller gives the instant, and every derived attribute is cached
write-once, so repeated evaluations return identical responses including
the trace.

What the context build reads of the request alone (the subject, the
catalog record and its trusted bags, the destination and its bag, the
parsed proximity tokens) is its `RequestFacts`, which `evaluate` takes in
place of the request, so a caller that holds them builds them once; the
location, the local time, the relationship, the task assessment and the
legal scopes are taken per evaluation.

Responses are recycled: the context is built for every request, but the
walk of the documents is a function of the request's plan and of the
attribute bags those documents read (a time compared only by order with
literals counts by its place among them), and of the source's place only
where one of them calls location-match, so each plan of the compiled
forest keeps a bounded memo from that walk key to the finished response
(`CompiledForest`). A request whose key was seen before gets that
response without a walk. The plan and the part of the walk key that the
facts fix are chosen once per facts value and scope set and kept in the
facts (`RequestFacts.choices`).

Legislation applicability: a node carrying a legislation scope set is
applicable only when that set intersects the scopes observed by the
connection (closure of the source and destination national scopes plus
the organization scope). Only the observed scopes the forest names are
kept, since no legislation set holds another; so connections that differ
only in scopes no document names share plans and responses.
`legislation_mode="ignore-tags"` observes every scope the forest names
instead (`CompiledForest.scopes`), so every tagged node passes that
check, reproducing an engine that does not understand the tag; a node's
legislation set is never empty. Ignoring
the tag only over-restricts while no tagged node can reach a Permit rule
outside the organization scope: a policy tagged JP with one Permit rule,
asked from London, is NotApplicable when tags are read and Permit when
they are ignored.

Default rule: when the last rule of a Policy has a match-any target, no
condition and no legislation set, it acts as the policy's fallback and
fires only if the declared combiner over the preceding rules yields
NotApplicable. This is how time-fence policies with a trailing
unconditional Deny rule behave as their authors intend under
deny-overrides; see README for the exact semantics.
"""

from __future__ import annotations

import datetime as dt
from array import array
from bisect import bisect_left, bisect_right
from enum import EnumMeta
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional

from .combining import STANDARD, combine
from .context.bundle import PipBundle
from .context.clock import local_time
from .context.attributes import PER_EVALUATION, RESERVED, RESERVED_ATTRIBUTES
from .context.identity import TOKEN_METHODS, IdentityKind, ProximityToken
from .context.resources import ResourceRecord
from .errors import LexgateError, PrecisionError
from .instant import parse_instant
from .model import (
    AttributeSelector,
    AttributeValue,
    Category,
    ConditionExpr,
    DataType,
    Decision,
    FunctionApplication,
    Literal,
    MatchClause,
    Memo,
    PolicyDocument,
    PolicyNode,
    NodeKind,
    ResponseContext,
    STATUS_MISSING_ATTRIBUTE,
    STATUS_OK,
    STATUS_PROCESSING_ERROR,
    SIGNATURES,
    Signature,
    Target,
    Trace,
    TraceRecord,
    is_one_field,
    is_wire_text,
    refusal,
    trace_text,
)
from .parsing.location_xml import LocationReport
from .parsing.wire import PROXIMITY_TOKEN, RequestContext

# The combiner over the document forest.
TOP_COMBINER = "deny-overrides"

_STRING_EQUAL = "function:string-equal"


class _EvalError(Exception):
    """Internal: folded into Indeterminate at the nearest boundary."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


class EvaluationContext:
    """Per-call snapshot of everything conditions may consult."""

    def __init__(
        self,
        request: RequestContext,
        pips: PipBundle,
        source_location: Optional[LocationReport],
        source_country: str,
        destination_country: str,
    ):
        self.request = request
        self.pips = pips
        self.source_location = source_location
        self.source_country = source_country
        self.destination_country = destination_country
        self.applicable_scopes: frozenset[str] = frozenset()
        self._cache: dict[tuple[Category, str], tuple[AttributeValue, ...]] = {}

    # -- attribute snapshot ------------------------------------------------

    def lookup(self, key: tuple[Category, str]) -> tuple[AttributeValue, ...]:
        """The bag for a (category, attribute id) key: the request's, but
        for a reserved key, which only the build sets."""
        values = self._cache.get(key)
        if values is None:
            values = self._cache[key] = () if key in RESERVED else self.request.bag(*key)
        return values


# The one-value string bag of each member of the enums that are reserved
# attributes' domains (zone, identity kind, relationship, task status),
# built once.
_MEMBER_BAGS = {
    member: (AttributeValue._trusted(DataType.STRING, member.value),)
    for row in RESERVED_ATTRIBUTES if isinstance(row.domain, EnumMeta)
    for member in row.domain
}


# The (key, bag) pair of the subject's kind, per identity kind, and the key
# of the destination's bag, built once.
_KIND_PAIRS = {kind: ((Category.SUBJECT, "kind"), _MEMBER_BAGS[kind]) for kind in IdentityKind}
_DESTINATION_KEY = (Category.ENVIRONMENT, "destination-country")


class RequestFacts(NamedTuple):
    """What the context build reads of a request alone, with the bundle's
    load-time stores (`PolicyDecisionPoint.facts`). It holds nothing that
    depends on the instant or on a supplier: the location supplier and the
    legal scopes are asked per evaluation. A caller that evaluates one
    request many times, as the monitor does for a body its memo holds,
    builds its facts once.

    `choices` is what `evaluate` chose for the request per forest and
    applicable scope set: the plan, and the body's part of its walk key.
    Both read only the scopes and the bags the facts fix, never a
    per-evaluation attribute (`PER_EVALUATION`), so a later evaluation
    under those scopes computes only the evaluation's part of the key."""

    request: RequestContext
    subject_id: Optional[str]
    resource_id: Optional[str]
    # The catalog record (`ResourceCatalog.lookup`).
    record: Optional[ResourceRecord]
    # The record's host; without a record, the request's destination,
    # else the default host; None when none of them is known.
    destination: Optional[str]
    # The reserved bags the request alone fixes, as (key, bag) pairs like
    # the catalog's: the record's trusted pairs, then the subject's kind
    # when the registry holds the subject, then the destination's
    # country-code bag when there is a destination. A tuple, so a facts
    # value the body memo holds stays frozen.
    bags: tuple
    tokens: tuple[ProximityToken, ...]
    # (forest, applicable scopes) -> (plan, the body's part of its walk
    # key), at most `_CHOICES_HELD` entries: a full table is emptied before
    # the next. Threads that share the facts may race to fill an entry;
    # its value is a function of its key and the facts, so a race only
    # repeats the choice.
    choices: dict


# -- built-in functions ----------------------------------------------------

FunctionImpl = Callable[[EvaluationContext, list[object]], object]


def _scalar(value: object, expected: type, function: str) -> object:
    if isinstance(value, tuple):
        raise _EvalError(STATUS_PROCESSING_ERROR, f"{function} expects a scalar, got a bag")
    if not isinstance(value, expected):
        raise _EvalError(
            STATUS_PROCESSING_ERROR,
            f"{function} expects {expected.__name__}, got {type(value).__name__}",
        )
    return value


def _only(bag: tuple, function: str) -> object:
    """The one value of a bag argument."""
    if len(bag) == 1:
        return bag[0]
    if not bag:
        raise _EvalError(STATUS_MISSING_ATTRIBUTE, f"{function}: empty bag")
    raise _EvalError(STATUS_PROCESSING_ERROR, f"{function}: bag holds {len(bag)} values")


def _checked(function: str, signature: Signature) -> FunctionImpl:
    """The checked function of a built-in with a signature: it checks the
    argument count, then each argument in order (a bag for its one value,
    or a scalar), then applies the kernel."""
    kinds, kernel = signature.args, signature.kernel

    def checked(ctx: EvaluationContext, args: list[object]) -> object:
        if len(args) != len(kinds):
            message = f"{function} takes {len(kinds)} arguments, got {len(args)}"
            raise _EvalError(STATUS_PROCESSING_ERROR, message)
        values = []
        for value, (expected, bag) in zip(args, kinds):
            if bag:
                if not isinstance(value, tuple):
                    raise _EvalError(STATUS_PROCESSING_ERROR, f"{function} expects a bag, got a scalar")
                value = _only(value, function)
            values.append(_scalar(value, expected, function))
        return kernel(*values)

    return checked


def _fn_location_match(ctx: EvaluationContext, args: list[object]) -> object:
    """True iff the resolved source location lies in any named territory or
    zone category ('restricted'/'unrestricted')."""
    if not args:
        raise _EvalError(STATUS_PROCESSING_ERROR, "function:location-match needs arguments")
    for arg in args:
        name = str(_scalar(arg, str, "function:location-match"))
        if name in ("restricted", "unrestricted"):
            if ctx.source_location is None:
                raise _EvalError(
                    STATUS_MISSING_ATTRIBUTE, "zone classification unavailable"
                )
            if ctx.source_location.zone.value == name:
                return True
            continue
        if name == ctx.source_country:
            return True
        if ctx.source_country in ctx.pips.zones.member_countries(name):
            return True
    return False


# The one function of the walk that reads the source country, zone or
# zone tree (`_walk_reads`).
_LOCATION_MATCH = "function:location-match"

_BUILTINS: dict[str, FunctionImpl] = {
    **{function: _checked(function, signature) for function, signature in SIGNATURES.items()},
    _LOCATION_MATCH: _fn_location_match,
}

# and/or are special forms: the evaluator short-circuits them and tolerates
# operand errors that cannot change the outcome.
_SPECIAL_FORMS = ("function:and", "function:or")


def _is_default_rule(node: PolicyNode) -> bool:
    return (
        node.kind is NodeKind.RULE
        and node.effect is not None
        and node.condition is None
        and node.legislation is None
        and node.target.is_match_any()
    )


def _fulfilled(node: PolicyNode, decision: Decision, reason: str) -> TraceRecord:
    """The node's record with `decision`, carrying those of its obligations
    that are fulfilled on that decision."""
    obligations = tuple([ob for ob in node.obligations if ob.fulfill_on.to_decision() is decision])
    return TraceRecord(node.id, decision, reason, obligations)


# -- the walk -----------------------------------------------------------------
#
# A walk runs only on a response-memo miss. `_walk` appends the trace record
# of every node it completes to `visited`, in completion order, and returns
# the node's decision; every built-in application goes through its checked
# function in `_BUILTINS`.


def _value(expr: ConditionExpr, ctx: EvaluationContext) -> object:
    """The expression's value; raises _EvalError for an error."""
    if isinstance(expr, Literal):
        return expr.value.value
    if isinstance(expr, AttributeSelector):
        data_type = expr.data_type
        return tuple([v.value for v in ctx.lookup((expr.category, expr.attribute_id)) if v.data_type is data_type])
    if isinstance(expr, FunctionApplication):
        function = expr.function
        if function in _SPECIAL_FORMS:
            return _logical(function, expr.args, ctx)
        fn = _BUILTINS.get(function)
        if fn is None:  # fails before any operand is evaluated
            raise _EvalError(STATUS_PROCESSING_ERROR, f"unknown function {function!r}")
        return fn(ctx, [_value(arg, ctx) for arg in expr.args])
    raise _EvalError(STATUS_PROCESSING_ERROR, f"unknown expression node {expr!r}")


def _logical(function: str, operands: tuple[ConditionExpr, ...], ctx: EvaluationContext) -> bool:
    """Short-circuit and/or; an operand error surfaces only when the
    remaining operands cannot decide the outcome."""
    want_all = function == "function:and"
    pending_error: Optional[_EvalError] = None
    for operand in operands:
        try:
            flag = _value(operand, ctx)
            if flag is not True and flag is not False:
                _scalar(flag, bool, function)  # raises
        except _EvalError as exc:
            pending_error = pending_error or exc
            continue
        if flag is not want_all:
            return flag
    if pending_error is not None:
        raise pending_error
    return want_all


def _matches(category: Category, clause: MatchClause, ctx: EvaluationContext) -> bool:
    """True when any request value for the attribute matches the literal."""
    match = _BUILTINS.get(clause.match_function)
    if match is None:  # fails before the bag is read, so even when it is empty
        raise _EvalError(STATUS_PROCESSING_ERROR, f"unknown function {clause.match_function!r}")
    literal = clause.literal.value
    for value in ctx.lookup((category, clause.attribute_id)):
        if match(ctx, [value.value, literal]) is True:
            return True
    return False


def _miss(node: PolicyNode, ctx: EvaluationContext) -> Optional[TraceRecord]:
    """None when the node applies, else its NotApplicable or Indeterminate
    record: the legislation set is checked first, then each non-empty
    clause list of the target in order."""
    legislation = node.legislation
    if legislation is not None and legislation.isdisjoint(ctx.applicable_scopes):
        return TraceRecord(node.id, Decision.NOT_APPLICABLE, _legislation_miss(legislation))
    for category, clauses in node.target.sections():
        if not clauses:
            continue
        try:
            if not any(_matches(category, clause, ctx) for clause in clauses):
                return TraceRecord(node.id, Decision.NOT_APPLICABLE, _target_miss(category))
        except _EvalError as exc:
            return TraceRecord(node.id, Decision.INDETERMINATE, f"target-error:{exc}")
    return None


def _walk(node: PolicyNode, ctx: EvaluationContext, visited: list) -> Decision:
    miss = _miss(node, ctx)
    if miss is not None:
        visited.append(miss)
        return miss.decision
    if node.kind is NodeKind.RULE:
        if node.condition is not None:
            try:
                value = _value(node.condition, ctx)
                status = None if value is True or value is False else STATUS_PROCESSING_ERROR
            except _EvalError as exc:
                status = exc.status
            if status is not None:
                visited.append(TraceRecord(node.id, Decision.INDETERMINATE, f"condition-error:{status}"))
                return Decision.INDETERMINATE
            if value is False:
                visited.append(TraceRecord(node.id, Decision.NOT_APPLICABLE, "condition-false"))
                return Decision.NOT_APPLICABLE
        # Raises for a rule without an effect, which validate_document reports.
        decision = node.effect.to_decision()
        visited.append(_fulfilled(node, decision, "effect"))
        return decision
    children, default = node.children, None
    if node.kind is NodeKind.POLICY and children and _is_default_rule(children[-1]):
        children, default = children[:-1], children[-1]
    decisions = tuple([_walk(child, ctx, visited) for child in children])
    combiner = STANDARD.get(node.combining)
    if combiner is None:
        reason = f"combiner-error:unknown combining algorithm {node.combining!r}"
        visited.append(TraceRecord(node.id, Decision.INDETERMINATE, reason))
        return Decision.INDETERMINATE
    decision = combiner(decisions)
    if decision is Decision.NOT_APPLICABLE and default is not None:
        decision = default.effect.to_decision()
        visited.append(_fulfilled(default, decision, "default-rule"))
    visited.append(_fulfilled(node, decision, f"combined:{node.combining}"))
    return decision


class PolicyDecisionPoint:
    """The decision engine. It holds no state: the trusted bags a context
    takes are built at load, with the resource catalog and the zone tree,
    and the memos of a forest live in its `CompiledForest`."""

    def compile(self, documents: Iterable[PolicyDocument]) -> "CompiledForest":
        """The forest compiled for evaluation, the one way to build a
        `CompiledForest`."""
        return CompiledForest(documents)

    # -- context construction ---------------------------------------------

    def facts(self, request: RequestContext, pips: PipBundle) -> RequestFacts:
        """What the context build reads of the request alone, from the
        bundle's load-time stores: the same for every evaluation of the
        request with `pips`."""
        subject_id = request.subject_id()
        kind = pips.identities.kind_of(subject_id) if subject_id else None
        resource_id = request.resource_id()
        record, bags = pips.resources.lookup(resource_id)
        if kind is not None:
            bags += (_KIND_PAIRS[kind],)
        # A resource the catalog holds is where its record hosts it, so no
        # request line can drop the host's legislation; a line names the
        # destination only of a resource the catalog does not hold.
        if record is not None:
            destination = record.host_country
        else:
            destination = request.destination_country or pips.resources.default_host
        if destination is not None:
            bag = pips.zones.country_bags.get(destination) or (AttributeValue._trusted(DataType.COUNTRY_CODE, destination),)
            bags += ((_DESTINATION_KEY, bag),)
        # Tokens travel as environment attributes 'customer|method|instant';
        # one that is not a string of three fields, names an unknown
        # method, or whose instant does not parse, is skipped.
        tokens = ()
        for attribute_id, value in request.environment:
            if attribute_id != PROXIMITY_TOKEN or value.data_type is not DataType.STRING:
                continue
            pieces = value.value.split("|")
            if len(pieces) != 3 or pieces[1] not in TOKEN_METHODS:
                continue
            customer, method, instant = pieces
            try:
                verified_at = parse_instant(instant)
            except ValueError:
                continue
            tokens += (ProximityToken._checked(customer, verified_at, method),)
        # tuple.__new__ skips the generated __new__, a Python call per body.
        return tuple.__new__(
            RequestFacts, (request, subject_id, resource_id, record, destination, bags, tokens, {})
        )

    def _build_context(
        self, request: RequestContext | RequestFacts, pips: PipBundle, now: Optional[dt.datetime] = None
    ) -> EvaluationContext:
        """The evaluation context of a request, or of the facts `facts`
        built of one with the same `pips`, at the instant `now` (else the
        clock's): from the facts, it builds only what depends on the
        instant or on a supplier."""
        facts = request if type(request) is RequestFacts else self.facts(request, pips)
        request = facts.request
        if now is None:
            now = pips.clock.now_utc()

        report, precision_country = request.source_location, None
        if report is None:
            try:
                report = pips.location.locate(request)
            except PrecisionError as exc:
                if exc.country is None:
                    raise
                # Country is certain, the zone is not: continue degraded so
                # the pseudonymous fallback can still apply.
                precision_country = exc.country

        source_country = report.country if report is not None else precision_country
        destination = facts.destination
        if source_country is None or destination is None:
            raise LexgateError("source or destination country cannot be resolved")

        ctx = EvaluationContext(request, pips, report, source_country, destination)

        # The values below come from the loaded stores and the location
        # snapshot, never from the request, so they skip the payload checks;
        # all but the local time and date, and a country the zone tree does
        # not hold, are bags built at load.
        cache, trusted = ctx._cache, AttributeValue._trusted
        # Local time survives a zone-precision failure: the country (the
        # source country, without a report) and so its timezone are still
        # certain, only the zone is not, so current-zone stays absent.
        if report is not None:
            tz_offset = report.timezone_offset
            cache[Category.ENVIRONMENT, "current-zone"] = _MEMBER_BAGS[report.zone]
        else:
            tz_offset = pips.zones.country(source_country).timezone_offset
        local_date, local_clock = local_time(now, tz_offset)
        cache[Category.ENVIRONMENT, "current-time"] = (trusted(DataType.TIME_OF_DAY, local_clock),)
        cache[Category.ENVIRONMENT, "current-date"] = (trusted(DataType.DATE, local_date),)
        cache[Category.ENVIRONMENT, "source-country"] = pips.zones.country_bags.get(source_country) or (
            trusted(DataType.COUNTRY_CODE, source_country),
        )
        cache.update(facts.bags)
        subject_id, record = facts.subject_id, facts.record
        if record is not None and subject_id and record.customers:
            relation = pips.identities.check_relationship(subject_id, record.customers, now)
            cache[Category.SUBJECT, "relationship"] = _MEMBER_BAGS[relation]

        assessment = pips.diary.check_task(
            subject_id or "", facts.resource_id or "", now, report, facts.tokens, pips.identities
        )
        cache[Category.ENVIRONMENT, "task-status"] = _MEMBER_BAGS[assessment]
        return ctx

    # -- the entry point ------------------------------------------------------

    def evaluate(
        self,
        forest: "CompiledForest",
        request: RequestContext | RequestFacts,
        pips: PipBundle,
        *,
        legislation_mode: str = "aware",
        now: Optional[dt.datetime] = None,
    ) -> ResponseContext:
        """Evaluate the document forest `compile` built for a request, or
        for the facts `facts` built of one with the same `pips`, at the
        instant `now`, else at the one `pips.clock` reads. No evaluation
        failure raises past this boundary; only a bad argument does: an
        unknown legislation mode with ValueError, and anything but a
        `CompiledForest` with TypeError."""
        if legislation_mode not in ("aware", "ignore-tags"):
            raise ValueError(f"unknown legislation mode {legislation_mode!r}")
        if not isinstance(forest, CompiledForest):
            raise TypeError("evaluate takes a CompiledForest; build it with compile")
        # The trace is built in document order; `visited` holds the records
        # of every walked document, those of the document being walked from
        # `mark` on.
        trace: list[TraceRecord] = []
        visited: list[TraceRecord] = []
        mark = 0
        try:
            facts = request if type(request) is RequestFacts else self.facts(request, pips)
            ctx = self._build_context(facts, pips, now)
            # An undeclared country is refused in both modes. A node reads
            # the scopes only through `isdisjoint` with its legislation set,
            # a subset of the forest's scopes, so the observed scopes are
            # kept only where the forest names them; ignoring the tags
            # observes every scope the forest names.
            scopes = pips.scopes.select_legislation(ctx.source_country, ctx.destination_country) & forest.scopes
            ctx.applicable_scopes = scopes = forest.scopes if legislation_mode == "ignore-tags" else scopes
            choices = facts.choices
            chosen = choices.get((forest, scopes))
            if chosen is None:
                plan = forest.plan(ctx)
                chosen = plan, _walk_key(plan.body_reads, ctx)
                if len(choices) >= _CHOICES_HELD:
                    choices.clear()
                choices[forest, scopes] = chosen
            plan, key = chosen
            key += _walk_key(plan.evaluation_reads, ctx)
            response = plan.responses.get(key)
            if response is not None:
                return response
            runs, views = plan.runs, plan.views
            trace += runs[0]
            body = [views[0]]
            decisions = []  # NotApplicable is the identity of the top combiner
            for index, run, view in zip(plan.walk, runs[1:], views[1:]):
                decision = _walk(forest.roots[index], ctx, visited)
                records = visited[mark:]
                trace += records
                trace += run
                body += (trace_text(records), view)
                mark = len(visited)
                if decision is not Decision.NOT_APPLICABLE:
                    decisions.append(decision)
            final = combine(TOP_COMBINER, decisions)
        except Exception as exc:  # PIP failures must not escape the boundary
            trace += visited[mark:]
            return refusal("<context>", Decision.INDETERMINATE, STATUS_PROCESSING_ERROR, str(exc), trace)

        # The top combiner, deny-overrides, never yields Indeterminate, so a
        # completed walk answers ok, with the obligations its records carry
        # for the final decision.
        obligations = [ob for record in visited if record.decision is final for ob in record.obligations]
        response = ResponseContext(final, STATUS_OK, tuple(obligations), Trace(trace, tuple(body)))
        return plan.responses.put(key, response)


# -- the compiled forest -----------------------------------------------------------


def _legislation_miss(legislation: frozenset[str]) -> str:
    return "legislation-scope-miss:" + ",".join(sorted(legislation))


def _target_miss(category: Category) -> str:
    return f"target-no-match:{category.value}"


def _literal_key(target: Target) -> Optional[tuple[tuple[Category, str], str]]:
    """((category, attribute), literal) when the first non-empty clause
    list is one string-equal clause on a string literal and the attribute
    is not set per evaluation (`PER_EVALUATION`), else None; so a plan
    depends only on the scopes and the bags a request's facts fix."""
    for category, clauses in target.sections():
        if not clauses:
            continue
        if len(clauses) != 1:
            return None
        clause = clauses[0]
        attribute = category, clause.attribute_id
        if (
            clause.match_function != _STRING_EQUAL
            or not isinstance(clause.literal.value, str)
            or attribute in PER_EVALUATION
        ):
            return None
        return attribute, clause.literal.value
    return None


def _string_payloads(bag: tuple[AttributeValue, ...]) -> Optional[list[str]]:
    """The bag's payloads when every one is a string, else None: string-equal
    raises on any other payload, so only an all-string bag can be screened."""
    payloads = [value.value for value in bag]
    if all(isinstance(payload, str) for payload in payloads):
        return payloads
    return None


# The plan and screen memos' bound, the terms of `responses_held`, and the
# bound of a request's `RequestFacts.choices`.
_PLANS_HELD = 256
_RESPONSES_HELD = 32
_PLAN_RECORDS_HELD = 4096
_CHOICES_HELD = 8


class Screen(NamedTuple):
    """What one legislation-scope set makes of the forest before any
    literal is read."""

    # The documents whose root's legislation set meets the scopes (every
    # document when the scopes are all those the forest names).
    candidates: frozenset[int]
    # Per document, the record it gives when it is not walked: a
    # candidate's target miss, any other document's legislation miss;
    # None for a candidate without a literal key, which is always walked.
    records: tuple[Optional[TraceRecord], ...]
    # Those records' wire lines, each ending in a line feed, in document
    # order, as UTF-8; every plan of the scope set takes views of this text.
    text: bytes
    # The byte offset of each document's line in `text`, then len(text).
    offsets: array


class Plan(NamedTuple):
    """How one kind of request meets the forest."""

    # The screened documents' records: those before each walked document,
    # then those after the last; len(runs) == len(walk) + 1.
    runs: tuple[tuple[TraceRecord, ...], ...]
    # The documents to walk, in document order.
    walk: tuple[int, ...]
    # What the body's and the evaluation's parts of a request's walk key
    # read (`_walk_reads`, `_walk_key`).
    body_reads: "KeyReads"
    evaluation_reads: "KeyReads"
    # The finished responses by walk key, the body's part then the
    # evaluation's.
    responses: Memo
    # Per run, the view of its records' wire lines in the screen's text.
    views: tuple[memoryview, ...]


_TIME_ORDER = ("function:time-greater-than-or-equal", "function:time-less-than-or-equal")
_TIME_ONE_AND_ONLY = "function:time-one-and-only"


def _compared_time(expr: FunctionApplication) -> Optional[tuple[AttributeSelector, object]]:
    """(selector, literal payload) when the application compares, by time
    order, the time-one-and-only of a selector with a literal; else None."""
    if expr.function not in _TIME_ORDER or len(expr.args) != 2:
        return None
    value, literal = expr.args
    if isinstance(value, Literal):
        value, literal = literal, value
    if (
        isinstance(literal, Literal)
        and isinstance(value, FunctionApplication)
        and value.function == _TIME_ONE_AND_ONLY
        and len(value.args) == 1
        and isinstance(value.args[0], AttributeSelector)
    ):
        return value.args[0], literal.value.value
    return None


def _time_slot(value: AttributeValue, times: tuple[dt.time, ...]) -> tuple:
    """A bag value as an order comparison with the sorted time literals
    `times` sees it, in three fields: a naive time by where it falls among
    them, any other value exactly."""
    payload = value.value
    if type(payload) is dt.time and payload.tzinfo is None:
        return value.data_type, None, (bisect_left(times, payload), bisect_right(times, payload))
    return value.data_type, type(payload), payload


class KeyReads(NamedTuple):
    """What one part of a walk key reads (`_walk_key`)."""

    # The attributes whose bags count by their exact values.
    exact: tuple[tuple[Category, str], ...]
    # The attributes that count by the places of their naive times among
    # the sorted time literals each is compared with.
    ordered: tuple[tuple[tuple[Category, str], tuple[dt.time, ...]], ...]
    # Whether the part ends with the source country, zone and zone tree.
    located: bool


def _walk_reads(roots: Iterable[PolicyNode]) -> tuple[KeyReads, KeyReads]:
    """What the walk key of the requests that walk `roots` reads, as the
    body's part and the evaluation's part: a value of the two parts, in
    that order, fixes every walk of those roots under one plan. A pass
    over their targets and conditions finds each attribute that a match
    clause or a selector reads. Its bag counts by its exact values,
    except an attribute whose every read compares it, as a match clause
    or the time-one-and-only of its selector, by time order with a time
    literal: its naive times count by their place among those literals
    (`_time_slot`). The body's part reads every such attribute that is
    not set per evaluation (`PER_EVALUATION`), so it is the same for
    every evaluation of one request under the plan; the evaluation's part
    reads the others and, when a walked node calls location-match in a
    target clause or anywhere in a condition, ends with the source
    country, the zone and the zone tree, which that function alone of the
    walk reads."""
    # Per attribute read, the time literals it is compared with; None once
    # a read needs its exact values.
    literals: dict[tuple[Category, str], Optional[set]] = {}
    located = False

    def read(category: Category, attribute_id: str, literal: object = None) -> None:
        attribute = (category, attribute_id)
        if type(literal) is dt.time and literal.tzinfo is None:
            times = literals.setdefault(attribute, set())
            if times is not None:
                times.add(literal)
        else:
            literals[attribute] = None

    def visit(expr: ConditionExpr) -> None:
        """Note what the expression reads."""
        nonlocal located
        if isinstance(expr, AttributeSelector):
            read(expr.category, expr.attribute_id)
            return
        if not isinstance(expr, FunctionApplication):
            return
        located = located or expr.function == _LOCATION_MATCH
        compared = _compared_time(expr)
        if compared is not None:
            selector, literal = compared
            read(selector.category, selector.attribute_id, literal)
            return
        for arg in expr.args:
            visit(arg)

    stack = list(roots)
    while stack:
        node = stack.pop()
        stack += node.children
        for category, clauses in node.target.sections():
            for clause in clauses:
                compared = clause.match_function in _TIME_ORDER
                read(category, clause.attribute_id, clause.literal.value if compared else None)
                located = located or clause.match_function == _LOCATION_MATCH
        if node.condition is not None:
            visit(node.condition)

    def part(evaluation: bool) -> KeyReads:
        here = [(attribute, times) for attribute, times in literals.items()
                if (attribute in PER_EVALUATION) is evaluation]
        return KeyReads(
            tuple(attribute for attribute, times in here if times is None),
            tuple((attribute, tuple(sorted(times))) for attribute, times in here if times is not None),
            located and evaluation,
        )

    return part(False), part(True)


def _walk_key(reads: KeyReads, ctx: EvaluationContext) -> tuple:
    """The part of the walk key of the request in `ctx` that `reads`
    says: one flat tuple, per attribute its bag's length, then three
    fields per value, (data type, payload type, payload) or its time slot
    (`_time_slot`); then, when located, the source country, the zone and
    the zone tree. Nested tuples would cost a list and a tuple per
    attribute. A bag the context already holds is read without a lookup."""
    exact, ordered, located = reads
    cache = ctx._cache
    key = []
    for attribute in exact:
        bag = cache.get(attribute)
        if bag is None:
            bag = ctx.lookup(attribute)
        key.append(len(bag))
        for value in bag:
            payload = value.value
            key += (value.data_type, type(payload), payload)
    for attribute, times in ordered:
        bag = cache.get(attribute)
        if bag is None:
            bag = ctx.lookup(attribute)
        key.append(len(bag))
        for value in bag:
            key += _time_slot(value, times)
    if located:
        report = ctx.source_location
        key += (ctx.source_country, None if report is None else report.zone, ctx.pips.zones)
    return tuple(key)


class CompiledForest:
    """The document forest, screened so that per-request work follows the
    applicable documents rather than the forest's size (the XEngine idea:
    Liu, Chen, Hwang and Xie, SIGMETRICS 2008).

    A document is walked only when its root's legislation set meets the
    request's scopes and, if its root target opens with a single
    string-equal clause on a string literal (its literal key) and on an
    attribute not set per evaluation (`PER_EVALUATION`), the request's bag
    for that attribute holds the literal or a value that is not a string.
    Any other document would evaluate to its root's
    NotApplicable record alone, so it contributes that record, built here
    once, and the trace stays the one a full walk produces. A screen or
    plan build finds those documents by one scan of the roots.

    `scopes` is the union of the legislation sets of every node, the
    scopes a request observes under ignore-tags; in aware mode `evaluate`
    keeps only the observed scopes it names, which is all a legislation
    check can tell apart. Which record a document gives when it is not
    walked depends on the scopes alone, so a `Screen` per scope set holds
    those records and, rendered once, their wire lines as one UTF-8 text
    with each document's byte offset in it.

    The plan for a request depends only on the request's scopes (those
    the forest names) and, per attribute that roots are keyed on
    (`selectors`), which of its literals the bag holds (or that the bag
    holds a value that is not a string). That is the plan memo's key, so
    caller text that is no literal never enters it; and it reads no
    attribute set per evaluation, so `evaluate` keeps a request's plan per
    scope set with its facts (`RequestFacts.choices`).
    A plan is made on the first request with its key and kept with the
    screened records grouped into runs between the walked documents; per
    run, a view of its records' lines in its screen's text (a plan holds
    no text of its own); and a memo of finished responses. A response's
    trace body is those views with, in between, each walked document's
    lines, rendered as it is walked.

    Under one plan, the walk is a function of what the walked documents
    read: the bags their target clauses and selectors read (a time
    compared only by order with time literals counts by its place among
    those literals) and, when one of them calls location-match in a
    target clause or a condition, the source country, zone and zone
    tree, which that function alone reads. That is the walk key, whose
    reads are derived when the plan is made (`_walk_reads`) in two parts:
    the body's, the bags the request's facts fix, which `evaluate` keeps
    with the plan in the facts' choices, and the evaluation's, the bags
    set per evaluation and the location, computed for every request
    (`_walk_key`). Besides the bags and the location, a walk reads only
    the scopes, which the plan key holds.
    A plan maps it to the finished `ResponseContext` (decision, status,
    obligations and the `Trace` with its digest and body), so a request
    whose walk key was seen before gets that response without a walk, a
    trace build or a hash. Its obligations are those its
    walked records carry for its decision (`TraceRecord.obligations`).
    Only responses of a completed walk are kept, never the `<context>`
    error response. The plan, screen and response memos are `model.Memo`s,
    bounded as its table says; a plan's response memo takes its bound from
    `responses_held` when the plan is made, and keeps at least one
    response at any forest size.

    A response-memo miss walks each of the plan's documents from its root
    (`_walk`). Build one with `PolicyDecisionPoint.compile`; a node id,
    obligation id or obligation parameter name that is not one wire field
    (`is_one_field`), or a string parameter value that is not wire text
    (`is_wire_text`), is refused with ValueError, since no response could
    carry its trace, obligation or param line. So is a node whose
    legislation set is empty, which no scope meets, not even under
    ignore-tags (`validate_document` reports it).
    """

    def __init__(self, documents: Iterable[PolicyDocument]):
        documents = tuple(documents)
        scopes: set[str] = set()
        for document in documents:
            for node in document.walk():
                if node.legislation is not None:
                    if not node.legislation:
                        where = f"node {node.id!r} in {document.source_name}"
                        raise ValueError(f"{where} has an empty legislation set, which no scope meets")
                    scopes |= node.legislation
                parameters = [parameter for ob in node.obligations for parameter in ob.parameters]
                fields = [("node id", node.id), *(("obligation id", ob.id) for ob in node.obligations)]
                fields += [("obligation parameter", name) for name, _ in parameters]
                for what, text in fields:
                    if not is_one_field(text):
                        raise ValueError(f"{what} {text!r} in {document.source_name} is not one wire field")
                for name, value in parameters:
                    if isinstance(value.value, str) and not is_wire_text(value.value):
                        where = f"obligation parameter {name} in {document.source_name}"
                        raise ValueError(f"{where}: value {value.value!r} is not wire text")
        self.scopes = frozenset(scopes)
        self.roots = tuple(document.root for document in documents)
        self.responses_held = max(1, min(_RESPONSES_HELD, _PLAN_RECORDS_HELD // max(1, len(self.roots))))
        self._screens = Memo(_PLANS_HELD)
        self._plans = Memo(_PLANS_HELD)
        # Per document: its root's literal key (`_literal_key`), and the
        # records of a legislation miss (None when the root is untagged) and
        # of a miss on the literal key (None without one).
        self.literal_keys = tuple(_literal_key(root.target) for root in self.roots)
        self.legislation_misses = tuple(
            None if root.legislation is None
            else TraceRecord(root.id, Decision.NOT_APPLICABLE, _legislation_miss(root.legislation))
            for root in self.roots
        )
        self.target_misses = tuple(
            None if key is None
            else TraceRecord(root.id, Decision.NOT_APPLICABLE, _target_miss(key[0][0]))
            for root, key in zip(self.roots, self.literal_keys)
        )
        # Per keyed attribute, in the order roots first key it, its literals.
        literals: dict[tuple[Category, str], set[str]] = {}
        for key in self.literal_keys:
            if key is not None:
                literals.setdefault(key[0], set()).add(key[1])
        self.selectors = tuple((attribute, frozenset(values)) for attribute, values in literals.items())

    def plan(self, ctx: EvaluationContext) -> Plan:
        """The plan for the request, from the memo when a request with the
        same key was planned before."""
        parts = [ctx.applicable_scopes]
        for attribute, literals in self.selectors:
            payloads = _string_payloads(ctx.lookup(attribute))
            parts.append(None if payloads is None else tuple([p for p in payloads if p in literals]))
        key = tuple(parts)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans.put(key, self._plan(key))
        return plan

    def _plan(self, key: tuple) -> Plan:
        """The plan for a memo key: (the scopes; then per selector the
        literals hit, or None for a bag that is not all strings)."""
        scopes = key[0]
        screen = self._screens.get(scopes)
        if screen is None:
            screen = self._screens.put(scopes, self._screen(scopes))
        # A candidate is walked unless its root is keyed on a literal that
        # an all-string bag lacks.
        hits = dict(zip([attribute for attribute, _literals in self.selectors], key[1:]))
        walk = []
        for index in sorted(screen.candidates):
            literal_key = self.literal_keys[index]
            literals = None if literal_key is None else hits[literal_key[0]]
            if literals is None or literal_key[1] in literals:
                walk.append(index)
        bounds = list(zip([-1, *walk], [*walk, len(self.roots)]))
        runs = tuple(screen.records[start + 1:end] for start, end in bounds)
        body_reads, evaluation_reads = _walk_reads([self.roots[index] for index in walk])
        text, offsets = memoryview(screen.text), screen.offsets
        views = tuple(text[offsets[start + 1]:offsets[end]] for start, end in bounds)
        return Plan(runs, tuple(walk), body_reads, evaluation_reads, Memo(self.responses_held), views)

    def _screen(self, scopes: frozenset[str]) -> Screen:
        """The screen for a scope set."""
        candidates = frozenset(
            index for index, root in enumerate(self.roots)
            if root.legislation is None or not root.legislation.isdisjoint(scopes)
        )
        records = tuple(
            self.target_misses[index] if index in candidates else self.legislation_misses[index]
            for index in range(len(self.roots))
        )
        lines = [b"" if record is None else f"{record.wire_line}\n".encode("utf-8") for record in records]
        offsets = array("q", accumulate(map(len, lines), initial=0))
        return Screen(candidates, records, b"".join(lines), offsets)
