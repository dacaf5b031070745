"""Policy decision point: applicability, conditions, tree evaluation.

Evaluation is a pure function of (documents, request, supplier snapshot):
the location supplier is consulted at most once per call, the clock once,
and every derived attribute is cached write-once, so repeated evaluations
return identical responses including the trace.

Responses are recycled: the context is built for every request, but the
walk of the documents is a function of the request's plan and of the
attribute bags those documents read (a time compared only by order with
literals counts by its place among them), and of the source's place only
where one of them calls location-match, so each plan of the compiled
forest keeps a bounded memo from that walk key to the finished response
(`CompiledForest`). A request whose key was seen before gets that
response without a walk.

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
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional

from .combining import STANDARD, combine
from .context.bundle import PipBundle
from .context.clock import local_time
from .context.diary import TaskAssessment
from .context.identity import IdentityKind, ProximityToken, Relationship
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
    fits,
    is_one_field,
    is_wire_text,
    operand_type,
    refusal,
    trace_text,
)
from .parsing.location_xml import LocationReport, ZoneKind
from .parsing.wire import PROXIMITY_TOKEN, RequestContext

# Reserved attribute ids the context handler fills from trusted suppliers;
# request-supplied values never override them.
ENV_CURRENT_TIME = "current-time"
ENV_CURRENT_DATE = "current-date"
ENV_CURRENT_ZONE = "current-zone"
ENV_SOURCE_COUNTRY = "source-country"
ENV_DESTINATION_COUNTRY = "destination-country"
ENV_TASK_STATUS = "task-status"
SUBJECT_KIND = "kind"
SUBJECT_RELATIONSHIP = "relationship"
RESOURCE_CONFIDENTIAL = "confidential"
RESOURCE_CUSTOMER_RELATED = "customer-related"
RESOURCE_HOST_COUNTRY = "host-country"
RESOURCE_CATEGORY = "category"

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
        source_country: Optional[str],
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
        """The bag for a (category, attribute id) key."""
        values = self._cache.get(key)
        if values is None:
            values = self._cache[key] = self.request.bag(*key)
        return values


# The one-value string bag of each member of the enums the context build
# reads (zone, identity kind, relationship, task status), built once.
_MEMBER_BAGS = {
    member: (AttributeValue._trusted(DataType.STRING, member.value),)
    for enum in (ZoneKind, IdentityKind, Relationship, TaskAssessment)
    for member in enum
}


def _proximity_tokens(request: RequestContext) -> tuple[ProximityToken, ...]:
    """Tokens travel as environment attributes 'customer|method|instant'."""
    tokens = []
    for value in request.bag(Category.ENVIRONMENT, PROXIMITY_TOKEN):
        if value.data_type is not DataType.STRING:
            continue
        pieces = str(value.value).split("|")
        if len(pieces) != 3:
            continue
        try:
            tokens.append(
                ProximityToken(
                    customer=pieces[0],
                    method=pieces[1],
                    verified_at=parse_instant(pieces[2]),
                )
            )
        except ValueError:
            continue
    return tuple(tokens)


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
        if ctx.source_country is None:
            raise _EvalError(STATUS_MISSING_ATTRIBUTE, "source country unavailable")
        if name == ctx.source_country:
            return True
        if ctx.source_country in ctx.pips.zones.member_countries(name):
            return True
    return False


# The one function of the walk that reads the source country, zone or
# zone tree (`_walk_key`).
_LOCATION_MATCH = "function:location-match"

_BUILTINS: dict[str, FunctionImpl] = {
    **{function: _checked(function, signature) for function, signature in SIGNATURES.items()},
    _LOCATION_MATCH: _fn_location_match,
}

# and/or are special forms: the evaluator short-circuits them and tolerates
# operand errors that cannot change the outcome.
_SPECIAL_FORMS = ("function:and", "function:or")


# A compiled target check: None when the node applies, else its record.
Applies = Callable[[EvaluationContext], Optional[TraceRecord]]
# A compiled node: appends the record of each node it completes, returns
# the node's decision.
Walk = Callable[[EvaluationContext, list], Decision]


def _raiser(status: str, message: str) -> Callable[..., object]:
    """Code that raises a fresh `_EvalError(status, message)` each time it
    runs."""

    def fail(*_args: object) -> object:
        raise _EvalError(status, message)

    return fail


def _typed(function: str, signature: Signature, operands: tuple) -> Callable[[EvaluationContext], object]:
    """A well-typed built-in application: the kernel over its operands'
    values, taking a bag operand's (a selector's) one value."""
    kernel = signature.kernel
    if len(operands) == 2:
        first, second = operands
        return lambda ctx: kernel(first(ctx), second(ctx))
    (only,) = operands
    if signature.args[0][1]:
        return lambda ctx: kernel(_only(only(ctx), function))
    return lambda ctx: kernel(only(ctx))


def _compile_logical(function: str, operands: tuple) -> Callable[[EvaluationContext], bool]:
    """Short-circuit and/or; an operand error surfaces only when the
    remaining operands cannot decide the outcome."""
    want_all = function == "function:and"

    def logical(ctx: EvaluationContext) -> bool:
        pending_error: Optional[_EvalError] = None
        for operand in operands:
            try:
                flag = operand(ctx)
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

    return logical


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


class PolicyDecisionPoint:
    """The decision engine. Its one state is the trusted-bag memo
    (`model.Memo`); the memos of a forest live in its `CompiledForest`."""

    def __init__(self) -> None:
        self._bags = Memo(1024)

    def _trusted_bag(self, data_type: DataType, value: object) -> tuple[AttributeValue]:
        """The one-value bag of a trusted value, shared by every request."""
        key = data_type, value
        return self._bags.get(key) or self._bags.put(key, (AttributeValue._trusted(data_type, value),))

    def compile(self, documents: Iterable[PolicyDocument]) -> "CompiledForest":
        """The forest indexed for this engine, the one way to build a
        `CompiledForest`; each root is compiled to closures the first time
        a request walks it."""
        return CompiledForest(documents, self)

    # -- context construction ---------------------------------------------

    def _build_context(self, request: RequestContext, pips: PipBundle) -> EvaluationContext:
        now = pips.clock.now_utc()

        report = request.source_location
        precision_country: Optional[str] = None
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
        resource_id = request.resource_id()
        record = pips.resources.get(resource_id) if resource_id else None
        destination = request.destination_country or pips.resources.host_country(resource_id)
        if source_country is None or destination is None:
            raise LexgateError("source or destination country cannot be resolved")

        ctx = EvaluationContext(
            request=request,
            pips=pips,
            source_location=report,
            source_country=source_country,
            destination_country=destination,
        )

        # The values below come from the loaded stores and the location
        # snapshot, never from the request, so they skip the payload checks;
        # all but the local time and date are shared bags.
        cache, bag = ctx._cache, self._trusted_bag
        trusted = AttributeValue._trusted
        # Local time survives a zone-precision failure: the country (and so
        # its timezone) is still certain, only the zone classification is
        # not, so current-zone stays absent while current-time is served.
        tz_offset: Optional[float] = None
        if report is not None:
            tz_offset = report.timezone_offset
        elif precision_country is not None:
            tz_offset = pips.zones.country(precision_country).timezone_offset
        if tz_offset is not None:
            local_date, local_clock = local_time(now, tz_offset)
            cache[Category.ENVIRONMENT, ENV_CURRENT_TIME] = (trusted(DataType.TIME_OF_DAY, local_clock),)
            cache[Category.ENVIRONMENT, ENV_CURRENT_DATE] = (trusted(DataType.DATE, local_date),)
        if report is not None:
            cache[Category.ENVIRONMENT, ENV_CURRENT_ZONE] = _MEMBER_BAGS[report.zone]
        cache[Category.ENVIRONMENT, ENV_SOURCE_COUNTRY] = bag(DataType.COUNTRY_CODE, source_country)
        cache[Category.ENVIRONMENT, ENV_DESTINATION_COUNTRY] = bag(DataType.COUNTRY_CODE, destination)

        subject_id = request.subject_id()
        subject_record = pips.identities.get(subject_id) if subject_id else None
        if subject_record is not None:
            cache[Category.SUBJECT, SUBJECT_KIND] = _MEMBER_BAGS[subject_record.kind]

        if record is not None:
            cache[Category.RESOURCE, RESOURCE_CONFIDENTIAL] = bag(DataType.BOOLEAN, record.confidential)
            cache[Category.RESOURCE, RESOURCE_CUSTOMER_RELATED] = bag(DataType.BOOLEAN, record.customer_related)
            cache[Category.RESOURCE, RESOURCE_HOST_COUNTRY] = bag(DataType.COUNTRY_CODE, record.host_country)
            if record.category:
                cache[Category.RESOURCE, RESOURCE_CATEGORY] = bag(DataType.STRING, record.category)
            if subject_id and record.customers:
                relation = pips.identities.check_relationship(subject_id, record.customers, now)
                cache[Category.SUBJECT, SUBJECT_RELATIONSHIP] = _MEMBER_BAGS[relation]

        assessment = pips.diary.check_task(
            subject_id or "",
            resource_id or "",
            now,
            report,
            _proximity_tokens(request),
            pips.identities,
        )
        cache[Category.ENVIRONMENT, ENV_TASK_STATUS] = _MEMBER_BAGS[assessment]
        return ctx

    # -- compilation -----------------------------------------------------------
    #
    # A node compiles to one closure walk(ctx, visited) -> Decision. The walk
    # appends the trace record of every node it completes to `visited`, in
    # completion order, and returns the node's decision. The functions,
    # combiners and literal payloads are resolved here, and so is every
    # record whose reason is fixed, with the obligations it carries
    # (`_fulfilled`); only target-error and condition-error records are
    # built per request. An unknown function or combiner compiles to code
    # that fails at evaluation, at the point and with the message the walk
    # has always given.

    def _compile_node(self, node: PolicyNode) -> "Walk":
        applies = self._compile_applicability(node)
        if node.kind is NodeKind.RULE:
            return self._compile_rule(node, applies)
        return self._compile_container(node, applies)

    def _compile_applicability(self, node: PolicyNode) -> Optional[Applies]:
        """None for a node that always applies, else a closure giving None
        when the node applies and its NotApplicable or Indeterminate record
        when it does not."""
        node_id = node.id
        legislation = node.legislation
        legislation_miss = (
            None if legislation is None
            else TraceRecord(node_id, Decision.NOT_APPLICABLE, _legislation_miss(legislation))
        )
        # Per non-empty clause list: its record on a miss and its matchers.
        sections = tuple(
            (
                TraceRecord(node_id, Decision.NOT_APPLICABLE, _target_miss(category)),
                tuple(self._compile_clause(category, clause) for clause in clauses),
            )
            for category, clauses in node.target.sections()
            if clauses
        )
        if legislation is None and not sections:
            return None

        def applies(ctx: EvaluationContext) -> Optional[TraceRecord]:
            if legislation is not None and legislation.isdisjoint(ctx.applicable_scopes):
                return legislation_miss
            for miss, matchers in sections:
                try:
                    for matches in matchers:
                        if matches(ctx):
                            break
                    else:  # no clause of the list matched
                        return miss
                except _EvalError as exc:
                    return TraceRecord(node_id, Decision.INDETERMINATE, f"target-error:{exc}")
            return None

        return applies

    def _compile_clause(self, category: Category, clause: MatchClause) -> Callable[[EvaluationContext], bool]:
        """True when any request value for the attribute matches the literal.
        Once the literal fits, a value of the first argument's exact type
        skips the checks; any other takes the checked function."""
        function = clause.match_function
        match = _BUILTINS.get(function)
        if match is None:  # fails before the bag is read, so even when it is empty
            return _raiser(STATUS_PROCESSING_ERROR, f"unknown function {function!r}")
        key = (category, clause.attribute_id)
        literal = clause.literal.value
        signature = SIGNATURES.get(function)
        expected = kernel = None  # no payload's type is None: every value is checked
        if signature is not None and fits(signature, (None, (type(literal), False))):
            expected, kernel = signature.args[0][0], signature.kernel

        def matches(ctx: EvaluationContext) -> bool:
            for value in ctx.lookup(key):
                payload = value.value
                if kernel(payload, literal) if type(payload) is expected else match(ctx, [payload, literal]) is True:
                    return True
            return False

        return matches

    def _compile_expr(self, expr: ConditionExpr) -> Callable[[EvaluationContext], object]:
        """The expression as a closure. A built-in application whose operands
        fit its signature (`fits`) skips the checks it cannot fail."""
        if isinstance(expr, Literal):
            payload = expr.value.value
            return lambda ctx: payload
        if isinstance(expr, AttributeSelector):
            key = (expr.category, expr.attribute_id)
            data_type = expr.data_type
            return lambda ctx: tuple([v.value for v in ctx.lookup(key) if v.data_type is data_type])
        if isinstance(expr, FunctionApplication):
            function = expr.function
            operands = tuple(self._compile_expr(arg) for arg in expr.args)
            if function in _SPECIAL_FORMS:
                return _compile_logical(function, operands)
            fn = _BUILTINS.get(function)
            if fn is None:  # fails before any operand is evaluated
                return _raiser(STATUS_PROCESSING_ERROR, f"unknown function {function!r}")
            signature = SIGNATURES.get(function)
            if signature is not None and fits(signature, [operand_type(a) for a in expr.args]):
                return _typed(function, signature, operands)
            return lambda ctx: fn(ctx, [operand(ctx) for operand in operands])
        return _raiser(STATUS_PROCESSING_ERROR, f"unknown expression node {expr!r}")

    def _compile_rule(self, rule: PolicyNode, applies: Optional[Applies]) -> "Walk":
        node_id = rule.id
        condition = None if rule.condition is None else self._compile_expr(rule.condition)
        condition_false = TraceRecord(node_id, Decision.NOT_APPLICABLE, "condition-false")
        fired = None if rule.effect is None else _fulfilled(rule, rule.effect.to_decision(), "effect")

        def walk(ctx: EvaluationContext, visited: list) -> Decision:
            if applies is not None:
                miss = applies(ctx)
                if miss is not None:
                    visited.append(miss)
                    return miss.decision
            if condition is not None:
                try:
                    value = condition(ctx)
                    status = None if value is True or value is False else STATUS_PROCESSING_ERROR
                except _EvalError as exc:
                    status = exc.status
                if status is not None:
                    visited.append(TraceRecord(node_id, Decision.INDETERMINATE, f"condition-error:{status}"))
                    return Decision.INDETERMINATE
                if value is False:
                    visited.append(condition_false)
                    return Decision.NOT_APPLICABLE
            # Raises for a rule without an effect, which validate_document reports.
            record = fired or TraceRecord(node_id, rule.effect.to_decision(), "effect")
            visited.append(record)
            return record.decision

        return walk

    def _compile_container(self, node: PolicyNode, applies: Optional[Applies]) -> "Walk":
        children = node.children
        default_record = combiner_error = None
        if node.kind is NodeKind.POLICY and children and _is_default_rule(children[-1]):
            default = children[-1]
            children = children[:-1]
            default_record = _fulfilled(default, default.effect.to_decision(), "default-rule")
        walks = tuple(self._compile_node(child) for child in children)
        combiner = STANDARD.get(node.combining)
        if combiner is None:
            reason = f"combiner-error:unknown combining algorithm {node.combining!r}"
            combiner_error = TraceRecord(node.id, Decision.INDETERMINATE, reason)
        combined = {decision: _fulfilled(node, decision, f"combined:{node.combining}") for decision in Decision}

        def walk(ctx: EvaluationContext, visited: list) -> Decision:
            if applies is not None:
                miss = applies(ctx)
                if miss is not None:
                    visited.append(miss)
                    return miss.decision
            decisions = tuple([child(ctx, visited) for child in walks])
            if combiner is None:
                visited.append(combiner_error)
                return Decision.INDETERMINATE
            decision = combiner(decisions)
            if decision is Decision.NOT_APPLICABLE and default_record is not None:
                visited.append(default_record)
                decision = default_record.decision
            visited.append(combined[decision])
            return decision

        return walk

    # -- the entry point ------------------------------------------------------

    def evaluate(
        self,
        forest: "CompiledForest",
        request: RequestContext,
        pips: PipBundle,
        *,
        legislation_mode: str = "aware",
    ) -> ResponseContext:
        """Evaluate the document forest `compile` built. No evaluation
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
            ctx = self._build_context(request, pips)
            # An undeclared country is refused in both modes. A node reads
            # the scopes only through `isdisjoint` with its legislation set,
            # a subset of the forest's scopes, so the observed scopes are
            # kept only where the forest names them; ignoring the tags
            # observes every scope the forest names.
            ctx.applicable_scopes = pips.scopes.select_legislation(
                ctx.source_country, ctx.destination_country
            ) & forest.scopes
            if legislation_mode == "ignore-tags":
                ctx.applicable_scopes = forest.scopes
            plan = forest.plan(ctx)
            key = plan.walk_key(ctx)
            response = plan.responses.get(key)
            if response is not None:
                return response
            runs, views = plan.runs, plan.views
            trace += runs[0]
            body = [views[0]]
            decisions = []  # NotApplicable is the identity of the top combiner
            for index, run, view in zip(plan.walk, runs[1:], views[1:]):
                decision = forest.walker(index)(ctx, visited)
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


def _literal_key(target: Target) -> Optional[tuple[Category, str, str]]:
    """(category, attribute, literal) when the first non-empty clause list
    is one string-equal clause on a string literal, else None."""
    for category, clauses in target.sections():
        if not clauses:
            continue
        if len(clauses) != 1:
            return None
        clause = clauses[0]
        if clause.match_function != _STRING_EQUAL or not isinstance(clause.literal.value, str):
            return None
        return category, clause.attribute_id, clause.literal.value
    return None


def _string_payloads(bag: tuple[AttributeValue, ...]) -> Optional[list[str]]:
    """The bag's payloads when every one is a string, else None: string-equal
    raises on any other payload, so only an all-string bag can be screened."""
    payloads = [value.value for value in bag]
    if all(isinstance(payload, str) for payload in payloads):
        return payloads
    return None


# The plan and screen memos' bound, and the terms of `responses_held`.
_PLANS_HELD = 256
_RESPONSES_HELD = 32
_PLAN_RECORDS_HELD = 4096


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
    # The walk key of a request (`_walk_key`).
    walk_key: Callable[[EvaluationContext], tuple]
    # The finished responses by walk key.
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


def _walk_key(roots: Iterable[PolicyNode]) -> Callable[[EvaluationContext], tuple]:
    """The walk key of the requests that walk `roots`: a function of the
    evaluation context whose value fixes every walk of those roots under
    one plan, from a pass over their targets and conditions. Each
    attribute that a match clause or a selector reads gives, per bag
    value, (data type, payload type, payload), except an attribute whose
    every read compares it, as a match clause or the time-one-and-only of
    its selector, by time order with a time literal: its naive times give
    their place among those literals (`_time_slot`). When a walked node
    calls location-match, in a target clause or anywhere in a condition,
    the key ends with the source country, the zone and the zone tree,
    which that function alone of the walk reads."""
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
    exact = tuple(attribute for attribute, times in literals.items() if times is None)
    ordered = tuple((attribute, tuple(sorted(times))) for attribute, times in literals.items() if times is not None)

    # One flat tuple: per attribute its bag's length, then three fields per
    # value; nested tuples would cost a list and a tuple per attribute.
    def walk_key(ctx: EvaluationContext) -> tuple:
        lookup = ctx.lookup
        key = []
        for attribute in exact:
            bag = lookup(attribute)
            key.append(len(bag))
            for value in bag:
                payload = value.value
                key += (value.data_type, type(payload), payload)
        for attribute, times in ordered:
            bag = lookup(attribute)
            key.append(len(bag))
            for value in bag:
                key += _time_slot(value, times)
        if located:
            report = ctx.source_location
            key += (ctx.source_country, None if report is None else report.zone, ctx.pips.zones)
        return tuple(key)

    return walk_key


class CompiledForest:
    """The document forest, compiled once at load time so that per-request
    work follows the applicable documents rather than the forest's size
    (the XEngine idea: Liu, Chen, Hwang and Xie, SIGMETRICS 2008).

    A document is walked only when its root's legislation set meets the
    request's scopes and, if its root target opens with a single
    string-equal clause on a string literal, the request's bag for that
    attribute holds the literal or a value that is not a string. Any
    other document would evaluate to its root's NotApplicable record
    alone, so it contributes that record, built here once, and the trace
    stays the one a full walk produces.

    `scopes` is the union of the legislation sets of every node, the
    scopes a request observes under ignore-tags; in aware mode `evaluate`
    keeps only the observed scopes it names, which is all a legislation
    check can tell apart. Which record a document gives when it is not
    walked depends on the scopes alone, so a `Screen` per scope set holds
    those records and, rendered once, their wire lines as one UTF-8 text
    with each document's byte offset in it.

    The plan for a request depends only on the request's scopes (those
    the forest names) and, per attribute that roots are keyed on, which
    of its literals the bag holds (or that the bag holds a value that is
    not a string). That is the plan memo's key, so caller text that is
    no literal never enters it.
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
    tree, which that function alone reads. That is the walk key
    (`_walk_key`), derived when the plan is made; besides the bags and
    the location, a walk reads only the scopes, which the plan key holds.
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

    A walked root runs as the closures `engine` compiles it to, the first
    time a request walks it. Build one with `PolicyDecisionPoint.compile`;
    a node id, obligation id or obligation parameter name that is not one
    wire field (`is_one_field`), or a string parameter value that is not
    wire text (`is_wire_text`), is refused with ValueError, since no
    response could carry its trace, obligation or param line. So is a
    node whose legislation set is empty, which no scope meets, not even
    under ignore-tags (`validate_document` reports it).
    """

    def __init__(self, documents: Iterable[PolicyDocument], engine: PolicyDecisionPoint):
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
        self.engine = engine
        self.scopes = frozenset(scopes)
        self.roots = tuple(document.root for document in documents)
        self.responses_held = max(1, min(_RESPONSES_HELD, _PLAN_RECORDS_HELD // max(1, len(self.roots))))
        self._walks: list[Optional[Walk]] = [None] * len(self.roots)
        self._screens = Memo(_PLANS_HELD)
        self._plans = Memo(_PLANS_HELD)
        keys = [_literal_key(root.target) for root in self.roots]
        # Per document: the record of a legislation miss (None when the root
        # is untagged) and of a miss on the literal key (None without one).
        self.legislation_misses = tuple(
            None if root.legislation is None
            else TraceRecord(root.id, Decision.NOT_APPLICABLE, _legislation_miss(root.legislation))
            for root in self.roots
        )
        self.target_misses = tuple(
            None if key is None
            else TraceRecord(root.id, Decision.NOT_APPLICABLE, _target_miss(key[0]))
            for root, key in zip(self.roots, keys)
        )
        self.untagged = frozenset(i for i, root in enumerate(self.roots) if root.legislation is None)
        by_scope: dict[str, set[int]] = {}
        for index, root in enumerate(self.roots):
            for scope in root.legislation or ():
                by_scope.setdefault(scope, set()).add(index)
        self.by_scope = {scope: frozenset(indices) for scope, indices in by_scope.items()}
        # Literal keys: the documents without one, and per keyed attribute
        # all its documents and its documents by literal.
        self.unkeyed = frozenset(i for i, key in enumerate(keys) if key is None)
        by_literal: dict[tuple[Category, str], dict[str, set[int]]] = {}
        for index, key in enumerate(keys):
            if key is not None:
                category, attribute_id, literal = key
                by_literal.setdefault((category, attribute_id), {}).setdefault(literal, set()).add(index)
        self.selectors = tuple(
            (attribute, frozenset().union(*literals.values()),
             {literal: frozenset(indices) for literal, indices in literals.items()})
            for attribute, literals in by_literal.items()
        )

    def plan(self, ctx: EvaluationContext) -> Plan:
        """The plan for the request, from the memo when a request with the
        same key was planned before."""
        parts = [ctx.applicable_scopes]
        for attribute, _keyed, by_literal in self.selectors:
            payloads = _string_payloads(ctx.lookup(attribute))
            parts.append(None if payloads is None else tuple([p for p in payloads if p in by_literal]))
        key = tuple(parts)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans.put(key, self._plan(key))
        return plan

    def _plan(self, key: tuple) -> Plan:
        """The plan for a memo key: (the scopes; then per selector the
        literals hit, or None for a bag that is not all strings)."""
        scopes, hits = key[0], key[1:]
        screen = self._screens.get(scopes)
        if screen is None:
            screen = self._screens.put(scopes, self._screen(scopes))
        matching = set(self.unkeyed)
        for (_attribute, keyed, by_literal), literals in zip(self.selectors, hits):
            if literals is None:
                matching |= keyed
                continue
            for literal in literals:
                matching |= by_literal[literal]
        walk = sorted(screen.candidates & matching)
        bounds = list(zip([-1, *walk], [*walk, len(self.roots)]))
        runs = tuple(screen.records[start + 1:end] for start, end in bounds)
        walk_key = _walk_key([self.roots[index] for index in walk])
        text, offsets = memoryview(screen.text), screen.offsets
        views = tuple(text[offsets[start + 1]:offsets[end]] for start, end in bounds)
        return Plan(runs, tuple(walk), walk_key, Memo(self.responses_held), views)

    def _screen(self, scopes: frozenset[str]) -> Screen:
        """The screen for a scope set."""
        candidates = set(self.untagged)
        for scope in scopes:
            bucket = self.by_scope.get(scope)
            if bucket:
                candidates |= bucket
        candidates = frozenset(candidates)
        records = tuple(
            self.target_misses[index] if index in candidates else self.legislation_misses[index]
            for index in range(len(self.roots))
        )
        lines = [b"" if record is None else f"{record.wire_line}\n".encode("utf-8") for record in records]
        offsets = array("q", accumulate(map(len, lines), initial=0))
        return Screen(candidates, records, b"".join(lines), offsets)

    def walker(self, index: int) -> Walk:
        """The compiled walk of document `index`, compiled on first use."""
        walk = self._walks[index]
        if walk is None:
            walk = self._walks[index] = self.engine._compile_node(self.roots[index])
        return walk
