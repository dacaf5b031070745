"""Policy decision point: applicability, conditions, tree evaluation.

Evaluation is a pure function of (documents, request, supplier snapshot):
the location supplier is consulted at most once per call, the clock once,
and every derived attribute is cached write-once, so repeated evaluations
return identical responses including the trace.

Legislation applicability: a node carrying a legislation scope set is
applicable only when that set intersects the scopes observed by the
connection (closure of the source and destination national scopes plus
the organization scope). `legislation_mode="ignore-tags"` skips that
check, reproducing an engine that does not understand the tag. Ignoring
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
from typing import Callable, Iterable, Optional, Sequence, Union

from .combining import CombinerRegistry
from .context.bundle import PipBundle
from .context.clock import local_time
from .context.identity import ProximityToken
from .errors import LexgateError, PrecisionError, UnknownCombinerError
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
    Obligation,
    PolicyDocument,
    PolicyNode,
    NodeKind,
    ResponseContext,
    STATUS_MISSING_ATTRIBUTE,
    STATUS_OK,
    STATUS_PROCESSING_ERROR,
    Target,
    TraceRecord,
)
from .parsing.location_xml import LocationReport
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
        now_utc: dt.datetime,
        source_location: Optional[LocationReport],
        source_country: Optional[str],
        destination_country: str,
        legislation_mode: str = "aware",
    ):
        self.request = request
        self.pips = pips
        self.now_utc = now_utc
        self.source_location = source_location
        self.source_country = source_country
        self.destination_country = destination_country
        self.legislation_mode = legislation_mode
        self.applicable_scopes: frozenset[str] = frozenset()
        self._cache: dict[tuple[Category, str], tuple[AttributeValue, ...]] = {}
        self.errors: list[str] = []

    # -- attribute snapshot ------------------------------------------------

    def _put(self, category: Category, attribute_id: str, value: AttributeValue) -> None:
        key = (category, attribute_id)
        if key in self._cache:
            raise LexgateError(f"attribute {key} written twice")
        self._cache[key] = (value,)

    def bag(self, category: Category, attribute_id: str) -> tuple[AttributeValue, ...]:
        return self.lookup((category, attribute_id))

    def lookup(self, key: tuple[Category, str]) -> tuple[AttributeValue, ...]:
        """The bag for a (category, attribute id) key."""
        values = self._cache.get(key)
        if values is None:
            values = self._cache[key] = self.request.bag(*key)
        return values

    def note_error(self, status: str) -> None:
        self.errors.append(status)

    def first_error_status(self) -> str:
        return self.errors[0] if self.errors else STATUS_PROCESSING_ERROR


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


def _need(args: list[object], count: int, function: str) -> None:
    if len(args) != count:
        raise _EvalError(
            STATUS_PROCESSING_ERROR, f"{function} takes {count} arguments, got {len(args)}"
        )


def _scalar(value: object, expected: type, function: str) -> object:
    if isinstance(value, tuple):
        raise _EvalError(STATUS_PROCESSING_ERROR, f"{function} expects a scalar, got a bag")
    if not isinstance(value, expected):
        raise _EvalError(
            STATUS_PROCESSING_ERROR,
            f"{function} expects {expected.__name__}, got {type(value).__name__}",
        )
    return value


def _fn_not(ctx: EvaluationContext, args: list[object]) -> object:
    _need(args, 1, "function:not")
    return not _scalar(args[0], bool, "function:not")


def _fn_string_equal(ctx: EvaluationContext, args: list[object]) -> object:
    _need(args, 2, "function:string-equal")
    a = _scalar(args[0], str, "function:string-equal")
    b = _scalar(args[1], str, "function:string-equal")
    return a == b


def _fn_boolean_equal(ctx: EvaluationContext, args: list[object]) -> object:
    _need(args, 2, "function:boolean-equal")
    a = _scalar(args[0], bool, "function:boolean-equal")
    b = _scalar(args[1], bool, "function:boolean-equal")
    return a == b


def _fn_time_ge(ctx: EvaluationContext, args: list[object]) -> object:
    _need(args, 2, "function:time-greater-than-or-equal")
    a = _scalar(args[0], dt.time, "function:time-greater-than-or-equal")
    b = _scalar(args[1], dt.time, "function:time-greater-than-or-equal")
    return a >= b


def _fn_time_le(ctx: EvaluationContext, args: list[object]) -> object:
    _need(args, 2, "function:time-less-than-or-equal")
    a = _scalar(args[0], dt.time, "function:time-less-than-or-equal")
    b = _scalar(args[1], dt.time, "function:time-less-than-or-equal")
    return a <= b


def _one_and_only(args: list[object], expected: type, function: str) -> object:
    _need(args, 1, function)
    bag = args[0]
    if not isinstance(bag, tuple):
        bag = (bag,)
    if len(bag) == 0:
        raise _EvalError(STATUS_MISSING_ATTRIBUTE, f"{function}: empty bag")
    if len(bag) > 1:
        raise _EvalError(STATUS_PROCESSING_ERROR, f"{function}: bag holds {len(bag)} values")
    return _scalar(bag[0], expected, function)


def _fn_time_one_and_only(ctx: EvaluationContext, args: list[object]) -> object:
    return _one_and_only(args, dt.time, "function:time-one-and-only")


def _fn_string_one_and_only(ctx: EvaluationContext, args: list[object]) -> object:
    return _one_and_only(args, str, "function:string-one-and-only")


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


_BUILTINS: dict[str, FunctionImpl] = {
    "function:not": _fn_not,
    "function:string-equal": _fn_string_equal,
    "function:boolean-equal": _fn_boolean_equal,
    "function:time-greater-than-or-equal": _fn_time_ge,
    "function:time-less-than-or-equal": _fn_time_le,
    "function:time-one-and-only": _fn_time_one_and_only,
    "function:string-one-and-only": _fn_string_one_and_only,
    "function:location-match": _fn_location_match,
}

# and/or are special forms: the evaluator short-circuits them and tolerates
# operand errors that cannot change the outcome.
_SPECIAL_FORMS = ("function:and", "function:or")


class FunctionRegistry:
    def __init__(self, extra: dict[str, FunctionImpl] | None = None):
        self._functions = dict(_BUILTINS)
        for function_id, fn in (extra or {}).items():
            self.register(function_id, fn)

    def register(self, function_id: str, fn: FunctionImpl) -> None:
        if function_id in self._functions or function_id in _SPECIAL_FORMS:
            raise ValueError(f"function {function_id!r} is already registered")
        self._functions[function_id] = fn

    def __contains__(self, function_id: str) -> bool:
        return function_id in self._functions or function_id in _SPECIAL_FORMS

    def ids(self) -> frozenset[str]:
        return frozenset(self._functions) | frozenset(_SPECIAL_FORMS)

    def get(self, function_id: str) -> FunctionImpl:
        try:
            return self._functions[function_id]
        except KeyError:
            raise _EvalError(
                STATUS_PROCESSING_ERROR, f"unknown function {function_id!r}"
            ) from None


# A compiled target check: None when the node applies, else its record.
Applies = Callable[[EvaluationContext], Optional[TraceRecord]]
# A compiled node: appends (record, node) per completed node, returns the
# node's decision.
Walk = Callable[[EvaluationContext, list], Decision]


def _raiser(error: _EvalError) -> Callable[..., object]:
    """Code that raises a fresh copy of `error` each time it runs."""
    status, message = error.status, str(error)

    def fail(*_args: object) -> object:
        raise _EvalError(status, message)

    return fail


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


class PolicyDecisionPoint:
    """Immutable engine: registries are frozen at construction."""

    def __init__(
        self,
        functions: Optional[FunctionRegistry] = None,
        combiners: Optional[CombinerRegistry] = None,
    ):
        self.functions = functions or FunctionRegistry()
        self.combiners = combiners or CombinerRegistry()

    def compile(self, documents: Iterable[PolicyDocument]) -> "CompiledForest":
        """The forest indexed for this engine, the one way to build a
        `CompiledForest`; each root is compiled to closures over this
        engine's registries the first time a request walks it."""
        return CompiledForest(documents, self)

    # -- context construction ---------------------------------------------

    def _build_context(
        self, request: RequestContext, pips: PipBundle, legislation_mode: str
    ) -> EvaluationContext:
        now = pips.clock.now_utc()

        report = request.source_location
        precision_country: Optional[str] = None
        if report is None:
            pips.log.record("locate")
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
            now_utc=now,
            source_location=report,
            source_country=source_country,
            destination_country=destination,
            legislation_mode=legislation_mode,
        )

        # The values below come from the loaded stores and the location
        # snapshot, never from the request, so they skip the payload checks.
        put = ctx._put
        trusted = AttributeValue._trusted
        pips.log.record("attributes")
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
            put(Category.ENVIRONMENT, ENV_CURRENT_TIME, trusted(DataType.TIME_OF_DAY, local_clock))
            put(Category.ENVIRONMENT, ENV_CURRENT_DATE, trusted(DataType.DATE, local_date))
        if report is not None:
            put(Category.ENVIRONMENT, ENV_CURRENT_ZONE, trusted(DataType.STRING, report.zone.value))
        put(Category.ENVIRONMENT, ENV_SOURCE_COUNTRY, trusted(DataType.COUNTRY_CODE, source_country))
        put(Category.ENVIRONMENT, ENV_DESTINATION_COUNTRY, trusted(DataType.COUNTRY_CODE, destination))

        subject_id = request.subject_id()
        subject_record = pips.identities.get(subject_id) if subject_id else None
        if subject_record is not None:
            put(Category.SUBJECT, SUBJECT_KIND, trusted(DataType.STRING, subject_record.kind.value))

        if record is not None:
            put(Category.RESOURCE, RESOURCE_CONFIDENTIAL, trusted(DataType.BOOLEAN, record.confidential))
            put(Category.RESOURCE, RESOURCE_CUSTOMER_RELATED, trusted(DataType.BOOLEAN, record.customer_related))
            put(Category.RESOURCE, RESOURCE_HOST_COUNTRY, trusted(DataType.COUNTRY_CODE, record.host_country))
            if record.category:
                put(Category.RESOURCE, RESOURCE_CATEGORY, trusted(DataType.STRING, record.category))
            if subject_id and record.customers:
                relation = pips.identities.check_relationship(subject_id, record.customers, now)
                put(Category.SUBJECT, SUBJECT_RELATIONSHIP, trusted(DataType.STRING, relation.value))

        pips.log.record("diary")
        assessment = pips.diary.check_task(
            subject_id or "",
            resource_id or "",
            now,
            report,
            _proximity_tokens(request),
            pips.identities,
        )
        put(Category.ENVIRONMENT, ENV_TASK_STATUS, trusted(DataType.STRING, assessment.value))
        return ctx

    # -- compilation -----------------------------------------------------------
    #
    # A node compiles to one closure walk(ctx, visited) -> Decision. The walk
    # appends a (trace record, node) pair to `visited` for every node it
    # completes, in completion order, and returns the node's decision. The
    # functions, combiners and literal payloads are resolved here, and so is
    # every record whose reason is fixed; only target-error and
    # condition-error records are built per request. An unknown function or
    # combiner compiles to code that fails at evaluation, at the point and
    # with the message the walk has always given.

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
            for category, clauses in _sections(node.target)
            if clauses
        )
        if legislation is None and not sections:
            return None

        def applies(ctx: EvaluationContext) -> Optional[TraceRecord]:
            if (
                legislation is not None
                and ctx.legislation_mode != "ignore-tags"
                and legislation.isdisjoint(ctx.applicable_scopes)
            ):
                return legislation_miss
            for miss, matchers in sections:
                try:
                    for matches in matchers:
                        if matches(ctx):
                            break
                    else:  # no clause of the list matched
                        return miss
                except _EvalError as exc:
                    ctx.note_error(exc.status)
                    return TraceRecord(node_id, Decision.INDETERMINATE, f"target-error:{exc}")
            return None

        return applies

    def _compile_clause(self, category: Category, clause: MatchClause) -> Callable[[EvaluationContext], bool]:
        """True when any request value for the attribute matches the literal."""
        try:
            match = self.functions.get(clause.match_function)
        except _EvalError as exc:
            return _raiser(exc)  # before the bag is read, so even when it is empty
        key = (category, clause.attribute_id)
        literal = clause.literal.value

        def matches(ctx: EvaluationContext) -> bool:
            for value in ctx.lookup(key):
                if match(ctx, [value.value, literal]) is True:
                    return True
            return False

        return matches

    def _compile_expr(self, expr: ConditionExpr) -> Callable[[EvaluationContext], object]:
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
            try:
                fn = self.functions.get(function)
            except _EvalError as exc:
                return _raiser(exc)  # before any operand is evaluated
            if len(operands) == 1:
                (only,) = operands
                return lambda ctx: fn(ctx, [only(ctx)])
            if len(operands) == 2:
                first, second = operands
                return lambda ctx: fn(ctx, [first(ctx), second(ctx)])
            return lambda ctx: fn(ctx, [operand(ctx) for operand in operands])
        return _raiser(_EvalError(STATUS_PROCESSING_ERROR, f"unknown expression node {expr!r}"))

    def _compile_rule(self, rule: PolicyNode, applies: Optional[Applies]) -> "Walk":
        node_id = rule.id
        condition = None if rule.condition is None else self._compile_expr(rule.condition)
        condition_false = TraceRecord(node_id, Decision.NOT_APPLICABLE, "condition-false")
        fired = None if rule.effect is None else TraceRecord(node_id, rule.effect.to_decision(), "effect")

        def walk(ctx: EvaluationContext, visited: list) -> Decision:
            if applies is not None:
                miss = applies(ctx)
                if miss is not None:
                    visited.append((miss, rule))
                    return miss.decision
            if condition is not None:
                try:
                    value = condition(ctx)
                    status = None if value is True or value is False else STATUS_PROCESSING_ERROR
                except _EvalError as exc:
                    status = exc.status
                if status is not None:
                    ctx.note_error(status)
                    visited.append(
                        (TraceRecord(node_id, Decision.INDETERMINATE, f"condition-error:{status}"), rule)
                    )
                    return Decision.INDETERMINATE
                if value is False:
                    visited.append((condition_false, rule))
                    return Decision.NOT_APPLICABLE
            # Raises for a rule without an effect, which validate_document reports.
            record = fired or TraceRecord(node_id, rule.effect.to_decision(), "effect")
            visited.append((record, rule))
            return record.decision

        return walk

    def _compile_container(self, node: PolicyNode, applies: Optional[Applies]) -> "Walk":
        children = node.children
        default: Optional[PolicyNode] = None
        default_decision = default_record = combiner_error = None
        if node.kind is NodeKind.POLICY and children and _is_default_rule(children[-1]):
            default = children[-1]
            children = children[:-1]
            default_decision = default.effect.to_decision()
            default_record = TraceRecord(default.id, default_decision, "default-rule")
        walks = tuple(self._compile_node(child) for child in children)
        try:
            combiner = self.combiners.get(node.combining)
        except UnknownCombinerError as exc:
            combiner = None
            combiner_error = TraceRecord(node.id, Decision.INDETERMINATE, f"combiner-error:{exc}")
        combined = {
            decision: TraceRecord(node.id, decision, f"combined:{node.combining}")
            for decision in Decision
        }

        def walk(ctx: EvaluationContext, visited: list) -> Decision:
            if applies is not None:
                miss = applies(ctx)
                if miss is not None:
                    visited.append((miss, node))
                    return miss.decision
            decisions = tuple([child(ctx, visited) for child in walks])
            if combiner is None:
                ctx.note_error(STATUS_PROCESSING_ERROR)
                visited.append((combiner_error, node))
                return Decision.INDETERMINATE
            decision = combiner(decisions)
            if decision is Decision.NOT_APPLICABLE and default is not None:
                visited.append((default_record, default))
                decision = default_decision
            visited.append((combined[decision], node))
            return decision

        return walk

    # -- the entry point ------------------------------------------------------

    def evaluate(
        self,
        documents: Union["CompiledForest", Sequence[PolicyDocument]],
        request: RequestContext,
        pips: PipBundle,
        *,
        legislation_mode: str = "aware",
    ) -> ResponseContext:
        """Evaluate the document forest: a forest from this engine's
        `compile`, or a plain document sequence, which is compiled on entry.
        No evaluation failure raises past this boundary; only a bad argument
        does, with ValueError: an unknown legislation mode, or a forest
        compiled by another engine, whose closures hold that engine's
        registries."""
        if legislation_mode not in ("aware", "ignore-tags"):
            raise ValueError(f"unknown legislation mode {legislation_mode!r}")
        if isinstance(documents, CompiledForest):
            if documents.engine is not self:
                raise ValueError("the forest was compiled by another engine")
            forest = documents
        else:
            forest = self.compile(documents)
        pips.log.pdp_entered()
        # The trace is built in document order; `visited` holds the (record,
        # node) pairs of every walked document, those of the document being
        # walked from `mark` on.
        trace: list[TraceRecord] = []
        visited: list[tuple[TraceRecord, PolicyNode]] = []
        mark = 0
        try:
            ctx = self._build_context(request, pips, legislation_mode)
            pips.log.record("policies")
            ctx.applicable_scopes = pips.scopes.select_legislation(
                ctx.source_country, ctx.destination_country
            )
            screened, walk = forest.plan(ctx)
            decisions = []  # NotApplicable is the identity of the top combiner
            start = 0
            for index in walk:
                trace += screened[start:index]
                decision = forest.walker(index)(ctx, visited)
                trace += [record for record, _node in visited[mark:]]
                mark, start = len(visited), index + 1
                if decision is not Decision.NOT_APPLICABLE:
                    decisions.append(decision)
            trace += screened[start:]
            pips.log.record("decide")
            final = self.combiners.combine(TOP_COMBINER, decisions)
        except Exception as exc:  # PIP failures must not escape the boundary
            trace += [record for record, _node in visited[mark:]]
            trace.append(TraceRecord("<context>", Decision.INDETERMINATE, str(exc)))
            return ResponseContext(
                Decision.INDETERMINATE, STATUS_PROCESSING_ERROR, (), tuple(trace)
            )

        obligations: list[Obligation] = []
        if final in (Decision.PERMIT, Decision.DENY):
            for record, node in visited:
                if record.decision is final and node.obligations:
                    obligations += [
                        ob for ob in node.obligations if ob.fulfill_on.to_decision() is final
                    ]

        if final is Decision.INDETERMINATE:
            status = ctx.first_error_status()
        else:
            status = STATUS_OK
        return ResponseContext(
            decision=final,
            status=status,
            obligations=tuple(obligations),
            trace=tuple(trace),
        )


# -- the compiled forest -----------------------------------------------------------


def _sections(target: Target) -> tuple[tuple[Category, tuple[MatchClause, ...]], ...]:
    """The four clause lists in the order applicability checks them."""
    return (
        (Category.SUBJECT, target.subjects),
        (Category.RESOURCE, target.resources),
        (Category.ACTION, target.actions),
        (Category.ENVIRONMENT, target.environments),
    )


def _legislation_miss(legislation: frozenset[str]) -> str:
    return "legislation-scope-miss:" + ",".join(sorted(legislation))


def _target_miss(category: Category) -> str:
    return f"target-no-match:{category.value}"


def _literal_key(target: Target) -> Optional[tuple[Category, str, str]]:
    """(category, attribute, literal) when the first non-empty clause list
    is one string-equal clause on a string literal, else None."""
    for category, clauses in _sections(target):
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


class CompiledForest:
    """The document forest, compiled once at load time so that per-request
    work follows the applicable documents rather than the forest's size
    (the XEngine idea: Liu, Chen, Hwang and Xie, SIGMETRICS 2008).

    A document is walked only when its root's legislation set meets the
    request's scopes (every document is, under ignore-tags) and, if its
    root target opens with a single string-equal clause on a string
    literal, the request's bag for that attribute holds the literal or a
    value that is not a string. Any other document would evaluate to its
    root's NotApplicable record alone, so it contributes that record,
    built here once, and the trace stays the one a full walk produces.

    A walked root runs as the closures `engine` compiles it to, the first
    time a request walks it. Build one with `PolicyDecisionPoint.compile`.
    """

    def __init__(self, documents: Iterable[PolicyDocument], engine: PolicyDecisionPoint):
        self.engine = engine
        self.roots = tuple(document.root for document in documents)
        self._walks: list[Optional[Walk]] = [None] * len(self.roots)
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
        self.everything = frozenset(range(len(self.roots)))
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
            (category, attribute_id, frozenset().union(*literals.values()),
             {literal: frozenset(indices) for literal, indices in literals.items()})
            for (category, attribute_id), literals in by_literal.items()
        )

    def plan(self, ctx: EvaluationContext) -> tuple[list[Optional[TraceRecord]], list[int]]:
        """(the record of each screened document by position, the documents
        to walk in document order)."""
        if ctx.legislation_mode == "ignore-tags":
            candidates = self.everything
        else:
            candidates = set(self.untagged)
            for scope in ctx.applicable_scopes:
                bucket = self.by_scope.get(scope)
                if bucket:
                    candidates |= bucket
        matching = set(self.unkeyed)
        for category, attribute_id, keyed, by_literal in self.selectors:
            payloads = _string_payloads(ctx.bag(category, attribute_id))
            if payloads is None:
                matching |= keyed
                continue
            for payload in payloads:
                documents = by_literal.get(payload)
                if documents:
                    matching |= documents
        screened = list(self.legislation_misses)
        for index in candidates - matching:
            screened[index] = self.target_misses[index]
        return screened, sorted(candidates & matching)

    def walker(self, index: int) -> Walk:
        """The compiled walk of document `index`, compiled on first use."""
        walk = self._walks[index]
        if walk is None:
            walk = self._walks[index] = self.engine._compile_node(self.roots[index])
        return walk
