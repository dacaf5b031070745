"""Reference evaluator for the decision engine.

A naive, direct transcription of README "How a decision is made", written
apart from the engine's compiled forest: every document is walked from its
root, every operand of and/or is evaluated before the three-valued result
is read off, and the top-level combine sees every document's decision.
The engine's context build (location snapshot, trusted attributes) and
the primitive condition functions are reused, since they are not what this
oracle checks; the combining algorithms come from combining_oracle.

Target matching follows the engine's documented order: the clause lists
are checked subject, resource, action, environment; within a list the
clauses and then the request values are tried in order, the first match
wins and the first error (before any match) makes the node Indeterminate.
"""

from combining_oracle import ORACLE
from lexgate.engine import _BUILTINS, _EvalError
from lexgate.model import (
    AttributeSelector,
    Category,
    Decision,
    FunctionApplication,
    Literal,
    NodeKind,
    ResponseContext,
    STATUS_OK,
    STATUS_PROCESSING_ERROR,
    TraceRecord,
)

PERMIT = Decision.PERMIT
DENY = Decision.DENY
NOT_APPLICABLE = Decision.NOT_APPLICABLE
INDETERMINATE = Decision.INDETERMINATE


def _function(function_id):
    """The engine's built-in function `function_id`; an unknown id is an
    error."""
    try:
        return _BUILTINS[function_id]
    except KeyError:
        raise _EvalError(STATUS_PROCESSING_ERROR, f"unknown function {function_id!r}") from None


class _Oracle:
    def __init__(self, ctx, scopes, legislation_mode):
        self.ctx = ctx
        self.scopes = scopes
        self.ignore_tags = legislation_mode == "ignore-tags"
        self.trace = []  # (node, decision, reason) in completion order
        self.errors = []  # statuses in the order the walk met them

    # -- conditions: true / false / error ------------------------------------

    def value(self, expr):
        """The expression's value; raises _EvalError for an error."""
        if isinstance(expr, Literal):
            return expr.value.value
        if isinstance(expr, AttributeSelector):
            bag = self.ctx.lookup((expr.category, expr.attribute_id))
            return tuple(v.value for v in bag if v.data_type is expr.data_type)
        if isinstance(expr, FunctionApplication):
            if expr.function in ("function:and", "function:or"):
                return self.logical(expr)
            function = _function(expr.function)
            return function(self.ctx, [self.value(arg) for arg in expr.args])
        raise _EvalError(STATUS_PROCESSING_ERROR, f"unknown expression node {expr!r}")

    def truth(self, expr):
        """True, False, or the _EvalError the operand produced."""
        try:
            value = self.value(expr)
        except _EvalError as exc:
            return exc
        if not isinstance(value, bool):
            return _EvalError(STATUS_PROCESSING_ERROR, "operand is not a boolean")
        return value

    def logical(self, expr):
        """and: false if any operand is false, else the first error, else
        true. or: true if any operand is true, else the first error, else
        false. No operand is left out."""
        outcomes = [self.truth(arg) for arg in expr.args]
        decisive = expr.function != "function:and"
        if any(outcome is decisive for outcome in outcomes):
            return decisive
        errors = [outcome for outcome in outcomes if isinstance(outcome, _EvalError)]
        if errors:
            raise errors[0]
        return not decisive

    # -- applicability ----------------------------------------------------------

    def applicability(self, node):
        """(None, "") when the node applies, else (decision, reason)."""
        if not self.ignore_tags and node.legislation is not None:
            if not node.legislation & self.scopes:
                scopes = ",".join(sorted(node.legislation))
                return NOT_APPLICABLE, f"legislation-scope-miss:{scopes}"
        sections = (
            (Category.SUBJECT, node.target.subjects),
            (Category.RESOURCE, node.target.resources),
            (Category.ACTION, node.target.actions),
            (Category.ENVIRONMENT, node.target.environments),
        )
        for category, clauses in sections:
            if not clauses:
                continue
            try:
                matched = self.section_matches(category, clauses)
            except _EvalError as exc:
                self.errors.append(exc.status)
                return INDETERMINATE, f"target-error:{exc}"
            if not matched:
                return NOT_APPLICABLE, f"target-no-match:{category.value}"
        return None, ""

    def section_matches(self, category, clauses):
        for clause in clauses:
            function = _function(clause.match_function)
            for value in self.ctx.lookup((category, clause.attribute_id)):
                if function(self.ctx, [value.value, clause.literal.value]) is True:
                    return True
        return False

    # -- the tree -----------------------------------------------------------------

    def record(self, node, decision, reason):
        self.trace.append((node, decision, reason))
        return decision

    def rule(self, node):
        decision, reason = self.applicability(node)
        if decision is not None:
            return self.record(node, decision, reason)
        if node.condition is not None:
            outcome = self.truth(node.condition)
            if isinstance(outcome, _EvalError):
                self.errors.append(outcome.status)
                return self.record(node, INDETERMINATE, f"condition-error:{outcome.status}")
            if outcome is False:
                return self.record(node, NOT_APPLICABLE, "condition-false")
        return self.record(node, node.effect.to_decision(), "effect")

    @staticmethod
    def is_default_rule(node):
        """README "Default rule": a trailing rule with a match-any target,
        no condition and no legislation set."""
        return (
            node.kind is NodeKind.RULE
            and node.effect is not None
            and node.condition is None
            and node.legislation is None
            and node.target.is_match_any()
        )

    def node(self, node):
        if node.kind is NodeKind.RULE:
            return self.rule(node)
        decision, reason = self.applicability(node)
        if decision is not None:
            return self.record(node, decision, reason)
        children = list(node.children)
        default = None
        if node.kind is NodeKind.POLICY and children and self.is_default_rule(children[-1]):
            default = children.pop()
        decisions = [self.node(child) for child in children]
        if node.combining not in ORACLE:
            self.errors.append(STATUS_PROCESSING_ERROR)
            reason = f"combiner-error:unknown combining algorithm {node.combining!r}"
            return self.record(node, INDETERMINATE, reason)
        combined = ORACLE[node.combining](decisions)
        if combined is NOT_APPLICABLE and default is not None:
            combined = self.record(default, default.effect.to_decision(), "default-rule")
        return self.record(node, combined, f"combined:{node.combining}")


def evaluate(engine, documents, request, pips, legislation_mode="aware"):
    """The ResponseContext README prescribes for the forest `documents`."""
    oracle = None
    try:
        ctx = engine._build_context(request, pips)
        scopes = pips.scopes.select_legislation(ctx.source_country, ctx.destination_country)
        oracle = _Oracle(ctx, scopes, legislation_mode)
        decisions = [oracle.node(document.root) for document in documents]
        final = ORACLE["deny-overrides"](decisions)
    except Exception as exc:
        visited = oracle.trace if oracle is not None else []
        trace = [TraceRecord(n.id, d, r) for n, d, r in visited]
        trace.append(TraceRecord("<context>", INDETERMINATE, str(exc)))
        return ResponseContext(INDETERMINATE, STATUS_PROCESSING_ERROR, (), tuple(trace))

    # Obligations of the nodes that decided like the final decision, in
    # trace order, that are to be fulfilled on that decision.
    obligations = []
    if final in (PERMIT, DENY):
        for node, decision, _reason in oracle.trace:
            if decision is final:
                obligations += [ob for ob in node.obligations if ob.fulfill_on.to_decision() is final]
    if final is INDETERMINATE:
        status = oracle.errors[0] if oracle.errors else STATUS_PROCESSING_ERROR
    else:
        status = STATUS_OK
    return ResponseContext(
        final,
        status,
        tuple(obligations),
        tuple(TraceRecord(n.id, d, r) for n, d, r in oracle.trace),
    )
