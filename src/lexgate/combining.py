"""The four standard decision combining algorithms, the only ones an
engine combines with. An empty decision list combines to NotApplicable.
Error handling: deny-overrides folds Indeterminate into Deny (fail-safe),
permit-overrides ranks it below Deny, first-applicable treats it as a
terminal result, only-one-applicable counts it as applicable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import UnknownCombinerError
from .model import Decision

Combiner = Callable[[Sequence[Decision]], Decision]


def _deny_overrides(decisions: Sequence[Decision]) -> Decision:
    saw_permit = False
    saw_error = False
    for decision in decisions:
        if decision is Decision.DENY:
            return Decision.DENY
        if decision is Decision.INDETERMINATE:
            saw_error = True
        elif decision is Decision.PERMIT:
            saw_permit = True
    if saw_error:
        return Decision.DENY
    return Decision.PERMIT if saw_permit else Decision.NOT_APPLICABLE


def _permit_overrides(decisions: Sequence[Decision]) -> Decision:
    saw_deny = False
    saw_error = False
    for decision in decisions:
        if decision is Decision.PERMIT:
            return Decision.PERMIT
        if decision is Decision.DENY:
            saw_deny = True
        elif decision is Decision.INDETERMINATE:
            saw_error = True
    if saw_deny:
        return Decision.DENY
    return Decision.INDETERMINATE if saw_error else Decision.NOT_APPLICABLE


def _first_applicable(decisions: Sequence[Decision]) -> Decision:
    for decision in decisions:
        if decision is not Decision.NOT_APPLICABLE:
            return decision
    return Decision.NOT_APPLICABLE


def _only_one_applicable(decisions: Sequence[Decision]) -> Decision:
    applicable = [d for d in decisions if d is not Decision.NOT_APPLICABLE]
    if not applicable:
        return Decision.NOT_APPLICABLE
    if len(applicable) > 1:
        return Decision.INDETERMINATE
    return applicable[0]


STANDARD: dict[str, Combiner] = {
    "deny-overrides": _deny_overrides,
    "permit-overrides": _permit_overrides,
    "first-applicable": _first_applicable,
    "only-one-applicable": _only_one_applicable,
}


def combine(combiner_id: str, decisions: Iterable[Decision]) -> Decision:
    """Combine with the standard algorithm `combiner_id`; any other id
    raises UnknownCombinerError."""
    try:
        algorithm = STANDARD[combiner_id]
    except KeyError:
        raise UnknownCombinerError(f"unknown combining algorithm {combiner_id!r}") from None
    return algorithm(tuple(decisions))
