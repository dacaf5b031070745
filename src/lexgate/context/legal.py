"""Legal scope registry: which sets of legislation apply to a connection.

Scopes form an acyclic membership graph (country -> union, organization ->
country, ...). A connection from a source country to a destination country
observes the transitive membership closure of both national scopes plus
the requesting organization's own scope. Every closure is computed once,
at load, in the pass that refuses a membership cycle; a connection's scopes
are then the union of two load-time sets: the source's closure with the
organization scope, and the destination's closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import FixtureError, UnknownScopeError

SCOPE_KINDS = ("union", "sovereign-state", "state", "organization")


@dataclass(frozen=True)
class LegalScope:
    id: str
    kind: str
    parent_memberships: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in SCOPE_KINDS:
            raise ValueError(f"unknown scope kind {self.kind!r}")


class LegalScopeRegistry:
    def __init__(self, scopes: Iterable[LegalScope], organization: Optional[str] = None):
        self._scopes = {scope.id: scope for scope in scopes}
        self.organization = organization
        if organization is not None and organization not in self._scopes:
            raise FixtureError(f"organization scope {organization!r} is not declared")
        self._check_edges()
        self._closures: dict[str, frozenset[str]] = {}
        for scope_id in self._scopes:
            self._close(scope_id, set())
        # A source's closure with the organization scope: what a connection
        # from it observes before the destination's closure is added.
        own = frozenset(() if organization is None else (organization,))
        self._observed = {scope_id: closure | own for scope_id, closure in self._closures.items()}

    def _check_edges(self) -> None:
        for scope in self._scopes.values():
            for parent in scope.parent_memberships:
                if parent not in self._scopes:
                    raise FixtureError(
                        f"scope {scope.id!r} is member of undeclared scope {parent!r}"
                    )

    def _close(self, scope_id: str, path: set[str]) -> frozenset[str]:
        """Record and return the closure of `scope_id`, depth first; `path`
        holds the scopes whose closure is being computed, so meeting one
        of them again closes a membership cycle."""
        closure = self._closures.get(scope_id)
        if closure is not None:
            return closure
        path.add(scope_id)
        members = {scope_id}
        for parent in self._scopes[scope_id].parent_memberships:
            if parent in path:
                raise FixtureError(f"membership cycle through scope {parent!r}")
            members |= self._close(parent, path)
        path.discard(scope_id)
        closure = self._closures[scope_id] = frozenset(members)
        return closure

    def __contains__(self, scope_id: str) -> bool:
        return scope_id in self._scopes

    def ids(self) -> frozenset[str]:
        return frozenset(self._scopes)

    def get(self, scope_id: str) -> LegalScope:
        try:
            return self._scopes[scope_id]
        except KeyError:
            raise UnknownScopeError(f"unknown legal scope {scope_id!r}") from None

    def closure(self, scope_id: str) -> frozenset[str]:
        """The scope plus every scope reachable over membership edges."""
        self.get(scope_id)
        return self._closures[scope_id]

    def select_legislation(self, source: str, destination: str) -> frozenset[str]:
        """All scope ids observed by a source->destination connection:
        the membership closures of both national scopes, plus the
        requesting organization's own scope. An undeclared source is
        named before an undeclared destination."""
        try:
            return self._observed[source] | self._closures[destination]
        except KeyError as unknown:
            raise UnknownScopeError(f"unknown legal scope {unknown.args[0]!r}") from None
