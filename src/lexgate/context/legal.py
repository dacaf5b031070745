"""Legal scope registry: which sets of legislation apply to a connection.

Scopes form an acyclic membership graph (country -> union, organization ->
country, ...). A connection from a source country to a destination country
observes the transitive membership closure of both national scopes plus
the requesting organization's own scope.
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
        self._check_acyclic()
        # select_legislation by (source, destination); only declared scopes
        # get an entry, so it holds at most len(scopes)² of them.
        self._selected: dict[tuple[str, str], frozenset[str]] = {}

    def _check_edges(self) -> None:
        for scope in self._scopes.values():
            for parent in scope.parent_memberships:
                if parent not in self._scopes:
                    raise FixtureError(
                        f"scope {scope.id!r} is member of undeclared scope {parent!r}"
                    )

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {scope_id: WHITE for scope_id in self._scopes}

        def visit(scope_id: str) -> None:
            color[scope_id] = GREY
            for parent in self._scopes[scope_id].parent_memberships:
                if color[parent] == GREY:
                    raise FixtureError(f"membership cycle through scope {parent!r}")
                if color[parent] == WHITE:
                    visit(parent)
            color[scope_id] = BLACK

        for scope_id in self._scopes:
            if color[scope_id] == WHITE:
                visit(scope_id)

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
        seen: set[str] = set()
        frontier = [scope_id]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._scopes[current].parent_memberships)
        return frozenset(seen)

    def select_legislation(self, source: str, destination: str) -> frozenset[str]:
        """All scope ids observed by a source->destination connection:
        the membership closures of both national scopes, plus the
        requesting organization's own scope."""
        key = (source, destination)
        scopes = self._selected.get(key)
        if scopes is None:
            scopes = self.closure(source) | self.closure(destination)
            if self.organization is not None:
                scopes |= {self.organization}
            self._selected[key] = scopes
        return scopes
