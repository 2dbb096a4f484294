"""Finite graph bases with open covers, and bounded walks inside chart overlaps.

The base is a finite graph (undirected by default). A cover assigns to each
index a vertex subset; load-time invariants: the cover is surjective on
vertices and every edge has both endpoints inside at least one common chart.
Walks never cancel backtracking: traversing an edge forward then backward is
a length-2 walk, not an identity.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import CompositionError, SchemaError


class PathMor:
    """A walk: a start vertex plus a sequence of (edge id, orientation) steps.

    orientation +1 traverses the edge from its tail to its head, -1 the other
    way. `visited` is the full vertex sequence, length len(steps) + 1. Walks
    are immutable, and equality and hashing read (start, steps) only.
    """
    __slots__ = ("start", "steps", "visited")

    start: str
    steps: tuple[tuple[str, int], ...]
    visited: tuple[str, ...]

    def __init__(self, start: str, steps: tuple[tuple[str, int], ...],
                 visited: tuple[str, ...]):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "visited", visited)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PathMor:
            return NotImplemented
        return self.start == other.start and self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.start, self.steps))

    def __repr__(self) -> str:
        return (f"PathMor(start={self.start!r}, steps={self.steps!r}, "
                f"visited={self.visited!r})")

    @property
    def end(self) -> str:
        return self.visited[-1]

    def __len__(self) -> int:
        return len(self.steps)


class CoverComplex:
    """A finite graph together with an indexed open cover of its vertex set."""

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, str]],
        cover: Mapping[str, Iterable[str]],
        index_order: Sequence[str],
        directed: bool = False,
        identity_edges: bool = True,
        strict: bool = True,
    ):
        self.vertices = tuple(vertices)
        self.vertex_set = frozenset(self.vertices)
        self.edges = tuple((e, u, v) for e, u, v in edges)
        self.directed = directed
        self.identity_edges = identity_edges
        self.index_order = tuple(index_order)
        self.cover = {i: frozenset(cover[i]) for i in cover}

        if len(self.vertex_set) != len(self.vertices):
            raise SchemaError("cover complex: duplicate vertex ids")
        ids = [e for e, _, _ in self.edges]
        if len(set(ids)) != len(ids):
            raise SchemaError("cover complex: duplicate edge ids")
        self.edge_by_id = {e: (u, v) for e, u, v in self.edges}
        for e, u, v in self.edges:
            if u not in self.vertex_set or v not in self.vertex_set:
                raise SchemaError(f"cover complex: edge {e!r} has unknown endpoint")
        if set(self.index_order) != set(self.cover):
            raise SchemaError("cover complex: index order does not match cover keys")
        if len(set(self.index_order)) != len(self.index_order):
            raise SchemaError("cover complex: duplicate cover indices")
        for i, us in self.cover.items():
            if "|" in i:
                raise SchemaError(f"cover complex: index id {i!r} contains '|'")
            if not us <= self.vertex_set:
                raise SchemaError(f"cover complex: chart {i!r} contains unknown vertices")
        for u in self.vertices:
            if "|" in u:
                raise SchemaError(f"cover complex: vertex id {u!r} contains '|'")

        if strict:
            covered = frozenset().union(*self.cover.values()) if self.cover else frozenset()
            if covered != self.vertex_set:
                missing = sorted(self.vertex_set - covered)
                raise SchemaError(f"cover complex: vertices not covered: {missing}")
            for e, u, v in self.edges:
                if not any(u in us and v in us for us in self.cover.values()):
                    raise SchemaError(
                        f"cover complex: edge {e!r} has no chart containing both endpoints"
                    )

        # outgoing unit steps per vertex: (edge id, orientation, next vertex)
        self._steps_from: dict[str, list[tuple[str, int, str]]] = {u: [] for u in self.vertices}
        for e, u, v in self.edges:
            self._steps_from[u].append((e, 1, v))
            if not self.directed:
                self._steps_from[v].append((e, -1, u))
        for u in self.vertices:
            self._steps_from[u].sort()

    def steps_from(self, u: str) -> list[tuple[str, int, str]]:
        return self._steps_from[u]

    def chart(self, i: str) -> frozenset[str]:
        try:
            return self.cover[i]
        except KeyError:
            raise SchemaError(f"cover complex: unknown chart index {i!r}") from None

    def identity_walk(self, u: str) -> PathMor:
        if u not in self.vertex_set:
            raise SchemaError(f"cover complex: unknown vertex {u!r}")
        return PathMor(u, (), (u,))

    def walk(self, start: str, steps: Sequence[tuple[str, int]]) -> PathMor:
        """Build a PathMor, checking each step is a real traversal."""
        if start not in self.vertex_set:
            raise SchemaError(f"cover complex: unknown vertex {start!r}")
        visited = [start]
        at = start
        for e, o in steps:
            if e not in self.edge_by_id:
                raise SchemaError(f"cover complex: unknown edge {e!r}")
            u, v = self.edge_by_id[e]
            if o == 1 and at == u:
                at = v
            elif o == -1 and at == v and not self.directed:
                at = u
            else:
                raise SchemaError(
                    f"cover complex: step ({e!r}, {o}) does not start at {at!r}"
                )
            visited.append(at)
        return PathMor(start, tuple(steps), tuple(visited))

    def smallest_chart(self, u: str) -> str:
        for i in self.index_order:
            if u in self.cover[i]:
                return i
        raise SchemaError(f"cover complex: vertex {u!r} is not covered")

    def charts_containing(self, vs: Iterable[str]) -> list[str]:
        vset = set(vs)
        return [i for i in self.index_order if vset <= self.cover[i]]


def overlap(c: CoverComplex, indices: Iterable[str]) -> frozenset[str]:
    idx = list(indices)
    if not idx:
        raise SchemaError("overlap of an empty index family is not defined")
    out = c.chart(idx[0])
    for i in idx[1:]:
        out = out & c.chart(i)
    return out


def walk_inside(c: CoverComplex, p: PathMor, vertex_set: frozenset[str]) -> bool:
    return all(v in vertex_set for v in p.visited)


def enumerate_paths(c: CoverComplex, indices: Iterable[str], max_len: int = 4) -> list[PathMor]:
    """All walks of length <= max_len staying inside the overlap, identities included.

    Deterministic order: by length, then start vertex, then step sequence.
    """
    region = overlap(c, indices)
    verts = sorted(region)
    out: list[PathMor] = [c.identity_walk(u) for u in verts]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e, o, v in c.steps_from(p.end):
                if v in region:
                    nxt.append(PathMor(p.start, p.steps + ((e, o),), p.visited + (v,)))
        nxt.sort(key=lambda p: (p.start, p.steps))
        out.extend(nxt)
        frontier = nxt
    return out


def compose_paths(c: CoverComplex, p2: PathMor, p1: PathMor) -> PathMor:
    """p2 after p1; concatenation, no cancellation of backtracking."""
    if p1.end != p2.start:
        raise CompositionError(
            f"cannot compose walks: first ends at {p1.end!r}, second starts at {p2.start!r}"
        )
    return PathMor(p1.start, p1.steps + p2.steps, p1.visited + p2.visited[1:])


class IndexFamily(NamedTuple):
    """All index subsets with nonempty overlap, ordered by inclusion."""
    members: tuple[tuple[str, ...], ...]


def index_family(c: CoverComplex) -> IndexFamily:
    members = []
    idx = list(c.index_order)
    for r in range(1, len(idx) + 1):
        for combo in combinations(idx, r):
            if overlap(c, combo):
                members.append(tuple(combo))
    return IndexFamily(tuple(members))
