"""Finite graph bases with open covers, and the walks inside chart overlaps.

The base is a finite graph (undirected by default). A cover assigns to each
index a vertex subset; load-time invariants: the cover is surjective on
vertices and every edge has both endpoints inside at least one common chart.
Walks never cancel backtracking: traversing an edge forward then backward is
a length-2 walk, not an identity.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import CompositionError, SchemaError


class PathMor(NamedTuple):
    """A walk: a start vertex plus a sequence of (edge id, orientation) steps.

    orientation +1 traverses the edge from its tail to its head, -1 the other
    way. `visited` is the full vertex sequence, length len(steps) + 1. A walk
    is a plain value: equal, and hashed alike, exactly when all three fields
    are.
    """
    start: str
    steps: tuple[tuple[str, int], ...]
    visited: tuple[str, ...]

    @property
    def end(self) -> str:
        return self.visited[-1]


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
        self.overlap = cache(self.overlap)
        self.reachable = cache(self.reachable)

    def steps_from(self, u: str) -> list[tuple[str, int, str]]:
        return self._steps_from[u]

    def chart(self, i: str) -> frozenset[str]:
        try:
            return self.cover[i]
        except KeyError:
            raise SchemaError(f"cover complex: unknown chart index {i!r}") from None

    def overlap(self, indices: tuple[str, ...]) -> frozenset[str]:
        """The vertices the charts `indices` share, computed once per tuple.
        An unknown chart or an empty tuple raises, and so is never cached."""
        if not indices:
            raise SchemaError("overlap of an empty index family is not defined")
        return frozenset.intersection(*(self.chart(i) for i in indices))

    def reachable(self, indices: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
        """The sorted (u0, u1) pairs that a walk inside the overlap of
        `indices` joins, of any length, (u, u) included; on a directed base
        only forward. Computed once per tuple, and never cached for a tuple
        that `overlap` refuses."""
        region = self.overlap(indices)
        pairs = []
        for u in sorted(region):
            seen, todo = {u}, [u]
            while todo:
                for _, _, v in self._steps_from[todo.pop()]:
                    if v in region and v not in seen:
                        seen.add(v)
                        todo.append(v)
            pairs.extend((u, v) for v in sorted(seen))
        return tuple(pairs)

    def overlapping(self, r: int) -> list[tuple[str, ...]]:
        """The ordered r-tuples of chart indices, repeats included, with
        nonempty overlap, in `product(index_order, repeat=r)` order."""
        return [t for t in product(self.index_order, repeat=r) if self.overlap(t)]

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
        # the constructor refuses an uncovered vertex
        raise SchemaError(f"cover complex: unknown vertex {u!r}")

    def charts_containing(self, vs: Iterable[str]) -> list[str]:
        vset = set(vs)
        return [i for i in self.index_order if vset <= self.cover[i]]


def enumerate_paths(c: CoverComplex, indices: Iterable[str], max_len: int = 4) -> list[PathMor]:
    """All walks of length <= max_len staying inside the overlap, identities included.

    Deterministic order: by length, then start vertex, then step sequence.
    """
    return walks_within(c, c.overlap(tuple(indices)), max_len)


def walks_within(c: CoverComplex, region: frozenset[str], max_len: int) -> list[PathMor]:
    """All walks of length <= max_len through vertices of `region` only, in
    the order of `enumerate_paths`. No layer is sorted: each extends the
    sorted layer before it walk by walk, each walk by the sorted steps out of
    its end."""
    verts = sorted(region)
    out: list[PathMor] = [c.identity_walk(u) for u in verts]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e, o, v in c.steps_from(p.end):
                if v in region:
                    nxt.append(PathMor(p.start, p.steps + ((e, o),), p.visited + (v,)))
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

