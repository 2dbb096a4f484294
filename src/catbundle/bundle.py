"""The glued total category over a covered base, with a fiberwise group action.

Objects are classes of triples (chart, vertex, fiber coset) glued by
(i, u, a) ~ (j, u, gbar_ji(u) a); the canonical representative lives in the
smallest chart covering the vertex. Morphisms are classes of chains of
decorated edges (chart i, chart set I, walk, fiber morphism coset) under
three rewrites: re-index one edge into another chart holding its walk
(multiplying the decoration by thetabar_ji(walk)); merge an adjacent pair
into a common chart and re-split it across every factorization of its
composite decoration; insert or delete the neutral unit (zero-length walk,
identity decoration).

Equality is decided by a normal form that pushes every decoration to the
last unit. A chain is split into unit steps and each zero-length unit is
merged into a neighbour (`_compact`); `component_of` then reads it once from
left to right. At each junction the running decoration and the next unit's
are re-indexed into the first chart holding both steps and composed there,
which re-splits the pair with an identity on the earlier step. Where no
chart holds both steps, the running decoration is moved to its step's first
chart, re-split onto a neutral unit at the junction vertex and re-indexed
along that vertex's identity walk into the next step's first chart. The last
decoration is moved into its step's first chart. On a base without
zero-length edges a junction that no rewrite crosses starts a new
decoration. The key is (source object, walk, decorations).

Soundness: each step is one of the rewrites above, and every chart it picks
depends on the walk alone, so the units it leaves behind are identities fixed
by the source object and the walk; equal keys name one chain. Completeness,
on bases with zero-length edges: over one walk from one object there is at
most one key per fiber morphism out of the transported source object, and
the free fiber action makes the classes there a torsor under exactly those
morphisms, so no class holds two keys. The steps thus form a terminating
rewriting system with unique normal forms, confluent in the sense of Knuth
and Bendix (1970). `bundle.mor.torsor` checks the count; a tests-only
reference that applies the rewrites literally, and the `wordalg` oracle on
directed bases, check the partition.

Each edge is validated once per space: `edge_endpoints` memoizes the glued
endpoints of every valid edge, and `mor_endpoints` checks a chain's edges and
junctions in a single pass. Errors are never cached, so an invalid edge or a
broken junction raises on every call.

A morphism's full key (`mor_key`) is its (source, target) pair followed by its
normal-form key, and `mor_equal` compares the two full keys. Each side is
validated and split into units once. So `mor_equal` raises on an invalid edge
or a broken junction in either argument, whatever the other argument's walk.
`component_of` looks a state up in `_keys` as it is given and compacts only a
state it has not keyed, storing the key under both that state and its
compaction; compaction is deterministic, so each distinct state is compacted
at most once per space, and `_keys` holds raw and compacted states, both
bounded by the states keyed. The law battery keys each morphism once and
compares keys instead of calling `mor_equal` pair by pair. `state_key` keys
an enumerated unit state without building its chain, and a local
trivialization memoizes the key of each (walk, fiber morphism) pair for one
check. The space also memoizes each unit's decoration re-indexed into each
chart, and the chart that each pair of adjacent steps merges into. Both range
over sets fixed by the base and the fiber, so neither grows with the number
of chains.

`BundleObject`, `QuiverEdge` and `BundleMorphism` are named tuples, so they
are built, hashed and compared in C; their reprs are the field-by-field form
that witnesses embed. `PathMor` is a small slotted class, not a tuple: its
equality and hash read (start, steps) and ignore `visited`, and an edge hashes
and compares through its walk, so the endpoint memo still reads `visited` on
a hit.

Formal identity morphisms are represented by markers; a marker is identified
with the class of the neutral edge (zero-length walk, identity decoration)
at its object, which is a two-sided unit under concatenation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, NamedTuple, Optional

from .complexes import (
    PathMor,
    compose_paths,
    enumerate_paths,
    index_family,
    overlap,
    walk_inside,
)
from .errors import (
    CompositionError,
    DomainError,
    PreconditionError,
    SchemaError,
)
from .functorial import FunctorialCocycle, eval_theta
from .quotient import QuotientCatGroup
from .report import Report


class BundleObject(NamedTuple):
    chart: str
    vertex: str
    fiber: str  # object coset rep


class QuiverEdge(NamedTuple):
    chart: str
    charts: tuple[str, ...]  # the index subset I, sorted; chart must be a member
    walk: PathMor
    phi: str  # morphism coset rep


class BundleMorphism(NamedTuple):
    """Either an identity marker at an object, or a nonempty chain of edges."""
    at: Optional[BundleObject]
    edges: tuple[QuiverEdge, ...]

    @property
    def is_identity(self) -> bool:
        return self.at is not None

    @staticmethod
    def identity(x: BundleObject) -> "BundleMorphism":
        return BundleMorphism(x, ())

    @staticmethod
    def chain(edges: Iterable[QuiverEdge]) -> "BundleMorphism":
        edges = tuple(edges)
        if not edges:
            raise SchemaError("a morphism chain needs at least one edge")
        return BundleMorphism(None, edges)


# unit steps of a chain state: ("v", vertex) stands still, ("e", id, o) moves
Step = tuple
Unit = tuple  # (chart, Step, phi rep)
State = tuple  # tuple of Units


class BundleSpace:
    """All bundle-level operations for one cocycle and quotient fiber.

    The space re-checks none of its inputs: the `peiffer`, `gerbal` and
    `quotient` suites check the crossed-module laws, the cocycle relations and
    the classical cocycle on cosets, and `suites.InstanceContext.space` builds
    a space only when their reports pass. It refuses only a fiber quotient
    without group structure."""

    def __init__(self, fc: FunctorialCocycle, q: QuotientCatGroup):
        if not (q.obj_normal and q.mor_normal):
            raise PreconditionError("the fiber quotient must carry group structure")
        self.fc = fc
        self.q = q
        self.cover = fc.cover
        self._tb_cache: dict[tuple[str, str, str, str], str] = {}
        self._gb_cache: dict[tuple[str, str, str], str] = {}
        self._keys: dict[State, tuple] = {}
        self._sw_cache: dict[Step, PathMor] = {}
        self._moved: dict[tuple[str, Unit], str] = {}
        self._merged_steps: dict[tuple[Step, Step], tuple[str, Step]] = {}
        self._unit_s: dict[Unit, BundleObject] = {}
        self._unit_t: dict[Unit, BundleObject] = {}
        self._cc_cache: dict[tuple[str, ...], list[str]] = {}
        self._ends: dict[QuiverEdge,
                         tuple[tuple[str, ...], tuple[BundleObject, BundleObject]]] = {}

    # ----- transported cocycle values on cosets ----------------------------

    def gbar(self, to_chart: str, from_chart: str, u: str) -> str:
        key = (to_chart, from_chart, u)
        val = self._gb_cache.get(key)
        if val is None:
            val = self.q.objects.rep(self.fc.g(to_chart, from_chart, u))
            self._gb_cache[key] = val
        return val

    def thetabar(self, to_chart: str, from_chart: str, walk: PathMor) -> str:
        key = (to_chart, from_chart, walk.start, walk.end)
        val = self._tb_cache.get(key)
        if val is None:
            val = self.q.q_mor(eval_theta(self.fc, to_chart, from_chart, walk))
            self._tb_cache[key] = val
        return val

    # ----- objects ----------------------------------------------------------

    def canonical_obj(self, i: str, u: str, fiber: str) -> BundleObject:
        if u not in self.cover.chart(i):
            raise SchemaError(f"vertex {u!r} is not in chart {i!r}")
        i0 = self.cover.smallest_chart(u)
        if i0 != i:
            fiber = self.q.obj_product(self.gbar(i0, i, u), fiber)
        else:
            fiber = self.q.objects.rep(fiber)
        return BundleObject(i0, u, fiber)

    def objects_all(self) -> list[BundleObject]:
        out = []
        for u in sorted(self.cover.vertex_set):
            i0 = self.cover.smallest_chart(u)
            for fiber in self.q.objects.reps:
                out.append(BundleObject(i0, u, fiber))
        return out

    def check_glue_relation(self) -> Report:
        """(i,u,a) ~ (j,u,gbar_ji(u) a) must be reflexive, symmetric, transitive."""
        rep = Report("bundle")
        cover, q = self.cover, self.q

        witness = None
        for i in cover.index_order:
            for u in sorted(cover.chart(i)):
                if self.gbar(i, i, u) != q.identity_obj():
                    witness = f"gbar_{i}{i}({u}) is not the identity coset"
                    break
            if witness:
                break
        rep.record("bundle.glue.reflexive", "gbar_ii(u) = identity coset",
                   witness is None, witness)

        witness = None
        for i in cover.index_order:
            for j in cover.index_order:
                for u in sorted(overlap(cover, (i, j))):
                    if q.obj_product(self.gbar(i, j, u), self.gbar(j, i, u)) \
                            != q.identity_obj():
                        witness = f"gbar_{i}{j}({u}) gbar_{j}{i}({u}) != identity coset"
                        break
                if witness:
                    break
            if witness:
                break
        rep.record("bundle.glue.symmetric", "gbar_ij(u) gbar_ji(u) = identity coset",
                   witness is None, witness)

        witness = None
        for i in cover.index_order:
            for j in cover.index_order:
                for k in cover.index_order:
                    for u in sorted(overlap(cover, (i, j, k))):
                        lhs = q.obj_product(self.gbar(k, j, u), self.gbar(j, i, u))
                        if lhs != self.gbar(k, i, u):
                            witness = f"gbar_{k}{j} gbar_{j}{i} != gbar_{k}{i} at {u}"
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        rep.record("bundle.glue.transitive", "gbar_kj(u) gbar_ji(u) = gbar_ki(u)",
                   witness is None, witness)
        return rep

    # ----- edges and chains -------------------------------------------------

    def validate_edge(self, e: QuiverEdge) -> None:
        if e.chart not in e.charts:
            raise SchemaError(f"edge chart {e.chart!r} is not in its index set {e.charts}")
        if self.cover.walk(e.walk.start, e.walk.steps).visited != e.walk.visited:
            raise SchemaError(
                f"edge walk visits {list(e.walk.visited)}, not the vertices of its steps"
            )
        region = overlap(self.cover, e.charts)
        if not walk_inside(self.cover, e.walk, region):
            raise SchemaError(
                f"edge walk through {list(e.walk.visited)} leaves the overlap of {e.charts}"
            )
        if len(e.walk) == 0 and not self.cover.identity_edges:
            raise SchemaError("zero-length edges are disabled on this base")
        if e.phi not in self.q.source:
            raise SchemaError(f"edge decoration {e.phi!r} is not a morphism coset rep")

    def edge_endpoints(self, e: QuiverEdge) -> tuple[BundleObject, BundleObject]:
        """Validate e and return its glued (source, target), once per edge.

        Only valid edges are memoized, so an invalid one raises on every call.
        PathMor equality ignores `visited`, which validation reads, so a hit
        also needs the same vertex sequence."""
        hit = self._ends.get(e)
        if hit is not None and hit[0] == e.walk.visited:
            return hit[1]
        self.validate_edge(e)
        ends = (self.canonical_obj(e.chart, e.walk.start, self.q.source[e.phi]),
                self.canonical_obj(e.chart, e.walk.end, self.q.target[e.phi]))
        self._ends[e] = (e.walk.visited, ends)
        return ends

    def mor_endpoints(self, m: BundleMorphism) -> tuple[BundleObject, BundleObject]:
        """Validate every edge and every junction of m in one pass and return
        (source, target)."""
        if m.is_identity:
            return m.at, m.at
        first = prev = None
        for e in m.edges:
            s, t = self.edge_endpoints(e)
            if prev is None:
                first = s
            elif s != prev:
                raise CompositionError(
                    f"chain breaks: edge starts at {s} but previous ended at {prev}"
                )
            prev = t
        return first, prev

    def project(self, m: BundleMorphism) -> PathMor:
        if m.is_identity:
            return self.cover.identity_walk(m.at.vertex)
        walk = m.edges[0].walk
        for e in m.edges[1:]:
            walk = compose_paths(self.cover, e.walk, walk)
        return walk

    # ----- the right action --------------------------------------------------

    def act_obj(self, x: BundleObject, obj_rep: str) -> BundleObject:
        return BundleObject(x.chart, x.vertex, self.q.obj_product(x.fiber, obj_rep))

    def _is_identity_coset(self, phi: str) -> bool:
        return phi == self.q.identity_mor_at(self.q.source[phi])

    def act_mor(self, m: BundleMorphism, psi: str) -> BundleMorphism:
        """Right action by a morphism coset: the last edge's decoration is
        multiplied by psi, earlier decorations by the identity coset at the
        source object of psi."""
        q = self.q
        if psi not in q.source:
            raise SchemaError(f"{psi!r} is not a morphism coset rep")
        unit_at_source = q.identity_mor_at(q.source[psi])
        if m.is_identity:
            phi = q.mor_product(q.identity_mor_at(m.at.fiber), psi)
            x = m.at
            if self._is_identity_coset(phi):
                return BundleMorphism.identity(
                    BundleObject(x.chart, x.vertex, q.source[phi]))
            e = QuiverEdge(x.chart, (x.chart,),
                           self.cover.identity_walk(x.vertex), phi)
            return BundleMorphism.chain([e])
        edges = []
        for n, e in enumerate(m.edges):
            mult = psi if n == len(m.edges) - 1 else unit_at_source
            edges.append(QuiverEdge(e.chart, e.charts, e.walk,
                                    q.mor_product(e.phi, mult)))
        return BundleMorphism.chain(edges)

    # ----- unit-split states and their normal form ---------------------------

    def _step_walk(self, step: Step) -> PathMor:
        w = self._sw_cache.get(step)
        if w is not None:
            return w
        if step[0] == "v":
            w = self.cover.identity_walk(step[1])
        else:
            _, eid, o = step
            u, v = self.cover.edge_by_id[eid]
            w = PathMor(u, ((eid, 1),), (u, v)) if o == 1 \
                else PathMor(v, ((eid, -1),), (v, u))
        self._sw_cache[step] = w
        return w

    def _reindex(self, k: str, c: str, w: PathMor, phi: str) -> str:
        """Move a decoration over walk w from chart c into chart k."""
        return phi if k == c else self.q.mor_product(self.thetabar(k, c, w), phi)

    def _move_unit(self, k: str, unit: Unit) -> str:
        """The decoration of `unit` re-indexed into chart k, memoized: there
        are only (charts x units) of them."""
        phi = self._moved.get((k, unit))
        if phi is None:
            c, step, phi = unit
            phi = self._reindex(k, c, self._step_walk(step), phi)
            self._moved[k, unit] = phi
        return phi

    def _charts_of(self, visited: tuple[str, ...]) -> list[str]:
        cs = self._cc_cache.get(visited)
        if cs is None:
            cs = self.cover.charts_containing(visited)
            self._cc_cache[visited] = cs
        return cs

    def unit_s_obj(self, unit: Unit) -> BundleObject:
        x = self._unit_s.get(unit)
        if x is None:
            c, step, phi = unit
            x = self.canonical_obj(c, self._step_walk(step).start, self.q.source[phi])
            self._unit_s[unit] = x
        return x

    def unit_t_obj(self, unit: Unit) -> BundleObject:
        x = self._unit_t.get(unit)
        if x is None:
            c, step, phi = unit
            x = self.canonical_obj(c, self._step_walk(step).end, self.q.target[phi])
            self._unit_t[unit] = x
        return x

    def neutral_unit(self, x: BundleObject) -> Unit:
        return (x.chart, ("v", x.vertex), self.q.identity_mor_at(x.fiber))

    def unit_split(self, m: BundleMorphism) -> State:
        if m.is_identity:
            return (self.neutral_unit(m.at),)
        units: list[Unit] = []
        for e in m.edges:
            steps = e.walk.steps
            if not steps:
                units.append((e.chart, ("v", e.walk.start), e.phi))
                continue
            # first unit carries the decoration, later units its target unit
            units.append((e.chart, ("e", *steps[0]), e.phi))
            if len(steps) > 1:
                tail = self.q.identity_mor_at(self.q.target[e.phi])
                units.extend((e.chart, ("e", *step), tail) for step in steps[1:])
        return tuple(units)

    def to_chain(self, state: State) -> BundleMorphism:
        return BundleMorphism.chain(
            QuiverEdge(c, (c,), self._step_walk(step), phi) for c, step, phi in state
        )

    def _merge_units(self, u1: Unit, u2: Unit) -> Unit:
        """Fold an adjacent pair into one unit over a fixed common chart.

        This is the merge half of the pair rewrite, so the folded state stays
        in the congruence class of the original."""
        st1, st2 = u1[1], u2[1]
        hit = self._merged_steps.get((st1, st2))
        if hit is None:
            w1, w2 = self._step_walk(st1), self._step_walk(st2)
            w = compose_paths(self.cover, w2, w1)
            if len(w) == 0:
                step: Step = ("v", w.start)
            elif len(w1) == 1:
                step = st1
            else:
                step = st2
            hit = self._merged_steps[st1, st2] = (self._charts_of(w.visited)[0], step)
        k, step = hit
        return (k, step, self.q.compose_of(self._move_unit(k, u2), self._move_unit(k, u1)))

    def _compact(self, state: State) -> State:
        """Fold every zero-step unit into a neighbor. The result has one unit
        per base step (or a single zero-step unit for a stationary class), so
        two states over the same walk always compact to equal lengths."""
        units = list(state)
        n = 0
        while len(units) > 1 and n < len(units):
            if units[n][1][0] != "v":
                n += 1
                continue
            if n + 1 < len(units):
                units[n:n + 2] = [self._merge_units(units[n], units[n + 1])]
            else:
                units[n - 1:n + 1] = [self._merge_units(units[n - 1], units[n])]
                n -= 1
        return tuple(units)

    def _walk_sig(self, state: State) -> tuple:
        steps = []
        for _c, step, _phi in state:
            if step[0] == "e":
                steps.append((step[1], step[2]))
        return (self._step_walk(state[0][1]).start, tuple(steps))

    def component_of(self, state: State) -> tuple:
        """The normal-form key (source object, walk, decorations) of the class
        of `state`; two states are equal morphisms exactly when their keys are
        equal. See the module docstring for the rewrites behind each step."""
        key = self._keys.get(state)
        if key is None:
            key = self._compact_key(state)[1]
        return key

    def _compact_key(self, state: State) -> tuple[State, tuple]:
        """(compacted state, normal-form key) of `state`: compact it once and
        store the key under both the state as given and its compaction."""
        compacted = self._compact(state)
        key = self._keys.get(compacted)
        if key is None:
            key = self._normal_form(compacted)
        self._keys[state] = self._keys[compacted] = key
        return compacted, key

    def _normal_form(self, state: State) -> tuple:
        """The key of a compacted state, read once from left to right."""
        q, cover = self.q, self.cover
        decorations = []
        c, step, a = state[0]
        for c2, step2, b in state[1:]:
            w1, w2 = self._step_walk(step), self._step_walk(step2)
            common = self._charts_of(compose_paths(cover, w2, w1).visited)
            if common:
                k = common[0]
                a = self._reindex(k, c, w1, a)
            elif cover.identity_edges:
                # slide a off its step onto the neutral step at the junction,
                # then re-index it there into the next step's first chart
                c0, k = self._charts_of(w1.visited)[0], self._charts_of(w2.visited)[0]
                a = self._reindex(k, c0, cover.identity_walk(w2.start),
                                  self._reindex(c0, c, w1, a))
            else:
                decorations.append(self._reindex(self._charts_of(w1.visited)[0], c, w1, a))
                c, step, a = c2, step2, b
                continue
            c, step, a = k, step2, q.compose_of(self._reindex(k, c2, w2, b), a)
        w = self._step_walk(step)
        decorations.append(self._reindex(self._charts_of(w.visited)[0], c, w, a))
        return (self.unit_s_obj(state[0]), self._walk_sig(state), tuple(decorations))

    # ----- equality, composition --------------------------------------------

    def mor_key(self, m: BundleMorphism) -> tuple:
        """((source, target), normal-form key) of m, after validating m; two
        morphisms are equal exactly when their keys are equal."""
        return self.mor_endpoints(m), self.component_of(self.unit_split(m))

    def state_key(self, state: State) -> tuple:
        """`mor_key(to_chain(state))` for a composable state of valid units, as
        `enumerate_chains` yields, without building the chain."""
        return ((self.unit_s_obj(state[0]), self.unit_t_obj(state[-1])),
                self.component_of(state))

    def mor_equal(self, a: BundleMorphism, b: BundleMorphism) -> bool:
        """Validate both morphisms, then compare their keys."""
        if a.is_identity and b.is_identity:
            return a.at == b.at
        return self.mor_key(a) == self.mor_key(b)

    def mor_compose(self, first: BundleMorphism, second: BundleMorphism) -> BundleMorphism:
        """Diagrammatic: first, then second. Needs t(first) = s(second)."""
        t1 = self.mor_endpoints(first)[1]
        s2 = self.mor_endpoints(second)[0]
        if t1 != s2:
            raise CompositionError(
                f"cannot compose: first ends at {t1}, second starts at {s2}"
            )
        if first.is_identity:
            return second
        if second.is_identity:
            return first
        return BundleMorphism.chain(first.edges + second.edges)

    # ----- constructive lifts and reductions ---------------------------------

    def lift_walk(self, walk: PathMor):
        """A chain over `walk` starting in the identity fiber coset; returns
        (morphism, None) or (None, witness) when a step has no covering chart."""
        q, cover = self.q, self.cover
        if len(walk) == 0:
            x = BundleObject(cover.smallest_chart(walk.start), walk.start,
                             q.identity_obj())
            return BundleMorphism.identity(x), None
        edges = []
        fiber = q.identity_obj()
        prev_chart = None
        for (eid, o), v0 in zip(walk.steps, walk.visited):
            step_walk = self._step_walk(("e", eid, o))
            charts = cover.charts_containing(step_walk.visited)
            if not charts:
                return None, (
                    f"step ({eid!r}, {o}) of walk {walk.start}:{list(walk.steps)} "
                    f"has no chart containing both endpoints"
                )
            chart = charts[0]
            if prev_chart is not None:
                fiber = q.obj_product(self.gbar(chart, prev_chart, v0), fiber)
            edges.append(QuiverEdge(chart, (chart,), step_walk,
                                    q.identity_mor_at(fiber)))
            prev_chart = chart
        m = BundleMorphism.chain(edges)
        self.mor_endpoints(m)
        return m, None

    def reduce_to_chart(self, m: BundleMorphism, i: str, indices: tuple[str, ...]):
        """Transport every unit into chart i and compose the decorations,
        producing the (walk, coset) pair representing m over the overlap of
        `indices`. Sound: each transport is an edgewise re-index and each
        merge is an admissible pair merge."""
        region = overlap(self.cover, indices)
        if i not in indices:
            raise SchemaError(f"chart {i!r} is not in {indices}")
        if m.is_identity:
            if m.at.vertex not in region:
                raise DomainError("identity marker sits outside the overlap")
            fiber = m.at.fiber
            if m.at.chart != i:
                fiber = self.q.obj_product(self.gbar(i, m.at.chart, m.at.vertex), fiber)
            return self.cover.identity_walk(m.at.vertex), self.q.identity_mor_at(fiber)
        walk = self.project(m)
        if not walk_inside(self.cover, walk, region):
            raise DomainError("the projected walk leaves the overlap")
        return walk, self.reduce_state(self.unit_split(m), i)

    def reduce_state(self, state: State, i: str) -> str:
        """Re-index every unit of `state` into chart i and compose the
        decorations: the coset that chart i gives the state's walk."""
        total = None
        for unit in state:
            a = self._move_unit(i, unit)
            total = a if total is None else self.q.compose_of(a, total)
        return total


def enumerate_base_walks(cover, max_len: int) -> list[PathMor]:
    """All walks in the base graph up to max_len steps, identities included."""
    out = [cover.identity_walk(u) for u in sorted(cover.vertex_set)]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e, o, v in cover.steps_from(p.end):
                nxt.append(PathMor(p.start, p.steps + ((e, o),), p.visited + (v,)))
        nxt.sort(key=lambda p: (p.start, p.steps))
        out.extend(nxt)
        frontier = nxt
    return out


def enumerate_units(space: BundleSpace, region: Optional[frozenset] = None) -> list[Unit]:
    """All one-step decorated units whose step stays inside the region."""
    cover, q = space.cover, space.q
    verts = sorted(cover.vertex_set if region is None else region)
    vset = set(verts)
    units: list[Unit] = []
    if cover.identity_edges:
        for u in verts:
            for c in cover.charts_containing((u,)):
                for phi in q.morphisms.reps:
                    units.append((c, ("v", u), phi))
    steps: list[Step] = []
    for eid in sorted(cover.edge_by_id):
        u, v = cover.edge_by_id[eid]
        if u in vset and v in vset:
            steps.append(("e", eid, 1))
            if not cover.directed:
                steps.append(("e", eid, -1))
    for step in steps:
        w = space._step_walk(step)
        for c in cover.charts_containing(w.visited):
            for phi in q.morphisms.reps:
                units.append((c, step, phi))
    return units


def enumerate_chains(space: BundleSpace, max_units: int,
                     region: Optional[frozenset] = None) -> list[State]:
    """All composable unit chains with 1..max_units units inside the region."""
    units = enumerate_units(space, region)
    by_source: dict[BundleObject, list[Unit]] = {}
    for un in units:
        by_source.setdefault(space.unit_s_obj(un), []).append(un)
    out: list[State] = [(un,) for un in units]
    frontier = list(out)
    for _ in range(max_units - 1):
        nxt = []
        for st in frontier:
            for un in by_source.get(space.unit_t_obj(st[-1]), ()):
                nxt.append(st + (un,))
        out.extend(nxt)
        frontier = nxt
    return out


class LocalTrivialization:
    """The comparison functor from (walks inside an overlap) x (fiber 2-group)
    to the bundle restricted over that overlap: chart i carries the data."""

    def __init__(self, space: BundleSpace, i: str, indices: Iterable[str]):
        if not space.cover.identity_edges:
            raise PreconditionError(
                "local trivializations need zero-length edges enabled")
        indices = tuple(sorted(indices, key=space.cover.index_order.index))
        if i not in indices:
            raise SchemaError(f"chart {i!r} is not in {indices}")
        region = overlap(space.cover, indices)
        if not region:
            raise SchemaError(f"the overlap of {indices} is empty")
        self.space = space
        self.i = i
        self.indices = indices
        self.region = region

    def on_object(self, u: str, orep: str) -> BundleObject:
        if u not in self.region:
            raise DomainError(f"vertex {u!r} is outside the overlap of {self.indices}")
        return self.space.canonical_obj(self.i, u, orep)

    def on_pair(self, walk: PathMor, mrep: str) -> BundleMorphism:
        space, q = self.space, self.space.q
        if not walk_inside(space.cover, walk, self.region):
            raise DomainError(f"walk leaves the overlap of {self.indices}")
        mrep = q.morphisms.rep(mrep)
        if len(walk) == 0 and mrep == q.identity_mor_at(q.source[mrep]):
            return BundleMorphism.identity(self.on_object(walk.start, q.source[mrep]))
        return BundleMorphism.chain(
            [QuiverEdge(self.i, self.indices, walk, mrep)])

    def check(self, max_len: int = 3, max_units: int = 3,
              chains: Optional[list[State]] = None) -> Report:
        """The comparison-functor laws over walks of at most max_len steps.
        `chains` are the bounded chains over the overlap, as
        `enumerate_chains(space, max_units, self.region)` gives them, for
        callers that check several charts of one index set."""
        space, q = self.space, self.space.q
        tag = f"triv.{self.i}.{''.join(self.indices)}"
        rep = Report("bundle")
        walks = enumerate_paths(space.cover, self.indices, max_len)
        mreps = q.morphisms.reps
        pair_keys: dict[tuple, tuple] = {}

        def pair_key(start: str, steps: tuple, phi: str) -> tuple:
            """mor_key(on_pair(walk, phi)), memoized by (start, steps, phi)."""
            key = pair_keys.get((start, steps, phi))
            if key is None:
                key = space.mor_key(self.on_pair(space.cover.walk(start, steps), phi))
                pair_keys[start, steps, phi] = key
            return key

        witness = None
        images = set()
        for u in sorted(self.region):
            i0 = space.cover.smallest_chart(u)
            for f in q.objects.reps:
                a = q.obj_product(space.gbar(self.i, i0, u), f)
                x = self.on_object(u, a)
                images.add(x)
                if x != BundleObject(i0, u, f):
                    witness = f"object ({u}, {a}) does not land on ({i0}, {u}, {f})"
        expected = len(self.region) * len(q.objects.reps)
        if witness is None and len(images) != expected:
            witness = f"object map image has {len(images)} points, expected {expected}"
        rep.record(f"{tag}.obj_bijective",
                   "the object map is a bijection onto glued classes over the overlap",
                   witness is None, witness)

        witness = None
        for w in walks:
            for n, m1 in enumerate(mreps):
                key1 = pair_key(w.start, w.steps, m1)
                for m2 in mreps[n + 1:]:
                    if pair_key(w.start, w.steps, m2) == key1:
                        witness = (f"({w.start}:{list(w.steps)}, {m1}) and "
                                   f"(same walk, {m2}) map to equal morphisms")
                        break
                if witness:
                    break
            if witness:
                break
        rep.record(f"{tag}.mor_injective",
                   "distinct fiber morphisms over one walk stay distinct",
                   witness is None, witness)

        witness = None
        if chains is None:
            chains = enumerate_chains(space, max_units, self.region)
        for st in chains:
            # unit_split(to_chain(st)) == st, so st is keyed as it stands
            start, steps = space._walk_sig(st)
            if space.state_key(st) != pair_key(start, steps, space.reduce_state(st, self.i)):
                witness = f"chain {st} is not equal to its chart-{self.i} reduction"
                break
        rep.record(f"{tag}.mor_surjective",
                   "every bounded chain over the overlap is hit by the functor",
                   witness is None, witness)

        witness = None
        for w1 in walks:
            for w2 in walks:
                if w1.end != w2.start or len(w1) + len(w2) > max_len:
                    continue
                w21 = compose_paths(space.cover, w2, w1)
                for m1 in mreps:
                    for m2 in q.mors_with_source(q.target[m1]):
                        lhs = pair_key(w21.start, w21.steps, q.compose_of(m2, m1))
                        rhs = space.mor_compose(self.on_pair(w1, m1),
                                                self.on_pair(w2, m2))
                        if space.mor_key(rhs) != lhs:
                            witness = (f"composite of ({w1.steps}, {m1}) then "
                                       f"({w2.steps}, {m2}) disagrees")
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        rep.record(f"{tag}.functorial",
                   "the functor preserves composition and identities",
                   witness is None, witness)

        witness = None
        for w in walks:
            for m1 in mreps:
                m = self.on_pair(w, m1)
                for psi in mreps:
                    lhs = pair_key(w.start, w.steps, q.mor_product(m1, psi))
                    if space.mor_key(space.act_mor(m, psi)) != lhs:
                        witness = f"action by {psi} breaks on ({w.steps}, {m1})"
                        break
                if witness:
                    break
            if witness:
                break
        rep.record(f"{tag}.equivariant",
                   "the functor intertwines the right fiber actions",
                   witness is None, witness)

        witness = None
        for w in walks:
            for m1 in mreps:
                pr = space.project(self.on_pair(w, m1))
                if (pr.start, pr.steps) != (w.start, w.steps):
                    witness = f"projection of ({w.steps}, {m1}) is not the walk itself"
                    break
            if witness:
                break
        rep.record(f"{tag}.projection",
                   "projection after the functor returns the base walk",
                   witness is None, witness)
        return rep


def check_bundle_axioms(space: BundleSpace, max_len: int = 3,
                        max_units: int = 2) -> Report:
    """The bundle-level law battery: gluing, projection surjectivity, free
    right action, congruence sanity, and every local trivialization."""
    q, cover = space.q, space.cover
    rep = space.check_glue_relation()

    witness = None
    for u in sorted(cover.vertex_set):
        for c in cover.charts_containing((u,)):
            for f in q.objects.reps:
                x = space.canonical_obj(c, u, f)
                for c2 in cover.charts_containing((u,)):
                    f2 = q.obj_product(space.gbar(c2, c, u), f)
                    if space.canonical_obj(c2, u, f2) != x:
                        witness = f"({c}, {u}, {f}) and its {c2} transport split"
    rep.record("bundle.objects.glue_consistent",
               "glued triples canonicalize to one representative",
               witness is None, witness)

    n_objects = len(space.objects_all())
    expected = len(cover.vertex_set) * len(q.objects.reps)
    rep.record("bundle.objects.count",
               "one glued object class per vertex and fiber coset",
               n_objects == expected,
               f"{n_objects} classes, expected {expected}")

    witness = None
    hit = {x.vertex for x in space.objects_all()}
    if hit != set(cover.vertex_set):
        witness = f"vertices {sorted(set(cover.vertex_set) - hit)} have empty fibers"
    rep.record("bundle.proj.obj_surjective",
               "projection is onto the vertex set", witness is None, witness)

    witness = None
    for w in enumerate_base_walks(cover, max_len):
        m, why = space.lift_walk(w)
        if m is None:
            witness = why
            break
        pr = space.project(m)
        if (pr.start, pr.steps) != (w.start, w.steps):
            witness = f"lift of {w.start}:{list(w.steps)} projects elsewhere"
            break
    rep.record("bundle.proj.mor_surjective",
               "every bounded base walk lifts through the projection",
               witness is None, witness)

    witness = None
    for x in space.objects_all():
        for a in q.objects.reps:
            y = space.act_obj(x, a)
            if y.vertex != x.vertex:
                witness = f"action by {a} moved {x} off its vertex"
                break
            if (y == x) != (a == q.identity_obj()):
                witness = f"object action by {a} is not free at {x}"
                break
        if witness:
            break
    rep.record("bundle.action.obj_free",
               "the object action is free and projection-invariant",
               witness is None, witness)

    neutral = q.identity_mor_at(q.identity_obj())
    markers = [BundleMorphism.identity(x) for x in space.objects_all()]
    states = enumerate_chains(space, max_units)

    # the distinct compacted states of the bounded chains, grouped by class;
    # keying them first compacts each chain once for every check below
    classes: dict[tuple, dict[State, None]] = {}
    walk_witness = None
    for st in states:
        compacted, key = space._compact_key(st)
        if walk_witness is None and space._walk_sig(st) != key[1]:
            walk_witness = f"chain {st} is equal to a morphism over another walk"
        classes.setdefault(key, {})[compacted] = None

    witness = None
    for m in itertools.chain(markers, map(space.to_chain, states)):
        pm, key = space.project(m), space.mor_key(m)
        for psi in q.morphisms.reps:
            acted = space.act_mor(m, psi)
            pr = space.project(acted)
            if (pr.start, pr.steps) != (pm.start, pm.steps):
                witness = f"action by {psi} changed a projected walk"
                break
            if (space.mor_key(acted) == key) != (psi == neutral):
                witness = f"morphism action by {psi} is not free on {m}"
                break
        if witness:
            break
    rep.record("bundle.action.mor_free",
               "the morphism action is free, unital, and projection-invariant",
               witness is None, witness)

    loops = [p for p in q.morphisms.reps if q.source[p] == q.target[p]]
    witness = None
    one_unit = [space.to_chain(st) for st in enumerate_chains(space, 1)]
    by_source_obj: dict[BundleObject, list[BundleMorphism]] = {}
    for m in one_unit:
        by_source_obj.setdefault(space.mor_endpoints(m)[0], []).append(m)
    for m1 in one_unit:
        t1 = space.mor_endpoints(m1)[1]
        for m2 in by_source_obj.get(t1, ()):
            comp = space.mor_compose(m1, m2)
            for psi in loops:
                unit_at = q.identity_mor_at(q.source[psi])
                lhs = space.act_mor(comp, psi)
                try:
                    rhs = space.mor_compose(space.act_mor(m1, unit_at),
                                            space.act_mor(m2, psi))
                except CompositionError as exc:
                    witness = f"exchange composite undefined: {exc}"
                    break
                if not space.mor_equal(lhs, rhs):
                    witness = f"exchange law breaks for {psi} on a 2-chain"
                    break
            if witness:
                break
        if witness:
            break
    rep.record("bundle.action.exchange",
               "acting on a composite equals composing the acted factors "
               "(loop fiber morphisms)",
               witness is None, witness)

    witness = None
    # members share one key, and the neutral morphism changes no decoration
    movers = [psi for psi in q.morphisms.reps if psi != neutral]
    for members in classes.values():
        base, *others = [space.to_chain(st) for st in members]
        for psi in movers:
            target = space.mor_key(space.act_mor(base, psi))
            for other in others:
                if space.mor_key(space.act_mor(other, psi)) != target:
                    witness = f"equal chains act apart under {psi}"
                    break
            if witness:
                break
        if witness:
            break
    rep.record("bundle.action.equivariant",
               "equal morphisms stay equal under the fiber action",
               witness is None, witness)

    rep.record("bundle.proj.class_invariant",
               "equal morphisms project to the same base walk",
               walk_witness is None, walk_witness)

    witness = None
    for (x, walk), n in Counter(key[:2] for key in classes).items():
        want = len(q.mors_with_source(x.fiber))
        if n != want:
            witness = f"{n} classes over walk {walk} from {x}, expected {want}"
            break
    rep.record("bundle.mor.torsor",
               "the morphism classes over one walk from one object are as many "
               "as the fiber morphisms out of its fiber object",
               witness is None, witness)

    witness = None
    pairs_checked = 0
    for m1 in one_unit:
        if pairs_checked > 400:
            break
        t1 = space.mor_endpoints(m1)[1]
        alts1 = list(classes[space.component_of(space.unit_split(m1))])[:2]
        for m2 in by_source_obj.get(t1, ())[:3]:
            alts2 = list(classes[space.component_of(space.unit_split(m2))])[:2]
            comp = space.mor_key(space.mor_compose(m1, m2))
            for a1 in alts1:
                for a2 in alts2:
                    pairs_checked += 1
                    alt = space.mor_compose(space.to_chain(a1), space.to_chain(a2))
                    if space.mor_key(alt) != comp:
                        witness = "composition depends on chain representatives"
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    rep.record("bundle.compose.representative_free",
               "composition does not depend on the chain representative",
               witness is None, witness)

    # one region's bounded chains at a time, shared by all of its charts
    max_units = min(max_len, 3)
    for indices in index_family(cover).members:
        trivs = [LocalTrivialization(space, i, indices) for i in indices]
        chains = enumerate_chains(space, max_units, trivs[0].region)
        for triv in trivs:
            rep.merge(triv.check(max_len, max_units, chains))
    return rep
