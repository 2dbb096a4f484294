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

Equality is decided by a normal form that pushes every decoration to the last
unit, read in one left fold over a chain's unit steps (`_fold`). Its state is
the source object, the running (chart, step, decoration), the finished
decorations, the last edge unit and the merged run of pending zero-length
units. An edge unit first absorbs the pending run (`_merge_units`), and the
edge unit before it is pushed into the running decoration: both are
re-indexed into the first chart holding both steps and composed there, which
re-splits the pair with an identity on the earlier step. Where no chart holds
both steps, the running decoration is moved to its step's first chart,
re-split onto a neutral unit at the junction vertex and re-indexed along that
vertex's identity walk into the next step's first chart; on a base without
zero-length edges a decoration is finished there instead. At the end a
trailing run merges back into the last edge unit, and the last decoration is
moved into its step's first chart. The key is (source object, walk,
decorations).

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

A morphism's full key (`mor_key`) is its (source, target) pair followed by
its normal-form key, and `mor_equal` compares the two full keys. Each side is
validated and split into units once. So `mor_equal` raises on an invalid edge
or a broken junction in either argument, whatever the other argument's walk.
`_keys` maps each keyed state to its key, the battery's two-unit states
included, and `_interned` holds one object per distinct walk and key. The law
battery keys each enumerated unit state through its compaction, acts on it
with `act_state` and composes by concatenation, so it builds no chain. A
local trivialization builds, validates, keys and splits the image
`on_pair(walk, phi)` of each (walk, fiber morphism) pair once per check. Its
`functorial` and `equivariant` checks key two images concatenated and an
image acted on by `act_state` with `composed_key`, the one junction check on
unit states. Its `mor_surjective` check folds the bounded chains layer by
layer over distinct fold states (`fold_layers`) and keys no chain. In the
battery, a trivialization of chart i over several charts restricts the one
over chart i alone: where their images agree it takes chart i's passed
verdicts without a scan, so a clean battery enumerates no trivialization
region (`check_bundle_axioms`). Every chart move of a decoration goes
through `_move_unit`. It, the merge steps and the pushes are
`functools.cache` memos on units and steps; none grows with the chains.

`BundleObject`, `QuiverEdge` and `BundleMorphism` are named tuples, so they
are built, hashed and compared in C; their reprs are the field-by-field form
that witnesses embed. `PathMor` is a small slotted class, not a tuple: its
equality and hash read (start, steps) and ignore `visited`, and an edge hashes
and compares through its walk, so the endpoint memo still reads `visited` on
a hit.

The right action is written once, in `act_state`: on a unit state it
multiplies the last unit's decoration by psi and every earlier one by the
identity coset at the source object of psi, reading each product from a
table of decorations per coset, filled on first use (at most cosets x cosets
entries). The battery's action laws read acted keys from one map of its
enumerated states. To act on a chain, act on its `unit_split`; to compose
two chains, concatenate their edges. The identity at a canonical object x
is the neutral chain `to_chain((neutral_unit(x),))` (zero-length walk,
identity decoration), a two-sided unit under concatenation.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .complexes import (
    PathMor,
    compose_paths,
    enumerate_paths,
    index_family,
    overlap,
    walk_inside,
    walks_within,
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
    """A nonempty chain of edges."""
    edges: tuple[QuiverEdge, ...]

    @staticmethod
    def chain(edges: Iterable[QuiverEdge]) -> "BundleMorphism":
        edges = tuple(edges)
        if not edges:
            raise SchemaError("a morphism chain needs at least one edge")
        return BundleMorphism(edges)


# unit steps of a chain state: ("v", vertex) stands still, ("e", id, o) moves
Step = tuple
Unit = tuple  # (chart, Step, phi rep)
State = tuple  # tuple of Units
FOLD_START = (None, None, (), None, None)  # the fold state of the empty state


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
        self._tb_cache: dict[tuple[str, str, str, tuple[str, ...]], str] = {}
        self._keys: dict[tuple, tuple] = {}
        self._interned: dict[tuple, tuple] = {}  # one object per distinct walk or key
        self._sw_cache: dict[Step, PathMor] = {}
        self._unit_s: dict[Unit, BundleObject] = {}
        self._unit_t: dict[Unit, BundleObject] = {}
        self._cc_cache: dict[tuple[str, ...], list[str]] = {}
        self._ends: dict[QuiverEdge,
                         tuple[tuple[str, ...], tuple[BundleObject, BundleObject]]] = {}
        # psi -> (phi -> phi psi, phi -> phi times the identity at s(psi))
        self._actions: dict[str, tuple[Callable, Callable]] = {}
        # memos keyed by their arguments
        self.gbar = cache(self.gbar)
        self._move_unit = cache(self._move_unit)
        self._merge_step = cache(self._merge_step)
        self._absorb = cache(self._absorb)

    # ----- transported cocycle values on cosets ----------------------------

    def gbar(self, to_chart: str, from_chart: str, u: str) -> str:
        return self.q.objects.rep(self.fc.g(to_chart, from_chart, u))

    def thetabar(self, to_chart: str, from_chart: str, walk: PathMor) -> str:
        # keyed by all that `eval_theta` reads, its overlap check included
        key = (to_chart, from_chart, walk.start, walk.visited)
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
        """(i,u,a) ~ (j,u,gbar_ji(u) a) must be reflexive, symmetric, transitive,
        and its classes, which `canonical_obj` reaches from every (chart,
        vertex, coset) triple, are one per vertex and fiber coset."""
        rep = Report("bundle")
        cover, q = self.cover, self.q

        rep.search("bundle.glue.reflexive", "gbar_ii(u) = identity coset", (
            f"gbar_{i}{i}({u}) is not the identity coset"
            for i in cover.index_order for u in sorted(cover.chart(i))
            if self.gbar(i, i, u) != q.identity_obj()))

        def asymmetries():
            for i in cover.index_order:
                for j in cover.index_order:
                    for u in sorted(overlap(cover, (i, j))):
                        if q.obj_product(self.gbar(i, j, u), self.gbar(j, i, u)) \
                                != q.identity_obj():
                            yield f"gbar_{i}{j}({u}) gbar_{j}{i}({u}) != identity coset"
        rep.search("bundle.glue.symmetric", "gbar_ij(u) gbar_ji(u) = identity coset",
                   asymmetries())

        def intransitivities():
            for i in cover.index_order:
                for j in cover.index_order:
                    for k in cover.index_order:
                        for u in sorted(overlap(cover, (i, j, k))):
                            lhs = q.obj_product(self.gbar(k, j, u), self.gbar(j, i, u))
                            if lhs != self.gbar(k, i, u):
                                yield f"gbar_{k}{j} gbar_{j}{i} != gbar_{k}{i} at {u}"
        rep.search("bundle.glue.transitive", "gbar_kj(u) gbar_ji(u) = gbar_ki(u)",
                   intransitivities())

        triples = [(c, u, f) for u in sorted(cover.vertex_set)
                   for c in cover.charts_containing((u,)) for f in q.objects.reps]

        def splits():
            for c, u, f in triples:
                x = self.canonical_obj(c, u, f)
                for c2 in cover.charts_containing((u,)):
                    f2 = q.obj_product(self.gbar(c2, c, u), f)
                    if self.canonical_obj(c2, u, f2) != x:
                        yield f"({c}, {u}, {f}) and its {c2} transport split"
        rep.search("bundle.objects.glue_consistent",
                   "glued triples canonicalize to one representative", splits())

        classes = {self.canonical_obj(*t) for t in triples}
        expected = len(cover.vertex_set) * len(q.objects.reps)
        rep.record("bundle.objects.count",
                   "one glued object class per vertex and fiber coset",
                   len(classes) == expected,
                   f"{len(classes)} classes, expected {expected}")

        empty = sorted(set(cover.vertex_set) - {x.vertex for x in classes})
        rep.record("bundle.proj.obj_surjective", "projection is onto the vertex set",
                   not empty, f"vertices {empty} have empty fibers")
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
        walk = m.edges[0].walk
        for e in m.edges[1:]:
            walk = compose_paths(self.cover, e.walk, walk)
        return walk

    # ----- the right action --------------------------------------------------

    def act_obj(self, x: BundleObject, obj_rep: str) -> BundleObject:
        return BundleObject(x.chart, x.vertex, self.q.obj_product(x.fiber, obj_rep))

    def act_state(self, state: State, psi: str) -> State:
        """Right action by a morphism coset on a unit state: the last unit's
        decoration is multiplied by psi, every earlier one by the identity
        coset at the source object of psi."""
        tables = self._actions.get(psi)
        if tables is None:
            q = self.q
            if psi not in q.source:
                raise SchemaError(f"{psi!r} is not a morphism coset rep")
            e = q.identity_mor_at(q.source[psi])
            tables = self._actions[psi] = (cache(lambda phi: q.mor_product(phi, psi)),
                                           cache(lambda phi: q.mor_product(phi, e)))
        last, head = tables
        *init, (c, step, phi) = state
        acted = []
        for c0, step0, phi0 in init:
            acted.append((c0, step0, head(phi0)))
        acted.append((c, step, last(phi)))
        return tuple(acted)

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

    def _move_unit(self, k: str, unit: Unit) -> str:
        """The decoration of `unit` re-indexed into chart k: the one chart
        move, with (charts x units) keys."""
        c, step, phi = unit
        return phi if k == c else self.q.mor_product(
            self.thetabar(k, c, self._step_walk(step)), phi)

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
        k, step = self._merge_step(u1[1], u2[1])
        return (k, step, self.q.compose_of(self._move_unit(k, u2), self._move_unit(k, u1)))

    def _merge_step(self, st1: Step, st2: Step) -> tuple[str, Step]:
        """The (first chart, step) of the walk of st1 then st2."""
        w1, w2 = self._step_walk(st1), self._step_walk(st2)
        w = compose_paths(self.cover, w2, w1)
        step = ("v", w.start) if len(w) == 0 else st1 if len(w1) == 1 else st2
        return self._charts_of(w.visited)[0], step

    def _walk_sig(self, state: State) -> tuple:
        steps = []
        for _c, step, _phi in state:
            if step[0] == "e":
                steps.append((step[1], step[2]))
        sig = (self._step_walk(state[0][1]).start, tuple(steps))
        return self._interned.setdefault(sig, sig)

    def component_of(self, state: State) -> tuple:
        """The normal-form key (source object, walk, decorations) of the class
        of `state`; two states are equal morphisms exactly when their keys are
        equal. See the module docstring for the fold behind it."""
        key = self._keys.get(state)
        if key is None:
            key = self._keys[state] = self._fold_key(
                (self._walk_sig(state), reduce(self._fold, state, FOLD_START)))
        return key

    def _fold(self, fs, unit):
        """Read one raw unit into the fold state (source object, running
        (chart, step, decoration), finished decorations, last edge unit,
        merged run of pending zero-length units)."""
        src, run, decs, held, pending = fs
        if pending:
            unit = self._merge_units(pending, unit)
        if unit[1][0] == "v":
            return src, run, decs, held, unit
        if held:
            src, run, decs = self._push(src, run, decs, held)
        return src, run, decs, unit, None

    def _fold_key(self, folded):
        """The key of a (walk, fold state) pair: a trailing run merges back
        into the last edge unit, which is read last."""
        sig, (src, run, decs, held, pending) = folded
        last = self._merge_units(held, pending) if held and pending else held or pending
        src, run, decs = self._push(src, run, decs, last)
        key = src, sig, decs + (self._settle(run),)
        return self._interned.setdefault(key, key)

    def _settle(self, run):
        """A running decoration moved into the first chart of its step."""
        return self._move_unit(self._charts_of(self._step_walk(run[1]).visited)[0], run)

    def _push(self, src, run, decs, unit):
        """Read one compacted unit into (source object, running triple,
        finished decorations)."""
        if not run:
            return self.unit_s_obj(unit), unit, decs
        run, settled = self._absorb(run, unit)
        return src, run, decs + settled

    def _absorb(self, run, unit):
        cover = self.cover
        w1, w2 = self._step_walk(run[1]), self._step_walk(unit[1])
        common = self._charts_of(compose_paths(cover, w2, w1).visited)
        if common:
            k = common[0]
            a = self._move_unit(k, run)
        elif cover.identity_edges:
            # slide the decoration off its step onto the neutral unit at the
            # junction, then re-index it there into the next step's first chart
            c0, k = self._charts_of(w1.visited)[0], self._charts_of(w2.visited)[0]
            a = self._move_unit(k, (c0, ("v", w2.start), self._move_unit(c0, run)))
        else:
            return unit, (self._settle(run),)
        return (k, unit[1], self.q.compose_of(self._move_unit(k, unit), a)), ()

    # ----- equality ---------------------------------------------------------

    def mor_key(self, m: BundleMorphism) -> tuple:
        """((source, target), normal-form key) of m, after validating m; two
        morphisms are equal exactly when their keys are equal."""
        return self.mor_endpoints(m), self.component_of(self.unit_split(m))

    def state_key(self, state: State) -> tuple:
        """`mor_key(to_chain(state))` for a composable state of valid units, as
        `enumerate_chains` yields, without building the chain."""
        return ((self.unit_s_obj(state[0]), self.unit_t_obj(state[-1])),
                self.component_of(state))

    def composed_key(self, state: State) -> Optional[tuple]:
        """`state_key` of a state of valid units, or None if some unit does
        not end where the next one starts."""
        for u1, u2 in zip(state, state[1:]):
            if self.unit_t_obj(u1) != self.unit_s_obj(u2):
                return None
        return self.state_key(state)

    def mor_equal(self, a: BundleMorphism, b: BundleMorphism) -> bool:
        """Validate both morphisms, then compare their keys."""
        return self.mor_key(a) == self.mor_key(b)

    # ----- constructive lifts and reductions ---------------------------------

    def lift_walk(self, walk: PathMor):
        """A chain over `walk` starting in the identity fiber coset; returns
        (morphism, None) or (None, witness) when a step has no covering chart.
        A zero-length walk lifts to the neutral chain at its canonical object."""
        q, cover = self.q, self.cover
        if len(walk) == 0:
            x = BundleObject(cover.smallest_chart(walk.start), walk.start,
                             q.identity_obj())
            return self.to_chain((self.neutral_unit(x),)), None
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


def enumerate_base_walks(cover, max_len: int) -> list[PathMor]:
    """All walks in the base graph up to max_len steps, identities included."""
    return walks_within(cover, cover.vertex_set, max_len)


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


def fold_layers(space: BundleSpace, i: str, region: frozenset,
                max_units: int) -> Iterator[tuple]:
    """(walk signature, chart-i coset, `state_key`) of the chains of 1..max_units
    units inside the region, once per distinct layer state (walk, source
    object, fold state, chart-i coset, target object). Each layer extends the
    last one's states by every unit leaving their target, one `_fold` step
    and one `compose_of` each. A last layer of two units reads its chains'
    keys from `_keys`, where the battery stored them, and the scan stores
    none."""
    by_source: dict = {}
    for un in enumerate_units(space, region):
        by_source.setdefault(space.unit_s_obj(un), []).append(
            (un, space._walk_sig((un,))[1], space._move_unit(i, un), space.unit_t_obj(un)))
    layer = [((x.vertex, ()), FOLD_START, x, None, x) for x in by_source]
    for depth in range(max_units):
        states = {}
        for walk, fs, x, coset, y in layer:
            for un, steps, moved, t in by_source.get(y, ()):
                sig = walk
                if steps:  # one tuple per walk, however many states run over it
                    sig = (walk[0], walk[1] + steps)
                    sig = space._interned.setdefault(sig, sig)
                coset2 = moved if coset is None else space.q.compose_of(moved, coset)
                # the battery keyed every two-unit chain; a parent in the
                # first layer holds its one unit in its fold state
                key = depth == 1 and max_units == 2 and space._keys.get((fs[3] or fs[4], un))
                if key:
                    yield sig, coset2, ((x, t), key)
                    continue
                st = (sig, space._fold(fs, un), x, coset2, t)
                n = len(states)
                states[st] = None
                if len(states) > n:
                    yield sig, st[3], ((x, t), space._fold_key(st[:2]))
        layer = states


class LocalTrivialization:
    """The comparison functor from (walks inside an overlap) x (fiber 2-group)
    to the bundle restricted over that overlap: chart i carries the data."""

    def __init__(self, space: BundleSpace, i: str, indices: Iterable[str]):
        if not space.cover.identity_edges:
            raise PreconditionError(
                "local trivializations need zero-length edges enabled")
        indices = tuple(indices)
        region = overlap(space.cover, indices)  # names an unknown chart
        indices = tuple(sorted(indices, key=space.cover.index_order.index))
        if i not in indices:
            raise SchemaError(f"chart {i!r} is not in {indices}")
        if not region:
            raise SchemaError(f"the overlap of {indices} is empty")
        self.space = space
        self.i = i
        self.indices = indices
        self.region = region
        # set when `check` returns: the (mor_key, unit_split) of each image it
        # built, by (walk start, walk steps, phi), its (max_len, max_units)
        # and the names of the laws it passed
        self.images: dict[tuple, tuple[tuple, State]] = {}
        self.passed: set[str] = set()
        self.bounds: Optional[tuple[int, int]] = None

    def on_object(self, u: str, orep: str) -> BundleObject:
        if u not in self.region:
            raise DomainError(f"vertex {u!r} is outside the overlap of {self.indices}")
        return self.space.canonical_obj(self.i, u, orep)

    def on_pair(self, walk: PathMor, mrep: str) -> BundleMorphism:
        space, q = self.space, self.space.q
        if not walk_inside(space.cover, walk, self.region):
            raise DomainError(f"walk leaves the overlap of {self.indices}")
        return BundleMorphism.chain(
            [QuiverEdge(self.i, self.indices, walk, q.morphisms.rep(mrep))])

    def check(self, max_len: int = 3, max_units: int = 3,
              one_chart: Optional["LocalTrivialization"] = None) -> Report:
        """The comparison-functor laws over walks of at most max_len steps.

        Each (walk, phi) image is built, validated, keyed and split into units
        once; `projection` reads its walk from its key. `functorial` and
        `equivariant` key two images concatenated and an image acted on
        through `composed_key`. `mor_surjective` compares each distinct layer
        state of the bounded chains (`fold_layers`) with its chart-i image:
        chains with equal walk, source, fold state, coset and target have
        equal keys and cosets under every extension, so the layers make every
        comparison and store no chain. A disagreement rescans
        `enumerate_chains` in order for the witness.

        `one_chart`, the checked trivialization of chart i over (i,) alone,
        lends its passed `mor_surjective`, `functorial` and `equivariant`
        verdicts when it ran at the same bounds, both `mor_injective` checks
        passed and every image built here equals its own
        (`check_bundle_axioms` gives the argument)."""
        space, q = self.space, self.space.q
        tag = f"triv.{self.i}.{''.join(self.indices)}"
        rep = Report("bundle")
        walks = enumerate_paths(space.cover, self.indices, max_len)
        mreps = q.morphisms.reps
        pairs: dict[tuple, tuple[tuple, State]] = {}

        def pair(start: str, steps: tuple, phi: str) -> tuple[tuple, State]:
            """(mor_key, unit_split) of on_pair(walk, phi), memoized by
            (start, steps, phi): the only place an image is validated and
            keyed. It splits the image once, so the state it keeps is the
            one `component_of` stored its key under."""
            hit = pairs.get((start, steps, phi))
            if hit is None:
                m = self.on_pair(space.cover.walk(start, steps), phi)
                ends = space.mor_endpoints(m)
                state = space.unit_split(m)
                hit = pairs[start, steps, phi] = ((ends, space.component_of(state)), state)
            return hit

        def pair_key(start: str, steps: tuple, phi: str) -> tuple:
            return pair(start, steps, phi)[0]

        def pair_state(w: PathMor, phi: str) -> State:
            return pair(w.start, w.steps, phi)[1]

        def object_misses():
            images = set()
            for u in sorted(self.region):
                i0 = space.cover.smallest_chart(u)
                for f in q.objects.reps:
                    a = q.obj_product(space.gbar(self.i, i0, u), f)
                    x = self.on_object(u, a)
                    images.add(x)
                    if x != BundleObject(i0, u, f):
                        yield f"object ({u}, {a}) does not land on ({i0}, {u}, {f})"
            # reached only when every object landed
            expected = len(self.region) * len(q.objects.reps)
            if len(images) != expected:
                yield f"object map image has {len(images)} points, expected {expected}"
        rep.search(f"{tag}.obj_bijective",
                   "the object map is a bijection onto glued classes over the overlap",
                   object_misses())

        def collisions():
            for w in walks:
                keys = [pair_key(w.start, w.steps, m) for m in mreps]
                for n, key in enumerate(keys):
                    if key in keys[n + 1:]:
                        yield (f"({w.start}:{list(w.steps)}, {mreps[n]}) and (same walk, "
                               f"{mreps[keys.index(key, n + 1)]}) map to equal morphisms")
        rep.search(f"{tag}.mor_injective",
                   "distinct fiber morphisms over one walk stay distinct", collisions())

        # a passed mor_injective built every image over these walks, so the
        # comparison builds none
        carried: set[str] = set()
        if (one_chart is not None and rep.checks[-1].status == "pass"
                and one_chart.bounds == (max_len, max_units)
                and "mor_injective" in one_chart.passed
                and all(one_chart.images.get(k) == v for k, v in pairs.items())):
            carried = one_chart.passed

        def misses():
            # unit_split(to_chain(st)) == st, so st is keyed as it stands;
            # every unit is re-indexed into chart i and the decorations composed
            for st in enumerate_chains(space, max_units, self.region):
                coset = reduce(lambda phi, un: q.compose_of(space._move_unit(self.i, un), phi),
                               st[1:], space._move_unit(self.i, st[0]))
                if space.state_key(st) != pair_key(*space._walk_sig(st), coset):
                    yield f"chain {st} is not equal to its chart-{self.i} reduction"
        rep.search(f"{tag}.mor_surjective",
                   "every bounded chain over the overlap is hit by the functor",
                   () if "mor_surjective" in carried or all(
                       key == pair_key(*sig, coset) for sig, coset, key
                       in fold_layers(space, self.i, self.region, max_units)) else misses())

        def bad_composites():
            for w1 in walks:
                for w2 in walks:
                    if w1.end != w2.start or len(w1) + len(w2) > max_len:
                        continue
                    w21 = compose_paths(space.cover, w2, w1)
                    for m1 in mreps:
                        for m2 in q.mors_with_source(q.target[m1]):
                            lhs = pair_key(w21.start, w21.steps, q.compose_of(m2, m1))
                            key = space.composed_key(pair_state(w1, m1) + pair_state(w2, m2))
                            if key is None:
                                yield (f"composite of ({w1.steps}, {m1}) then "
                                       f"({w2.steps}, {m2}) breaks a junction")
                            elif key != lhs:
                                yield (f"composite of ({w1.steps}, {m1}) then "
                                       f"({w2.steps}, {m2}) disagrees")
        rep.search(f"{tag}.functorial",
                   "the functor preserves composition and identities",
                   () if "functorial" in carried else bad_composites())

        def unequivariant():
            for w in walks:
                for m1 in mreps:
                    for psi in mreps:
                        lhs = pair_key(w.start, w.steps, q.mor_product(m1, psi))
                        acted_key = space.composed_key(
                            space.act_state(pair_state(w, m1), psi))
                        if acted_key is None:
                            yield f"action by {psi} breaks a junction of ({w.steps}, {m1})"
                        elif acted_key != lhs:
                            yield f"action by {psi} breaks on ({w.steps}, {m1})"
        rep.search(f"{tag}.equivariant",
                   "the functor intertwines the right fiber actions",
                   () if "equivariant" in carried else unequivariant())

        def moved_walks():
            # the walk of an image's key is the walk of its edges
            for w in walks:
                for m1 in mreps:
                    if pair_key(w.start, w.steps, m1)[1][1] != (w.start, w.steps):
                        yield f"projection of ({w.steps}, {m1}) is not the walk itself"
        rep.search(f"{tag}.projection",
                   "projection after the functor returns the base walk", moved_walks())
        self.images, self.bounds = pairs, (max_len, max_units)
        self.passed = {c.check_id.rsplit(".", 1)[1] for c in rep.checks if c.status == "pass"}
        return rep


def check_bundle_axioms(space: BundleSpace, max_len: int = 3) -> Report:
    """The bundle-level law battery: gluing, projection surjectivity, free
    right action, congruence sanity, and every local trivialization.

    The action and composition laws run on the enumerated unit states of at
    most two units: each is keyed through its compaction, acted on with
    `act_state` and composed by concatenation.

    `index_family` lists the one-chart index sets first, and the
    trivialization of chart i over a larger set J is handed the checked one
    over (i,). For each of `mor_surjective`, `functorial` and `equivariant`
    that (i,) passed, J passes without a scan when both `mor_injective`
    checks passed and every J image (mor_key, unit_split) of
    `on_pair(walk, phi)` equals the (i,) image. J's region lies inside chart
    i's, so J's walks and bounded chains are (i,) walks and chains. A passed
    `mor_injective` built the image of every walk with every coset rep, and
    the scans read images at coset reps only, so the comparison builds no
    image and covers every image J's scans read. The chart-i coset, the
    fold, `act_state` and `composed_key` read units, never
    `QuiverEdge.charts`, so each comparison J's scan makes is one the (i,)
    scan made. Otherwise J scans as a trivialization checked alone does and
    reports its own first witness."""
    q, cover = space.q, space.cover
    rep = space.check_glue_relation()

    def unlifted():
        for w in enumerate_base_walks(cover, max_len):
            m, why = space.lift_walk(w)
            if m is None:
                yield why
                continue
            pr = space.project(m)
            if (pr.start, pr.steps) != (w.start, w.steps):
                yield f"lift of {w.start}:{list(w.steps)} projects elsewhere"
    rep.search("bundle.proj.mor_surjective",
               "every bounded base walk lifts through the projection", unlifted())

    def unfree_objects():
        for x in space.objects_all():
            for a in q.objects.reps:
                y = space.act_obj(x, a)
                if y.vertex != x.vertex:
                    yield f"action by {a} moved {x} off its vertex"
                if (y == x) != (a == q.identity_obj()):
                    yield f"object action by {a} is not free at {x}"
    rep.search("bundle.action.obj_free",
               "the object action is free and projection-invariant", unfree_objects())

    neutral = q.identity_mor_at(q.identity_obj())
    states = enumerate_chains(space, 2)

    # the distinct compacted states of the bounded chains, grouped by class;
    # keying them first compacts each chain once for every check below. The
    # action laws read an acted state's `state_key` from `keys`; a state not
    # there is no composable state of enumerated units, so it is keyed only
    # after its junctions are checked (`composed_key`).
    classes: dict[tuple, dict[State, None]] = {}
    keys: dict[State, tuple] = {}
    walk_witness = None
    for st in states:
        # keyed through its compaction: the fold merges a zero-length unit
        # into its neighbour
        compacted = (space._merge_units(*st),) if len(st) == 2 and "v" in (
            st[0][1][0], st[1][1][0]) else st
        key = space._keys[st] = space.component_of(compacted)
        if walk_witness is None and space._walk_sig(st) != key[1]:
            walk_witness = f"chain {st} is equal to a morphism over another walk"
        classes.setdefault(key, {})[compacted] = None
        keys[st] = space.state_key(st)

    def broken(psi: str, st: State) -> str:
        return f"action by {psi} breaks a junction of chain {st}"

    # every neutral unit, the identity at its object, is a one-unit state; a
    # key holds its walk
    def unfree_morphisms():
        for st in states:
            key = keys[st]
            for psi in q.morphisms.reps:
                acted = space.act_state(st, psi)
                acted_key = keys.get(acted) or space.composed_key(acted)
                if acted_key is None:
                    yield broken(psi, st)
                    continue
                if acted_key[1][1] != key[1][1]:
                    yield f"action by {psi} changed a projected walk"
                if (acted_key == key) != (psi == neutral):
                    yield f"morphism action by {psi} is not free on chain {st}"
    rep.search("bundle.action.mor_free",
               "the morphism action is free, unital, and projection-invariant",
               unfree_morphisms())

    loops = [p for p in q.morphisms.reps if q.source[p] == q.target[p]]
    units_at = [q.identity_mor_at(q.source[psi]) for psi in loops]
    one_unit = [st for st in states if len(st) == 1]
    by_source_obj: dict[BundleObject, list[State]] = {}
    for st in one_unit:
        by_source_obj.setdefault(space.unit_s_obj(st[0]), []).append(st)

    def exchange_breaks():
        for s1 in one_unit:
            firsts = [space.act_state(s1, unit) for unit in units_at]
            for s2 in by_source_obj.get(space.unit_t_obj(s1[-1]), ()):
                for psi, a1 in zip(loops, firsts):
                    lhs = space.act_state(s1 + s2, psi)
                    a12 = a1 + space.act_state(s2, psi)
                    rhs_key = keys.get(a12) or space.composed_key(a12)
                    if rhs_key is None:
                        yield (f"exchange composite undefined: the factors of chain "
                               f"{s1 + s2} acted by {psi} do not compose")
                        continue
                    lhs_key = keys.get(lhs) or space.composed_key(lhs)
                    if lhs_key is None:
                        yield broken(psi, s1 + s2)
                    elif lhs_key != rhs_key:
                        yield f"exchange law breaks for {psi} on a 2-chain"
    rep.search("bundle.action.exchange",
               "acting on a composite equals composing the acted factors "
               "(loop fiber morphisms)", exchange_breaks())

    # members share one key, and the neutral morphism changes no decoration
    movers = [psi for psi in q.morphisms.reps if psi != neutral]

    def split_classes():
        for members in classes.values():
            for psi in movers:
                target = None
                for st in members:
                    acted = space.act_state(st, psi)
                    acted_key = keys.get(acted) or space.composed_key(acted)
                    if acted_key is None:
                        yield broken(psi, st)
                    elif target is None:
                        target = acted_key
                    elif acted_key != target:
                        yield f"equal chains act apart under {psi}"
    rep.search("bundle.action.equivariant",
               "equal morphisms stay equal under the fiber action", split_classes())

    rep.record("bundle.proj.class_invariant",
               "equal morphisms project to the same base walk",
               walk_witness is None, walk_witness)

    def miscounts():
        for (x, walk), n in Counter(key[:2] for key in classes).items():
            want = len(q.mors_with_source(x.fiber))
            if n != want:
                yield f"{n} classes over walk {walk} from {x}, expected {want}"
    rep.search("bundle.mor.torsor",
               "the morphism classes over one walk from one object are as many "
               "as the fiber morphisms out of its fiber object", miscounts())

    def representative_dependence():
        pairs_checked = 0
        for s1 in one_unit:
            if pairs_checked > 400:
                return
            alts1 = list(classes[space.component_of(s1)])[:2]
            for s2 in by_source_obj.get(space.unit_t_obj(s1[-1]), ())[:3]:
                alts2 = list(classes[space.component_of(s2)])[:2]
                comp = space.state_key(s1 + s2)
                for a1 in alts1:
                    for a2 in alts2:
                        pairs_checked += 1
                        if space.state_key(a1 + a2) != comp:
                            yield "composition depends on chain representatives"
    rep.search("bundle.compose.representative_free",
               "composition does not depend on the chain representative",
               representative_dependence())
    del keys, classes, states

    # index_family lists the one-chart sets first
    triv_units = min(max_len, 3)
    one_chart: dict[str, LocalTrivialization] = {}
    for indices in index_family(cover):
        for i in indices:
            triv = LocalTrivialization(space, i, indices)
            rep.merge(triv.check(max_len, triv_units, one_chart.get(i)))
            if len(indices) == 1:
                one_chart[i] = triv
    return rep
