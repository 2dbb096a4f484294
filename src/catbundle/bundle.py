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
the source object, the running (chart, step, decoration) and the finished
decorations. The first unit starts the run; every later unit is absorbed into
it by one junction rule (`_absorb`), whose choices depend on the two steps
alone (`_junction`). Where a chart holds both steps, the run and the unit are
re-indexed into the first such chart and composed there: this merges the pair
and re-splits it with an identity on the dropped step, and the kept step is
the unit's, or the run's own when the unit is zero-length. Where no chart holds
both steps, the running decoration is moved to its step's first chart,
re-split onto a neutral unit at the junction vertex and re-indexed along that
vertex's identity walk into the next step's first chart; on a base without
zero-length edges a decoration is finished there instead. At the end the run
is moved into its step's first chart. The key is (source object, walk,
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

`edge_endpoints` validates each edge once per space and memoizes its glued
endpoints; `mor_endpoints` checks a chain's edges and junctions in one pass.
The memos are `functools.cache`, which stores nothing when a call raises, so
an invalid edge or a broken junction raises on every call. thetabar checks
the overlap, then reads a memo by (to, from, start, end): theta reads only
a walk's endpoints.

A morphism's full key (`mor_key`) is its (source, target) pair and its
normal-form key; `mor_equal` compares two full keys, each side validated and
split once, so it raises on an invalid edge or junction in either argument.
`_keys` maps each keyed state to its key, the battery's two-unit states
included, and `_interned` holds one object per distinct walk and key. Every
chart move of a decoration goes through `_move_unit`, a memo on (chart, unit);
`_junction` is a memo on step pairs and `_step_walk` on steps, and none grows
with the chains.

`BundleObject`, `QuiverEdge` and `BundleMorphism` are named tuples, like
`PathMor`, so they are built, hashed and compared in C; their reprs are the
field-by-field form that witnesses embed.

The right action is written once, in `act_state`. Per coset psi it reads
two plain dicts from decoration to decoration: one multiplies by psi (the
last unit), one by the identity at the source of psi (every earlier unit).
`mor_product` fills an entry on first use, at most one per coset; a product
that raises is not stored, so an unknown decoration raises on every call. To act on a chain, act on its `unit_split`; to compose
two chains, concatenate their edges. The identity at a canonical object x is
the neutral chain `to_chain((neutral_unit(x),))`, a two-sided unit under
concatenation.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import eq
from typing import Callable, Iterable, NamedTuple, Optional

from .complexes import PathMor, compose_paths
from .errors import CompositionError, DomainError, SchemaError
from .functorial import eval_theta
from .gerbal import GerbalCocycle
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
FOLD_START = (None, None, ())  # the fold state of the empty state


class _Products(dict):
    """phi -> phi times a fixed coset, filled on first use."""

    def __init__(self, product: Callable, factor: str):
        self.product, self.factor = product, factor

    def __missing__(self, phi: str) -> str:
        value = self[phi] = self.product(phi, self.factor)
        return value


class BundleSpace:
    """All bundle-level operations for one cocycle and quotient fiber.

    The space re-checks none of its inputs: the `peiffer`, `gerbal` and
    `quotient` suites check the crossed-module laws, the cocycle relations and
    the classical cocycle on cosets, and `suites.InstanceContext.space` builds
    a space only when their reports pass."""

    def __init__(self, gc: GerbalCocycle, q: QuotientCatGroup):
        self.gc = gc
        self.q = q
        self.cover = gc.cover
        self._keys: dict[tuple, tuple] = {}
        self._interned: dict[tuple, tuple] = {}  # one object per distinct walk or key
        # psi -> (phi -> phi psi, phi -> phi times the identity at s(psi))
        self._actions: dict[str, tuple[_Products, _Products]] = {}
        # memos keyed by their arguments
        self.gbar = cache(self.gbar)
        self._theta = cache(self._theta)
        self.edge_endpoints = cache(self.edge_endpoints)
        self._step_walk = cache(self._step_walk)
        self.unit_s_obj = cache(self.unit_s_obj)
        self.unit_t_obj = cache(self.unit_t_obj)
        self._move_unit = cache(self._move_unit)
        self._junction = cache(self._junction)
        self._charts_of = cache(self.cover.charts_containing)

    # ----- transported cocycle values on cosets ----------------------------

    def gbar(self, to_chart: str, from_chart: str, u: str) -> str:
        return self.q.objects.rep(self.gc.tower.g[(to_chart, from_chart, u)])

    def thetabar(self, to_chart: str, from_chart: str, walk: PathMor) -> str:
        indices = (to_chart, from_chart)
        if not self.cover.overlap(indices).issuperset(walk.visited):
            raise DomainError(
                f"walk through {list(walk.visited)} leaves the overlap of {indices}")
        return self._theta(to_chart, from_chart, walk.start, walk.end)

    def _theta(self, to_chart: str, from_chart: str, u: str, v: str) -> str:
        return self.q.q_mor(eval_theta(self.gc, to_chart, from_chart, u, v))

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
        """The classes of (i,u,a) ~ (j,u,gbar_ji(u) a), which `canonical_obj`
        reaches from every (chart, vertex, coset) triple, are one per vertex
        and fiber coset. That ~ is an equivalence is `classical.diagonal` and
        `classical.object`, which pass before a space is built."""
        rep = Report("bundle")
        cover, q = self.cover, self.q

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
        if not self.cover.overlap(e.charts).issuperset(e.walk.visited):
            raise SchemaError(
                f"edge walk through {list(e.walk.visited)} leaves the overlap of {e.charts}"
            )
        if len(e.walk.steps) == 0 and not self.cover.identity_edges:
            raise SchemaError("zero-length edges are disabled on this base")
        if e.phi not in self.q.source:
            raise SchemaError(f"edge decoration {e.phi!r} is not a morphism coset rep")

    def edge_endpoints(self, e: QuiverEdge) -> tuple[BundleObject, BundleObject]:
        """Validate e and return its glued (source, target), once per edge."""
        self.validate_edge(e)
        return (self.canonical_obj(e.chart, e.walk.start, self.q.source[e.phi]),
                self.canonical_obj(e.chart, e.walk.end, self.q.target[e.phi]))

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
        """Right action by the morphism coset psi on a unit state."""
        tables = self._actions.get(psi)
        if tables is None:
            q = self.q
            if psi not in q.source:
                raise SchemaError(f"{psi!r} is not a morphism coset rep")
            tables = self._actions[psi] = (
                _Products(q.mor_product, psi),
                _Products(q.mor_product, q.identity_mor_at(q.source[psi])))
        last, head = tables
        if len(state) == 2:
            (c0, step0, phi0), (c, step, phi) = state
            return (c0, step0, head[phi0]), (c, step, last[phi])
        *init, (c, step, phi) = state
        return (*[(c0, step0, head[phi0]) for c0, step0, phi0 in init], (c, step, last[phi]))

    # ----- unit-split states and their normal form ---------------------------

    def _step_walk(self, step: Step) -> PathMor:
        if step[0] == "v":
            return self.cover.identity_walk(step[1])
        _, eid, o = step
        u, v = self.cover.edge_by_id[eid]
        return PathMor(u, ((eid, 1),), (u, v)) if o == 1 \
            else PathMor(v, ((eid, -1),), (v, u))

    def _move_unit(self, k: str, unit: Unit) -> str:
        """The decoration of `unit` re-indexed into chart k: the one chart
        move, with (charts x units) keys."""
        c, step, phi = unit
        return phi if k == c else self.q.mor_product(
            self.thetabar(k, c, self._step_walk(step)), phi)

    def unit_s_obj(self, unit: Unit) -> BundleObject:
        c, step, phi = unit
        return self.canonical_obj(c, self._step_walk(step).start, self.q.source[phi])

    def unit_t_obj(self, unit: Unit) -> BundleObject:
        c, step, phi = unit
        return self.canonical_obj(c, self._step_walk(step).end, self.q.target[phi])

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
        (chart, step, decoration), finished decorations): the first unit
        starts the run, and every later one is absorbed into it."""
        src, run, decs = fs
        if not run:
            return self.unit_s_obj(unit), unit, decs
        run, settled = self._absorb(run, unit)
        return src, run, decs + settled

    def _fold_key(self, folded):
        """The key of a (walk, fold state) pair: the run is settled last."""
        sig, (src, run, decs) = folded
        key = src, sig, decs + (self._settle(run),)
        return self._interned.setdefault(key, key)

    def _settle(self, run):
        """A running decoration moved into the first chart of its step."""
        return self._move_unit(self._charts_of(self._step_walk(run[1]).visited)[0], run)

    def _junction(self, st1: Step, st2: Step) -> Optional[tuple]:
        """What the junction of step st1 then step st2 decides, as (chart k,
        kept step, slide). Where a chart holds both steps, k is the first one
        and there is no slide. Where none does, k is st2's first chart and
        slide the (chart, step) of the neutral unit at the junction in st1's
        first chart; on a base without zero-length edges there is no such
        unit, and the junction is None."""
        w1, w2 = self._step_walk(st1), self._step_walk(st2)
        common = self._charts_of(compose_paths(self.cover, w2, w1).visited)
        if common:
            return common[0], st1 if st2[0] == "v" else st2, None
        if self.cover.identity_edges:
            return (self._charts_of(w2.visited)[0], st2,
                    (self._charts_of(w1.visited)[0], ("v", w2.start)))
        return None

    def _absorb(self, run: Unit, unit: Unit) -> tuple[Unit, tuple]:
        """(new run, finished decorations) after `unit` follows `run`: both
        are re-indexed into the junction's chart and composed there, which
        merges the pair and re-splits it with an identity on the dropped
        step; a slide first moves the run's decoration onto the neutral unit
        at the junction; with no chart to meet in, the run is finished."""
        junction = self._junction(run[1], unit[1])
        if junction is None:
            return unit, (self._settle(run),)
        k, step, slide = junction
        if slide:
            run = (*slide, self._move_unit(slide[0], run))
        return (k, step, self.q.compose_of(self._move_unit(k, unit), self._move_unit(k, run))), ()

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
        if len(state) > 1 and not all(map(eq, map(self.unit_t_obj, state[:-1]),
                                          map(self.unit_s_obj, state[1:]))):
            return None
        return self.state_key(state)

    def mor_equal(self, a: BundleMorphism, b: BundleMorphism) -> bool:
        """Validate both morphisms, then compare their keys."""
        return self.mor_key(a) == self.mor_key(b)

    # ----- constructive lifts and reductions ---------------------------------

    def lift_walk(self, walk: PathMor) -> BundleMorphism:
        """A chain over `walk` starting in the identity fiber coset, each step
        in its first chart; a zero-length walk lifts to the neutral chain at
        its canonical object."""
        q, cover = self.q, self.cover
        if len(walk.steps) == 0:
            x = BundleObject(cover.smallest_chart(walk.start), walk.start,
                             q.identity_obj())
            return self.to_chain((self.neutral_unit(x),))
        edges = []
        fiber = q.identity_obj()
        prev_chart = None
        for (eid, o), v0 in zip(walk.steps, walk.visited):
            step_walk = self._step_walk(("e", eid, o))
            chart = cover.charts_containing(step_walk.visited)[0]
            if prev_chart is not None:
                fiber = q.obj_product(self.gbar(chart, prev_chart, v0), fiber)
            edges.append(QuiverEdge(chart, (chart,), step_walk,
                                    q.identity_mor_at(fiber)))
            prev_chart = chart
        m = BundleMorphism.chain(edges)
        self.mor_endpoints(m)
        return m


def __getattr__(name: str):
    # the benchmark's layer tracer reads these three battery names here
    if name not in ("LocalTrivialization", "check_bundle_axioms", "enumerate_base_walks"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import battery
    value = globals()[name] = getattr(battery, name)
    return value
