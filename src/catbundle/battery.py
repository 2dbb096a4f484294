"""The law battery of a glued `BundleSpace`.

It keys each enumerated unit state of at most two units once, a pair with a
zero-length unit through the one unit `_absorb` merges it into, and composes
by concatenation, so it builds no chain; a two-unit state's walk and endpoints
are built from those of its units. One pass acts each state by each coset
once with `act_state`, which reads two dicts of decoration products per coset,
and decides the three action laws on the state's row of acted states and
their keys, keeping no row. The local trivialization of a chart builds,
validates, keys and splits the image `on_pair(walk, phi)` of each (walk, fiber
morphism) pair once, into one row per walk that its scans index by coset. Its
`functorial` and `equivariant` checks key two images concatenated and an image
acted on by `act_state` with `composed_key`, the one junction check on unit
states. `mor_surjective` folds distinct layer states (`fold_layers`), keys no
chain and names each state by its first chain. Over each overlap of two charts
the transition functors are read back from the two trivializations' images.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional

from .bundle import (
    FOLD_START,
    BundleMorphism,
    BundleObject,
    BundleSpace,
    QuiverEdge,
    State,
    Step,
    Unit,
)
from .complexes import (
    PathMor,
    compose_paths,
    enumerate_paths,
    walks_within,
)
from .errors import CompositionError, DomainError, PreconditionError
from .report import Report, unevaluated

# the rows that read the keys of the bounded states, in report order
KEYED_LAWS = {
    "bundle.action.mor_free": "the morphism action is free, unital, and projection-invariant",
    "bundle.action.exchange":
        "acting on a composite equals composing the acted factors (loop fiber morphisms)",
    "bundle.action.equivariant": "equal morphisms stay equal under the fiber action",
    "bundle.proj.class_invariant": "equal morphisms project to the same base walk",
    "bundle.mor.torsor": "the morphism classes over one walk from one object are as many "
                         "as the fiber morphisms out of its fiber object",
    "bundle.compose.representative_free":
        "composition does not depend on the chain representative",
}


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
    """(walk signature, chart-i coset, `state_key`, chain) of the first chain
    of 1..max_units units inside the region, in `enumerate_chains` order, to
    reach each distinct layer state (walk, source object, fold state, chart-i
    coset, target object). Each layer extends the last one's states by every
    unit leaving their target, one `_fold` step and one `compose_of` each. A
    last layer of two units yields each chain in `_keys` with that key."""
    rows = [(un, space._walk_sig((un,))[1], space._move_unit(i, un), space.unit_t_obj(un))
            for un in enumerate_units(space, region)]
    by_source: dict = {}
    for row in rows:
        by_source.setdefault(space.unit_s_obj(row[0]), []).append(row)
    # the empty chain before each unit: the first layer keeps the units' order
    layer = [((), (x.vertex, ()), FOLD_START, x, None, [row])
             for row in rows for x in [space.unit_s_obj(row[0])]]
    for depth in range(max_units):
        states: dict = {}
        for chain, walk, fs, x, coset, nexts in layer:
            for un, steps, moved, t in nexts:
                sig = walk
                if steps:  # one tuple per walk, however many states run over it
                    sig = (walk[0], walk[1] + steps)
                    sig = space._interned.setdefault(sig, sig)
                coset2 = moved if coset is None else space.q.compose_of(moved, coset)
                st = chain + (un,)
                # the battery keyed every two-unit chain and the scan stores none
                key = depth == 1 and max_units == 2 and space._keys.get(st)
                if key:
                    yield sig, coset2, ((x, t), key), st
                    continue
                fs2 = space._fold(fs, un)
                if states.setdefault((sig, fs2, x, coset2, t), st) is st:
                    yield sig, coset2, ((x, t), space._fold_key((sig, fs2))), st
        layer = ((st, sig, fs, x, coset, by_source.get(t, ()))
                 for (sig, fs, x, coset, t), st in states.items())


class _ImageRow(dict):
    """Coset -> `image` of one walk with that coset, built on first use."""
    __slots__ = ("triv", "start", "steps")

    def __init__(self, triv: "LocalTrivialization", start: str, steps: tuple):
        self.triv, self.start, self.steps = triv, start, steps

    def __missing__(self, phi: str) -> tuple[tuple, State]:
        value = self[phi] = self.triv.image(self.start, self.steps, phi)
        return value


class LocalTrivialization:
    """The comparison functor from (walks inside chart i) x (fiber 2-group)
    to the bundle restricted over chart i.

    Its images are kept in one `_ImageRow` per walk, keyed by (start, steps):
    a scan looks a walk's row up once and indexes it by coset, and each image
    is built where a scan first reads it, so an image that raises fails the
    row whose scan reaches it first."""

    def __init__(self, space: BundleSpace, i: str):
        if not space.cover.identity_edges:
            raise PreconditionError(
                "local trivializations need zero-length edges enabled")
        self.space = space
        self.i = i
        self.region = space.cover.chart(i)  # names an unknown chart
        self.images: dict[tuple, _ImageRow] = {}

    def on_object(self, u: str, orep: str) -> BundleObject:
        if u not in self.region:
            raise DomainError(f"vertex {u!r} is outside chart {self.i!r}")
        return self.space.canonical_obj(self.i, u, orep)

    def on_pair(self, walk: PathMor, mrep: str) -> BundleMorphism:
        if not self.region.issuperset(walk.visited):
            raise DomainError(f"walk leaves chart {self.i!r}")
        return BundleMorphism.chain(
            [QuiverEdge(self.i, (self.i,), walk, self.space.q.morphisms.rep(mrep))])

    def row(self, start: str, steps: tuple) -> _ImageRow:
        """The images of the walk (start, steps), one per coset read so far."""
        row = self.images.get((start, steps))
        if row is None:
            row = self.images[start, steps] = _ImageRow(self, start, steps)
        return row

    def image(self, start: str, steps: tuple, phi: str) -> tuple[tuple, State]:
        """(mor_key, unit_split) of on_pair(walk, phi): the only place an
        image is validated and keyed. It splits the image once, so the state
        the walk's row keeps is the one `component_of` stored its key under."""
        space = self.space
        m = self.on_pair(space.cover.walk(start, steps), phi)
        ends = space.mor_endpoints(m)
        state = space.unit_split(m)
        return (ends, space.component_of(state)), state

    def check(self, max_len: int = 3) -> Report:
        """The comparison-functor laws over walks of at most max_len steps.

        `mor_surjective` compares each distinct layer state of the chains of
        at most min(max_len, 3) units (`fold_layers`) with its chart-i image:
        chains with equal walk, source, fold state, coset and target have
        equal keys and cosets under every extension, so the layers make every
        comparison, and a state's first chain is the witness."""
        space, q = self.space, self.space.q
        tag = f"triv.{self.i}.{self.i}"
        rep = Report("bundle")
        walks = enumerate_paths(space.cover, (self.i,), max_len)
        mreps = q.morphisms.reps
        row = self.row

        def object_misses():
            # each (u, f) has its own target (i0, u, f), so when every object
            # lands the image holds exactly one point per (u, f)
            for u in sorted(self.region):
                i0 = space.cover.smallest_chart(u)
                for f in q.objects.reps:
                    a = q.obj_product(space.gbar(self.i, i0, u), f)
                    x = self.on_object(u, a)
                    if x != BundleObject(i0, u, f):
                        yield f"object ({u}, {a}) does not land on ({i0}, {u}, {f})"
        rep.search(f"{tag}.obj_bijective",
                   "the object map is a bijection onto glued classes over its chart",
                   object_misses())

        def collisions():
            for w in walks:
                images = row(w.start, w.steps)
                keys = [images[m][0] for m in mreps]
                for n, key in enumerate(keys):
                    if key in keys[n + 1:]:
                        yield (f"({w.start}:{list(w.steps)}, {mreps[n]}) and (same walk, "
                               f"{mreps[keys.index(key, n + 1)]}) map to equal morphisms")
        rep.search(f"{tag}.mor_injective",
                   "distinct fiber morphisms over one walk stay distinct", collisions())

        def misses():
            last = images = None
            for sig, coset, key, st in fold_layers(space, self.i, self.region, min(max_len, 3)):
                if sig != last:
                    last, images = sig, row(*sig)
                if key != images[coset][0]:
                    yield f"chain {st} is not equal to its chart-{self.i} reduction"
        rep.search(f"{tag}.mor_surjective",
                   "every bounded chain over its chart is hit by the functor", misses())

        # each m1 with the (m2, m2 m1) it composes with
        composable = [(m1, [(m2, q.compose_of(m2, m1)) for m2 in q.mors_with_source(q.target[m1])])
                      for m1 in mreps]

        def bad_composites():
            for w1 in walks:
                row1 = row(w1.start, w1.steps)
                for w2 in walks:
                    if w1.end != w2.start or len(w1.steps) + len(w2.steps) > max_len:
                        continue
                    w21 = compose_paths(space.cover, w2, w1)
                    row2, row21 = row(w2.start, w2.steps), row(w21.start, w21.steps)
                    for m1, after in composable:
                        for m2, m21 in after:
                            lhs = row21[m21][0]
                            key = space.composed_key(row1[m1][1] + row2[m2][1])
                            if key is None:
                                yield (f"composite of ({w1.steps}, {m1}) then "
                                       f"({w2.steps}, {m2}) breaks a junction")
                            elif key != lhs:
                                yield (f"composite of ({w1.steps}, {m1}) then "
                                       f"({w2.steps}, {m2}) disagrees")
        rep.search(f"{tag}.functorial",
                   "the functor preserves composition and identities", bad_composites())

        def unequivariant():
            for w in walks:
                images = row(w.start, w.steps)
                for m1 in mreps:
                    for psi in mreps:
                        lhs = images[q.mor_product(m1, psi)][0]
                        acted_key = space.composed_key(space.act_state(images[m1][1], psi))
                        if acted_key is None:
                            yield f"action by {psi} breaks a junction of ({w.steps}, {m1})"
                        elif acted_key != lhs:
                            yield f"action by {psi} breaks on ({w.steps}, {m1})"
        rep.search(f"{tag}.equivariant",
                   "the functor intertwines the right fiber actions", unequivariant())

        def moved_walks():
            # the walk of an image's key is the walk of its edges
            for w in walks:
                images = row(w.start, w.steps)
                for m1 in mreps:
                    if images[m1][0][1][1] != (w.start, w.steps):
                        yield f"projection of ({w.steps}, {m1}) is not the walk itself"
        rep.search(f"{tag}.projection",
                   "projection after the functor returns the base walk", moved_walks())
        return rep


def check_bundle_axioms(space: BundleSpace, max_len: int = 3) -> Report:
    """The bundle-level law battery: gluing, projection surjectivity, free
    right action, congruence sanity, the local trivialization of each chart
    and the transition functors read back over each overlap."""
    q, cover = space.q, space.cover
    rep = space.check_glue_relation()

    def unlifted():
        for w in enumerate_base_walks(cover, max_len):
            pr = space.project(space.lift_walk(w))
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

    _check_keyed_laws(space, rep)

    trivs = {i: LocalTrivialization(space, i) for i in cover.index_order}
    for triv in trivs.values():
        rep.merge(triv.check(max_len))
    for i, k in cover.overlapping(2):
        if i != k:
            _check_transition(space, trivs[i], trivs[k], max_len, rep)
    return rep


def _check_transition(space: BundleSpace, ti: LocalTrivialization,
                      tk: LocalTrivialization, max_len: int, rep: Report) -> None:
    """Trivialization k after the inverse of trivialization i over their
    overlap is (w, phi) -> (w, thetabar_ki(w) phi) on morphisms. Both keys
    come from the images the trivializations built; one is built here only
    where a failed `mor_injective` left it unbuilt. On objects it is (u, a)
    -> (u, gbar_ki(u) a), which `bundle.objects.glue_consistent` checks."""
    q, cover, i, k = space.q, space.cover, ti.i, tk.i

    def morphism_moves():
        for w in enumerate_paths(cover, (i, k), max_len):
            theta = space.thetabar(k, i, w)
            row_i, row_k = ti.row(w.start, w.steps), tk.row(w.start, w.steps)
            for phi in q.morphisms.reps:
                psi = q.mor_product(theta, phi)
                if row_i[phi][0] != row_k[psi][0]:
                    yield (f"({w.start}:{list(w.steps)}, {phi}) of chart {i} is not "
                           f"(same walk, {psi}) of chart {k}")
    rep.search(f"transition.{i}{k}.mor",
               "trivialization k after the inverse of trivialization i is thetabar_ki",
               morphism_moves())


def _check_keyed_laws(space: BundleSpace, rep: Report) -> None:
    """Key the states of at most two units, then record the KEYED_LAWS rows.

    A state with a zero-length unit is keyed through its compaction, the one
    unit `_absorb` merges it into, an enumerated one-unit state keyed earlier
    into the same class, and adds no member of its own. The action laws read
    an acted state's `state_key` from `keys`; a state not there is no
    composable state of enumerated units, so it is keyed only after its
    junctions are checked (`composed_key`)."""
    q = space.q
    neutral = q.identity_mor_at(q.identity_obj())
    states = enumerate_chains(space, 2)
    classes: dict[tuple, dict[State, None]] = {}
    keys: dict[State, tuple] = {}
    # unit -> (walk, source, target), read apart from its key; a two-unit
    # state's walk and endpoints are built from those of its units
    ends: dict[Unit, tuple] = {}
    interned = space._interned
    walk_witness = None
    try:
        for st in states:
            merges = len(st) == 2 and "v" in (st[0][1][0], st[1][1][0])
            if merges:
                key = space._keys[st] = space.component_of((space._absorb(*st)[0],))
            else:
                key = space.component_of(st)
            if len(st) == 1:
                un, = st
                walk, x, y = ends[un] = (space._walk_sig(st), space.unit_s_obj(un),
                                         space.unit_t_obj(un))
            else:
                (w1, x, _), (w2, _, y) = ends[st[0]], ends[st[1]]
                walk = (w1[0], w1[1] + w2[1]) if w2[1] else w1
                walk = interned.setdefault(walk, walk)
            if walk_witness is None and walk != key[1]:
                walk_witness = f"chain {st} is equal to a morphism over another walk"
            if not merges:
                classes.setdefault(key, {})[st] = None
            keys[st] = (x, y), key
    except (CompositionError, DomainError) as err:
        # each row that reads the keys fails with the state that could not be keyed
        for check_id, law in KEYED_LAWS.items():
            rep.record(check_id, law, False, unevaluated(err))
        return
    del ends

    def broken(psi: str, st: State) -> str:
        return f"action by {psi} breaks a junction of chain {st}"

    def key_of(state: State) -> Optional[tuple]:
        return keys.get(state) or space.composed_key(state)

    # one pass acts each state by each coset once, and each law keeps the
    # first witness of its own scan order: `states` lists the one-unit
    # states, then each s1 + s2 in `exchange`'s order, and reaches each class
    # member at the state that added it
    act, composed = space.act_state, space.composed_key
    reps = q.morphisms.reps
    # each loop's position, with the identity at its source, itself a loop
    loops = [(n, psi, q.identity_mor_at(q.source[psi]))
             for n, psi in enumerate(reps) if q.source[psi] == q.target[psi]]
    factors: dict[Unit, dict[str, State]] = {}  # unit -> its acted loop factors
    targets: dict[tuple, list] = {}  # class -> its first member's acted keys
    splits: dict[tuple, str] = {}  # (class, mover) -> its first witness
    free_witness = exchange_witness = None
    for st in states:
        key = keys[st]
        acted = [act(st, psi) for psi in reps]
        row = [keys.get(a) or composed(a) for a in acted]
        # rows until the first witness: every neutral unit, the identity at
        # its object, is a one-unit state, and a key holds its walk
        for psi, acted_key in zip(reps, () if free_witness else row):
            if acted_key is None:
                free_witness = broken(psi, st)
            elif acted_key[1][1] != key[1][1]:
                free_witness = f"action by {psi} changed a projected walk"
            elif (acted_key == key) != (psi == neutral):
                free_witness = f"morphism action by {psi} is not free on chain {st}"
            else:
                continue
            break
        if len(st) == 1:
            factors[st[0]] = {psi: acted[n] for n, psi, _ in loops}
        elif exchange_witness is None:
            f1, f2 = factors[st[0]], factors[st[1]]
            for n, psi, unit in loops:
                a12, acted_key = f1[unit] + f2[psi], row[n]
                rhs_key = acted_key if a12 == acted[n] else key_of(a12)
                if rhs_key is None:
                    exchange_witness = (f"exchange composite undefined: the factors of "
                                        f"chain {st} acted by {psi} do not compose")
                elif acted_key is None:
                    exchange_witness = broken(psi, st)
                elif acted_key != rhs_key:
                    exchange_witness = f"exchange law breaks for {psi} on a 2-chain"
                else:
                    continue
                break
        if len(st) == 2 and "v" in (st[0][1][0], st[1][1][0]):  # not a class member
            continue
        # members share one key, and the neutral morphism changes no decoration
        cls = key[1]
        target = targets.setdefault(cls, row)
        if None not in row and row == target:  # no witness in this member
            continue
        for n, psi in enumerate(reps):
            if psi == neutral or (cls, psi) in splits:
                continue
            if row[n] is None:
                splits[cls, psi] = broken(psi, st)
            elif row[n] != target[n]:
                splits[cls, psi] = f"equal chains act apart under {psi}"
    rep.record("bundle.action.mor_free", KEYED_LAWS["bundle.action.mor_free"],
               free_witness is None, free_witness)
    rep.record("bundle.action.exchange", KEYED_LAWS["bundle.action.exchange"],
               exchange_witness is None, exchange_witness)
    split = next((splits[cls, psi] for cls in classes for psi in reps
                  if (cls, psi) in splits), None)
    rep.record("bundle.action.equivariant", KEYED_LAWS["bundle.action.equivariant"],
               split is None, split)
    del factors, targets, splits

    one_unit = [st for st in states if len(st) == 1]
    by_source_obj: dict[BundleObject, list[State]] = {}
    for st in one_unit:
        by_source_obj.setdefault(space.unit_s_obj(st[0]), []).append(st)

    rep.record("bundle.proj.class_invariant", KEYED_LAWS["bundle.proj.class_invariant"],
               walk_witness is None, walk_witness)

    def miscounts():
        for (x, walk), n in Counter(key[:2] for key in classes).items():
            want = len(q.mors_with_source(x.fiber))
            if n != want:
                yield f"{n} classes over walk {walk} from {x}, expected {want}"
    rep.search("bundle.mor.torsor", KEYED_LAWS["bundle.mor.torsor"], miscounts())

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
               KEYED_LAWS["bundle.compose.representative_free"], representative_dependence())
