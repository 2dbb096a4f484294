"""A reference for the local trivializations over several charts.

`check_bundle_axioms` trivializes each chart i over its own region. It once
also trivialized chart i over each index set J holding i with a nonempty
overlap. Every such row restricts the (i,) row of the same law: J's region
lies inside chart i's, so J's walks and bounded chains are among (i,)'s, and
an image over J differs from the one over (i,) only in `QuiverEdge.charts`,
which no key reads. This module keeps that trivialization over J, with each
of its scans run in full, so a test can show that J fails a law only where
(i,) fails it. `index_family` lists the index sets with a nonempty overlap,
the one-chart sets first. The scans read `battery.fold_layers` through the
module, so a test that wraps it sees these scans too.
"""

from itertools import combinations

from catbundle import battery
from catbundle.bundle import BundleMorphism, BundleObject, QuiverEdge
from catbundle.complexes import compose_paths, enumerate_paths
from catbundle.errors import DomainError, PreconditionError, SchemaError
from catbundle.report import Report

def index_family(cover):
    """All index subsets with nonempty overlap, ordered by inclusion."""
    return tuple(combo for r in range(1, len(cover.index_order) + 1)
                 for combo in combinations(cover.index_order, r) if cover.overlap(combo))


def multi_chart_sets(cover):
    """(i, J) for each chart i of each index set J of two or more charts."""
    return [(i, indices) for indices in index_family(cover) if len(indices) > 1
            for i in indices]


class MultiChartTrivialization:
    """The comparison functor from (walks inside the overlap of J) x (fiber
    2-group) to the bundle restricted over that overlap: chart i carries the
    data."""

    def __init__(self, space, i, indices):
        if not space.cover.identity_edges:
            raise PreconditionError(
                "local trivializations need zero-length edges enabled")
        indices = tuple(indices)
        region = space.cover.overlap(indices)  # names an unknown chart
        indices = tuple(sorted(indices, key=space.cover.index_order.index))
        if i not in indices:
            raise SchemaError(f"chart {i!r} is not in {indices}")
        if not region:
            raise SchemaError(f"the overlap of {indices} is empty")
        self.space = space
        self.i = i
        self.indices = indices
        self.region = region
        self.images = {}

    def on_object(self, u, orep):
        if u not in self.region:
            raise DomainError(f"vertex {u!r} is outside the overlap of {self.indices}")
        return self.space.canonical_obj(self.i, u, orep)

    def on_pair(self, walk, mrep):
        if not self.region.issuperset(walk.visited):
            raise DomainError(f"walk leaves the overlap of {self.indices}")
        return BundleMorphism.chain(
            [QuiverEdge(self.i, self.indices, walk, self.space.q.morphisms.rep(mrep))])

    def image(self, start, steps, phi):
        hit = self.images.get((start, steps, phi))
        if hit is None:
            space = self.space
            m = self.on_pair(space.cover.walk(start, steps), phi)
            ends = space.mor_endpoints(m)
            state = space.unit_split(m)
            hit = self.images[start, steps, phi] = ((ends, space.component_of(state)), state)
        return hit

    def check(self, max_len=3, max_units=3):
        """The six laws of `LocalTrivialization.check`, over J's walks and
        bounded chains, each scanned in full; the row ids read
        `triv.<i>.<J>.<law>`."""
        space, q = self.space, self.space.q
        tag = f"triv.{self.i}.{''.join(self.indices)}"
        rep = Report("bundle")
        walks = enumerate_paths(space.cover, self.indices, max_len)
        mreps = q.morphisms.reps

        def key(w, phi):
            return self.image(w.start, w.steps, phi)[0]

        def state(w, phi):
            return self.image(w.start, w.steps, phi)[1]

        def object_misses():
            for u in sorted(self.region):
                i0 = space.cover.smallest_chart(u)
                for f in q.objects.reps:
                    a = q.obj_product(space.gbar(self.i, i0, u), f)
                    if self.on_object(u, a) != BundleObject(i0, u, f):
                        yield f"object ({u}, {a}) does not land on ({i0}, {u}, {f})"
        rep.search(f"{tag}.obj_bijective",
                   "the object map is a bijection onto glued classes over its chart",
                   object_misses())

        def collisions():
            for w in walks:
                keys = [key(w, m) for m in mreps]
                for n, k in enumerate(keys):
                    if k in keys[n + 1:]:
                        yield (f"({w.start}:{list(w.steps)}, {mreps[n]}) and (same walk, "
                               f"{mreps[keys.index(k, n + 1)]}) map to equal morphisms")
        rep.search(f"{tag}.mor_injective",
                   "distinct fiber morphisms over one walk stay distinct", collisions())

        def misses():
            for sig, coset, k, st in battery.fold_layers(space, self.i, self.region,
                                                         max_units):
                if k != self.image(*sig, coset)[0]:
                    yield f"chain {st} is not equal to its chart-{self.i} reduction"
        rep.search(f"{tag}.mor_surjective",
                   "every bounded chain over its chart is hit by the functor", misses())

        def bad_composites():
            for w1 in walks:
                for w2 in walks:
                    if w1.end != w2.start or len(w1.steps) + len(w2.steps) > max_len:
                        continue
                    w21 = compose_paths(space.cover, w2, w1)
                    for m1 in mreps:
                        for m2 in q.mors_with_source(q.target[m1]):
                            lhs = key(w21, q.compose_of(m2, m1))
                            k = space.composed_key(state(w1, m1) + state(w2, m2))
                            if k is None:
                                yield (f"composite of ({w1.steps}, {m1}) then "
                                       f"({w2.steps}, {m2}) breaks a junction")
                            elif k != lhs:
                                yield (f"composite of ({w1.steps}, {m1}) then "
                                       f"({w2.steps}, {m2}) disagrees")
        rep.search(f"{tag}.functorial",
                   "the functor preserves composition and identities", bad_composites())

        def unequivariant():
            for w in walks:
                for m1 in mreps:
                    for psi in mreps:
                        lhs = key(w, q.mor_product(m1, psi))
                        k = space.composed_key(space.act_state(state(w, m1), psi))
                        if k is None:
                            yield f"action by {psi} breaks a junction of ({w.steps}, {m1})"
                        elif k != lhs:
                            yield f"action by {psi} breaks on ({w.steps}, {m1})"
        rep.search(f"{tag}.equivariant",
                   "the functor intertwines the right fiber actions", unequivariant())

        def moved_walks():
            for w in walks:
                for m1 in mreps:
                    if key(w, m1)[1][1] != (w.start, w.steps):
                        yield f"projection of ({w.steps}, {m1}) is not the walk itself"
        rep.search(f"{tag}.projection",
                   "projection after the functor returns the base walk", moved_walks())
        return rep


def multi_chart_report(space, max_len):
    """The rows of every trivialization over two or more charts at max_len,
    as `check_bundle_axioms` bounds them."""
    rep = Report("bundle")
    for i, indices in multi_chart_sets(space.cover):
        rep.merge(MultiChartTrivialization(space, i, indices).check(max_len, min(max_len, 3)))
    return rep


def paired_verdicts(space, one_chart, max_len):
    """(J row id, J status, (i,) status) for each row of every trivialization
    over two or more charts at max_len; `one_chart` holds the
    `triv.<i>.<i>.<law>` rows. J restricts (i,), so a J row may pass where
    (i,) fails, but never fail where (i,) passes."""
    status = {c.check_id: c.status for c in one_chart}
    out = []
    for c in multi_chart_report(space, max_len).checks:
        _, i, _, law = c.check_id.split(".")
        out.append((c.check_id, c.status, status[f"triv.{i}.{i}.{law}"]))
    return out
