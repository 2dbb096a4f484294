"""A per-walk reference for the transition laws that are checked once per
reachable vertex pair.

`functorial.check_theta_functorial`, `check_naturality`,
`check_product_relation` and `quotient.check_classical_cocycle` check each law
once per pair of vertices that a walk inside the overlap joins, and `.compose`
once per reachable triple. This module keeps the scans they replaced: every
walk of `enumerate_paths` up to a bound, and every composable pair of such
walks for `.compose`, stopping at the first witness. It also keeps
`theta.<ik>.endpoints`, which no report lists since theta takes a walk's
endpoints as its arguments. theta, T and Theta are read through the package's
pair form on (w.start, w.end), looked up on the module at each call, so a test
that plants a fault in them plants it here too.
"""

from catbundle import functorial
from catbundle.complexes import compose_paths, enumerate_paths
from catbundle.crossed import (
    arrow_compose,
    arrow_endpoints,
    arrow_identity,
    arrow_product,
    pair_id,
)
from catbundle.errors import CompositionError


def theta(gc, i, k, w):
    return functorial.eval_theta(gc, i, k, w.start, w.end)


def identity_breaks(gc, i, k):
    g = gc.tower.g
    for u in sorted(gc.cover.overlap((i, k))):
        if theta(gc, i, k, gc.cover.identity_walk(u)) != arrow_identity(gc.chain.outer,
                                                                         g[(i, k, u)]):
            yield f"theta_{i}{k}(id_{u})"


def target_breaks(gc, i, k, walks):
    g = gc.tower.g
    for w in walks:
        if arrow_endpoints(gc.chain.outer, theta(gc, i, k, w)) != (g[(i, k, w.start)],
                                                                    g[(i, k, w.end)]):
            yield f"theta_{i}{k} endpoints wrong on walk {w.start}:{list(w.steps)}"


def compose_breaks(gc, i, k, walks):
    starting_at, of = {}, {w: theta(gc, i, k, w) for w in walks}
    for w in walks:
        starting_at.setdefault(w.start, []).append(w)
    for w1 in walks:
        for w2 in starting_at[w1.end]:
            try:
                rhs = arrow_compose(gc.chain.outer, of[w2], of[w1])
            except CompositionError:
                rhs = None
            if theta(gc, i, k, compose_paths(gc.cover, w2, w1)) != rhs:
                yield f"theta_{i}{k} at {w1.start}:{list(w1.steps)} then {list(w2.steps)}"


def endpoint_breaks(gc, i, k, walks):
    by_ends = {}
    for w in walks:
        if by_ends.setdefault((w.start, w.end), theta(gc, i, k, w)) != theta(gc, i, k, w):
            yield f"theta_{i}{k} differs on two walks {w.start} -> {w.end}"


def square_breaks(gc, i, k, m, walks):
    cm, T = gc.chain.outer, functorial.eval_T
    for w in walks:
        try:
            lhs = arrow_compose(cm, T(gc, i, k, m, w.end),
                                arrow_product(cm, theta(gc, i, k, w), theta(gc, k, m, w)))
            rhs = arrow_compose(cm, theta(gc, i, m, w), T(gc, i, k, m, w.start))
        except CompositionError:
            yield f"square at walk {w.start}:{list(w.steps)} does not compose"
            continue
        if lhs != rhs:
            yield f"square fails at walk {w.start}:{list(w.steps)}"


def relation_breaks(gc, i, k, m, walks):
    cm = gc.chain.outer
    for w in walks:
        big = functorial.eval_Theta(gc, i, k, m, w.start, w.end)
        lhs = arrow_product(cm, arrow_product(cm, big, theta(gc, i, k, w)), theta(gc, k, m, w))
        if lhs != theta(gc, i, m, w):
            yield f"product relation at walk {w.start}:{list(w.steps)}"


def morphism_breaks(gc, q, max_len):
    for i, k, m in gc.cover.overlapping(3):
        for w in enumerate_paths(gc.cover, (i, k, m), max_len):
            lhs = q.q_mor(arrow_product(gc.chain.outer, theta(gc, i, k, w), theta(gc, k, m, w)))
            if lhs != q.q_mor(theta(gc, i, m, w)):
                yield f"thetabar cocycle at ({i},{k},{m}) walk {w.start}:{list(w.steps)}"


def defect_breaks(gc, q, max_len):
    for i, k, m in gc.cover.overlapping(3):
        for w in enumerate_paths(gc.cover, (i, k, m), max_len):
            big = functorial.eval_Theta(gc, i, k, m, w.start, w.end)
            if pair_id(big.h, big.g) not in q.morphisms.subgroup:
                yield f"Theta_{i}{k}{m} at walk {w.start}:{list(w.steps)} is outside J_H"


def walk_scans(gc, q, max_len):
    """{check id: (the charts whose overlaps it reads, its per-walk scan, not
    yet started)} for every law above at walk bound `max_len`; a scan that
    yields no witness is a pass."""
    cover, scans = gc.cover, {}
    for i, k in cover.overlapping(2):
        walks = enumerate_paths(cover, (i, k), max_len)
        tag, charts = f"theta.{i}{k}", [(i, k)]
        scans[f"{tag}.identity"] = charts, identity_breaks(gc, i, k)
        scans[f"{tag}.target"] = charts, target_breaks(gc, i, k, walks)
        scans[f"{tag}.compose"] = charts, compose_breaks(gc, i, k, walks)
        scans[f"{tag}.endpoints"] = charts, endpoint_breaks(gc, i, k, walks)
    triples = cover.overlapping(3)
    for i, k, m in triples:
        walks = enumerate_paths(cover, (i, k, m), max_len)
        scans[f"naturality.{i}{k}{m}.square"] = [(i, k, m)], square_breaks(gc, i, k, m, walks)
        scans[f"product.{i}{k}{m}.relation"] = [(i, k, m)], relation_breaks(gc, i, k, m, walks)
    scans["classical.morphism"] = triples, morphism_breaks(gc, q, max_len)
    scans["classical.defect"] = triples, defect_breaks(gc, q, max_len)
    return scans


def distances(cover, indices):
    """{(u0, u1): the length of the shortest walk from u0 to u1 inside the
    overlap of `indices`}, over the pairs such a walk joins. At a bound of at
    least the largest of them, the overlap's diameter, the walks reach every
    pair."""
    region, out = cover.overlap(indices), {}
    for u in sorted(region):
        dist, todo = {u: 0}, [u]
        for x in todo:
            for _, _, v in cover.steps_from(x):
                if v in region and v not in dist:
                    dist[v] = dist[x] + 1
                    todo.append(v)
        out.update(((u, v), d) for v, d in dist.items())
    return out
