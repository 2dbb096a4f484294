"""Transition data as arrows: theta on a walk's endpoints, the comparison
arrows at triple overlaps, naturality, and the product relation."""

import inspect

import pytest

from catbundle.crossed import arrow_endpoints, arrow_identity
from catbundle.functorial import (
    check_naturality,
    check_product_relation,
    check_theta_functorial,
    eval_T,
    eval_Theta,
    eval_theta,
)
from catbundle.generation import generate_gerbal
from catbundle.gerbal import GerbalCocycle
from catbundle.presets import cover_line5w


@pytest.fixture(scope="module")
def gc(inst_line5w):
    return inst_line5w.gc


def test_derived_g_pushes_h_down(gc, inst_line5w):
    chain = inst_line5w.chain
    for (i, k, u), h in inst_line5w.gc.h.items():
        assert gc.tower.g[(i, k, u)] == chain.tau(h)


def test_theta_of_identity_walk_is_identity_arrow(gc):
    cm = gc.chain.outer
    for i, k in gc.cover.overlapping(2):
        for u in gc.cover.overlap((i, k)):
            a = eval_theta(gc, i, k, u, u)
            assert a == arrow_identity(cm, gc.tower.g[(i, k, u)])


def test_theta_endpoints_follow_g(gc):
    cm = gc.chain.outer
    a, g = eval_theta(gc, "1", "2", "1", "3"), gc.tower.g
    assert arrow_endpoints(cm, a) == (g[("1", "2", "1")], g[("1", "2", "3")])


def test_theta_functorial_all_pairs(gc):
    for i, k in gc.cover.overlapping(2):
        rep = check_theta_functorial(gc, i, k)
        assert rep.ok, rep.failures()


def test_endpoint_dependence_recorded_per_pair(gc):
    # theta takes a walk's endpoints as its arguments, so it depends on them
    # alone by its signature, and the pair's report holds no row for it
    assert list(inspect.signature(eval_theta).parameters) == ["gc", "i", "k", "u0", "u1"]
    rep = check_theta_functorial(gc, "1", "2")
    assert [c.check_id for c in rep.checks] == [
        "theta.12.identity", "theta.12.target", "theta.12.compose"]


def test_T_endpoints(gc):
    cm = gc.chain.outer
    for i, k, m in gc.cover.overlapping(3):
        for u in gc.cover.overlap((i, k, m)):
            s, t = arrow_endpoints(cm, eval_T(gc, i, k, m, u))
            assert s == cm.G.op(gc.tower.g[(i, k, u)], gc.tower.g[(k, m, u)])
            assert t == gc.tower.g[(i, m, u)]


def test_naturality_all_triples(gc):
    for i, k, m in gc.cover.overlapping(3):
        rep = check_naturality(gc, i, k, m)
        assert rep.ok, rep.failures()


def test_naturality_includes_degenerate_triples(gc):
    triples = gc.cover.overlapping(3)
    assert ("1", "1", "1") in triples
    assert ("1", "2", "1") in triples


def test_product_relation_all_triples(gc):
    for i, k, m in gc.cover.overlapping(3):
        rep = check_product_relation(gc, i, k, m)
        assert rep.ok, rep.failures()


def test_Theta_of_identity_walk(gc):
    for i, k, m in gc.cover.overlapping(3)[:6]:
        for u in gc.cover.overlap((i, k, m)):
            a = eval_Theta(gc, i, k, m, u, u)
            assert a.h == "e"


def test_corrupted_h_caught_by_cross_pair_checks(chain_s3):
    """A single corrupted h value cannot break theta functoriality for its own
    pair (the formula is a coboundary in the endpoints and the derived g
    stays consistent with it), so detection must come from the checks that
    compare different pairs; verify both halves of that statement."""
    cover = cover_line5w()
    gc = generate_gerbal(chain_s3, cover, 7, noise=True)
    key = next(k for k in sorted(gc.h) if k[0] != k[1])
    h = {**gc.h, key: next(x for x in chain_s3.H.elements if x != gc.h[key])}
    gc_bad = GerbalCocycle(chain_s3, cover, h, gc.j)
    i, k = key[0], key[1]
    assert check_theta_functorial(gc_bad, i, k).ok
    bad = []
    for a, b, c in gc_bad.cover.overlapping(3):
        if {i, k} <= {a, b, c}:
            rep = check_naturality(gc_bad, a, b, c)
            bad.extend(rep.failures())
            rep = check_product_relation(gc_bad, a, b, c)
            bad.extend(rep.failures())
    assert bad
    assert all(f.witness for f in bad)
