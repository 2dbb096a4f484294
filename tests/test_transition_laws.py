"""The transition laws, checked once per reachable vertex pair, against the
per-walk scans they replaced (`transition_laws_reference`).

theta, T and Theta read a walk only through its endpoints, so a per-walk scan
at bound n sees exactly the pairs and triples that walks of at most n steps
join. A failure it finds is a failure of the pair check, and once n reaches
each overlap's diameter the two agree on every check id. Both sides are run on
clean data and under code plants of `eval_theta`, `eval_T` and `eval_Theta`,
on every preset and on the A3/J3 chain, whose fiber is not thin.
"""

import sys
from collections import Counter

import pytest
from transition_laws_reference import distances, walk_scans

from catbundle import functorial
from catbundle.crossed import Arrow
from catbundle.gerbal import GerbalCocycle
from catbundle.presets import build_instance, preset_names
from catbundle.quotient import build_quotient, check_classical_cocycle
from catbundle.report import Report
from catbundle.suites import run_suite

SOURCES = preset_names() + ["inst_a3j3_line5w", "inst_a3j3_dirline3", "inst_a3j3_cycle6"]


def instance(request, source):
    if source.startswith("inst_"):
        return request.getfixturevalue(source)
    return build_instance(source, seed=5, noise=True)


def pair_statuses(gc, q):
    rep = Report("pairs")
    for i, k in gc.cover.overlapping(2):
        rep.merge(functorial.check_theta_functorial(gc, i, k))
    for i, k, m in gc.cover.overlapping(3):
        rep.merge(functorial.check_naturality(gc, i, k, m))
        rep.merge(functorial.check_product_relation(gc, i, k, m))
    rep.merge(check_classical_cocycle(gc, q))
    return {c.check_id: c.status for c in rep.checks}


# the check ids whose scans read T or Theta; every other scan reads theta alone
READS = {"eval_T": ("naturality.",), "eval_Theta": ("product.", "classical.defect")}


def reference_statuses(gc, q, max_len, reads=("",)):
    """{check id: (status, the largest diameter of the overlaps it reads)} for
    the check ids that start with one of `reads`."""
    diameter = {t: max(distances(gc.cover, t).values())
                for r in (2, 3) for t in gc.cover.overlapping(r)}
    return {cid: ("pass" if next(scan, None) is None else "fail",
                  max(diameter[t] for t in charts))
            for cid, (charts, scan) in walk_scans(gc, q, max_len).items()
            if cid.startswith(reads)}


def plant(monkeypatch, name, wrap):
    """Replace functorial.`name` by `wrap(original)` in every module that
    imported it by name."""
    original = getattr(functorial, name)
    planted = wrap(original)
    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.startswith("catbundle")
                and vars(module).get(name) is original):
            monkeypatch.setattr(module, name, planted)


def moved(gc, a):
    """`a` with its H part multiplied by a fixed non-identity element."""
    H = gc.chain.H
    return Arrow(H.op(a.h, next(x for x in H.elements if x != H.identity)), a.g)


def far_pairs(gc, at_least):
    """The (chart pair, vertex pair)s whose shortest walk inside the chart
    pair's overlap has at least `at_least` steps."""
    return {((i, k), p) for i, k in gc.cover.overlapping(2)
            for p, d in distances(gc.cover, (i, k)).items() if d >= at_least}


def theta_plant(hits):
    """Move theta on each (chart pair, vertex pair) of `hits`."""
    def wrap(original):
        def planted(gc, i, k, u0, u1):
            got = original(gc, i, k, u0, u1)
            return moved(gc, got) if ((i, k), (u0, u1)) in hits else got
        return planted
    return "eval_theta", wrap


def plants(gc):
    """{name: (function name, wrapper)}: each moves one family of values."""
    cover = gc.cover
    # a pair of distinct vertices, over distinct charts where there is one
    charts, (u0, u1) = max((((i, k), p) for i, k in cover.overlapping(2)
                            for p in cover.reachable((i, k)) if p[0] != p[1]),
                           key=lambda c: c[0][0] != c[0][1])
    triple = max(cover.overlapping(3), key=lambda t: (len(cover.overlap(t)) > 1, len(set(t))))
    vertex = min(cover.overlap(triple))

    def T_at(original):
        def planted(gc, i, k, m, u):
            got = original(gc, i, k, m, u)
            return moved(gc, got) if ((i, k, m), u) == (triple, vertex) else got
        return planted

    def Theta_off_diagonal(original):
        def planted(gc, i, k, m, u0, u1):
            got = original(gc, i, k, m, u0, u1)
            return moved(gc, got) if u0 != u1 else got
        return planted

    return {
        "theta-one-pair": theta_plant({(charts, (u0, u1))}),
        "theta-identity": theta_plant({(charts, (u0, u0))}),
        "theta-far": theta_plant(far_pairs(gc, 2)),
        "T-one-vertex": ("eval_T", T_at),
        "Theta-off-diagonal": ("eval_Theta", Theta_off_diagonal),
    }


@pytest.mark.parametrize("source", SOURCES)
def test_pair_checks_agree_with_the_walk_scans_at_every_bound(request, monkeypatch, source):
    inst = instance(request, source)
    gc, q = inst.gc, build_quotient(inst.chain)
    cases = [("clean", None)] + list(plants(gc).items())
    for name, planted in cases:
        with monkeypatch.context() as m:
            if planted is not None:
                plant(m, *planted)
            pairs = pair_statuses(gc, q)
            assert (name == "clean") == all(s == "pass" for s in pairs.values()), name
            # a scan that reads theta alone sees no T or Theta plant
            reads = READS.get(planted and planted[0], ("",))
            for max_len in (1, 2, 3, 4):
                for cid, (ref, reach) in reference_statuses(gc, q, max_len, reads).items():
                    if cid.endswith(".endpoints"):
                        # theta reads its endpoints alone, so this holds
                        assert ref == "pass", (name, cid)
                    elif ref == "fail":
                        assert pairs[cid] == "fail", (name, max_len, cid)
                    elif max_len >= reach:
                        assert pairs[cid] == "pass", (name, max_len, cid)


def test_a_fault_farther_than_the_walk_bound_is_caught_by_the_pair_checks(monkeypatch):
    # the per-walk `.compose` scan at bound 1 composes two one-step walks, so
    # it reads pairs two steps apart: only a fault at least three steps out
    # escapes it, and s3-line5w's overlaps are up to four steps across
    inst = build_instance("s3-line5w", seed=5, noise=True)
    gc, q = inst.gc, build_quotient(inst.chain)
    far = far_pairs(gc, 3)
    assert far
    plant(monkeypatch, *theta_plant(far))
    assert all(ref == "pass" for ref, _ in reference_statuses(gc, q, 1).values())
    failed = {cid for cid, s in pair_statuses(gc, q).items() if s == "fail"}
    assert {f"theta.{i}{k}.compose" for (i, k), _ in far} <= failed


def cocycle_copy(gc):
    """A cocycle over the same tables with nothing derived or memoized yet."""
    return GerbalCocycle(gc.chain, gc.cover, gc.h, gc.j)


def test_theta_is_computed_once_per_chart_pair_and_endpoint_pair(monkeypatch):
    # `all` on the widest preset reads theta thousands of times, and the
    # cocycle computes each (i, k, u0, u1) value once: every call returns
    # the value it keeps
    inst = build_instance("s4-line5w", seed=5, noise=True)
    calls = Counter()
    kept = []

    def counted(original):
        def planted(gc, *args):
            calls[args] += 1
            arrow = original(gc, *args)
            kept.append(arrow is gc.theta[args])
            return arrow
        return planted
    plant(monkeypatch, "eval_theta", counted)
    assert run_suite(inst, "all", 2).ok
    assert sum(calls.values()) == 5150 and all(kept)
    assert set(inst.gc.theta) == set(calls) and len(calls) == 139
    fresh = cocycle_copy(inst.gc)
    for key, arrow in inst.gc.theta.items():
        assert functorial.eval_theta(fresh, *key) == arrow


@pytest.mark.parametrize("source", SOURCES)
def test_every_plant_fails_its_rows_after_a_clean_run_fills_the_theta_memo(
        request, monkeypatch, source):
    # a plant wraps each call, so theta values computed before it was
    # installed still reach the rows moved
    inst = instance(request, source)
    q = build_quotient(inst.chain)
    filled = cocycle_copy(inst.gc)
    assert all(s == "pass" for s in pair_statuses(filled, q).values())
    assert filled.theta
    for name, planted in plants(filled).items():
        with monkeypatch.context() as m:
            plant(m, *planted)
            statuses = pair_statuses(filled, q)
            assert "fail" in statuses.values(), name
            assert statuses == pair_statuses(cocycle_copy(inst.gc), q), name
