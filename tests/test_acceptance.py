"""The acceptance gate: ten numbered criteria, one printed verdict line each.

Every criterion is executed at its stated scope and tolerance. A criterion
gathers problem strings instead of asserting mid-flight, so the summary line
is always printed before the test fails, and the first assertion message
lists everything that went wrong, not just the first thing.
"""

import re
import time
from contextlib import contextmanager

import perm_oracle
from quotient_reference import LAWS, descent
from transition_laws_reference import distances, endpoint_breaks

from catbundle.battery import check_bundle_axioms
from catbundle.complexes import enumerate_paths
from catbundle.crossed import validate_peiffer
from catbundle.functorial import (
    check_naturality,
    check_product_relation,
    check_theta_functorial,
)
from catbundle.generation import generate_gerbal
from catbundle.gerbal import GerbalCocycle, check_second_gerbe, validate_gerbal
from catbundle.presets import build_instance, cover_line5w
from catbundle.quotient import (
    build_JH,
    check_JH_normal,
    check_classical_cocycle,
)
from catbundle.schema import report_to_json
from catbundle.suites import InstanceContext, run_suite
from catbundle.wordalg import (
    WordOracle,
    check_congruence_invariants,
    check_oracle_agreement,
    word_chains,
)


@contextmanager
def criterion(n: int):
    problems: list[str] = []
    try:
        yield problems
    except BaseException:
        print(f"CRITERION {n}: FAIL")
        raise
    print(f"CRITERION {n}: {'PASS' if not problems else 'FAIL'}")
    assert not problems, f"criterion {n}: " + "; ".join(problems)


def _report_problems(problems: list[str], rep, label: str) -> None:
    for c in rep.failures():
        problems.append(f"{label}: {c.check_id}: {c.witness}")


# criteria 8 and 9 share one directed-base space and word table; the builder
# runs inside criterion 8's timed block so construction counts against its
# budget, and criterion 9 reuses the result when it ran first
_dirline3 = {}


def _dirline3_setup():
    if not _dirline3:
        inst = build_instance("oracle-dirline3", seed=3, noise=True)
        space, pre = InstanceContext(inst, 2).space
        assert pre.ok, pre.first_witness()
        _dirline3["space"] = space
        _dirline3["oracle"] = WordOracle(space, 3)
    return _dirline3["space"], _dirline3["oracle"]


def test_criterion_01_peiffer_identities(chain_s3, chain_s4):
    with criterion(1) as problems:
        start = time.monotonic()
        for chain in (chain_s3, chain_s4):
            for cm in (chain.outer, chain.inner):
                pairs = len(cm.G.elements) * len(cm.H.elements)
                if pairs > 36 * 24:
                    problems.append(f"{cm.G.name}/{cm.H.name}: {pairs} pairs over budget")
                _report_problems(problems, validate_peiffer(cm),
                                 f"{cm.G.name}/{cm.H.name}")
        elapsed = time.monotonic() - start
        if elapsed >= 1.0:
            problems.append(f"took {elapsed:.3f}s, budget 1s")


def test_criterion_02_generated_cocycles_and_corruption(chain_s3):
    with criterion(2) as problems:
        start = time.monotonic()
        cover = cover_line5w()
        for seed in range(100):
            gc = generate_gerbal(chain_s3, cover, seed, noise=True)
            for rep in (validate_gerbal(gc), check_second_gerbe(gc)):
                _report_problems(problems, rep, f"seed {seed}")
            if problems:
                break

        # corrupt one off-diagonal table entry sitting inside a genuine
        # triple overlap, then demand a witness that names that location
        gc = generate_gerbal(chain_s3, cover, 17, noise=True)
        i, k, m = next(t for t in cover.overlapping(3) if len(set(t)) == 3)
        u = sorted(cover.overlap((i, k, m)))[0]
        old = gc.h[(i, k, u)]
        h = {**gc.h, (i, k, u): next(x for x in chain_s3.H.elements if x != old)}
        rep = validate_gerbal(GerbalCocycle(chain_s3, cover, h, gc.j))
        if rep.ok:
            problems.append("corrupted table passed validation")
        else:
            wit = rep.first_witness() or ""
            found = re.search(r"\(i,k,m,u\)=\(([^)]*)\)", wit)
            where = found.group(1).split(",") if found else []
            if len(where) != 4 or where[3] != u or not {i, k} <= set(where[:3]):
                problems.append(f"witness does not locate the corruption: {wit!r}")

        elapsed = time.monotonic() - start
        if elapsed >= 5.0:
            problems.append(f"took {elapsed:.3f}s, budget 5s")


def test_criterion_03_functoriality_and_endpoint_dependence(chain_s3):
    with criterion(3) as problems:
        cover = cover_line5w()
        for seed in range(20):
            gc = generate_gerbal(chain_s3, cover, seed)
            for i, k in gc.cover.overlapping(2):
                _report_problems(problems, check_theta_functorial(gc, i, k),
                                 f"seed {seed} pair ({i},{k})")
                # every walk up to the overlap's diameter, which joins every pair
                reach = max(distances(cover, (i, k)).values())
                broken = next(endpoint_breaks(gc, i, k, enumerate_paths(cover, (i, k), reach)),
                              None)
                if broken:
                    problems.append(f"seed {seed}: {broken}")
            if problems:
                break


def test_criterion_04_naturality_and_product_relation(chain_s3):
    with criterion(4) as problems:
        cover = cover_line5w()
        for seed in range(20):
            gc = generate_gerbal(chain_s3, cover, seed)
            triples = gc.cover.overlapping(3)
            if ("1", "2", "3") not in triples:
                problems.append("the (1,2,3) triple overlap is missing")
            if not any(len(set(t)) < 3 for t in triples):
                problems.append("no degenerate triples were enumerated")
            for i, k, m in triples:
                _report_problems(problems, check_naturality(gc, i, k, m),
                                 f"seed {seed} triple ({i},{k},{m})")
                _report_problems(problems, check_product_relation(gc, i, k, m),
                                 f"seed {seed} triple ({i},{k},{m})")
            if problems:
                break


def test_criterion_05_quotient_structure(chain_s3, chain_s4, quotient_s3, quotient_s4):
    with criterion(5) as problems:
        for chain, n_pairs, n_sub in ((chain_s3, 36, 9), (chain_s4, 288, 16)):
            label = f"{chain.G.name} chain"
            if len(chain.H.elements) * len(chain.G.elements) != n_pairs:
                problems.append(f"{label}: morphism group is not of order {n_pairs}")
            if len(build_JH(chain)) != n_sub:
                problems.append(f"{label}: kernel subgroup is not of order {n_sub}")
            _report_problems(problems, check_JH_normal(chain), label)

        # independent counts: parity classes for the surjective chain, raw
        # tuple coset enumeration for the non-surjective one
        s3 = perm_oracle.sym(3)
        obj_expected = len({perm_oracle.sign(p) for p in s3})
        mor_expected = len({(perm_oracle.sign(h), perm_oracle.sign(g))
                            for h in s3 for g in s3})
        if len(quotient_s3.objects.reps) != obj_expected or obj_expected != 2:
            problems.append(f"object classes: {len(quotient_s3.objects.reps)}, "
                            f"parity predicts {obj_expected}, stated 2")
        if len(quotient_s3.morphisms.reps) != mor_expected or mor_expected != 4:
            problems.append(f"morphism classes: {len(quotient_s3.morphisms.reps)}, "
                            f"parity predicts {mor_expected}, stated 4")

        cosets = perm_oracle.left_cosets(perm_oracle.alt(4), perm_oracle.klein())
        if len(quotient_s4.objects.reps) != len(cosets) or len(cosets) != 3:
            problems.append(f"object classes: {len(quotient_s4.objects.reps)}, "
                            f"coset enumeration predicts {len(cosets)}, stated 3")

        # the quotient's tables come from the 2-group product; the member
        # scans of the reference check that they descend
        for q, label in ((quotient_s3, "surjective variant"),
                         (quotient_s4, "restricted variant")):
            descended, tables = descent(q)
            _report_problems(problems, descended, label)
            missing = {i for i, _ in LAWS} - {c.check_id for c in descended.checks}
            if missing:
                problems.append(f"{label}: descent checks missing {sorted(missing)}")
            if tables != (q.source, q.target, q._compose, q._by_source):
                problems.append(f"{label}: the member scans' tables differ from the quotient's")


def test_criterion_06_classical_cocycle(chain_s3, quotient_s3):
    with criterion(6) as problems:
        cover = cover_line5w()
        for seed in range(20):
            gc = generate_gerbal(chain_s3, cover, seed)
            rep = check_classical_cocycle(gc, quotient_s3)
            _report_problems(problems, rep, f"seed {seed}")
            ids = {c.check_id for c in rep.checks}
            if not {"classical.object", "classical.morphism"} <= ids:
                problems.append(f"seed {seed}: vertex or walk level check missing")
            if problems:
                break


def test_criterion_07_bundle_axioms():
    with criterion(7) as problems:
        start = time.monotonic()
        inst = build_instance("s3-line5w", seed=7, noise=True)
        space, pre = InstanceContext(inst, 2).space
        _report_problems(problems, pre, "precondition")
        if space is None:
            return

        n = len(space.objects_all())
        if n != 10:
            problems.append(f"|X| = {n}, stated 10")

        rep = check_bundle_axioms(space, 3)
        _report_problems(problems, rep, "bundle")
        ids = {c.check_id for c in rep.checks}
        for needed in ("bundle.proj.obj_surjective", "bundle.proj.mor_surjective",
                       "bundle.action.obj_free", "bundle.action.mor_free"):
            if needed not in ids:
                problems.append(f"check {needed} missing")
        triv_suffixes = {c.check_id.rsplit(".", 1)[-1]
                         for c in rep.checks if c.check_id.startswith("triv.")}
        missing = {"obj_bijective", "mor_injective", "mor_surjective",
                   "functorial", "equivariant", "projection"} - triv_suffixes
        if missing:
            problems.append(f"trivialization checks missing {sorted(missing)}")

        elapsed = time.monotonic() - start
        if elapsed >= 60.0:
            problems.append(f"took {elapsed:.3f}s, budget 60s")


def test_criterion_08_closure_vs_linear_algebra():
    with criterion(8) as problems:
        start = time.monotonic()
        space, oracle = _dirline3_setup()
        words = oracle.all_words()
        if len(words) != 176:
            problems.append(f"{len(words)} words enumerated, expected 176")
        rep = check_oracle_agreement(space, oracle, word_chains(space, oracle))
        _report_problems(problems, rep, "agreement")
        ids = {c.check_id for c in rep.checks}
        if not {"oracle.agreement", "oracle.both_verdicts"} <= ids:
            problems.append("agreement or verdict coverage check missing")
        elapsed = time.monotonic() - start
        if elapsed >= 120.0:
            problems.append(f"took {elapsed:.3f}s, budget 120s")


def test_criterion_09_congruence_invariants():
    with criterion(9) as problems:
        space, oracle = _dirline3_setup()
        if not oracle.equal_pairs():
            problems.append("no equal pairs discovered, nothing to test")
        rep = check_congruence_invariants(space, oracle, word_chains(space, oracle))
        _report_problems(problems, rep, "invariants")
        ids = {c.check_id for c in rep.checks}
        missing = {"congruence.proj_invariant", "congruence.action_equivariant"} - ids
        if missing:
            problems.append(f"invariant checks missing {sorted(missing)}")


def test_criterion_10_byte_identical_reports():
    with criterion(10) as problems:
        jobs = [("s3-line5", s) for s in
                ("peiffer", "gerbal", "functorial", "naturality", "quotient", "bundle")]
        jobs += [("oracle-dirline3", "oracle"), ("cycle6-trivial", "all")]
        for preset, suite in jobs:
            first = report_to_json(
                run_suite(build_instance(preset, seed=5, noise=True), suite, 3))
            second = report_to_json(
                run_suite(build_instance(preset, seed=5, noise=True), suite, 3))
            if first != second:
                problems.append(f"{suite} on {preset} is not byte-stable")
