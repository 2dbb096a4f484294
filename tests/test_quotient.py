"""The identified-fiber categorical group.

Counts are frozen against two independent oracles: the s3 object and morphism
counts come from the parity map (an even/odd split computed by counting
inversions in perm_oracle), and the s4 object count from enumerating left
cosets of V4 inside A4 on raw tuples.
"""

import json
import re

import perm_oracle as oracle
import pytest
from quotient_reference import LAWS, descent, subgroup_normal

from catbundle.crossed import (
    ChainedCrossedModules,
    arrow_endpoints,
    arrow_inverse,
    arrow_product,
    arrows,
    pair_id,
    validate_peiffer,
)
from catbundle.errors import InternalInvariantError, SchemaError
from catbundle.groups import FiniteGroup
from catbundle.permutations import symmetric_group
from catbundle.presets import s3_chain, s4_chain
from catbundle.quotient import (
    CosetSpace,
    build_JH,
    build_quotient,
    check_JH_normal,
    check_classical_cocycle,
)
from catbundle.generation import instance_to_json
from catbundle.schema import instance_from_document
from catbundle.suites import run_suite


def test_variant_detection(chain_s3, chain_s4):
    # one construction whether tau is onto (S3) or not (S4)
    for chain, n_obj, n_mor in ((chain_s3, 2, 4), (chain_s4, 3, 9)):
        q = build_quotient(chain)
        assert (q.objects.size, q.morphisms.size) == (n_obj, n_mor)


def test_JH_size_s3(chain_s3):
    # tau'(A3) = A3 in H = S3 and tau tau'(A3) = A3 in G = S3, so 3 * 3 pairs
    assert len(build_JH(chain_s3)) == 9


def test_JH_size_s4(chain_s4):
    # tau'(V4) = V4 in A4 and tau(V4) = V4 in S4, so 4 * 4 pairs
    assert len(build_JH(chain_s4)) == 16


def test_JH_normal_s3(chain_s3):
    rep = check_JH_normal(chain_s3)
    assert rep.ok, rep.failures()


def test_JH_normal_s4(chain_s4):
    rep = check_JH_normal(chain_s4)
    assert rep.ok, rep.failures()


def test_JH_normal_without_a_peiffer_verdict_scans_and_catches_a_planted_leak():
    # (134) is not among the generators of S4, (12), (12)(34) and (123), or of
    # A4; conjugating by an arrow over it now leaves J_H
    chain = s4_chain()
    chain.alpha.table[("(134)", "(12)(34)")] = "(123)"
    assert not validate_peiffer(chain.outer).ok
    witness = ("((12)(34),(134)) ((12)(34),(12)(34)) ((12)(34),(134))^-1 = "
               "'((142),(14)(23))' leaves J_H")
    rep = check_JH_normal(chain)
    assert {c.check_id: c.witness for c in rep.failures()} == {"jh.normal_full": witness}


@pytest.fixture
def built_groups(monkeypatch):
    """The names of the FiniteGroups constructed while the test runs."""
    built = []
    init = FiniteGroup.__init__

    def counted(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)
    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    return built


def test_JH_normal_builds_no_group_table(chain_s4, built_groups):
    # the laws are evaluated on arrows; H x| G on S4 would be 288 elements
    assert check_JH_normal(chain_s4).ok
    assert built_groups == []


def assert_the_reference_agrees(q, interchange=True):
    """The member scans of `quotient_reference` pass every law on `q`, and
    their tables are the quotient's."""
    rep, tables = descent(q, interchange)
    assert rep.ok, rep.failures()
    laws = [check_id for check_id, _ in LAWS]
    assert [c.check_id for c in rep.checks] == (laws if interchange else laws[:-1])
    assert tables == (q.source, q.target, q._compose, q._by_source)


def test_build_quotient_builds_no_arrow_group_table(chain_s3, chain_s4, built_groups):
    # the arrows of H x| tau(H) are multiplied where used; only the object
    # group tau(H) is extracted as its own table
    for chain, expected in ((chain_s3, ["tau(S3)"]), (chain_s4, ["tau(A4)"])):
        built_groups.clear()
        q = build_quotient(chain)
        assert built_groups == expected
        assert_the_reference_agrees(q)


# Edits that fail `peiffer` and leave the planted subgroup not normal:
# tau tau'(J) in the object group tau(H), or J_H in the arrows H x| tau(H).
# (table, cell, value) in the chain's outer action `alpha` or inner `tau_p`.
NON_NORMAL = {
    ("chain_s3", "objects"): [("tau_p", "(123)", "(12)"), ("tau_p", "(132)", "(12)")],
    ("chain_s4", "objects"): [("tau_p", "(13)(24)", "e"), ("tau_p", "(14)(23)", "(12)(34)")],
    ("chain_s3", "morphisms"): [("alpha", ("(12)", "(12)"), "(123)")],
    ("chain_s4", "morphisms"): [("alpha", ("(134)", "(12)(34)"), "(123)")],
}


def conjugation_leaves(op, inverse, ambient, sub):
    return any(op(op(w, v), inverse(w)) not in sub for w in ambient for v in sub)


@pytest.mark.parametrize("chain_fixture", ["chain_s3", "chain_s4"])
@pytest.mark.parametrize("planted", ["objects", "morphisms"])
def test_a_quotient_without_group_structure_is_never_built(chain_fixture, planted):
    # coset products trust normality unchecked, so the constructor refuses
    # any chain that fails peiffer, and names its first witness
    chain = {"chain_s3": s3_chain, "chain_s4": s4_chain}[chain_fixture]()
    for table, cell, value in NON_NORMAL[chain_fixture, planted]:
        getattr(chain, table).table[cell] = value
    # a new chain, so the images of tau and tau' read the edited tables
    chain = ChainedCrossedModules(chain.outer, chain.inner, chain.name)
    objects, cm = chain.tau.image(), chain.outer
    if planted == "objects":
        leaks = conjugation_leaves(chain.G.op, chain.G.inverse, objects,
                                   chain.tau_tau_p_image)
    else:
        leaks = conjugation_leaves(lambda a, b: arrow_product(cm, a, b),
                                   lambda a: arrow_inverse(cm, a),
                                   arrows(chain.H.elements, objects),
                                   frozenset(arrows(chain.tau_p_image, chain.tau_tau_p_image)))
    assert leaks
    assert not chain.peiffer.ok
    with pytest.raises(InternalInvariantError,
                       match=f"fails peiffer: {re.escape(chain.peiffer.first_witness())}$"):
        build_quotient(chain)


def test_conjugation_budget_matches_group_orders(chain_s3, chain_s4, quotient_s3, quotient_s4):
    # the normality sweep sizes quoted elsewhere: |H x| G| * |J_H|, and the
    # quotient's arrows H x| tau(H), all of H x| G only where tau is onto
    for chain, q, full, restricted, jh in ((chain_s3, quotient_s3, 36, 36, 9),
                                           (chain_s4, quotient_s4, 288, 144, 16)):
        assert len(arrows(chain.H.elements, chain.G.elements)) * len(build_JH(chain)) \
            == full * jh
        assert len(q.arrow_of) == len(q.morphisms.elements) == restricted


def test_s3_object_count_matches_sign_oracle(quotient_s3):
    signs = {oracle.sign(p) for p in oracle.sym(3)}
    assert len(quotient_s3.objects.reps) == len(signs) == 2


def test_s3_morphism_count_matches_sign_oracle(quotient_s3):
    sign_pairs = {
        (oracle.sign(p), oracle.sign(q))
        for p in oracle.sym(3)
        for q in oracle.sym(3)
    }
    assert len(quotient_s3.morphisms.reps) == len(sign_pairs) == 4


def test_s4_object_count_matches_coset_oracle(quotient_s4):
    cosets = oracle.left_cosets(oracle.alt(4), oracle.klein())
    assert len(quotient_s4.objects.reps) == len(cosets) == 3


def test_s4_morphism_count_matches_coset_oracle(quotient_s4):
    cosets = oracle.left_cosets(oracle.alt(4), oracle.klein())
    assert len(quotient_s4.morphisms.reps) == len(cosets) ** 2 == 9


def test_every_coset_member_maps_to_its_rep(quotient_s3):
    q = quotient_s3
    for rep_id, members in q.morphisms.members_of.items():
        for x in members:
            assert q.morphisms.rep(x) == rep_id


def test_descent_verification_ran(quotient_s3, quotient_s4, inst_a3j3_line5w):
    # the two preset chains, and the A3/J3 chain, whose fiber is not thin
    for q in (quotient_s3, quotient_s4, build_quotient(inst_a3j3_line5w.chain)):
        assert_the_reference_agrees(q)


def test_q_mor_constant_on_JH_translates(chain_s3, quotient_s3):
    q = quotient_s3
    jh = sorted(build_JH(chain_s3))
    for a in q.arrow_of.values():
        base = q.q_mor(a)
        for t in jh:
            assert q.q_mor(arrow_product(chain_s3.outer, a, q.arrow(t))) == base


def test_source_target_descend(chain_s3, quotient_s3):
    q = quotient_s3
    for a in q.arrow_of.values():
        mrep = q.q_mor(a)
        s, t = arrow_endpoints(chain_s3.outer, a)
        assert q.source[mrep] == q.objects.rep(s)
        assert q.target[mrep] == q.objects.rep(t)


def test_compose_descends_on_reps(quotient_s3):
    q = quotient_s3
    for m1 in q.morphisms.reps:
        for m2 in q.morphisms.reps:
            if q.target[m1] != q.source[m2]:
                continue
            out = q.compose_of(m2, m1)
            assert out in q.morphisms.reps
            assert q.source[out] == q.source[m1]
            assert q.target[out] == q.target[m2]


def test_mors_with_source_partitions_morphisms(quotient_s4):
    q = quotient_s4
    seen = []
    for orep in q.objects.reps:
        seen.extend(q.mors_with_source(orep))
    assert sorted(seen) == sorted(q.morphisms.reps)


def test_identity_mor_neutral_for_compose(quotient_s3):
    q = quotient_s3
    for m in q.morphisms.reps:
        s, t = q.source[m], q.target[m]
        assert q.compose_of(m, q.identity_mor_at(s)) == m
        assert q.compose_of(q.identity_mor_at(t), m) == m


def test_mor_product_and_inverse(quotient_s3):
    q = quotient_s3
    e = q.identity_mor_at(q.identity_obj())
    for m in q.morphisms.reps:
        assert q.mor_product(m, q.mor_inverse(m)) == e
        co = q.mor_co_inverse(m)
        assert q.compose_of(co, m) == q.identity_mor_at(q.source[m])


def test_build_names_a_tau_image_that_is_no_subgroup(inst_line5):
    # tau is no homomorphism, so its image need be no subgroup: the refusal
    # comes before any table is built, and names the failed peiffer row
    doc = json.loads(instance_to_json(inst_line5))
    doc["homs"]["tau"]["map"]["(23)"] = "e"
    chain = instance_from_document(doc).chain
    [hom] = [c for c in chain.peiffer.failures() if ".component.hom." in c.check_id]
    assert hom.witness == chain.peiffer.first_witness()
    with pytest.raises(InternalInvariantError, match=f"fails peiffer: {re.escape(hom.witness)}$"):
        build_quotient(chain)


def test_classical_cocycle_on_generated_data(inst_line5w, quotient_s3):
    rep = check_classical_cocycle(inst_line5w.gc, quotient_s3)
    assert rep.ok, rep.failures()


@pytest.mark.parametrize("chain_fixture", ["chain_s3", "chain_s4"])
def test_coset_products_are_memoized_and_total(request, chain_fixture):
    # a fresh quotient, so the first call of each argument pair misses; every
    # parent element counts, reps and non-reps alike
    q = build_quotient(request.getfixturevalue(chain_fixture))
    objs, mors, cm = q.obj_parent.elements, q.arrow_of, q.chain.outer
    # the arrow group is H x| tau(H), named after the object group
    arrow_group = {"chain_s3": "S3x|tau(S3)", "chain_s4": "A4x|tau(A4)"}[chain_fixture]
    for _ in range(2):
        for a in objs:
            assert q.identity_mor_at(a) == q.morphisms.rep(pair_id(q.chain.H.identity, a))
            for b in objs:
                assert q.obj_product(a, b) == q.objects.rep(q.obj_parent.op(a, b))
        for a in mors:
            for b in mors:
                assert q.mor_product(a, b) == q.morphisms.rep(
                    pair_id(*arrow_product(cm, mors[a], mors[b])))
    a = q.morphisms.reps[0]
    for _ in range(2):
        for bad in (lambda: q.mor_product(a, "nope"), lambda: q.mor_inverse("nope"),
                    lambda: q.mor_co_inverse("nope")):
            with pytest.raises(SchemaError,
                               match=rf"^pair 'nope' is not in {re.escape(repr(arrow_group))}$"):
                bad()
        with pytest.raises(SchemaError):
            q.obj_product("nope", q.identity_obj())
        with pytest.raises(SchemaError):
            q.identity_mor_at("nope")


def closure(g, gens):
    """The subgroup of `g` generated by `gens`."""
    sub, frontier = {g.identity}, [g.identity]
    while frontier:
        x = frontier.pop()
        for y in gens:
            xy = g.op(x, y)
            if xy not in sub:
                sub.add(xy)
                frontier.append(xy)
    return frozenset(sub)


def test_subgroup_normal_on_coset_reps_matches_the_full_scan():
    s4 = symmetric_group(4)
    subgroups = {closure(s4, (a, b)) for a in s4.elements for b in s4.elements}
    normal = 0
    for sub in sorted(subgroups, key=sorted):
        space = CosetSpace(s4.name, s4.elements, s4.op, s4.inverse, sub)
        full = all(s4.conj(g, s) in sub for g in s4.elements for s in sub)
        assert subgroup_normal(space) == full, sorted(sub)
        normal += full
    assert (len(subgroups), normal) == (30, 4)


def test_a_diagonal_h_cell_off_the_identity_fails_classical_diagonal(inst_line5):
    # h_11(0) = (12) makes gbar_11(0) = (12), outside the identity coset
    # tau tau'(A3) = A3; the quotient suite gates on peiffer alone, so it runs
    doc = json.loads(instance_to_json(inst_line5))
    doc["cocycle"]["h"]["1|1|0"] = "(12)"
    rep = run_suite(instance_from_document(doc), "quotient", 2)
    failed = {c.check_id: c.witness for c in rep.failures()}
    assert failed["classical.diagonal"] == "gbar_11(0) is not the identity coset"
