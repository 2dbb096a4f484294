"""The group-level laws decided on generators against their full scans.

Each case edits one cell of a chain's group, hom or action table, or builds
data whose components hold but whose laws fail, some only past the first
generator, and compares (check id, status, witness) of the package with
`group_laws_reference`, which scans every triple or pair. On chains of
subgroups of S4 whose Peiffer identities hold, the reference also scans the
laws that no report checks because those identities imply them, and
`quotient_reference` the laws of the quotient 2-group.
"""

import random

import perm_oracle as oracle
import pytest
from group_laws_reference import (
    assoc_breaks,
    automorphism_breaks,
    compose_breaks,
    first_breaks,
    group_law_scans,
    implied_scans,
    second_breaks,
)

from catbundle.crossed import (
    ChainedCrossedModules,
    CrossedModule,
    validate_peiffer,
)
from catbundle.groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    generators,
    subgroup_as_group,
    validate_action,
    validate_group,
)
from catbundle.permutations import (
    alternating_group,
    conjugation_action,
    identity_hom,
    inclusion_hom,
    klein_four,
    symmetric_group,
    trivial_action,
)
from catbundle.presets import s3_chain, s4_chain
from catbundle.quotient import build_quotient, check_JH_normal
from test_quotient import assert_the_reference_agrees, closure


JH_CHECKS = {"jh.normal_full"}


def decided(chain, as_suite=False):
    """{check id: (status, witness)} of the package, each validator called as
    `validate_peiffer` and the `quotient` suite call it: the chain's `peiffer`
    report, whose modules share one dict of group verdicts. `check_JH_normal`
    is also called after a failed peiffer report, when it scans in full,
    unless `as_suite` is set."""
    groups = {g.name: validate_group(g) for g in (chain.G, chain.H, chain.J)}
    reports = list(groups.values())
    for cm in (chain.outer, chain.inner):
        holds = groups[cm.G.name].ok and groups[cm.H.name].ok
        reports.append(validate_action(cm.alpha, holds))
    reports.append(chain.peiffer)
    if chain.peiffer.ok or not as_suite:
        reports.append(check_JH_normal(chain))
    return {k: v for rep in reports for k, v in decided_laws(rep).items()}


def decided_laws(rep):
    return {c.check_id: (c.status, c.witness) for c in rep.checks}


def assert_matches_the_full_scans(chain, as_suite=False):
    got = decided(chain, as_suite)
    scans = group_law_scans(chain)
    assert set(scans) - set(got) <= JH_CHECKS
    for check in (c for c in scans if c in got):
        witness = next(scans[check], None)
        assert got[check] == (("pass", None) if witness is None else ("fail", witness)), check


def tables(chain):
    """Table name -> (table, the values a cell may take) for every group
    product and inverse, hom and action table of `chain`."""
    named = {}
    for g in (chain.G, chain.H, chain.J):
        named[f"{g.name}.mul"] = (g.mul, g.elements)
        named[f"{g.name}.inv"] = (g.inv, g.elements)
    for cm in (chain.outer, chain.inner):
        named[cm.tau.name] = (cm.tau.table, cm.G.elements)
        named[cm.alpha.name] = (cm.alpha.table, cm.H.elements)
    return named


def assert_edit_matches(chain, table, key, value, as_suite=False):
    old, table[key] = table[key], value
    try:
        # a new chain, so the images of tau and tau' read the edited tables
        edited = ChainedCrossedModules(chain.outer, chain.inner, chain.name)
        assert_matches_the_full_scans(edited, as_suite)
    finally:
        table[key] = old


S3_TABLES = ["S3.mul", "S3.inv", "A3.mul", "A3.inv", "tau", "tau_p", "conj_outer", "conj_inner"]


def test_the_table_list_covers_the_s3_chain():
    assert sorted(tables(s3_chain())) == sorted(S3_TABLES)


@pytest.mark.parametrize("name", S3_TABLES)
def test_every_single_cell_edit_of_an_s3_table_matches_the_full_scans(name):
    chain = s3_chain()
    table, values = tables(chain)[name]
    for key in list(table):
        for value in values:
            if value != table[key]:
                assert_edit_matches(chain, table, key, value)


def test_seeded_edits_of_the_s4_tables_match_the_full_scans():
    # J_H is checked as the quotient suite checks it: the full scans of its
    # 288 arrows after a failed peiffer report would take most of the time
    chain = s4_chain()
    named = tables(chain)
    rng = random.Random(20291)
    for _ in range(200):
        table, values = named[rng.choice(sorted(named))]
        key = rng.choice(sorted(table))
        value = rng.choice([v for v in values if v != table[key]])
        assert_edit_matches(chain, table, key, value, as_suite=True)


def s3_outer(alpha, tau):
    s3 = symmetric_group(3)
    return CrossedModule(s3, s3, alpha(s3, s3, "alpha"), tau(s3), name="outer")


def s3_inner(outer):
    a3 = alternating_group(3)
    return CrossedModule(outer.H, a3, conjugation_action(outer.H, a3, "conj_inner"),
                         inclusion_hom(a3, outer.H, "tau_p"), name="inner")


def trivial_tau(s3):
    return GroupHom("tau", s3, s3, dict.fromkeys(s3.elements, s3.identity))


def v4_z2_chain():
    """V4 in S4 by conjugation over Z2 in V4: every Peiffer law holds, but
    tau tau'(Z2) is not normal in S4, so `jh.normal_full` fails."""
    s4, v4 = symmetric_group(4), klein_four()
    z2 = subgroup_as_group(v4, ["(12)(34)", "e"], "Z2")
    outer = CrossedModule(s4, v4, conjugation_action(s4, v4, "conj_outer"),
                          inclusion_hom(v4, s4, "tau"), name="v4-outer")
    inner = CrossedModule(v4, z2, trivial_action(v4, z2, "triv_inner"),
                          GroupHom("tau_p", z2, v4, {x: x for x in z2.elements}),
                          name="z2-inner")
    return ChainedCrossedModules(outer, inner, "z2-chain")


def sign_tau(s3):
    """S3 onto its subgroup {e, (12)} by the sign: with conjugation, the second
    identity holds at h = (12), the first generator, and fails at (123)."""
    return GroupHom("tau", s3, s3, {x: "e" if x in ("e", "(123)", "(132)") else "(12)"
                                    for x in s3.elements})


def lawful_chains():
    outers = {
        "second-fails": s3_outer(conjugation_action, trivial_tau),
        "both-fail": s3_outer(trivial_action, lambda s3: identity_hom(s3, "tau")),
        "sign-tau": s3_outer(conjugation_action, sign_tau),
    }
    chains = {name: ChainedCrossedModules(cm, s3_inner(cm)) for name, cm in outers.items()}
    chains["normal-full-fails"] = v4_z2_chain()
    return chains


@pytest.mark.parametrize("name", sorted(lawful_chains()))
def test_lawful_components_with_failing_identities_match_the_full_scans(name):
    chain = lawful_chains()[name]
    for g in (chain.G, chain.H, chain.J):
        assert validate_group(g).ok
    assert_matches_the_full_scans(chain)
    assert any(status == "fail" for status, _ in decided(chain).values())


def test_the_normal_full_chain_is_decided_on_generators():
    chain = v4_z2_chain()
    assert chain.peiffer.ok
    [row] = check_JH_normal(chain).checks
    assert row.check_id == "jh.normal_full"
    assert row.witness == next(group_law_scans(chain)["jh.normal_full"])


def subgroup_chains(bound):
    """The chains J in H in G of subgroups of S4 with H normal in G and J
    normal in H, each module acting by conjugation with tau the inclusion,
    and |J| |H| at most `bound`."""
    s4 = symmetric_group(4)
    subgroups = sorted({closure(s4, (a, b)) for a in s4.elements for b in s4.elements},
                       key=lambda sub: (len(sub), sorted(sub)))

    def normal_in(n, g):
        return n <= g and all(s4.conj(x, y) in n for x in g for y in n)

    def conjugation(actor, space, name):
        return GroupAction(name, actor, space, {(g, h): s4.conj(g, h)
                                                for g in actor.elements for h in space.elements})
    for g, h, j in ((g, h, j) for g in subgroups for h in subgroups if normal_in(h, g)
                    for j in subgroups if normal_in(j, h) and len(j) * len(h) <= bound):
        G, H, J = (subgroup_as_group(s4, sub, name) for sub, name in ((g, "G"), (h, "H"),
                                                                     (j, "J")))
        outer = CrossedModule(G, H, conjugation(G, H, "alpha"), inclusion_hom(H, G, "tau"),
                              name="outer")
        inner = CrossedModule(H, J, conjugation(H, J, "alpha_p"),
                              inclusion_hom(J, H, "tau_p"), name="inner")
        yield ChainedCrossedModules(outer, inner)


def test_the_peiffer_identities_imply_the_laws_no_report_checks():
    # 218 chains over S4; the bound drops the four with |J| |H| above 96
    # (three of them over S4 itself), whose reference taubar scans take most
    # of the time. The quotient's member scans also check that its tables
    # are the quotient's; their interchange scan is quartic in the morphism
    # cosets, so it runs on the chains with at most 36 of them
    chains = normal_full_fails = interchanged = 0
    for chain in subgroup_chains(96):
        assert chain.peiffer.ok
        for law, scan in implied_scans(chain).items():
            assert next(scan, None) is None, law
        [row] = check_JH_normal(chain).checks
        witness = next(group_law_scans(chain)["jh.normal_full"], None)
        assert (row.check_id, row.witness) == ("jh.normal_full", witness)
        q = build_quotient(chain)
        interchange = q.morphisms.size <= 36
        assert_the_reference_agrees(q, interchange)
        chains += 1
        normal_full_fails += witness is not None
        interchanged += interchange
    assert (chains, normal_full_fails, interchanged) == (214, 18, 208)


def three_element_magma():
    """A table whose greedy generators are a and b (b*b = c), whose triples
    with the middle a all associate, and whose triples (b, b, c) and
    (b, c, c), among others, do not."""
    els = ["a", "b", "c"]
    values = "aaaacaaab"
    mul = {(x, y): values[3 * i + j] for i, x in enumerate(els) for j, y in enumerate(els)}
    return FiniteGroup("M3", els, mul, "a", dict(zip(els, els)))


def twisted_conjugation():
    """S3 acting on itself by g.h = c(g) h c(g)^-1, where c(e) = c(132) = e,
    c(123) = (13) and c(g (12)) = c(g) (12): `compose` holds whenever g2 is
    (12), the first generator, and fails at g2 = (123)."""
    s3 = symmetric_group(3)
    even = {"e": "e", "(123)": "(13)", "(132)": "e"}
    c = {**even, **{s3.op(g, "(12)"): s3.op(k, "(12)") for g, k in even.items()}}
    return GroupAction("twisted", s3, s3,
                       {(g, h): s3.conj(c[g], h) for g in s3.elements for h in s3.elements})


def left_multiplication():
    """S3 acting on itself by g.h = g h: a bijection that is no automorphism."""
    s3 = symmetric_group(3)
    return GroupAction("left", s3, s3,
                       {(g, h): s3.op(g, h) for g in s3.elements for h in s3.elements})


def test_associativity_needs_every_generator():
    g = three_element_magma()
    assert generators(g.elements, g.op) == ["a", "b"]
    witness = next(assoc_breaks(g))
    assert decided_laws(validate_group(g))["group.M3.assoc"] == ("fail", witness)


def relabelled_points():
    """S3 permuting A3 = {e, (123), (132)} as points 0, 1, 2, each g by the
    permutation (13) g (13): (12) acts as inversion, an automorphism of A3,
    and (123) moves e, so `automorphism` fails only past the first generator."""
    s3, a3 = symmetric_group(3), alternating_group(3)
    points = ["e", "(123)", "(132)"]
    perm_of = oracle.name_table(oracle.sym(3))
    return GroupAction("relabel", s3, a3, {
        (g, h): points[perm_of[s3.conj("(13)", g)][points.index(h)]]
        for g in s3.elements for h in a3.elements})


def swap_two():
    """Z2 = {e, (12)} acting on S3 by the involution that swaps (132) and (23):
    it respects right products by (12), the first generator of S3, but no
    product by (123), so `automorphism` fails only past that generator."""
    s3 = symmetric_group(3)
    z2 = subgroup_as_group(s3, ["(12)", "e"], "Z2")
    swap = {"(132)": "(23)", "(23)": "(132)"}
    return GroupAction("swap", z2, s3, {
        (g, h): swap.get(h, h) if g == "(12)" else h for g in z2.elements for h in s3.elements})


@pytest.mark.parametrize("build, law", [(twisted_conjugation, "compose"),
                                        (left_multiplication, "automorphism"),
                                        (relabelled_points, "automorphism"),
                                        (swap_two, "automorphism")])
def test_action_laws_failing_past_the_first_generator_match_the_full_scans(build, law):
    act = build()
    scan = compose_breaks(act) if law == "compose" else automorphism_breaks(act)
    got = decided_laws(validate_action(act, groups_hold=True))
    assert got[f"action.{act.name}.{law}"] == ("fail", next(scan))
    assert got[f"action.{act.name}.identity"] == ("pass", None)


def z2_on_v4():
    """Z2 = {e, (34)} acting on V4 by conjugation, with tau: V4 -> Z2 whose
    kernel is {e, (13)(24)}. The components hold; the first identity holds at
    h = (12)(34), the first generator of V4, and fails at (13)(24), and the
    second fails only at h' = (13)(24)."""
    s4, v4 = symmetric_group(4), klein_four()
    z2 = subgroup_as_group(s4, ["(34)", "e"], "Z2")
    alpha = GroupAction("conj", z2, v4, {(g, h): s4.conj(g, h)
                                         for g in z2.elements for h in v4.elements})
    tau = GroupHom("tau", v4, z2, {"(12)(34)": "(34)", "(13)(24)": "e", "(14)(23)": "(34)",
                                   "e": "e"})
    return CrossedModule(z2, v4, alpha, tau, name="z2-v4")


def test_peiffer_identities_failing_past_the_first_generator_match_the_full_scans():
    cm = z2_on_v4()
    got = decided_laws(validate_peiffer(cm))
    assert all(status == "pass" for check, (status, _) in got.items() if ".component." in check)
    assert generators(cm.H.elements, cm.H.op) == ["(12)(34)", "(13)(24)"]
    assert got["peiffer.z2-v4.first"] == ("fail", next(first_breaks(cm)))
    assert got["peiffer.z2-v4.second"] == ("fail", next(second_breaks(cm)))
