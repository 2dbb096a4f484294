"""Crossed modules, the arrow category over H x| G, and the chained pair.

Frozen values below were computed with perm_oracle: conjugation of (13) by
(123) is (12), so the product of ((12),(123)) with ((13),e) lands on (e,(123));
the target of ((12),(123)) under tau = id is (12)(123) = (23).
"""

import perm_oracle as oracle
import pytest
from group_laws_reference import tau_image_leaks
from hypothesis import given, settings
from hypothesis import strategies as st

from catbundle.crossed import (
    Arrow,
    ChainedCrossedModules,
    CrossedModule,
    arrow_co_inverse,
    arrow_compose,
    arrow_endpoints,
    arrow_identity,
    arrow_inverse,
    arrow_product,
    arrows,
    pair_id,
    validate_peiffer,
)
from catbundle.errors import CompositionError, SchemaError
from catbundle.groups import subgroup_as_group
from catbundle.permutations import (
    identity_hom,
    inclusion_hom,
    symmetric_group,
    trivial_action,
)


def test_s3_outer_arrow_target_frozen(chain_s3):
    s, t = arrow_endpoints(chain_s3.outer, Arrow("(12)", "(123)"))
    assert (s, t) == ("(123)", "(23)")


def test_arrow_product_frozen(chain_s3):
    out = arrow_product(chain_s3.outer, Arrow("(12)", "(123)"), Arrow("(13)", "e"))
    assert out == Arrow("e", "(123)")


def test_arrow_endpoints_match_oracle(chain_s3):
    cm = chain_s3.outer
    table = oracle.name_table(oracle.sym(3))
    for h in cm.H.elements:
        for g in cm.G.elements:
            s, t = arrow_endpoints(cm, Arrow(h, g))
            assert s == g
            # tau = id on the s3 chain, so t = h g in the oracle's arithmetic
            assert t == oracle.name_of(oracle.mul(table[h], table[g]))


def test_arrow_compose_stacks_h_parts(chain_s3):
    cm = chain_s3.outer
    a1 = Arrow("(123)", "(12)")
    t1 = arrow_endpoints(cm, a1)[1]
    a2 = Arrow("(13)", t1)
    out = arrow_compose(cm, a2, a1)
    assert out.g == "(12)"
    assert out.h == cm.H.op("(13)", "(123)")


def test_arrow_compose_rejects_mismatched_endpoints(chain_s3):
    cm = chain_s3.outer
    with pytest.raises(CompositionError):
        arrow_compose(cm, Arrow("e", "e"), Arrow("e", "(12)"))


def test_arrow_co_inverse_cancels_under_compose(chain_s3):
    cm = chain_s3.outer
    for h in cm.H.elements:
        for g in cm.G.elements:
            a = Arrow(h, g)
            co = arrow_co_inverse(cm, a)
            s, t = arrow_endpoints(cm, a)
            assert arrow_compose(cm, co, a) == arrow_identity(cm, s)
            assert arrow_compose(cm, a, co) == arrow_identity(cm, t)


def test_peiffer_passes_on_both_chains(chain_s3, chain_s4):
    for chain in (chain_s3, chain_s4):
        for cm in (chain.outer, chain.inner):
            rep = validate_peiffer(cm)
            assert rep.ok, rep.failures()


def test_tau_image_normal_on_both_chains(chain_s3, chain_s4):
    # the first Peiffer identity gives g tau(h) g^-1 = tau(alpha_g(h)), so
    # the report lists no row of its own for the normality of tau(H)
    for chain in (chain_s3, chain_s4):
        for cm in (chain.outer, chain.inner):
            rep = validate_peiffer(cm)
            assert rep.ok and not any(c.check_id.startswith("tau_image.") for c in rep.checks)
            assert next(tau_image_leaks(cm), None) is None


def test_a_tau_image_that_is_not_normal_is_named():
    # Z2 = {e, (12)} in S3, acted on trivially: conjugation by (123) leaves
    # tau(Z2), which the first Peiffer identity names
    s3 = symmetric_group(3)
    z2 = subgroup_as_group(s3, ["e", "(12)"], "Z2")
    cm = CrossedModule(s3, z2, trivial_action(s3, z2), inclusion_hom(z2, s3, "tau"),
                       name="z2-in-s3")
    failed = {c.check_id: c.witness for c in validate_peiffer(cm).failures()}
    assert failed == {
        "peiffer.z2-in-s3.first":
            "tau(alpha_(123)((12))) = '(12)' != (123) tau((12)) (123)^-1 = '(23)'",
    }
    assert next(tau_image_leaks(cm)) == "(123) (12) (123)^-1 = '(23)' leaves tau(H)"


def test_trivial_action_with_identity_tau_breaks_peiffer():
    # tau = id demands the action be conjugation; the trivial action cannot
    # satisfy the first identity on any non-commuting pair
    s3 = symmetric_group(3)
    cm = CrossedModule(s3, s3, trivial_action(s3, s3), identity_hom(s3, "tau"),
                       name="broken")
    rep = validate_peiffer(cm)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())


def test_chain_constructor_defers_when_asked():
    s3 = symmetric_group(3)
    broken = CrossedModule(s3, s3, trivial_action(s3, s3), identity_hom(s3, "tau"),
                           name="broken")
    chain = ChainedCrossedModules(broken, broken, "bad")
    assert not validate_peiffer(chain.outer).ok


def test_chain_records_images(chain_s3, chain_s4):
    assert chain_s3.tau_p_image == frozenset({"e", "(123)", "(132)"})
    assert chain_s3.tau_tau_p_image == frozenset({"e", "(123)", "(132)"})
    # V4 included in A4 then in S4 stays V4
    assert chain_s4.tau_tau_p_image == frozenset(
        {"e", "(12)(34)", "(13)(24)", "(14)(23)"})


def assert_group_laws(cm, sample):
    """The semidirect laws of arrow_product and arrow_inverse: identity and
    inverses at each arrow of `sample`, associativity at each triple."""
    e = Arrow(cm.H.identity, cm.G.identity)
    for a in sample:
        assert arrow_product(cm, e, a) == arrow_product(cm, a, e) == a
        assert arrow_product(cm, a, arrow_inverse(cm, a)) == e
        assert arrow_product(cm, arrow_inverse(cm, a), a) == e
        for b in sample:
            ab = arrow_product(cm, a, b)
            for c in sample:
                assert arrow_product(cm, ab, c) == arrow_product(cm, a, arrow_product(cm, b, c))


def test_semidirect_group_is_a_group(chain_s3):
    # exhaustive on S3 x| S3 (36 arrows) and A3 x| S3 (18)
    for cm, order in ((chain_s3.outer, 36), (chain_s3.inner, 18)):
        pairs = arrows(cm.H.elements, cm.G.elements)
        assert len(pairs) == order
        assert_group_laws(cm, pairs)


def test_semidirect_roundtrip(chain_s3):
    # pair ids name arrows one to one, and `arrows` lists them in id order
    cm = chain_s3.outer
    pairs = arrows(cm.H.elements, cm.G.elements)
    ids = [pair_id(*a) for a in pairs]
    assert ids == sorted(set(ids))
    assert {Arrow(h, g) for h in cm.H.elements for g in cm.G.elements} == set(pairs)


def test_semidirect_subset_must_be_closed(chain_s3):
    # H x| S is a group only for a subgroup S of G: over S = {e, (12), (123)}
    # the product of two arrows leaves the pair set, and the subgroup gate that
    # the quotient passes tau(H) through before naming H x| tau(H) refuses S
    cm = chain_s3.outer
    subset = frozenset({"e", "(12)", "(123)"})
    pairs = set(arrows(cm.H.elements, subset))
    assert any(arrow_product(cm, a, b) not in pairs for a in pairs for b in pairs)
    with pytest.raises(SchemaError, match=r"not closed"):
        subgroup_as_group(cm.G, subset, "S")


@settings(max_examples=60)
@given(st.data())
def test_interchange_law(chain_s3, data):
    """(b2 . a2) compose (b1 . a1) == (b2 compose b1) . (a2 compose a1) on
    vertically composable pairs."""
    cm = chain_s3.outer
    hs, gs = cm.H.elements, cm.G.elements
    a1 = Arrow(data.draw(st.sampled_from(hs)), data.draw(st.sampled_from(gs)))
    b1 = Arrow(data.draw(st.sampled_from(hs)), data.draw(st.sampled_from(gs)))
    a2 = Arrow(data.draw(st.sampled_from(hs)), arrow_endpoints(cm, a1)[1])
    b2 = Arrow(data.draw(st.sampled_from(hs)), arrow_endpoints(cm, b1)[1])
    lhs = arrow_compose(cm, arrow_product(cm, b2, a2), arrow_product(cm, b1, a1))
    rhs = arrow_product(cm, arrow_compose(cm, b2, b1), arrow_compose(cm, a2, a1))
    assert lhs == rhs


@settings(max_examples=60)
@given(st.data())
def test_arrow_group_laws_sampled_on_s4(chain_s4, data):
    # A4 x| S4 (288 arrows) and V4 x| A4 (48), three arrows at a time
    for cm in (chain_s4.outer, chain_s4.inner):
        hs, gs = cm.H.elements, cm.G.elements
        assert_group_laws(cm, [Arrow(data.draw(st.sampled_from(hs)),
                                     data.draw(st.sampled_from(gs))) for _ in range(3)])
