"""The permutation layer against an independent implementation.

perm_oracle rebuilds S3, S4, A4 and V4 from raw tuples with its own product,
inverse, parity and naming code; these tests demand exact agreement on every
element and every product, so the tables the rest of the package consumes are
certified before anything else runs.
"""

import perm_oracle as oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catbundle.errors import SchemaError
from catbundle.permutations import (
    alternating_group,
    conjugation_action,
    identity_hom,
    inclusion_hom,
    klein_four,
    symmetric_group,
    trivial_action,
)


def group_against_oracle(g, perms):
    table = {oracle.name_of(p): p for p in perms}
    assert sorted(g.elements) == sorted(table)
    assert g.identity == "e"
    for a in g.elements:
        assert g.inverse(a) == oracle.name_of(oracle.inv(table[a]))
        for b in g.elements:
            want = oracle.name_of(oracle.mul(table[a], table[b]))
            assert g.op(a, b) == want


def test_s3_table_matches_oracle():
    group_against_oracle(symmetric_group(3), oracle.sym(3))


def test_s4_table_matches_oracle():
    group_against_oracle(symmetric_group(4), oracle.sym(4))


def test_a3_is_even_part_of_s3():
    a3 = alternating_group(3)
    evens = {oracle.name_of(p) for p in oracle.alt(3)}
    assert set(a3.elements) == evens == {"e", "(123)", "(132)"}


def test_a4_is_even_part_of_s4():
    a4 = alternating_group(4)
    evens = {oracle.name_of(p) for p in oracle.alt(4)}
    assert set(a4.elements) == evens
    assert a4.order == 12


def test_klein_four_elements():
    v4 = klein_four()
    want = {oracle.name_of(p) for p in oracle.klein()}
    assert set(v4.elements) == want == {"e", "(12)(34)", "(13)(24)", "(14)(23)"}
    group_against_oracle(v4, oracle.klein())


def test_klein_four_generated_closure():
    # V4 is exactly the closure of its two non-identity generators inside S4
    a = (1, 0, 3, 2)
    b = (2, 3, 0, 1)
    closure = oracle.close_under_mul([a, b], 4)
    assert {oracle.name_of(p) for p in closure} == set(klein_four().elements)


def test_composition_convention():
    # right factor acts first: (12)(123) sends 1 to 1, so it is (23)
    s3 = symmetric_group(3)
    assert s3.op("(12)", "(123)") == "(23)"
    assert s3.op("(123)", "(12)") == "(13)"


def test_inclusion_hom_maps_names_verbatim():
    a3, s3 = alternating_group(3), symmetric_group(3)
    f = inclusion_hom(a3, s3)
    for h in a3.elements:
        assert f(h) == h
    assert f.image() == frozenset(a3.elements)


def test_inclusion_hom_rejects_non_subgroup():
    s3, v4 = symmetric_group(3), klein_four()
    with pytest.raises(SchemaError):
        inclusion_hom(v4, s3)


def test_identity_hom():
    s3 = symmetric_group(3)
    f = identity_hom(s3)
    assert all(f(g) == g for g in s3.elements)


def test_conjugation_action_matches_oracle():
    s4, a4 = symmetric_group(4), alternating_group(4)
    act = conjugation_action(s4, a4)
    table = oracle.name_table(oracle.sym(4))
    for g in s4.elements:
        for h in a4.elements:
            pg, ph = table[g], table[h]
            want = oracle.name_of(oracle.mul(oracle.mul(pg, ph), oracle.inv(pg)))
            assert act(g, h) == want


def test_conjugation_requires_invariant_subset():
    s4, v4 = symmetric_group(4), klein_four()
    # V4 is normal in S4, so this succeeds
    conjugation_action(s4, v4)
    s3 = symmetric_group(3)
    with pytest.raises(SchemaError):
        conjugation_action(s4, s3)


def test_trivial_action_fixes_everything():
    s3 = symmetric_group(3)
    act = trivial_action(s3, s3)
    assert all(act(g, h) == h for g in s3.elements for h in s3.elements)


@given(st.data())
def test_product_agrees_on_random_s4_pairs(data):
    s4 = symmetric_group(4)
    table = oracle.name_table(oracle.sym(4))
    a = data.draw(st.sampled_from(s4.elements))
    b = data.draw(st.sampled_from(s4.elements))
    assert s4.op(a, b) == oracle.name_of(oracle.mul(table[a], table[b]))


@given(st.data())
def test_inverse_cancels(data):
    s4 = symmetric_group(4)
    a = data.draw(st.sampled_from(s4.elements))
    assert s4.op(a, s4.inverse(a)) == "e"
    assert s4.op(s4.inverse(a), a) == "e"
