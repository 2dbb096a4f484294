"""Local cocycle data: generation, validation, the derived tower and the
second-layer relation, plus detection of injected corruption."""

import re

import pytest

from catbundle.errors import SchemaError
from catbundle.generation import generate_gerbal
from catbundle.gerbal import (
    GerbalCocycle,
    check_second_gerbe,
    derive_tower,
    validate_gerbal,
)
from catbundle.presets import build_instance, cover_line5w


def test_generated_data_validates_across_seeds(chain_s3):
    cover = cover_line5w()
    for seed in range(12):
        gc = generate_gerbal(chain_s3, cover, seed, noise=True)
        assert validate_gerbal(gc).ok
        assert check_second_gerbe(gc).ok


def test_generation_is_deterministic(chain_s3):
    cover = cover_line5w()
    a = generate_gerbal(chain_s3, cover, 42, noise=True)
    b = generate_gerbal(chain_s3, cover, 42, noise=True)
    assert a.h == b.h and a.j == b.j


def test_different_seeds_differ(chain_s3):
    cover = cover_line5w()
    a = generate_gerbal(chain_s3, cover, 1, noise=True)
    b = generate_gerbal(chain_s3, cover, 2, noise=True)
    assert a.h != b.h or a.j != b.j


def test_noise_off_gives_a_pure_coboundary(chain_s3):
    # without noise h_ik = f_i f_k^{-1}, so every triple discrepancy cancels
    # and the j table collapses to the identity
    cover = cover_line5w()
    gc = generate_gerbal(chain_s3, cover, 5, noise=False)
    assert validate_gerbal(gc).ok
    assert any(v != "e" for v in gc.h.values())
    assert all(v == "e" for v in gc.j.values())


def test_trivial_preset_ignores_noise_and_seed():
    a = build_instance("cycle6-trivial", 0, True)
    b = build_instance("cycle6-trivial", 9, False)
    assert a.gc.h == b.gc.h and a.gc.j == b.gc.j
    assert not a.noise and not b.noise


def test_diagonal_is_identity(inst_line5w):
    gc = inst_line5w.gc
    for i in gc.cover.index_order:
        for u in gc.cover.chart(i):
            assert gc.h[(i, i, u)] == "e"


def test_relation_holds_pointwise(inst_line5w):
    gc, chain = inst_line5w.gc, inst_line5w.chain
    for i, k, m in gc.cover.overlapping(3):
        for u in gc.cover.overlap((i, k, m)):
            lhs = gc.h[(i, m, u)]
            rhs = chain.H.op(chain.tau_p(gc.j[(i, k, m, u)]),
                             chain.H.op(gc.h[(i, k, u)], gc.h[(k, m, u)]))
            assert lhs == rhs


def test_corrupted_h_is_detected_with_witness(chain_s3):
    cover = cover_line5w()
    gc = generate_gerbal(chain_s3, cover, 7, noise=True)
    key = next(k for k in sorted(gc.h) if k[0] != k[1])
    h = {**gc.h, key: next(x for x in chain_s3.H.elements if x != gc.h[key])}
    rep = validate_gerbal(GerbalCocycle(chain_s3, cover, h, gc.j))
    assert not rep.ok
    witness = rep.failures()[0].witness
    assert witness and "h_" in witness


def test_corrupted_j_is_detected(chain_s3):
    cover = cover_line5w()
    gc = generate_gerbal(chain_s3, cover, 7, noise=True)
    key = next(iter(sorted(gc.j)))
    j = {**gc.j, key: next(x for x in chain_s3.J.elements if x != gc.j[key])}
    gc = GerbalCocycle(chain_s3, cover, gc.h, j)
    bad_primary = not validate_gerbal(gc).ok
    bad_second = not check_second_gerbe(gc).ok
    assert bad_primary or bad_second


def test_missing_entry_is_a_schema_error(chain_s3):
    cover = cover_line5w()
    gc = generate_gerbal(chain_s3, cover, 7, noise=True)
    h = dict(gc.h)
    key = next(iter(sorted(h)))
    del h[key]
    message = f"h table is missing entries, first: {key}"
    with pytest.raises(SchemaError, match=re.escape(message)):
        GerbalCocycle(chain_s3, cover, h, gc.j)


def test_out_of_group_value_is_a_schema_error(chain_s3):
    cover = cover_line5w()
    gc = generate_gerbal(chain_s3, cover, 7, noise=True)
    h = dict(gc.h)
    key = next(iter(sorted(h)))
    h[key] = "(12345)"
    with pytest.raises(SchemaError, match=re.escape(f"h{key} = '(12345)' is not in 'S3'")):
        GerbalCocycle(chain_s3, cover, h, gc.j)


def test_derived_tower_pushes_down(inst_line5w):
    gc, chain = inst_line5w.gc, inst_line5w.chain
    tower = derive_tower(gc)
    assert gc.tower == tower
    for (i, k, u), h in gc.h.items():
        assert tower.g[(i, k, u)] == chain.tau(h)
    for (i, k, m, u), j in gc.j.items():
        assert tower.h3[(i, k, m, u)] == chain.tau_p(j)


def test_second_gerbe_relation_holds(inst_line5w):
    gc = inst_line5w.gc
    assert check_second_gerbe(gc).ok


def test_required_index_tuples_on_line5():
    from catbundle.presets import cover_line5
    cover = cover_line5()
    pairs = cover.overlapping(2)
    assert ("1", "2") in pairs and ("2", "1") in pairs
    # (1,3) overlap on line5 is the single vertex 2, still a real pair
    assert ("1", "3") in pairs
    triples = cover.overlapping(3)
    assert ("1", "2", "3") in triples
    quads = cover.overlapping(4)
    # only three charts, so every quadruple repeats an index
    assert all(len({i, k, m, n}) <= 3 for i, k, m, n in quads)
