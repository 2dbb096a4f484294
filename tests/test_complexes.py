"""Covered base graphs and walk enumeration.

Walk counts are frozen against an adjacency-matrix power computed inline with
plain integer lists, so the recursive enumerator is checked by an unrelated
method.
"""

from itertools import combinations

import pytest

from catbundle.complexes import (
    CoverComplex,
    compose_paths,
    enumerate_paths,
)
from catbundle.errors import CompositionError, SchemaError
from catbundle.presets import cover_cycle6, cover_dirline3, cover_line5, cover_line5w


def count_walks_by_matrix(cover, length):
    """Total walks of exactly `length` steps, via adjacency matrix powers."""
    verts = sorted(cover.vertex_set)
    idx = {u: n for n, u in enumerate(verts)}
    n = len(verts)
    adj = [[0] * n for _ in range(n)]
    for _e, u, v in cover.edges:
        adj[idx[u]][idx[v]] += 1
        if not cover.directed:
            adj[idx[v]][idx[u]] += 1
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(length):
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(sum(row) for row in power)


def walks_of_exact_length(cover, region, length):
    return [p for p in enumerate_paths(cover, region, max_len=length)
            if len(p.steps) == length]


def test_line5_shape():
    c = cover_line5()
    assert sorted(c.vertex_set) == ["0", "1", "2", "3", "4"]
    assert len(c.edges) == 4
    assert c.cover["1"] == frozenset({"0", "1", "2"})
    assert c.cover["2"] == frozenset({"1", "2", "3"})
    assert c.cover["3"] == frozenset({"2", "3", "4"})
    assert not c.directed and c.identity_edges


def test_line5w_overlaps():
    c = cover_line5w()
    assert c.overlap(("1", "2")) == frozenset({"1", "2", "3"})
    assert c.overlap(("1", "2", "3")) == frozenset({"1", "2", "3"})
    assert c.overlap(("3",)) == c.vertex_set


def test_overlapping_lists_the_nonempty_tuples_in_product_order():
    c = cover_line5()
    assert c.overlapping(1) == [("1",), ("2",), ("3",)]
    assert c.overlapping(2) == [(i, k) for i in "123" for k in "123"]
    assert ("1", "3", "1") in c.overlapping(3)
    # charts 1 and 3 of a three-vertex line share no vertex
    line3 = CoverComplex(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")],
                         {"1": ["0", "1"], "2": ["1", "2"], "3": ["2"]}, ["1", "2", "3"])
    assert line3.overlapping(2) == [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"),
                                    ("2", "3"), ("3", "2"), ("3", "3")]
    assert ("1", "2", "3") not in line3.overlapping(3)


@pytest.mark.parametrize("indices", [("1", "9"), ("9",), ()])
def test_bad_overlaps_raise_on_every_call_and_are_not_cached(indices):
    c = cover_line5()
    c.overlap(("1", "2"))
    size = c.overlap.cache_info().currsize
    for _ in range(2):
        with pytest.raises(SchemaError):
            c.overlap(indices)
    assert c.overlap.cache_info().currsize == size


@pytest.mark.parametrize("build", [cover_line5, cover_line5w, cover_cycle6, cover_dirline3])
def test_reachable_pairs_are_the_endpoints_of_the_walks_inside_each_overlap(build):
    # a walk longer than the overlap's vertex count joins no new pair
    c = build()
    for r in (1, 2, 3):
        for t in c.overlapping(r):
            walks = enumerate_paths(c, t, max_len=len(c.overlap(t)))
            assert c.reachable(t) == tuple(sorted({(w.start, w.end) for w in walks}))


def test_reachable_goes_forward_only_on_a_directed_base():
    c = cover_dirline3()
    assert c.reachable(("1",)) == (("0", "0"), ("0", "1"), ("0", "2"),
                                   ("1", "1"), ("1", "2"), ("2", "2"))
    for t in c.overlapping(2):
        pairs = c.reachable(t)
        assert all((u, u) in pairs for u in c.overlap(t))
        assert all(u0 <= u1 for u0, u1 in pairs)


def test_reachable_is_computed_once_per_index_tuple():
    c = cover_line5w()
    for _ in range(2):
        for t in c.overlapping(2):
            c.reachable(t)
    info = c.reachable.cache_info()
    assert info.currsize == info.misses == len(c.overlapping(2))


@pytest.mark.parametrize("indices", [("1", "nope"), ()])
def test_reachable_refuses_an_unknown_chart_and_caches_nothing(indices):
    c = cover_line5()
    c.reachable(("1", "2"))
    for _ in range(2):
        with pytest.raises(SchemaError):
            c.reachable(indices)
    assert c.reachable.cache_info().currsize == 1


def test_cycle6_charts_cover_all_arcs():
    c = cover_cycle6()
    assert len(c.vertices) == 6
    assert len(c.edges) == 6
    for _e, u, v in c.edges:
        assert any({u, v} <= us for us in c.cover.values())


def test_dirline3_is_directed_without_identity_edges():
    c = cover_dirline3()
    assert c.directed and not c.identity_edges
    # no backward step exists from vertex 1
    assert all(o == 1 for _e, o, _v in c.steps_from("1"))


def test_enumerate_paths_triple_overlap_maxlen2_is_identity_only():
    # the triple overlap of line5 is the single vertex 2; with no room to
    # leave and return, only the identity walk fits
    c = cover_line5()
    paths = enumerate_paths(c, ["1", "2", "3"], max_len=2)
    assert [(p.start, p.steps) for p in paths] == [("2", ())]


def test_enumerate_paths_single_chart_maxlen1_frozen():
    c = cover_line5()
    paths = enumerate_paths(c, ["1"], max_len=1)
    got = {(p.start, p.steps) for p in paths}
    want = {
        ("0", ()), ("1", ()), ("2", ()),
        ("0", (("e01", 1),)), ("1", (("e01", -1),)),
        ("1", (("e12", 1),)), ("2", (("e12", -1),)),
    }
    assert got == want


def test_enumerate_paths_maxlen0_is_identities():
    c = cover_line5()
    paths = enumerate_paths(c, ["2"], max_len=0)
    assert {(p.start, p.steps) for p in paths} == {("1", ()), ("2", ()), ("3", ())}


@pytest.mark.parametrize("builder", [cover_line5, cover_line5w, cover_cycle6,
                                     cover_dirline3])
def test_enumerate_paths_lists_walks_by_length_then_start_then_steps(builder):
    # no sort runs past the zero-step walks: the order comes from extending
    # each sorted layer in order by the sorted steps out of each end
    c = builder()
    for r in range(1, len(c.index_order) + 1):
        for indices in combinations(c.index_order, r):
            if not c.overlap(indices):
                continue
            for max_len in range(5):
                order = [(len(p.steps), p.start, p.steps)
                         for p in enumerate_paths(c, indices, max_len)]
                assert order == sorted(set(order)), (indices, max_len)


@pytest.mark.parametrize("builder", [cover_line5, cover_line5w, cover_cycle6,
                                     cover_dirline3])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_walk_counts_match_matrix_powers(builder, length):
    c = builder()
    frontier = [(u,) for u in c.vertex_set]
    for _ in range(length):
        frontier = [path + (v,) for path in frontier
                    for _e, _o, v in c.steps_from(path[-1])]
    assert len(frontier) == count_walks_by_matrix(c, length)


def test_single_chart_walks_agree_with_full_chart_matrix():
    # within a chart covering the whole graph, the enumerator itself must
    # reproduce the matrix count at exact lengths
    c = cover_line5w()
    for length in (1, 2, 3):
        walks = walks_of_exact_length(c, ["3"], length)
        assert len(walks) == count_walks_by_matrix(c, length)


def test_compose_paths_concatenates():
    c = cover_line5()
    p1 = c.walk("0", [("e01", 1)])
    p2 = c.walk("1", [("e12", 1), ("e12", -1)])
    out = compose_paths(c, p2, p1)
    assert out.start == "0" and out.end == "1"
    assert out.steps == (("e01", 1), ("e12", 1), ("e12", -1))
    assert out.visited == ("0", "1", "2", "1")


def test_compose_paths_rejects_gap():
    c = cover_line5()
    p1 = c.walk("0", [("e01", 1)])
    p2 = c.walk("2", [("e23", 1)])
    with pytest.raises(CompositionError):
        compose_paths(c, p2, p1)


def test_walk_validation_rejects_wrong_start():
    c = cover_line5()
    with pytest.raises(SchemaError):
        c.walk("0", [("e12", 1)])


def test_walk_validation_rejects_backward_step_on_directed():
    c = cover_dirline3()
    with pytest.raises(SchemaError):
        c.walk("1", [("e01", -1)])


def test_cover_requires_every_vertex_covered():
    with pytest.raises(SchemaError):
        CoverComplex(
            ["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")],
            {"1": ["0", "1"]}, ["1"],
        )


def test_cover_requires_edges_inside_some_chart():
    with pytest.raises(SchemaError):
        CoverComplex(
            ["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")],
            {"1": ["0", "1"], "2": ["2"]}, ["1", "2"],
        )


def test_smallest_chart_follows_index_order():
    c = cover_line5()
    assert c.smallest_chart("2") == "1"
    assert c.smallest_chart("4") == "3"
    assert c.charts_containing(["2"]) == ["1", "2", "3"]


def test_an_unknown_vertex_or_edge_is_named():
    c = cover_line5()
    for call, message in ((lambda: c.identity_walk("9"), "unknown vertex '9'"),
                          (lambda: c.walk("9", []), "unknown vertex '9'"),
                          (lambda: c.walk("0", [("e09", 1)]), "unknown edge 'e09'"),
                          (lambda: c.smallest_chart("9"), "unknown vertex '9'")):
        with pytest.raises(SchemaError, match=f"^cover complex: {message}$"):
            call()
