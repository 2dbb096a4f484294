"""The glued total space: objects, decorated chains, the normal form behind
morphism equality, lifts, and local trivializations."""

import json
import re
from collections import Counter
from functools import cache

import pytest

from catbundle import battery
from catbundle.battery import (
    LocalTrivialization,
    check_bundle_axioms,
    enumerate_chains,
    fold_layers,
)
from catbundle.bundle import BundleMorphism, BundleObject, BundleSpace, QuiverEdge
from catbundle.cli import main
from catbundle.complexes import CoverComplex, PathMor, enumerate_paths
from catbundle.errors import (
    CompositionError,
    DomainError,
    PreconditionError,
    SchemaError,
)
from catbundle.generation import generate_gerbal, instance_to_json
from catbundle.gerbal import GerbalCocycle
from catbundle.presets import (
    build_instance,
    cover_cycle6,
    cover_dirline3,
    cover_line5,
    cover_line5w,
    s3_chain,
    s4_chain,
)
from catbundle.report import Report
from catbundle.schema import Instance
from catbundle.suites import InstanceContext, run_suite
from action_laws_reference import action_law_witnesses, unitwise_action
from conftest import a3j3_chain, s4v4z2_chain
from normal_form_reference import compact, reference_key
from rewrite_reference import RewriteReference
from trivialization_reference import (
    MultiChartTrivialization,
    index_family,
    multi_chart_report,
    multi_chart_sets,
    paired_verdicts,
)


def one_step(space, chart, charts, start, step, phi):
    walk = space.cover.walk(start, [step])
    return BundleMorphism.chain([QuiverEdge(chart, tuple(charts), walk, phi)])


def neutral_chain(space, x):
    """The identity morphism at a canonical object x."""
    return space.to_chain((space.neutral_unit(x),))


def compose(first, second):
    """Diagrammatic: first, then second, as one chain."""
    return BundleMorphism.chain(first.edges + second.edges)


def act(space, m, psi):
    """The right action on a chain: `act_state` on its units, rechained."""
    return space.to_chain(space.act_state(space.unit_split(m), psi))


def test_object_count_line5w(space_line5w):
    # 5 vertices, 2 fiber object cosets
    assert len(space_line5w.objects_all()) == 10


def test_object_count_formula(space_line5):
    space = space_line5
    want = len(space.cover.vertex_set) * len(space.q.objects.reps)
    assert len(space.objects_all()) == want == 10


def test_canonical_obj_lands_in_smallest_chart(space_line5):
    space = space_line5
    for fiber in space.q.objects.reps:
        x = space.canonical_obj("2", "2", fiber)
        assert x.chart == "1"
        # already-canonical objects are fixed points
        y = space.canonical_obj(x.chart, x.vertex, x.fiber)
        assert y == x


def test_canonical_obj_respects_glue(space_line5):
    space, q = space_line5, space_line5.q
    for fiber in q.objects.reps:
        via_2 = space.canonical_obj("2", "2", fiber)
        transported = q.obj_product(space.gbar("1", "2", "2"), fiber)
        via_1 = space.canonical_obj("1", "2", transported)
        assert via_2 == via_1


def test_glue_relation_report(space_line5w):
    rep = space_line5w.check_glue_relation()
    assert rep.ok, rep.failures()


def faulty_canonical_objs(space):
    """Two faulty `canonical_obj`s: one that forgets the transport to the
    smallest chart, one that sends every triple to the first vertex."""
    rep_of = space.q.objects.rep
    v0 = sorted(space.cover.vertex_set)[0]
    i0 = space.cover.smallest_chart(v0)
    return {
        "no_transport": lambda i, u, f: BundleObject(i, u, rep_of(f)),
        "one_vertex": lambda i, u, f: BundleObject(i0, v0, rep_of(f)),
    }


@pytest.mark.parametrize("plant,fails", [
    ("no_transport", "bundle.objects.count"),
    ("one_vertex", "bundle.proj.obj_surjective"),
])
def test_object_checks_fail_on_a_planted_canonical_obj(space_line5, monkeypatch,
                                                       plant, fails):
    monkeypatch.setattr(space_line5, "canonical_obj", faulty_canonical_objs(space_line5)[plant])
    status = {c.check_id: c.status for c in space_line5.check_glue_relation().checks}
    assert status[fails] == "fail"


def test_act_obj_is_a_free_right_action(space_line5):
    space, q = space_line5, space_line5.q
    for x in space.objects_all():
        for a in q.objects.reps:
            y = space.act_obj(x, a)
            assert y.vertex == x.vertex and y.chart == x.chart
            if y == x:
                assert a == q.identity_obj()
            for b in q.objects.reps:
                assert space.act_obj(y, b) == \
                    space.act_obj(x, q.obj_product(a, b))


def faulty_act_objs(space):
    """Two faulty `act_obj`s: one moves every object to the previous vertex,
    one fixes every object under the first object coset off the identity."""
    act_obj, fixer = space.act_obj, moving_obj(space)
    verts = sorted(space.cover.vertex_set)
    return {
        "off_vertex": lambda x, a: act_obj(x, a)._replace(
            vertex=verts[verts.index(x.vertex) - 1]),
        "fixed": lambda x, a: x if a == fixer else act_obj(x, a),
    }


def moving_obj(space):
    return next(a for a in space.q.objects.reps if a != space.q.identity_obj())


@pytest.mark.parametrize("plant,witness", [
    ("off_vertex", "action by {a} moved {x} off its vertex"),
    ("fixed", "object action by {fixer} is not free at {x}"),
])
def test_object_action_plants_fail_obj_free(inst_line5, monkeypatch, plant, witness):
    space = fresh_space(inst_line5)
    monkeypatch.setattr(space, "act_obj", faulty_act_objs(space)[plant])
    failed = {c.check_id: c.witness for c in check_bundle_axioms(space, 1).failures()}
    assert failed == {"bundle.action.obj_free": witness.format(
        a=space.q.objects.reps[0], fixer=moving_obj(space), x=space.objects_all()[0])}


def test_neutral_chain_is_a_two_sided_unit(space_line5):
    space, q = space_line5, space_line5.q
    m = one_step(space, "1", ("1",), "1", ("e12", 1), q.morphisms.reps[2])
    s, t = space.mor_endpoints(m)
    assert space.mor_equal(compose(neutral_chain(space, s), m), m)
    assert space.mor_equal(compose(m, neutral_chain(space, t)), m)
    # vertex 2 lies in charts 1 and 2: the neutral edge of either is the identity
    x = space.canonical_obj("2", "2", q.identity_obj())
    fiber = q.obj_product(space.gbar("2", x.chart, "2"), x.fiber)
    edge = QuiverEdge("2", ("2",), space.cover.identity_walk("2"),
                      q.identity_mor_at(fiber))
    assert x.chart != "2"
    assert space.mor_equal(neutral_chain(space, x), BundleMorphism.chain([edge]))


@pytest.mark.parametrize("first", [False, True])
def test_thetabar_refuses_a_walk_leaving_the_overlap_in_either_order(first):
    # the walk 1 2 3 2 1 ends where the identity walk at 1 does, but vertex 3
    # is outside chart 1, so a memo keyed by its endpoints alone would return
    # the identity walk's value
    space = fresh_space(build_instance("s3-line5", 7, True))
    cover = space.cover
    walk = cover.walk("1", [("e12", 1), ("e23", 1), ("e23", -1), ("e12", -1)])
    assert "3" not in cover.chart("1")
    if first:
        space.thetabar("1", "2", cover.identity_walk("1"))
    for _ in range(2):
        with pytest.raises(DomainError, match="leaves the overlap"):
            space.thetabar("1", "2", walk)


def test_single_edge_equals_its_reindexing(space_line5):
    space, q = space_line5, space_line5.q
    walk = space.cover.walk("1", [("e12", 1)])
    for phi in q.morphisms.reps:
        m1 = one_step(space, "1", ("1",), "1", ("e12", 1), phi)
        moved = q.mor_product(space.thetabar("2", "1", walk), phi)
        m2 = one_step(space, "2", ("2",), "1", ("e12", 1), moved)
        assert space.mor_equal(m1, m2)
        assert space.mor_equal(m2, m1)


def test_distinct_decorations_stay_distinct(space_line5):
    space, q = space_line5, space_line5.q
    reps = q.morphisms.reps
    m1 = one_step(space, "1", ("1",), "1", ("e12", 1), reps[0])
    m2 = one_step(space, "1", ("1",), "1", ("e12", 1), reps[1])
    assert not space.mor_equal(m1, m2)


def test_walk_mismatch_short_circuits(space_line5):
    space, q = space_line5, space_line5.q
    phi = q.morphisms.reps[0]
    m1 = one_step(space, "1", ("1",), "1", ("e12", 1), phi)
    m2 = one_step(space, "1", ("1",), "1", ("e01", -1), phi)
    assert not space.mor_equal(m1, m2)


def test_act_state_keeps_the_projection(space_line5):
    space, q = space_line5, space_line5.q
    m = one_step(space, "1", ("1",), "0", ("e01", 1), q.morphisms.reps[2])
    for psi in q.morphisms.reps:
        acted = act(space, m, psi)
        assert space.project(acted).steps == space.project(m).steps


def test_act_state_on_neutral_chain_roundtrip(space_line5):
    space, q = space_line5, space_line5.q
    identity = neutral_chain(space, space.canonical_obj("1", "0", q.identity_obj()))
    for psi in q.morphisms.reps:
        acted = act(space, identity, psi)
        back = act(space, acted, q.mor_inverse(psi))
        assert space.mor_equal(back, identity)


def test_act_state_by_identity_fixes(space_line5):
    space, q = space_line5, space_line5.q
    m = one_step(space, "1", ("1",), "1", ("e12", 1), q.morphisms.reps[1])
    unit = q.identity_mor_at(q.identity_obj())
    assert space.mor_equal(act(space, m, unit), m)


def test_concatenation_requires_matching_endpoints(space_line5):
    space, q = space_line5, space_line5.q
    phi = q.morphisms.reps[0]
    m1 = one_step(space, "1", ("1",), "0", ("e01", 1), phi)
    m2 = one_step(space, "1", ("1",), "0", ("e01", 1), phi)
    assert space.mor_endpoints(m2)[0] != space.mor_endpoints(m1)[1]
    with pytest.raises(CompositionError):
        space.mor_endpoints(compose(m1, m2))
    assert space.composed_key(space.unit_split(m1) + space.unit_split(m2)) is None


def test_concatenation_composes_walks(space_line5):
    space, q = space_line5, space_line5.q
    m1 = one_step(space, "1", ("1",), "0", ("e01", 1),
                  q.identity_mor_at(q.identity_obj()))
    t = space.mor_endpoints(m1)[1]
    m2 = one_step(space, "1", ("1",), "1", ("e12", 1),
                  q.identity_mor_at(t.fiber))
    out = compose(m1, m2)
    assert space.project(out).steps == (("e01", 1), ("e12", 1))
    assert space.mor_key(out) == \
        space.composed_key(space.unit_split(m1) + space.unit_split(m2))


def test_lift_walk_projects_back(space_line5):
    space = space_line5
    for steps in ([("e01", 1)], [("e01", 1), ("e12", 1)],
                  [("e12", 1), ("e12", -1)]):
        walk = space.cover.walk("0" if steps[0][0] == "e01" else "1", steps)
        got = space.project(space.lift_walk(walk))
        assert (got.start, got.steps) == (walk.start, walk.steps)


def test_lift_identity_walk_is_the_neutral_chain(space_line5):
    space = space_line5
    m = space.lift_walk(space.cover.identity_walk("2"))
    # the identity fiber coset in the smallest chart holding the vertex
    x = space.canonical_obj(space.cover.smallest_chart("2"), "2", space.q.identity_obj())
    assert x.fiber == space.q.identity_obj()
    assert m == neutral_chain(space, x)


def test_unit_split_then_compact_is_walk_length(space_line5w):
    space, q = space_line5w, space_line5w.q
    for st in enumerate_chains(space, 2, frozenset({"1", "2", "3"}))[:400]:
        m = space.to_chain(st)
        compacted = compact(space, space.unit_split(m))
        walk = space.project(m)
        assert len(compacted) == max(1, len(walk.steps))
        assert space._walk_sig(compacted) == space._walk_sig(st)


def test_zero_length_edges_rejected_on_directed_base(space_dirline3):
    space, q = space_dirline3, space_dirline3.q
    edge = QuiverEdge("1", ("1",), space.cover.identity_walk("1"),
                      q.identity_mor_at(q.identity_obj()))
    with pytest.raises(SchemaError):
        space.validate_edge(edge)


def test_empty_chain_rejected():
    with pytest.raises(SchemaError):
        BundleMorphism.chain([])


def test_corrupted_data_fails_precondition(chain_s3):
    cover = cover_line5w()
    gc = generate_gerbal(chain_s3, cover, 7, noise=True)
    key = next(k for k in sorted(gc.h) if k[0] != k[1])
    h = {**gc.h, key: next(x for x in chain_s3.H.elements if x != gc.h[key])}
    inst = Instance("s3-line5w", 7, True, chain_s3, cover,
                    GerbalCocycle(chain_s3, cover, h, gc.j))
    space, pre = InstanceContext(inst, 2).space
    assert space is None
    failed = {c.check_id for c in pre.failures()}
    assert {"gerbal.relation", "classical.object"} <= failed


def test_trivialization_needs_identity_edges(space_dirline3):
    with pytest.raises(PreconditionError):
        LocalTrivialization(space_dirline3, "1")
    with pytest.raises(PreconditionError):
        MultiChartTrivialization(space_dirline3, "1", ("1",))


def test_trivialization_checks_pass_on_line5(space_line5):
    triv = MultiChartTrivialization(space_line5, "1", ("1", "2"))
    rep = triv.check(max_len=2, max_units=2)
    assert rep.ok, rep.failures()
    rep = LocalTrivialization(space_line5, "1").check(max_len=2, max_units=2)
    assert rep.ok, rep.failures()


def test_trivialization_on_pair_identity_case(space_line5):
    space, q = space_line5, space_line5.q
    triv = LocalTrivialization(space_line5, "2")
    m = triv.on_pair(space.cover.identity_walk("2"),
                     q.identity_mor_at(q.identity_obj()))
    x = triv.on_object("2", q.identity_obj())
    assert space.mor_endpoints(m) == (x, x)
    assert space.mor_equal(m, neutral_chain(space, x))


def test_bundle_axioms_on_line5(space_line5):
    rep = check_bundle_axioms(space_line5, max_len=2)
    assert rep.ok, rep.failures()
    ids = {c.check_id for c in rep.checks}
    assert "bundle.proj.obj_surjective" in ids
    assert "bundle.action.obj_free" in ids
    assert "bundle.compose.representative_free" in ids
    assert "bundle.mor.torsor" in ids


def test_bundle_axioms_on_cycle6(space_cycle6):
    # charts 1 = {0,1,2} and 3 = {0,4,5} meet only in vertex 0
    rep = check_bundle_axioms(space_cycle6, max_len=2)
    assert rep.ok, rep.failures()
    assert "bundle.mor.torsor" in {c.check_id for c in rep.checks}


def class_pair_composites(space):
    """For each composable pair of the battery's classes of bounded two-unit
    states, each member keyed through its compaction: the number of member
    pairs and the set of their composites' keys."""
    classes: dict[tuple, dict] = {}
    for st in enumerate_chains(space, 2):
        compacted = (space._merge_units(*st),) if len(st) == 2 and "v" in (
            st[0][1][0], st[1][1][0]) else st
        classes.setdefault(space.state_key(compacted), {})[compacted] = None
    by_source: dict[BundleObject, list] = {}
    for (ends, _key), members in classes.items():
        by_source.setdefault(ends[0], []).append(members)
    for ((_s, t), _key), members1 in classes.items():
        for members2 in by_source.get(t, ()):
            yield len(members1) * len(members2), {
                space.composed_key(m1 + m2) for m1 in members1 for m2 in members2}


@pytest.mark.parametrize("name,max_len", [("s3-line5", 3), ("cycle6-trivial", 4),
                                          ("inst_a3j3_cycle6", 3), ("inst_a3j3_dirline3", 3)])
def test_composition_is_representative_free_on_every_pair_of_classes(request, name, max_len):
    # `bundle.compose.representative_free` samples these composites; here
    # every member of a class meets every member of every composable class
    inst = request.getfixturevalue(name) if name.startswith("inst_") \
        else build_instance(name, 5, True)
    space, pre = InstanceContext(inst, max_len).space
    assert pre.ok, pre.first_witness()
    pairs = list(class_pair_composites(space))
    for _n, keys in pairs:
        assert None not in keys and len(keys) == 1, keys
    assert sum(n for n, _keys in pairs) > len(pairs)


def test_a_key_that_reads_the_representative_passes_the_sample_not_every_pair():
    # keys of three or more units that read the charts of the representative:
    # no pair the battery samples composes a member whose second unit left
    # the first unit's chart
    space = fresh_space(build_instance("s3-line5", 5, True))
    component_of = space.component_of

    def planted(state):
        key = component_of(state)
        return key + ("moved",) if len(state) > 2 and state[1][0] != state[0][0] else key
    space.component_of = planted
    rep = check_bundle_axioms(space, 3)
    assert rep.ok, rep.failures()
    assert any(len(keys) > 1 for _n, keys in class_pair_composites(space))


def test_folds_across_a_vertex_without_common_chart_are_equal(space_cycle6):
    # no chart holds both e01 backwards and e50 backwards; folding the
    # neutral-step unit at vertex 0 left or right must give one morphism
    space = space_cycle6
    middle = (("1", ("e", "e01", -1), "((123),(12))"),
              ("1", ("v", "0"), "((12),(12))"),
              ("3", ("e", "e50", -1), "((12),(123))"))
    left = (("1", ("e", "e01", -1), "((12),(12))"),
            ("3", ("e", "e50", -1), "((12),(123))"))
    right = (("1", ("e", "e01", -1), "((123),(12))"),
             ("3", ("e", "e50", -1), "((123),(12))"))
    m, ml, mr = (space.to_chain(st) for st in (middle, left, right))
    assert space.mor_equal(ml, mr)
    assert space.mor_equal(m, ml) and space.mor_equal(m, mr)


def flipped(cover, **flags):
    """`cover` with its `directed` or `identity_edges` flag set anew."""
    flags = {"directed": cover.directed, "identity_edges": cover.identity_edges, **flags}
    return CoverComplex(cover.vertices, cover.edges, cover.cover, cover.index_order, **flags)


SWEEP_COVERS = {
    "line5": cover_line5,
    "line5w": cover_line5w,
    "cycle6": cover_cycle6,
    "dirline3": cover_dirline3,
    "line5-noid": lambda: flipped(cover_line5(), identity_edges=False),
    "line5w-noid": lambda: flipped(cover_line5w(), identity_edges=False),
    "cycle6-noid": lambda: flipped(cover_cycle6(), identity_edges=False),
    "dirline3-undirected": lambda: flipped(cover_dirline3(), directed=False),
}
SWEEP_CHAINS = {name: cache(build) for name, build in [
    ("s3", s3_chain), ("s4", s4_chain), ("a3j3", a3j3_chain), ("s4v4z2", s4v4z2_chain)]}
# with zero-length edges the line covers hold 14,000 to 118,000 reference
# chains on the larger fibers, seconds each, so they run on S3 alone; the
# cycle runs on every chain but S4. Entries are (chain, cover, cocycle seed,
# trivial cocycle); at seed 3 with noise the S3 cycle pairs its chart-free
# junction at vertex 0 with thetabar_13 != identity, and the S3 cycle also
# runs under the trivial cocycle
SMALL_COVERS = ["dirline3", "line5-noid", "line5w-noid", "cycle6-noid", "dirline3-undirected"]
SWEEP = ([("s3", cover, 3, False) for cover in SWEEP_COVERS if cover != "line5w"]
         + [("s3", "line5w", 7, False), ("s3", "cycle6", 1, True)]
         + [(chain, cover, 3, False) for chain in ("a3j3", "s4", "s4v4z2")
            for cover in SMALL_COVERS]
         + [("a3j3", "cycle6", 3, False), ("s4v4z2", "cycle6", 3, False)])


@pytest.mark.parametrize("chain,cover,seed,trivial", SWEEP, ids=[
    f"{c}-{v}" + (seed != 3) * f"-seed{seed}" + trivial * "-trivial" for c, v, seed, trivial in SWEEP])
def test_rewrite_reference_partition_matches_mor_equal(chain, cover, seed, trivial):
    # each reference class has one full key and each key one class, over the
    # reference's whole universe
    chain, cover = SWEEP_CHAINS[chain](), SWEEP_COVERS[cover]()
    gc = generate_gerbal(chain, cover, seed, noise=not trivial, trivial=trivial)
    space = fresh_space(Instance("sweep", seed, not trivial, chain, cover, gc))
    ref = RewriteReference(space)
    pairs = {(ref.class_of(c), space.mor_key(space.to_chain(c))) for c in ref.chains}
    assert len({c for c, _ in pairs}) == len({k for _, k in pairs}) == len(pairs)


# ----- each edge is validated once per space, errors are never cached --------

def fresh_space(inst):
    space, pre = InstanceContext(inst, 2).space
    assert pre.ok, pre.first_witness()
    return space


def test_invalid_edge_raises_on_every_call(inst_line5):
    space = fresh_space(inst_line5)
    q = space.q
    phi = q.identity_mor_at(q.identity_obj())
    for step in (("e01", 1), ("e12", 1)):
        edge = QuiverEdge("1", ("1",), space.cover.walk(step[0][1], [step]), phi)
        assert space.edge_endpoints(edge) == space.edge_endpoints(edge)
    # e23 leaves chart 1 = {0, 1, 2}
    bad = QuiverEdge("1", ("1",), space.cover.walk("2", [("e23", 1)]), phi)
    for _ in range(2):
        with pytest.raises(SchemaError):
            space.edge_endpoints(bad)


def test_cached_edge_does_not_vouch_for_a_forged_twin(inst_line5):
    # a twin whose walk differs only in `visited`, which validation reads
    space = fresh_space(inst_line5)
    q = space.q
    phi = q.identity_mor_at(q.identity_obj())
    walk = space.cover.walk("0", [("e01", 1)])
    edge = QuiverEdge("1", ("1",), walk, phi)
    space.edge_endpoints(edge)
    forged = edge._replace(walk=PathMor(walk.start, walk.steps, ("0", "4")))
    # its own memo key: edges compare through all their walks' fields
    assert forged != edge
    with pytest.raises(SchemaError):
        space.edge_endpoints(forged)


def test_forged_twin_raises_on_every_call_and_is_never_memoized(inst_line5):
    space = fresh_space(inst_line5)
    q = space.q
    walk = space.cover.walk("0", [("e01", 1)])
    edge = QuiverEdge("1", ("1",), walk, q.identity_mor_at(q.identity_obj()))
    space.edge_endpoints(edge)
    size = space.edge_endpoints.cache_info().currsize
    forged = edge._replace(walk=PathMor(walk.start, walk.steps, ("0", "4")))
    for _ in range(2):
        with pytest.raises(SchemaError):
            space.edge_endpoints(forged)
        assert space.edge_endpoints.cache_info().currsize == size


def test_chain_of_cached_edges_still_checks_junctions(inst_line5):
    space = fresh_space(inst_line5)
    q = space.q
    phi = q.identity_mor_at(q.identity_obj())
    e1 = QuiverEdge("1", ("1",), space.cover.walk("0", [("e01", 1)]), phi)
    elsewhere = next(r for r in q.morphisms.reps if q.source[r] != q.target[phi])
    e2 = QuiverEdge("1", ("1",), space.cover.walk("1", [("e12", 1)]), elsewhere)
    t1, s2 = space.edge_endpoints(e1)[1], space.edge_endpoints(e2)[0]
    assert t1 != s2
    broken = BundleMorphism.chain([e1, e2])
    with pytest.raises(CompositionError):
        space.mor_endpoints(broken)
    ok = BundleMorphism.chain([e1])
    for first, second in ((broken, ok), (ok, broken)):
        with pytest.raises(CompositionError):
            space.mor_endpoints(compose(first, second))
        assert space.composed_key(space.unit_split(first) + space.unit_split(second)) is None


def test_mor_key_names_an_edge_outside_its_charts_or_cosets(inst_line5):
    # chart 2 is not in the edge's index set, and no coset has the rep "zz"
    space = fresh_space(inst_line5)
    phi = space.q.identity_mor_at(space.q.identity_obj())
    edge = QuiverEdge("1", ("1",), space.cover.walk("0", [("e01", 1)]), phi)
    for bad, message in ((edge._replace(chart="2"), "edge chart '2' is not in its index set "
                                                    "('1',)"),
                         (edge._replace(phi="zz"), "edge decoration 'zz' is not a morphism "
                                                   "coset rep")):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            space.mor_key(BundleMorphism.chain([bad]))


def test_canonical_obj_names_a_vertex_outside_its_chart(inst_line5):
    # chart 1 = {0, 1, 2}
    space = fresh_space(inst_line5)
    with pytest.raises(SchemaError, match="^vertex '4' is not in chart '1'$"):
        space.canonical_obj("1", "4", space.q.identity_obj())


def test_edge_whose_visited_vertices_disagree_with_its_steps_is_rejected(inst_line5):
    # e01 ends at vertex 1, not 2, though chart 1 = {0, 1, 2} holds both
    space = fresh_space(inst_line5)
    phi = space.q.identity_mor_at(space.q.identity_obj())
    forged = QuiverEdge("1", ("1",), PathMor("0", (("e01", 1),), ("0", "2")), phi)
    with pytest.raises(SchemaError):
        space.edge_endpoints(forged)


def test_mor_equal_validates_both_arguments_whatever_the_other_walk(inst_line5):
    # an invalid chain raises from either side, also against a morphism over
    # another walk, where comparing walks first would answer False unchecked
    space = fresh_space(inst_line5)
    q = space.q
    phi = q.identity_mor_at(q.identity_obj())
    e1 = QuiverEdge("1", ("1",), space.cover.walk("0", [("e01", 1)]), phi)
    elsewhere = next(r for r in q.morphisms.reps if q.source[r] != q.target[phi])
    e2 = QuiverEdge("1", ("1",), space.cover.walk("1", [("e12", 1)]), elsewhere)
    broken = BundleMorphism.chain([e1, e2])
    forged = BundleMorphism.chain(
        [QuiverEdge("1", ("1",), PathMor("0", (("e01", 1),), ("0", "2")), phi)])
    lifted = space.lift_walk(space.cover.walk("0", [("e01", 1), ("e12", 1)]))
    others = [lifted, BundleMorphism.chain([e1]),
              neutral_chain(space, space.objects_all()[0])]
    for bad, error in ((broken, CompositionError), (forged, SchemaError)):
        for other in others + [bad]:
            with pytest.raises(error):
                space.mor_equal(bad, other)
            with pytest.raises(error):
                space.mor_equal(other, bad)


def test_fold_layers_name_each_layer_state_by_its_first_chain_in_order(space_line5):
    # 3-unit chains, so the layers extend states that were extended
    # themselves; the distinct layer states reach the (walk, chart-1 coset,
    # key) of every chain and of nothing else, and each yield carries a chain
    # whose own triple it is, in the order `enumerate_chains` lists them
    space, q = space_line5, space_line5.q
    triv = MultiChartTrivialization(space, "1", ("1", "2"))
    chains = enumerate_chains(space, 3, triv.region)
    assert Counter(map(len, chains))[3] > 1000
    per_chain = {}
    for st in chains:
        total = space._move_unit("1", st[0])
        for unit in st[1:]:
            total = q.compose_of(space._move_unit("1", unit), total)
        m = space.to_chain(st)
        walk = space.project(m)
        assert space.mor_equal(m, triv.on_pair(walk, total))
        per_chain[st] = ((walk.start, walk.steps), total, space.mor_key(m))
    layered = list(fold_layers(space, "1", triv.region, 3))
    assert {item[:3] for item in layered} == set(per_chain.values())
    assert len(layered) < len(chains)
    assert all(item[:3] == per_chain[item[3]] for item in layered)
    position = {st: n for n, st in enumerate(chains)}
    order = [position[item[3]] for item in layered]
    assert order == sorted(set(order))


def test_trivialization_state_keys_are_the_chain_keys(space_line5):
    # the functorial and equivariant checks key unit states; each key must be
    # the key of the composed or acted chain
    space, q = space_line5, space_line5.q
    mreps = q.morphisms.reps
    for indices in index_family(space.cover):
        walks = enumerate_paths(space.cover, indices, 2)
        for i in indices:
            triv = (LocalTrivialization(space, i) if len(indices) == 1
                    else MultiChartTrivialization(space, i, indices))
            for w1 in walks:
                for m1 in mreps:
                    f = triv.on_pair(w1, m1)
                    s1 = space.unit_split(f)
                    for psi in mreps:
                        assert space.state_key(space.act_state(s1, psi)) == \
                            space.mor_key(act(space, f, psi))
                    for w2 in walks:
                        if w1.end != w2.start or len(w1.steps) + len(w2.steps) > 2:
                            continue
                        for m2 in q.mors_with_source(q.target[m1]):
                            g = triv.on_pair(w2, m2)
                            assert space.composed_key(s1 + space.unit_split(g)) == \
                                space.mor_key(compose(f, g))


def test_an_action_that_does_nothing_fails_the_equivariance_checks(inst_line5, monkeypatch):
    space = fresh_space(inst_line5)
    monkeypatch.setattr(space, "act_state", lambda state, psi: state)
    failed = {c.check_id for c in check_bundle_axioms(space, 2).failures()}
    failed |= {c.check_id for c in multi_chart_report(space, 2).failures()}
    equivariant = {f"triv.{i}.{''.join(indices)}.equivariant"
                   for indices in index_family(space.cover) for i in indices}
    assert "bundle.action.mor_free" in failed
    assert equivariant <= failed


def test_a_broken_on_pair_fails_composition_at_the_junction(inst_line5, monkeypatch):
    # the image of every 2-step walk is shifted by a coset off the identity
    # object, so its ends no longer meet the images it is composed with
    space = fresh_space(inst_line5)
    q = space.q
    shift = next(r for r in q.morphisms.reps if q.source[r] != q.identity_obj())
    triv = LocalTrivialization(space, "1")
    on_pair = triv.on_pair

    def planted(walk, mrep):
        m = on_pair(walk, mrep)
        if len(walk.steps) != 2:
            return m
        e = m.edges[0]
        return BundleMorphism.chain([e._replace(phi=q.mor_product(e.phi, shift))])
    monkeypatch.setattr(triv, "on_pair", planted)
    rep = triv.check(max_len=2, max_units=1)
    assert [(c.check_id, c.witness) for c in rep.failures()] == [
        ("triv.1.1.functorial",
         "composite of ((), ((12),(12))) then ((('e01', 1), ('e01', -1)), ((12),(123))) "
         "breaks a junction")]


def test_on_pair_plant_over_the_reversed_step_fails_instead_of_raising(inst_line5,
                                                                        monkeypatch):
    # each one-step image runs over its step reversed: it no longer ends where
    # the next image starts, nor projects to its walk
    space = fresh_space(inst_line5)
    triv = LocalTrivialization(space, "1")
    on_pair = triv.on_pair

    def planted(walk, mrep):
        m = on_pair(walk, mrep)
        if len(walk.steps) != 1:
            return m
        (eid, o), = walk.steps
        reversed_walk = space.cover.walk(walk.end, [(eid, -o)])
        return BundleMorphism.chain([m.edges[0]._replace(walk=reversed_walk)])
    monkeypatch.setattr(triv, "on_pair", planted)
    rep = triv.check(2, 2)
    assert [(c.check_id, c.witness) for c in rep.failures()] == [
        ("triv.1.1.mor_surjective",
         "chain (('1', ('e', 'e01', 1), '((12),(12))'),) is not equal to its chart-1 reduction"),
        ("triv.1.1.functorial",
         "composite of ((), ((12),(12))) then ((('e01', 1),), ((12),(123))) breaks a junction"),
        ("triv.1.1.projection",
         "projection of ((('e01', 1),), ((12),(12))) is not the walk itself"),
    ]


def test_trivialization_names_an_unknown_chart(space_line5):
    with pytest.raises(SchemaError, match="unknown chart index '9'"):
        LocalTrivialization(space_line5, "9")
    with pytest.raises(SchemaError, match="unknown chart index '9'"):
        MultiChartTrivialization(space_line5, "1", ("1", "9"))


def test_trivialization_refuses_a_chart_outside_its_index_set(space_line5):
    with pytest.raises(SchemaError, match=r"chart '3' is not in \('1', '2'\)"):
        MultiChartTrivialization(space_line5, "3", ("2", "1"))


def test_trivialization_refuses_an_empty_overlap(space_cycle6):
    # the three arcs of the six-cycle share no vertex
    with pytest.raises(SchemaError, match="overlap of .* is empty"):
        MultiChartTrivialization(space_cycle6, "1", ("1", "2", "3"))


def test_trivialization_refuses_objects_and_walks_outside_its_overlap(space_line5):
    space, q = space_line5, space_line5.q
    triv = MultiChartTrivialization(space, "1", ("1", "2"))
    assert "0" not in triv.region and "1" in triv.region
    with pytest.raises(DomainError, match="vertex '0' is outside the overlap"):
        triv.on_object("0", q.identity_obj())
    # the walk 1 0 1 starts and ends inside the overlap but leaves it
    walk = space.cover.walk("1", [("e01", -1), ("e01", 1)])
    with pytest.raises(DomainError, match="walk leaves the overlap"):
        triv.on_pair(walk, q.identity_mor_at(q.identity_obj()))
    # chart 2 holds 1, 2 and 3 but not 0, nor the walk 1 0 1
    alone = LocalTrivialization(space, "2")
    assert alone.region == space.cover.chart("2") > triv.region
    with pytest.raises(DomainError, match="vertex '0' is outside chart '2'"):
        alone.on_object("0", q.identity_obj())
    with pytest.raises(DomainError, match="walk leaves chart '2'"):
        alone.on_pair(walk, q.identity_mor_at(q.identity_obj()))


def test_clean_battery_builds_each_trivialization_image_once(monkeypatch):
    # each chart builds the image of each of its walks with each coset rep
    # once, and the transition rows read those images and build none; each
    # trivialization over two or more charts builds its own
    space = fresh_space(build_instance("s4-line5w", 5, True))
    built = []

    def counting(cls):
        on_pair = cls.on_pair

        def counted(self, walk, mrep):
            built.append((self.i, getattr(self, "indices", (self.i,)), walk.start,
                          walk.steps, mrep))
            return on_pair(self, walk, mrep)
        monkeypatch.setattr(cls, "on_pair", counted)
    counting(LocalTrivialization)
    counting(MultiChartTrivialization)
    rep = check_bundle_axioms(space, 2)
    assert rep.ok, rep.failures()
    mreps = space.q.morphisms.reps
    assert built == [(i, (i,), w.start, w.steps, m) for i in space.cover.index_order
                     for w in enumerate_paths(space.cover, (i,), 2) for m in mreps]
    assert multi_chart_report(space, 2).ok
    assert len(built) == len(set(built)) == 1908


def test_each_chart_check_builds_each_walk_and_coset_image_once(monkeypatch):
    # run alone, each chart's check builds its images in `mor_injective`'s
    # order, walk by walk and coset by coset, and no later scan builds one
    space = fresh_space(build_instance("s3-line5w", 5, True))
    built = []
    on_pair = LocalTrivialization.on_pair

    def counted(self, walk, mrep):
        built.append((self.i, walk.start, walk.steps, mrep))
        return on_pair(self, walk, mrep)
    monkeypatch.setattr(LocalTrivialization, "on_pair", counted)
    mreps = space.q.morphisms.reps
    for i in space.cover.index_order:
        built.clear()
        rep = LocalTrivialization(space, i).check(2, 2)
        assert rep.ok, rep.failures()
        assert built == [(i, w.start, w.steps, m)
                         for w in enumerate_paths(space.cover, (i,), 2) for m in mreps]
        assert len(built) == {"1": 80, "2": 80, "3": 108}[i]


@pytest.mark.parametrize("raising,first", [("one", "((12),(123))"), ("family", "((123),(12))")],
                         ids=["one", "family"])
def test_an_image_that_raises_fails_the_rows_that_first_need_it(inst_line5w, monkeypatch,
                                                                raising, first):
    # chart 2's image of (4:[], first coset) is the second coset's, so
    # `mor_injective` stops at that walk, before any image that raises: the
    # one over 1:[e12] with the second coset, or each over a walk of one or
    # more steps with the second or third coset. Each later scan fails with
    # the first fault it reaches in its own order, and an image is built
    # only where a scan first reads it: reading a walk's row whole would
    # raise at the second coset first
    space = fresh_space(inst_line5w)
    reps = space.q.morphisms.reps
    on_pair = LocalTrivialization.on_pair

    def raises(walk, mrep):
        if raising == "one":
            return (walk.start, walk.steps, mrep) == ("1", (("e12", 1),), reps[1])
        return len(walk.steps) > 0 and mrep in reps[1:3]

    def planted(self, walk, mrep):
        if (self.i, walk.start, walk.steps, mrep) == ("2", "4", (), reps[0]):
            mrep = reps[1]
        elif self.i == "2" and raises(walk, mrep):
            raise DomainError(f"no image of {walk.start}:{list(walk.steps)} with {mrep}")
        return on_pair(self, walk, mrep)
    monkeypatch.setattr(LocalTrivialization, "on_pair", planted)
    rows = [(c.check_id, c.status, c.witness) for c in check_bundle_axioms(space, 2).checks
            if c.check_id.startswith(("triv.", "transition."))]
    unbuilt = "DomainError: no image of 1:[('e12', 1)] with "
    assert len(rows) == 24
    assert [row for row in rows if row[1] == "fail"] == [
        ("triv.2.2.mor_injective", "fail",
         "(4:[], ((12),(12))) and (same walk, ((12),(123))) map to equal morphisms"),
        ("triv.2.2.mor_surjective", "fail",
         "chain (('2', ('v', '4'), '((12),(12))'),) is not equal to its chart-2 reduction"),
        ("triv.2.2.functorial", "fail", unbuilt + first),
        ("triv.2.2.equivariant", "fail", "action by ((12),(12)) breaks on ((), ((12),(12)))"),
        ("triv.2.2.projection", "fail", unbuilt + "((12),(123))"),
        ("transition.12.mor", "fail", unbuilt + first),
        ("transition.21.mor", "fail", unbuilt + "((12),(123))"),
        ("transition.23.mor", "fail",
         "(4:[], ((12),(12))) of chart 2 is not (same walk, ((12),(12))) of chart 3"),
        ("transition.32.mor", "fail",
         "(4:[], ((12),(12))) of chart 3 is not (same walk, ((12),(12))) of chart 2"),
    ]


def test_lift_walk_rejects_a_broken_chain(inst_line5):
    space = fresh_space(inst_line5)
    for start, step in (("0", ("e01", 1)), ("2", ("e23", 1))):
        assert isinstance(space.lift_walk(space.cover.walk(start, [step])), BundleMorphism)
    # steps that do not join: e01 ends at 1, e23 starts at 2
    gap = PathMor("0", (("e01", 1), ("e23", 1)), ("0", "1", "3"))
    with pytest.raises(CompositionError):
        space.lift_walk(gap)


def test_value_reprs_are_pinned(space_line5w):
    # witnesses embed these reprs, so they are report bytes
    space = space_line5w
    x = space.objects_all()[0]
    assert repr(x) == "BundleObject(chart='1', vertex='0', fiber='(12)')"
    assert repr(neutral_chain(space, x)) == (
        "BundleMorphism(edges=(QuiverEdge(chart='1', charts=('1',), "
        "walk=PathMor(start='0', steps=(), visited=('0',)), "
        "phi='((123),(12))'),))")
    m = space.lift_walk(space.cover.walk("0", [("e01", 1)]))
    assert repr(m) == (
        "BundleMorphism(edges=(QuiverEdge(chart='1', charts=('1',), "
        "walk=PathMor(start='0', steps=(('e01', 1),), visited=('0', '1')), "
        "phi='((123),(123))'),))")


def test_battery_compacts_each_state_once(inst_line5w, monkeypatch):
    # a two-unit state with a zero-length unit is merged once, into the class
    # member the battery keys; every later law reads the key from its map.
    # The trivializations and the transition rows, which key images of their
    # own, are left out.
    space = fresh_space(inst_line5w)
    seen = Counter()
    merge_units = BundleSpace._merge_units

    def counted(self, u1, u2):
        seen[u1, u2] += 1
        return merge_units(self, u1, u2)

    monkeypatch.setattr(BundleSpace, "_merge_units", counted)
    monkeypatch.setattr(LocalTrivialization, "check", lambda self, *args: Report("bundle"))
    monkeypatch.setattr(battery, "_check_transition", lambda *args: None)
    rep = check_bundle_axioms(space, 2)
    assert rep.ok, rep.failures()
    assert seen and max(seen.values()) == 1, seen.most_common(3)


# ----- the fold against the two-pass reference --------------------------------

@pytest.mark.parametrize("preset,max_len", [("s3-line5", 3), ("s3-line5w", 2),
                                            ("s4-line5w", 2), ("cycle6-trivial", 4)])
def test_fold_matches_the_two_pass_reference_on_every_bounded_chain(preset, max_len):
    # the chains of at most min(max_len, 3) units that `all` at this bound keys
    space = fresh_space(build_instance(preset, 5, True))
    for st in enumerate_chains(space, min(max_len, 3)):
        assert space.component_of(st) == reference_key(space, st), st


@pytest.mark.parametrize("fixture", ["inst_a3j3_line5w", "inst_a3j3_dirline3"])
def test_fold_matches_the_two_pass_reference_on_the_non_thin_fiber(request, fixture):
    space = fresh_space(request.getfixturevalue(fixture))
    for st in enumerate_chains(space, 3):
        assert space.component_of(st) == reference_key(space, st), st


@pytest.mark.parametrize("fixture", ["inst_line5", "inst_a3j3_line5w"])
def test_fold_matches_the_two_pass_reference_where_no_rewrite_crosses_a_junction(
        request, fixture):
    # the cycle without zero-length edges: no chart holds e01 backwards and
    # e50 backwards, so the fold finishes a decoration at vertex 0
    chain = request.getfixturevalue(fixture).chain
    cover = cover_cycle6()
    cover.identity_edges = False
    space = fresh_space(Instance("cycle6-edgeless", 3, True, chain, cover,
                                 generate_gerbal(chain, cover, 3, noise=True)))
    split = 0
    for st in enumerate_chains(space, 3):
        key = space.component_of(st)
        assert key == reference_key(space, st), st
        split += len(key[2]) > 1
    assert split


def test_a_clean_mor_surjective_scan_keys_no_chain(inst_line5, monkeypatch):
    # it folds layer states and compares their keys with the images' keys
    space = fresh_space(inst_line5)
    sizes = []
    fold_layers = battery.fold_layers

    def watched(*args):
        sizes.append(len(space._keys))
        yield from fold_layers(*args)
        sizes.append(len(space._keys))
    monkeypatch.setattr(battery, "fold_layers", watched)
    monkeypatch.setattr(battery, "enumerate_chains", None)
    for indices in index_family(space.cover):
        triv = (LocalTrivialization(space, indices[0]) if len(indices) == 1
                else MultiChartTrivialization(space, indices[0], indices))
        rep = triv.check(3, 3)
        assert rep.ok, rep.failures()
    assert len(sizes) == 2 * len(index_family(space.cover))
    assert sizes[::2] == sizes[1::2]


def test_keys_hold_only_battery_states_and_images(monkeypatch):
    # the memo no longer grows with the trivializations' region chains: on
    # s3-line5 at length 3 it held 10,268 states, now 1,900, each a two-unit
    # state, an image, an acted image or two images composed
    space = fresh_space(build_instance("s3-line5", 5, True))
    checked = []
    check = LocalTrivialization.check

    def recorded(self, *args):
        checked.append(self)
        return check(self, *args)
    monkeypatch.setattr(LocalTrivialization, "check", recorded)
    rep = check_bundle_axioms(space, 3)
    assert rep.ok, rep.failures()
    images = {st for triv in checked for row in triv.images.values()
              for _key, st in row.values()}
    states = set(enumerate_chains(space, 2)) | images
    states |= {space.act_state(st, psi) for st in images for psi in space.q.morphisms.reps}
    states |= {a + b for a in images for b in images
               if space.unit_t_obj(a[-1]) == space.unit_s_obj(b[0])}
    assert set(space._keys) <= states
    assert len(space._keys) < len(enumerate_chains(space, 3)) / 5


# ----- a failed check names its first violation in scan order ----------------

def plant_gbar(monkeypatch, space, key):
    """Shift gbar at one (to, from, vertex) key by a non-identity coset."""
    q, gbar = space.q, space.gbar
    shift = next(r for r in q.objects.reps if r != q.identity_obj())

    def planted(*k):
        val = gbar(*k)
        return q.obj_product(val, shift) if k == key else val
    monkeypatch.setattr(space, "gbar", planted)


def test_glue_consistent_names_its_first_split(inst_line5, monkeypatch):
    # gbar_32(2) is read by the glue checks only, so the battery still runs;
    # both fiber cosets of (2, 2) split from their chart-3 transport
    space = fresh_space(inst_line5)
    plant_gbar(monkeypatch, space, ("3", "2", "2"))
    rep = check_bundle_axioms(space, 1)
    glue = {c.check_id: c for c in rep.failures()}["bundle.objects.glue_consistent"]
    first = space.q.objects.reps[0]
    assert glue.witness == f"(2, 2, {first}) and its 3 transport split"


def test_obj_bijective_names_its_first_miss(inst_line5, monkeypatch):
    # gbar_21(1) moves both fiber cosets over vertex 1 off their glued class
    space = fresh_space(inst_line5)
    plant_gbar(monkeypatch, space, ("2", "1", "1"))
    q = space.q
    first = q.objects.reps[0]
    moved = q.obj_product(space.gbar("2", "1", "1"), first)
    for triv in (MultiChartTrivialization(space, "2", ("1", "2")),
                 LocalTrivialization(space, "2")):
        tag = f"triv.2.{''.join(getattr(triv, 'indices', '2'))}"
        assert [(c.check_id, c.witness) for c in triv.check(1, 1).failures()] == [
            (f"{tag}.obj_bijective", f"object (1, {moved}) does not land on (1, 1, {first})")]


# ----- a trivialization over several charts restricts the one over chart i --

def test_an_on_pair_that_reads_its_index_set_fails_the_multi_chart_laws(
        inst_a3j3_line5w, monkeypatch):
    # on the non-thin fiber a swapped decoration keeps the image's endpoints,
    # so only the comparison of images with chart i's sends J to its scans
    space = fresh_space(inst_a3j3_line5w)
    q = space.q
    a, b = q.identity_mor_at(q.identity_obj()), q.morphisms.reps[0]
    swap = {a: b, b: a}
    on_pair = MultiChartTrivialization.on_pair

    def planted(self, walk, mrep):
        m = on_pair(self, walk, mrep)
        if len(self.indices) == 1:
            return m
        e = m.edges[0]
        return BundleMorphism.chain([e._replace(phi=swap.get(e.phi, e.phi))])
    monkeypatch.setattr(MultiChartTrivialization, "on_pair", planted)
    status = {c.check_id: c.status for c in check_bundle_axioms(space, 2).checks}
    status.update((c.check_id, c.status) for c in multi_chart_report(space, 2).checks)
    multi = multi_chart_sets(space.cover)
    assert multi
    for i, indices in multi:
        tag = f"triv.{i}.{''.join(indices)}"
        assert status[f"{tag}.mor_injective"] == "pass"
        for law in ("mor_surjective", "functorial", "equivariant"):
            assert status[f"{tag}.{law}"] == "fail", (tag, law)
    one_chart = [c for c in status if c.startswith("triv.")
                 and c.split(".")[1] == c.split(".")[2]]
    assert one_chart and all(status[c] == "pass" for c in one_chart)


def test_a_multi_chart_set_finds_its_own_witness_when_chart_i_fails(inst_line5w,
                                                                    monkeypatch):
    # every decoration moved into chart 3 is multiplied by the identity at a
    # non-identity fiber object, so the one-chart check of chart 3 fails and
    # each J containing 3 scans its own chains, as a check run alone does
    space = fresh_space(inst_line5w)
    q, move_unit = space.q, space._move_unit
    shift = q.identity_mor_at(next(r for r in q.objects.reps if r != q.identity_obj()))

    def planted(k, unit):
        phi = move_unit(k, unit)
        return q.mor_product(phi, shift) if k == "3" else phi
    monkeypatch.setattr(space, "_move_unit", planted)
    failed = {c.check_id: c.witness for c in check_bundle_axioms(space, 2).failures()}
    failed.update((c.check_id, c.witness) for c in multi_chart_report(space, 2).failures())
    alone = failed["triv.3.3.mor_surjective"]
    witnesses = set()
    for indices in index_family(space.cover):
        if "3" not in indices or len(indices) == 1:
            continue
        ours = MultiChartTrivialization(space, "3", indices).check(2, 2).failures()
        surjective = f"triv.3.{''.join(indices)}.mor_surjective"
        assert [c.witness for c in ours if c.check_id == surjective] == [failed[surjective]]
        witnesses.add(failed[surjective])
    assert witnesses - {alone}


def one_chart_rows(space, max_len):
    """The rows of each chart's trivialization at max_len, as the battery
    bounds them."""
    return [c for i in space.cover.index_order
            for c in LocalTrivialization(space, i).check(max_len, min(max_len, 3)).checks]


def wider_than_chart_i(pairs):
    """The rows of a trivialization over J that fail where chart i passes."""
    return [(row, status, alone) for row, status, alone in pairs
            if status == "fail" != alone]


@pytest.mark.parametrize("source,max_len", [
    ("s3-line5", 3), ("s3-line5w", 2), ("s4-line5w", 2), ("cycle6-trivial", 4),
    ("inst_a3j3_line5w", 2), ("inst_a3j3_line5w", 3), ("inst_a3j3_cycle6", 2),
    ("inst_a3j3_cycle6", 3)])
def test_multi_chart_verdicts_equal_chart_i_on_clean_data(request, source, max_len):
    inst = (request.getfixturevalue(source) if source.startswith("inst_")
            else build_instance(source, 5, True))
    space = fresh_space(inst)
    rows = one_chart_rows(space, max_len)
    pairs = paired_verdicts(space, rows, max_len)
    assert pairs and all(status == alone == "pass" for _, status, alone in pairs)
    # the reference over (i,) alone gives the battery's rows, witnesses included
    ref = [c for i in space.cover.index_order
           for c in MultiChartTrivialization(space, i, (i,)).check(max_len, min(max_len, 3))
           .checks]
    assert ref == rows


def plant_thetabar(monkeypatch, pair, min_steps):
    """Every space built from now on reads, for the ordered chart pair
    (k, i) = `pair`, another coset with the same endpoints as thetabar_ki on
    each walk of at least `min_steps` steps."""
    thetabar = BundleSpace.thetabar

    def planted(self, k, i, walk):
        value = thetabar(self, k, i, walk)
        if (k, i) != pair or len(walk.steps) < min_steps:
            return value
        q = self.q
        return next(r for r in q.morphisms.reps if r != value
                    and (q.source[r], q.target[r]) == (q.source[value], q.target[value]))
    monkeypatch.setattr(BundleSpace, "thetabar", planted)


THETABAR_PAIRS = [p for p in cover_line5w().overlapping(2) if p[0] != p[1]]


@pytest.mark.parametrize("min_steps", [1, 2])
@pytest.mark.parametrize("fixture,max_len", [
    ("inst_a3j3_line5w", 2), ("inst_a3j3_cycle6", 2), ("inst_a3j3_cycle6", 3)])
def test_no_thetabar_plant_fails_a_multi_chart_row_that_chart_i_passes(
        request, monkeypatch, fixture, max_len, min_steps):
    # each ordered chart pair moved on walks of at least one or of at least
    # two steps; on the six-cycle the overlaps are single vertices, so no
    # plant moves a value there
    inst = request.getfixturevalue(fixture)
    failing = 0
    for pair in THETABAR_PAIRS:
        plant_thetabar(monkeypatch, pair, min_steps)
        space = fresh_space(inst)
        pairs = paired_verdicts(space, one_chart_rows(space, max_len), max_len)
        assert wider_than_chart_i(pairs) == [], pair
        failing += any(status == "fail" for _, status, _ in pairs)
        monkeypatch.undo()
    assert failing == (6 if fixture == "inst_a3j3_line5w" and min_steps == 1 else 0)


@pytest.mark.parametrize("max_len", [2, 3])
def test_a_two_step_thetabar_plant_fails_only_its_transition_row(inst_a3j3_line5w,
                                                                 monkeypatch, max_len):
    # thetabar_21 moved on walks of two or more steps, to another coset with
    # the same endpoints: the normal form re-indexes single steps only, so
    # every other row passes, and chart 1's image of the first such walk in
    # the overlap is not chart 2's image of it re-indexed
    plant_thetabar(monkeypatch, ("2", "1"), 2)
    space = fresh_space(inst_a3j3_line5w)
    rep = check_bundle_axioms(space, max_len)
    assert [(c.check_id, c.witness) for c in rep.failures()] == [
        ("transition.12.mor", "(1:[('e12', 1), ('e12', -1)], ((123),e)) of chart 1 is not "
                              "(same walk, ((132),e)) of chart 2")]
    assert wider_than_chart_i(paired_verdicts(space, rep.checks, max_len)) == []


# the witnesses of the old scan over `enumerate_chains`: a failing layered
# scan names each layer state by its first chain in that order, so the
# witness bytes stay
MOVE_UNIT_WITNESSES = {
    "triv.3.3": (("1", ("v", "0"), "((12),(12))"),),
    "triv.3.13": (("1", ("v", "0"), "((12),(12))"),),
    "triv.3.23": (("1", ("v", "1"), "((12),(12))"),),
    "triv.3.123": (("1", ("v", "1"), "((12),(12))"),),
}
COMPOSE_OF_WITNESSES = {
    "triv.1.1": (("1", ("e", "e01", 1), "((123),e)"), ("1", ("e", "e01", -1), "((132),e)")),
    "triv.2.2": (("1", ("v", "1"), "((132),e)"), ("1", ("e", "e12", 1), "((132),e)")),
    "triv.3.3": (("1", ("v", "0"), "((132),e)"), ("1", ("e", "e01", 1), "((132),e)")),
    "triv.1.12": (("1", ("e", "e12", 1), "((123),e)"), ("1", ("e", "e12", -1), "((132),e)")),
    "triv.2.12": (("1", ("v", "1"), "((132),e)"), ("1", ("e", "e12", 1), "((132),e)")),
    "triv.1.13": (("1", ("e", "e01", 1), "((123),e)"), ("1", ("e", "e01", -1), "((132),e)")),
    "triv.3.13": (("1", ("v", "0"), "((132),e)"), ("1", ("e", "e01", 1), "((132),e)")),
    "triv.2.23": (("1", ("v", "1"), "((132),e)"), ("1", ("e", "e12", 1), "((132),e)")),
    "triv.3.23": (("1", ("v", "2"), "((132),e)"), ("1", ("e", "e23", 1), "((123),e)")),
    "triv.1.123": (("1", ("e", "e12", 1), "((123),e)"), ("1", ("e", "e12", -1), "((132),e)")),
    "triv.2.123": (("1", ("v", "1"), "((132),e)"), ("1", ("e", "e12", 1), "((132),e)")),
    "triv.3.123": (("1", ("v", "2"), "((132),e)"), ("1", ("e", "e23", 1), "((123),e)")),
}


def surjective_witnesses(space, max_len):
    """The `mor_surjective` witnesses of the battery's trivializations, then
    of the ones over two or more charts."""
    failed = check_bundle_axioms(space, max_len).failures()
    failed += multi_chart_report(space, max_len).failures()
    return {c.check_id.rsplit(".", 1)[0]: c.witness for c in failed
            if c.check_id.startswith("triv.") and c.check_id.endswith(".mor_surjective")}


def as_witnesses(chains):
    return {tag: f"chain {chain} is not equal to its chart-{tag.split('.')[1]} reduction"
            for tag, chain in chains.items()}


@pytest.mark.parametrize("max_len", [2, 3])
def test_move_unit_plant_keeps_the_mor_surjective_witnesses(inst_line5w, monkeypatch,
                                                             max_len):
    # chart 3 alone fails, so each set holding 3 scans its own layer states
    space = fresh_space(inst_line5w)
    q, move_unit = space.q, space._move_unit
    shift = q.identity_mor_at(next(r for r in q.objects.reps if r != q.identity_obj()))

    def planted(k, unit):
        phi = move_unit(k, unit)
        return q.mor_product(phi, shift) if k == "3" else phi
    monkeypatch.setattr(space, "_move_unit", planted)
    assert surjective_witnesses(space, max_len) == as_witnesses(MOVE_UNIT_WITNESSES)


@pytest.mark.parametrize("max_len", [2, 3])
def test_compose_of_plant_keeps_the_mor_surjective_witnesses(inst_a3j3_line5w, monkeypatch,
                                                              max_len):
    # on the non-thin fiber a composite of a decoration with itself swaps two
    # decorations, which the fold and the chart-i cosets both read
    space = fresh_space(inst_a3j3_line5w)
    q, compose_of = space.q, space.q.compose_of
    a, b = q.identity_mor_at(q.identity_obj()), q.morphisms.reps[0]
    swap = {a: b, b: a}

    def planted(later, earlier):
        phi = compose_of(later, earlier)
        return swap.get(phi, phi) if later == earlier else phi
    monkeypatch.setattr(q, "compose_of", planted)
    assert surjective_witnesses(space, max_len) == as_witnesses(COMPOSE_OF_WITNESSES)


def test_clean_battery_enumerates_no_trivialization_region(inst_line5w, monkeypatch):
    space = fresh_space(inst_line5w)
    regions = []
    enumerate_chains_ = battery.enumerate_chains

    def counted(space, max_units, region=None):
        regions.append(region)
        return enumerate_chains_(space, max_units, region)
    monkeypatch.setattr(battery, "enumerate_chains", counted)
    rep = check_bundle_axioms(space, 2)
    assert rep.ok, rep.failures()
    # the battery's own two-unit states; mor_surjective folds layer states
    # and enumerates no region, one-chart regions included
    assert regions == [None]


# ----- decorations decide keys on the non-thin fiber ------------------------

@pytest.mark.parametrize("plant", ["every", "last"])
@pytest.mark.parametrize("fixture,fails", [
    ("inst_a3j3_line5w", {"bundle.action.mor_free", "bundle.mor.torsor",
                          "triv.1.1.mor_injective", "triv.3.123.mor_injective"}),
    ("inst_a3j3_dirline3", {"oracle.agreement"}),
])
def test_a_normal_form_that_drops_decorations_fails_on_the_non_thin_fiber(
        request, monkeypatch, plant, fixture, fails):
    fold_key = BundleSpace._fold_key

    def planted(self, folded):
        source, walk, decorations = fold_key(self, folded)
        return source, walk, (() if plant == "every" else decorations[:-1])
    monkeypatch.setattr(BundleSpace, "_fold_key", planted)
    inst = request.getfixturevalue(fixture)
    failed = {c.check_id for c in run_suite(inst, "all", 2).failures()}
    if inst.cover.identity_edges:
        failed |= {c.check_id for c in multi_chart_report(fresh_space(inst), 2).failures()}
    assert fails <= failed


# ----- the action laws under planted actions ----------------------------------

ACTION_LAWS = ("bundle.action.mor_free", "bundle.action.exchange",
               "bundle.action.equivariant")


def plant_act_state(monkeypatch, space, plant):
    """Replace `act_state` on `space` by `plant(act_state, state, psi)`."""
    act_state = space.act_state
    monkeypatch.setattr(space, "act_state", lambda state, psi: plant(act_state, state, psi))


def neutral_of(space):
    return space.q.identity_mor_at(space.q.identity_obj())


def chart_swap(space):
    """An acted one-unit state moves, decoration unchanged, to the first
    other chart holding its step; two-unit states act as before."""
    def swap(act_state, state, psi):
        acted = act_state(state, psi)
        if len(state) != 1:
            return acted
        (c, step, phi), = acted
        others = [k for k in space._charts_of(space._step_walk(step).visited) if k != c]
        return ((others[0], step, phi),) if others else acted
    return swap


def last_unit_only(space):
    """Only the last unit is multiplied."""
    return lambda act_state, state, psi: state[:-1] + act_state(state[-1:], psi)


def two_unit_head_kept(space):
    """A two-unit state keeps its head unit."""
    return lambda act_state, state, psi: (state[:1] + act_state(state[1:], psi)
                                          if len(state) == 2 else act_state(state, psi))


def reversed_step(space):
    """Off the neutral coset an acted one-unit edge state runs over its step
    reversed."""
    neutral = neutral_of(space)

    def reverse(act_state, state, psi):
        acted = act_state(state, psi)
        if len(acted) != 1 or psi == neutral or acted[0][1][0] != "e":
            return acted
        (c, (_, eid, o), phi), = acted
        return ((c, ("e", eid, -o), phi),)
    return reverse


def neutral_moves(space):
    """The neutral coset acts on one-unit states as a coset that moves their
    target object."""
    q = space.q
    neutral = neutral_of(space)
    mover = next(r for r in q.morphisms.reps if q.source[r] == q.identity_obj() != q.target[r])
    return lambda act_state, state, psi: act_state(
        state, mover if len(state) == 1 and psi == neutral else psi)


def test_action_plant_chart_swap_fails_every_action_law(inst_line5w, monkeypatch):
    # two-unit states act as before, so `exchange` fails only because each
    # acted state comes from its own act_state call
    space = fresh_space(inst_line5w)
    plant_act_state(monkeypatch, space, chart_swap(space))
    failed = {c.check_id: c.witness for c in check_bundle_axioms(space, 2).failures()}
    assert [failed.get(law) for law in ACTION_LAWS] == [
        "morphism action by ((123),(12)) is not free on chain "
        "(('3', ('v', '1'), '((12),(12))'),)",
        "exchange law breaks for ((123),(12)) on a 2-chain",
        "equal chains act apart under ((12),(12))",
    ]
    assert failed["triv.1.1.equivariant"] == "action by ((12),(12)) breaks on ((), ((12),(12)))"


@pytest.mark.parametrize("plant", [last_unit_only, two_unit_head_kept],
                         ids=["last-unit-only", "two-unit-head-kept"])
def test_action_plant_on_the_head_units_fails_instead_of_raising(inst_line5w, monkeypatch,
                                                                 plant):
    # the acted head no longer ends where the acted last unit starts, so the
    # state does not compose: each law names the chain it acted on
    space = fresh_space(inst_line5w)
    plant_act_state(monkeypatch, space, plant(space))
    failed = {c.check_id: c.witness for c in check_bundle_axioms(space, 2).failures()}
    first = "(('1', ('v', '0'), '((12),(12))'), ('1', ('v', '0'), '((12),(123))'))"
    assert [failed.get(law) for law in ACTION_LAWS] == [
        f"action by ((12),(12)) breaks a junction of chain {first}",
        f"action by ((123),(12)) breaks a junction of chain {first}",
        "action by ((12),(12)) breaks a junction of chain "
        "(('1', ('e', 'e01', 1), '((12),(12))'), ('1', ('e', 'e01', -1), '((12),(123))'))",
    ]
    failed.update((c.check_id, c.witness) for c in multi_chart_report(space, 2).failures())
    equivariant = {f"triv.{i}.{''.join(indices)}.equivariant"
                   for indices in index_family(space.cover) for i in indices}
    assert equivariant <= set(failed)
    assert failed["triv.1.1.equivariant"] == (
        "action by ((12),(12)) breaks a junction of ((('e01', 1), ('e01', -1)), ((12),(12)))")


def test_action_plant_reversing_a_step_fails_the_projection_half_of_mor_free(
        inst_line5w, monkeypatch):
    # the walk read from an acted one-unit edge state's key moves
    space = fresh_space(inst_line5w)
    plant_act_state(monkeypatch, space, reversed_step(space))
    failed = {c.check_id: c.witness for c in check_bundle_axioms(space, 2).failures()}
    assert failed["bundle.action.mor_free"] == "action by ((12),(12)) changed a projected walk"


def test_action_plant_on_the_neutral_coset_fails_exchange_at_its_factors(inst_line5w,
                                                                         monkeypatch):
    # the acted factors of a 2-chain no longer compose
    space = fresh_space(inst_line5w)
    plant_act_state(monkeypatch, space, neutral_moves(space))
    failed = {c.check_id: c.witness for c in check_bundle_axioms(space, 2).failures()}
    assert failed["bundle.action.exchange"] == (
        "exchange composite undefined: the factors of chain "
        "(('1', ('v', '0'), '((12),(12))'), ('1', ('v', '0'), '((12),(123))')) "
        "acted by ((123),(123)) do not compose")


def class_members(space):
    """The members of each class the battery forms, in its order: the
    compactions of the enumerated states of at most two units."""
    classes: dict = {}
    for st in enumerate_chains(space, 2):
        compacted = compact(space, st)
        classes.setdefault(space.component_of(compacted), {})[compacted] = None
    return [list(members) for members in classes.values()]


def member_moved(space):
    """The second member of the middle class with two acts under the last
    mover as under the first."""
    classes = [members for members in class_members(space) if len(members) > 1]
    member = classes[len(classes) // 2][1]
    movers = [psi for psi in space.q.morphisms.reps if psi != neutral_of(space)]
    return lambda act_state, state, psi: act_state(
        state, movers[0] if state == member and psi == movers[-1] else psi)


def second_loop_swapped(space):
    """A two-unit state acted by the second loop coset has its units swapped."""
    q = space.q
    loop = [psi for psi in q.morphisms.reps if q.source[psi] == q.target[psi]][1]

    def swap(act_state, state, psi):
        acted = act_state(state, psi)
        return acted[::-1] if len(state) == 2 and psi == loop else acted
    return swap


LAWS = set(ACTION_LAWS)
MOR_FREE, EXCHANGE, EQUIVARIANT = ({law} for law in ACTION_LAWS)


def plant_id(v):
    if isinstance(v, set):
        return "+".join(sorted(law.rsplit(".", 1)[1] for law in v)) or "passes"
    return v if isinstance(v, str) else getattr(v, "__name__", "clean")


# on the A3/J3 fiber every coset is a loop at its one object: a head unit
# multiplied by that object's identity is unchanged, and no coset moves a
# target object, so `neutral_moves` has no mover there. The `s4-line5w` rows
# run the pass on the widest preset's 6,804 states
@pytest.mark.parametrize("fixture,plant,fails", [
    ("inst_line5w", None, set()),
    ("inst_line5w", chart_swap, LAWS),
    ("inst_line5w", last_unit_only, LAWS),
    ("inst_line5w", two_unit_head_kept, LAWS),
    ("inst_line5w", reversed_step, LAWS),
    ("inst_line5w", neutral_moves, MOR_FREE | EXCHANGE),
    ("inst_line5w", member_moved, EXCHANGE | EQUIVARIANT),
    ("inst_line5w", second_loop_swapped, MOR_FREE | EXCHANGE),
    ("inst_a3j3_line5w", None, set()),
    ("inst_a3j3_line5w", chart_swap, LAWS),
    ("inst_a3j3_line5w", last_unit_only, set()),
    ("inst_a3j3_line5w", two_unit_head_kept, set()),
    ("inst_a3j3_line5w", reversed_step, LAWS),
    ("inst_a3j3_line5w", member_moved, EXCHANGE | EQUIVARIANT),
    ("inst_a3j3_line5w", second_loop_swapped, LAWS),
    ("inst_s4_line5w", chart_swap, LAWS),
    ("inst_s4_line5w", member_moved, EQUIVARIANT),
    ("inst_s4_line5w", second_loop_swapped, LAWS),
], ids=plant_id)
def test_action_plant_witnesses_match_the_per_law_reference(request, monkeypatch, fixture,
                                                            plant, fails):
    # one pass feeds the three laws; each must report the first witness of
    # its own scan, as the reference's separate scans do
    inst = request.getfixturevalue(fixture)
    monkeypatch.setattr(battery.LocalTrivialization, "check",
                        lambda self, *args: Report("bundle"))
    spaces = fresh_space(inst), fresh_space(inst)
    for space in spaces:
        if plant is not None:
            plant_act_state(monkeypatch, space, plant(space))
    checks = {c.check_id: c for c in check_bundle_axioms(spaces[0], 2).checks}
    got = [(checks[law].status, checks[law].witness) for law in ACTION_LAWS]
    assert got == [("pass", None) if w is None else ("fail", w)
                   for w in action_law_witnesses(spaces[1])]
    assert {law for law, (status, _) in zip(ACTION_LAWS, got) if status == "fail"} == fails


def test_a_key_over_another_walk_fails_class_invariant(inst_line5w, monkeypatch):
    # a key holds its walk, so a `component_of` that moves it makes the first
    # keyed state equal to a morphism over another walk
    space = fresh_space(inst_line5w)
    component_of = space.component_of

    def moved(state):
        src, _sig, decs = component_of(state)
        return src, ("elsewhere", ()), decs
    monkeypatch.setattr(space, "component_of", moved)
    monkeypatch.setattr(battery.LocalTrivialization, "check",
                        lambda self, *args: Report("bundle"))
    failed = {c.check_id: c.witness for c in check_bundle_axioms(space, 2).failures()}
    first = enumerate_chains(space, 2)[0]
    assert failed["bundle.proj.class_invariant"] == (
        f"chain {first} is equal to a morphism over another walk")


def stub_trivializations(monkeypatch):
    """Leave the trivializations and the transition rows out of the battery."""
    monkeypatch.setattr(battery.LocalTrivialization, "check",
                        lambda self, *args: Report("bundle"))
    monkeypatch.setattr(battery, "_check_transition", lambda *args: None)


def test_a_lift_over_the_first_step_alone_fails_mor_surjective(inst_line5w, monkeypatch):
    # a walk of two or more steps is lifted over its first step only, so the
    # first such walk's lift projects to a shorter walk
    space = fresh_space(inst_line5w)
    lift_walk = space.lift_walk

    def planted(walk):
        if len(walk.steps) > 1:
            walk = walk._replace(steps=walk.steps[:1], visited=walk.visited[:2])
        return lift_walk(walk)
    monkeypatch.setattr(space, "lift_walk", planted)
    stub_trivializations(monkeypatch)
    assert [(c.check_id, c.witness) for c in check_bundle_axioms(space, 2).failures()] == [
        ("bundle.proj.mor_surjective", "lift of 0:[('e01', 1), ('e01', -1)] projects elsewhere")]


def test_a_key_that_reads_the_first_chart_fails_representative_free(inst_line5w,
                                                                    monkeypatch):
    # members of one class can start in different charts, so the sampled
    # composite of two other members gets another key
    space = fresh_space(inst_line5w)
    state_key = space.state_key
    monkeypatch.setattr(space, "state_key", lambda state: state_key(state) + (state[0][0],))
    stub_trivializations(monkeypatch)
    assert [(c.check_id, c.witness) for c in check_bundle_axioms(space, 2).failures()] == [
        ("bundle.compose.representative_free", "composition depends on chain representatives")]


def test_battery_acts_each_state_by_each_coset_once(inst_line5w, monkeypatch):
    # the trivializations, which act on images of their own, are left out
    space = fresh_space(inst_line5w)
    acted = Counter()

    def counted(act_state, state, psi):
        acted[state, psi] += 1
        return act_state(state, psi)
    plant_act_state(monkeypatch, space, counted)
    monkeypatch.setattr(battery.LocalTrivialization, "check",
                        lambda self, *args: Report("bundle"))
    rep = check_bundle_axioms(space, 2)
    assert rep.ok, rep.failures()
    assert acted == Counter(
        {(st, psi): 1 for st in enumerate_chains(space, 2) for psi in space.q.morphisms.reps})
    assert sum(acted.values()) == 8240


def test_act_state_raises_on_an_unknown_coset_every_call(inst_line5):
    space = fresh_space(inst_line5)
    state = enumerate_chains(space, 1)[0]
    for _ in range(3):
        with pytest.raises(SchemaError, match="is not a morphism coset rep"):
            space.act_state(state, "not-a-coset")
    psi = space.q.morphisms.reps[-1]
    assert space.act_state(state, psi) == space.act_state(state, psi)
    with pytest.raises(SchemaError, match="is not a morphism coset rep"):
        space.act_state(state, "not-a-coset")
    assert list(space._actions) == [psi]


@pytest.mark.parametrize("fixture", ["inst_line5w", "inst_a3j3_line5w"])
def test_act_state_matches_the_unitwise_product(request, fixture):
    # one- and two-unit states take the unpacking path, a trivialization's
    # images of three steps the general one
    space = fresh_space(request.getfixturevalue(fixture))
    reps = space.q.morphisms.reps
    states = enumerate_chains(space, 2)
    for i in space.cover.index_order:
        image = LocalTrivialization(space, i).image
        states += [image(w.start, w.steps, phi)[1] for w in enumerate_paths(space.cover, (i,), 3)
                   if len(w.steps) == 3 for phi in reps]
    assert {len(st) for st in states} == {1, 2, 3}
    for st in states:
        for psi in reps:
            assert space.act_state(st, psi) == unitwise_action(space, st, psi), (st, psi)


def test_act_state_stores_nothing_for_an_unknown_decoration(inst_line5w):
    # every path raises the quotient's SchemaError on every call, and no table
    # stores an entry for the unknown decoration
    space = fresh_space(inst_line5w)
    reps, i = space.q.morphisms.reps, space.cover.index_order[0]
    w = next(w for w in enumerate_paths(space.cover, (i,), 3) if len(w.steps) == 3)
    three = LocalTrivialization(space, i).image(w.start, w.steps, reps[0])[1]
    for psi in reps:
        space.act_state(three, psi)
    sizes = [(psi, len(last), len(head)) for psi, (last, head) in space._actions.items()]
    bad = "not-a-coset"
    # the bad decoration on the first or the last of one, two and three units
    states = [st[:m] + ((*st[m][:2], bad),) + st[m + 1:]
              for st in (three[:1], three[:2], three) for m in (0, len(st) - 1)]
    for st in states:
        for psi in reps:
            for _ in range(2):
                with pytest.raises(SchemaError, match=f"'{bad}' is not in"):
                    space.act_state(st, psi)
    assert [(psi, len(last), len(head))
            for psi, (last, head) in space._actions.items()] == sizes


@pytest.fixture(scope="module")
def checked_space_s4(inst_s4_line5w):
    """A space after a clean length-2 battery on `s4-line5w` seed 5."""
    space = fresh_space(inst_s4_line5w)
    rep = check_bundle_axioms(space, 2)
    assert rep.ok, rep.failures()
    return space


def test_action_tables_stay_within_units_times_cosets(checked_space_s4):
    # each table holds one product per decoration, so none grows with states
    space = checked_space_s4
    cosets = len(space.q.morphisms.reps)
    sizes = [len(table) for pair in space._actions.values() for table in pair]
    assert len(space._actions) == cosets
    assert max(sizes) <= cosets
    assert sum(sizes) <= len(battery.enumerate_units(space)) * cosets


def test_memos_stay_within_charts_times_units_and_cosets_squared(checked_space_s4):
    # the memos key units, steps and cosets, never chains, so a clean battery
    # leaves them bounded whatever the number of chains it keys
    space = checked_space_s4
    q, charts = space.q, len(space.cover.index_order)
    units = battery.enumerate_units(space)
    assert len(space._keys) > charts * len(units)
    assert 0 < space._move_unit.cache_info().currsize <= charts * len(units)
    assert 0 < space._absorb.cache_info().currsize <= len(units) ** 2
    steps = {step for _c, step, _phi in units}
    assert 0 < space._merge_step.cache_info().currsize <= len(steps) ** 2
    assert 0 < space._step_walk.cache_info().currsize <= len(steps)
    assert 0 < space.unit_s_obj.cache_info().currsize <= len(units)
    assert 0 < space.unit_t_obj.cache_info().currsize <= len(units)
    assert 0 < q.mor_product.cache_info().currsize <= len(q.morphisms.reps) ** 2
    assert 0 < q.obj_product.cache_info().currsize <= len(q.objects.reps) ** 2
    assert 0 < q.identity_mor_at.cache_info().currsize <= len(q.objects.reps)


# ----- planted faults: each plant fails a row, and none raises ---------------
#
# The first rows of the planted-fault matrix: each single value of gbar on
# s3-line5w at preset seed 5, moved to the other object coset. Some of these
# plants break a lift's junction or leave a bounded state that cannot be
# keyed; `Report.search` and the battery's keying gate record those as failed
# rows with the error as the witness, so the battery, the `bundle` suite and
# the CLI report them and raise nothing.

GBAR_KEYS = [(i, k, u) for cover in [cover_line5w()] for i, k in cover.overlapping(2)
             for u in sorted(cover.overlap((i, k)))]


@pytest.fixture(scope="module")
def wide_document(tmp_path_factory):
    inst = build_instance("s3-line5w", 5, True)
    path = tmp_path_factory.mktemp("plants") / "s3-line5w.json"
    path.write_text(instance_to_json(inst))
    return inst, str(path)


def plant_other_coset(monkeypatch, key):
    """Every space built from now on reads the other object coset at gbar `key`."""
    gbar = BundleSpace.gbar

    def planted(self, *k):
        value = gbar(self, *k)
        return next(r for r in self.q.objects.reps if r != value) if k == key else value
    monkeypatch.setattr(BundleSpace, "gbar", planted)


def test_the_gbar_plants_cover_every_value():
    assert len(GBAR_KEYS) == len(set(GBAR_KEYS)) == 35


@pytest.fixture(scope="module")
def gbar_plants(wide_document):
    """Per single-value `gbar` plant on `s3-line5w`@2, read off one space
    built under it: the battery report, the paired verdicts of the
    trivializations over two or more charts, and the misses of the object
    read-back."""
    out = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for key in GBAR_KEYS:
            plant_other_coset(monkeypatch, key)
            space = fresh_space(wide_document[0])
            rep = check_bundle_axioms(space, 2)
            out[key] = (rep, paired_verdicts(space, rep.checks, 2),
                        object_read_back_misses(space))
            monkeypatch.undo()
    return out


@pytest.mark.parametrize("key", GBAR_KEYS, ids="".join)
def test_a_gbar_plant_fails_a_row_and_raises_nothing(wide_document, gbar_plants,
                                                     monkeypatch, capsys, key):
    rep = gbar_plants[key][0]
    assert not rep.ok
    plant_other_coset(monkeypatch, key)
    path = wide_document[1]
    assert main(["check", path, "--suite", "bundle", "--max-path-len", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["checks"] == rep.to_dict()["checks"]
    assert err == ""


def test_a_state_that_cannot_be_keyed_fails_each_row_that_reads_the_keys(
        wide_document, monkeypatch):
    # gbar_12(1) breaks the merge of a zero-length unit into its neighbour:
    # the six keyed rows fail with that error, and the trivializations and
    # the transition rows still run, as the ones over two or more charts do
    plant_other_coset(monkeypatch, ("1", "2", "1"))
    space = fresh_space(wide_document[0])
    rep = check_bundle_axioms(space, 2)
    witness = "CompositionError: cosets do not compose: target '(123)' != source '(12)'"
    failed = {c.check_id: c.witness for c in rep.failures()}
    keyed = battery.KEYED_LAWS
    assert {i: failed[i] for i in keyed} == dict.fromkeys(keyed, witness)
    assert "bundle.proj.mor_surjective" not in failed
    transition = [c.check_id for c in rep.checks if c.check_id.startswith("transition.")]
    assert len(transition) == 6 and all(i.endswith(".mor") for i in transition)
    multi = multi_chart_report(space, 2)
    assert sum(c.check_id.startswith("triv.") for c in rep.checks + multi.checks) == 72


def test_a_scan_that_raises_fails_its_row_with_the_error(wide_document, monkeypatch):
    # gbar_11(0) breaks the junction of a lift at vertex 0
    plant_other_coset(monkeypatch, ("1", "1", "0"))
    rep = check_bundle_axioms(fresh_space(wide_document[0]), 2)
    failed = {c.check_id: c.witness for c in rep.failures()}
    assert failed["bundle.proj.mor_surjective"] == (
        "CompositionError: chain breaks: edge starts at BundleObject(chart='1', vertex='0', "
        "fiber='(12)') but previous ended at BundleObject(chart='1', vertex='0', "
        "fiber='(123)')")
    assert not any(i in failed for i in battery.KEYED_LAWS)


def test_no_gbar_plant_fails_a_multi_chart_row_that_chart_i_passes(gbar_plants):
    # 21 of the 35 plants fail some row over two or more charts, always with
    # chart i's row of the same law; 6 fail a row of chart i that no larger
    # set fails, as the larger sets see less of chart i's region
    verdicts = {key: pairs for key, (_, pairs, _) in gbar_plants.items()}
    assert {key: wider_than_chart_i(pairs) for key, pairs in verdicts.items()} \
        == dict.fromkeys(GBAR_KEYS, [])
    failing = [key for key, pairs in verdicts.items()
               if any(status == "fail" for _, status, _ in pairs)]
    narrower = [key for key, pairs in verdicts.items()
                if any(status == "pass" != alone for _, status, alone in pairs)]
    assert len(failing) == 21
    assert narrower == [("1", "1", "0"), ("1", "3", "0"), ("2", "2", "4"),
                        ("2", "3", "4"), ("3", "1", "0"), ("3", "2", "4")]


# ----- the object read-back is the gluing check --------------------------------
#
# The battery once listed a `transition.<i><k>.obj` row per ordered pair of
# distinct overlapping charts. Each of its comparisons, canonical_obj(k, u,
# gbar_ki(u) a) against canonical_obj(i, u, a), is one that
# `bundle.objects.glue_consistent` makes with c = i and c2 = k, so no plant
# fails it alone.

def object_read_back_misses(space):
    """(i, k, u, a) where trivialization k after the inverse of trivialization
    i is not (u, a) -> (u, gbar_ki(u) a) on objects."""
    q, cover = space.q, space.cover
    trivs = {i: LocalTrivialization(space, i) for i in cover.index_order}
    return [(i, k, u, a) for i, k in cover.overlapping(2) if i != k
            for u in sorted(cover.overlap((i, k))) for a in q.objects.reps
            if trivs[k].on_object(u, q.obj_product(space.gbar(k, i, u), a))
            != trivs[i].on_object(u, a)]


def glue_status(rep):
    return next(c.status for c in rep.checks
                if c.check_id == "bundle.objects.glue_consistent")


def test_glue_consistent_fails_under_every_gbar_plant_the_object_read_back_sees(
        gbar_plants):
    seen = {key: glue_status(rep) for key, (rep, _, misses) in gbar_plants.items() if misses}
    assert seen == dict.fromkeys(seen, "fail")
    assert len(seen) == 22


@pytest.mark.parametrize("plant", ["no_transport", "one_vertex"])
def test_glue_consistent_fails_under_a_canonical_obj_plant_the_object_read_back_sees(
        wide_document, monkeypatch, plant):
    space = fresh_space(wide_document[0])
    monkeypatch.setattr(space, "canonical_obj", faulty_canonical_objs(space)[plant])
    assert object_read_back_misses(space)
    assert glue_status(space.check_glue_relation()) == "fail"
