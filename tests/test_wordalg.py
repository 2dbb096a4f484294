"""The graded word oracle for word equality on the directed line base.

Inventory counts are frozen: with S3 fibers (4 morphism cosets) the three
directed edges admit 8 single-step chart placements on the outer edges and 4
on the middle one, giving 32 decorated edges; the graded blocks then hold
4 / 16 / 4 words over single steps, 36 over each two-step walk, and 80 over
the full line, 176 words in total.
"""

import pytest
from echelon_reference import EchelonReference
from normal_form_reference import reference_key

from catbundle import bundle
from catbundle.bundle import BundleMorphism, BundleSpace
from catbundle.complexes import CoverComplex
from catbundle.errors import DomainError, PreconditionError
from catbundle.generation import generate_gerbal
from catbundle.presets import build_instance
from catbundle.schema import Instance
from catbundle.suites import InstanceContext, run_suite
from catbundle.wordalg import (
    WordOracle,
    _word_key,
    check_congruence_invariants,
    check_oracle_agreement,
    word_chains,
)


@pytest.fixture(scope="module")
def word_oracle(space_dirline3):
    return WordOracle(space_dirline3, max_len=3)


def agreement(space, oracle):
    return check_oracle_agreement(space, oracle, word_chains(space, oracle))


def invariants(space, oracle):
    return check_congruence_invariants(space, oracle, word_chains(space, oracle))


def test_oracle_requires_directed_base(space_line5):
    with pytest.raises(PreconditionError):
        WordOracle(space_line5, max_len=2)


def test_edge_inventory_frozen(word_oracle):
    assert len(word_oracle.edges) == 32


def test_block_sizes_frozen(word_oracle):
    sizes = {key: len(words) for key, words in word_oracle.blocks.items()}
    assert sizes == {
        ("0", (("e01", 1),)): 4,
        ("1", (("e12", 1),)): 16,
        ("2", (("e23", 1),)): 4,
        ("0", (("e01", 1), ("e12", 1))): 36,
        ("1", (("e12", 1), ("e23", 1))): 36,
        ("0", (("e01", 1), ("e12", 1), ("e23", 1))): 80,
    }
    assert len(word_oracle.all_words()) == 176


def test_equality_is_reflexive_and_symmetric(word_oracle):
    words = word_oracle.all_words()
    for w in words[:40]:
        assert word_oracle.equal(w, w)
    for w1, w2 in word_oracle.equal_pairs()[:200]:
        assert word_oracle.equal(w2, w1)


def test_classes_partition_each_block(word_oracle):
    for words in word_oracle.blocks.values():
        by_label: dict = {}
        for w in words:
            by_label.setdefault(word_oracle.label(w), []).append(w)
        classes = [by_label[lab] for lab in sorted(by_label)]
        flat = [w for cls in classes for w in cls]
        assert len(flat) == len(words)
        for cls in classes:
            for w1 in cls[:3]:
                for w2 in cls[:3]:
                    assert word_oracle.equal(w1, w2)
        for a, b in zip(classes, classes[1:]):
            assert not word_oracle.equal(a[0], b[0])


def test_cross_block_words_never_equal(word_oracle):
    keys = sorted(word_oracle.blocks)
    w1 = word_oracle.blocks[keys[0]][0]
    w2 = word_oracle.blocks[keys[1]][0]
    assert not word_oracle.equal(w1, w2)


def test_agreement_with_closure(space_dirline3, word_oracle):
    rep = agreement(space_dirline3, word_oracle)
    assert rep.ok, rep.failures()


def test_congruence_invariants(space_dirline3, word_oracle):
    rep = invariants(space_dirline3, word_oracle)
    assert rep.ok, rep.failures()
    ids = {c.check_id for c in rep.checks}
    assert {"congruence.proj_invariant", "congruence.endpoints",
            "congruence.action_equivariant"} <= ids


def act_edgewise(space, word, psi):
    """The right action edge by edge: the last edge's decoration times psi,
    each earlier one's times the identity coset at the source of psi, every
    index set kept."""
    q = space.q
    unit = q.identity_mor_at(q.source[psi])
    return tuple(e._replace(phi=q.mor_product(e.phi, psi if n == len(word) - 1 else unit))
                 for n, e in enumerate(word))


def test_act_state_agrees_with_the_edgewise_action(space_dirline3, word_oracle):
    # act_state acts on a word's units, so on a multi-step edge the acted
    # chain differs from the edgewise one; both deciders must put the two in
    # one class
    space = space_dirline3
    pairs = rechained = 0
    for w in word_oracle.all_words():
        for psi in space.q.morphisms.reps:
            units = space.unit_split(BundleMorphism.chain(w))
            acted = space.to_chain(space.act_state(units, psi))
            edgewise = BundleMorphism.chain(act_edgewise(space, w, psi))
            assert word_oracle.label(acted.edges) == word_oracle.label(edgewise.edges)
            assert space.mor_key(acted) == space.mor_key(edgewise)
            pairs += 1
            rechained += acted != edgewise
    assert pairs == 704 and rechained > 0


def test_fold_matches_the_two_pass_reference_on_every_word(space_dirline3, word_oracle):
    # no zero-length edges: a junction that no rewrite crosses starts a new
    # decoration, which the fold carries in its state
    space = space_dirline3
    words = word_oracle.all_words()
    for w in words:
        state = space.unit_split(BundleMorphism.chain(w))
        assert space.component_of(state) == reference_key(space, state), w
    assert len(words) == 176


def test_each_word_and_each_action_keyed_once(space_dirline3, word_oracle, monkeypatch):
    space = space_dirline3
    keyed, split, acted, acted_keyed = [], [], [], []

    def record(name, log, arg):
        real = getattr(space, name)

        def recorded(*args):
            log.append(arg(*args))
            return real(*args)
        monkeypatch.setattr(space, name, recorded)

    record("component_of", keyed, lambda state: state)
    record("unit_split", split, lambda m: m.edges)
    record("act_state", acted, lambda state, psi: (state, psi))
    record("composed_key", acted_keyed, lambda state: state)
    chains = word_chains(space, word_oracle)
    # each word is split once, and keyed once on the unit state it keeps
    assert len(split) == len(set(split)) == len(word_oracle.all_words())
    assert keyed == [state for state, _, _ in chains]

    keyed.clear()
    split.clear()
    check_oracle_agreement(space, word_oracle, chains)
    # the agreement reads the keys from `chains`
    assert not keyed
    assert not split
    assert not acted

    check_congruence_invariants(space, word_oracle, chains)
    # the kept states are acted on, with no second split: each compared word
    # once per coset (words with equal units included), and each acted state
    # is keyed once
    compared = {w for pair in word_oracle.equal_pairs() for w in pair}
    assert not split
    assert len(acted) == len(compared) * len(space.q.morphisms.reps)
    assert len(acted_keyed) == len(acted)


def test_the_oracle_computes_each_theta_value_once(monkeypatch):
    # theta reads a walk's endpoints only, so the oracle's re-indexings and
    # merges evaluate it once per (to chart, from chart, start, end); a walk
    # that leaves the overlap raises on every call
    inst = build_instance("oracle-dirline3", 5, True)
    calls = []
    eval_theta = bundle.eval_theta
    monkeypatch.setattr(bundle, "eval_theta",
                        lambda gc, *args: calls.append(args) or eval_theta(gc, *args))
    rep = run_suite(inst, "oracle", 3)
    assert rep.ok, rep.failures()
    assert len(calls) == len(set(calls)) == 4
    space = InstanceContext(inst, 3).space[0]
    walk = space.cover.walk("0", (("e01", 1), ("e12", 1), ("e23", 1)))
    calls.clear()
    for _ in range(2):
        with pytest.raises(DomainError, match="leaves the overlap"):
            space.thetabar("2", "1", walk)
    assert not calls


def test_the_oracle_suite_chains_each_word_once(monkeypatch):
    # both checks read each word's chain, endpoints and walk from one list
    inst = build_instance("oracle-dirline3", 5, True)
    built = []
    chain = BundleMorphism.chain

    def counted(edges):
        m = chain(edges)
        built.append(m.edges)
        return m
    monkeypatch.setattr(BundleMorphism, "chain", staticmethod(counted))
    rep = run_suite(inst, "oracle", 3)
    assert rep.ok, rep.failures()
    assert len(built) == len(set(built)) == 176


def test_the_oracle_suite_reports_on_an_oracle_without_words():
    # at length 0 the oracle holds no word: every law holds vacuously, and
    # only the comparison's need for both verdicts fails
    rep = run_suite(build_instance("oracle-dirline3", 5, True), "oracle", 0)
    assert rep.to_dict()["checks"] == [
        {"check": check_id, "law": law, "status": "pass"} for check_id, law in (
            ("congruence.action_equivariant", "the fiber action preserves word equality"),
            ("congruence.endpoints", "equal words share source and target objects"),
            ("congruence.proj_invariant", "equal words project to the same base walk"),
            ("oracle.agreement",
             "congruence closure matches exact ideal membership on all pairs"))
    ] + [{"check": "oracle.both_verdicts",
          "law": "the comparison exercises equal and unequal pairs",
          "status": "fail", "witness": "equal pairs: 0, unequal pairs: 0"}]


def test_word_outside_the_inventory_is_named(word_oracle):
    two_step = next(w for w in word_oracle.all_words() if len(w) == 2)
    undecorated = (two_step[0]._replace(phi="not-a-coset"),)
    for stray in (undecorated, two_step[::-1]):
        for args in ((stray, two_step), (two_step, stray)):
            with pytest.raises(PreconditionError) as exc:
                word_oracle.equal(*args)
            assert str(_word_key(stray)) in str(exc.value)


def _planted(space, monkeypatch, target):
    """Perturb the `composed_key` of every state that `target` picks out."""
    real_key = space.composed_key

    def key(state):
        k = real_key(state)
        return ("planted", k) if target(state) else k

    monkeypatch.setattr(space, "composed_key", key)


def _plant_acted(space, monkeypatch, word, psi):
    """Perturb the key of `word`, and of any word with the same units, acted
    on by psi through `act_state`."""
    state = space.unit_split(BundleMorphism.chain(word))
    real_act = space.act_state
    planted = []

    def act(st, p):
        out = real_act(st, p)
        if st == state and p == psi:
            planted.append(out)
        return out

    monkeypatch.setattr(space, "act_state", act)
    _planted(space, monkeypatch, lambda st: any(st is p for p in planted))


def test_planted_key_disagreement_names_the_first_pair(space_dirline3, word_oracle):
    words = word_oracle.all_words()
    classes: dict = {}
    for n, w in enumerate(words):
        rep = next((r for r in classes if word_oracle.equal(words[r], w)), n)
        classes.setdefault(rep, []).append(n)
    cls = next(c for c in classes.values() if len(c) >= 3)
    first, chosen = cls[0], cls[1]
    # the chosen word's key, and no other, is perturbed
    chains = word_chains(space_dirline3, word_oracle)
    chain, key, walk = chains[chosen]
    chains[chosen] = (chain, ("planted", key), walk)

    rep = check_oracle_agreement(space_dirline3, word_oracle, chains)
    got = {c.check_id: c for c in rep.checks}
    assert got["oracle.agreement"].status == "fail"
    assert got["oracle.agreement"].witness == (
        f"words {_word_key(words[first])} and {_word_key(words[chosen])}: "
        "linear algebra says equal, closure says unequal")
    before = [(n, m) for n in range(first + 1) for m in range(n + 1, len(words))
              if (n, m) < (first, chosen)]
    n_equal = sum(word_oracle.equal(words[n], words[m]) for n, m in before)
    assert got["oracle.both_verdicts"].status == "fail"
    assert got["oracle.both_verdicts"].witness == (
        f"equal pairs: {n_equal}, unequal pairs: {len(before) - n_equal}")


def test_planted_action_disagreement_names_the_first_pair(space_dirline3, word_oracle,
                                                          monkeypatch):
    pairs = word_oracle.equal_pairs()
    chosen = pairs[len(pairs) // 2][1]
    psi = space_dirline3.q.morphisms.reps[-1]
    _plant_acted(space_dirline3, monkeypatch, chosen, psi)

    rep = invariants(space_dirline3, word_oracle)
    got = {c.check_id: c for c in rep.checks}
    w1 = next(a for a, b in pairs if chosen in (a, b))
    assert got["congruence.proj_invariant"].status == got["congruence.endpoints"].status == "pass"
    assert got["congruence.action_equivariant"].status == "fail"
    assert got["congruence.action_equivariant"].witness == (
        f"action by {psi} separates an equal pair {_word_key(w1)}")


@pytest.mark.parametrize("fixture,rank", [("inst_dirline3", 152), ("inst_a3j3_dirline3", None)])
def test_union_find_classes_match_the_echelon_reference(request, fixture, rank):
    space, pre = InstanceContext(request.getfixturevalue(fixture), 2).space
    assert pre.ok, pre.first_witness()
    oracle = WordOracle(space, max_len=3)
    ref = EchelonReference(oracle)

    def partition(label, words):
        classes: dict = {}
        for w in words:
            classes.setdefault(label(w), set()).add(w)
        return set(map(frozenset, classes.values()))

    for bk, words in oracle.blocks.items():
        assert partition(oracle.label, words) == partition(ref.labels.get, words)
        assert len(oracle.basis[bk]) == len(ref.rows[bk])
        # each residual is the unit vector at the class's largest index, the
        # oracle's root, so labels sort classes as residuals did
        for w in words:
            assert ref.labels[w] == (bk, ((oracle.label(w)[1], 1),))
    if rank is not None:
        assert sum(map(len, oracle.basis.values())) == rank


def pair_scan(words, labels, keys):
    """The first (n, m) on which labels and keys disagree, as the agreement
    witness, and the equal and unequal pairs before it."""
    n_equal = n_unequal = 0
    for n in range(len(words)):
        for m in range(n + 1, len(words)):
            vo, vm = labels[n] == labels[m], keys[n] == keys[m]
            if vo != vm:
                return (f"words {_word_key(words[n])} and {_word_key(words[m])}: "
                        f"linear algebra says {'equal' if vo else 'unequal'}, "
                        f"closure says {'equal' if vm else 'unequal'}"), n_equal, n_unequal
            n_equal += vo
            n_unequal += not vo
    return None, n_equal, n_unequal


def test_planted_merge_loss_fails_as_the_pair_scan_does(space_dirline3, monkeypatch):
    # without merges the oracle splits classes that the normal form joins
    monkeypatch.setattr(WordOracle, "_merges", lambda self, e1, e2: [])
    oracle = WordOracle(space_dirline3, max_len=3)
    ref = EchelonReference(oracle)
    words = oracle.all_words()
    keys = [space_dirline3.mor_key(BundleMorphism.chain(w)) for w in words]
    witness, n_equal, n_unequal = pair_scan(words, [ref.labels[w] for w in words], keys)
    assert witness.endswith("linear algebra says unequal, closure says equal")

    rep = agreement(space_dirline3, oracle)
    got = {c.check_id: c for c in rep.checks}
    assert got["oracle.agreement"].status == got["oracle.both_verdicts"].status == "fail"
    assert got["oracle.agreement"].witness == witness
    assert got["oracle.both_verdicts"].witness == (
        f"equal pairs: {n_equal}, unequal pairs: {n_unequal}")


@pytest.mark.parametrize("position", [1, -1])
def test_planted_action_fault_on_any_member_is_found(space_dirline3, word_oracle,
                                                     monkeypatch, position):
    # each member is compared with its class's first one, the second and the
    # last member included
    words = word_oracle.all_words()
    classes: dict = {}
    for w in words:
        classes.setdefault(word_oracle.label(w), []).append(w)
    cls = next(c for c in classes.values() if len(c) >= 3)
    psi = space_dirline3.q.morphisms.reps[0]
    _plant_acted(space_dirline3, monkeypatch, cls[position], psi)
    got = {c.check_id: c for c in invariants(space_dirline3, word_oracle).checks}
    assert got["congruence.action_equivariant"].status == "fail"
    assert got["congruence.action_equivariant"].witness.endswith(str(_word_key(cls[0])))


def test_action_plant_on_the_head_units_fails_the_invariants_instead_of_raising(
        space_dirline3, word_oracle, monkeypatch):
    # only the last unit is acted on, so a two-unit acted state breaks its
    # junction: the law names the word instead of raising
    act_state = space_dirline3.act_state
    monkeypatch.setattr(space_dirline3, "act_state",
                        lambda state, psi: state[:-1] + act_state(state[-1:], psi))
    got = {c.check_id: c for c in invariants(space_dirline3, word_oracle).checks}
    assert got["congruence.action_equivariant"].witness == (
        "action by ((12),(12)) breaks a junction of word "
        "(('0', (('e01', 1),), '1', ('1',), '((12),(12))'), "
        "('1', (('e12', 1),), '1', ('1',), '((123),(123))'))")


def test_planted_projection_fails_only_the_projection_invariant(monkeypatch):
    # a `project` that keeps only the first edge's walk splits the walks of
    # equal words, and no other row of the whole battery reads it
    monkeypatch.setattr(BundleSpace, "project", lambda self, m: m.edges[0].walk)
    rep = run_suite(build_instance("oracle-dirline3", 5, True), "all", 3)
    assert {c.check_id: c.witness for c in rep.failures()} == {
        "congruence.proj_invariant":
            "equal words project apart: "
            "(('0', (('e01', 1),), '1', ('1',), '((12),(12))'), "
            "('1', (('e12', 1),), '1', ('1',), '((123),(123))')) vs "
            "(('0', (('e01', 1), ('e12', 1)), '1', ('1',), '((12),(12))'),)"}


def test_oracle_requires_zero_length_edges_disabled():
    # a directed base with zero-length edges enabled: the oracle suite
    # refuses it before building the oracle, and the oracle refuses it too
    directed = build_instance("oracle-dirline3", 5, True)
    c = directed.cover
    edges = [(e, *c.edge_by_id[e]) for e in sorted(c.edge_by_id)]
    cover = CoverComplex(sorted(c.vertex_set), edges, c.cover, c.index_order,
                         directed=True, identity_edges=True)
    gc = generate_gerbal(directed.chain, cover, 5, noise=True)
    inst = Instance("dirline3-with-identities", 5, True, directed.chain, cover, gc)
    space, pre = InstanceContext(inst, 2).space
    assert pre.ok
    with pytest.raises(PreconditionError, match="^the word oracle needs zero-length edges "
                                                "disabled$"):
        WordOracle(space, max_len=2)
