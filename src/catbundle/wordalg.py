"""Graded word oracle for morphism-word equality.

Works over a directed base with zero-length edges disabled: then every
decorated edge advances the base point, so words have at most max_len edges
and the word inventory is finite. Words are graded by their composite base
walk; every rewrite generator is homogeneous for that grading (both sides
share the composite walk and the endpoint objects), so the two-sided ideal
meets each graded block in the span of the in-block context products, all of
which stay inside the inventory. Each such generator is a binomial e_n - e_m,
and e_a - e_b lies in the span of binomials exactly when a and b are joined
by a path of generators. So two words are equal in the quotient precisely
when a union-find over each block's generators puts them in one class.
The directed precondition also bounds the oracle's cost, since undirected
words may backtrack and the inventory then grows far faster with max_len.

The one-pass normal form in the bundle module is sound by construction; this
module is the independent completeness cross-check, so it deliberately avoids
the normal-form code path and re-derives everything from the generators.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .bundle import BundleMorphism, BundleSpace, QuiverEdge
from .complexes import compose_paths, walks_within
from .errors import InternalInvariantError, PreconditionError
from .report import Report

Word = tuple  # tuple of QuiverEdge


def _edge_key(e: QuiverEdge):
    return (e.walk.start, e.walk.steps, e.chart, e.charts, e.phi)


def _word_key(w: Word):
    return tuple(_edge_key(e) for e in w)


class WordOracle:
    def __init__(self, space: BundleSpace, max_len: int = 3):
        cover = space.cover
        if not cover.directed:
            raise PreconditionError("the word oracle needs a directed base")
        if cover.identity_edges:
            raise PreconditionError(
                "the word oracle needs zero-length edges disabled")
        self.space = space
        self.max_len = max_len
        self._build_edges()
        self._build_words()
        self._build_classes()

    # ----- inventory ---------------------------------------------------------

    def _build_edges(self) -> None:
        space, cover, q = self.space, self.space.cover, self.space.q
        combos: dict[tuple, list[tuple[str, tuple[str, ...]]]] = {}
        edges: list[QuiverEdge] = []
        for w in walks_within(cover, cover.vertex_set, self.max_len):
            if not w.steps:
                continue
            # every subset of the charts holding w holds w in its overlap; a
            # walk that no chart holds gets no edge
            charts = cover.charts_containing(w.visited)
            cl = [(i, sub) for r in range(1, len(charts) + 1)
                  for sub in combinations(charts, r) for i in sub]
            combos[(w.start, w.steps)] = cl
            for i, sub in cl:
                for phi in q.morphisms.reps:
                    edges.append(QuiverEdge(i, sub, w, phi))
        edges.sort(key=_edge_key)
        self.edges = edges
        self.combos = combos
        self.s_obj = {e: space.edge_endpoints(e)[0] for e in edges}
        self.t_obj = {e: space.edge_endpoints(e)[1] for e in edges}

    def _build_words(self) -> None:
        by_source: dict = {}
        for e in self.edges:
            by_source.setdefault(self.s_obj[e], []).append(e)
        words: list[Word] = [(e,) for e in self.edges]
        frontier = list(words)
        while frontier:
            nxt = []
            for w in frontier:
                used = sum(len(e.walk.steps) for e in w)
                for e in by_source.get(self.t_obj[w[-1]], ()):
                    if used + len(e.walk.steps) <= self.max_len:
                        nxt.append(w + (e,))
            words.extend(nxt)
            frontier = nxt
        self.blocks: dict[tuple, list[Word]] = {}
        for w in words:
            self.blocks.setdefault(self._block_of(w), []).append(w)
        for bl in self.blocks.values():
            bl.sort(key=_word_key)
        self.word_index: dict[tuple, dict[Word, int]] = {
            bk: {w: n for n, w in enumerate(bl)} for bk, bl in self.blocks.items()
        }

    @staticmethod
    def _block_of(w: Word) -> tuple:
        return (w[0].walk.start, tuple(s for e in w for s in e.walk.steps))

    # ----- rewrite generators and their classes ------------------------------

    def _reindex_partners(self, e: QuiverEdge) -> list[QuiverEdge]:
        space, q = self.space, self.space.q
        out = []
        for j, sub in self.combos[(e.walk.start, e.walk.steps)]:
            if (j, sub) == (e.chart, e.charts):
                continue
            phi = q.mor_product(space.thetabar(j, e.chart, e.walk), e.phi)
            out.append(QuiverEdge(j, sub, e.walk, phi))
        return out

    def _merges(self, e1: QuiverEdge, e2: QuiverEdge) -> list[QuiverEdge]:
        space, q = self.space, self.space.q
        shared = sorted(set(e1.charts) & set(e2.charts))
        out = []
        composite = compose_paths(space.cover, e2.walk, e1.walk)
        for r in range(1, len(shared) + 1):
            for sub in combinations(shared, r):
                for k in sub:
                    a = e1.phi if k == e1.chart else q.mor_product(
                        space.thetabar(k, e1.chart, e1.walk), e1.phi)
                    b = e2.phi if k == e2.chart else q.mor_product(
                        space.thetabar(k, e2.chart, e2.walk), e2.phi)
                    psi = q.compose_of(b, a)
                    out.append(QuiverEdge(k, tuple(sub), composite, psi))
        return out

    def _generators(self, bk: tuple):
        """(n, m) for each rewrite generator e_n - e_m of block `bk`: a word
        with one edge re-indexed, or two adjacent edges merged."""
        idx = self.word_index[bk]
        try:
            for n, w in enumerate(self.blocks[bk]):
                for p, e in enumerate(w):
                    for e2 in self._reindex_partners(e):
                        yield n, idx[w[:p] + (e2,) + w[p + 1:]]
                for p in range(len(w) - 1):
                    for e3 in self._merges(w[p], w[p + 1]):
                        yield n, idx[w[:p] + (e3,) + w[p + 2:]]
        except KeyError as exc:
            raise InternalInvariantError(
                f"rewrite produced a word outside the inventory: {exc}") from exc

    def _build_classes(self) -> None:
        """One union-find per block whose root is its class's largest index;
        `basis[bk]` maps each non-root to its parent, so its size is the rank
        of the block's generators."""
        self.basis: dict[tuple, dict[int, int]] = {}
        self._labels: dict[Word, tuple] = {}
        for bk in sorted(self.blocks):
            parent = list(range(len(self.blocks[bk])))

            def find(n: int) -> int:
                while parent[n] != n:
                    parent[n] = n = parent[parent[n]]
                return n

            for a, b in self._generators(bk):
                a, b = find(a), find(b)
                if a != b:
                    parent[min(a, b)] = max(a, b)
            for n, w in enumerate(self.blocks[bk]):
                self._labels[w] = (bk, find(n))
            self.basis[bk] = {n: p for n, p in enumerate(parent) if n != p}

    # ----- the decision procedure --------------------------------------------

    def label(self, w: Word) -> tuple:
        """(block, root) of an inventory word: its block's union-find root, the
        largest index of its class; two words are equal exactly when their
        labels are."""
        try:
            return self._labels[w]
        except KeyError:
            raise PreconditionError(
                f"word {_word_key(w)} is not in the oracle's inventory") from None

    def equal(self, w1: Word, w2: Word) -> bool:
        """Compare the stored labels of two inventory words."""
        return self.label(w1) == self.label(w2)

    def all_words(self) -> list[Word]:
        out = []
        for bk in sorted(self.blocks):
            out.extend(self.blocks[bk])
        return out

    def equal_pairs(self) -> list[tuple[Word, Word]]:
        """Every pair of equal words, class by class in label order, each
        class in word order."""
        words = self.all_words()
        return [(words[n], words[m]) for cls in _classes([self.label(w) for w in words])
                for n, m in combinations(cls, 2)]


def _classes(labels: list) -> list[list[int]]:
    """The positions of each label, in label order (block, then root), each
    class in word order."""
    classes: dict = {}
    for n, lab in enumerate(labels):
        classes.setdefault(lab, []).append(n)
    return [classes[lab] for lab in sorted(classes)]


def word_chains(space: BundleSpace, oracle: WordOracle) -> list[tuple]:
    """(unit state, `mor_key`, (walk start, walk steps)) of each word, in
    `all_words` order: each word is chained, split, keyed and projected once
    for both checks below."""
    out = []
    for w in oracle.all_words():
        m = BundleMorphism.chain(w)
        walk = space.project(m)
        ends = space.mor_endpoints(m)
        state = space.unit_split(m)
        out.append((state, (ends, space.component_of(state)), (walk.start, walk.steps)))
    return out


def check_oracle_agreement(space: BundleSpace, oracle: WordOracle, chains: list) -> Report:
    """Every word pair, both procedures, zero tolerated disagreements.

    Each word's key comes from `chains` (`word_chains`), and each word is
    labelled once by the oracle. The two agree on every pair exactly when
    labels and keys determine each other, and then the pair counts follow
    from the class sizes. Only otherwise does the pair loop run, in (n, m)
    order, so the witness names the first disagreeing pair and the counts
    stop there."""
    rep = Report("oracle")
    words = oracle.all_words()
    labels = [oracle.label(w) for w in words]
    keys = [key for _, key, _ in chains]

    key_of: dict = {}
    label_of: dict = {}
    witness = None
    if all(key_of.setdefault(lab, key) == key and label_of.setdefault(key, lab) == lab
           for lab, key in zip(labels, keys)):
        n_equal = sum(len(cls) * (len(cls) - 1) // 2 for cls in _classes(labels))
        n_unequal = len(words) * (len(words) - 1) // 2 - n_equal
    else:
        n_equal = n_unequal = 0
        for n, m in combinations(range(len(words)), 2):
            vo = labels[n] == labels[m]
            vm = keys[n] == keys[m]
            if vo != vm:
                witness = (
                    f"words {_word_key(words[n])} and {_word_key(words[m])}: "
                    f"linear algebra says {'equal' if vo else 'unequal'}, "
                    f"closure says {'equal' if vm else 'unequal'}"
                )
                break
            if vo:
                n_equal += 1
            else:
                n_unequal += 1
    rep.record("oracle.agreement",
               "congruence closure matches exact ideal membership on all pairs",
               witness is None, witness)
    rep.record("oracle.both_verdicts",
               "the comparison exercises equal and unequal pairs",
               witness is None and n_equal > 0 and n_unequal > 0,
               f"equal pairs: {n_equal}, unequal pairs: {n_unequal}")
    return rep


def check_congruence_invariants(space: BundleSpace, oracle: WordOracle,
                                chains: list) -> Report:
    """Equal words must share projection and stay equal under the fiber
    action; that they share endpoints is `oracle.agreement`, whose keys hold
    them.

    Each word's unit state, key and walk come from `chains`. A compared
    word's state acted on by psi is keyed with `composed_key` once per (word,
    psi), on the first comparison that needs it; an acted state that does not
    compose fails the law with its own witness. Each law is an equality, so
    it compares each member of a class with the class's first member n. If some pair of a
    class breaks the law, then n and some member do, so the first such
    (n, m), class by class, is also the first broken pair in `equal_pairs`
    order."""
    rep = Report("oracle")
    words = oracle.all_words()
    classes = _classes([oracle.label(w) for w in words])
    states = [state for state, _, _ in chains]
    walks = [walk for _, _, walk in chains]
    pairs = [(cls[0], m) for cls in classes for m in cls[1:]]

    rep.search("congruence.proj_invariant", "equal words project to the same base walk", (
        f"equal words project apart: {_word_key(words[n])} vs {_word_key(words[m])}"
        for n, m in pairs if walks[n] != walks[m]))

    acted_key = cache(lambda n, psi: space.composed_key(space.act_state(states[n], psi)))

    def separations():
        for n, m in pairs:
            for psi in space.q.morphisms.reps:
                key_n, key_m = acted_key(n, psi), acted_key(m, psi)
                if key_n is None or key_m is None:
                    word = words[n if key_n is None else m]
                    yield f"action by {psi} breaks a junction of word {_word_key(word)}"
                elif key_n != key_m:
                    yield f"action by {psi} separates an equal pair {_word_key(words[n])}"
    rep.search("congruence.action_equivariant", "the fiber action preserves word equality",
               separations())
    return rep
