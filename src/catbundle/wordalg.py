"""Exact linear-algebra oracle for morphism-word equality.

Works over a directed base with zero-length edges disabled: then every
decorated edge advances the base point, so words have at most max_len edges
and the word inventory is finite. Words are graded by their composite base
walk; every rewrite generator is homogeneous for that grading (both sides
share the composite walk and the endpoint objects), so the two-sided ideal
meets each graded block in the span of the in-block context products, all of
which stay inside the inventory. That makes per-block Gaussian elimination
over the rationals an exact decision procedure: two words are equal in the
quotient precisely when their residuals against the echelon basis coincide.

The one-pass normal form in the bundle module is sound by construction; this
module is the independent completeness cross-check, so it deliberately avoids
the normal-form code path and re-derives everything from the generators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .bundle import BundleMorphism, BundleSpace, QuiverEdge
from .complexes import compose_paths, enumerate_paths, overlap, walk_inside
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
        self._build_basis()
        self._labels = {w: (bk, r) for bk, res in self._residuals.items()
                        for w, r in res.items()}

    # ----- inventory ---------------------------------------------------------

    def _build_edges(self) -> None:
        space, cover, q = self.space, self.space.cover, self.space.q
        combos: dict[tuple, list[tuple[str, tuple[str, ...]]]] = {}
        walks = [w for i in cover.index_order
                 for w in enumerate_paths(cover, (i,), self.max_len) if len(w)]
        seen = set()
        edges: list[QuiverEdge] = []
        for w in walks:
            wk = (w.start, w.steps)
            if wk in seen:
                continue
            seen.add(wk)
            charts = cover.charts_containing(w.visited)
            cl: list[tuple[str, tuple[str, ...]]] = []
            for r in range(1, len(charts) + 1):
                for sub in combinations(charts, r):
                    region = overlap(cover, sub)
                    if not walk_inside(cover, w, region):
                        continue
                    for i in sub:
                        cl.append((i, tuple(sub)))
            combos[wk] = cl
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
                used = sum(len(e.walk) for e in w)
                for e in by_source.get(self.t_obj[w[-1]], ()):
                    if used + len(e.walk) <= self.max_len:
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

    def _block_of(self, w: Word) -> tuple:
        walk = w[0].walk
        for e in w[1:]:
            walk = compose_paths(self.space.cover, e.walk, walk)
        return (walk.start, walk.steps)

    # ----- rewrite generators as rational vectors ----------------------------

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

    def _vector(self, bk: tuple, w_plus: Word, w_minus: Word) -> dict[int, Fraction]:
        idx = self.word_index[bk]
        try:
            a, b = idx[w_plus], idx[w_minus]
        except KeyError as exc:
            raise InternalInvariantError(
                f"rewrite produced a word outside the inventory: {exc}") from exc
        if a == b:
            return {}
        return {a: Fraction(1), b: Fraction(-1)}

    def _build_basis(self) -> None:
        self.basis: dict[tuple, dict[int, dict[int, Fraction]]] = {}
        for bk in sorted(self.blocks):
            rows: dict[int, dict[int, Fraction]] = {}
            for w in self.blocks[bk]:
                for p, e in enumerate(w):
                    for e2 in self._reindex_partners(e):
                        vec = self._vector(bk, w, w[:p] + (e2,) + w[p + 1:])
                        self._reduce_insert(rows, vec)
                for p in range(len(w) - 1):
                    for e3 in self._merges(w[p], w[p + 1]):
                        vec = self._vector(bk, w, w[:p] + (e3,) + w[p + 2:])
                        self._reduce_insert(rows, vec)
            self.basis[bk] = rows
        self._residuals: dict[tuple, dict[Word, tuple]] = {}
        for bk, bl in self.blocks.items():
            rows = self.basis[bk]
            res = {}
            for n, w in enumerate(bl):
                red = self._reduce(rows, {n: Fraction(1)})
                res[w] = tuple(sorted(red.items()))
            self._residuals[bk] = res

    @staticmethod
    def _reduce(rows: dict[int, dict[int, Fraction]],
                vec: dict[int, Fraction]) -> dict[int, Fraction]:
        vec = dict(vec)
        while vec:
            p = min(vec)
            row = rows.get(p)
            if row is None:
                return vec
            c = vec[p]
            for col, val in row.items():
                nv = vec.get(col, Fraction(0)) - c * val
                if nv:
                    vec[col] = nv
                else:
                    vec.pop(col, None)
        return vec

    @classmethod
    def _reduce_insert(cls, rows: dict[int, dict[int, Fraction]],
                       vec: dict[int, Fraction]) -> None:
        """Reduce `vec` and add what is left, normalised, as a new row."""
        vec = cls._reduce(rows, vec)
        if vec:
            p = min(vec)
            c = vec[p]
            rows[p] = {col: val / c for col, val in vec.items()}

    # ----- the decision procedure --------------------------------------------

    def label(self, w: Word) -> tuple:
        """(block, residual) of an inventory word, read from the echelon data;
        two words are equal exactly when their labels are."""
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
        words = self.all_words()
        return [(words[n], words[m])
                for n, m in _equal_positions([self.label(w) for w in words])]


def _equal_positions(labels: list) -> list[tuple[int, int]]:
    """Every (n, m), n < m, with equal labels, class by class in label order
    (block, then residual), each class in word order."""
    classes: dict = {}
    for n, lab in enumerate(labels):
        classes.setdefault(lab, []).append(n)
    return [(n, m) for lab in sorted(classes)
            for k, n in enumerate(classes[lab]) for m in classes[lab][k + 1:]]


def check_oracle_agreement(space: BundleSpace, oracle: WordOracle) -> Report:
    """Every word pair, both procedures, zero tolerated disagreements.

    Each word is keyed once with `space.mor_key` and labelled once by the
    oracle; the pair loop compares stored keys and stored labels in (n, m)
    order, so the witness names the first disagreeing pair."""
    rep = Report("oracle")
    words = oracle.all_words()
    labels = [oracle.label(w) for w in words]
    keys = [space.mor_key(BundleMorphism.chain(w)) for w in words]

    witness = None
    n_equal = n_unequal = 0
    for n in range(len(words)):
        for m in range(n + 1, len(words)):
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
        if witness:
            break
    rep.record("oracle.agreement",
               "congruence closure matches exact ideal membership on all pairs",
               witness is None, witness)
    rep.record("oracle.both_verdicts",
               "the comparison exercises equal and unequal pairs",
               witness is None and n_equal > 0 and n_unequal > 0,
               f"equal pairs: {n_equal}, unequal pairs: {n_unequal}")
    return rep


def check_congruence_invariants(space: BundleSpace, oracle: WordOracle) -> Report:
    """Equal words must share projection and endpoints and stay equal under
    the fiber action.

    Each word's chain, projection and endpoints are computed once, and the key
    of `act_mor(word, psi)` once per (word, psi), on the first pair that needs
    it; the pair loops, in `equal_pairs` order, compare the stored values."""
    rep = Report("oracle")
    words = oracle.all_words()
    pairs = _equal_positions([oracle.label(w) for w in words])
    mors = [BundleMorphism.chain(w) for w in words]

    walks = [(p.start, p.steps) for p in map(space.project, mors)]
    rep.search("congruence.proj_invariant", "equal words project to the same base walk", (
        f"equal words project apart: {_word_key(words[n])} vs {_word_key(words[m])}"
        for n, m in pairs if walks[n] != walks[m]))

    ends = [space.mor_endpoints(mor) for mor in mors]
    rep.search("congruence.endpoints", "equal words share source and target objects", (
        f"equal words with different endpoints: {_word_key(words[n])}"
        for n, m in pairs if ends[n] != ends[m]))

    acted: dict[tuple[int, str], tuple] = {}

    def acted_key(n: int, psi: str) -> tuple:
        if (n, psi) not in acted:
            acted[n, psi] = space.mor_key(space.act_mor(mors[n], psi))
        return acted[n, psi]

    rep.search("congruence.action_equivariant", "the fiber action preserves word equality", (
        f"action by {psi} separates an equal pair {_word_key(words[n])}"
        for n, m in pairs for psi in space.q.morphisms.reps
        if acted_key(n, psi) != acted_key(m, psi)))
    return rep
