"""A reference for the word oracle's classes: exact rational echelon reduction.

Each rewrite generator e_n - e_m of a graded block is reduced against the
rows found so far, and what is left becomes a new row, scaled so that its
pivot, its smallest column, has coefficient 1. A word's residual is its unit
vector reduced against every row of its block, and two words of a block are
equal in the quotient exactly when their residuals are. The generators come
from the oracle's own scan (`WordOracle._generators`), so this checks only
the step from generators to classes, which the oracle takes by union-find.
"""

from fractions import Fraction


def reduce(rows, vec):
    """`vec` with every pivot it reaches eliminated, smallest column first."""
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


class EchelonReference:
    def __init__(self, oracle):
        self.rows = {}
        self.labels = {}
        for bk, words in oracle.blocks.items():
            rows = {}
            for n, m in oracle._generators(bk):
                vec = reduce(rows, {n: Fraction(1), m: Fraction(-1)} if n != m else {})
                if vec:
                    p = min(vec)
                    rows[p] = {col: val / vec[p] for col, val in vec.items()}
            self.rows[bk] = rows
            for n, w in enumerate(words):
                self.labels[w] = (bk, tuple(sorted(reduce(rows, {n: Fraction(1)}).items())))
