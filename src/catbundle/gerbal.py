"""Local cocycle data over a covered base, its validation, and its derived tower.

The data consists of two dense tables over the cover: h maps (i, k, u) with u
in the pairwise overlap to the middle group H, and j maps (i, k, m, u) with u
in the triple overlap to the top group J. The governing law at every ordered
triple and every vertex of its overlap is

    h_im(u) = tau'(j_ikm(u)) h_ik(u) h_km(u)

with the diagonal normalized to h_ii(u) = e. Like every table, h and j are
checked once, by `groups.checked_table`, when a GerbalCocycle is built: a
missing or extra entry, or a value outside its group, is a SchemaError, so
every later layer reads the tables without re-checking them. The cocycle
derives its tower on first read, so `generate` never derives one, and
keeps each theta_ik(u0, u1) that `functorial.eval_theta` computes. Law
violations are reported with witnesses.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .complexes import CoverComplex
from .crossed import Arrow, ChainedCrossedModules
from .groups import checked_table
from .report import Report


class GerbalCocycle:
    """Dense (h, j) tables for a chain of crossed modules over a covered base."""

    def __init__(self, chain: ChainedCrossedModules, cover: CoverComplex,
                 h: dict[tuple[str, str, str], str],
                 j: dict[tuple[str, str, str, str], str]):
        self.chain = chain
        self.cover = cover
        # checked here once, so every later layer reads the tables without
        # re-checking a key
        h_keys = sorted((i, k, u) for i, k in cover.overlapping(2)
                        for u in cover.overlap((i, k)))
        j_keys = sorted((i, k, m, u) for i, k, m in cover.overlapping(3)
                        for u in cover.overlap((i, k, m)))
        self.h = checked_table("h", h, h_keys, chain.H)
        self.j = checked_table("j", j, j_keys, chain.J)
        # (i, k, u0, u1) -> theta_ik(u0, u1), filled by `functorial.eval_theta`
        self.theta: dict[tuple[str, str, str, str], Arrow] = {}

    @cached_property
    def tower(self) -> DerivedTower:
        return derive_tower(self)


def validate_gerbal(gc: GerbalCocycle) -> Report:
    """Diagonal normalization and the defining relation at every ordered triple."""
    chain = gc.chain
    H = chain.H
    rep = Report("gerbal")

    rep.search("gerbal.diagonal", "h_ii(u) = e", (
        f"h_{i}{i}({u}) = {gc.h[(i, i, u)]!r} != e"
        for i in gc.cover.index_order for u in sorted(gc.cover.chart(i))
        if gc.h[(i, i, u)] != H.identity))

    def relation_violations():
        for i, k, m in gc.cover.overlapping(3):
            for u in sorted(gc.cover.overlap((i, k, m))):
                lhs = gc.h[(i, m, u)]
                rhs = H.op(
                    chain.tau_p(gc.j[(i, k, m, u)]),
                    H.op(gc.h[(i, k, u)], gc.h[(k, m, u)]),
                )
                if lhs != rhs:
                    yield (
                        f"at (i,k,m,u)=({i},{k},{m},{u}): "
                        f"h_im = {lhs!r} but tau'(j) h_ik h_km = {rhs!r}"
                    )
    rep.search("gerbal.relation", "h_im(u) = tau'(j_ikm(u)) h_ik(u) h_km(u)",
               relation_violations())
    return rep


class DerivedTower(NamedTuple):
    """The pushed-down tables g_ik = tau(h_ik) and h_ikm = tau'(j_ikm)."""
    g: dict[tuple[str, str, str], str]
    h3: dict[tuple[str, str, str, str], str]


def derive_tower(gc: GerbalCocycle) -> DerivedTower:
    """Push h and j down one level, checking nothing: the induced relation
    h_im = h_ikm h_ik h_km is `gerbal.relation` itself, and
    g_im = tau(h_ikm) g_ik g_km is tau applied to it, which the `peiffer`
    battery covers by checking that tau is a homomorphism."""
    chain = gc.chain
    g = {(i, k, u): chain.tau(v) for (i, k, u), v in gc.h.items()}
    h3 = {key: chain.tau_p(v) for key, v in gc.j.items()}
    return DerivedTower(g, h3)


def check_second_gerbe(gc: GerbalCocycle) -> Report:
    """The compatibility of the derived triple table with itself:

        h_ijm(u) alpha_{g_ij(u)}(h_jkm(u)) = h_ikm(u) h_ijk(u)

    at every ordered quadruple with nonempty overlap.
    """
    chain, tower = gc.chain, gc.tower
    H = chain.H
    rep = Report("gerbal")

    def violations():
        for i, j, k, m in gc.cover.overlapping(4):
            for u in sorted(gc.cover.overlap((i, j, k, m))):
                lhs = H.op(
                    tower.h3[(i, j, m, u)],
                    chain.alpha(tower.g[(i, j, u)], tower.h3[(j, k, m, u)]),
                )
                rhs = H.op(tower.h3[(i, k, m, u)], tower.h3[(i, j, k, u)])
                if lhs != rhs:
                    yield (
                        f"at (i,j,k,m,u)=({i},{j},{k},{m},{u}): "
                        f"h_ijm a_(g_ij)(h_jkm) = {lhs!r} != h_ikm h_ijk = {rhs!r}"
                    )
    rep.search("gerbal.second", "h_ijm(u) alpha_g_ij(u)(h_jkm(u)) = h_ikm(u) h_ijk(u)",
               violations())
    return rep
