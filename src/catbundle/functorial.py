"""Transition data built from a validated cocycle, on a walk's endpoints.

For each ordered chart pair the object assignment is u -> g_ik(u) and the
arrow assignment on a walk gamma from u0 to u1 is

    theta_ik(gamma) = theta_ik(u0, u1) = (h_ik(u1) h_ik(u0)^{-1}, g_ik(u0))

whose target is g_ik(u1). For each ordered triple there is a comparison arrow
at each vertex

    T_ikm(u) = (h_ikm(u), g_ik(u) g_km(u))        with target g_im(u)

and a defect

    Theta_ikm(u0, u1) = (h_ikm(u1) h_ikm(u0)^{-1}, g_ikm(u0)).

theta and Theta read a walk only through its endpoints, so they take them.
Callers pass vertices of the overlap, and each evaluation reads the
cocycle's dense h table and the g and h_ikm tables of its tower. theta is
computed once per cocycle and (i, k, u0, u1): `eval_theta` keeps its values
in the cocycle's `theta` dict, and a call that raises stores nothing.

The checks below verify functoriality, the naturality square relating T and
theta, and the product relation Theta theta_ik theta_km = theta_im. Each
checks its law once per pair of vertices that a walk inside the overlap joins
(`CoverComplex.reachable`), and composition once per reachable triple
u0 -> u1 -> u2, so they cover walks of every length.
"""

from __future__ import annotations

from .crossed import Arrow, arrow_compose, arrow_endpoints, arrow_identity, arrow_product
from .gerbal import GerbalCocycle
from .report import Report


def eval_theta(gc: GerbalCocycle, i: str, k: str, u0: str, u1: str) -> Arrow:
    arrow = gc.theta.get((i, k, u0, u1))
    if arrow is None:
        H, h = gc.chain.H, gc.h
        arrow = gc.theta[i, k, u0, u1] = Arrow(
            H.op(h[(i, k, u1)], H.inverse(h[(i, k, u0)])), gc.tower.g[(i, k, u0)])
    return arrow


def eval_T(gc: GerbalCocycle, i: str, k: str, m: str, u: str) -> Arrow:
    g, h3 = gc.tower
    return Arrow(h3[(i, k, m, u)], gc.chain.G.op(g[(i, k, u)], g[(k, m, u)]))


def eval_Theta(gc: GerbalCocycle, i: str, k: str, m: str, u0: str, u1: str) -> Arrow:
    H, h3 = gc.chain.H, gc.tower.h3
    return Arrow(
        H.op(h3[(i, k, m, u1)], H.inverse(h3[(i, k, m, u0)])),
        gc.chain.tau(h3[(i, k, m, u0)]),
    )


def check_theta_functorial(gc: GerbalCocycle, i: str, k: str) -> Report:
    """Identity preservation, composition and the target law for theta_ik on
    every reachable pair and triple of the overlap."""
    rep = Report("functorial")
    cm, g = gc.chain.outer, gc.tower.g
    pairs = gc.cover.reachable((i, k))
    tag = f"{i}{k}"

    def bad_identities():
        for u in sorted(gc.cover.overlap((i, k))):
            got = eval_theta(gc, i, k, u, u)
            if got != arrow_identity(cm, g[(i, k, u)]):
                yield f"theta_{tag}(id_{u}) = {got}"
    rep.search(f"theta.{tag}.identity", "theta(id_u) = id at g_ik(u)", bad_identities())

    def bad_targets():
        for u0, u1 in pairs:
            a = eval_theta(gc, i, k, u0, u1)
            if arrow_endpoints(cm, a) != (g[(i, k, u0)], g[(i, k, u1)]):
                yield f"theta_{tag} endpoints wrong on pair {u0} -> {u1}"
    rep.search(f"theta.{tag}.target", "tau(h_ik(gamma)) g_ik(gamma_0) = g_ik(gamma_1)",
               bad_targets())

    def bad_composites():
        ends_from: dict[str, list[str]] = {}
        for u0, u1 in pairs:
            ends_from.setdefault(u0, []).append(u1)
        for u0, u1 in pairs:
            for u2 in ends_from[u1]:
                lhs = eval_theta(gc, i, k, u0, u2)
                rhs = arrow_compose(cm, eval_theta(gc, i, k, u1, u2),
                                    eval_theta(gc, i, k, u0, u1))
                if lhs != rhs:
                    yield (f"theta_{tag}(gamma2 o gamma1) != theta(gamma2) o theta(gamma1) "
                           f"at {u0} -> {u1} -> {u2}")
    rep.search(f"theta.{tag}.compose",
               "theta(gamma2 o gamma1) = theta(gamma2) o theta(gamma1)", bad_composites())
    return rep


def check_naturality(gc: GerbalCocycle, i: str, k: str, m: str) -> Report:
    """The comparison arrows T_ikm are natural against theta on every
    reachable pair (u0, u1) of the overlap:

        T_ikm(u1) o (theta_ik(u0, u1) . theta_km(u0, u1))
            = theta_im(u0, u1) o T_ikm(u0)
    """
    rep = Report("naturality")
    cm, g = gc.chain.outer, gc.tower.g
    tag = f"{i}{k}{m}"

    def bad_targets():
        for u in sorted(gc.cover.overlap((i, k, m))):
            _, tgt = arrow_endpoints(cm, eval_T(gc, i, k, m, u))
            if tgt != g[(i, m, u)]:
                yield f"t(T_{tag}({u})) = {tgt!r} != g_im({u}) = {g[(i, m, u)]!r}"
    rep.search(f"naturality.{tag}.T_target", "t(T_ikm(u)) = g_im(u)", bad_targets())

    def bad_squares():
        for u0, u1 in gc.cover.reachable((i, k, m)):
            lhs = arrow_compose(
                cm, eval_T(gc, i, k, m, u1),
                arrow_product(cm, eval_theta(gc, i, k, u0, u1), eval_theta(gc, k, m, u0, u1)),
            )
            rhs = arrow_compose(cm, eval_theta(gc, i, m, u0, u1), eval_T(gc, i, k, m, u0))
            if lhs != rhs:
                yield f"square fails at pair {u0} -> {u1}: {lhs} != {rhs}"
    rep.search(
        f"naturality.{tag}.square",
        "T(gamma_1) o (theta_ik(gamma) . theta_km(gamma)) = theta_im(gamma) o T(gamma_0)",
        bad_squares(),
    )
    return rep


def check_product_relation(gc: GerbalCocycle, i: str, k: str, m: str) -> Report:
    """Theta_ikm . theta_ik . theta_km = theta_im on every reachable pair of
    the overlap."""
    rep = Report("product")
    cm = gc.chain.outer
    tag = f"{i}{k}{m}"

    def violations():
        for u0, u1 in gc.cover.reachable((i, k, m)):
            lhs = arrow_product(
                cm, arrow_product(cm, eval_Theta(gc, i, k, m, u0, u1),
                                  eval_theta(gc, i, k, u0, u1)),
                eval_theta(gc, k, m, u0, u1),
            )
            rhs = eval_theta(gc, i, m, u0, u1)
            if lhs != rhs:
                yield f"fails at pair {u0} -> {u1}: {lhs} != {rhs}"
    rep.search(
        f"product.{tag}.relation",
        "Theta_ikm(gamma) . theta_ik(gamma) . theta_km(gamma) = theta_im(gamma)",
        violations(),
    )
    return rep
