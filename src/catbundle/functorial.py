"""Walk-level transition data built from a validated cocycle.

For each ordered chart pair the object assignment is u -> g_ik(u) and the
arrow assignment is

    theta_ik(gamma) = (h_ik(gamma_1) h_ik(gamma_0)^{-1}, g_ik(gamma_0))

whose target is g_ik(gamma_1); it depends on a walk only through its
endpoints. For each ordered triple there is a comparison arrow at each vertex

    T_ikm(u) = (h_ikm(u), g_ik(u) g_km(u))        with target g_im(u)

and a walk-level defect

    Theta_ikm(gamma) = (h_ikm(gamma_1) h_ikm(gamma_0)^{-1}, g_ikm(gamma_0)).

The cocycle's tables are dense and checked when it is built, so each
evaluation checks only that its walk or vertex lies in the overlap, which the
cover computes once per index tuple, and then reads the h, g and h_ikm tables
directly.

The checks below verify functoriality, the naturality square relating T and
theta, and the product relation Theta theta_ik theta_km = theta_im.
"""

from __future__ import annotations

from .complexes import PathMor, compose_paths, enumerate_paths
from .crossed import Arrow, arrow_compose, arrow_endpoints, arrow_identity, arrow_product
from .errors import CompositionError, DomainError
from .gerbal import GerbalCocycle, derive_tower
from .report import Report


class FunctorialCocycle:
    """A cocycle together with its derived tower, exposing walk-level evaluation."""

    def __init__(self, gc: GerbalCocycle):
        self.gc = gc
        self.tower = derive_tower(gc)
        self.chain = gc.chain
        self.cover = gc.cover

    def g(self, i: str, k: str, u: str) -> str:
        return self.tower.g[(i, k, u)]


def _require_inside(fc: FunctorialCocycle, indices: tuple[str, ...], walk: PathMor) -> None:
    if not fc.cover.overlap(indices).issuperset(walk.visited):
        raise DomainError(
            f"walk through {list(walk.visited)} leaves the overlap of {indices}"
        )


def eval_theta(fc: FunctorialCocycle, i: str, k: str, walk: PathMor) -> Arrow:
    _require_inside(fc, (i, k), walk)
    H, h = fc.chain.H, fc.gc.h
    u0, u1 = walk.start, walk.end
    return Arrow(H.op(h[(i, k, u1)], H.inverse(h[(i, k, u0)])), fc.tower.g[(i, k, u0)])


def eval_T(fc: FunctorialCocycle, i: str, k: str, m: str, u: str) -> Arrow:
    if u not in fc.cover.overlap((i, k, m)):
        raise DomainError(f"T_{i}{k}{m} is not defined at vertex {u!r}")
    g = fc.tower.g
    return Arrow(fc.tower.h3[(i, k, m, u)], fc.chain.G.op(g[(i, k, u)], g[(k, m, u)]))


def eval_Theta(fc: FunctorialCocycle, i: str, k: str, m: str, walk: PathMor) -> Arrow:
    _require_inside(fc, (i, k, m), walk)
    H, h3 = fc.chain.H, fc.tower.h3
    u0, u1 = walk.start, walk.end
    return Arrow(
        H.op(h3[(i, k, m, u1)], H.inverse(h3[(i, k, m, u0)])),
        fc.chain.tau(h3[(i, k, m, u0)]),
    )


def check_theta_functorial(fc: FunctorialCocycle, i: str, k: str, max_len: int = 3) -> Report:
    """Identity preservation, composition, target law, and endpoint dependence
    for theta_ik over all walks of bounded length inside the overlap."""
    rep = Report("functorial")
    cm = fc.chain.outer
    walks = enumerate_paths(fc.cover, (i, k), max_len)
    tag = f"{i}{k}"

    def bad_identities():
        for u in sorted(fc.cover.overlap((i, k))):
            got = eval_theta(fc, i, k, fc.cover.identity_walk(u))
            if got != arrow_identity(cm, fc.g(i, k, u)):
                yield f"theta_{tag}(id_{u}) = {got}"
    rep.search(f"theta.{tag}.identity", "theta(id_u) = id at g_ik(u)", bad_identities())

    def bad_targets():
        for w in walks:
            a = eval_theta(fc, i, k, w)
            if arrow_endpoints(cm, a) != (fc.g(i, k, w.start), fc.g(i, k, w.end)):
                yield f"theta_{tag} endpoints wrong on walk {w.start}:{list(w.steps)}"
    rep.search(f"theta.{tag}.target", "tau(h_ik(gamma)) g_ik(gamma_0) = g_ik(gamma_1)",
               bad_targets())

    def bad_composites():
        for w1 in walks:
            for w2 in walks:
                if w1.end != w2.start:
                    continue
                lhs = eval_theta(fc, i, k, compose_paths(fc.cover, w2, w1))
                try:
                    rhs = arrow_compose(cm, eval_theta(fc, i, k, w2),
                                        eval_theta(fc, i, k, w1))
                except CompositionError as err:
                    yield (
                        f"theta_{tag} images do not compose at "
                        f"{w1.start}:{list(w1.steps)} then {list(w2.steps)}: {err}"
                    )
                    continue
                if lhs != rhs:
                    yield (
                        f"theta_{tag}(gamma2 o gamma1) != theta(gamma2) o theta(gamma1) "
                        f"at {w1.start}:{list(w1.steps)} then {list(w2.steps)}"
                    )
    rep.search(f"theta.{tag}.compose",
               "theta(gamma2 o gamma1) = theta(gamma2) o theta(gamma1)", bad_composites())

    def walk_dependence():
        by_ends: dict[tuple[str, str], Arrow] = {}
        for w in walks:
            a = eval_theta(fc, i, k, w)
            prev = by_ends.setdefault((w.start, w.end), a)
            if prev != a:
                yield f"theta_{tag} differs on two walks {w.start} -> {w.end}"
    rep.search(f"theta.{tag}.endpoints", "theta(gamma) depends only on (gamma_0, gamma_1)",
               walk_dependence())
    return rep


def check_naturality(fc: FunctorialCocycle, i: str, k: str, m: str,
                     max_len: int = 3) -> Report:
    """The comparison arrows T_ikm are natural against theta:

        T_ikm(gamma_1) o (theta_ik(gamma) . theta_km(gamma))
            = theta_im(gamma) o T_ikm(gamma_0)
    """
    rep = Report("naturality")
    cm = fc.chain.outer
    tag = f"{i}{k}{m}"

    def bad_targets():
        for u in sorted(fc.cover.overlap((i, k, m))):
            _, tgt = arrow_endpoints(cm, eval_T(fc, i, k, m, u))
            if tgt != fc.g(i, m, u):
                yield f"t(T_{tag}({u})) = {tgt!r} != g_im({u}) = {fc.g(i, m, u)!r}"
    rep.search(f"naturality.{tag}.T_target", "t(T_ikm(u)) = g_im(u)", bad_targets())

    def bad_squares():
        for w in enumerate_paths(fc.cover, (i, k, m), max_len):
            try:
                lhs = arrow_compose(
                    cm, eval_T(fc, i, k, m, w.end),
                    arrow_product(cm, eval_theta(fc, i, k, w), eval_theta(fc, k, m, w)),
                )
                rhs = arrow_compose(cm, eval_theta(fc, i, m, w), eval_T(fc, i, k, m, w.start))
            except CompositionError as err:
                yield f"square at walk {w.start}:{list(w.steps)} does not compose: {err}"
                continue
            if lhs != rhs:
                yield f"square fails at walk {w.start}:{list(w.steps)}: {lhs} != {rhs}"
    rep.search(
        f"naturality.{tag}.square",
        "T(gamma_1) o (theta_ik(gamma) . theta_km(gamma)) = theta_im(gamma) o T(gamma_0)",
        bad_squares(),
    )
    return rep


def check_product_relation(fc: FunctorialCocycle, i: str, k: str, m: str,
                           max_len: int = 3) -> Report:
    """Theta_ikm(gamma) . theta_ik(gamma) . theta_km(gamma) = theta_im(gamma)."""
    rep = Report("product")
    cm = fc.chain.outer
    tag = f"{i}{k}{m}"

    def violations():
        for w in enumerate_paths(fc.cover, (i, k, m), max_len):
            lhs = arrow_product(
                cm, arrow_product(cm, eval_Theta(fc, i, k, m, w), eval_theta(fc, i, k, w)),
                eval_theta(fc, k, m, w),
            )
            rhs = eval_theta(fc, i, m, w)
            if lhs != rhs:
                yield f"fails at walk {w.start}:{list(w.steps)}: {lhs} != {rhs}"
    rep.search(
        f"product.{tag}.relation",
        "Theta_ikm(gamma) . theta_ik(gamma) . theta_km(gamma) = theta_im(gamma)",
        violations(),
    )
    return rep
