"""Crossed modules, the arrow group they generate, and chained pairs.

A crossed module (G, H, alpha, tau) is a group map tau: H -> G together with
an action alpha of G on H subject to two compatibility identities:

    first:  tau(alpha_g(h)) = g tau(h) g^{-1}
    second: alpha_{tau(h)}(h') = h h' h^{-1}

Arrows (h, g) in H x G carry two structures at once. As a category:
source (h, g) = g, target (h, g) = tau(h) g, and (h2, g2) o (h1, g1) =
(h2 h1, g1) when g2 = tau(h1) g1. As a group: the semidirect product
(h2, g2) (h1, g1) = (h2 alpha_{g2}(h1), g2 g1) and (h, g)^-1 =
(alpha_{g^-1}(h^-1), g^-1), written only in `arrow_product` and `arrow_inverse`.
No table of H x| G is built: its users multiply arrows where they need a
product, and name them by `pair_id`. Once the components pass, the Peiffer
identities are decided on generators; witnesses come from the full scan.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Optional

from .errors import CompositionError, SchemaError
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    generators,
    validate_action,
    validate_group,
    validate_hom,
)
from .report import Report


class Arrow(NamedTuple):
    """An element (h, g) of H x G, an arrow from g to tau(h) g."""
    h: str
    g: str


class CrossedModule:
    """Container for (G, H, alpha, tau); use validate_peiffer to check the laws."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup, alpha: GroupAction, tau: GroupHom,
                 name: str = ""):
        if alpha.actor is not G:
            raise SchemaError(f"crossed module {name!r}: alpha's actor is not G")
        if alpha.space is not H:
            raise SchemaError(f"crossed module {name!r}: alpha's space is not H")
        if tau.domain is not H or tau.codomain is not G:
            raise SchemaError(f"crossed module {name!r}: tau is not a map H -> G")
        self.G = G
        self.H = H
        self.alpha = alpha
        self.tau = tau
        self.name = name or f"({H.name} -> {G.name})"


def validate_peiffer(cm: CrossedModule,
                     groups: Optional[dict[FiniteGroup, bool]] = None) -> Report:
    """Component validity first, then both compatibility identities, decided
    on generators once the components pass. The first identity makes tau(H)
    normal in G, so that has no row of its own. `groups` maps each group
    validated so far to its verdict: a chain hands one dict to both of its
    modules, so a group the report has already checked is not checked again."""
    rep = Report("peiffer")
    groups = {} if groups is None else groups
    for g in (cm.G, cm.H):
        if g not in groups:
            sub = validate_group(g)
            groups[g] = sub.ok
            rep.record(
                f"peiffer.{cm.name}.component.group.{g.name}",
                "component is a group", sub.ok, sub.first_witness(),
            )
    groups_hold = groups[cm.G] and groups[cm.H]
    tau_hom = validate_hom(cm.tau)
    rep.record(
        f"peiffer.{cm.name}.component.hom.{cm.tau.name}",
        "tau is a homomorphism", tau_hom.ok, tau_hom.first_witness(),
    )
    sub = validate_action(cm.alpha, groups_hold)
    rep.record(
        f"peiffer.{cm.name}.component.action.{cm.alpha.name}",
        "alpha is an action by automorphisms", sub.ok, sub.first_witness(),
    )
    laws_hold = groups_hold and rep.ok
    g_gens, h_gens = generators(cm.G.elements, cm.G.op), generators(cm.H.elements, cm.H.op)

    def first_violations(gs, hs):
        for g in gs:
            for h in hs:
                lhs = cm.tau(cm.alpha(g, h))
                rhs = cm.G.conj(g, cm.tau(h))
                if lhs != rhs:
                    yield f"tau(alpha_{g}({h})) = {lhs!r} != {g} tau({h}) {g}^-1 = {rhs!r}"
    rep.search(f"peiffer.{cm.name}.first", "tau(alpha_g(h)) = g tau(h) g^-1",
               first_violations(cm.G.elements, cm.H.elements),
               first_violations(g_gens, h_gens) if laws_hold else None)

    def second_violations(hs, hps):
        for h in hs:
            th = cm.tau(h)
            for hp in hps:
                lhs = cm.alpha(th, hp)
                rhs = cm.H.conj(h, hp)
                if lhs != rhs:
                    yield f"alpha_tau({h})({hp}) = {lhs!r} != {h} {hp} {h}^-1 = {rhs!r}"
    rep.search(f"peiffer.{cm.name}.second", "alpha_tau(h)(h') = h h' h^-1",
               second_violations(cm.H.elements, cm.H.elements),
               second_violations(h_gens, h_gens) if laws_hold else None)
    return rep


# ---------------------------------------------------------------------------
# arrows

def arrow_endpoints(cm: CrossedModule, a: Arrow) -> tuple[str, str]:
    """(source, target) = (g, tau(h) g); unchecked, like `arrow_product`."""
    return a.g, cm.G.op(cm.tau(a.h), a.g)


def arrow_compose(cm: CrossedModule, a2: Arrow, a1: Arrow) -> Arrow:
    """a2 o a1, defined when source(a2) = target(a1)."""
    s2 = arrow_endpoints(cm, a2)[0]
    t1 = arrow_endpoints(cm, a1)[1]
    if s2 != t1:
        raise CompositionError(
            f"cannot compose: source {s2!r} of the second arrow "
            f"differs from target {t1!r} of the first"
        )
    return Arrow(cm.H.op(a2.h, a1.h), a1.g)


def arrow_product(cm: CrossedModule, a2: Arrow, a1: Arrow) -> Arrow:
    """Semidirect product (h2, g2)(h1, g1) = (h2 alpha_g2(h1), g2 g1).

    Unchecked: its callers pass arrows built from tables checked at load."""
    return Arrow(cm.H.op(a2.h, cm.alpha(a2.g, a1.h)), cm.G.op(a2.g, a1.g))


def arrow_inverse(cm: CrossedModule, a: Arrow) -> Arrow:
    """Semidirect inverse (h, g)^-1 = (alpha_{g^-1}(h^-1), g^-1); unchecked."""
    gi = cm.G.inverse(a.g)
    return Arrow(cm.alpha(gi, cm.H.inverse(a.h)), gi)


def arrow_co_inverse(cm: CrossedModule, a: Arrow) -> Arrow:
    """Inverse under composition: (h, g)^{-o} = (h^-1, tau(h) g)."""
    return Arrow(cm.H.inverse(a.h), cm.G.op(cm.tau(a.h), a.g))


def arrow_identity(cm: CrossedModule, g: str) -> Arrow:
    return Arrow(cm.H.identity, g)


# ---------------------------------------------------------------------------
# pair ids

def pair_id(h: str, g: str) -> str:
    return f"({h},{g})"


def arrows(hs: Iterable[str], gs: Collection[str]) -> list[Arrow]:
    """The arrows (h, g) with h in `hs` and g in `gs`, in pair-id order."""
    return sorted((Arrow(h, g) for h in hs for g in gs), key=lambda a: pair_id(*a))


class ChainedCrossedModules:
    """Two crossed modules sharing the middle group: outer (G, H, alpha, tau)
    and inner (H, J, alpha', tau'); also records the image tau(tau'(J)), a
    subgroup of G used throughout the quotient constructions.

    The chain checks only that the modules share H. Their laws are left to
    its `peiffer` report, so a document with broken laws loads and reports
    failures instead of refusing to load."""

    def __init__(self, outer: CrossedModule, inner: CrossedModule, name: str = ""):
        if inner.G is not outer.H:
            raise SchemaError("chained modules: inner base group must be the outer H")
        self.outer = outer
        self.inner = inner
        self.name = name or f"{inner.name} ; {outer.name}"
        self.G = outer.G
        self.H = outer.H
        self.J = inner.H
        self.alpha = outer.alpha
        self.tau = outer.tau
        self.alpha_p = inner.alpha
        self.tau_p = inner.tau
        self.tau_p_image = frozenset(self.tau_p(j) for j in self.J.elements)
        self.tau_tau_p_image = frozenset(self.tau(x) for x in self.tau_p_image)

    @cached_property
    def peiffer(self) -> Report:
        """Both modules' `validate_peiffer` reports, outer first; the modules
        share the middle group, so it is validated once."""
        rep, groups = Report("peiffer"), {}
        for cm in (self.outer, self.inner):
            rep.merge(validate_peiffer(cm, groups))
        return rep
