"""Crossed modules, the arrow group they generate, and chained pairs.

A crossed module (G, H, alpha, tau) is a group map tau: H -> G together with
an action alpha of G on H subject to two compatibility identities:

    first:  tau(alpha_g(h)) = g tau(h) g^{-1}
    second: alpha_{tau(h)}(h') = h h' h^{-1}

Arrows (h, g) in H x G carry two structures at once. As a category:
source (h, g) = g, target (h, g) = tau(h) g, and (h2, g2) o (h1, g1) =
(h2 h1, g1) when g2 = tau(h1) g1. As a group: the semidirect product
(h2, g2) (h1, g1) = (h2 alpha_{g2}(h1), g2 g1). The validators below check
each law exhaustively and report witnesses.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import CompositionError, SchemaError
from .groups import FiniteGroup, GroupAction, GroupHom, validate_action, validate_group, validate_hom
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

    @classmethod
    def build(cls, G, H, alpha, tau, name: str = "") -> "CrossedModule":
        """Construct and validate eagerly; raises SchemaError on any law failure."""
        cm = cls(G, H, alpha, tau, name)
        rep = validate_peiffer(cm)
        if not rep.ok:
            raise SchemaError(
                f"crossed module {cm.name!r} invalid: {rep.first_witness()}"
            )
        return cm

    def act(self, g: str, h: str) -> str:
        return self.alpha(g, h)

    def __repr__(self) -> str:
        return f"CrossedModule({self.name!r})"


def validate_peiffer(cm: CrossedModule) -> Report:
    """Component validity first, then both compatibility identities, exhaustively."""
    rep = Report("peiffer")
    for g in (cm.G, cm.H):
        sub = validate_group(g)
        rep.record(
            f"peiffer.{cm.name}.component.group.{g.name}",
            "component is a group", sub.ok, sub.first_witness(),
        )
    sub = validate_hom(cm.tau)
    rep.record(
        f"peiffer.{cm.name}.component.hom.{cm.tau.name}",
        "tau is a homomorphism", sub.ok, sub.first_witness(),
    )
    sub = validate_action(cm.alpha)
    rep.record(
        f"peiffer.{cm.name}.component.action.{cm.alpha.name}",
        "alpha is an action by automorphisms", sub.ok, sub.first_witness(),
    )

    witness = None
    for g in cm.G.elements:
        for h in cm.H.elements:
            lhs = cm.tau(cm.alpha(g, h))
            rhs = cm.G.conj(g, cm.tau(h))
            if lhs != rhs:
                witness = f"tau(alpha_{g}({h})) = {lhs!r} != {g} tau({h}) {g}^-1 = {rhs!r}"
                break
        if witness:
            break
    rep.record(
        f"peiffer.{cm.name}.first",
        "tau(alpha_g(h)) = g tau(h) g^-1", witness is None, witness,
    )

    witness = None
    for h in cm.H.elements:
        th = cm.tau(h)
        for hp in cm.H.elements:
            lhs = cm.alpha(th, hp)
            rhs = cm.H.conj(h, hp)
            if lhs != rhs:
                witness = f"alpha_tau({h})({hp}) = {lhs!r} != {h} {hp} {h}^-1 = {rhs!r}"
                break
        if witness:
            break
    rep.record(
        f"peiffer.{cm.name}.second",
        "alpha_tau(h)(h') = h h' h^-1", witness is None, witness,
    )
    return rep


def check_tau_image_normal(cm: CrossedModule) -> Report:
    """tau(H) must be a normal subgroup of G; upstream hom failures are reported first."""
    rep = Report("tau_image")
    sub = validate_hom(cm.tau)
    rep.record(
        f"tau_image.{cm.name}.hom",
        "tau is a homomorphism", sub.ok, sub.first_witness(),
    )
    if not sub.ok:
        return rep
    img = cm.tau.image()
    witness = None
    for g in cm.G.elements:
        for t in sorted(img):
            if cm.G.conj(g, t) not in img:
                witness = f"{g} {t} {g}^-1 = {cm.G.conj(g, t)!r} leaves tau(H)"
                break
        if witness:
            break
    rep.record(
        f"tau_image.{cm.name}.normal",
        "g tau(H) g^-1 = tau(H)", witness is None, witness,
    )
    return rep


# ---------------------------------------------------------------------------
# arrows

def arrow_endpoints(cm: CrossedModule, a: Arrow) -> tuple[str, str]:
    """(source, target) = (g, tau(h) g)."""
    if a.h not in cm.H.element_set or a.g not in cm.G.element_set:
        raise SchemaError(f"arrow ({a.h!r}, {a.g!r}) is not in H x G for {cm.name!r}")
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
    """Semidirect product (h2, g2)(h1, g1) = (h2 alpha_g2(h1), g2 g1)."""
    arrow_endpoints(cm, a2)
    arrow_endpoints(cm, a1)
    return Arrow(cm.H.op(a2.h, cm.alpha(a2.g, a1.h)), cm.G.op(a2.g, a1.g))


def arrow_co_inverse(cm: CrossedModule, a: Arrow) -> Arrow:
    """Inverse under composition: (h, g)^{-o} = (h^-1, tau(h) g)."""
    return Arrow(cm.H.inverse(a.h), cm.G.op(cm.tau(a.h), a.g))


def arrow_identity(cm: CrossedModule, g: str) -> Arrow:
    if g not in cm.G.element_set:
        raise SchemaError(f"{g!r} is not in {cm.G.name!r}")
    return Arrow(cm.H.identity, g)


# ---------------------------------------------------------------------------
# semidirect products as explicit groups

def pair_id(h: str, g: str) -> str:
    return f"({h},{g})"


class SemidirectProduct:
    """H x|_alpha G as a FiniteGroup over pair ids, with maps in both directions."""

    def __init__(self, cm: CrossedModule, g_subset: Optional[frozenset[str]] = None,
                 name: Optional[str] = None):
        gs = sorted(g_subset) if g_subset is not None else list(cm.G.elements)
        for g in gs:
            if g not in cm.G.element_set:
                raise SchemaError(f"semidirect: {g!r} is not in {cm.G.name!r}")
        self.cm = cm
        pairs = [(h, g) for h in cm.H.elements for g in gs]
        self.id_to_pair = {pair_id(h, g): (h, g) for h, g in pairs}
        ids = sorted(self.id_to_pair)
        mul = {}
        inv = {}
        for x in ids:
            h2, g2 = self.id_to_pair[x]
            hi, gi = cm.alpha(cm.G.inverse(g2), cm.H.inverse(h2)), cm.G.inverse(g2)
            if gi not in set(gs):
                raise SchemaError(
                    f"semidirect: subset of {cm.G.name!r} not closed under inverse at {g2!r}"
                )
            inv[x] = pair_id(hi, gi)
            for y in ids:
                h1, g1 = self.id_to_pair[y]
                prod = (cm.H.op(h2, cm.alpha(g2, h1)), cm.G.op(g2, g1))
                px = pair_id(*prod)
                if px not in self.id_to_pair:
                    raise SchemaError(
                        f"semidirect: subset of {cm.G.name!r} not closed at ({g2!r}, {g1!r})"
                    )
                mul[(x, y)] = px
        gname = name or f"{cm.H.name}x|{cm.G.name}"
        self.group = FiniteGroup(
            gname, ids, mul, pair_id(cm.H.identity, cm.G.identity), inv
        )

    def to_id(self, a: Arrow) -> str:
        x = pair_id(a.h, a.g)
        if x not in self.id_to_pair:
            raise SchemaError(f"pair {x!r} is not in {self.group.name!r}")
        return x

    def to_arrow(self, x: str) -> Arrow:
        h, g = self.id_to_pair[x]
        return Arrow(h, g)

    def source(self, x: str) -> str:
        return self.id_to_pair[x][1]

    def target(self, x: str) -> str:
        h, g = self.id_to_pair[x]
        return self.cm.G.op(self.cm.tau(h), g)


class ChainedCrossedModules:
    """Two crossed modules sharing the middle group: outer (G, H, alpha, tau)
    and inner (H, J, alpha', tau'). Validated eagerly; also records the image
    tau(tau'(J)), a subgroup of G used throughout the quotient constructions.
    """

    def __init__(self, outer: CrossedModule, inner: CrossedModule, name: str = "",
                 validate: bool = True):
        # validate=False defers the law checks to a suite run, so that a loaded
        # document with broken laws reports failures instead of refusing to load
        if inner.G is not outer.H:
            raise SchemaError("chained modules: inner base group must be the outer H")
        if validate:
            for cm in (outer, inner):
                rep = validate_peiffer(cm)
                if not rep.ok:
                    raise SchemaError(
                        f"chained modules: {cm.name!r}: {rep.first_witness()}")
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
        if validate:
            # image of a subgroup under a verified hom, closure is automatic
            # but cheap to confirm
            for a in self.tau_tau_p_image:
                for b in self.tau_tau_p_image:
                    if self.G.op(a, b) not in self.tau_tau_p_image:
                        raise SchemaError("chained modules: tau(tau'(J)) is not closed")

    def __repr__(self) -> str:
        return f"ChainedCrossedModules({self.name!r})"
