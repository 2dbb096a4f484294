"""The quotient 2-group of a chained pair, and the classical cocycle it carries.

From a chain (G, H, alpha, tau) over (H, J, alpha', tau') form the normal
pair: tau tau'(J) inside the object group and

    J_H = { (tau'(j), tau tau'(j')) : j, j' in J }  =  tau'(J) x tau tau'(J)

inside the arrow group. Objects are left cosets g tau tau'(J), morphisms are
left cosets (h, g) J_H. The object group is tau(H), extracted as its own
table, and the arrows are H x| tau(H), which is a categorical group even when
tau is not onto G.

Nothing is searched: the structure descends by algebra once the chain's
`peiffer` report passes, and the quotient refuses a chain whose report fails.
The Peiffer identities make J_H a normal sub-2-group of H x| tau(H): a normal
subgroup whose arrows run inside the normal subgroup tau tau'(J) of tau(H)
(`check_JH_normal` gives the argument). The quotient of a strict 2-group by a
normal sub-2-group is a strict 2-group (Brown and Spencer 1976; Baez and
Lauda, "Higher-dimensional algebra V: 2-groups", 2004). So a coset runs
between the cosets of any member's endpoints, and cosets compose as
f2 o f1 = f2 id_s(f2)^-1 f1, which on arrows is `arrow_compose`.

Products and inverses in H x| G come from `crossed.arrow_product` and
`arrow_inverse`, evaluated on arrows where they are used: the quotient keeps
only a pair-id -> Arrow map of H x| tau(H) and builds no table of it.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from .crossed import (
    Arrow,
    ChainedCrossedModules,
    arrow_co_inverse,
    arrow_endpoints,
    arrow_inverse,
    arrow_product,
    arrows,
    pair_id,
)
from .errors import CompositionError, InternalInvariantError, SchemaError
from .functorial import eval_Theta, eval_theta
from .gerbal import GerbalCocycle
from .groups import generators, subgroup_as_group
from .report import Report


class CosetSpace:
    """Left cosets of a subgroup, with the smallest member id as canonical rep;
    the parent group is given by its name, ids, product and inverse. The
    subgroup is not checked: the quotient passes its normal pair only behind a
    passed `peiffer` report (`check_JH_normal` gives the argument)."""

    def __init__(self, name: str, elements: Iterable[str],
                 op: Callable[[str, str], str], inverse: Callable[[str], str],
                 subgroup: frozenset[str]):
        self.name = name
        self.elements = tuple(elements)
        self.op = op
        self.inverse = inverse
        self.subgroup = frozenset(subgroup)
        self.coset_of: dict[str, str] = {}
        cosets: dict[str, tuple[str, ...]] = {}
        for x in sorted(self.elements):
            if x in self.coset_of:
                continue
            coset = sorted(op(x, s) for s in subgroup)
            rep = coset[0]
            for y in coset:
                self.coset_of[y] = rep
            cosets[rep] = tuple(coset)
        self.members_of = cosets
        self.reps = tuple(sorted(cosets))

    def rep(self, x: str) -> str:
        try:
            return self.coset_of[x]
        except KeyError:
            raise SchemaError(f"coset space: {x!r} is not in {self.name!r}") from None

    @property
    def size(self) -> int:
        return len(self.reps)


def build_JH(chain: ChainedCrossedModules) -> frozenset[str]:
    """J_H = tau'(J) x tau tau'(J) as pair ids inside H x| G."""
    return frozenset(
        pair_id(a, b) for a in chain.tau_p_image for b in chain.tau_tau_p_image
    )


def check_JH_normal(chain: ChainedCrossedModules) -> Report:
    """J_H is normalized by every arrow of H x| G, which holds whenever
    tau tau'(J) is normal in G. Once the chain's `peiffer` report passes, the
    check is decided on generators; the witness comes from the full scan in
    pair-id order. No group table is built.

    The Peiffer identities imply the rest of J_H's structure, so it is not
    checked here: (j, h) -> (tau'(j), tau(h)) is a homomorphism
    J x| H -> H x| G, as tau'(alpha'_h(j)) = h tau'(j) h^-1 =
    alpha_tau(h)(tau'(j)); J_H is a subgroup, as alpha_tau(x) conjugates
    tau'(J) into itself for x in tau'(J); tau tau'(J) is normal in tau(H), as
    tau(x) tau(tau'(j)) tau(x)^-1 = tau(tau'(alpha'_x(j))); and J_H is normal
    in H x| tau(H), as alpha_tau(x) is conjugation by x, and conjugation by
    any h keeps tau'(J). `QuotientCatGroup` builds its cosets on these facts."""
    rep = Report("jh")
    outer = chain.outer

    def spanning(hs, gs) -> list[Arrow]:
        """The arrows (h, e) and (e, g) over generators of the subgroups `hs`
        of H and `gs` of G; they generate the arrows hs x gs."""
        return ([Arrow(h, outer.G.identity) for h in generators(hs, outer.H.op)]
                + [Arrow(outer.H.identity, g) for g in generators(gs, outer.G.op)])

    members = arrows(chain.tau_p_image, chain.tau_tau_p_image)
    jh = frozenset(members)

    def leaks(conjugators, vs):
        for w in conjugators:
            w_inv = arrow_inverse(outer, w)
            for v in vs:
                c = arrow_product(outer, arrow_product(outer, w, v), w_inv)
                if c not in jh:
                    w_id = pair_id(*w)
                    yield f"{w_id} {pair_id(*v)} {w_id}^-1 = {pair_id(*c)!r} leaves J_H"
    decided = None
    if chain.peiffer.ok:
        jh_gens = spanning(sorted(chain.tau_p_image), sorted(chain.tau_tau_p_image))
        decided = leaks(spanning(outer.H.elements, outer.G.elements), jh_gens)
    rep.search("jh.normal_full", "J_H is normal in all of H x| G",
               leaks(arrows(outer.H.elements, outer.G.elements), members), decided)
    return rep


class QuotientCatGroup:
    """Coset objects and coset morphisms of a chain whose `peiffer` report
    passes, with their source, target and composition tables.

    The constructor raises InternalInvariantError on a chain whose `peiffer`
    report fails: the tables and the coset products and inverses rest on the
    normality those laws imply, so they need no check of their own."""

    def __init__(self, chain: ChainedCrossedModules):
        if not chain.peiffer.ok:
            raise InternalInvariantError(
                f"no quotient of a chain that fails peiffer: {chain.peiffer.first_witness()}")
        self.chain = chain
        tau_image = chain.tau.image()
        self.obj_parent = par = subgroup_as_group(chain.G, tau_image, f"tau({chain.H.name})")
        # H x| tau(H) by pair id
        self.arrow_of = {pair_id(*a): a for a in arrows(chain.H.elements, tau_image)}
        self.objects = CosetSpace(par.name, par.elements, par.op, par.inverse,
                                  frozenset(chain.tau_tau_p_image))
        self.morphisms = CosetSpace(f"{chain.H.name}x|{par.name}", self.arrow_of,
                                    self._arrow_op, self._arrow_inverse, build_JH(chain))
        # coset products and identities, memoized on first use
        self.obj_product = cache(self.obj_product)
        self.mor_product = cache(self.mor_product)
        self.identity_mor_at = cache(self.identity_mor_at)

        # a coset runs between the cosets of its rep's endpoints, and cosets
        # compose as in any strict 2-group: f2 o f1 = f2 id_s(f2)^-1 f1
        reps = self.morphisms.reps
        self.source: dict[str, str] = {}
        self.target: dict[str, str] = {}
        self._by_source: dict[str, list[str]] = {}
        for m in reps:
            s, t = arrow_endpoints(chain.outer, self.arrow_of[m])
            self.source[m], self.target[m] = self.objects.rep(s), self.objects.rep(t)
            self._by_source.setdefault(self.source[m], []).append(m)
        self._compose: dict[tuple[str, str], str] = {}
        for m2 in reps:
            left = self.mor_product(m2, self.mor_inverse(self.identity_mor_at(self.source[m2])))
            for m1 in reps:
                if self.target[m1] == self.source[m2]:
                    self._compose[m2, m1] = self.mor_product(left, m1)

    def arrow(self, x: str) -> Arrow:
        """The arrow of H x| tau(H) with pair id `x`."""
        try:
            return self.arrow_of[x]
        except KeyError:
            raise SchemaError(f"pair {x!r} is not in {self.morphisms.name!r}") from None

    def _arrow_op(self, x: str, y: str) -> str:
        return pair_id(*arrow_product(self.chain.outer, self.arrow(x), self.arrow(y)))

    def _arrow_inverse(self, x: str) -> str:
        return pair_id(*arrow_inverse(self.chain.outer, self.arrow(x)))

    # ----- coset-level operations ------------------------------------------

    def obj_product(self, a: str, b: str) -> str:
        return self.objects.rep(self.obj_parent.op(a, b))

    def mor_product(self, a: str, b: str) -> str:
        return self.morphisms.rep(self._arrow_op(a, b))

    def mor_inverse(self, a: str) -> str:
        return self.morphisms.rep(self._arrow_inverse(a))

    def mor_co_inverse(self, a: str) -> str:
        return self.morphisms.rep(pair_id(*arrow_co_inverse(self.chain.outer, self.arrow(a))))

    def compose_of(self, later: str, earlier: str) -> str:
        """later o earlier on coset reps."""
        try:
            return self._compose[(later, earlier)]
        except KeyError:
            raise CompositionError(
                f"cosets do not compose: target {self.target.get(earlier)!r} "
                f"!= source {self.source.get(later)!r}"
            ) from None

    def identity_mor_at(self, orep: str) -> str:
        return self.morphisms.rep(pair_id(self.chain.H.identity, orep))

    def identity_obj(self) -> str:
        return self.objects.rep(self.obj_parent.identity)

    def mors_with_source(self, orep: str) -> list[str]:
        return self._by_source.get(orep, [])

    def q_mor(self, a: Arrow) -> str:
        return self.morphisms.rep(pair_id(*a))


def build_quotient(chain: ChainedCrossedModules) -> QuotientCatGroup:
    return QuotientCatGroup(chain)


def check_classical_cocycle(gc: GerbalCocycle, q: QuotientCatGroup) -> Report:
    """The pushed-down data is a strict cocycle on coset classes:

        gbar_ik(u) gbar_km(u) = gbar_im(u)          on object cosets
        thetabar_ik(gamma) thetabar_km(gamma) = thetabar_im(gamma)
                                                    on morphism cosets

    plus the normalizations gbar_ii = identity coset, gbar_ik gbar_ki =
    identity coset, and the defect Theta landing inside J_H. theta and Theta
    read a walk only through its endpoints, so the morphism law and the
    defect are checked once per reachable pair of each triple overlap
    (`CoverComplex.reachable`), which covers walks of every length.
    """
    rep = Report("classical")
    cover, g = gc.cover, gc.tower.g
    obj = q.objects
    G = q.obj_parent

    def object_violations():
        for i, k, m in cover.overlapping(3):
            for u in sorted(cover.overlap((i, k, m))):
                lhs = obj.rep(G.op(g[(i, k, u)], g[(k, m, u)]))
                rhs = obj.rep(g[(i, m, u)])
                if lhs != rhs:
                    yield f"gbar cocycle fails at ({i},{k},{m},{u})"
    rep.search("classical.object", "gbar_ik(u) gbar_km(u) = gbar_im(u)", object_violations())

    def diagonal_violations():
        for i, k in cover.overlapping(2):
            for u in sorted(cover.overlap((i, k))):
                if i == k and obj.rep(g[(i, i, u)]) != q.identity_obj():
                    yield f"gbar_{i}{i}({u}) is not the identity coset"
                both = obj.rep(G.op(g[(i, k, u)], g[(k, i, u)]))
                if both != q.identity_obj():
                    yield f"gbar_{i}{k}({u}) gbar_{k}{i}({u}) is not the identity coset"
    rep.search("classical.diagonal",
               "gbar_ii(u) = identity coset and gbar_ik(u) gbar_ki(u) = identity coset",
               diagonal_violations())

    def morphism_violations():
        for i, k, m in cover.overlapping(3):
            for u0, u1 in cover.reachable((i, k, m)):
                lhs = q.q_mor(arrow_product(q.chain.outer, eval_theta(gc, i, k, u0, u1),
                                            eval_theta(gc, k, m, u0, u1)))
                rhs = q.q_mor(eval_theta(gc, i, m, u0, u1))
                if lhs != rhs:
                    yield f"thetabar cocycle fails at ({i},{k},{m}) pair {u0} -> {u1}"
    rep.search("classical.morphism",
               "thetabar_ik(gamma) thetabar_km(gamma) = thetabar_im(gamma)",
               morphism_violations())

    def defects_outside():
        for i, k, m in cover.overlapping(3):
            for u0, u1 in cover.reachable((i, k, m)):
                big_theta = eval_Theta(gc, i, k, m, u0, u1)
                if pair_id(big_theta.h, big_theta.g) not in q.morphisms.subgroup:
                    yield (
                        f"Theta_{i}{k}{m} at pair {u0} -> {u1} "
                        f"= ({big_theta.h},{big_theta.g}) is outside J_H"
                    )
    rep.search("classical.defect", "Theta_ikm(gamma) lies in J_H", defects_outside())
    return rep
