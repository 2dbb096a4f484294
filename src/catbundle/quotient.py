"""The quotient 2-group of a chained pair, and the classical cocycle it carries.

From a chain (G, H, alpha, tau) over (H, J, alpha', tau') form the normal
pair: tau tau'(J) inside the object group and

    J_H = { (tau'(j), tau tau'(j')) : j, j' in J }  =  tau'(J) x tau tau'(J)

inside the arrow group. Objects are left cosets g tau tau'(J), morphisms are
left cosets (h, g) J_H; source, target, composition, and (when the subgroups
are normal) the group laws all descend, and every descent is verified
exhaustively rather than assumed. The object group is tau(H), extracted as
its own table, and the arrows are H x| tau(H), which is a categorical group
even when tau is not onto G. Products and inverses in H x| G come from
`crossed.arrow_product` and `arrow_inverse`, evaluated on arrows where they
are used: the quotient keeps only a pair-id -> Arrow map of H x| tau(H) and
builds no table of it. Endpoints and composition come from `arrow_endpoints`
and `arrow_compose`.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Optional

from .crossed import (
    Arrow,
    ChainedCrossedModules,
    arrow_co_inverse,
    arrow_compose,
    arrow_endpoints,
    arrow_inverse,
    arrow_product,
    arrows,
    pair_id,
)
from .errors import CompositionError, InternalInvariantError, SchemaError
from .functorial import eval_Theta, eval_theta
from .gerbal import FunctorialCocycle
from .groups import generators, subgroup_as_group
from .report import Report


class CosetSpace:
    """Left cosets of a subgroup, with the smallest member id as canonical rep;
    the parent group is given by its name, ids, identity, product and inverse."""

    def __init__(self, name: str, elements: Iterable[str], identity: str,
                 op: Callable[[str, str], str], inverse: Callable[[str], str],
                 subgroup: frozenset[str]):
        self.name = name
        self.elements = tuple(elements)
        self.op = op
        self.inverse = inverse
        element_set = frozenset(self.elements)
        # sorted, so the first violation reported does not depend on the hash seed
        members = sorted(subgroup)
        for s in members:
            if s not in element_set:
                raise SchemaError(f"coset space: {s!r} is not in {name!r}")
        if identity not in subgroup:
            raise SchemaError("coset space: subgroup misses the identity")
        for a in members:
            if inverse(a) not in subgroup:
                raise SchemaError(f"coset space: subgroup not closed under inverse at {a!r}")
            for b in members:
                if op(a, b) not in subgroup:
                    raise SchemaError(f"coset space: subgroup not closed at ({a!r}, {b!r})")
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


def check_JH_normal(chain: ChainedCrossedModules, peiffer: Optional[Report] = None) -> Report:
    """J_H is normalized by every arrow of H x| G, which holds whenever
    tau tau'(J) is normal in G. Handed the chain's passed `peiffer` report,
    the check is decided on generators; the witness comes from the full scan
    in pair-id order. No group table is built.

    The Peiffer identities imply the rest of J_H's structure, so it is not
    checked here: (j, h) -> (tau'(j), tau(h)) is a homomorphism
    J x| H -> H x| G, as tau'(alpha'_h(j)) = h tau'(j) h^-1 =
    alpha_tau(h)(tau'(j)); J_H is a subgroup, as alpha_tau(x) conjugates
    tau'(J) into itself for x in tau'(J); and J_H is normal in H x| tau(H),
    which `quotient.mor_normal` checks where the coset quotient is built."""
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
    if peiffer is not None and peiffer.ok:
        jh_gens = spanning(sorted(chain.tau_p_image), sorted(chain.tau_tau_p_image))
        decided = leaks(spanning(outer.H.elements, outer.G.elements), jh_gens)
    rep.search("jh.normal_full", "J_H is normal in all of H x| G",
               leaks(arrows(outer.H.elements, outer.G.elements), members), decided)
    return rep


class QuotientCatGroup:
    """Coset objects and coset morphisms with verified categorical structure.

    The constructor raises InternalInvariantError unless its verification
    passes, normality of both subgroups included, so coset products and
    inverses need no check of their own."""

    def __init__(self, chain: ChainedCrossedModules):
        self.chain = chain
        tau_image = chain.tau.image()
        self.obj_parent = par = subgroup_as_group(chain.G, tau_image, f"tau({chain.H.name})")
        # H x| tau(H) by pair id
        self.arrow_of = {pair_id(*a): a for a in arrows(chain.H.elements, tau_image)}
        self.objects = CosetSpace(par.name, par.elements, par.identity, par.op, par.inverse,
                                  frozenset(chain.tau_tau_p_image))
        self.morphisms = CosetSpace(f"{chain.H.name}x|{par.name}", self.arrow_of,
                                    pair_id(chain.H.identity, chain.G.identity),
                                    self._arrow_op, self._arrow_inverse, build_JH(chain))

        self.obj_normal = self._subgroup_normal(self.objects)
        self.mor_normal = self._subgroup_normal(self.morphisms)

        # source and target per morphism coset, plus the composition table;
        # filled by _verify, which also confirms they are well defined
        self.source: dict[str, str] = {}
        self.target: dict[str, str] = {}
        self._compose: dict[tuple[str, str], str] = {}
        self._by_source: dict[str, list[str]] = {}
        # coset products and identities, memoized on first use
        self.obj_product = cache(self.obj_product)
        self.mor_product = cache(self.mor_product)
        self.identity_mor_at = cache(self.identity_mor_at)
        self.verification = self._verify()
        if not self.verification.ok:
            raise InternalInvariantError(
                f"quotient structure does not descend: {self.verification.first_witness()}"
            )

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

    @staticmethod
    def _subgroup_normal(space: CosetSpace) -> bool:
        # the subgroup S is closed, so g = r s conjugates it as its coset rep r
        # does: g S g^-1 = r (s S s^-1) r^-1 = r S r^-1
        sub, op = space.subgroup, space.op
        return all(op(op(r, s), space.inverse(r)) in sub for r in space.reps for s in sub)

    def _verify(self) -> Report:
        rep = Report("quotient")
        cm, arrow_of = self.chain.outer, self.arrow_of
        ends = {x: arrow_endpoints(cm, a) for x, a in arrow_of.items()}

        # the first two searches fill the endpoint and composition tables as
        # they scan, so a search that stops at a witness leaves its table partial
        def split_endpoints():
            for mrep in self.morphisms.reps:
                members = self.morphisms.members_of[mrep]
                ss = {self.objects.rep(ends[x][0]) for x in members}
                ts = {self.objects.rep(ends[x][1]) for x in members}
                if len(ss) != 1 or len(ts) != 1:
                    yield f"coset {mrep!r} has sources {sorted(ss)} targets {sorted(ts)}"
                    continue
                self.source[mrep] = next(iter(ss))
                self.target[mrep] = next(iter(ts))
        rep.search("quotient.descent.endpoints",
                   "source and target are constant on each coset", split_endpoints())
        if not rep.ok:
            return rep

        for mrep in self.morphisms.reps:
            self._by_source.setdefault(self.source[mrep], []).append(mrep)

        # the composable x1 of each x2, in element order
        by_target: dict[str, list[str]] = {}
        for x1 in arrow_of:
            by_target.setdefault(ends[x1][1], []).append(x1)

        def split_composites():
            for x2 in arrow_of:
                for x1 in by_target.get(ends[x2][0], ()):
                    comp = pair_id(*arrow_compose(cm, arrow_of[x2], arrow_of[x1]))
                    key = (self.morphisms.rep(x2), self.morphisms.rep(x1))
                    got = self.morphisms.rep(comp)
                    if self._compose.setdefault(key, got) != got:
                        yield (
                            f"composition is not constant on cosets at "
                            f"({key[0]!r}, {key[1]!r})"
                        )
        rep.search("quotient.descent.compose",
                   "(f2 f2') o (f1 f1') = (f2 o f1)(f2' o f1') modulo J_H",
                   split_composites())

        expected = sum(
            1 for m2 in self.morphisms.reps for m1 in self.morphisms.reps
            if self.source[m2] == self.target[m1]
        )
        rep.record("quotient.descent.compose_total",
                   "every composable coset pair is realized by members",
                   len(self._compose) == expected,
                   f"{len(self._compose)} composable pairs, expected {expected}")
        if not rep.ok:
            # the checks below compose cosets, which needs a total table
            return rep

        def split_co_inverses():
            for mrep in self.morphisms.reps:
                outs = {self.mor_co_inverse(x) for x in self.morphisms.members_of[mrep]}
                if len(outs) != 1:
                    yield f"composition inverse not constant on coset {mrep!r}"
        rep.search("quotient.descent.co_inverse",
                   "(h,g) -> (h^-1, tau(h) g) descends to cosets", split_co_inverses())

        def bad_identities():
            for g in self.obj_parent.elements:
                x = pair_id(self.chain.H.identity, g)
                if self.morphisms.rep(x) != self.identity_mor_at(self.objects.rep(g)):
                    yield f"identity coset at {g!r} is not induced by (e, {g})"
        rep.search("quotient.q.identity",
                   "the identity morphism of a coset is the class of (e, g)",
                   bad_identities())

        rep.record("quotient.obj_normal",
                   "tau tau'(J) is normal in the object group",
                   self.obj_normal, "conjugation leaves the subgroup")
        rep.record("quotient.mor_normal",
                   "J_H is normal in the morphism group",
                   self.mor_normal, "conjugation leaves the subgroup")

        if self.mor_normal and self.obj_normal:
            def non_homomorphic():
                for a in self.morphisms.reps:
                    for b in self.morphisms.reps:
                        ab = self.mor_product(a, b)
                        if self.source[ab] != self.obj_product(self.source[a], self.source[b]):
                            yield f"s({a!r} {b!r}) != s({a!r}) s({b!r})"
                        if self.target[ab] != self.obj_product(self.target[a], self.target[b]):
                            yield f"t({a!r} {b!r}) != t({a!r}) t({b!r})"
            rep.search("quotient.st_hom",
                       "source and target are group homomorphisms on cosets",
                       non_homomorphic())

            def bad_interchanges():
                for a2 in self.morphisms.reps:
                    for a1 in self.morphisms.reps:
                        if self.source[a2] != self.target[a1]:
                            continue
                        for b2 in self.morphisms.reps:
                            for b1 in self.morphisms.reps:
                                if self.source[b2] != self.target[b1]:
                                    continue
                                lhs = self.mor_product(
                                    self.compose_of(a2, a1), self.compose_of(b2, b1))
                                rhs = self.compose_of(
                                    self.mor_product(a2, b2), self.mor_product(a1, b1))
                                if lhs != rhs:
                                    yield f"interchange fails at ({a2!r},{a1!r},{b2!r},{b1!r})"
            rep.search("quotient.interchange",
                       "(a2 o a1)(b2 o b1) = (a2 b2) o (a1 b1) on cosets",
                       bad_interchanges())
        return rep

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

    def __repr__(self) -> str:
        return f"QuotientCatGroup(objects={self.objects.size}, morphisms={self.morphisms.size})"


def build_quotient(chain: ChainedCrossedModules) -> QuotientCatGroup:
    return QuotientCatGroup(chain)


def check_classical_cocycle(fc: FunctorialCocycle, q: QuotientCatGroup) -> Report:
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
    cover = fc.cover
    obj = q.objects
    G = q.obj_parent

    def object_violations():
        for i, k, m in cover.overlapping(3):
            for u in sorted(cover.overlap((i, k, m))):
                lhs = obj.rep(G.op(fc.g(i, k, u), fc.g(k, m, u)))
                rhs = obj.rep(fc.g(i, m, u))
                if lhs != rhs:
                    yield f"gbar cocycle fails at ({i},{k},{m},{u})"
    rep.search("classical.object", "gbar_ik(u) gbar_km(u) = gbar_im(u)", object_violations())

    def diagonal_violations():
        for i, k in cover.overlapping(2):
            for u in sorted(cover.overlap((i, k))):
                if i == k and obj.rep(fc.g(i, i, u)) != q.identity_obj():
                    yield f"gbar_{i}{i}({u}) is not the identity coset"
                both = obj.rep(G.op(fc.g(i, k, u), fc.g(k, i, u)))
                if both != q.identity_obj():
                    yield f"gbar_{i}{k}({u}) gbar_{k}{i}({u}) is not the identity coset"
    rep.search("classical.diagonal",
               "gbar_ii(u) = identity coset and gbar_ik(u) gbar_ki(u) = identity coset",
               diagonal_violations())

    def morphism_violations():
        for i, k, m in cover.overlapping(3):
            for u0, u1 in cover.reachable((i, k, m)):
                lhs = q.q_mor(arrow_product(q.chain.outer, eval_theta(fc, i, k, u0, u1),
                                            eval_theta(fc, k, m, u0, u1)))
                rhs = q.q_mor(eval_theta(fc, i, m, u0, u1))
                if lhs != rhs:
                    yield f"thetabar cocycle fails at ({i},{k},{m}) pair {u0} -> {u1}"
    rep.search("classical.morphism",
               "thetabar_ik(gamma) thetabar_km(gamma) = thetabar_im(gamma)",
               morphism_violations())

    def defects_outside():
        for i, k, m in cover.overlapping(3):
            for u0, u1 in cover.reachable((i, k, m)):
                big_theta = eval_Theta(fc, i, k, m, u0, u1)
                if pair_id(big_theta.h, big_theta.g) not in q.morphisms.subgroup:
                    yield (
                        f"Theta_{i}{k}{m} at pair {u0} -> {u1} "
                        f"= ({big_theta.h},{big_theta.g}) is outside J_H"
                    )
    rep.search("classical.defect", "Theta_ikm(gamma) lies in J_H", defects_outside())
    return rep
