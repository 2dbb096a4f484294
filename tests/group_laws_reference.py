"""A reference for the group-level laws that are decided on generators, and
for the laws the Peiffer identities imply.

`validate_group`, `validate_action`, `validate_peiffer` and `check_JH_normal`
decide associativity, an action's `compose` and `automorphism`, both Peiffer
identities and `jh.normal_full` on generating sets once the laws they read
have passed, and scan in full only to name a failure. This module keeps each
of those laws as the full scan of every triple or pair in the package's scan
order, stopping at its first witness, so a test can check that both give the
same verdicts and witnesses. It also keeps the scans of the laws no report
checks because the Peiffer identities imply them (`implied_scans`), so a test
can check the implication on chains whose identities hold. Only the tables,
`Arrow`, `arrows` and `pair_id` come from the package: the arrow products are
read from the tables here.
"""

from catbundle.crossed import Arrow, arrows, pair_id


def assoc_breaks(g):
    mul, els = g.mul, g.elements
    for a in els:
        for b in els:
            ab = mul[a, b]
            for c in els:
                if mul[ab, c] != mul[a, mul[b, c]]:
                    yield f"({a}*{b})*{c} = {mul[ab, c]!r} != {a}*({b}*{c})"


def compose_breaks(act):
    t, mul, space = act.table, act.actor.mul, act.space.elements
    for g1 in act.actor.elements:
        for g2 in act.actor.elements:
            g12 = mul[g1, g2]
            for h in space:
                if t[g12, h] != t[g1, t[g2, h]]:
                    yield f"(({g1}*{g2}).{h}) != ({g1}.({g2}.{h}))"


def automorphism_breaks(act):
    t, mul, space = act.table, act.space.mul, act.space.elements
    for g in act.actor.elements:
        for h1 in space:
            for h2 in space:
                lhs, rhs = t[g, mul[h1, h2]], mul[t[g, h1], t[g, h2]]
                if lhs != rhs:
                    yield f"{g}.({h1}*{h2})={lhs!r} != ({g}.{h1})*({g}.{h2})={rhs!r}"
        if len({t[g, h] for h in space}) != len(space):
            yield f"{g}. is not a bijection of {act.space.name}"


def first_breaks(cm):
    G, tau, alpha = cm.G, cm.tau.table, cm.alpha.table
    for g in G.elements:
        for h in cm.H.elements:
            lhs, rhs = tau[alpha[g, h]], G.mul[G.mul[g, tau[h]], G.inv[g]]
            if lhs != rhs:
                yield f"tau(alpha_{g}({h})) = {lhs!r} != {g} tau({h}) {g}^-1 = {rhs!r}"


def second_breaks(cm):
    H, tau, alpha = cm.H, cm.tau.table, cm.alpha.table
    for h in H.elements:
        for hp in H.elements:
            lhs, rhs = alpha[tau[h], hp], H.mul[H.mul[h, hp], H.inv[h]]
            if lhs != rhs:
                yield f"alpha_tau({h})({hp}) = {lhs!r} != {h} {hp} {h}^-1 = {rhs!r}"


def semidirect(cm):
    """The product and inverse of H x| G, read straight from the tables."""
    hmul, gmul, hinv, ginv, alpha = cm.H.mul, cm.G.mul, cm.H.inv, cm.G.inv, cm.alpha.table

    def product(a2, a1):
        return Arrow(hmul[a2.h, alpha[a2.g, a1.h]], gmul[a2.g, a1.g])

    def inverse(a):
        gi = ginv[a.g]
        return Arrow(alpha[gi, hinv[a.h]], gi)
    return product, inverse


def taubar_breaks(chain):
    inner_product, _ = semidirect(chain.inner)
    outer_product, _ = semidirect(chain.outer)

    def taubar(a):
        return Arrow(chain.tau_p.table[a.h], chain.tau.table[a.g])
    pairs = arrows(chain.inner.H.elements, chain.inner.G.elements)
    for x in pairs:
        for y in pairs:
            lhs = taubar(inner_product(x, y))
            rhs = outer_product(taubar(x), taubar(y))
            if lhs != rhs:
                yield (f"taubar({pair_id(*x)} * {pair_id(*y)}) = "
                       f"{pair_id(*lhs)!r} != {pair_id(*rhs)!r}")


def leaks(chain, conjugators):
    product, inverse = semidirect(chain.outer)
    members = arrows(chain.tau_p_image, chain.tau_tau_p_image)
    jh = set(members)
    for w in conjugators:
        w_inv = inverse(w)
        for v in members:
            c = product(product(w, v), w_inv)
            if c not in jh:
                w_id = pair_id(*w)
                yield f"{w_id} {pair_id(*v)} {w_id}^-1 = {pair_id(*c)!r} leaves J_H"


def subgroup_breaks(chain):
    product, inverse = semidirect(chain.outer)
    members = arrows(chain.tau_p_image, chain.tau_tau_p_image)
    jh = set(members)
    if Arrow(chain.H.identity, chain.G.identity) not in jh:
        yield "identity missing"
    for a in members:
        if inverse(a) not in jh:
            yield f"inverse of {pair_id(*a)!r} leaves J_H"
        for b in members:
            if product(a, b) not in jh:
                yield f"product {pair_id(*a)!r} {pair_id(*b)!r} leaves J_H"


def tau_image_leaks(cm):
    G, img = cm.G, set(cm.tau.table.values())
    for g in G.elements:
        for t in sorted(img):
            c = G.mul[G.mul[g, t], G.inv[g]]
            if c not in img:
                yield f"{g} {t} {g}^-1 = {c!r} leaves tau(H)"


def implied_scans(chain):
    """{law: its full scan, not yet started} for each law that holds whenever
    both modules of `chain` pass `validate_peiffer`: taubar is a
    homomorphism, J_H is a subgroup of H x| G and normal in H x| tau(H), and
    tau(H) is normal in G for each module."""
    tau_image = set(chain.tau.table.values())
    scans = {
        "jh.taubar": taubar_breaks(chain),
        "jh.subgroup": subgroup_breaks(chain),
        "jh.normal": leaks(chain, [w for w in arrows(chain.H.elements, chain.G.elements)
                                   if w.g in tau_image]),
    }
    for cm in (chain.outer, chain.inner):
        scans[f"tau_image.{cm.name}.normal"] = tau_image_leaks(cm)
    return scans


def group_law_scans(chain):
    """{check id: its full scan, not yet started} for each law above on the
    groups, actions and crossed modules of `chain`; the first witness a scan
    yields names a failure, and a scan that yields none is a pass."""
    scans = {}
    for g in (chain.G, chain.H, chain.J):
        scans[f"group.{g.name}.assoc"] = assoc_breaks(g)
    for cm in (chain.outer, chain.inner):
        scans[f"action.{cm.alpha.name}.compose"] = compose_breaks(cm.alpha)
        scans[f"action.{cm.alpha.name}.automorphism"] = automorphism_breaks(cm.alpha)
        scans[f"peiffer.{cm.name}.first"] = first_breaks(cm)
        scans[f"peiffer.{cm.name}.second"] = second_breaks(cm)
    scans["jh.normal_full"] = leaks(chain, arrows(chain.H.elements, chain.G.elements))
    return scans
