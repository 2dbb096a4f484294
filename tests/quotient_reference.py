"""A member-scan reference for the quotient 2-group's tables and laws.

`QuotientCatGroup` builds its source, target and composition tables from the
2-group product, and refuses a chain whose `peiffer` report fails: the
Peiffer identities make J_H a normal sub-2-group, so the structure descends.
This module keeps the scans that built those tables from coset members and
checked that each one descends, with the other laws of the quotient that the
identities imply, under the check ids and laws of LAWS. `descent(q)` runs
them and returns the report with the tables the member scans filled, so a
test can check that every law holds and that the tables equal the
quotient's. Only the coset spaces, `arrow_of`, the coset products and
inverses, `identity_mor_at` and `arrow_endpoints`/`arrow_compose` come from
the package; the composition table is the scans' own.
"""

from catbundle.crossed import arrow_compose, arrow_endpoints, pair_id
from catbundle.report import Report

LAWS = (
    ("quotient.descent.endpoints", "source and target are constant on each coset"),
    ("quotient.descent.compose", "(f2 f2') o (f1 f1') = (f2 o f1)(f2' o f1') modulo J_H"),
    ("quotient.descent.compose_total", "every composable coset pair is realized by members"),
    ("quotient.descent.co_inverse", "(h,g) -> (h^-1, tau(h) g) descends to cosets"),
    ("quotient.q.identity", "the identity morphism of a coset is the class of (e, g)"),
    ("quotient.obj_normal", "tau tau'(J) is normal in the object group"),
    ("quotient.mor_normal", "J_H is normal in the morphism group"),
    ("quotient.st_hom", "source and target are group homomorphisms on cosets"),
    ("quotient.interchange", "(a2 o a1)(b2 o b1) = (a2 b2) o (a1 b1) on cosets"),
)


def subgroup_normal(space):
    """Whether the subgroup of the coset space `space` is normal."""
    # the subgroup S is closed, so g = r s conjugates it as its coset rep r
    # does: g S g^-1 = r (s S s^-1) r^-1 = r S r^-1
    sub, op = space.subgroup, space.op
    return all(op(op(r, s), space.inverse(r)) in sub for r in space.reps for s in sub)


def descent(q, interchange=True):
    """The laws of LAWS on the quotient `q` as a report, in that order and
    stopping after a failed table, `quotient.interchange` only if
    `interchange` is set (it scans quadruples of cosets); and the tables
    (source, target, compose, by_source) that the member scans filled."""
    rep, law = Report("quotient"), dict(LAWS)
    cm, arrow_of, objects, mors = q.chain.outer, q.arrow_of, q.objects, q.morphisms
    ends = {x: arrow_endpoints(cm, a) for x, a in arrow_of.items()}
    source, target, compose, by_source = {}, {}, {}, {}
    tables = (source, target, compose, by_source)

    def search(check_id, witnesses):
        rep.search(check_id, law[check_id], witnesses)

    def split_endpoints():
        for mrep in mors.reps:
            members = mors.members_of[mrep]
            ss = {objects.rep(ends[x][0]) for x in members}
            ts = {objects.rep(ends[x][1]) for x in members}
            if len(ss) != 1 or len(ts) != 1:
                yield f"coset {mrep!r} has sources {sorted(ss)} targets {sorted(ts)}"
            source[mrep], target[mrep] = min(ss), min(ts)
    search("quotient.descent.endpoints", split_endpoints())
    if not rep.ok:
        return rep, tables
    for mrep in mors.reps:
        by_source.setdefault(source[mrep], []).append(mrep)

    # the composable x1 of each x2, in element order
    by_target = {}
    for x1 in arrow_of:
        by_target.setdefault(ends[x1][1], []).append(x1)

    def split_composites():
        for x2 in arrow_of:
            for x1 in by_target.get(ends[x2][0], ()):
                comp = pair_id(*arrow_compose(cm, arrow_of[x2], arrow_of[x1]))
                key, got = (mors.rep(x2), mors.rep(x1)), mors.rep(comp)
                if compose.setdefault(key, got) != got:
                    yield f"composition is not constant on cosets at ({key[0]!r}, {key[1]!r})"
    search("quotient.descent.compose", split_composites())
    expected = sum(1 for m2 in mors.reps for m1 in mors.reps if source[m2] == target[m1])
    rep.record("quotient.descent.compose_total", law["quotient.descent.compose_total"],
               len(compose) == expected,
               f"{len(compose)} composable pairs, expected {expected}")
    if not rep.ok:
        return rep, tables

    def split_co_inverses():
        for mrep in mors.reps:
            if len({q.mor_co_inverse(x) for x in mors.members_of[mrep]}) != 1:
                yield f"composition inverse not constant on coset {mrep!r}"
    search("quotient.descent.co_inverse", split_co_inverses())

    def bad_identities():
        for g in q.obj_parent.elements:
            if mors.rep(pair_id(q.chain.H.identity, g)) != q.identity_mor_at(objects.rep(g)):
                yield f"identity coset at {g!r} is not induced by (e, {g})"
    search("quotient.q.identity", bad_identities())

    normal = {"quotient.obj_normal": subgroup_normal(objects),
              "quotient.mor_normal": subgroup_normal(mors)}
    for check_id, ok in normal.items():
        rep.record(check_id, law[check_id], ok, "conjugation leaves the subgroup")
    if not all(normal.values()):
        return rep, tables

    def non_homomorphic():
        for a in mors.reps:
            for b in mors.reps:
                ab = q.mor_product(a, b)
                if source[ab] != q.obj_product(source[a], source[b]):
                    yield f"s({a!r} {b!r}) != s({a!r}) s({b!r})"
                if target[ab] != q.obj_product(target[a], target[b]):
                    yield f"t({a!r} {b!r}) != t({a!r}) t({b!r})"
    search("quotient.st_hom", non_homomorphic())

    def bad_interchanges():
        composable = [(m2, m1) for m2 in mors.reps for m1 in mors.reps
                      if source[m2] == target[m1]]
        for a2, a1 in composable:
            for b2, b1 in composable:
                lhs = q.mor_product(compose[a2, a1], compose[b2, b1])
                rhs = compose.get((q.mor_product(a2, b2), q.mor_product(a1, b1)))
                if lhs != rhs:
                    yield f"interchange fails at ({a2!r},{a1!r},{b2!r},{b1!r})"
    if interchange:
        search("quotient.interchange", bad_interchanges())
    return rep, tables
