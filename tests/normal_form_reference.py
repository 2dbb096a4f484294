"""A reference for the normal-form key: compact a unit state, then read it.

This is the normal form in two passes. `compact` folds every zero-length
unit into a neighbour: a run of them merges left to right into the next edge
unit, and a trailing run merges back into the last one. `normal_form` then
reads the compacted state once from left to right, pushing every decoration
to the last unit. `BundleSpace` reads the same key in one left fold over the
raw units and keeps no compacted state; this module checks that fold. Only
`thetabar`, the coset products, the step walks, the charts of a walk and
canonical objects come from the package.
"""

from catbundle.complexes import compose_paths


def reindex(space, k, c, w, phi):
    """Move a decoration over walk w from chart c into chart k."""
    return phi if k == c else space.q.mor_product(space.thetabar(k, c, w), phi)


def merge(space, u1, u2):
    """One unit for an adjacent pair with a zero-step unit: both decorations
    re-indexed into the first chart holding the pair's walk and composed
    there, over the pair's edge step if it has one."""
    (c1, st1, a), (c2, st2, b) = u1, u2
    w1, w2 = space._step_walk(st1), space._step_walk(st2)
    k = space._charts_of(compose_paths(space.cover, w2, w1).visited)[0]
    step = st2 if st1[0] == "v" else st1
    return k, step, space.q.compose_of(reindex(space, k, c2, w2, b), reindex(space, k, c1, w1, a))


def compact(space, state):
    """Fold every zero-step unit into a neighbour. The result has one unit
    per base step, or a single zero-step unit for a stationary class."""
    units = list(state)
    n = 0
    while len(units) > 1 and n < len(units):
        if units[n][1][0] != "v":
            n += 1
            continue
        if n + 1 < len(units):
            units[n:n + 2] = [merge(space, units[n], units[n + 1])]
        else:
            units[n - 1:n + 1] = [merge(space, units[n - 1], units[n])]
            n -= 1
    return tuple(units)


def normal_form(space, state):
    """The key (source object, walk, decorations) of a compacted state."""
    q, cover = space.q, space.cover
    decorations = []
    c, step, a = state[0]
    for c2, step2, b in state[1:]:
        w1, w2 = space._step_walk(step), space._step_walk(step2)
        common = space._charts_of(compose_paths(cover, w2, w1).visited)
        if common:
            k = common[0]
            a = reindex(space, k, c, w1, a)
        elif cover.identity_edges:
            c0, k = space._charts_of(w1.visited)[0], space._charts_of(w2.visited)[0]
            a = reindex(space, k, c0, cover.identity_walk(w2.start),
                        reindex(space, c0, c, w1, a))
        else:
            decorations.append(reindex(space, space._charts_of(w1.visited)[0], c, w1, a))
            c, step, a = c2, step2, b
            continue
        c, step, a = k, step2, q.compose_of(reindex(space, k, c2, w2, b), a)
    w = space._step_walk(step)
    decorations.append(reindex(space, space._charts_of(w.visited)[0], c, w, a))
    return (space.unit_s_obj(state[0]), space._walk_sig(state), tuple(decorations))


def reference_key(space, state):
    """The normal-form key of any composable unit state, without the memo."""
    return normal_form(space, compact(space, state))
