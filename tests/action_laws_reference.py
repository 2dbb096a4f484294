"""A reference for the battery's three action laws: one scan per law.

`check_bundle_axioms` acts each enumerated unit state by each coset rep once
and feeds `bundle.action.mor_free`, `exchange` and `equivariant` from that
one pass. This module keeps the three laws as separate scans, each acting
every state it reads itself and stopping at its first witness, so a test can
check that the pass reports the same verdicts and witnesses. Only
`enumerate_chains`, `act_state`, `composed_key`, `state_key`,
`component_of`, `_absorb`, the unit endpoints and the coset tables
(`morphisms.reps`, `source`, `target`, `identity_mor_at`) come from the
package.

`unitwise_action` writes the action itself, one unit at a time from
`mor_product`, for a test of `act_state`'s paths.
"""

from catbundle.battery import enumerate_chains


def unitwise_action(space, state, psi):
    """The right action by psi on a unit state: the last unit's decoration
    times psi, every earlier one times the identity at the source of psi."""
    q = space.q
    factors = [q.identity_mor_at(q.source[psi])] * (len(state) - 1) + [psi]
    return tuple((c, step, q.mor_product(phi, f)) for (c, step, phi), f in zip(state, factors))


def action_law_witnesses(space):
    """The first witness, or None for a pass, of `mor_free`, `exchange` and
    `equivariant` in that order, on the unit states of at most two units,
    keyed as the battery keys them."""
    q = space.q
    neutral = q.identity_mor_at(q.identity_obj())
    states = enumerate_chains(space, 2)

    classes, keys = {}, {}
    for st in states:
        compacted = (space._absorb(*st)[0],) if len(st) == 2 and "v" in (
            st[0][1][0], st[1][1][0]) else st
        key = space._keys[st] = space.component_of(compacted)
        classes.setdefault(key, {})[compacted] = None
        keys[st] = space.state_key(st)

    def broken(psi, st):
        return f"action by {psi} breaks a junction of chain {st}"

    def unfree_morphisms():
        for st in states:
            key = keys[st]
            for psi in q.morphisms.reps:
                acted = space.act_state(st, psi)
                acted_key = keys.get(acted) or space.composed_key(acted)
                if acted_key is None:
                    yield broken(psi, st)
                    continue
                if acted_key[1][1] != key[1][1]:
                    yield f"action by {psi} changed a projected walk"
                if (acted_key == key) != (psi == neutral):
                    yield f"morphism action by {psi} is not free on chain {st}"

    loops = [p for p in q.morphisms.reps if q.source[p] == q.target[p]]
    units_at = [q.identity_mor_at(q.source[psi]) for psi in loops]
    one_unit = [st for st in states if len(st) == 1]
    by_source_obj = {}
    for st in one_unit:
        by_source_obj.setdefault(space.unit_s_obj(st[0]), []).append(st)

    def exchange_breaks():
        for s1 in one_unit:
            firsts = [space.act_state(s1, unit) for unit in units_at]
            for s2 in by_source_obj.get(space.unit_t_obj(s1[-1]), ()):
                for psi, a1 in zip(loops, firsts):
                    lhs = space.act_state(s1 + s2, psi)
                    a12 = a1 + space.act_state(s2, psi)
                    rhs_key = keys.get(a12) or space.composed_key(a12)
                    if rhs_key is None:
                        yield (f"exchange composite undefined: the factors of chain "
                               f"{s1 + s2} acted by {psi} do not compose")
                        continue
                    lhs_key = keys.get(lhs) or space.composed_key(lhs)
                    if lhs_key is None:
                        yield broken(psi, s1 + s2)
                    elif lhs_key != rhs_key:
                        yield f"exchange law breaks for {psi} on a 2-chain"

    movers = [psi for psi in q.morphisms.reps if psi != neutral]

    def split_classes():
        for members in classes.values():
            for psi in movers:
                target = None
                for st in members:
                    acted = space.act_state(st, psi)
                    acted_key = keys.get(acted) or space.composed_key(acted)
                    if acted_key is None:
                        yield broken(psi, st)
                    elif target is None:
                        target = acted_key
                    elif acted_key != target:
                        yield f"equal chains act apart under {psi}"

    return [next(scan(), None) for scan in (unfree_morphisms, exchange_breaks, split_classes)]
