"""Small permutation groups as explicit tables.

Only used at preset-construction time. Permutations on {0..n-1} are tuples p
with p[i] the image of i; composition is (p * q)(x) = p(q(x)), apply q first.
Element ids are cycle names on 1-based points, "(12)(34)", with "e" for the
identity; cycles start at their smallest point and are sorted by first point.
"""

from __future__ import annotations

from itertools import permutations as iter_permutations

from .errors import SchemaError
from .groups import FiniteGroup, GroupAction, GroupHom


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def parity(p: tuple[int, ...]) -> int:
    """+1 for even, -1 for odd."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def cycle_name(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + "".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "e"


def _group_from_perms(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    named = sorted((cycle_name(p), p) for p in perms)
    ids = [nm for nm, _ in named]
    mul = {}
    inv = {}
    for a, pa in named:
        inv[a] = cycle_name(inverse(pa))
        for b, pb in named:
            mul[(a, b)] = cycle_name(compose(pa, pb))
    return FiniteGroup(name, ids, mul, "e", inv)


def symmetric_group(n: int, name: str | None = None) -> FiniteGroup:
    perms = [tuple(p) for p in iter_permutations(range(n))]
    return _group_from_perms(name or f"S{n}", perms)


def alternating_group(n: int, name: str | None = None) -> FiniteGroup:
    perms = [tuple(p) for p in iter_permutations(range(n)) if parity(tuple(p)) == 1]
    return _group_from_perms(name or f"A{n}", perms)


def klein_four(name: str = "V4") -> FiniteGroup:
    """The double transpositions in S4 plus the identity, as permutations of 4 points."""
    perms = [
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    ]
    return _group_from_perms(name, perms)


def inclusion_hom(sub: FiniteGroup, big: FiniteGroup, name: str = "incl") -> GroupHom:
    """Inclusion of a permutation subgroup; ids must match element-wise."""
    for x in sub.elements:
        if x not in big.element_set:
            raise SchemaError(f"element {x!r} of {sub.name} is not in {big.name}")
    return GroupHom(name, sub, big, {x: x for x in sub.elements})


def identity_hom(g: FiniteGroup, name: str = "id") -> GroupHom:
    return GroupHom(name, g, g, {x: x for x in g.elements})


def conjugation_action(actor: FiniteGroup, space: FiniteGroup, name: str = "conj") -> GroupAction:
    """actor acts on space by g.h = g h g^{-1}, read from the actor's table.

    The space's elements must be elements of the actor, and conjugation by
    the actor must keep them in the space: `GroupAction` refuses a conjugate
    outside it.
    """
    return GroupAction(name, actor, space, {
        (g, h): actor.conj(g, h) for g in actor.elements for h in space.elements})


def trivial_action(actor: FiniteGroup, space: FiniteGroup, name: str = "triv") -> GroupAction:
    return GroupAction(
        name, actor, space, {(g, h): h for g in actor.elements for h in space.elements}
    )
