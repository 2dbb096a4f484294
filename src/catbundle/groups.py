"""Finite groups, homomorphisms, and actions as explicit lookup tables.

Elements are opaque text ids. Structural problems (oversized or duplicate
element lists, and a table with a missing entry, an extra entry or a value
outside its group) raise SchemaError at construction time: every table is
checked once, by `checked_table`, when its object is built. Violations of the
group/hom/action laws are reported by the validate_* functions and never
raised, so a caller can inspect witnesses.
"""

from __future__ import annotations

from typing import Callable, Collection, Hashable, Iterable, Mapping

from .errors import SchemaError
from .report import Report

ORDER_CAP = 1024


def checked_table(name: str, table: Mapping, keys: Collection[Hashable],
                  group: FiniteGroup) -> dict:
    """A copy of `table`, which must hold exactly the distinct `keys`, each
    with a value in `group`. Scanning `keys` in order, the first missing key or
    value outside the group is a SchemaError; so is an extra key after that.
    Messages write a tuple key k as name(*k) and any other key x as name(x)."""
    def call(key) -> str:
        return str(key) if isinstance(key, tuple) else f"({key!r})"

    copy = dict(table)
    for key in keys:
        if key not in copy:
            raise SchemaError(f"{name} table is missing entries, first: {call(key)}")
        if copy[key] not in group.element_set:
            raise SchemaError(f"{name}{call(key)} = {copy[key]!r} is not in {group.name!r}")
    if len(copy) != len(keys):
        wanted = set(keys)
        extra = next(key for key in copy if key not in wanted)
        raise SchemaError(f"{name} table has entries outside its keys, first: {call(extra)}")
    return copy


class FiniteGroup:
    """A finite group given by a full multiplication table.

    mul maps (a, b) to the product ab; inv maps each element to its claimed
    inverse. The table must be total over elements x elements and closed, but
    it is not required to satisfy the group axioms: use validate_group to
    check those and obtain witnesses.
    """

    def __init__(
        self,
        name: str,
        elements: Iterable[str],
        mul: Mapping[tuple[str, str], str],
        identity: str,
        inv: Mapping[str, str],
    ):
        self.name = name
        self.elements = tuple(elements)
        self.element_set = frozenset(self.elements)
        if not self.elements:
            raise SchemaError(f"group {name!r}: element list is empty")
        if len(self.element_set) != len(self.elements):
            raise SchemaError(f"group {name!r}: duplicate element ids")
        if len(self.elements) > ORDER_CAP:
            raise SchemaError(
                f"group {name!r}: order {len(self.elements)} exceeds cap {ORDER_CAP}"
            )
        if identity not in self.element_set:
            raise SchemaError(f"group {name!r}: identity {identity!r} is not an element")
        for x in self.elements:
            if "|" in x:
                raise SchemaError(f"group {name!r}: element id {x!r} contains '|'")
        self.identity = identity
        self.inv = checked_table(f"{name}.inv", inv, self.elements, self)
        self.mul = checked_table(
            f"{name}.mul", mul, [(a, b) for a in self.elements for b in self.elements], self)

    def op(self, a: str, b: str) -> str:
        try:
            return self.mul[(a, b)]
        except KeyError:
            raise SchemaError(f"group {self.name!r}: no product for ({a!r}, {b!r})") from None

    def inverse(self, a: str) -> str:
        try:
            return self.inv[a]
        except KeyError:
            raise SchemaError(f"group {self.name!r}: no inverse for {a!r}") from None

    def conj(self, g: str, h: str) -> str:
        """g h g^{-1}"""
        return self.op(self.op(g, h), self.inverse(g))

    @property
    def order(self) -> int:
        return len(self.elements)


class GroupHom:
    """A map between finite groups given by a full value table."""

    def __init__(self, name: str, domain: FiniteGroup, codomain: FiniteGroup,
                 table: Mapping[str, str]):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.table = checked_table(name, table, domain.elements, codomain)

    def __call__(self, x: str) -> str:
        try:
            return self.table[x]
        except KeyError:
            raise SchemaError(f"hom {self.name!r}: no value for {x!r}") from None

    def image(self) -> frozenset[str]:
        return frozenset(self.table.values())


class GroupAction:
    """A left action of `actor` on the group `space`, one table row per actor element."""

    def __init__(self, name: str, actor: FiniteGroup, space: FiniteGroup,
                 table: Mapping[tuple[str, str], str]):
        self.name = name
        self.actor = actor
        self.space = space
        self.table = checked_table(
            name, table, [(g, h) for g in actor.elements for h in space.elements], space)

    def __call__(self, g: str, h: str) -> str:
        try:
            return self.table[(g, h)]
        except KeyError:
            raise SchemaError(f"action {self.name!r}: no value for ({g!r}, {h!r})") from None


def generators(elements: Iterable[str], op: Callable[[str, str], str]) -> list[str]:
    """Greedy generators: in element order, each element that no left-bracketed
    product of earlier picks reaches. So every element is such a product of
    the picks, whether or not `op` is associative."""
    picks: list[str] = []
    reached: set[str] = set()
    for x in elements:
        if x in reached:
            continue
        picks.append(x)
        todo = [x, *(op(r, x) for r in reached)]
        while todo:
            z = todo.pop()
            if z not in reached:
                reached.add(z)
                todo.extend(op(z, p) for p in picks)
    return picks


def validate_group(g: FiniteGroup) -> Report:
    """Check two-sided identity and inverses, and associativity by Light's
    test on generators; a failed test is named by the full scan's witness."""
    rep = Report("group")
    e = g.identity

    rep.search(f"group.{g.name}.identity", "e*a = a*e = a", (
        f"identity fails at {a!r}: e*{a}={g.op(e, a)!r}, {a}*e={g.op(a, e)!r}"
        for a in g.elements if g.op(e, a) != a or g.op(a, e) != a))

    def bad_inverses():
        for a in g.elements:
            b = g.inverse(a)
            if g.op(a, b) != e or g.op(b, a) != e:
                yield f"no inverse for {a!r}: {a}*{b}={g.op(a, b)!r}"
    rep.search(f"group.{g.name}.inverse", "a*inv(a) = inv(a)*a = e", bad_inverses())

    def bad_triples(middles):
        for a in g.elements:
            for b in middles:
                ab = g.op(a, b)
                for c in g.elements:
                    if g.op(ab, c) != g.op(a, g.op(b, c)):
                        yield f"({a}*{b})*{c} = {g.op(ab, c)!r} != {a}*({b}*{c})"
    rep.search(f"group.{g.name}.assoc", "(a*b)*c = a*(b*c)", bad_triples(g.elements),
               bad_triples(generators(g.elements, g.op)))
    return rep


def validate_hom(f: GroupHom) -> Report:
    rep = Report("hom")

    def bad_pairs():
        for a in f.domain.elements:
            for b in f.domain.elements:
                lhs = f(f.domain.op(a, b))
                rhs = f.codomain.op(f(a), f(b))
                if lhs != rhs:
                    yield f"f({a}*{b})={lhs!r} != f({a})*f({b})={rhs!r}"
    rep.search(f"hom.{f.name}.compose", "f(a*b) = f(a)*f(b)", bad_pairs())

    ok = f(f.domain.identity) == f.codomain.identity
    rep.record(
        f"hom.{f.name}.identity", "f(e) = e", ok,
        None if ok else f"f(e) = {f(f.domain.identity)!r}",
    )
    return rep


def validate_action(a: GroupAction, groups_hold: bool = False) -> Report:
    """Check the action laws. With `groups_hold` (actor and space passed
    validate_group), `compose` and then `automorphism` are decided on
    generators, and a failure is named by the full scan's witness."""
    rep = Report("action")
    actor, space = a.actor, a.space
    actor_gens = generators(actor.elements, actor.op) if groups_hold else None

    rep.search(f"action.{a.name}.identity", "e.h = h", (
        f"e.{h} = {a(actor.identity, h)!r}"
        for h in space.elements if a(actor.identity, h) != h))

    def bad_composites(seconds):
        for g1 in actor.elements:
            for g2 in seconds:
                g12 = actor.op(g1, g2)
                for h in space.elements:
                    if a(g12, h) != a(g1, a(g2, h)):
                        yield f"(({g1}*{g2}).{h}) != ({g1}.({g2}.{h}))"
    rep.search(f"action.{a.name}.compose", "(g1*g2).h = g1.(g2.h)",
               bad_composites(actor.elements),
               bad_composites(actor_gens) if groups_hold else None)

    def non_automorphisms(actors, seconds):
        for g in actors:
            seen = set()
            for h1 in space.elements:
                seen.add(a(g, h1))
                for h2 in seconds:
                    lhs = a(g, space.op(h1, h2))
                    rhs = space.op(a(g, h1), a(g, h2))
                    if lhs != rhs:
                        yield f"{g}.({h1}*{h2})={lhs!r} != ({g}.{h1})*({g}.{h2})={rhs!r}"
            if len(seen) != space.order:
                yield f"{g}. is not a bijection of {space.name}"
    decided = None
    if groups_hold and rep.ok:
        decided = non_automorphisms(actor_gens, generators(space.elements, space.op))
    rep.search(f"action.{a.name}.automorphism",
               "h -> g.h is an automorphism of the space",
               non_automorphisms(actor.elements, space.elements), decided)
    return rep


def subgroup_as_group(g: FiniteGroup, subset: Iterable[str], name: str) -> FiniteGroup:
    """Extract a subset of a group closed under product as its own
    FiniteGroup; in a finite group that makes it a subgroup."""
    sub = sorted(set(subset))
    subset_set = set(sub)
    mul = {}
    for a in sub:
        for b in sub:
            c = g.op(a, b)
            if c not in subset_set:
                raise SchemaError(f"subgroup {name!r}: not closed at ({a!r}, {b!r})")
            mul[(a, b)] = c
    inv = {a: g.inverse(a) for a in sub}
    return FiniteGroup(name, sub, mul, g.identity, inv)
