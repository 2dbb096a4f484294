"""Validators for raw group, hom and action tables, including the failure
paths a corrupted document exercises."""

import re

import pytest

from catbundle.errors import SchemaError
from catbundle.gerbal import GerbalCocycle
from catbundle.groups import (
    ORDER_CAP,
    FiniteGroup,
    GroupAction,
    GroupHom,
    generators,
    subgroup_as_group,
    validate_action,
    validate_group,
    validate_hom,
)
from catbundle.permutations import alternating_group, klein_four, symmetric_group, trivial_action
from catbundle.presets import build_instance


def tiny_group():
    # Z2 written out by hand
    return FiniteGroup(
        "Z2", ["e", "a"],
        {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"},
        "e", {"e": "e", "a": "a"},
    )


def test_validate_group_passes_on_s4():
    rep = validate_group(symmetric_group(4))
    assert rep.ok
    suffixes = {c.check_id.rsplit(".", 1)[-1] for c in rep.checks}
    assert {"identity", "inverse", "assoc"} <= suffixes


def test_validate_group_catches_broken_associativity():
    g = tiny_group()
    g.mul[("a", "a")] = "a"  # now a is idempotent but has no inverse
    rep = validate_group(g)
    assert not rep.ok
    failing = {c.check_id for c in rep.failures()}
    assert failing  # at least one law named in the report
    assert all(c.witness for c in rep.failures())


def test_validate_group_catches_bad_identity():
    g = tiny_group()
    g.mul[("e", "a")] = "e"
    rep = validate_group(g)
    assert not rep.ok


def left_bracketed(picks, op):
    """Every left-bracketed product of `picks`, one or more factors long."""
    reached, todo = set(), list(picks)
    while todo:
        x = todo.pop()
        if x not in reached:
            reached.add(x)
            todo.extend(op(x, p) for p in picks)
    return reached


def non_associative_s3():
    g = symmetric_group(3)
    g.mul[("(13)", "(12)")] = "e"
    return g


@pytest.mark.parametrize("group", [symmetric_group(3), symmetric_group(4), alternating_group(4),
                                   klein_four(), non_associative_s3()],
                         ids=["S3", "S4", "A4", "V4", "S3-edited"])
def test_generators_reach_every_element_by_left_bracketed_products(group):
    picks = generators(group.elements, group.op)
    assert left_bracketed(picks, group.op) == set(group.elements)
    # greedy: in element order, each pick is out of reach of the picks before it
    assert [group.elements.index(p) for p in picks] == sorted(
        group.elements.index(p) for p in picks)
    for i, p in enumerate(picks):
        assert p not in left_bracketed(picks[:i], group.op)


def test_lights_test_names_the_full_scans_first_witness():
    # the first failing triple in scan order has the middle (13), which is
    # not a generator; a generator middle fails later, at ((123)*(12))*(12)
    g = non_associative_s3()
    assert "(13)" not in generators(g.elements, g.op)
    witness = {c.check_id: c.witness for c in validate_group(g).failures()}["group.S3.assoc"]
    assert witness.startswith("((12)*(13))*(12) = ")


def test_validate_hom_passes_on_inclusion():
    a4, s4 = alternating_group(4), symmetric_group(4)
    f = GroupHom("incl", a4, s4, {x: x for x in a4.elements})
    assert validate_hom(f).ok


def test_validate_hom_catches_non_multiplicative_map():
    s3 = symmetric_group(3)
    table = {x: "e" for x in s3.elements}
    table["(12)"] = "(12)"  # breaks f(ab) = f(a)f(b)
    rep = validate_hom(GroupHom("bad", s3, s3, table))
    assert not rep.ok
    assert any("(12)" in (c.witness or "") for c in rep.failures())


def test_validate_action_passes_on_trivial():
    s3 = symmetric_group(3)
    assert validate_action(trivial_action(s3, s3)).ok


def test_validate_action_catches_non_automorphism():
    s3 = symmetric_group(3)
    table = {(g, h): h for g in s3.elements for h in s3.elements}
    table[("(12)", "(123)")] = "(12)"  # not a bijection on the space
    rep = validate_action(GroupAction("bad", s3, s3, table))
    assert not rep.ok


def test_missing_product_raises_schema_error():
    g = tiny_group()
    del g.mul[("a", "a")]
    with pytest.raises(SchemaError):
        g.op("a", "a")


def test_subgroup_as_group_inherits_table():
    s4 = symmetric_group(4)
    v = subgroup_as_group(s4, ["e", "(12)(34)", "(13)(24)", "(14)(23)"], "V")
    assert v.order == 4
    assert v.op("(12)(34)", "(13)(24)") == "(14)(23)"
    assert validate_group(v).ok


def test_subgroup_as_group_rejects_non_closed_subset():
    s4 = symmetric_group(4)
    with pytest.raises(SchemaError):
        subgroup_as_group(s4, ["e", "(12)", "(123)"], "bad")


def s3_line5_tables():
    """Each kind of table of the s3-line5 instance at seed 5, as (table, a
    function that builds its object again from a replacement table)."""
    inst = build_instance("s3-line5", 5, True)
    chain, gc = inst.chain, inst.gc
    g, tau, alpha = chain.G, chain.tau, chain.alpha
    return {
        "group-inverse": (g.inv, lambda t: FiniteGroup(g.name, g.elements, g.mul, g.identity, t)),
        "group-product": (g.mul, lambda t: FiniteGroup(g.name, g.elements, t, g.identity, g.inv)),
        "hom": (tau.table, lambda t: GroupHom(tau.name, tau.domain, tau.codomain, t)),
        "action": (alpha.table, lambda t: GroupAction(alpha.name, alpha.actor, alpha.space, t)),
        "h": (gc.h, lambda t: GerbalCocycle(chain, inst.cover, t, gc.j)),
        "j": (gc.j, lambda t: GerbalCocycle(chain, inst.cover, gc.h, t)),
    }


# (kind, table name, its first key, a key outside it, the group of its values),
# the keys written as the messages write them
TABLE_KINDS = [
    ("group-inverse", "S3.inv", "('(12)')", "('zz')", "S3"),
    ("group-product", "S3.mul", "('(12)', '(12)')", "('(12)', 'zz')", "S3"),
    ("hom", "tau", "('(12)')", "('zz')", "S3"),
    ("action", "conj_outer", "('(12)', '(12)')", "('(12)', 'zz')", "S3"),
    ("h", "h", "('1', '1', '0')", "('1', '1', 'zz')", "S3"),
    ("j", "j", "('1', '1', '1', '0')", "('1', '1', '1', 'zz')", "A3"),
]


@pytest.mark.parametrize("kind, name, key_text, extra_text, group", TABLE_KINDS,
                         ids=[k[0] for k in TABLE_KINDS])
def test_table_refuses_a_missing_an_outside_and_an_extra_entry(
        kind, name, key_text, extra_text, group):
    table, build = s3_line5_tables()[kind]
    key = min(table)
    extra = "zz" if isinstance(key, str) else key[:-1] + ("zz",)
    build(table)
    missing = {k: v for k, v in table.items() if k != key}
    cases = [
        (missing, f"{name} table is missing entries, first: {key_text}"),
        ({**table, key: "zz"}, f"{name}{key_text} = 'zz' is not in '{group}'"),
        ({**table, extra: table[key]},
         f"{name} table has entries outside its keys, first: {extra_text}"),
    ]
    for bad, message in cases:
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            build(bad)


def test_an_element_outside_a_table_is_named():
    g = tiny_group()
    hom = GroupHom("id", g, g, {"e": "e", "a": "a"})
    act = GroupAction("triv", g, g, {(x, y): y for x in g.elements for y in g.elements})
    for call, message in ((lambda: g.inverse("zz"), "group 'Z2': no inverse for 'zz'"),
                          (lambda: hom("zz"), "hom 'id': no value for 'zz'"),
                          (lambda: act("zz", "e"), "action 'triv': no value for ('zz', 'e')")):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            call()


def test_a_group_above_the_order_cap_is_refused_before_its_tables_are_read():
    elements = [str(n) for n in range(ORDER_CAP + 1)]
    with pytest.raises(SchemaError, match=f"^group 'big': order {ORDER_CAP + 1} exceeds cap "
                                          f"{ORDER_CAP}$"):
        FiniteGroup("big", elements, {}, "0", {})


def test_an_action_that_is_no_bijection_is_named():
    # a acts on Z2 by the zero map: a homomorphism that is no bijection, and
    # no action either, so the automorphism law is named by its full scan
    g = tiny_group()
    act = GroupAction("zero", g, g, {("e", "e"): "e", ("e", "a"): "a",
                                      ("a", "e"): "e", ("a", "a"): "e"})
    failed = {c.check_id: c.witness for c in validate_action(act, True).failures()}
    assert failed["action.zero.automorphism"] == "a. is not a bijection of Z2"
