"""JSON document round-trip for full instances.

A document carries the groups (as explicit multiplication tables), the two
crossed modules sharing the middle group, the covered base, and the dense
(h, j) cocycle tables. Loading rebuilds everything structurally but defers
all law checking to the suites: a document with a broken law must load and
then fail its report, while a document with a malformed table must not load.

Serialization is canonical: sorted keys, two-space indent, trailing newline,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from .complexes import CoverComplex
from .crossed import ChainedCrossedModules, CrossedModule
from .errors import SchemaError
from .gerbal import GerbalCocycle
from .groups import FiniteGroup, GroupAction, GroupHom
from .report import Report

SCHEMA_VERSION = 1
SEP = "|"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class Instance(NamedTuple):
    preset: str
    seed: int
    noise: bool
    chain: ChainedCrossedModules
    cover: CoverComplex
    gc: GerbalCocycle


def _encode_group(g: FiniteGroup) -> dict:
    return {
        "elements": list(g.elements),
        "identity": g.identity,
        "mul": {a: {b: g.op(a, b) for b in g.elements} for a in g.elements},
        "inv": {a: g.inverse(a) for a in g.elements},
    }


def _encode_hom(h: GroupHom) -> dict:
    return {"domain": h.domain.name, "codomain": h.codomain.name,
            "map": {x: h(x) for x in h.domain.elements}}


def _encode_action(a: GroupAction) -> dict:
    return {"actor": a.actor.name, "space": a.space.name,
            "map": {g: {h: a(g, h) for h in a.space.elements}
                    for g in a.actor.elements}}


def document_from_instance(inst: Instance) -> dict:
    chain = inst.chain
    groups: dict[str, FiniteGroup] = {}
    for grp in (chain.G, chain.H, chain.J):
        known = groups.get(grp.name)
        if known is not None and known is not grp:
            raise SchemaError(f"two distinct groups share the name {grp.name!r}")
        groups[grp.name] = grp
    homs = {}
    actions = {}
    for hom in (chain.tau, chain.tau_p):
        if hom.name in homs:
            raise SchemaError(f"two homomorphisms share the name {hom.name!r}")
        homs[hom.name] = hom
    for act in (chain.alpha, chain.alpha_p):
        if act.name in actions:
            raise SchemaError(f"two actions share the name {act.name!r}")
        actions[act.name] = act
    cover = inst.cover
    for part in list(cover.vertices) + [e for e, _, _ in cover.edges] \
            + list(cover.index_order):
        if SEP in part:
            raise SchemaError(f"identifier {part!r} may not contain {SEP!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": inst.preset, "seed": inst.seed, "noise": inst.noise},
        "groups": {name: _encode_group(g) for name, g in groups.items()},
        "homs": {name: _encode_hom(h) for name, h in homs.items()},
        "actions": {name: _encode_action(a) for name, a in actions.items()},
        "chain": {
            "outer": {"G": chain.G.name, "H": chain.H.name,
                      "alpha": chain.alpha.name, "tau": chain.tau.name},
            "inner": {"G": chain.H.name, "H": chain.J.name,
                      "alpha": chain.alpha_p.name, "tau": chain.tau_p.name},
        },
        "cover": {
            "vertices": list(cover.vertices),
            "edges": [[e, u, v] for e, u, v in cover.edges],
            "sets": {i: sorted(cover.chart(i)) for i in cover.index_order},
            "index_order": list(cover.index_order),
            "directed": cover.directed,
            "identity_edges": cover.identity_edges,
        },
        "cocycle": {
            "h": {SEP.join(key): val for key, val in sorted(inst.gc.h.items())},
            "j": {SEP.join(key): val for key, val in sorted(inst.gc.j.items())},
        },
    }


def instance_to_json(inst: Instance) -> str:
    return canonical_json(document_from_instance(inst))


def _need(doc: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    if key not in doc:
        raise SchemaError(f"{where} is missing the key {key!r}")
    val = doc[key]
    if kind is bool:
        if not isinstance(val, bool):
            raise SchemaError(f"{where}.{key} must be a boolean")
    elif kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise SchemaError(f"{where}.{key} must be an integer")
    elif not isinstance(val, kind):
        raise SchemaError(f"{where}.{key} must be {kind.__name__}")
    return val


def _decode_group(name: str, enc: Any) -> FiniteGroup:
    elements = _need(enc, "elements", list, f"groups.{name}")
    identity = _need(enc, "identity", str, f"groups.{name}")
    mul_nested = _need(enc, "mul", dict, f"groups.{name}")
    inv = _need(enc, "inv", dict, f"groups.{name}")
    mul = {}
    for a, row in mul_nested.items():
        if not isinstance(row, dict):
            raise SchemaError(f"groups.{name}.mul.{a} must be an object")
        for b, ab in row.items():
            mul[(a, b)] = ab
    return FiniteGroup(name, elements, mul, identity, inv)


def _group_ref(groups: dict[str, FiniteGroup], name: Any, where: str) -> FiniteGroup:
    if name not in groups:
        raise SchemaError(f"{where} refers to unknown group {name!r}")
    return groups[name]


def instance_from_document(doc: Any) -> Instance:
    version = _need(doc, "schema_version", int, "document")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}")
    meta = _need(doc, "meta", dict, "document")
    preset = _need(meta, "name", str, "meta")
    seed = _need(meta, "seed", int, "meta")
    noise = _need(meta, "noise", bool, "meta")

    groups_enc = _need(doc, "groups", dict, "document")
    groups = {name: _decode_group(name, enc) for name, enc in groups_enc.items()}

    homs = {}
    for name, enc in _need(doc, "homs", dict, "document").items():
        dom = _group_ref(groups, _need(enc, "domain", str, f"homs.{name}"),
                         f"homs.{name}.domain")
        cod = _group_ref(groups, _need(enc, "codomain", str, f"homs.{name}"),
                         f"homs.{name}.codomain")
        homs[name] = GroupHom(name, dom, cod,
                              _need(enc, "map", dict, f"homs.{name}"))
    actions = {}
    for name, enc in _need(doc, "actions", dict, "document").items():
        actor = _group_ref(groups, _need(enc, "actor", str, f"actions.{name}"),
                           f"actions.{name}.actor")
        space = _group_ref(groups, _need(enc, "space", str, f"actions.{name}"),
                           f"actions.{name}.space")
        nested = _need(enc, "map", dict, f"actions.{name}")
        table = {}
        for g, row in nested.items():
            if not isinstance(row, dict):
                raise SchemaError(f"actions.{name}.map.{g} must be an object")
            for h, gh in row.items():
                table[(g, h)] = gh
        actions[name] = GroupAction(name, actor, space, table)

    chain_enc = _need(doc, "chain", dict, "document")
    mods = {}
    for part in ("outer", "inner"):
        enc = _need(chain_enc, part, dict, "chain")
        G = _group_ref(groups, _need(enc, "G", str, f"chain.{part}"),
                       f"chain.{part}.G")
        H = _group_ref(groups, _need(enc, "H", str, f"chain.{part}"),
                       f"chain.{part}.H")
        aname = _need(enc, "alpha", str, f"chain.{part}")
        tname = _need(enc, "tau", str, f"chain.{part}")
        if aname not in actions:
            raise SchemaError(f"chain.{part} refers to unknown action {aname!r}")
        if tname not in homs:
            raise SchemaError(f"chain.{part} refers to unknown hom {tname!r}")
        mods[part] = CrossedModule(G, H, actions[aname], homs[tname],
                                   name=f"{part} ({H.name} -> {G.name})")
    chain = ChainedCrossedModules(mods["outer"], mods["inner"], validate=False)

    cover_enc = _need(doc, "cover", dict, "document")
    edges_enc = _need(cover_enc, "edges", list, "cover")
    edges = []
    for n, item in enumerate(edges_enc):
        if not (isinstance(item, list) and len(item) == 3
                and all(isinstance(x, str) for x in item)):
            raise SchemaError(f"cover.edges[{n}] must be [id, from, to]")
        edges.append(tuple(item))
    sets_enc = _need(cover_enc, "sets", dict, "cover")
    cover = CoverComplex(
        vertices=_need(cover_enc, "vertices", list, "cover"),
        edges=edges,
        cover={i: set(vs) for i, vs in sets_enc.items()},
        index_order=_need(cover_enc, "index_order", list, "cover"),
        directed=_need(cover_enc, "directed", bool, "cover"),
        identity_edges=_need(cover_enc, "identity_edges", bool, "cover"),
    )

    cocycle_enc = _need(doc, "cocycle", dict, "document")
    h = {}
    for key, val in _need(cocycle_enc, "h", dict, "cocycle").items():
        parts = key.split(SEP)
        if len(parts) != 3:
            raise SchemaError(f"cocycle.h key {key!r} must look like i{SEP}k{SEP}u")
        h[tuple(parts)] = val
    j = {}
    for key, val in _need(cocycle_enc, "j", dict, "cocycle").items():
        parts = key.split(SEP)
        if len(parts) != 4:
            raise SchemaError(
                f"cocycle.j key {key!r} must look like i{SEP}k{SEP}m{SEP}u")
        j[tuple(parts)] = val
    gc = GerbalCocycle(chain, cover, h, j)
    return Instance(preset=preset, seed=seed, noise=noise, chain=chain,
                    cover=cover, gc=gc)


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return instance_from_document(doc)


def report_to_json(rep: Report) -> str:
    return canonical_json(rep.to_dict())
