"""The JSON document loader for full instances, and canonical JSON.

A document carries the groups (as explicit multiplication tables), the two
crossed modules sharing the middle group, the covered base, and the dense
(h, j) cocycle tables. Loading rebuilds everything structurally but defers
all law checking to the suites: a document with a broken law must load and
then fail its report, while a document with a malformed table must not load.
Every table (group products and inverses, the hom and action maps, the h and
j cocycle cells) is checked once, by `groups.checked_table`, when its object
is built: a missing or extra entry, or a value outside its group, is a
SchemaError here, so every verb refuses such a document before any suite
runs. Every id and table value must be a JSON string, so a value of another
type is a SchemaError that names its place.

Serialization is canonical: sorted keys, two-space indent, trailing newline,
so identical inputs produce byte-identical files. Reports are written here;
documents are written by `generation`, which only `generate` loads.
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


def _string(val: Any, where: str) -> str:
    if not isinstance(val, str):
        raise SchemaError(f"{where} must be a string")
    return val


def _strings(val: Any, where: str) -> list[str]:
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        raise SchemaError(f"{where} must be a list of strings")
    return val


def _flat_map(enc: Any, key: str, where: str) -> dict[str, str]:
    return {a: _string(x, f"{where}.{key}.{a}")
            for a, x in _need(enc, key, dict, where).items()}


def _nested_map(enc: Any, key: str, where: str) -> dict[tuple[str, str], str]:
    table = {}
    for a, row in _need(enc, key, dict, where).items():
        if not isinstance(row, dict):
            raise SchemaError(f"{where}.{key}.{a} must be an object")
        for b, ab in row.items():
            table[(a, b)] = _string(ab, f"{where}.{key}.{a}.{b}")
    return table


def _decode_group(name: str, enc: Any) -> FiniteGroup:
    where = f"groups.{name}"
    elements = _strings(_need(enc, "elements", list, where), f"{where}.elements")
    identity = _need(enc, "identity", str, where)
    mul = _nested_map(enc, "mul", where)
    return FiniteGroup(name, elements, mul, identity, _flat_map(enc, "inv", where))


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
        homs[name] = GroupHom(name, dom, cod, _flat_map(enc, "map", f"homs.{name}"))
    actions = {}
    for name, enc in _need(doc, "actions", dict, "document").items():
        actor = _group_ref(groups, _need(enc, "actor", str, f"actions.{name}"),
                           f"actions.{name}.actor")
        space = _group_ref(groups, _need(enc, "space", str, f"actions.{name}"),
                           f"actions.{name}.space")
        actions[name] = GroupAction(name, actor, space,
                                    _nested_map(enc, "map", f"actions.{name}"))

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
    chain = ChainedCrossedModules(mods["outer"], mods["inner"])

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
        vertices=_strings(_need(cover_enc, "vertices", list, "cover"), "cover.vertices"),
        edges=edges,
        cover={i: set(_strings(vs, f"cover.sets.{i}")) for i, vs in sets_enc.items()},
        index_order=_strings(_need(cover_enc, "index_order", list, "cover"),
                             "cover.index_order"),
        directed=_need(cover_enc, "directed", bool, "cover"),
        identity_edges=_need(cover_enc, "identity_edges", bool, "cover"),
    )

    cocycle_enc = _need(doc, "cocycle", dict, "document")
    cells: dict[str, dict] = {}
    for name, shape in (("h", "iku"), ("j", "ikmu")):
        cells[name] = {}
        for key, val in _flat_map(cocycle_enc, name, "cocycle").items():
            if key.count(SEP) != len(shape) - 1:
                raise SchemaError(f"cocycle.{name} key {key!r} must look like {SEP.join(shape)}")
            cells[name][tuple(key.split(SEP))] = val
    gc = GerbalCocycle(chain, cover, cells["h"], cells["j"])
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
