"""Nothing prints a traceback: single-node and single-cell edits of preset
documents.

A node edit deletes one JSON node of a preset document, or replaces it with
`null`, `0`, `"zz"`, `[]`, `{}` or `true`; the loader refuses almost all of
them. A cell edit replaces one group, hom, action or cocycle table cell with
another element id of the same group, so the document still loads and every
suite runs on it. `validate` and `check --suite all` then run through
`cli.main` in process; each must exit 0, 1 or 2 after a node edit and 0 or 1
after a cell edit, never raise. Every node edit of one preset also goes
through the loader alone, which must refuse a pinned set of them with a
SchemaError and raise nothing else.
"""

import copy
import hashlib
import json
import random
from functools import reduce
from operator import getitem

import pytest

from catbundle import cli
from catbundle.errors import SchemaError
from catbundle.presets import build_instance
from catbundle.generation import instance_to_json
from catbundle.schema import instance_from_document

DELETE = object()
REPLACEMENTS = (DELETE, None, 0, "zz", [], {}, True)
EDITS_PER_PRESET = 67
CELL_EDITS_PER_PRESET = 20
PRESETS = ["s3-line5", "oracle-dirline3", "cycle6-trivial"]
# every single-node edit of oracle-dirline3 at seed 5, the root included: the
# number the loader refuses and the SHA-256 of their sorted (path, edit) lines
ORACLE_EDITS = 1799
ORACLE_REFUSED = 1787
ORACLE_REFUSED_SHA256 = "babc613998d12d464640dcdeeb8e4f428ff1584f0efdb432d1a0dd6e687397a3"


def node_paths(node, path=()):
    """The path of every node below `node`, in document order."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def edited(doc, path, value):
    """A copy of `doc` with the node at `path` deleted or replaced."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


def table_cells(doc):
    """(path, group) of every group, hom, action and cocycle table cell, where
    `group` names the group whose element ids the cell holds."""
    for name, group in doc["groups"].items():
        for a, row in group["mul"].items():
            for b in row:
                yield ("groups", name, "mul", a, b), name
        for a in group["inv"]:
            yield ("groups", name, "inv", a), name
    for name, hom in doc["homs"].items():
        for x in hom["map"]:
            yield ("homs", name, "map", x), hom["codomain"]
    for name, action in doc["actions"].items():
        for g, row in action["map"].items():
            for x in row:
                yield ("actions", name, "map", g, x), action["space"]
    chain = doc["chain"]
    for table, group in (("h", chain["outer"]["H"]), ("j", chain["inner"]["H"])):
        for key in doc["cocycle"][table]:
            yield ("cocycle", table, key), group


def run_cli(target, allowed, context):
    for argv in (["validate", str(target)],
                 ["check", str(target), "--suite", "all", "--max-path-len", "1"]):
        code = cli.main(argv)
        assert code in allowed, (*context, argv[0], code)


@pytest.mark.parametrize("preset", PRESETS)
def test_single_node_edits_exit_with_a_code_and_no_traceback(preset, tmp_path, capsys):
    doc = json.loads(instance_to_json(build_instance(preset, 5, True)))
    paths = list(node_paths(doc))
    rng = random.Random(7)
    target = tmp_path / "edited.json"
    for _ in range(EDITS_PER_PRESET):
        path, value = rng.choice(paths), rng.choice(REPLACEMENTS)
        target.write_text(json.dumps(edited(doc, path, value)), encoding="utf-8")
        run_cli(target, (0, 1, 2), (path, value))
        capsys.readouterr()


@pytest.mark.parametrize("preset", PRESETS)
def test_single_cell_edits_load_and_exit_with_a_verdict(preset, tmp_path, capsys):
    doc = json.loads(instance_to_json(build_instance(preset, 5, True)))
    cells = list(table_cells(doc))
    rng = random.Random(7)
    target = tmp_path / "edited.json"
    for _ in range(CELL_EDITS_PER_PRESET):
        path, group = rng.choice(cells)
        old = reduce(getitem, path, doc)
        value = rng.choice([x for x in doc["groups"][group]["elements"] if x != old])
        target.write_text(json.dumps(edited(doc, path, value)), encoding="utf-8")
        run_cli(target, (0, 1), (path, value))
        capsys.readouterr()


def refusals(doc):
    """The number of edits of `doc`, each node deleted or replaced, and the
    ones `instance_from_document` refuses, as sorted JSON lines [path, edit].
    Replacing the root hands the loader the replacement, deleting it the
    DELETE sentinel. Any exception but SchemaError escapes."""
    paths = [()] + list(node_paths(doc))
    lines = []
    for path in paths:
        for value in REPLACEMENTS:
            try:
                instance_from_document(edited(doc, path, value) if path else value)
            except SchemaError:
                label = "delete" if value is DELETE else json.dumps(value)
                lines.append(json.dumps([list(path), label]))
    return len(paths) * len(REPLACEMENTS), sorted(lines)


def test_loader_refuses_the_same_single_node_edits():
    doc = json.loads(instance_to_json(build_instance("oracle-dirline3", 5, True)))
    edits, lines = refusals(doc)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (edits, len(lines), digest) == (ORACLE_EDITS, ORACLE_REFUSED, ORACLE_REFUSED_SHA256)
