"""Nothing prints a traceback: single-node edits of preset documents.

Each edit deletes one JSON node of a preset document, or replaces it with
`null`, `0`, `"zz"`, `[]`, `{}` or `true`. `validate` and
`check --suite all` then run through `cli.main` in process; each must exit
0, 1 or 2, never raise.
"""

import copy
import json
import random

import pytest

from catbundle import cli
from catbundle.presets import build_instance
from catbundle.schema import instance_to_json

DELETE = object()
REPLACEMENTS = (DELETE, None, 0, "zz", [], {}, True)
EDITS_PER_PRESET = 67


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


@pytest.mark.parametrize("preset", ["s3-line5", "oracle-dirline3", "cycle6-trivial"])
def test_single_node_edits_exit_with_a_code_and_no_traceback(preset, tmp_path, capsys):
    doc = json.loads(instance_to_json(build_instance(preset, 5, True)))
    paths = list(node_paths(doc))
    rng = random.Random(7)
    target = tmp_path / "edited.json"
    for _ in range(EDITS_PER_PRESET):
        path, value = rng.choice(paths), rng.choice(REPLACEMENTS)
        target.write_text(json.dumps(edited(doc, path, value)), encoding="utf-8")
        for argv in (["validate", str(target)],
                     ["check", str(target), "--suite", "all", "--max-path-len", "1"]):
            code = cli.main(argv)
            assert code in (0, 1, 2), (path, value, argv[0], code)
        capsys.readouterr()
