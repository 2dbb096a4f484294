"""Imports: every imported name is used, the package imports no
`dataclasses`, and the package namespace resolves each public name lazily.

A name counts as used when it is read anywhere in its module, appears in a
string annotation, or is listed in the module's `__all__`. `from __future__`
imports are directives, not names, and are skipped.
"""

import ast
import sys
from pathlib import Path

import pytest

import catbundle

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_every_imported_name_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in sorted(imported_names(tree).items())
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_no_module_under_src_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize on every CLI start
    offenders = []
    for path in SOURCES:
        if path.relative_to(ROOT).parts[0] != "src":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n and n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not offenders, f"imports dataclasses: {offenders}"


def test_the_name_table_is_all():
    assert list(catbundle._HOME) == catbundle.__all__


@pytest.mark.parametrize("name", catbundle.__all__)
def test_each_public_name_is_its_defining_modules_object(name):
    home = f"catbundle.{catbundle._HOME[name]}"
    value = getattr(catbundle, name)
    assert value is getattr(sys.modules[home], name)
    assert value.__module__ == home
    assert catbundle.__dict__[name] is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from catbundle import *", namespace)
    for name in catbundle.__all__:
        assert namespace[name] is getattr(catbundle, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'catbundle' has no attribute 'nope'$"):
        catbundle.nope
