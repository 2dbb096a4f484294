"""Command-line behavior: exit codes, determinism of emitted bytes, and the
diagnostic stream."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catbundle
from catbundle.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_document(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _, _ = run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"] == {"name": "s3-line5", "seed": 3, "noise": True}


def test_generate_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "s3-line5", "--seed", "3")
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 3


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "generate", "s3-line5", "--seed", "9", "--out", str(a))
    run(capsys, "generate", "s3-line5", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "nope")
    assert code == 2
    assert "invalid choice" in err


def test_validate_good_document(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    rep = tmp_path / "rep.json"
    code, _, _ = run(capsys, "validate", str(doc), "--out", str(rep))
    assert code == 0
    assert json.loads(rep.read_text())["status"] == "pass"


def test_validate_law_breaking_document_exits_1(tmp_path, capsys):
    doc_path = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc_path))
    doc = json.loads(doc_path.read_text())
    key = next(k for k in sorted(doc["cocycle"]["h"])
               if k.split("|")[0] != k.split("|")[1])
    doc["cocycle"]["h"][key] = "(123)" if doc["cocycle"]["h"][key] != "(123)" \
        else "(12)"
    doc_path.write_text(json.dumps(doc))
    rep = tmp_path / "rep.json"
    code, _, _ = run(capsys, "validate", str(doc_path), "--out", str(rep))
    assert code == 1
    report = json.loads(rep.read_text())
    assert report["status"] == "fail"
    bad = [c for c in report["checks"] if c["status"] == "fail"]
    assert bad and all(c["witness"] for c in bad)


def test_validate_truncated_document_exits_2(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    doc.write_text(doc.read_text()[:200])
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert "line" in err


def test_validate_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.strip()


def test_check_single_suite(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    rep = tmp_path / "rep.json"
    code, _, _ = run(capsys, "check", str(doc), "--suite", "peiffer",
                     "--out", str(rep))
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["suite"] == "peiffer"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_check_reports_are_byte_identical(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, "check", str(doc), "--suite", "quotient",
                         "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_diagnostic_lists_checks_on_stderr(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    code, _, err = run(capsys, "check", str(doc), "--suite", "gerbal",
                       "--diagnostic")
    assert code == 0
    assert "gerbal.relation: pass" in err


def test_check_oracle_suite_needs_directed_base(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    code, _, err = run(capsys, "check", str(doc), "--suite", "oracle")
    assert code == 2
    assert "directed" in err


def test_check_bundle_suite_needs_identity_edges(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "oracle-dirline3", "--seed", "3", "--out", str(doc))
    code, _, err = run(capsys, "check", str(doc), "--suite", "bundle")
    assert code == 2


def test_check_oracle_suite_on_dirline3(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "oracle-dirline3", "--seed", "3", "--out", str(doc))
    rep = tmp_path / "rep.json"
    code, _, _ = run(capsys, "check", str(doc), "--suite", "oracle",
                     "--out", str(rep))
    assert code == 0
    report = json.loads(rep.read_text())
    ids = {c["check"] for c in report["checks"]}
    assert "oracle.agreement" in ids


def test_max_path_len_flag_changes_surface(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    code, _, _ = run(capsys, "check", str(doc), "--suite", "functorial",
                     "--max-path-len", "1")
    assert code == 0


def test_negative_max_path_len_is_usage_error(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    code, out, err = run(capsys, "check", str(doc), "--suite", "functorial",
                         "--max-path-len", "-1")
    assert code == 2
    assert out == ""
    assert "--max-path-len" in err


def _edited(tmp_path, capsys, preset, seed, path, value):
    """Generate a preset document and overwrite the cell at `path`."""
    doc_path = tmp_path / "inst.json"
    run(capsys, "generate", preset, "--seed", str(seed), "--out", str(doc_path))
    doc = json.loads(doc_path.read_text())
    cell = doc
    for key in path[:-1]:
        cell = cell[key]
    cell[path[-1]] = value
    doc_path.write_text(json.dumps(doc))
    return doc_path


def test_quotient_build_on_law_broken_action_fails_cleanly(tmp_path, capsys):
    # breaking the conjugation action leaves the coset composition table
    # partial; the interchange check must not compose outside it
    doc = _edited(tmp_path, capsys, "cycle6-trivial", 3,
                  ("actions", "conj_outer", "map", "(12)", "e"), "(123)")
    for suite in ("quotient", "bundle"):
        code, out, err = run(capsys, "check", str(doc), "--suite", suite,
                             "--max-path-len", "2")
        assert code == 1
        assert "Traceback" not in err
        report = json.loads(out)
        assert report["status"] == "fail"
        build = [c for c in report["checks"] if c["check"] == "quotient.build"]
        assert build and build[0]["status"] == "fail"
        assert "does not descend" in build[0]["witness"]


def test_coset_witness_does_not_depend_on_hash_seed(tmp_path, capsys):
    doc = _edited(tmp_path, capsys, "s3-line5", 7,
                  ("homs", "tau_p", "map", "(123)"), "(13)")
    src = str(Path(catbundle.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "catbundle", "check", str(doc),
             "--suite", "quotient"],
            capture_output=True, env=env, check=False)
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b"coset space" in outs[0]


@pytest.mark.parametrize("preset, suite", [("s3-line5", "bundle"),
                                           ("oracle-dirline3", "oracle")])
def test_suite_fails_on_a_broken_group_table(tmp_path, capsys, preset, suite):
    # (132)(132) = (132) breaks the A3 table; no bundle is glued over it
    doc = _edited(tmp_path, capsys, preset, 3,
                  ("groups", "A3", "mul", "(132)", "(132)"), "(132)")
    code, out, err = run(capsys, "check", str(doc), "--suite", suite,
                         "--max-path-len", "1")
    assert code == 1
    assert "Traceback" not in err
    failed = {c["check"] for c in json.loads(out)["checks"] if c["status"] == "fail"}
    assert any(".component.group." in c for c in failed), failed


# Each run is a fresh interpreter, which reports the modules it loaded beyond
# those loaded before the package was imported; no arguments, no CLI run.
FOOTPRINT_CHILD = """\
import json, sys
before = set(sys.modules)
import catbundle
code = 0
if len(sys.argv) > 1:
    from catbundle.cli import main
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""
LAYER_MODULES = {"catbundle.bundle", "catbundle.quotient", "catbundle.wordalg"}


@pytest.fixture(scope="module")
def footprint_docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("footprint")
    docs = {}
    for preset in ("s3-line5", "oracle-dirline3"):
        docs[preset] = root / f"{preset}.json"
        assert main(["generate", preset, "--seed", "3", "--out", str(docs[preset])]) == 0
    return docs


def loaded_by(*argv):
    src = str(Path(catbundle.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD, *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    code, loaded = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(loaded)


def check_loads(doc, suite, out):
    return loaded_by("check", str(doc), "--suite", suite, "--max-path-len", "1",
                     "--out", str(out))


@pytest.mark.parametrize("suite", [None, "peiffer", "gerbal", "functorial", "naturality"])
def test_precondition_verbs_load_no_later_layer(footprint_docs, tmp_path, suite):
    doc, out = footprint_docs["s3-line5"], tmp_path / "rep.json"
    if suite is None:
        loaded = loaded_by("validate", str(doc), "--out", str(out))
    else:
        loaded = check_loads(doc, suite, out)
    assert "catbundle.gerbal" in loaded
    assert not loaded & (LAYER_MODULES | {"dataclasses"})


def test_quotient_verb_loads_the_quotient_only(footprint_docs, tmp_path):
    loaded = check_loads(footprint_docs["s3-line5"], "quotient", tmp_path / "rep.json")
    assert "catbundle.quotient" in loaded
    assert not loaded & {"catbundle.bundle", "catbundle.wordalg", "dataclasses"}


def test_bundle_verb_loads_no_word_oracle(footprint_docs, tmp_path):
    loaded = check_loads(footprint_docs["s3-line5"], "bundle", tmp_path / "rep.json")
    assert "catbundle.bundle" in loaded
    assert not loaded & {"catbundle.wordalg", "fractions", "dataclasses"}


def test_oracle_verb_loads_the_word_oracle(footprint_docs, tmp_path):
    loaded = check_loads(footprint_docs["oracle-dirline3"], "oracle", tmp_path / "rep.json")
    assert LAYER_MODULES <= loaded
    assert "dataclasses" not in loaded


def test_all_battery_loads_every_layer(footprint_docs, tmp_path):
    # s3-line5 has zero-length edges, so `all` skips the oracle suite here
    loaded = check_loads(footprint_docs["s3-line5"], "all", tmp_path / "rep.json")
    assert LAYER_MODULES | {"catbundle.functorial"} <= loaded


def test_bare_package_import_loads_no_submodule():
    loaded = loaded_by()
    assert "catbundle" in loaded
    assert not [m for m in loaded if m.startswith("catbundle.")]
