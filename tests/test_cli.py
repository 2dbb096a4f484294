"""Command-line behavior: exit codes, determinism of emitted bytes, and the
diagnostic stream."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catbundle
import cli_reference
from catbundle import cli
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
    # on a law-broken document each failed check is followed by its witness,
    # and the report on stdout is the one written without --diagnostic
    doc = _edited(tmp_path, capsys, "s3-line5", 3, ("cocycle", "h", "1|2|1"), "(123)")
    code, plain, err = run(capsys, "check", str(doc), "--suite", "gerbal")
    assert (code, err) == (1, "")
    code, out, err = run(capsys, "check", str(doc), "--suite", "gerbal", "--diagnostic")
    assert code == 1
    assert out == plain
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert failed
    lines = err.splitlines()
    for c in failed:
        at = lines.index(f"{c['check']}: fail")
        assert lines[at + 1] == f"  witness: {c['witness']}"


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


def test_check_oracle_suite_at_length_zero_reports_without_words(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "oracle-dirline3", "--seed", "5", "--out", str(doc))
    rep = tmp_path / "rep.json"
    for suite in ("oracle", "all"):
        code, _, err = run(capsys, "check", str(doc), "--suite", suite,
                           "--max-path-len", "0", "--out", str(rep))
        assert code == 1
        assert "Traceback" not in err
        failed = [c for c in json.loads(rep.read_text())["checks"] if c["status"] == "fail"]
        assert failed == [{"check": "oracle.both_verdicts",
                           "law": "the comparison exercises equal and unequal pairs",
                           "status": "fail", "witness": "equal pairs: 0, unequal pairs: 0"}]


def test_max_path_len_flag_changes_surface(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    code, _, _ = run(capsys, "check", str(doc), "--suite", "functorial",
                     "--max-path-len", "1")
    assert code == 0


def test_negative_max_path_len_is_usage_error(tmp_path, capsys):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    for value, message in (("-1", "must be at least 0, got -1"),
                           ("abc", "invalid int value: 'abc'")):
        code, out, err = run(capsys, "check", str(doc), "--suite", "functorial",
                             "--max-path-len", value)
        assert code == 2
        assert out == ""
        assert f"--max-path-len: {message}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["generate", "validate", "check"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, verb):
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    target = str(tmp_path / "absent" / "rep.json")
    first = "s3-line5" if verb == "generate" else str(doc)
    code, out, err = run(capsys, verb, first, "--out", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target!r}: ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["generate", "s3-line5"], ["validate", "DOC"],
                                  ["check", "DOC"], ["--help"]], ids=lambda a: a[0])
def test_a_failed_write_to_stdout_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # one error line and exit 2, in process and in a child, which prints
    # nothing more when it flushes stdout at exit
    doc = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc))
    argv = [str(doc) if word == "DOC" else word for word in argv]
    src = str(Path(catbundle.__file__).resolve().parent.parent)
    with open("/dev/full", "w") as full, monkeypatch.context() as m:
        m.setattr(sys, "stdout", full)
        code = main(argv)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "catbundle", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=False)
    for code, err in ((code, capsys.readouterr().err), (proc.returncode, proc.stderr)):
        assert code == 2
        assert err.startswith("error: cannot write to stdout: ")
        assert err.count("\n") == 1


# argv vectors run through `cli._parse` and the argparse reference: the forms
# README, CI and perfbench use, `--opt=value`, options before the positional
# argument, `--`, `-h` on every verb, and one vector per usage error
PARSE_CORPUS = [
    ["generate", "s3-line5w", "--seed", "7", "--noise", "on", "--out", "inst.json"],
    ["validate", "inst.json"],
    ["check", "inst.json", "--suite", "all", "--max-path-len", "3"],
    ["check", "inst.json", "--suite", "naturality", "--diagnostic"],
    ["generate", "s3-line5", "--seed", "5", "--out", "smoke.json"],
    ["validate", "smoke.json", "--out", "/nonexistent/x.json"],
    ["check", "smoke.json", "--suite", "quotient", "--max-path-len", "2"],
    ["check", "bad-law.json", "--suite", "peiffer"],
    ["check", "doc.json", "--suite", "bundle", "--max-path-len", "1", "--out", "rep.json"],
    ["generate", "cycle6-trivial", "--seed", "-3", "--noise", "off"],
    ["generate", "oracle-dirline3"],
    ["check", "doc.json", "--max-path-len=0", "--suite=oracle", "--out="],
    ["check", "--suite", "gerbal", "--diagnostic", "doc.json"],
    ["validate", "--out", "-", "-"],
    ["check", "doc.json", "--max-path-len", "1", "--max-path-len", "2"],
    ["check", "--", "-doc.json"],
    ["check", "--suite", "all", "--", "--out"],
    ["-h"], ["--help"], ["generate", "-h"], ["validate", "--help"], ["check", "doc.json", "-h"],
    ["check", "doc.json", "extra", "-h"], ["check", "doc.json", "--bogus", "--help"],
    ["--bogus", "-h"], [], ["frobnicate"], ["--out", "x", "validate", "doc.json"],
    ["--", "-h"],
    ["check", "doc.json", "--bogus", "1"], ["validate", "doc.json", "-x"],
    ["check"], ["validate", "--out", "rep.json"], ["check", "--diagnostic"],
    ["check", "doc.json", "--max-path-len"], ["check", "doc.json", "--out", "--diagnostic"],
    ["generate", "--seed", "-h", "s3-line5"],
    ["validate", "a.json", "b.json"], ["check", "--", "a.json", "b.json"],
    ["generate", "s3-line5", "--seed", "abc"], ["generate", "s3-line5", "--seed="],
    ["check", "doc.json", "--max-path-len", "-1"], ["check", "doc.json", "--max-path-len=x"],
    ["check", "doc.json", "--suite", "nope"], ["generate", "nope"], ["generate", "nope", "-h"],
    ["generate", "s3-line5", "--noise", "maybe"], ["check", "doc.json", "--diagnostic=yes"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS,
                         ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_agrees_with_argparse(capsys, argv):
    try:
        reference = vars(cli_reference.parser().parse_args(argv))
    except SystemExit as exc:
        reference = exc.code
    if isinstance(reference, dict):
        verb, fields = cli._parse(argv)
        assert {"command": verb, **fields} == reference
        return
    assert reference in (0, 2)
    if reference == 0:
        assert cli._parse(argv)[1] is None
    else:
        with pytest.raises(cli.UsageError):
            cli._parse(argv)
    code, out, err = run(capsys, *argv)
    assert code == reference
    assert "Traceback" not in err
    # help goes to stdout, a usage error to stderr ending in its message
    assert bool(out) == (code == 0) != bool(err)
    if code == 2:
        assert err.splitlines()[-1].startswith("catbundle: error: ")


def test_abbreviated_options_are_refused(capsys):
    # the one divergence from the argparse reference, which expands them
    argv = ["check", "doc.json", "--max", "2", "--diag"]
    reference = cli_reference.parser().parse_args(argv)
    assert (reference.max_path_len, reference.diagnostic) == (2, True)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "catbundle: error: unrecognized arguments: --max 2 --diag"


def test_help_lists_each_verb_and_option(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert all(f"  {verb} " in out for verb in ("generate", "validate", "check"))
    code, out, _ = run(capsys, "check", "-h")
    assert code == 0
    assert out.startswith("usage: catbundle check [-h] [--suite {peiffer,")
    assert "[--max-path-len MAX_PATH_LEN] [--diagnostic] [--out OUT] FILE\n" in out


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


def _add_tables(doc):
    """Add the identity hom of A3 and the conjugation of A3 on itself, which
    is trivial since A3 is abelian."""
    a3 = doc["groups"]["A3"]["elements"]
    doc["homs"]["id_A3"] = {"domain": "A3", "codomain": "A3", "map": {x: x for x in a3}}
    doc["actions"]["conj_A3"] = {"actor": "A3", "space": "A3",
                                 "map": {g: {x: x for x in a3} for g in a3}}


def _rename_chart(doc, old, new):
    cover = doc["cover"]
    cover["sets"][new] = cover["sets"].pop(old)
    cover["index_order"] = [new if i == old else i for i in cover["index_order"]]


def _inner_chain_over_A3(doc):
    _add_tables(doc)
    doc["chain"]["inner"] = {"G": "A3", "H": "A3", "alpha": "conj_A3", "tau": "id_A3"}


def _inner_alpha_acted_on_by_A3(doc):
    _add_tables(doc)
    doc["chain"]["inner"]["alpha"] = "conj_A3"


# One edit of the s3-line5 document per loader refusal, and the message it
# must be refused with
LOADER_REFUSALS = [
    (lambda d: d["cover"]["vertices"].append("0"),
     "cover complex: duplicate vertex ids"),
    (lambda d: d["cover"]["edges"].append(["e01", "1", "2"]),
     "cover complex: duplicate edge ids"),
    (lambda d: d["cover"]["index_order"].append("1"),
     "cover complex: duplicate cover indices"),
    (lambda d: d["cover"]["vertices"].append("5|6"),
     "cover complex: vertex id '5|6' contains '|'"),
    (lambda d: _rename_chart(d, "3", "3|4"),
     "cover complex: index id '3|4' contains '|'"),
    (lambda d: d["groups"]["A3"]["elements"].append("e"),
     "group 'A3': duplicate element ids"),
    (lambda d: d["groups"]["A3"]["elements"].append("a|b"),
     "group 'A3': element id 'a|b' contains '|'"),
    (lambda d: d["chain"]["inner"].update(alpha="conj_outer"),
     "crossed module 'inner (A3 -> S3)': alpha's space is not H"),
    (lambda d: d["chain"]["inner"].update(tau="tau"),
     "crossed module 'inner (A3 -> S3)': tau is not a map H -> G"),
    (_inner_alpha_acted_on_by_A3,
     "crossed module 'inner (A3 -> S3)': alpha's actor is not G"),
    (_inner_chain_over_A3,
     "chained modules: inner base group must be the outer H"),
    (lambda d: d["cocycle"]["h"].update({"1|1": d["cocycle"]["h"].pop("1|1|0")}),
     "cocycle.h key '1|1' must look like i|k|u"),
]


@pytest.mark.parametrize("edit, message", LOADER_REFUSALS,
                         ids=[m for _, m in LOADER_REFUSALS])
def test_validate_refuses_a_malformed_document_with_one_line(tmp_path, capsys, edit, message):
    doc_path = tmp_path / "inst.json"
    run(capsys, "generate", "s3-line5", "--seed", "3", "--out", str(doc_path))
    doc = json.loads(doc_path.read_text())
    edit(doc)
    doc_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(doc_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_quotient_build_on_law_broken_action_fails_cleanly(tmp_path, capsys):
    # a broken conjugation action fails peiffer, so neither verb builds the
    # quotient or checks the cocycle on it: they report the failed action
    doc = _edited(tmp_path, capsys, "cycle6-trivial", 3,
                  ("actions", "conj_outer", "map", "(12)", "e"), "(123)")
    for suite in ("quotient", "bundle"):
        code, out, err = run(capsys, "check", str(doc), "--suite", suite,
                             "--max-path-len", "2")
        assert code == 1
        assert "Traceback" not in err
        report = json.loads(out)
        assert report["status"] == "fail"
        statuses = {c["check"]: c["status"] for c in report["checks"]}
        [action] = [c for c in statuses if c.endswith(".component.action.conj_outer")]
        assert statuses[action] == "fail"
        assert not [c for c in statuses if c.startswith(("quotient.", "classical."))]


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
    # tau_p is no homomorphism, so the suite reports the peiffer report alone
    code, peiffer, _ = run(capsys, "check", str(doc), "--suite", "peiffer")
    assert code == 1
    checks = json.loads(outs[0])["checks"]
    assert checks == json.loads(peiffer)["checks"]
    assert [c["check"] for c in checks if c["check"].endswith(".component.hom.tau_p")
            and c["status"] == "fail"]


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
    report = json.loads(out)
    assert report["suite"] == suite
    failed = {c["check"] for c in report["checks"] if c["status"] == "fail"}
    assert any(".component.group." in c for c in failed), failed


# Each run is a fresh interpreter, which reports the modules it loaded beyond
# those loaded before the package was imported; no arguments, no CLI run;
# `--import M`, only `import M`.
FOOTPRINT_CHILD = """\
import importlib, json, sys
before = set(sys.modules)
import catbundle
code = 0
if sys.argv[1:2] == ["--import"]:
    importlib.import_module(sys.argv[2])
elif len(sys.argv) > 1:
    from catbundle.cli import main
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""
LAYER_MODULES = {"catbundle.bundle", "catbundle.quotient", "catbundle.wordalg"}
BATTERY = "catbundle.battery"
# what only `generate` runs: no `validate` or `check` verb loads it
GENERATOR = {"catbundle.generation", "catbundle.prng"}
# what an argparse parser loads, its messages through gettext and locale: no
# run of `loaded_by`, which covers `generate`, `validate` and every suite,
# loads any of them
PARSER_MODULES = {"argparse", "gettext", "locale"}


@pytest.fixture(scope="module")
def footprint_docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("footprint")
    docs = {}
    for preset in ("s3-line5", "oracle-dirline3"):
        docs[preset] = root / f"{preset}.json"
        loaded = loaded_by("generate", preset, "--seed", "3", "--out", str(docs[preset]))
        assert GENERATOR <= loaded
    return docs


def loaded_by(*argv, exit_code=0):
    src = str(Path(catbundle.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD, *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    code, loaded = json.loads(proc.stdout)
    assert code == exit_code, proc.stderr
    assert not PARSER_MODULES & set(loaded)
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
    assert not loaded & (LAYER_MODULES | GENERATOR | {BATTERY, "dataclasses"})
    # the gerbal data derives its tower without the transition functors
    assert ("catbundle.functorial" in loaded) == (suite in ("functorial", "naturality"))
    # the preset chains build their permutation groups on first use
    assert "catbundle.permutations" not in loaded


def test_quotient_verb_loads_the_quotient_only(footprint_docs, tmp_path):
    loaded = check_loads(footprint_docs["s3-line5"], "quotient", tmp_path / "rep.json")
    assert "catbundle.quotient" in loaded
    assert not loaded & ({"catbundle.bundle", BATTERY, "catbundle.wordalg", "dataclasses"}
                         | GENERATOR)


def test_bundle_verb_loads_no_word_oracle(footprint_docs, tmp_path):
    loaded = check_loads(footprint_docs["s3-line5"], "bundle", tmp_path / "rep.json")
    assert {"catbundle.bundle", BATTERY} <= loaded
    assert not loaded & ({"catbundle.wordalg", "fractions", "dataclasses"} | GENERATOR)


def test_oracle_verb_loads_the_word_oracle(footprint_docs, tmp_path):
    loaded = check_loads(footprint_docs["oracle-dirline3"], "oracle", tmp_path / "rep.json")
    assert LAYER_MODULES <= loaded
    # the oracle reads the glued space, never the law battery
    assert not loaded & ({BATTERY, "dataclasses"} | GENERATOR)
    # the oracle's classes are union-find components: no rational arithmetic
    assert not loaded & {"fractions", "decimal"}


def test_all_battery_on_a_directed_base_loads_no_rational_arithmetic(footprint_docs, tmp_path):
    loaded = check_loads(footprint_docs["oracle-dirline3"], "all", tmp_path / "rep.json")
    assert LAYER_MODULES | {"catbundle.functorial"} <= loaded
    # the base runs no bundle suite, so `all` loads the space without its battery
    assert not loaded & ({BATTERY, "fractions", "decimal"} | GENERATOR)


def test_all_battery_loads_every_layer(footprint_docs, tmp_path):
    # s3-line5 has zero-length edges, so `all` skips the oracle suite here
    loaded = check_loads(footprint_docs["s3-line5"], "all", tmp_path / "rep.json")
    assert LAYER_MODULES | {BATTERY, "catbundle.functorial"} <= loaded
    assert not loaded & (GENERATOR | {"catbundle.permutations"})


def test_bare_package_import_loads_no_submodule():
    loaded = loaded_by()
    assert "catbundle" in loaded
    assert not [m for m in loaded if m.startswith("catbundle.")]


def test_bundle_import_loads_no_battery():
    loaded = loaded_by("--import", "catbundle.bundle")
    assert "catbundle.bundle" in loaded
    assert BATTERY not in loaded


@pytest.mark.parametrize("preset, suite", [("s3-line5", "bundle"),
                                           ("oracle-dirline3", "oracle"),
                                           ("s3-line5", "functorial"),
                                           ("s3-line5", "naturality"),
                                           ("s3-line5", "quotient")])
def test_gated_bundle_verbs_load_no_space(tmp_path, capsys, preset, suite):
    # a broken group table fails the space's preconditions, so the verb
    # reports them before importing the glued space; it fails `peiffer`, so
    # no verb loads the transition functors, and none builds the quotient
    doc = _edited(tmp_path, capsys, preset, 3,
                  ("groups", "A3", "mul", "(132)", "(132)"), "(132)")
    loaded = loaded_by("check", str(doc), "--suite", suite, "--max-path-len", "1",
                       "--out", str(tmp_path / "rep.json"), exit_code=1)
    assert "catbundle.gerbal" in loaded
    assert not loaded & ({"catbundle.bundle", BATTERY, "catbundle.wordalg"} | GENERATOR)
    assert not loaded & {"catbundle.quotient", "catbundle.functorial"}


def test_bundle_resolves_the_battery_names_the_layer_tracer_reads():
    from catbundle import battery, bundle
    for name in ("check_bundle_axioms", "LocalTrivialization", "enumerate_base_walks"):
        assert getattr(bundle, name) is getattr(battery, name)
    # no other battery name is re-exported
    with pytest.raises(AttributeError, match="^module 'catbundle.bundle' has no attribute"):
        bundle.fold_layers
