"""Suite composition: which checks run where, and how broken inputs surface
as failing checks rather than crashes."""

import hashlib
import json

import pytest

from catbundle import functorial, quotient, suites
from catbundle.errors import PreconditionError, SchemaError
from catbundle.presets import build_instance, preset_names
from catbundle.schema import instance_from_document, instance_to_json, report_to_json
from catbundle.suites import SUITES, run_suite

# SHA-256 of the `all` report at preset seed 5 with noise. A passing report
# holds only check ids, laws and statuses, so the two S3 line bases share one.
GOLDEN_ALL = [
    ("s3-line5", 3, "0dc368c802c17156a86ad7a3bc1e1f2e664da464fbd597ee7d7e5ce07adc2e7c"),
    ("s3-line5w", 2, "0dc368c802c17156a86ad7a3bc1e1f2e664da464fbd597ee7d7e5ce07adc2e7c"),
    ("cycle6-trivial", 4, "d19e83ce502521ff91a0e5a4b1e4f33d0020bff5f89d2622a6b299994d0e8273"),
    ("oracle-dirline3", 3, "be681f120706fdcb3fc5128ba2495146a50eb7be81bd7243f2ee7104b7053e3c"),
]

# One-cell edits of preset documents at seed 3 (the ones tests/test_cli.py
# builds): (132)(132) = (132) breaks the A3 table, and the changed action cell
# leaves the coset quotient unbuildable. SHA-256 of each applicable suite's
# report at max_len 2; these are the failing-report paths.
EDITS = {
    "a3-table": ("s3-line5", ("groups", "A3", "mul", "(132)", "(132)"), "(132)"),
    "conj-action": ("cycle6-trivial", ("actions", "conj_outer", "map", "(12)", "e"),
                    "(123)"),
}
GOLDEN_EDITED = [
    ("a3-table", "peiffer", "d2d2e752ff43a13a261e4a96fafe14231cba2cb434ecfd2f3578deca69b4991f"),
    ("a3-table", "gerbal", "35114c2a8b5b26c1674176bbebe59ef70ac6b71b0625e53c12e05ab2c7cce7ae"),
    ("a3-table", "functorial", "0602154d39986ce4465d5a10e1cdd2e0a5e68424d6b1b284edf71438b6a79ede"),
    ("a3-table", "naturality", "323eb7dbe0a9581f44af804fde12b34387eb96f8ccc1d87d91f0afcad68c8d31"),
    ("a3-table", "quotient", "9a7807a23d9112534bbacde69a6fd32f81706d3763550f88d3c8d421fc5d891e"),
    ("a3-table", "bundle", "d4d2c4b7c9a641ca665cd698a1fe900a838d38a688689e6f3ff2ae74528a6d80"),
    ("a3-table", "all", "68e08a71ea6c83b22d9bc7942f480b4d8b559c4cc4b5dda07ef92da5b6f59af4"),
    ("conj-action", "peiffer", "432a2b5ccd1ba6a216281091a4200a06298dec835685b0c2b61b629e8dfe1850"),
    ("conj-action", "gerbal", "35114c2a8b5b26c1674176bbebe59ef70ac6b71b0625e53c12e05ab2c7cce7ae"),
    ("conj-action", "functorial", "0602154d39986ce4465d5a10e1cdd2e0a5e68424d6b1b284edf71438b6a79ede"),
    ("conj-action", "naturality", "fa548e70099fdc74de2f5a1e7c3a43e6ce9cf412fd47d87f879032915421f99b"),
    ("conj-action", "quotient", "54e63dfde809e0e5b47fc8de3238a39bc4ff5b5f9b429b6866541677191f6890"),
    ("conj-action", "bundle", "ea6f6382059c202d1e3743d40a7bf7eca14bb6d5dab591559d551bc009b152bd"),
    ("conj-action", "all", "77e5e23a83e17308ec7f882d49b47cf927e61e583acbfc5146c73485e0502e80"),
]

# The layers each built once per run; `run_suite(..., "all")` once called
# derive_tower 6 times and each of the others twice. The functorial cocycle
# derives its own tower, so derive_tower is counted where it is called.
LAYERS = ("derive_tower", "build_quotient", "check_classical_cocycle",
          "validate_gerbal", "check_second_gerbe")


def prefixes(rep):
    return {c.check_id.split(".")[0] for c in rep.checks}


def test_suite_names_are_stable():
    assert SUITES == ("peiffer", "gerbal", "functorial", "naturality",
                      "quotient", "bundle", "oracle", "all")


def test_unknown_suite_rejected(inst_line5):
    with pytest.raises(SchemaError):
        run_suite(inst_line5, "classical")


def test_quotient_suite_contains_classical_checks(inst_line5):
    rep = run_suite(inst_line5, "quotient")
    assert rep.ok
    assert "classical" in prefixes(rep)
    assert "jh" in prefixes(rep)


def test_all_on_identity_edge_base_includes_bundle(inst_line5):
    rep = run_suite(inst_line5, "all", max_len=2)
    assert rep.ok
    got = prefixes(rep)
    assert "bundle" in got and "triv" in got
    assert "oracle" not in got


def test_all_on_directed_base_includes_oracle(inst_dirline3):
    rep = run_suite(inst_dirline3, "all", max_len=2)
    assert rep.ok
    got = prefixes(rep)
    assert "oracle" in got and "congruence" in got
    assert "bundle" not in got and "triv" not in got


def test_bundle_suite_rejected_on_directed_base(inst_dirline3):
    with pytest.raises(PreconditionError):
        run_suite(inst_dirline3, "bundle")


def test_oracle_suite_rejected_on_undirected_base(inst_line5):
    with pytest.raises(PreconditionError):
        run_suite(inst_line5, "oracle")


def test_bundle_suite_reports_preconditions_on_broken_data(chain_s3):
    inst = build_instance("s3-line5", 11, True)
    key = next(k for k in sorted(inst.gc.h) if k[0] != k[1])
    inst.gc.h[key] = next(x for x in inst.chain.H.elements
                          if x != inst.gc.h[key])
    rep = run_suite(inst, "bundle", max_len=2)
    assert not rep.ok
    assert rep.failures()[0].witness


def test_peiffer_suite_covers_both_modules(inst_line5):
    rep = run_suite(inst_line5, "peiffer")
    names = {c.check_id for c in rep.checks}
    assert any("outer" in n for n in names)
    assert any("inner" in n for n in names)


@pytest.mark.parametrize("preset,max_len,digest", GOLDEN_ALL)
def test_all_report_bytes_are_pinned(preset, max_len, digest):
    rep = run_suite(build_instance(preset, seed=5, noise=True), "all", max_len)
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == digest


def edited_instance(edit):
    preset, path, value = EDITS[edit]
    doc = json.loads(instance_to_json(build_instance(preset, 3, True)))
    cell = doc
    for key in path[:-1]:
        cell = cell[key]
    cell[path[-1]] = value
    return instance_from_document(doc)


def applicable(inst):
    """The single suites `all` covers on this base, in report order."""
    last = "bundle" if inst.cover.identity_edges else "oracle"
    return ["peiffer", "gerbal", "functorial", "naturality", "quotient", last]


@pytest.mark.parametrize("edit,suite,digest", GOLDEN_EDITED)
def test_edited_report_bytes_are_pinned(edit, suite, digest):
    rep = run_suite(edited_instance(edit), suite, 2)
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == digest


@pytest.mark.parametrize("source", preset_names() + sorted(EDITS))
def test_all_is_the_concatenation_of_the_single_suites(source):
    # the invariant that lets `all` share one context between its suites
    if source in EDITS:
        inst = edited_instance(source)
    else:
        inst = build_instance(source, seed=5, noise=True)
    max_len = 1 if source == "s4-line5w" else 2
    singles = [c for s in applicable(inst) for c in run_suite(inst, s, max_len).checks]
    assert run_suite(inst, "all", max_len).checks == singles


@pytest.fixture
def layer_calls(monkeypatch):
    calls = dict.fromkeys(LAYERS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # each name is patched where the stage resolves it at call time
    home = {"derive_tower": functorial, "build_quotient": quotient,
            "check_classical_cocycle": quotient}
    for name in LAYERS:
        module = home.get(name, suites)
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("fixture", ["inst_line5w", "inst_dirline3"])
def test_all_builds_each_layer_once(layer_calls, fixture, request):
    assert run_suite(request.getfixturevalue(fixture), "all", 2).ok
    assert layer_calls == dict.fromkeys(LAYERS, 1)


def test_a_single_suite_builds_only_the_layers_it_reads(layer_calls, inst_line5):
    run_suite(inst_line5, "functorial", 2)
    assert layer_calls == {"derive_tower": 1, "build_quotient": 0,
                           "check_classical_cocycle": 0, "validate_gerbal": 0,
                           "check_second_gerbe": 0}
