"""JSON interchange: canonical bytes, full round trips, and the difference
between malformed documents (refused at load, by every verb) and law-breaking
documents (loaded, then failed by suites)."""

import hashlib
import json
import re

import pytest

import catbundle
from catbundle.cli import main
from catbundle.crossed import ChainedCrossedModules, CrossedModule
from catbundle.errors import SchemaError
from catbundle.generation import document_from_instance, instance_to_json
from catbundle.groups import GroupHom
from catbundle.permutations import (
    alternating_group,
    conjugation_action,
    symmetric_group,
    trivial_action,
)
from catbundle.presets import build_instance, cover_line5, preset_names
from catbundle.report import Report
from catbundle.schema import (
    SCHEMA_VERSION,
    Instance,
    canonical_json,
    instance_from_document,
    instance_from_json,
    report_to_json,
)
from catbundle.suites import InstanceContext, suite_gerbal


def test_serialization_is_canonical():
    inst = build_instance("s3-line5", 4, True)
    text1 = instance_to_json(inst)
    text2 = instance_to_json(build_instance("s3-line5", 4, True))
    assert text1 == text2
    assert text1.endswith("\n")
    doc = json.loads(text1)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert list(doc) == sorted(doc)


def test_roundtrip_preserves_everything(inst_line5w):
    back = instance_from_json(instance_to_json(inst_line5w))
    assert back.preset == inst_line5w.preset
    assert back.seed == inst_line5w.seed
    assert back.noise == inst_line5w.noise
    assert back.gc.h == inst_line5w.gc.h
    assert back.gc.j == inst_line5w.gc.j
    assert back.cover.edges == inst_line5w.cover.edges
    assert back.cover.cover == inst_line5w.cover.cover
    assert back.cover.directed == inst_line5w.cover.directed
    assert back.cover.identity_edges == inst_line5w.cover.identity_edges
    for g_new, g_old in ((back.chain.G, inst_line5w.chain.G),
                         (back.chain.H, inst_line5w.chain.H),
                         (back.chain.J, inst_line5w.chain.J)):
        assert g_new.elements == g_old.elements
        assert g_new.mul == g_old.mul


# SHA-256 of the generated document of each preset at seed 5, with and
# without noise; the trivial cocycle of cycle6-trivial has no noise to add
GENERATED = {
    ("cycle6-trivial", False): "65aa332e285b0a2a3f7170e4ff27348e6133f07460d638cca8b5f8122eca7c96",
    ("cycle6-trivial", True): "65aa332e285b0a2a3f7170e4ff27348e6133f07460d638cca8b5f8122eca7c96",
    ("oracle-dirline3", False): "81f4f9a3e32fed864f9bf1c5d69b2d23b6cc58e8b8fc1ca4286422117642e424",
    ("oracle-dirline3", True): "5bc17fba0a2ecc18f663b56ed2e8635d01c12156be7bcb2bc64c74933f8eeff7",
    ("s3-line5", False): "8780b629bf11c29e3a5b18331a07e03d4f6941a1a391ce3ed06fe37bd4b4e7ab",
    ("s3-line5", True): "c7ce7f247d64ce64e252b20647055f19417caad479aa45bfc6f2d7ee084068bb",
    ("s3-line5w", False): "6f68032e426e5abd5605eb5b31eceab10e99be5526def1fa304d5dfad3a02333",
    ("s3-line5w", True): "1accf55f6d9571ed431b9fbbd64be504e657bf0a098a3c0a5fa824a5479165ea",
    ("s4-line5w", False): "9ea68c80950f000a52fecb7fc0defab67c7d1d793a09caeb2e7b1c5756130c99",
    ("s4-line5w", True): "264734f47218477a69ef8ac1853a002549222ce9a149b7a8647ed1b7882cfab3",
}


@pytest.mark.parametrize("noise", [False, True])
@pytest.mark.parametrize("preset", preset_names())
def test_generated_document_bytes_are_pinned(preset, noise):
    text = instance_to_json(build_instance(preset, 5, noise))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED[preset, noise]


def test_roundtrip_of_every_preset():
    for name in preset_names():
        inst = build_instance(name, 2, True)
        text = instance_to_json(inst)
        assert instance_to_json(instance_from_json(text)) == text


def test_truncated_json_reports_position():
    inst = build_instance("s3-line5", 4, True)
    text = instance_to_json(inst)[:180]
    with pytest.raises(SchemaError) as err:
        instance_from_json(text)
    assert "line" in str(err.value)


def test_wrong_schema_version_refused():
    inst = build_instance("s3-line5", 4, True)
    doc = document_from_instance(inst)
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SchemaError):
        instance_from_document(doc)


def test_missing_section_refused():
    inst = build_instance("s3-line5", 4, True)
    doc = document_from_instance(inst)
    del doc["cocycle"]
    with pytest.raises(SchemaError) as err:
        instance_from_document(doc)
    assert "cocycle" in str(err.value)


def test_wrong_value_type_refused():
    inst = build_instance("s3-line5", 4, True)
    doc = document_from_instance(inst)
    doc["meta"]["seed"] = "seven"
    with pytest.raises(SchemaError):
        instance_from_document(doc)


def test_non_object_document_refused():
    with pytest.raises(SchemaError):
        instance_from_document([1, 2, 3])


def test_unknown_group_reference_refused():
    inst = build_instance("s3-line5", 4, True)
    doc = document_from_instance(inst)
    doc["homs"]["tau"]["domain"] = "nope"
    with pytest.raises(SchemaError):
        instance_from_document(doc)


def test_law_breaking_document_loads_then_fails_suites():
    inst = build_instance("s3-line5", 4, True)
    doc = json.loads(instance_to_json(inst))
    key = next(k for k in sorted(doc["cocycle"]["h"])
               if k.split("|")[0] != k.split("|")[1])
    doc["cocycle"]["h"][key] = "(123)" if doc["cocycle"]["h"][key] != "(123)" \
        else "(12)"
    loaded = instance_from_document(doc)
    rep = suite_gerbal(InstanceContext(loaded))
    assert not rep.ok
    assert rep.failures()[0].witness


def test_report_bytes_are_stable(inst_line5w):
    rep = Report("demo")
    rep.record("b.second", "law two", True)
    rep.record("a.first", "law one", False, "broken at x")
    text = report_to_json(rep)
    assert text == report_to_json(rep)
    doc = json.loads(text)
    ids = [c["check"] for c in doc["checks"]]
    assert ids == sorted(ids)
    assert doc["status"] == "fail"


def test_canonical_json_sorts_and_terminates():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


# j_121(2) = (12) lies in S3 but not in A3, the group j takes its values in
MALFORMED_J = "error: j('1', '2', '1', '2') = '(12)' is not in 'A3'\n"


@pytest.mark.parametrize("argv", [["validate"]] + [
    ["check", "--suite", suite] for suite in
    ("peiffer", "gerbal", "functorial", "naturality", "quotient", "bundle", "all")],
    ids=lambda argv: argv[-1])
def test_cocycle_value_outside_its_group_is_refused_by_every_verb(tmp_path, capsys, argv):
    doc = document_from_instance(build_instance("cycle6-trivial", 1, True))
    doc["cocycle"]["j"]["1|2|1|2"] = "(12)"
    path = tmp_path / "inst.json"
    path.write_text(canonical_json(doc))
    code = main([argv[0], str(path)] + argv[1:])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", MALFORMED_J)



# each edit puts a value of the wrong JSON type where an id or a list of ids
# belongs: the loader names the place and exits 2 instead of crashing on it
MALFORMED_VALUES = [
    (("groups", "A3", "elements", 0), 7, "groups.A3.elements must be a list of strings"),
    (("groups", "A3", "inv", "e"), ["e"], "groups.A3.inv.e must be a string"),
    (("groups", "A3", "mul", "e", "e"), {"e": "e"}, "groups.A3.mul.e.e must be a string"),
    (("homs", "tau", "map", "e"), ["e"], "homs.tau.map.e must be a string"),
    (("actions", "conj_outer", "map", "e", "e"), ["e"],
     "actions.conj_outer.map.e.e must be a string"),
    (("cocycle", "h", "1|1|0"), ["e"], "cocycle.h.1|1|0 must be a string"),
    (("cocycle", "j", "1|1|1|0"), ["e"], "cocycle.j.1|1|1|0 must be a string"),
    (("cover", "sets", "1"), 7, "cover.sets.1 must be a list of strings"),
    (("cover", "sets", "1"), "012", "cover.sets.1 must be a list of strings"),
    (("cover", "vertices", 0), 0, "cover.vertices must be a list of strings"),
]


@pytest.mark.parametrize("path, value, message", MALFORMED_VALUES,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v, _ in MALFORMED_VALUES])
def test_malformed_value_is_refused_with_its_location(tmp_path, capsys, path, value, message):
    doc = document_from_instance(build_instance("s3-line5", 5, True))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file = tmp_path / "inst.json"
    file.write_text(canonical_json(doc))
    code = main(["validate", str(file)])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


def named_chain(j_name, tau_p_name, alpha_p_name):
    """A3 in S3 by conjugation, under a second copy of A3 acted on trivially,
    both taus trivial; the inner module's group, hom and action take the
    given names."""
    s3, a3, j3 = symmetric_group(3), alternating_group(3), alternating_group(3, j_name)
    outer = CrossedModule(s3, a3, conjugation_action(s3, a3, "act"),
                          GroupHom("tau", a3, s3, dict.fromkeys(a3.elements, s3.identity)))
    inner = CrossedModule(a3, j3, trivial_action(a3, j3, alpha_p_name),
                          GroupHom(tau_p_name, j3, a3, dict.fromkeys(j3.elements, a3.identity)))
    return ChainedCrossedModules(outer, inner)


# a document names each group, hom and action once, so the encoder refuses a
# chain in which two distinct ones share a name
DUPLICATE_NAMES = [
    (("A3", "tau_p", "act_p"), "two distinct groups share the name 'A3'"),
    (("J3", "tau", "act_p"), "two homomorphisms share the name 'tau'"),
    (("J3", "tau_p", "act"), "two actions share the name 'act'"),
]


@pytest.mark.parametrize("names, message", DUPLICATE_NAMES,
                         ids=["group", "hom", "action"])
def test_encoder_refuses_two_parts_that_share_a_name(names, message):
    chain, cover = named_chain(*names), cover_line5()
    inst = Instance("named", 5, True, chain, cover,
                    catbundle.generate_gerbal(chain, cover, 5, noise=True))
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        catbundle.instance_to_json(inst)
