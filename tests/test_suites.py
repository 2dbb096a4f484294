"""Suite composition: which checks run where, and how broken inputs surface
as failing checks rather than crashes."""

import hashlib
import json
from collections import Counter

import pytest
from quotient_reference import LAWS as IMPLIED_QUOTIENT
from trivialization_reference import multi_chart_sets

from catbundle import gerbal, quotient, suites
from catbundle.errors import PreconditionError, SchemaError
from catbundle.gerbal import GerbalCocycle
from catbundle.presets import build_instance, preset_names
from catbundle.report import CheckResult, Report
from catbundle.generation import instance_to_json
from catbundle.schema import instance_from_document, report_to_json
from catbundle.suites import SUITES, run_suite

# Each pin is two SHA-256 digests: of the report's long form
# (`with_implied_rows`) and of the report itself. The long form also lists
# each row a report leaves out because another of its rows or the gate it
# runs behind decides it, so its digest holds still when such a row is
# dropped. Each case is named by its arguments alone, so a listed byte
# change moves its digests and keeps its name.
#
# The `all` report at preset seed 5 with noise. A passing report holds only
# check ids, laws and statuses, so the two S3 line bases share one.
# s4-line5w is the one preset whose fiber is a restricted (tau-image) quotient;
# its digest is the same at lengths 1 and 2, and length 1 is the cheaper pin.
GOLDEN_ALL = [
    ("s3-line5", 3,
     "cdcece889a703a6a15cbe60842f3780abc556e125223cd035b9ff25e02f65858",
     "3136bb28f381a722c5f5443431d68f498c3beea41735ebc44cf469d9ed787515"),
    ("s3-line5w", 2,
     "cdcece889a703a6a15cbe60842f3780abc556e125223cd035b9ff25e02f65858",
     "3136bb28f381a722c5f5443431d68f498c3beea41735ebc44cf469d9ed787515"),
    ("cycle6-trivial", 4,
     "5057b9ec21b698628fa9bff263fd8e6599b5710ecf8ad858f8d588d0cf8ba9b9",
     "371fbba30adf3e8c59c8b1245fc820718562c19f42de55f8285075e2f7061a9e"),
    ("oracle-dirline3", 3,
     "be681f120706fdcb3fc5128ba2495146a50eb7be81bd7243f2ee7104b7053e3c",
     "ef579dcd2675ba941350520ad2006896f096d53ee9a912a8104f7b931671b733"),
    ("s4-line5w", 1,
     "8d06cdeb08e6df077f938bdbf0cd5404983afeb1146e5d6e2d9fdfed95caa313",
     "94155f9550289699fbce107189a38f44035e2eef0790d6ccd2c12d9be6a0726b"),
]

# SHA-256 of the `all` report at length 3 of the A3/J3 chain (conftest.py),
# whose fiber is not thin, over two preset bases.
GOLDEN_NON_THIN = [
    ("inst_a3j3_line5w",
     "9ac3518640df7c7b616f7c41884f6d1535331528cb830005e22515ef34049ef4",
     "0968b4024a2530b1210f83ea642352b48c8f39667fda4324a8bd73ec56fa7ffe"),
    ("inst_a3j3_dirline3",
     "a2b1bd9f5c16f961b413d310b4d69f3a3ba5fbf1248e0a62e2fc21b4f81ab5bb",
     "fa0fdc054e9c2cef024c45550f43dbd28fe8065fa02004b1f3382a20eaf95ccb"),
]

# One-cell edits of preset documents at seed 3 (the ones tests/test_cli.py
# builds): (132)(132) = (132) breaks the A3 table, the changed action cell
# breaks the outer action, and the changed h cell breaks the gerbal relation,
# the classical cocycle and the naturality and product laws. No quotient is
# built on the first two, which fail peiffer.
# SHA-256 of each applicable suite's report at max_len 2; these are the
# failing-report paths, so they pin the witness text. A suite that reads a
# failed layer reports that layer's checks instead of its own laws, so the
# two group-law edits show their peiffer failures in every suite, and the
# h-cell edit its gerbal failures in functorial and naturality.
EDITS = {
    "a3-table": ("s3-line5", ("groups", "A3", "mul", "(132)", "(132)"), "(132)"),
    "conj-action": ("cycle6-trivial", ("actions", "conj_outer", "map", "(12)", "e"),
                    "(123)"),
    "h-cell": ("s3-line5w", ("cocycle", "h", "1|2|1"), "(123)"),
}
GOLDEN_EDITED = [
    ("a3-table", "peiffer",
     "d2d2e752ff43a13a261e4a96fafe14231cba2cb434ecfd2f3578deca69b4991f",
     "804e4537c3db6e9ec7c11d0e1cbc3b1a4a637ec9eed9f99e986a31340c51ae1e"),
    ("a3-table", "gerbal",
     "557be47831a845ab65ed0f94bf52a3b46d6f163f868be411a6af1baf59aa8e04",
     "6231516bcb168e200504da42e45f5a7005a2f6fbad1e6a2f993acc31fb8b0656"),
    ("a3-table", "functorial",
     "1bbac35dd048c0e6b34d3bb35088c65f99525c1422d9088cd1e09f1a6054541f",
     "69cb7144e94db9c7d6bb5ea97a7c975632233ddd323ff8110faa157c33183953"),
    ("a3-table", "naturality",
     "e7d0c80746102f88b55ad7e2dbac84b19f8bfa51577b35eac95fa31a2fb60bdf",
     "ce7f3129ce48e41f8e9b0b7a52b30a64ab73afbdc64006b2bfc0e9cc96189628"),
    ("a3-table", "quotient",
     "f1986f9abdf8721fad784a12dcfbde98b6ee96defe80e896fde8f979c000c223",
     "8e1d993126e9328ed0d13dcad2f949bf8642a707b8ae01c75c72100d71189b83"),
    ("a3-table", "bundle",
     "b156499ada1129ae1f0706229c4615f6256769c83fb475b22b4b654cfb4adc16",
     "74dcffe77ac1a50c39a8999266a245cf1c00372207bc091cb3cbad9775548bc4"),
    ("a3-table", "all",
     "db7a3c52384763397d0497a57f8d64ab9297c2481de99758bca534426236e46b",
     "5a6ba704933f2c11a2d00007e6836f6e9c2063795840f0df82d6738c31d91f82"),
    ("conj-action", "peiffer",
     "432a2b5ccd1ba6a216281091a4200a06298dec835685b0c2b61b629e8dfe1850",
     "814d4221b88c88885b46f5e629d0ac1f4df95c51a299dd3c59186ed8744b0485"),
    ("conj-action", "gerbal",
     "23911f2e26ea7db81c57ae6ef8daba01af08a77bc091d13c9b9a2f7f0b53e9cc",
     "140861a4d32bce4e53a1c3e40c8b2cf876e514d25602659b4733b6957e6c6b12"),
    ("conj-action", "functorial",
     "7d1796815392bfc37abda3b58340fe85d2d7979c74bda7f65242a7722425a99c",
     "0e006d552bf1120f08bb8859471ee7445158259f161a090a6efda2f8afa427e5"),
    ("conj-action", "naturality",
     "ce95462f6ed6e36fdc06faf9000b578cbbd1b4d96e24fa12dbcbc01a0daac477",
     "dc9624fd65d2475734394e5c9c4c110922d34237747138f727a56bb292babff8"),
    ("conj-action", "quotient",
     "4ef921852b778703632d8a6f025cf8fdc97f266594d83ba01af2f0b276e151c7",
     "7b77202eed6f9aac4258f9187286247fcdd64106ec4ac2b3eb5a2f93d8db898f"),
    ("conj-action", "bundle",
     "c563a93e6eee44f42b14238f538040e76a2a7b48a9d9b32f370ead4543422008",
     "afda0ae476fb2f7fb4ff417224b6093b12a4e843f40eb1c4ef767dae1ed67f02"),
    ("conj-action", "all",
     "ed8ff0c89a801f5fab41ea0b38dfc5a9198229b36eacb420ca621f12ed03987f",
     "2e251323968f8e00813b907db9d67c71ca92657f53914d7021da8a333fc11502"),
    ("h-cell", "peiffer",
     "afa1a43820bb9b0d859580139f68c5032819df8b00277e75e248e32b222ac960",
     "42ea9a56726f3dccca1444cbe0726012b225d4c5c5da47823905597b306a1420"),
    ("h-cell", "gerbal",
     "18337b541a133329f2b79e71aeaf9c939c2254c74e295c5ebba4054d4a3c40cc",
     "18337b541a133329f2b79e71aeaf9c939c2254c74e295c5ebba4054d4a3c40cc"),
    ("h-cell", "functorial",
     "3a8c8e3439995200ad3389afef487194c4b2b8129560605928c6b6d64a064ab6",
     "51e462a1b1d97cb4e1afdccb7c5c61e9f9c2d55683895d104a51c8b2ccb5fc0c"),
    ("h-cell", "naturality",
     "6ca91d786f69726ecdc494635a08c18e9f764c06846eb09bbd667f092d7ce3c3",
     "7c284b81fd61881abaee517db97351b11a69dda025bcef2f121c570bb2782900"),
    ("h-cell", "quotient",
     "e334713212b843e83441514193047987cd6fc793df80c2c22764ef2388e25819",
     "53db38a71017c2f6f144251a6bdd1fdffce8903c23a76672c7575198ea6a8849"),
    ("h-cell", "bundle",
     "aa4192a90258ea45c3751fc31a826b2ea0744e9b154ad723f74a4529694d782c",
     "29e76b889705edc9a9edbb11cfd563d9531b0f10cafbccd38a503c12dfa2d80e"),
    ("h-cell", "all",
     "4d3e135d4f1e8d1b561f52cc3c74d6f06ecb50b9652b141562aefd15346784ce",
     "12be4bbf3855073ee266340b632bd08fdd4920c43e0b32154625392e6f5ee53d"),
]

# The layers each built once per run; `run_suite(..., "all")` once called
# derive_tower 6 times and each of the others twice. A cocycle derives its
# tower on its first read, through the module-level derive_tower, so that is
# counted where it is called, once per cocycle; session fixtures share one
# cocycle, so the counting tests run on `fresh` copies of them.
LAYERS = ("derive_tower", "build_quotient", "check_classical_cocycle",
          "validate_gerbal", "check_second_gerbe")


# The rows a report leaves out because its gate or a signature decides them:
# the Peiffer identities imply the J_H laws that jh.normal_full runs behind
# and the quotient laws of the member scans in quotient_reference
# (IMPLIED_QUOTIENT), the classical.* checks a bundle space is built behind
# imply that the gluing relation is an equivalence, and theta, which takes a
# walk's endpoints as its arguments, depends only on them.
IMPLIED_JH = (("jh.taubar", "(j,h) -> (tau'(j), tau(h)) is a homomorphism"),
              ("jh.subgroup", "J_H is a subgroup of H x| G"),
              ("jh.normal", "J_H is normal in H x| tau(H)"))
IMPLIED_GLUE = (("bundle.glue.reflexive", "gbar_ii(u) = identity coset"),
                ("bundle.glue.symmetric", "gbar_ij(u) gbar_ji(u) = identity coset"),
                ("bundle.glue.transitive", "gbar_kj(u) gbar_ji(u) = gbar_ki(u)"))
IMPLIED_ENDPOINTS = "theta(gamma) depends only on (gamma_0, gamma_1)"
IMPLIED_NORMAL = "g tau(H) g^-1 = tau(H)"


def with_implied_rows(rep, inst):
    """`rep` with the rows it leaves out as decided by another row or a gate:
    a component group under each module that holds it, where the report
    lists each group once; `tau_image.<cm>.hom`, which repeats the module's
    tau homomorphism row, and a `tau_image.<cm>.normal` pass beside that row
    where it passes, as the first Peiffer identity implies that tau(H) is
    normal in G; the IMPLIED_JH, IMPLIED_QUOTIENT and IMPLIED_GLUE
    passes; a `theta.<ik>.endpoints` pass beside each `theta.<ik>.compose`
    row; and a copy of each `triv.<i>.<i>.<law>` row for each index set J of
    two or more charts holding i, which restricts it
    (`trivialization_reference`). The `transition.*` rows, which the report
    lists since the multi-chart rows went, are left out."""
    chain = inst.chain
    modules = (chain.outer, chain.inner)
    by_id = {c.check_id: c for c in rep.checks}
    multi = multi_chart_sets(inst.cover)
    extra = []
    for c in rep.checks:
        for cm in modules:
            if c.check_id == f"peiffer.{cm.name}.component.hom.{cm.tau.name}":
                extra.append(c._replace(check_id=f"tau_image.{cm.name}.hom"))
                if c.status == "pass":
                    extra.append(CheckResult(f"tau_image.{cm.name}.normal", IMPLIED_NORMAL,
                                             "pass"))
        if c.check_id == f"peiffer.{chain.outer.name}.component.hom.{chain.outer.tau.name}":
            # one copy of the chain's peiffer rows
            first = {}
            for cm in modules:
                for g in (cm.G, cm.H):
                    row = f"peiffer.{cm.name}.component.group.{g.name}"
                    if g in first:
                        extra.append(by_id[first[g]]._replace(check_id=row))
                    else:
                        first[g] = row
        if c.check_id == "jh.normal_full":
            extra += [CheckResult(i, law, "pass") for i, law in IMPLIED_JH + IMPLIED_QUOTIENT]
        if c.check_id == "bundle.objects.glue_consistent":
            extra += [CheckResult(i, law, "pass") for i, law in IMPLIED_GLUE]
        if c.check_id.startswith("theta.") and c.check_id.endswith(".compose"):
            extra.append(CheckResult(c.check_id.replace(".compose", ".endpoints"),
                                     IMPLIED_ENDPOINTS, "pass"))
        if c.check_id.startswith("triv."):
            _, i, _, law = c.check_id.split(".")
            extra += [c._replace(check_id=f"triv.{i}.{''.join(indices)}.{law}")
                      for j, indices in multi if j == i]
    out = Report(rep.suite)
    out.checks = [c for c in rep.checks if not c.check_id.startswith("transition.")] + extra
    return out


def pinned(cases):
    """Each case named by its arguments: (preset, bound), fixture, or (edit,
    suite), with both digests as values."""
    return [pytest.param(*c, id="-".join(map(str, c[:-2]))) for c in cases]


def assert_pinned(rep, inst, long_digest, digest):
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == digest
    long_form = report_to_json(with_implied_rows(rep, inst))
    assert hashlib.sha256(long_form.encode()).hexdigest() == long_digest


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
    h = {**inst.gc.h, key: next(x for x in inst.chain.H.elements if x != inst.gc.h[key])}
    inst = inst._replace(gc=GerbalCocycle(inst.chain, inst.cover, h, inst.gc.j))
    rep = run_suite(inst, "bundle", max_len=2)
    assert not rep.ok
    assert rep.failures()[0].witness


def test_peiffer_suite_covers_both_modules(inst_line5):
    rep = run_suite(inst_line5, "peiffer")
    names = {c.check_id for c in rep.checks}
    assert any("outer" in n for n in names)
    assert any("inner" in n for n in names)


@pytest.mark.parametrize("preset,max_len,long_digest,digest", pinned(GOLDEN_ALL))
def test_all_report_bytes_are_pinned(preset, max_len, long_digest, digest):
    inst = build_instance(preset, seed=5, noise=True)
    assert_pinned(run_suite(inst, "all", max_len), inst, long_digest, digest)


@pytest.mark.parametrize("fixture,long_digest,digest", pinned(GOLDEN_NON_THIN))
def test_non_thin_fiber_report_bytes_are_pinned(request, fixture, long_digest, digest):
    inst = request.getfixturevalue(fixture)
    assert_pinned(run_suite(inst, "all", 3), inst, long_digest, digest)


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


@pytest.mark.parametrize("edit,suite,long_digest,digest", pinned(GOLDEN_EDITED))
def test_edited_report_bytes_are_pinned(edit, suite, long_digest, digest):
    inst = edited_instance(edit)
    assert_pinned(run_suite(inst, suite, 2), inst, long_digest, digest)


@pytest.mark.parametrize("source", preset_names() + sorted(EDITS))
def test_all_is_the_concatenation_of_the_single_suites(source):
    # the invariant that lets `all` share one context between its suites:
    # `all` lists the single suites' rows in order, each check id once, so a
    # gated suite adds none of the gate rows an earlier suite listed
    if source in EDITS:
        inst = edited_instance(source)
    else:
        inst = build_instance(source, seed=5, noise=True)
    max_len = 1 if source == "s4-line5w" else 2
    singles = {}
    for s in applicable(inst):
        for c in run_suite(inst, s, max_len).checks:
            singles.setdefault(c.check_id, c)
    assert run_suite(inst, "all", max_len).checks == list(singles.values())


@pytest.mark.parametrize("source", preset_names() + [f for f, _, _ in GOLDEN_NON_THIN]
                         + sorted(EDITS))
def test_no_report_repeats_a_check_id(request, source):
    # each law is checked once per report, also on an edited document, where
    # each suite that reads a failed gate lists the gate's rows
    if source in EDITS:
        inst = edited_instance(source)
    elif source.startswith("inst_"):
        inst = request.getfixturevalue(source)
    else:
        inst = build_instance(source, seed=5, noise=True)
    max_len = 1 if source == "s4-line5w" else 2
    for suite in applicable(inst) + ["all"]:
        ids = Counter(c.check_id for c in run_suite(inst, suite, max_len).checks)
        assert [i for i, n in ids.items() if n > 1] == [], suite


@pytest.fixture
def layer_calls(monkeypatch):
    calls = dict.fromkeys(LAYERS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # each name is patched where the stage resolves it at call time
    home = {"derive_tower": gerbal, "build_quotient": quotient,
            "check_classical_cocycle": quotient}
    for name in LAYERS:
        module = home.get(name, suites)
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def fresh(inst):
    """`inst` with a cocycle of its own, whose tower nothing has read yet."""
    gc = inst.gc
    return inst._replace(gc=GerbalCocycle(inst.chain, inst.cover, gc.h, gc.j))


@pytest.mark.parametrize("fixture", ["inst_line5w", "inst_dirline3"])
def test_all_builds_each_layer_once(layer_calls, fixture, request):
    assert run_suite(fresh(request.getfixturevalue(fixture)), "all", 2).ok
    assert layer_calls == dict.fromkeys(LAYERS, 1)


def test_a_cocycle_derives_its_tower_once(layer_calls, inst_line5w):
    # every run on one cocycle reads the tower derived by the first; the
    # peiffer suite reads none
    inst = fresh(inst_line5w)
    assert run_suite(inst, "peiffer").ok
    assert layer_calls["derive_tower"] == 0
    for suite in ("gerbal", "functorial", "naturality", "quotient", "bundle", "all"):
        assert run_suite(inst, suite, 1).ok
    assert layer_calls["derive_tower"] == 1
    assert run_suite(fresh(inst), "naturality", 1).ok
    assert layer_calls["derive_tower"] == 2


def test_generate_derives_no_tower(layer_calls, tmp_path):
    # the benchmark's traced replay regenerates its documents inside the layer
    # wrappers and counts one tower per checked document
    from catbundle.cli import main
    out = tmp_path / "inst.json"
    for preset in preset_names():
        assert main(["generate", preset, "--seed", "3", "--out", str(out)]) == 0
    assert layer_calls["derive_tower"] == 0


def test_all_computes_each_overlap_once():
    # the laws read overlaps of at most four charts: on three charts that is
    # 3 + 9 + 27 + 81 = 120 index tuples, each intersected once
    inst = build_instance("s4-line5w", 5, True)
    assert run_suite(inst, "all", 2).ok
    charts = len(inst.cover.index_order)
    info = inst.cover.overlap.cache_info()
    assert info.misses <= sum(charts ** r for r in range(1, 5)) < info.hits


@pytest.mark.parametrize("suite,checked", [("quotient", 0), ("bundle", 1), ("all", 1)])
def test_the_gated_quotient_suite_checks_no_cocycle(layer_calls, suite, checked):
    # the A3 edit fails peiffer, so no suite builds the quotient or checks
    # the cocycle on that data; `checked` counts the gerbal batteries, which
    # the quotient suite does not read and the bundle's preconditions do
    assert not run_suite(edited_instance("a3-table"), suite, 2).ok
    assert layer_calls["build_quotient"] == layer_calls["check_classical_cocycle"] == 0
    assert layer_calls["validate_gerbal"] == layer_calls["derive_tower"] == checked


def test_a_single_suite_builds_only_the_layers_it_reads(layer_calls, inst_line5):
    # functorial gates on the gerbal battery, but never reads the quotient
    run_suite(fresh(inst_line5), "functorial", 2)
    assert layer_calls == {"derive_tower": 1, "build_quotient": 0,
                           "check_classical_cocycle": 0, "validate_gerbal": 1,
                           "check_second_gerbe": 1}


def test_unknown_preset_is_named():
    with pytest.raises(SchemaError, match="^unknown preset 'nope'; choose one of "):
        build_instance("nope")
