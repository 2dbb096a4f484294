"""Suite composition: which checks run where, and how broken inputs surface
as failing checks rather than crashes."""

import hashlib

import pytest

from catbundle.errors import PreconditionError, SchemaError
from catbundle.presets import build_instance
from catbundle.schema import report_to_json
from catbundle.suites import SUITES, run_suite

# SHA-256 of the `all` report at preset seed 5 with noise. A passing report
# holds only check ids, laws and statuses, so the two S3 line bases share one.
GOLDEN_ALL = [
    ("s3-line5", 3, "0dc368c802c17156a86ad7a3bc1e1f2e664da464fbd597ee7d7e5ce07adc2e7c"),
    ("s3-line5w", 2, "0dc368c802c17156a86ad7a3bc1e1f2e664da464fbd597ee7d7e5ce07adc2e7c"),
    ("cycle6-trivial", 4, "d19e83ce502521ff91a0e5a4b1e4f33d0020bff5f89d2622a6b299994d0e8273"),
    ("oracle-dirline3", 3, "be681f120706fdcb3fc5128ba2495146a50eb7be81bd7243f2ee7104b7053e3c"),
]


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
