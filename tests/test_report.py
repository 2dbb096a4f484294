"""`Report.search`: every law check records its first counterexample, or a
pass, through this one method."""

from catbundle.report import CheckResult, Report


def test_search_passes_on_no_witness():
    rep = Report("demo")
    rep.search("demo.empty", "a law", iter(()))
    rep.search("demo.none", "a law", (w for w in ["x"] if False))
    assert rep.checks == [CheckResult("demo.empty", "a law", "pass"),
                          CheckResult("demo.none", "a law", "pass")]
    assert rep.ok


def test_search_records_the_first_witness_and_never_resumes():
    pulled = []

    def violations():
        pulled.append("first")
        yield "broken at a"
        raise AssertionError("resumed after the first witness")

    rep = Report("demo")
    rep.search("demo.law", "a law", violations())
    assert rep.checks == [CheckResult("demo.law", "a law", "fail", "broken at a")]
    assert pulled == ["first"]


def test_search_reads_any_iterable_in_order():
    rep = Report("demo")
    rep.search("demo.list", "a law", ["broken at a", "broken at b"])
    assert rep.first_witness() == "broken at a"
