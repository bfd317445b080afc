import pytest

from eulerprod import SUITE_IDS, MaxProdTable, maxprod, suites, verify_suite
from eulerprod.suites import BATTERY, CheckResult, SuiteReport


def test_suite_registry():
    assert SUITE_IDS == ("oracles", "maxprod", "lemmas", "q-tables",
                        "theorems", "figure1", "examples")


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("bogus")


def test_report_aggregation():
    passing = SuiteReport("x", (CheckResult("a", True), CheckResult("b", True)))
    failing = SuiteReport("x", (CheckResult("a", True), CheckResult("b", False, "boom")))
    assert passing.passed and not failing.passed


def test_maxprod_suite_passes():
    report = verify_suite("maxprod")
    assert report.passed
    assert [c.name for c in report.checks] == ["dp-vs-bruteforce"]
    assert report.checks[0].details


def test_maxprod_suite_builds_one_table_and_one_walk_per_spec(monkeypatch):
    built, walks = [], []
    init, walk = MaxProdTable.__init__, maxprod.max_product_bruteforce_all

    def counting_init(self, E, n_max):
        built.append(n_max)
        init(self, E, n_max)

    def counting_walk(E, n_max, *args):
        walks.append(n_max)
        return walk(E, n_max, *args)

    monkeypatch.setattr(MaxProdTable, "__init__", counting_init)
    for module in (maxprod, suites):
        monkeypatch.setattr(module, "max_product_bruteforce_all", counting_walk)
    assert verify_suite("maxprod").passed
    assert built == walks == [28] * len(BATTERY)


def test_reduced_grid_reports_unsettled_columns(monkeypatch):
    # a short sweep stabilizes spuriously on slow columns; the pattern
    # check must surface that instead of calling the grid reproduced
    sweep = suites.sweep
    monkeypatch.setattr(suites, "sweep", lambda E, w, n_max, ell_max: sweep(E, w, 10, 8))
    report = verify_suite("figure1")
    checks = {c.name: c for c in report.checks}
    assert checks["columns-stabilize"].passed
    assert not checks["terminal-sign-pattern"].passed
    assert "n=5" in checks["terminal-sign-pattern"].details


def test_alternating_window_check_stays_red():
    # the examples check states the ell 20..40 window as claimed and must
    # keep reporting exactly the two cells where n = 11 has not settled yet
    report = verify_suite("examples")
    checks = {c.name: c for c in report.checks}
    check = checks["alternating-weight-oscillation"]
    assert not check.passed
    assert check.details == "n=11 ell=21: sign 1, want -1; n=11 ell=23: sign 1, want -1"
