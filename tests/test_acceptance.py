"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line straight to the terminal and
asserts, so the suite doubles as a human-readable acceptance report.
Most criteria delegate to the named verification suites; timing gates
and ad-hoc assertions run inline.  All comparisons are exact.
"""

import time

import pytest

from eulerprod import classify_pipeline, exceptions_from_spec, sweep, verify_suite, weight_from_spec
from eulerprod.classify import delta_branch_n_bound


@pytest.fixture(scope="session")
def reports():
    cache = {}

    def get(suite):
        if suite not in cache:
            cache[suite] = verify_suite(suite)
        return cache[suite]

    return get


def report_line(capsys, criterion, passed, text):
    with capsys.disabled():
        print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} {text}")
    assert passed, f"criterion {criterion}: {text}"


def failing(report, names=None):
    return [f"{c.name}: {c.details}" for c in report.checks
            if not c.passed and (names is None or c.name in names)]


def test_criterion_01_sign_grid_reproduction(reports, capsys):
    report = reports("figure1")
    t0 = time.monotonic()
    sweep(exceptions_from_spec("2,4"), weight_from_spec("power"), 50, 60)
    gate = time.monotonic() - t0
    problems = failing(report)
    if gate >= 30.0:
        problems.append(f"reduced gate took {gate:.1f}s")
    report_line(capsys, 1, not problems,
                "50x300 grid with parts 2,4 excluded: columns settle, sign +1 exactly "
                f"on multiples of 3 (reduced ell<=60 gate {gate:.2f}s)"
                + (f" -- {problems}" if problems else ""))


def test_criterion_02_sparse_support_identity(reports, capsys):
    problems = failing(reports("examples"),
                       {"block-repetition-zero-columns", "block-repetition-binomial"})
    report_line(capsys, 2, not problems,
                "support {1,3}: zero differences at n = 1 mod 3 and exact binomial "
                "blocks, n <= 60, ell <= 50" + (f" -- {problems}" if problems else ""))


def test_criterion_03_parity_law(reports, capsys):
    problems = failing(reports("theorems"),
                       {"parity-three-excluded", "parity-three-five-excluded"})
    report_line(capsys, 3, not problems,
                "parts {3} and {3,5} excluded: stabilized sign +1 at even n, -1 at odd n, "
                "n in 5..40, ell <= 120" + (f" -- {problems}" if problems else ""))


def test_criterion_04_refined_concavity(reports, capsys):
    problems = failing(reports("theorems"),
                       {"refined-ratio-four-excluded", "terminal-sign-four-excluded"})
    report_line(capsys, 4, not problems,
                "part 4 excluded, n = 2 mod 3 in 5..35: refined verdict concave with "
                "ratio exactly 2(n+1)/(n-2), sweep terminal sign +1"
                + (f" -- {problems}" if problems else ""))


def test_criterion_05_coefficient_oracles(reports, capsys):
    problems = failing(reports("oracles"),
                       {"recurrence-vs-product", "unit-weight-partition-counts"})
    report_line(capsys, 5, not problems,
                "recurrence equals product expansion (battery, ell <= 10, n <= 40); "
                "unit weights reproduce brute partition counts (n <= 25)"
                + (f" -- {problems}" if problems else ""))


def test_criterion_06_maxprod_cross_validation(reports, capsys):
    problems = failing(reports("maxprod"))
    report_line(capsys, 6, not problems,
                "maximal-product DP equals brute force on full reports (battery, n <= 28)"
                + (f" -- {problems}" if problems else ""))


def test_criterion_07_closed_forms(reports, capsys):
    problems = failing(reports("lemmas"),
                       {"smallest-part-two-cases", "isolated-block-form",
                        "consecutive-pair-form"})
    report_line(capsys, 7, not problems,
                "closed-form maximizers match the DP across all covered case families"
                + (f" -- {problems}" if problems else ""))


def test_criterion_08_quotient_tables(reports, capsys):
    problems = failing(reports("q-tables"))
    report_line(capsys, 8, not problems,
                "published quotient values reproduced for every residue and case window"
                + (f" -- {problems}" if problems else ""))


def settled(cells):
    """Terminal sign of (ell, sign) cells, least ell it holds from, and
    whether it is stabilized (threshold below the top, as in stabilization)."""
    terminal, threshold = cells[-1][1], cells[-1][0]
    for ell, sign in reversed(cells[:-1]):
        if sign != terminal:
            break
        threshold = ell
    return terminal, threshold, threshold < cells[-1][0]


def test_criterion_09_alternating_weight_oscillation(capsys):
    # The oscillation is eventual in ell, so each parity of ell is held to
    # the stabilized terminal sign its branch of the delta analysis
    # predicts: even ell concave (+1), odd ell convex (-1).  The fixed
    # ell 20..40 window stays in examples/alternating-weight-oscillation.
    E, w = exceptions_from_spec("none"), weight_from_spec("example2")
    horizon = 120
    grid = sweep(E, w, 12, horizon)
    problems, onsets = [], []
    for n in (5, 8, 11):
        pred = classify_pipeline(E, n, w, range(1, 13))
        if pred.mechanism != "delta-branch" or not pred.detail["oscillates"]:
            problems.append(f"n={n}: pipeline gives {pred.verdict} by {pred.mechanism}, "
                            "not an oscillating delta branch")
        probes = pred.detail.get("probes", ())
        odd = [r for ell, r in probes if ell % 2]
        even = [r for ell, r in probes if ell % 2 == 0]
        branches = (
            ("even", 2, 1 if even and all(r < 1 for r in even) else None),
            ("odd", 1, -1 if odd and min(odd) > 1 and n > delta_branch_n_bound(min(odd)) else None),
        )
        column = grid.column(n)
        thresholds = {}
        for parity, first, want in branches:
            cells = list(zip(range(first, horizon + 1, 2), column[first - 1::2]))
            sign, thresholds[parity], stabilized = settled(cells)
            where = f"n={n} {parity} ell: sign {sign:+d}"
            if want is None:
                problems.append(f"{where} from ell {thresholds[parity]}, "
                                "but the probes put it on no branch")
            elif not stabilized:
                problems.append(f"{where} at the top only, not settled by ell {horizon}")
            elif sign != want:
                problems.append(f"{where} from ell {thresholds[parity]}, want {want:+d}")
        onsets.append(f"{n}: {thresholds['even']}/{thresholds['odd']}")
    report_line(capsys, 9, not problems,
                "alternating weight family: sign +1 at even ell, -1 at odd ell for "
                f"n in {{5,8,11}}, stabilized below the ell {horizon} horizon from ell "
                f"(even/odd) {', '.join(onsets)}; probes at ell 1..12 put even ell on the "
                "concave branch, odd ell on the convex one"
                + (f" -- {problems}" if problems else ""))


def test_criterion_10_divisor_sum_envelope(reports, capsys):
    problems = failing(reports("oracles"), {"g-envelope"})
    report_line(capsys, 10, not problems,
                "divisor-sum envelope inequalities hold exactly (battery, ell <= 8, "
                "n <= 100)" + (f" -- {problems}" if problems else ""))
