"""Named verification suites over the whole toolkit.

Each suite bundles related reproduction checks: oracle agreement
between the two coefficient paths, maximal-product cross-validation,
closed-form case analyses, quotient tables, published sign laws, the
full sign-grid reproduction, and the worked example families.  A
report carries one result per check, with counterexample payloads on
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .classify import EVENTUALLY_CONCAVE, MECH_A, _quotient, classify_refined
from .harness import default_predictions, stabilization, sweep
from .maxprod import (
    MaxProdReport,
    MaxProdTable,
    closed_form_max,
    max_product_bruteforce_all,
)
from .model import ExceptionSet, exceptions_from_spec, support_view, weight_from_spec
from .qseries import (
    check_g_bounds,
    coeffs_by_product,
    coeffs_by_recurrence,
    delta,
    g_table,
)

# one spec string per exception-set shape the checks cycle through
BATTERY = ("none", "2", "3", "4", "2,4", "3,5", "powers:2", "powers:3",
           "support:1,3", "support:1,3,4")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check inside a suite."""

    name: str
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class SuiteReport:
    """All check outcomes for one suite run."""

    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _result(name: str, failures: list[str], note: str) -> CheckResult:
    if not failures:
        return CheckResult(name, True, note)
    shown = "; ".join(failures[:6])
    if len(failures) > 6:
        shown += f"; +{len(failures) - 6} more"
    return CheckResult(name, False, shown)


def _partition_counts(E: ExceptionSet, N: int) -> list[int]:
    """Partition counts with parts allowed by E, one part size at a time."""
    ways = [0] * (N + 1)
    ways[0] = 1
    for s in support_view(E, N):
        for v in range(s, N + 1):
            ways[v] += ways[v - s]
    return ways


def _suite_oracles() -> SuiteReport:
    power = weight_from_spec("power")
    checks: list[CheckResult] = []

    failures: list[str] = []
    for espec in BATTERY:
        E = exceptions_from_spec(espec)
        for ell in range(1, 11):
            a = coeffs_by_recurrence(E, power, ell, 40)
            b = coeffs_by_product(E, power, ell, 40)
            if a.coeffs != b.coeffs:
                bad = next(n for n in range(41) if a.coeffs[n] != b.coeffs[n])
                failures.append(f"E={{{espec}}} ell={ell}: first mismatch at n={bad}")
    checks.append(_result("recurrence-vs-product", failures,
                          "battery x ell 1..10, horizon 40, exact equality"))

    failures = []
    for wspec in ("example1", "example2"):
        w = weight_from_spec(wspec)
        for espec in ("none", "2,4"):
            E = exceptions_from_spec(espec)
            for ell in range(1, 11):
                a = coeffs_by_recurrence(E, w, ell, 40)
                b = coeffs_by_product(E, w, ell, 40)
                if a.coeffs != b.coeffs:
                    failures.append(f"{wspec} E={{{espec}}} ell={ell}")
    checks.append(_result("recurrence-vs-product-variant-weights", failures,
                          "example families, ell 1..10, horizon 40"))

    failures = []
    for espec in BATTERY:
        E = exceptions_from_spec(espec)
        counts = _partition_counts(E, 25)
        table = coeffs_by_recurrence(E, power, 1, 25)
        for n in range(26):
            if table.coeffs[n] != counts[n]:
                failures.append(f"E={{{espec}}} n={n}: {table.coeffs[n]} vs {counts[n]}")
    checks.append(_result("unit-weight-partition-counts", failures,
                          "ell = 1 coefficients are plain partition counts, n <= 25"))

    failures = []
    for espec in BATTERY:
        E = exceptions_from_spec(espec)
        for ell in range(1, 9):
            failures.extend(f"E={{{espec}}} ell={ell} n={n}" for n in check_g_bounds(g_table(E, power, ell, 100)))
    checks.append(_result("g-envelope", failures,
                          "divisor-sum bounds, battery x ell 1..8, n <= 100"))
    return SuiteReport("oracles", tuple(checks))


def _suite_maxprod() -> SuiteReport:
    failures: list[str] = []
    for espec in BATTERY:
        E = exceptions_from_spec(espec)
        table, brute = MaxProdTable(E, 28), max_product_bruteforce_all(E, 28)
        for n in range(29):
            if table.report(n) != brute[n]:
                failures.append(f"E={{{espec}}} n={n}")
    return SuiteReport("maxprod", (
        _result("dp-vs-bruteforce", failures,
                "full reports (value, maximizers, coefficient, runner-up), battery, n <= 28"),))


# closed-form configurations by exception spec
_SMALLEST_PART_2 = ("4", "none", "3,5", "3", "3,4", "3,4,5", "support:1,2")
_ISOLATED_BLOCKS = ("2,4,5", "2,4,5,6", "2,3,5,6,7", "2,3,5,6,7,8", "2,3,4,6,7,8,9",
                    "2,3,4,6,7,8,9,10", "support:1,3", "support:1,4")

# (spec, validity threshold a2(a2-1)(3a2-1)/2, a2)
_CONSECUTIVE_PAIRS = (
    ("2", 24, 3),
    ("2,5,6,7", 24, 3),
    ("support:1,3,4", 24, 3),
    ("2,3", 66, 4),
    ("2,3,4", 140, 5),
)


def _closed_form_agrees(cf: MaxProdReport | None, table: MaxProdTable, n: int) -> bool:
    # the case analyses do not derive runner-up products, so the table's runner-up column is not read
    if cf is None or cf.n != n:
        return False
    maximizers = table.maximizers(n)
    return (cf.product == table.best[n] and cf.maximizers == maximizers
            and cf.unique == (len(maximizers) == 1) and cf.coefficient == table.coefficient(n))


def _closed_form_failures(espec: str, lo: int, hi: int) -> list[str]:
    """Targets lo..hi where closed_form_max on espec disagrees with the table."""
    E = exceptions_from_spec(espec)
    table = MaxProdTable(E, hi)
    return [f"E={{{espec}}} n={n}" for n in range(lo, hi + 1)
            if not _closed_form_agrees(closed_form_max(E, n), table, n)]


def _suite_lemmas() -> SuiteReport:
    checks: list[CheckResult] = []

    failures = [f for espec in _SMALLEST_PART_2 for f in _closed_form_failures(espec, 1, 60)]
    checks.append(_result("smallest-part-two-cases", failures,
                          "seven heads with second element 2, n <= 60"))

    failures = [f for espec in _ISOLATED_BLOCKS for f in _closed_form_failures(espec, 1, 60)]
    checks.append(_result("isolated-block-form", failures,
                          "blocks of a2 plus ones when the next element is >= 2 a2, n <= 60"))

    failures = [f for espec, threshold, a2 in _CONSECUTIVE_PAIRS
                for f in _closed_form_failures(espec, threshold, threshold + 3 * a2)]
    checks.append(_result("consecutive-pair-form", failures,
                          "a2, a2+1 mix beyond the validity threshold, a2 in 3..5"))

    failures = []
    for espec, a2 in (("2", 3), ("2,4", 3), ("2,3", 4), ("2,3,4", 5)):
        table = MaxProdTable(exceptions_from_spec(espec), 40)
        for n in range(1, 41):
            for m in table.maximizers(n):
                if any(p >= 2 * a2 for p in m.parts):
                    failures.append(f"E={{{espec}}} n={n}: part >= {2 * a2} in {m.parts}")
    checks.append(_result("maximizer-part-ceiling", failures,
                          "no maximizer part reaches twice the second element, n <= 40"))

    failures = []
    for espec, a2 in (("2", 3), ("2,4", 3), ("2,3", 4)):
        table = MaxProdTable(exceptions_from_spec(espec), 40)
        for n in range(1, 41):
            for m in table.maximizers(n):
                for part, mult in m.multiplicities().items():
                    if part != a2 and mult >= a2:
                        failures.append(f"E={{{espec}}} n={n}: {part}^{mult} in {m.parts}")
    checks.append(_result("off-block-multiplicity-ceiling", failures,
                          "parts other than a2 stay below multiplicity a2, n <= 40"))
    return SuiteReport("lemmas", tuple(checks))


# (label, specs, modulus, expected quotient per residue, first valid n, last n)
_QUOTIENT_CASES = (
    ("two-three-allowed", ("none", "4", "5"), 3,
     {0: Fraction(9, 8), 1: Fraction(8, 9), 2: Fraction(1)}, 4, 60),
    ("two-five-allowed-three-excluded", ("3", "3,4"), 2,
     {0: Fraction(32, 25), 1: Fraction(25, 32)}, 5, 60),
    ("two-allowed-three-five-excluded", ("3,5", "3,4,5"), 2,
     {0: Fraction(2), 1: Fraction(1, 2)}, 1, 60),
    ("three-five-allowed-two-four-excluded", ("2,4", "2,4,6"), 3,
     {0: Fraction(9, 5), 1: Fraction(3, 5), 2: Fraction(25, 27)}, 4, 60),
    ("support-one-three", ("support:1,3",), 3,
     {0: Fraction(3), 1: Fraction(1), 2: Fraction(1, 3)}, 1, 60),
    ("consecutive-pair-r3", ("2",), 3,
     {0: Fraction(81, 64), 1: Fraction(1), 2: Fraction(64, 81)}, 26, 60),
    ("consecutive-pair-r4", ("2,3",), 4,
     {0: Fraction(1024, 625), 1: Fraction(1), 2: Fraction(1), 3: Fraction(625, 1024)}, 68, 80),
    ("consecutive-pair-r5", ("2,3,4",), 5,
     {0: Fraction(15625, 7776), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1),
      4: Fraction(7776, 15625)}, 142, 157),
)


def _suite_qtables() -> SuiteReport:
    checks: list[CheckResult] = []
    for label, especs, modulus, expected, lo, hi in _QUOTIENT_CASES:
        failures: list[str] = []
        for espec in especs:
            best = MaxProdTable(exceptions_from_spec(espec), hi + 1).best
            for n in range(lo, hi + 1):
                got = _quotient(best, n).q
                want = expected[n % modulus]
                if got != want:
                    failures.append(f"E={{{espec}}} n={n}: {got} vs {want}")
        checks.append(_result(label, failures, f"residues mod {modulus}, n in {lo}..{hi}"))
    return SuiteReport("q-tables", tuple(checks))


def _suite_theorems() -> SuiteReport:
    power = weight_from_spec("power")
    checks: list[CheckResult] = []
    agreement: list[str] = []

    for label, espec in (("parity-three-excluded", "3"),
                         ("parity-three-five-excluded", "3,5")):
        E = exceptions_from_spec(espec)
        grid = sweep(E, power, 40, 120)
        rows = stabilization(grid, default_predictions(grid))
        failures = []
        for row in rows:
            if row.stabilized and row.agrees is False:
                agreement.append(f"E={{{espec}}} n={row.n}")
            if row.n < 5:
                continue
            want = 1 if row.n % 2 == 0 else -1
            if not row.stabilized or row.terminal_sign != want:
                failures.append(f"n={row.n}: terminal {row.terminal_sign}, want {want}")
        checks.append(_result(label, failures,
                              "sign +1 at even n, -1 at odd n, n in 5..40, ell <= 120"))

    E4 = exceptions_from_spec("4")
    failures = []
    for n in range(5, 36):
        if n % 3 != 2:
            continue
        p = classify_refined(E4, n)
        want = Fraction(2 * (n + 1), n - 2)
        if (p.verdict != EVENTUALLY_CONCAVE or p.mechanism != MECH_A
                or p.detail.get("ratio") != want):
            failures.append(f"n={n}: {p.verdict} ratio {p.detail.get('ratio')}, want {want}")
    checks.append(_result("refined-ratio-four-excluded", failures,
                          "coefficient ratio 2(n+1)/(n-2) at n = 2 mod 3, n in 5..35"))

    grid = sweep(E4, power, 36, 120)
    rows = stabilization(grid, default_predictions(grid))
    failures = []
    for row in rows:
        if row.stabilized and row.agrees is False:
            agreement.append(f"E={{4}} n={row.n}")
        if 5 <= row.n <= 35 and row.n % 3 == 2:
            if not row.stabilized or row.terminal_sign != 1:
                failures.append(f"n={row.n}: terminal {row.terminal_sign}")
    checks.append(_result("terminal-sign-four-excluded", failures,
                          "sweep confirms +1 at n = 2 mod 3, n in 5..35, ell <= 120"))

    checks.append(_result("prediction-agreement", agreement,
                          "every stabilized column matches its predicted verdict"))
    return SuiteReport("theorems", tuple(checks))


def _suite_figure1() -> SuiteReport:
    """The published 50 x 300 grid for excluded parts 2 and 4, power weights."""
    E = exceptions_from_spec("2,4")
    grid = sweep(E, weight_from_spec("power"), 50, 300)
    rows = [r for r in stabilization(grid, default_predictions(grid)) if r.n >= 4]

    failures = [f"n={r.n}" for r in rows if not r.stabilized]
    checks = [_result("columns-stabilize", failures,
                      "every column n in 4..50 settles below ell = 300")]

    failures = [f"n={r.n}: terminal {r.terminal_sign}" for r in rows
                if (r.terminal_sign == 1) != (r.n % 3 == 0)]
    checks.append(_result("terminal-sign-pattern", failures,
                          "terminal sign +1 exactly at multiples of 3"))

    failures = [f"n={r.n}: predicted {r.predicted}, terminal {r.terminal_sign}"
                for r in rows if r.stabilized and r.agrees is False]
    checks.append(_result("prediction-agreement", failures,
                          "pipeline verdicts match terminal signs"))
    return SuiteReport("figure1", tuple(checks))


def _suite_examples() -> SuiteReport:
    power = weight_from_spec("power")
    S13 = exceptions_from_spec("support:1,3")
    tables = {ell: coeffs_by_recurrence(S13, power, ell, 62) for ell in range(1, 51)}
    checks: list[CheckResult] = []

    failures: list[str] = []
    for ell, table in tables.items():
        for n in range(1, 61):
            if n % 3 == 1 and delta(table, n).value != 0:
                failures.append(f"ell={ell} n={n}")
    checks.append(_result("block-repetition-zero-columns", failures,
                          "difference vanishes at n = 1 mod 3, n <= 60, ell <= 50"))

    failures = []
    for ell, table in tables.items():
        f3 = power.eval(ell, 3)
        for m in range(21):
            want = comb(m + f3, m)
            if any(table.coeffs[3 * m + r] != want for r in range(3)):
                failures.append(f"ell={ell} block={m}")
    checks.append(_result("block-repetition-binomial", failures,
                          "coefficient blocks of three equal C(m + f(3), m)"))

    ex2 = weight_from_spec("example2")
    failures = []
    for ell in range(20, 41):
        table = coeffs_by_recurrence(exceptions_from_spec("none"), ex2, ell, 12)
        for n in (5, 8, 11):
            want = 1 if ell % 2 == 0 else -1
            got = delta(table, n).sign
            if got != want:
                failures.append(f"n={n} ell={ell}: sign {got}, want {want}")
    checks.append(_result("alternating-weight-oscillation", failures,
                          "sign +1 at even ell, -1 at odd ell, n in {5, 8, 11}, ell 20..40"))
    return SuiteReport("examples", tuple(checks))


_SUITES = {
    "oracles": _suite_oracles,
    "maxprod": _suite_maxprod,
    "lemmas": _suite_lemmas,
    "q-tables": _suite_qtables,
    "theorems": _suite_theorems,
    "figure1": _suite_figure1,
    "examples": _suite_examples,
}

SUITE_IDS = tuple(_SUITES)


def verify_suite(suite_id: str) -> SuiteReport:
    """Run one named suite at its published size; unknown ids raise ValueError."""
    try:
        runner = _SUITES[suite_id]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite_id!r}; choose from {', '.join(_SUITES)}") from None
    return runner()
