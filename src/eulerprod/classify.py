"""Eventual log-behavior classification from maximal-product data.

The quotient Q(n) = M(n)^2 / (M(n-1) M(n+1)) decides the eventual sign
of the log-concavity difference when it differs from 1; the tie case
falls to a refined criterion built on the composition-count
coefficients A(n) of the maximizers, and one special configuration
is only conditionally decidable and gets exact probe data instead.

Verdict strings: eventually-concave, eventually-convex, zero,
conditional, unknown.  Mechanism strings: q-criterion, a-criterion,
theorem-table, s13-identity, delta-branch, none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .maxprod import SHARED_TABLES, MaxProdTable, shared_table
from .model import PRESETS, ExceptionSet, WeightFamily, member, next_allowed
from .qseries import g_table

EVENTUALLY_CONCAVE = "eventually-concave"
EVENTUALLY_CONVEX = "eventually-convex"
ZERO = "zero"
CONDITIONAL = "conditional"
UNKNOWN = "unknown"

MECH_Q = "q-criterion"
MECH_A = "a-criterion"
MECH_TABLE = "theorem-table"
MECH_S13 = "s13-identity"
MECH_DELTA = "delta-branch"
MECH_NONE = "none"

GREATER_THAN_1 = "greater-than-1"
EQUAL_1 = "equal-1"
LESS_THAN_1 = "less-than-1"
# the refined criterion reads the table up to n + 1 + this
_GROWTH_GUARD = 5


@dataclass(frozen=True)
class QValue:
    n: int
    q: Fraction
    relation: str


@dataclass(frozen=True)
class HypothesisRecord:
    """Checks backing the refined criterion at one n.

    strict_growth: the maximal products strictly increase over the
    checked window; unique_*: single maximizer at n-1, n, n+1;
    balanced: the doubled part multiset of the maximizer at n equals
    the merged part multisets of the maximizers at n-1 and n+1.
    """

    strict_growth: bool
    unique_below: bool
    unique_at: bool
    unique_above: bool
    balanced: bool

    def all_hold(self) -> bool:
        return (self.strict_growth and self.unique_below and self.unique_at
                and self.unique_above and self.balanced)


@dataclass(frozen=True)
class ARatio:
    n: int
    ratio: Fraction
    hypotheses: HypothesisRecord


@dataclass(frozen=True)
class Prediction:
    verdict: str
    mechanism: str
    detail: dict


def _quotient(best: tuple[int, ...], n: int) -> QValue:
    q = Fraction(best[n] * best[n], best[n - 1] * best[n + 1])
    return QValue(n, q, GREATER_THAN_1 if q > 1 else LESS_THAN_1 if q < 1 else EQUAL_1)


def q_value(E: ExceptionSet, n: int) -> QValue:
    """Exact quotient M(n)^2 / (M(n-1) M(n+1)) with its trichotomy."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _quotient(shared_table(E, n + 1).best, n)


def _basic(table: MaxProdTable, n: int) -> Prediction:
    """Quotient criterion: above 1 concave, below 1 convex, tie open."""
    best = table.best
    top, bottom = best[n] * best[n], best[n - 1] * best[n + 1]
    if top > bottom:
        return Prediction(EVENTUALLY_CONCAVE, MECH_Q, {"q": Fraction(top, bottom)})
    if top < bottom:
        return Prediction(EVENTUALLY_CONVEX, MECH_Q, {"q": Fraction(top, bottom)})
    return Prediction(UNKNOWN, MECH_NONE,
                      {"q": Fraction(1), "note": "quotient ties at 1; try the refined criterion"})


def _a_ratio(table: MaxProdTable, n: int) -> ARatio:
    """The coefficient ratio at n with the hypotheses that back it."""
    below, at, above = (table.maximizers(m) for m in (n - 1, n, n + 1))
    # best grows strictly at every m in lo..n + 1 + _GROWTH_GUARD
    lo, flat = max(2, n - 1 - _GROWTH_GUARD), table.flat_steps
    strict = flat[n + 1 + _GROWTH_GUARD] == flat[lo - 1]
    unique = len(below) == 1, len(at) == 1, len(above) == 1
    balanced = all(unique) and sorted(at[0].parts * 2) == sorted(below[0].parts + above[0].parts)
    record = HypothesisRecord(strict, *unique, balanced)
    return ARatio(n, table.coefficient_ratio(n), record)


def a_ratio(E: ExceptionSet, n: int) -> ARatio:
    """Coefficient ratio A(n)^2 / (A(n-1) A(n+1)) with hypothesis record."""
    if n < 2:
        raise ValueError(f"the ratio needs n >= 2, got {n}")
    return _a_ratio(shared_table(E, n + 1 + _GROWTH_GUARD), n)


def classify_refined(E: ExceptionSet, n: int, weights: WeightFamily | None = None,
                     probe_ells: Iterable[int] | None = None) -> Prediction:
    """Coefficient-ratio criterion for the quotient tie Q(n) = 1.

    With parts 2, 3 and 4 allowed and n = 2 mod 3, the weight-dependent
    configuration, the verdict is delegated to the conditional branch
    analysis.  Otherwise, all hypotheses holding, the ratio decides the
    verdict, and anything else stays unknown.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _refined(E, shared_table(E, n + 1 + _GROWTH_GUARD), n, weights, probe_ells)


def _refined(E: ExceptionSet, table: MaxProdTable, n: int, weights: WeightFamily | None,
             probe_ells: Iterable[int] | None) -> Prediction:
    best = table.best
    if best[n] * best[n] != best[n - 1] * best[n + 1]:
        raise ValueError(f"refined criterion needs quotient 1 at n={n}, got {_quotient(best, n).q}")
    if n < 2:
        return Prediction(UNKNOWN, MECH_NONE, {"note": "window n-1, n, n+1 leaves the table"})
    if n % 3 == 2 and _set_facts(E).allows_2_3_4:
        return classify_delta_branch(E, n, weights or PRESETS["power"],
                                     probe_ells if probe_ells is not None else range(1, 13))
    ar = _a_ratio(table, n)
    record = ar.hypotheses
    if record.all_hold():
        detail = {"ratio": ar.ratio, "hypotheses": record}
        if ar.ratio > 1:
            return Prediction(EVENTUALLY_CONCAVE, MECH_A, detail)
        if ar.ratio < 1:
            return Prediction(EVENTUALLY_CONVEX, MECH_A, detail)
        return Prediction(UNKNOWN, MECH_NONE, detail)
    return Prediction(UNKNOWN, MECH_NONE, {"hypotheses": record})


def delta_branch_n_bound(delta: Fraction) -> Fraction:
    """Threshold 2(delta+2)/(delta-1) below which the convex branch is silent."""
    delta = Fraction(delta)
    if delta <= 1:
        raise ValueError(f"the threshold exists for delta > 1 only, got {delta}")
    return 2 * (delta + 2) / (delta - 1)


def _trend(values: list[Fraction]) -> str:
    if len(values) < 2:
        return "constant"
    diffs = [b - a for a, b in zip(values, values[1:])]
    if all(d > 0 for d in diffs):
        return "increasing"
    if all(d < 0 for d in diffs):
        return "decreasing"
    if all(d == 0 for d in diffs):
        return "constant"
    signs = [(d > 0) - (d < 0) for d in diffs]
    if all(s != 0 and s == -t for s, t in zip(signs, signs[1:])):
        return "oscillating"
    return "mixed"


# 1, 2, 3 and 4 all allowed: g(2) = 1 + 2 f(2) and g(4) = g(2) + 4 f(4) for every such E
_ALL_PARTS = ExceptionSet()
# the most weight bits one set of probes may build, each probe counting its largest n^e (n = 2, 3, 4)
# as e times the bit length of n, as the weight ceiling does: 3 (ell - 1) on power weights, so the
# longest range accepted there is 1..3344; 1..3000 (13.5M bits) took 0.45 s and printed 5.5 MB
MAX_PROBE_BITS = 1 << 24


def check_probes(w: WeightFamily, ells: Sequence[int]) -> None:
    """Raise ValueError unless the ascending, non-empty probe ells are >= 1, valid for w at parts 2, 3
    and 4 (WeightFamily.check), and build at most MAX_PROBE_BITS bits of weights in all.  The sum
    stops at the first probe past the ceiling, so a range of any length is refused at once."""
    if ells[0] < 1:
        raise ValueError(f"ell must be >= 1, got {ells[0]}")
    w.check(ells, (2, 3, 4))
    size = 0
    for ell in ells:
        size += max(w.exponent(ell, n) * n.bit_length() for n in (2, 3, 4))
        if size > MAX_PROBE_BITS:
            raise ValueError(f"the probes up to ell {ell} build more than {MAX_PROBE_BITS} bits of weights, "
                             "the ceiling for one set of probes")


# one entry: every caller in the package (the CLI, default_predictions, a
# classify_pipeline scan) asks for a single (weights, probe ells) pair per
# process, so a second entry would never be read; another pair recomputes
@lru_cache(maxsize=1)
def _probe_detail(w: WeightFamily, probe_ells: tuple[int, ...]) -> tuple[tuple[str, object], ...]:
    """The items of a delta-branch detail: 2 g(4) / g(2)^2 at each probe ell, their trend and
    bound; a call that raises leaves nothing cached, and probes that check_probes refuses raise
    before any g is tabled."""
    check_probes(w, sorted(probe_ells))
    probes = []
    for ell in probe_ells:
        g = g_table(_ALL_PARTS, w, ell, 4).values
        probes.append((ell, Fraction(2 * g[4], g[2] ** 2)))
    ratios = [r for _, r in probes]
    last = ratios[-1]
    trend = _trend(ratios)
    detail: dict = {
        "probes": tuple(probes),
        "trend": trend,
        "oscillates": trend == "oscillating",
        "last_ratio": last,
        "convex_branch": "ratio eventually above a fixed delta > 1 and n > 2(delta+2)/(delta-1)",
        "concave_branch": "ratio eventually below a fixed delta < 1",
    }
    if last > 1:
        detail["n_bound_at_last"] = delta_branch_n_bound(last)
    return tuple(detail.items())


def classify_delta_branch(E: ExceptionSet, n: int, w: WeightFamily,
                          probe_ells: Iterable[int]) -> Prediction:
    """Probe 2 g(4) / g(2)^2 exactly and report both published branches.

    If the probed ratio eventually stays above some fixed delta > 1 and
    n > 2(delta+2)/(delta-1), the sequence turns convex; if it stays
    below some delta < 1, concave.  Finitely many probes cannot assert
    either limit, so the verdict is always conditional and carries the
    exact probe values and the observed trend.  Neither depends on n or
    on E, so they are computed once per weight family and probe ells.
    """
    if not _set_facts(E).allows_2_3_4:
        raise ValueError("branch analysis needs parts 2, 3 and 4 allowed")
    if n % 3 != 2:
        raise ValueError(f"branch analysis applies to n = 2 mod 3, got {n}")
    probe_ells = tuple(probe_ells)
    if not probe_ells:
        raise ValueError("at least one probe ell is required")
    return Prediction(CONDITIONAL, MECH_DELTA, dict(_probe_detail(w, probe_ells)))


@dataclass(frozen=True)
class _SetFacts:
    """What the theorem table reads of an exception set, found once per set.

    s2..s5: whether each of 2, 3, 4, 5 is an allowed part; k: the least
    allowed part >= 2 other than 3; r: the least allowed part above 1, and
    r_next: whether r + 1 is allowed.  k and r are None past the last part
    of a finite support set.
    """

    s2: bool
    s3: bool
    s4: bool
    s5: bool
    k: int | None
    r: int | None
    r_next: bool

    @property
    def allows_2_3_4(self) -> bool:
        return self.s2 and self.s3 and self.s4


# as many sets as shared_table keeps: a process asks for the facts of at most
# 4 distinct sets (two in-process passes of each perfbench workload: classify
# 3, verify 4, grid-wide 1, grid-tall 0; the CLI's verify all 4, every other
# subcommand 1 or 0)
@lru_cache(maxsize=SHARED_TABLES)
def _set_facts(E: ExceptionSet) -> _SetFacts:
    """The facts of E, read once per set; nothing that depends on n is kept."""
    s2, s3, s4, s5 = (not member(E, m) for m in (2, 3, 4, 5))
    r = next_allowed(E, 1)
    k = next_allowed(E, 3) if r == 3 else r
    return _SetFacts(s2, s3, s4, s5, k, r, r is not None and not member(E, r + 1))


def theorem_table(E: ExceptionSet, n: int) -> Prediction:
    """Published eventual-sign table for the settled configurations.

    Matches the exception set against the resolved cases and returns
    the stated verdict with its validity threshold honored; anything
    not covered (including the open configuration with 2, 4, 5
    excluded but support beyond {1, 3}) comes back unknown.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    facts = _set_facts(E)
    s2, s3, s4, s5 = facts.s2, facts.s3, facts.s4, facts.s5
    # parts above n + 1 cannot influence the difference at n
    support_is_13 = s3 and (facts.k is None or facts.k > n + 1)
    if support_is_13 and n % 3 == 1:
        return Prediction(ZERO, MECH_S13, {
            "case": "support {1,3}",
            "rule": "coefficients repeat in blocks of three, difference vanishes at n = 1 mod 3"})
    if s2 and s3:
        if n < 3:
            return Prediction(UNKNOWN, MECH_NONE, {"note": "below the stated range n >= 3"})
        r = n % 3
        if r == 0:
            return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE, {"case": "1,2,3 allowed", "rule": "n = 0 mod 3"})
        if r == 1:
            return Prediction(EVENTUALLY_CONVEX, MECH_TABLE, {"case": "1,2,3 allowed", "rule": "n = 1 mod 3"})
        if not s4:
            return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE,
                              {"case": "1,2,3 allowed, 4 excluded", "rule": "n = 2 mod 3"})
        return Prediction(CONDITIONAL, MECH_TABLE, {
            "case": "1,2,3,4 allowed", "rule": "n = 2 mod 3",
            "note": "sign depends on the weight family; see the branch analysis"})
    if s2 and not s3:
        if n < 5:
            return Prediction(UNKNOWN, MECH_NONE, {"note": "below the stated range n >= 5"})
        if n % 2 == 0:
            return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE, {"case": "1,2 allowed, 3 excluded", "rule": "even n"})
        return Prediction(EVENTUALLY_CONVEX, MECH_TABLE, {"case": "1,2 allowed, 3 excluded", "rule": "odd n"})
    if not s2 and s3 and not s4:
        r = n % 3
        if r != 1:
            if n < 4:
                return Prediction(UNKNOWN, MECH_NONE, {"note": "below the stated range n >= 4"})
            if r == 0:
                return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE,
                                  {"case": "1,3 allowed, 2,4 excluded", "rule": "n = 0 mod 3"})
            return Prediction(EVENTUALLY_CONVEX, MECH_TABLE,
                              {"case": "1,3 allowed, 2,4 excluded", "rule": "n = 2 mod 3"})
        if s5:
            if n < 4:
                return Prediction(UNKNOWN, MECH_NONE, {"note": "below the stated range n >= 4"})
            return Prediction(EVENTUALLY_CONVEX, MECH_TABLE,
                              {"case": "1,3,5 allowed, 2,4 excluded", "rule": "n = 1 mod 3"})
        return Prediction(UNKNOWN, MECH_NONE,
                          {"note": "2, 4 and 5 excluded with support beyond {1,3}: open configuration"})
    # 2 is excluded here, so the least allowed part above 1 is at least 3
    r = facts.r
    if r is not None and r <= n + 1 and facts.r_next:
        if n >= (r * (r - 1) * (3 * r - 1) + 4) // 2:
            if n % r == r - 1:
                return Prediction(EVENTUALLY_CONVEX, MECH_TABLE, {
                    "case": f"1,{r},{r + 1} allowed, 2..{r - 1} excluded", "rule": f"n = {r - 1} mod {r}"})
            return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE, {
                "case": f"1,{r},{r + 1} allowed, 2..{r - 1} excluded", "rule": f"n != {r - 1} mod {r}"})
        return Prediction(UNKNOWN, MECH_NONE,
                          {"note": f"below the stated range n >= {(r * (r - 1) * (3 * r - 1) + 4) // 2}"})
    return Prediction(UNKNOWN, MECH_NONE, {"note": "configuration not covered by the table"})


def classify_pipeline(E: ExceptionSet, n: int, weights: WeightFamily | None = None,
                      probe_ells: Iterable[int] | None = None) -> Prediction:
    """Table first, then the quotient, then the refined tie-break.

    A conditional table verdict (the weight-dependent configuration)
    stays open, so the answer carries exact probe data: there the
    quotient ties and the refined path takes the branch analysis.
    """
    return _pipeline_columns(E, (n,), weights, probe_ells)[n]


def _pipeline_columns(E: ExceptionSet, ns: Iterable[int], weights: WeightFamily | None,
                      probe_ells: Iterable[int] | None = None) -> dict[int, Prediction]:
    """classify_pipeline at each n; the open columns read the shared max-product table of E."""
    if probe_ells is not None:
        probe_ells = tuple(probe_ells)
    out = {n: theorem_table(E, n) for n in ns}
    open_ns = [n for n, p in out.items() if p.verdict in (UNKNOWN, CONDITIONAL)]
    if open_ns:
        maxprod = shared_table(E, max(open_ns) + 1 + _GROWTH_GUARD)
        for n in open_ns:
            basic = _basic(maxprod, n)
            tied = basic.verdict == UNKNOWN and n >= 2
            out[n] = _refined(E, maxprod, n, weights, probe_ells) if tied else basic
    return out
