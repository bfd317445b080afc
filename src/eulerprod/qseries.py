"""Exact coefficient tables for restricted Euler products.

Two independent paths produce the coefficients p(0..N) of
prod_{m in S} (1 - q^m)^(-f_ell(m)): a divisor-sum recurrence and a
truncated product of negative-binomial series.  They must agree
exactly; the recurrence is the workhorse, the product the oracle.
For sign grids, row_signs tables g once per row and reads the row's
size from it: a large row runs the same recurrence on fixed-width
integer intervals, narrow first and wider while a cell stays undecided,
which certifies each sign; a small row, or one no width decides, runs
the exact recurrence on the same g.  All arithmetic is integer
arithmetic, no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from math import factorial
from operator import add, ge
from typing import Iterator, Sequence

from .model import ExceptionSet, WeightFamily, member, support_view


@dataclass(frozen=True)
class GTable:
    """Divisor-weighted sums g(n) = sum of d * f_ell(d) over allowed d | n."""

    exceptions: ExceptionSet
    weights: WeightFamily
    ell: int
    values: tuple[int, ...]  # values[n] is g(n); slot 0 is a placeholder

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.horizon:
            raise IndexError(f"g is tabulated for 1..{self.horizon}, got {n}")
        return self.values[n]


@dataclass(frozen=True)
class PartitionTable:
    """Exact coefficients p(0..horizon) for one (exceptions, weights, ell)."""

    exceptions: ExceptionSet
    weights: WeightFamily
    ell: int
    coeffs: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.horizon:
            raise IndexError(f"coefficients run 0..{self.horizon}, got {n}")
        return self.coeffs[n]


@dataclass(frozen=True)
class DeltaValue:
    """The difference p(n)^2 - p(n-1) p(n+1) and its sign."""

    n: int
    value: int
    sign: int


def g_table(E: ExceptionSet, w: WeightFamily, ell: int, N: int) -> GTable:
    """Tabulate g(1..N) by accumulating each allowed d into its multiples."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    values = [0] * (N + 1)
    for d in support_view(E, N):
        contribution = d * w.eval(ell, d)
        for m in range(d, N + 1, d):
            values[m] += contribution
    return GTable(E, w, ell, tuple(values))


def _recurrence(g: Sequence[int]) -> list[int]:
    """p(0..N) from g(1..N) (slot 0 a placeholder, as in GTable.values) by n p(n) = sum_k g(k) p(n-k)."""
    coeffs = [1]
    for n in range(1, len(g)):
        acc = 0
        for k in range(1, n + 1):
            acc += g[k] * coeffs[n - k]
        q, r = divmod(acc, n)
        if r:
            raise ArithmeticError(
                f"inexact division at n={n}: the log-derivative identity guarantees divisibility, so this is a bug")
        coeffs.append(q)
    return coeffs


def coeffs_by_recurrence(E: ExceptionSet, w: WeightFamily, ell: int, N: int) -> PartitionTable:
    """Coefficients via n p(n) = sum_k g(k) p(n-k); division always exact."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    g = g_table(E, w, ell, N).values if N >= 1 else (0,)
    return PartitionTable(E, w, ell, tuple(_recurrence(g)))


# mantissa widths of the interval rungs row_signs tries in turn, each twice the last;
# a row still undecided at the top one goes to the exact recurrence.  The first is the
# narrowest that decides every bounded row of the 2,4 50x400 and 3/example2 200x100
# sweeps and of the theorems and figure1 suites: at 22 bits 1 of the 94 bounded
# 3/example2 rows fails, at 20 bits 6, at 16 bits 22.  A 24-bit rung forms shorter
# products and sums a narrower window of terms, so its rows took 25-35% less time than
# at 96 bits on those sweeps.
LADDER_BITS = (24, 48, 96)
# a row's size is N = n_max + 1 times the bit length of its largest g(k), read from the
# table row_signs already holds; smaller rows are faster on the exact recurrence.  Timing
# both routes on one g (best of 15 single rows, alternating), bounded overtook exact
# between 11.3k and 11.6k on 51-wide 2,4/power rows, 10.9k and 12.5k on 201-wide
# 3/example2 rows, 12.0k and 12.2k on 37-wide 4/power rows and near 12.3k on 41-wide
# 3/power rows
BOUNDED_MIN_SIZE = 12_000


def _interval(x: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= x <= hi * 2^e and hi <= 2^bits; (x, x, 0) when x fits."""
    e = x.bit_length() - bits
    if e <= 0:
        return x, x, 0
    return x >> e, ((x - 1) >> e) + 1, e


def _interval_sign(a: tuple[int, int, int], b: tuple[int, int, int], c: tuple[int, int, int]) -> int | None:
    """Certified sign of b^2 - a c for intervals (lo, hi, e), or None when they cannot decide it."""
    (lo0, hi0, e0), (lo1, hi1, e1), (lo2, hi2, e2) = a, b, c
    t = 2 * e1 - e0 - e2
    sq_lo, sq_hi = lo1 * lo1, hi1 * hi1
    pr_lo, pr_hi = lo0 * lo2, hi0 * hi2
    if t > 0:
        sq_lo, sq_hi = sq_lo << t, sq_hi << t
    elif t < 0:
        pr_lo, pr_hi = pr_lo << -t, pr_hi << -t
    if sq_lo > pr_hi:
        return 1
    if sq_hi < pr_lo:
        return -1
    if sq_lo == sq_hi == pr_lo == pr_hi:  # lo == hi for a, b and c: all three are exact
        return 0
    return None


def _bounded_coeffs(g: Sequence[int], bits: int) -> Iterator[tuple[int, int, int]]:
    """Yield (lo, hi, e) with lo * 2^e <= p(n) <= hi * 2^e and hi <= 2^bits for n = 0..N.

    g holds g(1..N) after a placeholder in slot 0, as GTable.values does;
    the bounds hold for any non-negative g.  The recurrence of
    coeffs_by_recurrence on intervals: every term is positive, so each
    product, alignment shift and division by n rounds down for lo and up
    for hi.  A value stays exact (lo == hi, e = 0) while it and every
    g(k) and p(j) it is computed from fit the width.

    Term k = g(k) p(n-k) sits at exponent g_e(k) + p_e(n-k), and only the
    terms within 2 * bits of the top one are summed.  Only a prefix
    k <= L is formed.  With g_tail[L] the largest g_e(k) over k > L and
    p_top[j] the largest p_e over 0..j, every tail term has exponent at
    most g_tail[L] + p_top[n-L-1], since n - k <= n - L - 1.  While that
    bound reaches the prefix's window, L doubles (up to n); once it falls
    below, no tail term is the top one or inside the window, so the top,
    the kept terms and (lo, hi, e) are exactly those of a scan over
    every k.  L carries over to the next n.
    """
    window = 2 * bits
    g_lo, g_hi, g_e = zip(*(_interval(x, bits) for x in g[1:]))
    g_m = list(zip(g_lo, g_hi))
    # g_e[k-1] is the exponent of g(k), so g_tail[L] = max(g_e[L:]) is the largest one over k > L
    g_tail = list(accumulate(reversed(g_e), max))[::-1]
    p_m, p_e, p_top = [(1, 1)], [0], [0]
    yield 1, 1, 0
    L = 1
    for n in range(1, len(g)):
        while True:
            # term k is g(k) p(n-k) at exponent exps[k-1]; aligning all terms to the largest
            # exponent makes every shift go right
            exps = list(map(add, islice(g_e, L), reversed(p_e)))
            top = max(exps)
            if L >= n or g_tail[L] + p_top[n - L - 1] < top - window:
                break
            L = min(2 * L, n)
        # mantissas are at most 2^bits, so a term shifted further than twice that
        # adds 0 to lo and exactly 1 to hi, which the n ones below already count
        near = map(ge, exps, repeat(top - window))
        lo = hi = 0
        for (a_lo, a_hi), (b_lo, b_hi), x in compress(zip(g_m, reversed(p_m), exps), near):
            s = top - x
            lo += a_lo * b_lo >> s
            hi += a_hi * b_hi - 1 >> s  # ceil(y / 2^s) - 1 for y >= 1
        lo //= n
        hi = -(-(hi + n) // n)
        # renormalize hi to the full width: right shifts round outward, left shifts are exact
        s = max(hi.bit_length() - bits, -top)
        if s > 0:
            lo, hi = lo >> s, ((hi - 1) >> s) + 1
        elif s < 0:
            lo, hi = lo << -s, hi << -s
        p_m.append((lo, hi))
        p_e.append(top + s)
        p_top.append(max(p_top[-1], top + s))
        yield lo, hi, top + s


def _rung_signs(g: Sequence[int], bits: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]] | None:
    """(signs, bounds) from bits-wide intervals, or None: the certified signs of p(n)^2 - p(n-1) p(n+1)
    for n = 1..N-1, and (hi, e) with p(n) <= hi * 2^e for n = 0..N.

    g is as for _bounded_coeffs.  A cell is +1 when lo(p_n)^2 > hi(p_n-1) hi(p_n+1), -1 when
    hi(p_n)^2 < lo(p_n-1) lo(p_n+1), and 0 only when all three values are
    exact and the two sides equal.  The first undecided cell ends the run.
    """
    signs, bounds = [], []
    a = b = None
    for c in _bounded_coeffs(g, bits):
        if a is not None:
            sign = _interval_sign(a, b, c)
            if sign is None:
                return None
            signs.append(sign)
        bounds.append(c[1:])
        a, b = b, c
    return tuple(signs), tuple(bounds)


def row_signs(E: ExceptionSet, w: WeightFamily, ell: int,
              n_max: int) -> tuple[int | None, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(bits, signs, bounds): the signs of p(n)^2 - p(n-1) p(n+1) for n = 1..n_max, all exact,
    and (hi, e) with p(n) <= hi * 2^e for n = 0..n_max + 1.

    g(1..n_max + 1) is tabulated once.  When the row's size, N = n_max + 1
    times the bit length of its largest g(k), is at least BOUNDED_MIN_SIZE,
    the row runs on intervals of each width of LADDER_BITS in turn until one
    certifies every cell; bits is that width, and the bounds are its
    intervals' upper ends.  A smaller row, or one no width decides, takes
    the exact recurrence on the same g; bits is None, and each bound is the
    exact value rounded up to LADDER_BITS[0] bits.  The sign at n depends
    only on p(n-1..n+1), so the signs of a narrower row are a prefix of
    those of a wider one on either route.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    g = g_table(E, w, ell, n_max + 1).values
    if (n_max + 1) * max(g).bit_length() >= BOUNDED_MIN_SIZE:
        for bits in LADDER_BITS:
            row = _rung_signs(g, bits)
            if row is not None:
                return bits, *row
    p = _recurrence(g)
    signs = tuple((d > 0) - (d < 0) for d in (b * b - a * c for a, b, c in zip(p, p[1:], p[2:])))
    return None, signs, tuple(_interval(x, LADDER_BITS[0])[1:] for x in p)


def coeffs_by_product(E: ExceptionSet, w: WeightFamily, ell: int, N: int) -> PartitionTable:
    """Coefficients by multiplying out the truncated factor series.

    Each allowed part m >= 2 contributes sum_j C(f+j-1, j) q^(m j) with
    f = f_ell(m); the binomials are built incrementally so no factorial
    ever appears.  The factors are multiplied largest part first, so the
    early products are sparse and their zero coefficients are skipped.
    Part 1 comes last: f_ell(1) = 1, so its series is all ones and
    multiplying by it takes running sums.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    if N >= 1:
        for m in reversed(support_view(E, N)[1:]):
            f = w.eval(ell, m)
            series = [1]
            c = 1
            for j in range(1, N // m + 1):
                c = c * (f + j - 1) // j
                series.append(c)
            out = [0] * (N + 1)
            for j, cj in enumerate(series):
                shift = m * j
                for i in range(N + 1 - shift):
                    if coeffs[i]:
                        out[i + shift] += coeffs[i] * cj
            coeffs = out
    return PartitionTable(E, w, ell, tuple(accumulate(coeffs)))


def delta(t: PartitionTable, n: int) -> DeltaValue:
    """Log-concavity difference at n; needs 1 <= n <= horizon - 1."""
    if not 1 <= n <= t.horizon - 1:
        raise ValueError(f"delta needs 1 <= n <= {t.horizon - 1}, got {n}")
    value = t.coeffs[n] * t.coeffs[n] - t.coeffs[n - 1] * t.coeffs[n + 1]
    return DeltaValue(n, value, (value > 0) - (value < 0))


def check_bounds(t: PartitionTable, n: int, maxprod_M: int, parts_count_k: int) -> bool:
    """Exact two-sided coefficient bound at n from maximal-product data.

    Checks M^phi / k! <= p(n) <= p_1(n) * M^psi, with the left side
    compared as k! * p(n) >= M^phi so everything stays in integers.
    """
    if not 0 <= n <= t.horizon:
        raise ValueError(f"n must lie in 0..{t.horizon}, got {n}")
    phi = t.weights.phi(t.ell)
    psi = t.weights.psi(t.ell)
    if phi < 0 or psi < 0:
        raise ValueError("the exact check needs non-negative integer envelope exponents")
    base = coeffs_by_recurrence(t.exceptions, t.weights, 1, n)
    lower_ok = factorial(parts_count_k) * t.coeffs[n] >= maxprod_M ** phi
    upper_ok = t.coeffs[n] <= base.coeffs[n] * maxprod_M ** psi
    return lower_ok and upper_ok


def check_g_bounds(gt: GTable) -> list[int]:
    """The n in 1..horizon, ascending, where the exact envelope (n_S)^(phi+1) <= g(n) <= sigma(n) * (n_S)^psi
    fails; n_S is the largest allowed divisor of n and sigma(n) the sum of the allowed divisors, both
    from one sieve over d = 1..horizon.  The sieve asks member, not support_view, which g_table sums
    over, so the check stays independent of the table it checks."""
    N = gt.horizon
    largest, sigma = [0] * (N + 1), [0] * (N + 1)
    for d in range(1, N + 1):
        if not member(gt.exceptions, d):
            for m in range(d, N + 1, d):
                largest[m] = d  # d ascends, so the last one written is the largest
                sigma[m] += d
    phi, psi = gt.weights.phi(gt.ell), gt.weights.psi(gt.ell)
    return [n for n in range(1, N + 1)
            if not largest[n] ** (phi + 1) <= gt.values[n] <= sigma[n] * largest[n] ** psi]
