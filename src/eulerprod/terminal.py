"""Certified terminal signs of sweep columns.

A column n of a sign grid is certified for one parity of ell once its
sign is proven for every larger ell of that parity.  Two arguments give
certificates.

Sparse support, for any weights: p'(n) = p(n) - p(n-1) counts the
weighted partitions of n with no part 1, so it is 0 exactly when n is
not a sum of allowed parts >= 2, and
Delta(n) = p(n) (p'(n) - p'(n+1)) + p'(n) p'(n+1).  When p'(n) or
p'(n+1) is 0 the sign is rep(n) - rep(n+1) at every ell, with rep(k)
whether k is such a sum.

Top terms: every allowed part m >= 2 has exponent ell + c_m, with c_m
fixed for each parity of ell (WeightFamily.offsets).  Expanding each
factor with C(f+k-1, k) = sum_i c(k, i) f^i / k!, c the unsigned
Stirling numbers, gives p_ell(n) = sum_B c_B B^ell with every c_B >= 0
and ell-free for one parity.  The top base is M(n), the largest part
product over the partitions of n, and its coefficient is the sum over
the maximizers of prod_{m >= 2} m^(c_m k_m) / k_m!, from the max-product
table's weighted column.  Let T = max(M(n)^2, M(n-1) M(n+1)) be the top
base of Delta(n), and a T^ell and b T^ell the T-parts of p(n)^2 and
p(n-1) p(n+1).  If a > b and, at some row ell1, a T^ell1 > p(n-1) p(n+1),
then Delta(n) > 0 at ell1 and at every later ell of that parity:
p(n)^2 >= a T^ell, while p(n-1) p(n+1) / T^ell never grows along one
parity, since every base it has is <= T.  If b > a, then
b T^ell1 > p(n)^2 gives Delta(n) < 0 in the same way.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf, perm
from operator import mul

from .maxprod import MaxProdTable, _square_against_neighbours
from .model import ExceptionSet, WeightFamily, support_view
from .qseries import _interval

# row ell computes the columns that no certificate proven at a row <= ell - ROW_LAG covers, and
# a pool keeps at most ROW_LAG rows in flight, so serial and pooled sweeps compute the same prefixes
ROW_LAG = 8
# a lower bound on a top term is the floor of its value to this many bits
_BITS = 64


def representable(E: ExceptionSet, N: int) -> list[bool]:
    """rep[k] for k = 0..N: whether k is a sum of allowed parts >= 2 (0 is the empty sum)."""
    parts = support_view(E, N)[1:] if N >= 1 else ()
    rep = [True] + [False] * N
    for k in range(2, N + 1):
        rep[k] = any(rep[k - m] for m in parts if m <= k)
    return rep


def _top_column(table: MaxProdTable, weights: dict[int, int]) -> tuple[tuple[int, ...], list[int]]:
    """(K, X) with X[r] / K[r]! the sum over the maximizers of r of prod_{m >= 2} weights[m]^k_m / k_m!.

    Part 1 at weight 0 leaves the maximizers without a 1.  One with a 1 is a
    maximizer of r - 1 plus a 1, where best[r - 1] == best[r] (so K[r] > K[r - 1]),
    and part 1 weighs 1 at any multiplicity.
    """
    M = table.best
    K, Y = table._weighted_column({1: 0} | weights)
    X = [1]
    for r in range(1, len(M)):
        X.append(Y[r] + (X[r - 1] * perm(K[r], K[r] - K[r - 1]) if M[r - 1] == M[r] else 0))
    return K, X


def _exceeds(a: int, ea: int, b: int, eb: int) -> bool:
    """a * 2^ea > b * 2^eb for a, b >= 1."""
    da, db = a.bit_length() + ea, b.bit_length() + eb
    if da != db:
        return da > db
    return a << ea - eb > b if ea >= eb else a > b << eb - ea


class ColumnCertificates:
    """Certified signs of the columns 1..n_max of one sweep, per parity of ell.

    Sparse-support certificates hold from row 1.  Top-term certificates
    come from the rows record() is given; the top coefficients are built
    at the first such row.  A certificate proven at row ell1 leaves
    its column out of the computed prefix from row ell1 + ROW_LAG on.
    """

    def __init__(self, E: ExceptionSet, w: WeightFamily, n_max: int) -> None:
        self.E, self.w, self.n_max = E, w, n_max
        self.parts = support_view(E, n_max + 1)
        rep = representable(E, n_max + 1)
        # proven[parity][n] = (first row whose prefix leaves n out, sign); parity = ell % 2
        self.proven: tuple[dict[int, tuple[int, int]], ...] = ({}, {})
        for n in range(1, n_max + 1):
            if not (rep[n] and rep[n + 1]):
                for proven in self.proven:
                    proven[n] = (1, rep[n] - rep[n + 1])
        # tops[parity][n] = [sign of a - b, T, ell, lower bound m * 2^e of max(a, b) T^ell at that ell]
        self._tops: tuple[dict[int, list[int]], ...] | None = None
        # the least row of each parity known to compute nothing; every later row of it computes nothing too
        self._closed_from = [inf, inf]
        # _tails[parity][n_hi] = the certified signs of the columns n_hi + 1..n_max.  No proven entry
        # is ever rewritten, so a tail, once every column in it is proven, never changes
        self._tails: tuple[dict[int, tuple[int, ...]], ...] = ({}, {})

    def width(self, ell: int) -> int:
        """The largest column row ell must compute (0 if none)."""
        parity = ell % 2
        if ell >= self._closed_from[parity]:
            return 0
        proven = self.proven[parity]
        for n in range(self.n_max, 0, -1):
            certified = proven.get(n)
            if certified is None or certified[0] > ell:
                return n
        self._closed_from[parity] = ell
        return 0

    def _build_tops(self) -> tuple[dict[int, list[int]], ...]:
        table = MaxProdTable(self.E, self.n_max + 1)
        M = table.best
        leads = [s for s in table.leads if s >= 2]
        tops: tuple[dict[int, list[int]], ...] = ({}, {})
        for parity, parity_tops in enumerate(tops):
            offsets = {s: self.w.offsets(s)[parity] for s in leads}
            # weights m^(c_m + shift) with every exponent >= 0; the T-parts pick up T^-shift
            shift = max([0] + [-offsets[s] for s in leads])
            K, X = _top_column(table, {s: s ** (offsets[s] + shift) for s in leads})
            facts = list(accumulate(range(1, max(K) + 1), mul, initial=1))
            for n in range(1, self.n_max + 1):
                square, neighbours = M[n] ** 2, M[n - 1] * M[n + 1]
                T = max(square, neighbours)
                # a side whose base is below T has no T-part; on a tie the two coefficients decide
                a, b = _square_against_neighbours(K, X, n) if square == neighbours else (square, neighbours)
                if a == b:
                    continue
                # num / den: the larger side's T^ell coefficient at every ell of this parity, over T^shift.
                # The quotient has _BITS bits or more, so m * 2^e is the floor of num / den to _BITS bits
                i, j = (n, n) if a > b else (n - 1, n + 1)
                num, den = X[i] * X[j], facts[K[i]] * facts[K[j]] * T ** shift
                q = _BITS + max(den.bit_length() - num.bit_length(), 0)
                m, _, e = _interval((num << q) // den, _BITS)
                parity_tops[n] = [1 if a > b else -1, T, 0, m, e - q]
        return tops

    def record(self, ell: int, prefix: tuple[int, ...], bounds: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
        """The full row ell from its computed prefix of signs and the upper bounds (hi, e) on p(0..len(prefix) + 1).

        Columns past the prefix take their certified signs, a tuple built once
        per parity and prefix length and shared by every such row; a row with
        an empty prefix is that tuple itself.  In one pass over the prefix, a
        column without a certificate for ell's parity checks its larger side's
        top term against the other side, and a computed sign that contradicts
        a certificate, one proven at this row included, raises ArithmeticError.
        """
        parity = ell % 2
        proven = self.proven[parity]
        n_hi = len(prefix)
        if n_hi and self._tops is None:
            self._tops = self._build_tops()
        for n, sign in enumerate(prefix, 1):
            certified = proven.get(n)
            top = self._tops[parity].get(n) if certified is None else None
            if top is not None:
                top_sign, T, j, m, e = top
                m, _, s = _interval(m * T ** (ell - j), _BITS)
                top[2:] = ell, m, e + s
                # the larger side's top term against the upper bound on the other side alone
                (u0, e0), (u1, e1), (u2, e2) = bounds[n - 1:n + 2]
                other, e_other = (u0 * u2, e0 + e2) if top_sign > 0 else (u1 * u1, 2 * e1)
                if _exceeds(m, e + s, other, e_other):
                    certified = proven[n] = (ell + ROW_LAG, top_sign)
            if certified is not None and certified[1] != sign:
                raise ArithmeticError(
                    f"column {n} is certified {certified[1]:+d} but computes {sign:+d} at ell={ell}: "
                    "the certificate is proven, so this is a bug")
        tail = self._tails[parity].get(n_hi)
        if tail is None:
            tail = self._tails[parity][n_hi] = tuple(proven[n][1] for n in range(n_hi + 1, self.n_max + 1))
        return prefix + tail if prefix else tail
