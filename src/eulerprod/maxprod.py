"""Maximal part products over partitions with restricted parts.

For an allowed-part set S and a target n, the key quantity is the
largest product of parts over all partitions of n into parts from S,
together with every partition attaining it, the runner-up product, and
the composition-count coefficient that weights the maximizers in
coefficient asymptotics.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, perm

from .model import ExceptionSet, member, next_allowed, support_view

BRUTE_FORCE_BOUND = 30


@dataclass(frozen=True)
class PartitionMultiset:
    """A partition stored as a non-increasing tuple of parts."""

    parts: tuple[int, ...]

    @staticmethod
    def of(parts) -> "PartitionMultiset":
        return PartitionMultiset(tuple(sorted(parts, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def product(self) -> int:
        out = 1
        for p in self.parts:
            out *= p
        return out

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def ordering_coefficient(self) -> Fraction:
        """Distinct orderings of the parts divided by part_count factorial."""
        denom = 1
        for count in self.multiplicities().values():
            denom *= factorial(count)
        return Fraction(1, denom)


@dataclass(frozen=True)
class MaxProdReport:
    """Everything known about the maximal product at one target n.

    second_product is None when no strictly smaller product exists; the
    closed-form constructors also leave it None because the case
    analysis they implement does not derive runner-up products.
    """

    n: int
    product: int
    maximizers: tuple[PartitionMultiset, ...]
    unique: bool
    coefficient: Fraction
    second_product: int | None


def _canonical(parts_list) -> tuple[PartitionMultiset, ...]:
    return tuple(PartitionMultiset(p) for p in sorted({tuple(sorted(p, reverse=True)) for p in parts_list}))


def _coefficient(maximizers: tuple[PartitionMultiset, ...]) -> Fraction:
    """Sum of the maximizers' ordering coefficients: the A(n) of coefficient asymptotics."""
    return sum((m.ordering_coefficient() for m in maximizers), Fraction(0))


def _assemble(n: int, product: int, parts_list: list[tuple[int, ...]],
              second: int | None) -> MaxProdReport:
    maximizers = _canonical(parts_list)
    return MaxProdReport(n, product, maximizers, len(maximizers) == 1, _coefficient(maximizers), second)


def _unchained(chain: tuple | None) -> tuple[int, ...]:
    """The parts of a (last part, earlier chain) chain, first part first."""
    parts = []
    while chain is not None:
        s, chain = chain
        parts.append(s)
    return tuple(reversed(parts))


@dataclass(frozen=True, init=False)
class MaxProdTable:
    """Maximal products for every target 0..n_max, from the parts that can lead a maximizer.

    Call an allowed part s dominated when some partition of s into at
    least two allowed parts has product >= s.  Replacing a dominated part
    in a maximizer by that partition never lowers the product and strictly
    lowers the sum of squared parts, so the descent ends in a maximizer
    whose parts are all undominated: best[r] is the largest t * best[r - t]
    over undominated t <= r.  One pass over r finds c(r), that maximum over
    undominated t < r (the best product of r in two or more parts); r in S
    is undominated exactly when r > c(r), and then best[r] = r.  A part
    with c(s) > s never occurs in a maximizer, since
    s * best[r - s] < best[s] * best[r - s] <= best[r]; the parts with
    c(s) <= s are the leads.  The runner-up products come from the
    all-parts recurrence, built the first time report() needs them; the
    coefficients A(n), scaled to integers, from the lead recurrence,
    built the first time report() or the refined criterion needs them.

    The table is prefix-stable: best, leads, flat_steps and maximizers(m)
    for m up to n_max are the same in any table of E with a larger
    horizon, which is what lets shared_table() regrow a table in place of
    the old one.
    maximizers(n) remembers each answer it gives; see that method.
    """

    parts: tuple[int, ...]
    leads: tuple[int, ...]
    best: tuple[int, ...]

    def __init__(self, E: ExceptionSet, n_max: int) -> None:
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        parts = support_view(E, n_max) if n_max >= 1 else ()
        allowed = set(parts)
        best, undominated, leads = [1], [], []
        for r in range(1, n_max + 1):
            c = max((t * best[r - t] for t in undominated), default=0)
            if r in allowed and c <= r:
                leads.append(r)
                if c < r:
                    undominated.append(r)
            best.append(max(c, r) if r in allowed else c)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "leads", tuple(leads))
        object.__setattr__(self, "best", tuple(best))
        object.__setattr__(self, "_known", {})

    @property
    def n_max(self) -> int:
        """The largest target in the table."""
        return len(self.best) - 1

    @cached_property
    def second(self) -> tuple[int | None, ...]:
        """Runner-up product (None if absent) for every target, over all allowed parts.

        For a first part s the best product below best[r] is s * best[r - s],
        or s * second[r - s] when that ties best[r]; 0 marks no runner-up.
        """
        best, second = self.best, [0]
        for r in range(1, len(best)):
            runner_up = 0
            for s in self.parts[:bisect_right(self.parts, r)]:
                v = s * best[r - s]
                runner_up = max(runner_up, v if v < best[r] else s * second[r - s])
            second.append(runner_up)
        return tuple(v or None for v in second)

    @cached_property
    def flat_steps(self) -> tuple[int, ...]:
        """For every target r, the number of m in 2..r with best[m] <= best[m - 1], so
        best grows strictly over lo..hi (lo >= 2) exactly when flat_steps[hi] == flat_steps[lo - 1]."""
        best, flat = self.best, [0] * min(2, len(self.best))
        for m in range(2, len(best)):
            flat.append(flat[-1] + (best[m] <= best[m - 1]))
        return tuple(flat)

    @cached_property
    def firsts(self) -> tuple[tuple[int, ...], ...]:
        """For every target r, the leads s with s * best[r - s] == best[r], ascending:
        the parts that start a maximizer of r."""
        best = self.best
        return tuple(tuple(s for s in self.leads[:bisect_right(self.leads, r)] if s * best[r - s] == best[r])
                     for r in range(len(best)))

    @cached_property
    def _coefficient_column(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(K, C): K[r], the most parts in a maximizer of r, and C[r] = K[r]! A(r).

        Every part of a maximizer is a lead, and a maximizer of r minus one
        part s is a maximizer of r - s, where s * best[r - s] == best[r].
        Since r = sum_s s k_s and k_s / k_s! = 1 / (k_s - 1)!, removing one
        part s in every way gives r A(r) = sum s A(r - s) over s in firsts[r],
        part 1 included, with A(0) = 1 for the empty partition.  C[r] sums
        K[r]! / prod k_s! over the maximizers, an integer as sum k_s <= K[r];
        multiplying the recurrence by K[r]! makes every term an integer, so
        the division by r is exact and no row reduces a Fraction whose
        denominator is a factorial (A(4000) with 2, 4, 5 excluded has one
        of about 12k bits).
        """
        firsts, K, C = self.firsts, [0], [1]
        for r in range(1, len(firsts)):
            k = 1 + max(K[r - s] for s in firsts[r])
            C.append(sum(s * C[r - s] * perm(k, k - K[r - s]) for s in firsts[r]) // r)
            K.append(k)
        return tuple(K), tuple(C)

    def coefficient(self, n: int) -> Fraction:
        """A(n), the sum of the maximizers' ordering coefficients, from the lead recurrence."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in 0..{self.n_max}, got {n}")
        K, C = self._coefficient_column
        return Fraction(C[n], factorial(K[n]))

    def coefficient_ratio(self, n: int) -> Fraction:
        """A(n)^2 / (A(n-1) A(n+1)) as one Fraction of the integer column, for 1 <= n < n_max."""
        if not 1 <= n < self.n_max:
            raise ValueError(f"n must be in 1..{self.n_max - 1}, got {n}")
        K, C = self._coefficient_column
        return Fraction(C[n] * C[n] * factorial(K[n - 1]) * factorial(K[n + 1]),
                        C[n - 1] * C[n + 1] * factorial(K[n]) ** 2)

    def maximizers(self, n: int) -> tuple[PartitionMultiset, ...]:
        """Every partition of n attaining best[n], rebuilt from the leads.

        A lead s starts a maximizer of r (parts non-increasing) exactly when
        s * best[r - s] == best[r]; the rest is then a maximizer of r - s
        with parts <= s.  An explicit stack keeps chains such as 1^n off
        the call stack, and the parts taken so far are a chain of
        (part, earlier chain) links, so a step copies nothing and a walk
        costs O(parts) per maximizer rather than O(parts^2).  Each answer
        is remembered, and a walk that reaches a remembered target r takes
        its maximizers with largest part <= cap instead of walking on;
        targets nobody asked for are never filled in, since a fill over
        every r costs O(n^3) on chain maximizer sets.
        """
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in 0..{self.n_max}, got {n}")
        known = self._known
        if n not in known:
            firsts, hits, stack = self.firsts, [], [(n, n, None)]
            while stack:
                r, cap, chain = stack.pop()
                if r in known:
                    head = _unchained(chain)
                    hits.extend(head + m.parts for m in known[r] if not m.parts or m.parts[0] <= cap)
                elif r == 0:
                    hits.append(_unchained(chain))
                else:
                    stack.extend((r - s, s, (s, chain)) for s in firsts[r] if s <= cap)
            # each maximizer is reached once, with its parts already non-increasing
            known[n] = tuple(PartitionMultiset(p) for p in sorted(hits))
        return known[n]

    def report(self, n: int) -> MaxProdReport:
        """Full report at n: maximizers, their coefficient and the runner-up."""
        maximizers = self.maximizers(n)
        return MaxProdReport(n, self.best[n], maximizers, len(maximizers) == 1,
                             self.coefficient(n), self.second[n])


SHARED_TABLES = 8
_shared: dict[ExceptionSet, MaxProdTable] = {}


def shared_table(E: ExceptionSet, n_max: int) -> MaxProdTable:
    """A table of E reaching at least n_max, shared by every caller in the process.

    The tables of the SHARED_TABLES most recently used exception sets are
    kept.  The first build is at exactly n_max; a query beyond a kept
    table's horizon rebuilds it at max(n_max, twice the old horizon), so
    a column-by-column scan rebuilds O(log n) times.  Prefix stability
    makes every answer independent of which horizon the table has.
    """
    table = _shared.pop(E, None)
    if table is None:
        table = MaxProdTable(E, n_max)
    elif table.n_max < n_max:
        table = MaxProdTable(E, max(n_max, 2 * table.n_max))
    _shared[E] = table
    if len(_shared) > SHARED_TABLES:
        del _shared[next(iter(_shared))]
    return table


def max_product_values(E: ExceptionSet, n_max: int) -> tuple[int, ...]:
    """The maximal products for every target 0..n_max, values only."""
    return MaxProdTable(E, n_max).best


def max_product(E: ExceptionSet, n: int) -> MaxProdReport:
    """Full report at n via dynamic programming over remaining sum."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return MaxProdTable(E, n).report(n)


def max_product_bruteforce_all(E: ExceptionSet, n_max: int) -> tuple[MaxProdReport, ...]:
    """Reports for every target 0..n_max by one exhaustive walk; refuses large targets.

    Part 1 is always allowed and multiplies nothing, so the partitions of n
    are those of each t <= n into allowed parts >= 2, padded with n - t ones.
    Every non-increasing sequence of allowed parts >= 2 with sum at most
    n_max is a partition of its own sum, so the walk visits each of them
    once; one pass over n then carries the best product over t <= n, the
    best product below it and the partitions attaining it.
    """
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    if n_max > BRUTE_FORCE_BOUND:
        raise ValueError(f"brute force is capped at n <= {BRUTE_FORCE_BOUND}, got {n_max}")
    parts = support_view(E, n_max)[1:] if n_max >= 1 else ()
    # per sum t of parts >= 2: best product (0 if none), best product below it (0 if none), partitions attaining best
    best = [0] * (n_max + 1)
    second = [0] * (n_max + 1)
    hits: list[list[tuple[int, ...]]] = [[] for _ in range(n_max + 1)]
    stack = [(0, n_max, (), 1)]
    while stack:
        total, cap, acc, product = stack.pop()
        if product > best[total]:
            second[total], best[total] = best[total], product
            hits[total] = [acc]
        elif product == best[total]:
            hits[total].append(acc)
        elif product > second[total]:
            second[total] = product
        stack.extend((total + s, s, acc + (s,), product * s)
                     for s in parts[:bisect_right(parts, min(n_max - total, cap))])
    # over t <= n: the best product, the best below it (0 if none) and (t, partition) for each one attaining it
    reports, top, below, kept = [], 0, 0, []
    for n in range(n_max + 1):
        if best[n] > top:
            top, below, kept = best[n], top, []
        if best[n] == top:
            below = max(below, second[n])
            kept.extend((n, acc) for acc in hits[n])
        else:
            below = max(below, best[n])
        reports.append(_assemble(n, top, [acc + (1,) * (n - t) for t, acc in kept], below or None))
    return tuple(reports)


def max_product_bruteforce(E: ExceptionSet, n: int) -> MaxProdReport:
    """Same report as max_product by exhaustive enumeration; refuses large targets."""
    return max_product_bruteforce_all(E, n)[n]


def _listed(n: int, parts_list: list[tuple[int, ...]]) -> MaxProdReport:
    """Closed-form report at n whose maximizers are exactly parts_list."""
    return _assemble(n, PartitionMultiset.of(parts_list[0]).product, parts_list, None)


def _closed_form_smallest_part_2(E: ExceptionSet, n: int) -> MaxProdReport | None:
    """Case analysis when 2 is the smallest allowed part above 1."""
    a3 = next_allowed(E, 2)
    if a3 == 3:
        k, r = divmod(n, 3)
        if n == 1:
            return _listed(n, [(1,)])
        if r == 0:
            return _listed(n, [(3,) * k])
        if r == 2:
            return _listed(n, [(3,) * k + (2,)])
        # n >= 4 and n == 1 mod 3: a 4 in S ties (4, 3^k) with (3^k, 2, 2)
        blocks = (3,) * ((n - 4) // 3)
        if not member(E, 4):
            return _listed(n, [blocks + (2, 2), (4,) + blocks])
        return _listed(n, [blocks + (2, 2)])
    if a3 == 4:
        five = not member(E, 5)
        if five and n <= 3:
            return _listed(n, [(1,) if n == 1 else (2,) * (n // 2) + (1,) * (n % 2)])
        r = n % 4
        if r in (0, 2):
            # swap (2,2) <-> (4) freely: one chain of maximizers
            chain = [(4,) * t + (2,) * ((n - 4 * t) // 2) for t in range(n // 4 + 1) if (n - 4 * t) % 2 == 0]
            return _listed(n, chain)
        if five:
            lead = n - 5
            chain = [(5,) + (4,) * t + (2,) * ((lead - 4 * t) // 2) for t in range((lead // 4) + 1) if (lead - 4 * t) % 2 == 0]
            return _listed(n, chain)
        lead = n - 1
        chain = [(4,) * t + (2,) * ((lead - 4 * t) // 2) + (1,) for t in range((lead // 4) + 1) if (lead - 4 * t) % 2 == 0]
        return _listed(n, chain)
    if a3 == 5:
        if n == 1:
            return _listed(n, [(1,)])
        if n == 3:
            return _listed(n, [(2, 1)])
        if n % 2 == 0:
            return _listed(n, [(2,) * (n // 2)])
        return _listed(n, [(5,) + (2,) * ((n - 5) // 2)])
    # nothing between 2 and 6 helps: twos and at most one 1
    return _listed(n, [(2,) * (n // 2) + (1,) * (n % 2)])


def closed_form_max(E: ExceptionSet, n: int) -> MaxProdReport | None:
    """Closed-form maximal product when the smallest allowed parts match a known case.

    Covered, with a2 the least allowed part above 1: a2 = 2 with its
    subcases keyed on the next allowed part; a2 >= 3 with the next at
    least 2*a2 (blocks of a2 plus ones); and consecutive a2, a2+1 with
    a2 >= 3 once n reaches a2(a2-1)(3a2-1)/2.  Returns None when no case
    applies.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a2 = next_allowed(E, 1)
    if a2 is None:
        return None
    if a2 == 2:
        return _closed_form_smallest_part_2(E, n)
    a3 = next_allowed(E, a2)
    if a3 is None or a3 >= 2 * a2:
        count, rem = divmod(n, a2)
        return _listed(n, [(a2,) * count + (1,) * rem])
    if a3 == a2 + 1 and n >= a2 * (a2 - 1) * (3 * a2 - 1) // 2:
        i = n % a2
        return _listed(n, [(a3,) * i + (a2,) * ((n - i * a3) // a2)])
    return None
