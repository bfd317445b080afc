import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerprod import MaxProdTable, exceptions_from_spec, row_signs, sweep, weight_from_spec
from eulerprod import terminal
from eulerprod.terminal import ROW_LAG, ColumnCertificates, _exceeds, _top_column, representable
from test_maxprod import exception_specs
from test_qseries import WEIGHT_SPECS

POWER = weight_from_spec("power")
S13 = exceptions_from_spec("support:1,3")


def maximizer_sum(table, n, weights):
    """sum over the maximizers of n of prod_{m >= 2} weights[m]^k_m / k_m!, by enumeration."""
    total = Fraction(0)
    for partition in table.maximizers(n):
        term = Fraction(1)
        for m, k in partition.multiplicities().items():
            if m >= 2:
                term *= Fraction(weights.get(m, 1) ** k, factorial(k))
        total += term
    return total


def proving_rows(E, w, n_max, ell_max):
    """{(parity, n): the row whose top term proved column n}, from the prefixes a serial sweep computes."""
    columns = ColumnCertificates(E, w, n_max)
    for ell in range(1, ell_max + 1):
        n_hi = columns.width(ell)
        if n_hi:
            _, prefix, bounds = row_signs(E, w, ell, n_hi)
            columns.record(ell, prefix, bounds)
    return {(parity, n): since - ROW_LAG for parity, proven in enumerate(columns.proven)
            for n, (since, _) in proven.items() if since > 1}


def two_sided_rows(E, w, n_max, ell_max):
    """{(parity, n): the first row where 2 max(a, b) T^ell > p(n)^2 + p(n-1) p(n+1)}, read from full rows.

    The reference inequality: the larger top term, doubled, against the upper bounds on both
    sides.  It holds only where the one-sided test of ColumnCertificates.record holds too.
    """
    columns = ColumnCertificates(E, w, n_max)
    tops = columns._build_tops()
    found = {}
    for ell in range(1, ell_max + 1):
        parity = ell % 2
        open_columns = [n for n in tops[parity] if n not in columns.proven[parity] and (parity, n) not in found]
        if not open_columns:
            continue
        _, _, bounds = row_signs(E, w, ell, max(open_columns))
        for n in open_columns:
            _, T, _, m, e = tops[parity][n]
            (u0, e0), (u1, e1), (u2, e2) = bounds[n - 1:n + 2]
            base = min(2 * e1, e0 + e2)
            rest = (u1 * u1 << 2 * e1 - base) + (u0 * u2 << e0 + e2 - base)
            if _exceeds(m * T ** ell, e + 1, rest, base):
                found[parity, n] = ell
    return found


class TestTopCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(exception_specs(), st.integers(0, 36), st.dictionaries(st.integers(2, 36), st.integers(1, 40)))
    # 1, 2, 3 and 4 all lead, and the tie at 8 (3+3+2 against 3+4 and 3+2+2 around it) is exact
    @example(espec="none", N=12, weights={})
    @example(espec="3", N=36, weights={2: 8, 4: 2})
    def test_recurrence_equals_the_maximizers(self, espec, N, weights):
        table = MaxProdTable(exceptions_from_spec(espec), N)
        K, X = _top_column(table, weights)
        assert len(K) == len(X) == N + 1
        for n in range(N + 1):
            assert Fraction(X[n], factorial(K[n])) == maximizer_sum(table, n, weights), (espec, n)


class TestTopBounds:
    @settings(max_examples=40, deadline=None)
    @given(exception_specs(), WEIGHT_SPECS, st.integers(1, 40))
    @example(espec="none", wspec="power", n_max=40)
    @example(espec="3", wspec="example2", n_max=40)
    def test_each_bound_is_the_64_bit_floor_of_its_coefficient(self, espec, wspec, n_max):
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        table = MaxProdTable(E, n_max + 1)
        M = table.best
        for parity, tops in enumerate(ColumnCertificates(E, w, n_max)._build_tops()):
            # D(k): the sum over the maximizers of k of prod_{m >= 2} (m^c_m)^k_m / k_m!
            weights = {m: Fraction(m) ** w.offsets(m)[parity] for m in range(2, n_max + 2)}
            D = [maximizer_sum(table, k, weights) for k in range(n_max + 2)]
            for n in range(1, n_max + 1):
                square, neighbours = M[n] ** 2, M[n - 1] * M[n + 1]
                a, b = (D[n] ** 2, D[n - 1] * D[n + 1]) if square == neighbours else (square, neighbours)
                if a == b:
                    assert n not in tops, (espec, wspec, parity, n)
                    continue
                sign, T, ell, m, e = tops[n]
                i, j = (n, n) if a > b else (n - 1, n + 1)
                assert (sign, T, ell) == (1 if a > b else -1, max(square, neighbours), 0)
                assert m.bit_length() == 64, (espec, wspec, parity, n)
                assert m * Fraction(2) ** e <= D[i] * D[j] < (m + 1) * Fraction(2) ** e

    @settings(max_examples=25, deadline=None)
    @given(exception_specs(), WEIGHT_SPECS, st.integers(1, 30))
    def test_a_longer_table_stores_the_same_bounds(self, espec, wspec, n_max):
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        tops = ColumnCertificates(E, w, n_max)._build_tops()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(terminal, "MaxProdTable", lambda E, N: MaxProdTable(E, 2 * N))
            assert ColumnCertificates(E, w, n_max)._build_tops() == tops


class TestCoverage:
    def test_presets_have_slope_one(self):
        assert {POWER.offsets(m) for m in range(2, 52)} == {(-1, -1)}
        w = weight_from_spec("example2")
        assert (w.offsets(2), w.offsets(4), w.offsets(3)) == ((1, -1), (-1, 1), (0, 0))

    def test_a_steeper_part_is_refused(self, tmp_path):
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({"base": -1, "phi": -1, "psi": 1, "B": 2, "overrides": {"2": "ell+ell"}}))
        with pytest.raises(ValueError, match="override 2 .* grows by 2 per step of ell"):
            weight_from_spec(f"custom:{path}")

    @settings(max_examples=40, deadline=None)
    @given(exception_specs(), WEIGHT_SPECS, st.integers(1, 6))
    def test_every_family_that_loads_gets_top_terms(self, espec, wspec, ell):
        # each part's exponent is ell + its offset for ell's parity, so record builds the top terms
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        for m in range(2, 22):
            assert w.exponent(ell, m) == ell + w.offsets(m)[ell % 2]
        columns = ColumnCertificates(E, w, 20)
        _, signs, bounds = row_signs(E, w, ell, 20)
        assert columns.record(ell, signs, bounds) == signs
        assert columns._tops is not None


class TestSparseSupport:
    @settings(max_examples=40, deadline=None)
    @given(exception_specs(), st.integers(1, 40))
    def test_representable_by_brute_force(self, espec, N):
        E = exceptions_from_spec(espec)
        parts = [m for m in MaxProdTable(E, N).parts if m >= 2]
        sums = {0}
        for _ in range(N):
            sums |= {s + m for s in sums for m in parts if s + m <= N}
        assert representable(E, N) == [k in sums for k in range(N + 1)]

    def test_every_column_of_one_three_from_the_first_row(self):
        columns = ColumnCertificates(S13, POWER, 60)
        assert columns.width(1) == columns.width(2) == 0
        # n or n + 1 is never a multiple of 3, and the signs are those of the exact rows
        for ell in (1, 2, 170):
            assert columns.record(ell, (), ()) == row_signs(S13, POWER, ell, 60)[1]

    def test_a_contradicted_certificate_raises(self):
        columns = ColumnCertificates(S13, POWER, 6)
        row = row_signs(S13, POWER, 1, 6)
        assert columns.record(1, *row[1:]) == row[1]
        flipped = (row[1][0], -row[1][1], *row[1][2:])
        with pytest.raises(ArithmeticError, match="column 2 is certified -1 but computes"):
            columns.record(1, flipped, row[2])


class TestTopTerms:
    def test_tie_column_is_never_certified(self):
        # at n = 8 the top terms of p(8)^2 and p(7) p(9) cancel exactly: 18^2 = 12 * 27 and
        # (1/2)^2 = (3/2) (1/6), so no certificate exists, while every other column gets one
        none = exceptions_from_spec("none")
        seen = []
        sweep(none, POWER, 50, 200, on_row=lambda ell, bits, n_computed, seconds: seen.append(n_computed))
        assert min(seen) == seen[-1] == 8

    def test_a_column_proven_at_this_row_is_checked_at_it(self):
        # with E = none, row 3 proves column 2 by its top term; a computed sign there that
        # contradicts the new certificate raises at once
        none = exceptions_from_spec("none")
        columns = ColumnCertificates(none, POWER, 12)
        for ell in (1, 2):
            _, signs, bounds = row_signs(none, POWER, ell, 12)
            assert columns.record(ell, signs, bounds) == signs
        assert 2 not in columns.proven[1]
        _, signs, bounds = row_signs(none, POWER, 3, 12)
        with pytest.raises(ArithmeticError, match="column 2 is certified"):
            columns.record(3, (signs[0], -signs[1], *signs[2:]), bounds)
        assert columns.proven[1][2] == (3 + ROW_LAG, signs[1])

    def test_certified_signs_hold_at_every_later_row(self):
        # feed full rows, so every certified cell is computed as well and checked by record
        E = exceptions_from_spec("2,4")
        columns = ColumnCertificates(E, POWER, 50)
        for ell in range(1, 131):
            _, signs, bounds = row_signs(E, POWER, ell, 50)
            assert columns.record(ell, signs, bounds) == signs
        # every column of the paper's figure is certified in both parities, the last at ell 111
        assert all(len(proven) == 50 for proven in columns.proven)
        assert max(since for proven in columns.proven for since, _ in proven.values()) == 111 + ROW_LAG
        assert columns.width(130) == 0
        # a later row of a closed parity computes nothing either; an earlier one still computes its columns
        assert columns.width(400) == columns.width(401) == 0
        assert columns.width(2) == 50

    def test_certified_rows_share_one_tail_per_parity(self):
        E = exceptions_from_spec("2,4")
        grid = sweep(E, POWER, 50, 400)
        # rows 118..400 compute nothing: each parity's rows are one shared tuple, and that
        # tuple is the full row
        for first in (118, 119):
            shared = grid.signs[first - 1]
            assert all(row is shared for row in grid.signs[first - 1::2])
        for ell in (118, 119, 399, 400):
            assert grid.signs[ell - 1] == row_signs(E, POWER, ell, 50)[1]

    def test_opposite_parities_keep_their_own_tails(self):
        # with example2 weights the odd and even rows of E = none settle to different signs at
        # columns 5, 8 and 11, and both parities compute nothing from row 61 on
        none, w = exceptions_from_spec("none"), weight_from_spec("example2")
        grid = sweep(none, w, 12, 120)
        assert grid.signs == tuple(row_signs(none, w, ell, 12)[1] for ell in range(1, 121))
        even, odd = grid.signs[-1], grid.signs[-2]
        assert [n for n in range(1, 13) if odd[n - 1] != even[n - 1]] == [5, 8, 11]

    @settings(max_examples=25, deadline=None)
    @given(exception_specs(), WEIGHT_SPECS, st.integers(2, 20), st.integers(1, 100))
    @example(espec="none", wspec="example1", n_max=20, ell_max=100)
    def test_sweeps_equal_full_rows_over_the_grammar(self, espec, wspec, n_max, ell_max):
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        assert sweep(E, w, n_max, ell_max).signs == tuple(
            row_signs(E, w, ell, n_max)[1] for ell in range(1, ell_max + 1))

    # the tall, wide and tie sweeps the workflow pins, then the four sweeps of verify all, with
    # the last proving row of each, one-sided and by the reference
    @pytest.mark.parametrize("espec, wspec, n_max, ell_max, last, reference_last", [
        ("2,4", "power", 50, 400, 111, 116),
        ("3", "example2", 200, 100, 52, 56),
        ("none", "power", 50, 1000, 64, 70),
        ("3", "power", 40, 120, 25, 27),
        ("3,5", "power", 40, 120, 12, 17),
        ("4", "power", 36, 120, 40, 44),
        ("2,4", "power", 50, 300, 111, 116),
    ])
    def test_no_column_is_proven_later_than_by_both_sides(self, espec, wspec, n_max, ell_max, last, reference_last):
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        rows, reference = proving_rows(E, w, n_max, ell_max), two_sided_rows(E, w, n_max, ell_max)
        assert rows.keys() == reference.keys()
        assert all(rows[key] <= ell for key, ell in reference.items())
        assert (max(rows.values()), max(reference.values())) == (last, reference_last)
