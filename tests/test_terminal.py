import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerprod import MaxProdTable, exceptions_from_spec, row_signs, sweep, weight_from_spec
from eulerprod.terminal import ROW_LAG, ColumnCertificates, representable, top_coefficients
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


class TestTopCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(exception_specs(), st.integers(0, 36), st.dictionaries(st.integers(2, 36), st.integers(1, 40)))
    # 1, 2, 3 and 4 all lead, and the tie at 8 (3+3+2 against 3+4 and 3+2+2 around it) is exact
    @example(espec="none", N=12, weights={})
    @example(espec="3", N=36, weights={2: 8, 4: 2})
    def test_recurrence_equals_the_maximizers(self, espec, N, weights):
        table = MaxProdTable(exceptions_from_spec(espec), N)
        X, F = top_coefficients(table, weights)
        assert F == factorial(N // 2)
        for n in range(N + 1):
            assert Fraction(X[n], F) == maximizer_sum(table, n, weights), (espec, n)


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

    def test_certified_signs_hold_at_every_later_row(self):
        # feed full rows, so every certified cell is computed as well and checked by record
        E = exceptions_from_spec("2,4")
        columns = ColumnCertificates(E, POWER, 50)
        for ell in range(1, 131):
            _, signs, bounds = row_signs(E, POWER, ell, 50)
            assert columns.record(ell, signs, bounds) == signs
        # every column of the paper's figure is certified in both parities, the last at ell 116
        assert all(len(proven) == 50 for proven in columns.proven)
        assert max(since for proven in columns.proven for since, _ in proven.values()) == 116 + ROW_LAG
        assert columns.width(130) == 0
        # a later row of a closed parity computes nothing either; an earlier one still computes its columns
        assert columns.width(400) == columns.width(401) == 0
        assert columns.width(2) == 50

    def test_certified_rows_share_one_tail_per_parity(self):
        E = exceptions_from_spec("2,4")
        grid = sweep(E, POWER, 50, 400)
        # rows 123..400 compute nothing: each parity's rows are one shared tuple, and that
        # tuple is the full row
        for first in (123, 124):
            shared = grid.signs[first - 1]
            assert all(row is shared for row in grid.signs[first - 1::2])
        for ell in (123, 124, 399, 400):
            assert grid.signs[ell - 1] == row_signs(E, POWER, ell, 50)[1]

    def test_opposite_parities_keep_their_own_tails(self):
        # with example2 weights the odd and even rows of E = none settle to different signs at
        # columns 5, 8 and 11, and both parities compute nothing from row 61 on
        none, w = exceptions_from_spec("none"), weight_from_spec("example2")
        grid = sweep(none, w, 12, 120)
        assert grid.signs == tuple(row_signs(none, w, ell, 12)[1] for ell in range(1, 121))
        even, odd = grid.signs[-1], grid.signs[-2]
        assert [n for n in range(1, 13) if odd[n - 1] != even[n - 1]] == [5, 8, 11]
