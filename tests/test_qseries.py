import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerprod import (
    BATTERY,
    bounded_signs,
    check_bounds,
    check_g_bounds,
    coeffs_by_product,
    coeffs_by_recurrence,
    delta,
    exceptions_from_spec,
    g_table,
    sweep,
    weight_from_spec,
)
from eulerprod.qseries import MANTISSA_BITS, _bounded_coeffs, _interval_sign, prefers_bounded

POWER = weight_from_spec("power")
PRESETS = ("power", "example1", "example2")


def test_unit_weights_give_partition_numbers():
    t = coeffs_by_recurrence(exceptions_from_spec("none"), POWER, 1, 10)
    assert t.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_restricted_support_counts():
    t = coeffs_by_recurrence(exceptions_from_spec("2,4"), POWER, 1, 5)
    assert t.coeffs == (1, 1, 1, 2, 2, 3)


def test_product_path_matches_recurrence():
    for espec in ("none", "2,4", "powers:2", "support:1,3"):
        E = exceptions_from_spec(espec)
        for ell in range(1, 5):
            a = coeffs_by_recurrence(E, POWER, ell, 30)
            b = coeffs_by_product(E, POWER, ell, 30)
            assert a.coeffs == b.coeffs, (espec, ell)


def test_product_path_trivial_horizon():
    t = coeffs_by_product(exceptions_from_spec("none"), POWER, 1, 0)
    assert t.coeffs == (1,)


@pytest.mark.parametrize("espec,ell,n,expected", [
    ("none", 2, 4, 21),
    ("2", 2, 4, 17),
    ("none", 1, 6, 12),
    ("2,4", 1, 4, 1),
    ("none", 3, 2, 9),
])
def test_g_values(espec, ell, n, expected):
    gt = g_table(exceptions_from_spec(espec), POWER, ell, n)
    assert gt[n] == expected


def test_g_table_validation():
    E = exceptions_from_spec("none")
    with pytest.raises(ValueError):
        g_table(E, POWER, 0, 5)
    with pytest.raises(ValueError):
        g_table(E, POWER, 1, 0)
    gt = g_table(E, POWER, 1, 5)
    with pytest.raises(IndexError):
        gt[0]
    with pytest.raises(IndexError):
        gt[6]


def test_table_indexing():
    t = coeffs_by_recurrence(exceptions_from_spec("none"), POWER, 1, 5)
    assert t.horizon == 5
    assert t[0] == 1 and t[5] == 7
    with pytest.raises(IndexError):
        t[6]
    with pytest.raises(ValueError):
        coeffs_by_recurrence(exceptions_from_spec("none"), POWER, 1, -1)


def test_delta_values_and_signs():
    t = coeffs_by_recurrence(exceptions_from_spec("none"), POWER, 1, 12)
    d = delta(t, 6)
    assert d.value == 11 * 11 - 7 * 15 == 16 and d.sign == 1
    d = delta(t, 1)
    assert d.value == -1 and d.sign == -1
    with pytest.raises(ValueError):
        delta(t, 0)
    with pytest.raises(ValueError):
        delta(t, 12)


def test_block_structure_for_sparse_support():
    E = exceptions_from_spec("support:1,3")
    for ell in (1, 2, 3):
        t = coeffs_by_recurrence(E, POWER, ell, 20)
        f3 = POWER.eval(ell, 3)
        for m in range(6):
            want = comb(m + f3, m)
            assert t.coeffs[3 * m] == t.coeffs[3 * m + 1] == t.coeffs[3 * m + 2] == want


def test_coefficient_bounds_hold():
    E24 = exceptions_from_spec("2,4")
    t = coeffs_by_recurrence(E24, POWER, 3, 9)
    assert t.coeffs[9] == 1024
    assert check_bounds(t, 9, 27, 3)
    t = coeffs_by_recurrence(exceptions_from_spec("none"), POWER, 2, 6)
    assert t.coeffs[6] == 48
    assert check_bounds(t, 6, 9, 2)


def test_coefficient_bounds_detect_violation():
    # deliberately feed an inflated maximal product: the lower bound fails
    t = coeffs_by_recurrence(exceptions_from_spec("none"), POWER, 2, 6)
    assert not check_bounds(t, 6, 10 ** 6, 2)


def test_coefficient_bounds_reject_negative_envelope(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"base": 0, "phi": -2, "psi": 0, "B": 2}))
    w = weight_from_spec(f"custom:{path}")
    t = coeffs_by_recurrence(exceptions_from_spec("none"), w, 1, 4)
    with pytest.raises(ValueError):
        check_bounds(t, 4, 4, 2)


def test_g_envelope_checks():
    for espec in ("none", "2,4", "powers:2"):
        E = exceptions_from_spec(espec)
        for ell in (1, 2, 3):
            gt = g_table(E, POWER, ell, 60)
            assert all(check_g_bounds(gt, n) for n in range(1, 61)), (espec, ell)
    gt = g_table(exceptions_from_spec("none"), POWER, 1, 5)
    with pytest.raises(ValueError):
        check_g_bounds(gt, 0)


def test_variant_weights_change_coefficients():
    E = exceptions_from_spec("none")
    base = coeffs_by_recurrence(E, POWER, 3, 8).coeffs
    bumped = coeffs_by_recurrence(E, weight_from_spec("example1"), 3, 8).coeffs
    assert base[0] == bumped[0] == 1
    assert base[1] == bumped[1]
    assert bumped[2] > base[2]


def exact_signs(E, w, ell, n_max):
    t = coeffs_by_recurrence(E, w, ell, n_max + 1)
    return tuple(delta(t, n).sign for n in range(1, n_max + 1))


class TestBoundedSigns:
    def test_rows_match_exact_over_battery(self):
        undecided = set()
        for espec in BATTERY:
            E = exceptions_from_spec(espec)
            for wspec in PRESETS:
                w = weight_from_spec(wspec)
                for ell in range(1, 61):
                    row = bounded_signs(E, w, ell, 40)
                    if row is None:
                        undecided.add(espec)
                    else:
                        assert row == exact_signs(E, w, ell, 40), (espec, wspec, ell)
        # only the exact zero cells of S = {1, 3} (p(3m) = p(3m+1) = p(3m+2)) stay undecided
        assert undecided == {"support:1,3"}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BATTERY), st.sampled_from(PRESETS),
           st.integers(1, 80), st.integers(1, 60))
    def test_never_contradicts_exact(self, espec, wspec, ell, n_max):
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        row = bounded_signs(E, w, ell, n_max)
        assert row is None or row == exact_signs(E, w, ell, n_max)

    def test_intervals_bracket_exact_coefficients(self):
        width = 1 << MANTISSA_BITS
        for espec in BATTERY:
            E = exceptions_from_spec(espec)
            for wspec in PRESETS:
                w = weight_from_spec(wspec)
                for ell in (1, 7, 30, 60):
                    g = g_table(E, w, ell, 40).values
                    p = coeffs_by_recurrence(E, w, ell, 40).coeffs
                    fits = True
                    for n, (lo, hi, e) in enumerate(_bounded_coeffs(E, w, ell, 40)):
                        assert lo << e <= p[n] <= hi << e and hi <= width, (espec, wspec, ell, n)
                        fits = fits and p[n] < width and (n == 0 or g[n] < width)
                        if fits:
                            assert lo == hi == p[n] and e == 0, (espec, wspec, ell, n)

    @pytest.mark.parametrize("a,b,c,sign", [
        ((4, 4, 0), (5, 5, 0), (6, 6, 0), 1),
        ((5, 5, 0), (5, 5, 0), (5, 5, 0), 0),
        ((1, 1, 0), (1, 1, 3), (1, 1, 5), 1),  # 8^2 > 1 * 32, exponents differ
        ((1, 1, 0), (1, 1, 1), (1, 1, 3), -1),  # 2^2 < 1 * 8
        ((4, 5, 0), (5, 5, 0), (5, 5, 0), None),  # 25 against [20, 25]
        ((5, 5, 0), (5, 6, 0), (5, 5, 0), None),  # [25, 36] against 25: touching is not zero
        ((3, 4, 10), (5, 6, 10), (6, 7, 10), None),
    ])
    def test_interval_sign_needs_separation(self, a, b, c, sign):
        assert _interval_sign(a, b, c) == sign

    def test_values_within_the_width_stay_exact(self):
        # p(0) = p(1) = p(2) = 1 without the part 2, so the zero at n = 1 is exact at every ell
        E24 = exceptions_from_spec("2,4")
        for ell in (1, 50, 400):
            assert bounded_signs(E24, POWER, ell, 3)[0] == 0
        # at ell = 1 every p(n) fits the mantissa, so the zeros of S = {1, 3} are certified too
        S13 = exceptions_from_spec("support:1,3")
        row = bounded_signs(S13, POWER, 1, 40)
        assert row == exact_signs(S13, POWER, 1, 40) and row.count(0) == 14

    def test_sparse_support_falls_back(self):
        S13 = exceptions_from_spec("support:1,3")
        assert bounded_signs(S13, POWER, 170, 60) is None
        paths = {}
        grid = sweep(S13, POWER, 60, 170, on_row=lambda ell, path, seconds: paths.update({ell: path}))
        assert prefers_bounded(S13, POWER, 170, 60)
        assert set(paths.values()) == {"exact"} and sorted(paths) == list(range(1, 171))
        assert grid.signs == tuple(exact_signs(S13, POWER, ell, 60) for ell in range(1, 171))

    def test_figure_row_is_bounded(self):
        # the top row of the 50 x 400 grid for E = {2, 4}: coefficients near 10.7k bits
        E24 = exceptions_from_spec("2,4")
        assert prefers_bounded(E24, POWER, 400, 50)
        assert bounded_signs(E24, POWER, 400, 50) == exact_signs(E24, POWER, 400, 50)

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            bounded_signs(exceptions_from_spec("none"), POWER, 1, 0)
