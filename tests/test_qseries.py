import json
import tempfile
from dataclasses import replace
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerprod import (
    check_bounds,
    coeffs_by_product,
    coeffs_by_recurrence,
    delta,
    exceptions_from_spec,
    row_signs,
    sweep,
    weight_from_spec,
)
from eulerprod import harness, qseries
from eulerprod.model import member
from eulerprod.qseries import (
    BOUNDED_MIN_SIZE,
    LADDER_BITS,
    _bounded_coeffs,
    _interval,
    _interval_sign,
    _rung_signs,
    check_g_bounds,
    g_table,
)
from eulerprod.suites import BATTERY, _partition_counts
from test_maxprod import exception_specs

POWER = weight_from_spec("power")
E24 = exceptions_from_spec("2,4")
S13 = exceptions_from_spec("support:1,3")
PRESETS = ("power", "example1", "example2")
# every rung of the ladder, and a width far below any of them: no proof step may rely on the width
WIDTHS = (4, *LADDER_BITS)

# drawn weight files live here until the test session ends
_WEIGHT_DIR = tempfile.TemporaryDirectory(prefix="weights-")


@st.composite
def _override_formulas(draw, lo, hi):
    """ell + b + c*alt with lo <= b - |c| and b + |c| <= hi, in some order and spacing."""
    c = draw(st.integers(-((hi - lo) // 2), (hi - lo) // 2))
    b = draw(st.integers(lo + abs(c), hi - abs(c)))
    terms = ["+ell"] + [("+alt", "-alt")[c < 0]] * abs(c) + [f"{b:+d}"]
    return draw(st.sampled_from(["", " "])).join(draw(st.permutations(terms)))


@st.composite
def weight_schemas(draw):
    """Whole weight files inside their envelope: base and every override in [phi, psi], B >= psi - phi.

    Every exponent offset is >= -1 as well, so each weight is defined from ell = 1 on.
    """
    phi = draw(st.integers(-2, 2))
    psi = phi + draw(st.integers(max(0, -1 - phi), 3))
    lo = max(phi, -1)
    schema = {"base": draw(st.integers(lo, psi)), "phi": phi, "psi": psi,
              "B": psi - phi + draw(st.integers(0, 1))}
    overrides = draw(st.dictionaries(st.integers(2, 12).map(str), _override_formulas(lo, psi), max_size=3))
    if overrides or draw(st.booleans()):
        schema["overrides"] = overrides
    return schema


def weight_files():
    """custom:<path> specs of the files weight_schemas draws."""
    return weight_schemas().map(_weight_file)


@st.composite
def broken_weight_schemas(draw):
    """(schema, name): a weight file that breaks one envelope condition, and the name its refusal gives.

    The conditions: an override of slope other than 1, an override or the base outside
    [phi, psi], and B below psi - phi.
    """
    schema = draw(weight_schemas())
    phi, psi = schema["phi"], schema["psi"]
    broken = draw(st.sampled_from(["slope", "override", "base", "B"]))
    if broken == "B":
        schema["B"] = psi - phi - draw(st.integers(1, 3))
        return schema, "B = "
    out = draw(st.one_of(st.integers(psi + 1, psi + 3), st.integers(phi - 3, phi - 1)))
    if broken == "base":
        schema["base"] = out
        return schema, "base has exponent"
    n = draw(st.integers(2, 12))
    if broken == "slope":
        a = draw(st.sampled_from([-1, 0, 2, 3]))
        terms = [("+ell", "-ell")[a < 0]] * abs(a) + [f"{draw(st.integers(-2, 3)):+d}"]
        name = f"override {n}"
    else:
        c = draw(st.integers(-1, 1))
        # b + |c| = out above psi, or b - |c| = out below phi
        b = out - abs(c) if out > psi else out + abs(c)
        terms = ["+ell", f"{b:+d}"] + [("+alt", "-alt")[c < 0]] * abs(c)
        name = f"part {n} has exponent"
    schema["overrides"] = {**schema.get("overrides", {}), str(n): "".join(draw(st.permutations(terms)))}
    return schema, name


def _weight_file(schema):
    """custom:<path> of a new weight file holding schema."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=_WEIGHT_DIR.name, delete=False) as handle:
        json.dump(schema, handle)
    return f"custom:{handle.name}"


WEIGHT_SPECS = st.one_of(st.sampled_from(PRESETS), weight_files())
# a custom family whose part 2 has its own alternating exponent
PART_2_OVERRIDE = _weight_file({"base": 0, "phi": -1, "psi": 1, "B": 2, "overrides": {"2": "ell+alt"}})


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


@settings(max_examples=40, deadline=None)
@given(exception_specs(), WEIGHT_SPECS, st.integers(1, 6), st.integers(0, 30))
@example("support:1,3,4,9", "example2", 5, 30)
@example("3,7", PART_2_OVERRIDE, 3, 30)
def test_product_path_matches_recurrence_over_the_grammar(espec, wspec, ell, N):
    E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
    assert coeffs_by_recurrence(E, w, ell, N).coeffs == coeffs_by_product(E, w, ell, N).coeffs


@settings(max_examples=40, deadline=None)
@given(exception_specs(), st.integers(1, 40))
def test_unit_weights_count_partitions_over_the_grammar(espec, N):
    E = exceptions_from_spec(espec)
    assert list(coeffs_by_recurrence(E, POWER, 1, N).coeffs) == _partition_counts(E, N)


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


def allowed_divisors(E, n):
    """The allowed divisors of n, ascending, listed without a sieve."""
    return [d for d in range(1, n + 1) if n % d == 0 and not member(E, d)]


def envelope(gt, n):
    """(lower, upper): the g-envelope n_S^(phi+1) <= g(n) <= sigma(n) n_S^psi of gt at n."""
    allowed = allowed_divisors(gt.exceptions, n)
    return allowed[-1] ** (gt.weights.phi(gt.ell) + 1), sum(allowed) * allowed[-1] ** gt.weights.psi(gt.ell)


def envelope_failures(gt):
    """The n where g(n) leaves its envelope, one n at a time."""
    return [n for n in range(1, gt.horizon + 1) for lower, upper in [envelope(gt, n)]
            if not lower <= gt.values[n] <= upper]


def with_g(gt, n, value):
    """gt with g(n) replaced by value."""
    return replace(gt, values=gt.values[:n] + (value,) + gt.values[n + 1:])


def reported_at(espec, n, value):
    """check_g_bounds on the power table at ell = 1, horizon n, with g(n) = value; there phi = psi = 0,
    so the envelope at n reads n_S <= g(n) <= sigma(n), and every other g(m) is sigma(m)."""
    return check_g_bounds(with_g(g_table(exceptions_from_spec(espec), POWER, 1, n), n, value))


def test_g_envelope_checks():
    for espec in ("none", "2,4", "powers:2"):
        E = exceptions_from_spec(espec)
        for ell in (1, 2, 3):
            assert check_g_bounds(g_table(E, POWER, ell, 60)) == [], (espec, ell)


@settings(max_examples=40, deadline=None)
@given(exception_specs(), weight_files())
def test_g_envelope_holds_on_every_family_that_loads(espec, wspec):
    E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
    for ell in range(1, 9):
        assert check_g_bounds(g_table(E, w, ell, 40)) == [], (espec, wspec, ell)


@settings(max_examples=60, deadline=None)
@given(exception_specs(), WEIGHT_SPECS, st.integers(1, 150), st.integers(1, 8), st.data())
def test_g_envelope_sieve_matches_the_divisors_of_each_n(espec, wspec, N, ell, data):
    # some g(n) moved to an edge of its envelope or one past it, so that the lists compared are not all empty
    gt = g_table(exceptions_from_spec(espec), weight_from_spec(wspec), ell, N)
    for n in data.draw(st.lists(st.integers(1, N), max_size=5)):
        lower, upper = envelope(gt, n)
        gt = with_g(gt, n, data.draw(st.sampled_from([lower - 1, lower, upper, upper + 1])))
    assert check_g_bounds(gt) == envelope_failures(gt)


@settings(max_examples=40, deadline=None)
@given(exception_specs(), st.sampled_from(PRESETS), st.integers(1, 150), st.integers(1, 8), st.data())
def test_one_g_past_its_envelope_is_reported_alone(espec, wspec, N, ell, data):
    gt = g_table(exceptions_from_spec(espec), weight_from_spec(wspec), ell, N)
    n = data.draw(st.integers(1, N))
    lower, upper = envelope(gt, n)
    assert check_g_bounds(with_g(gt, n, lower - 1)) == check_g_bounds(with_g(gt, n, upper + 1)) == [n]
    assert check_g_bounds(with_g(gt, n, lower)) == check_g_bounds(with_g(gt, n, upper)) == []


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


def ladder_signs(E, w, ell, n_max):
    """The precision ladder alone, whatever the row's size: (bits, signs) from the first width that decides, or None."""
    g = g_table(E, w, ell, n_max + 1).values
    for bits in LADDER_BITS:
        row = _rung_signs(g, bits)
        if row is not None:
            return bits, row[0]
    return None


def row_size(E, w, ell, n_max):
    return (n_max + 1) * max(g_table(E, w, ell, n_max + 1).values).bit_length()


class TestBoundedSigns:
    def test_rows_match_exact_over_battery(self):
        undecided = set()
        for espec in BATTERY:
            E = exceptions_from_spec(espec)
            for wspec in PRESETS:
                w = weight_from_spec(wspec)
                for ell in range(1, 61):
                    bounded = ladder_signs(E, w, ell, 40)
                    if bounded is None:
                        undecided.add(espec)
                    else:
                        assert bounded[1] == exact_signs(E, w, ell, 40), (espec, wspec, ell)
        # only the exact zero cells of S = {1, 3} (p(3m) = p(3m+1) = p(3m+2)) stay undecided
        assert undecided == {"support:1,3"}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BATTERY), st.sampled_from(PRESETS),
           st.integers(1, 80), st.integers(1, 60))
    def test_never_contradicts_exact(self, espec, wspec, ell, n_max):
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        exact = exact_signs(E, w, ell, n_max)
        g = g_table(E, w, ell, n_max + 1).values
        for bits in WIDTHS:
            row = _rung_signs(g, bits)
            assert row is None or row[0] == exact, bits

    @settings(max_examples=60, deadline=None)
    @given(exception_specs(), WEIGHT_SPECS, st.integers(1, 80), st.integers(1, 60))
    # the last exact and the first bounded row of the 51-wide 2,4/power sweep
    @example(espec="2,4", wspec="power", ell=41, n_max=50)
    @example(espec="2,4", wspec="power", ell=42, n_max=50)
    # large enough for the ladder, which cannot certify its exact zeros, so it falls back
    @example(espec="support:1,3", wspec="power", ell=170, n_max=60)
    def test_row_signs_equal_exact_over_the_grammar(self, espec, wspec, ell, n_max):
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        bits, signs, bounds = row_signs(E, w, ell, n_max)
        assert signs == exact_signs(E, w, ell, n_max)
        # the bounds the sweep certifies columns from: upper bounds on p(0..n_max + 1), of the
        # deciding width, or the first rung's on the exact route
        p = coeffs_by_recurrence(E, w, ell, n_max + 1).coeffs
        assert len(bounds) == len(p)
        assert all(x <= hi << e and hi <= 1 << (bits or LADDER_BITS[0]) for x, (hi, e) in zip(p, bounds))

    def test_route_boundary(self):
        # 2,4/power rows with n_max = 50 reach BOUNDED_MIN_SIZE between ell 41 and 42
        assert row_size(E24, POWER, 41, 50) < BOUNDED_MIN_SIZE <= row_size(E24, POWER, 42, 50)
        assert row_signs(E24, POWER, 41, 50)[:2] == (None, exact_signs(E24, POWER, 41, 50))
        assert row_signs(E24, POWER, 42, 50)[:2] == (LADDER_BITS[0], exact_signs(E24, POWER, 42, 50))

    def test_intervals_bracket_exact_coefficients(self):
        for espec in BATTERY:
            E = exceptions_from_spec(espec)
            for wspec in PRESETS:
                w = weight_from_spec(wspec)
                for ell in (1, 7, 30, 60):
                    g = g_table(E, w, ell, 40).values
                    p = coeffs_by_recurrence(E, w, ell, 40).coeffs
                    for bits in WIDTHS:
                        width = 1 << bits
                        fits = True
                        for n, (lo, hi, e) in enumerate(_bounded_coeffs(g, bits)):
                            assert lo << e <= p[n] <= hi << e and hi <= width, (espec, wspec, ell, bits, n)
                            fits = fits and p[n] < width and (n == 0 or g[n] < width)
                            if fits:
                                assert lo == hi == p[n] and e == 0, (espec, wspec, ell, bits, n)

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
        for ell in (1, 50, 400):
            assert ladder_signs(E24, POWER, ell, 3)[1][0] == 0
        # at ell = 1 every p(n) fits the narrowest rung, so the zeros of S = {1, 3} are certified too
        row = exact_signs(S13, POWER, 1, 40)
        assert ladder_signs(S13, POWER, 1, 40) == (LADDER_BITS[0], row) and row.count(0) == 14

    def test_sparse_support_falls_back(self):
        assert ladder_signs(S13, POWER, 170, 60) is None
        assert row_size(S13, POWER, 170, 60) >= BOUNDED_MIN_SIZE
        assert row_signs(S13, POWER, 170, 60)[:2] == (None, exact_signs(S13, POWER, 170, 60))
        widths = {}
        grid = sweep(S13, POWER, 60, 170, on_row=lambda ell, bits, n_computed, seconds: widths.update({ell: bits}))
        assert set(widths.values()) == {None} and sorted(widths) == list(range(1, 171))
        assert grid.signs == tuple(exact_signs(S13, POWER, ell, 60) for ell in range(1, 171))

    def test_figure_row_is_bounded(self):
        # the top row of the 50 x 400 grid for E = {2, 4}: coefficients near 10.7k bits
        assert row_signs(E24, POWER, 400, 50)[:2] == (LADDER_BITS[0], exact_signs(E24, POWER, 400, 50))

    @pytest.mark.parametrize("ell,bits", [(200, LADDER_BITS[1]), (400, LADDER_BITS[2])])
    def test_wider_rung_decides_tie_column_rows(self, ell, bits):
        # at n = 8 the leading bases tie (18^2 = 12 * 27), so Delta(8) / p(8)^2 shrinks with ell
        # and the narrower rungs cannot separate it
        E = exceptions_from_spec("none")
        g = g_table(E, POWER, ell, 51).values
        assert all(_rung_signs(g, narrower) is None for narrower in LADDER_BITS if narrower < bits)
        assert row_signs(E, POWER, ell, 50)[:2] == (bits, exact_signs(E, POWER, ell, 50))

    def test_one_g_table_per_row(self, monkeypatch):
        calls = []

        def counting_g_table(*args):
            calls.append(args)
            return g_table(*args)

        monkeypatch.setattr(qseries, "g_table", counting_g_table)
        none = exceptions_from_spec("none")
        # an exact-routed row, rows decided at the first, second and third rung, and a fallback
        rows = [(E24, 10, 50, None), *((none, ell, 50, bits) for ell, bits in zip((100, 200, 400), LADDER_BITS)),
                (S13, 170, 60, None)]
        for E, ell, n_max, bits in rows:
            calls.clear()
            assert harness._sign_row((E, POWER, ell, n_max))[2] == bits, (E, ell)
            assert calls == [(E, POWER, ell, n_max + 1)], (E, ell)

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            row_signs(exceptions_from_spec("none"), POWER, 1, 0)


def full_scan_coeffs(g, bits):
    """The interval recurrence summing over every term k = 1..n, with no tail cut: (lo, hi, e) for p(0..N)."""
    N = len(g) - 1
    g = [_interval(x, bits) for x in g]  # g[k] for k = 1..N; slot 0 is unused
    p = [(1, 1, 0)]
    for n in range(1, N + 1):
        terms = [(g[k], p[n - k]) for k in range(1, n + 1)]
        top = max(a[2] + b[2] for a, b in terms)
        lo = hi = 0
        for (a_lo, a_hi, a_e), (b_lo, b_hi, b_e) in terms:
            s = top - a_e - b_e
            if s <= 2 * bits:
                lo += a_lo * b_lo >> s
                hi += a_hi * b_hi - 1 >> s
        lo //= n
        hi = -(-(hi + n) // n)
        s = max(hi.bit_length() - bits, -top)
        if s > 0:
            lo, hi = lo >> s, ((hi - 1) >> s) + 1
        elif s < 0:
            lo, hi = lo << -s, hi << -s
        p.append((lo, hi, top + s))
    return p


def assert_cut_matches_full_scan(g, label):
    """_bounded_coeffs over g (g(1..N) after a placeholder) equals the full scan, bit for bit, at every width."""
    for bits in WIDTHS:
        assert list(_bounded_coeffs(g, bits)) == full_scan_coeffs(g, bits), (*label, bits)


def assert_row_cut_matches_full_scan(E, w, ell, N):
    assert_cut_matches_full_scan(g_table(E, w, ell, N).values, (E.spec_text, w.id, ell, N))


class TestTailCut:
    """_bounded_coeffs forms only a certified prefix of the terms; its intervals equal a scan over every term."""

    @pytest.mark.parametrize("espec", BATTERY)
    def test_battery_rows(self, espec):
        E = exceptions_from_spec(espec)
        for wspec in PRESETS:
            w = weight_from_spec(wspec)
            for ell in (1, 13, 60, 120):
                for N in (41, 120):
                    assert_row_cut_matches_full_scan(E, w, ell, N)

    @pytest.mark.parametrize("espec,wspec,ell", [
        ("3", "example2", 13), ("3", "example2", 50), ("3", "example2", 100),
        ("none", "power", 30), ("none", "power", 100),
    ])
    def test_wide_rows(self, espec, wspec, ell):
        assert_row_cut_matches_full_scan(exceptions_from_spec(espec), weight_from_spec(wspec), ell, 201)

    @settings(max_examples=30, deadline=None)
    @given(exception_specs(), WEIGHT_SPECS, st.integers(1, 150), st.integers(1, 201))
    def test_random_rows(self, espec, wspec, ell, N):
        assert_row_cut_matches_full_scan(exceptions_from_spec(espec), weight_from_spec(wspec), ell, N)

    def test_custom_weight_row(self, tmp_path):
        # g(12) and g(15) dwarf their neighbours, so the tail maximum must include k = L + 1
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"base": -1, "phi": -1, "psi": 202, "B": 203,
                                    "overrides": {"2": "ell", "12": "ell+132", "15": "ell+202"}}))
        assert_row_cut_matches_full_scan(exceptions_from_spec("2,4"), weight_from_spec(f"custom:{path}"), 1, 19)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((0, 1)), st.integers(0, 1 << 400)), min_size=1, max_size=40))
    # the tail maximum over k > L includes g(L + 1)
    @example(g=[1, 2 ** 369 + 12345, 2 ** 380 + 12345, 0])
    # a tail term exactly 2 * 96 bits below the top is inside the window of the 96-bit rung
    @example(g=[0, 1, 1, 2 ** 146, 2 ** 133, 1, 1, 2 ** 111 + 12345, 1, 1, 1])
    def test_any_nonnegative_g(self, g):
        # the cut is a statement about the recurrence for any non-negative g(1..N), not only divisor sums
        assert_cut_matches_full_scan((0, *g), ())
