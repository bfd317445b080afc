import json
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerprod import exceptions_from_spec, next_allowed, weight_from_spec
from eulerprod.model import (
    MAX_WEIGHT_BITS,
    ExceptionSet,
    MultiplesOf,
    PowersOf,
    SupportComplement,
    WeightFamily,
    _linear_form,
    member,
    support_view,
)
from test_maxprod import exception_specs
from test_qseries import _weight_file, allowed_divisors, broken_weight_schemas, reported_at


@pytest.mark.parametrize("n,expected", [
    (1, [1]),
    (6, [1, 2, 3, 6]),
    (12, [1, 2, 3, 4, 6, 12]),
    (13, [1, 13]),
    (36, [1, 2, 3, 4, 6, 9, 12, 18, 36]),
])
def test_divisors(n, expected):
    # with nothing excluded every divisor is allowed: n_S = n and sigma(n) is the divisor sum
    assert allowed_divisors(ExceptionSet(), n) == expected
    assert reported_at("none", n, n) == reported_at("none", n, sum(expected)) == []
    assert reported_at("none", n, n - 1) == reported_at("none", n, sum(expected) + 1) == [n]


def excluded(E, limit):
    """The exceptions in [1, limit], read off support_view as its complement."""
    allowed = set(support_view(E, limit))
    return [n for n in range(1, limit + 1) if n not in allowed]


class TestExceptionGrammar:
    def test_empty_forms(self):
        for text in ("", "none", "empty"):
            E = exceptions_from_spec(text)
            assert excluded(E, 50) == []
            assert E.spec_text == "none"

    def test_atom_list(self):
        E = exceptions_from_spec("2,4")
        assert excluded(E, 10) == [2, 4]
        assert E.spec_text == "2,4"

    def test_powers(self):
        E = exceptions_from_spec("powers:2")
        assert excluded(E, 40) == [2, 4, 8, 16, 32]
        assert member(E, 64) and not member(E, 6)

    def test_multiples(self):
        E = exceptions_from_spec("multiples:3")
        assert excluded(E, 13) == [3, 6, 9, 12]

    def test_union(self):
        E = exceptions_from_spec("3 + powers:5")
        assert excluded(E, 30) == [3, 5, 25]

    def test_support_form(self):
        E = exceptions_from_spec("support:1,3")
        assert not member(E, 1) and not member(E, 3)
        assert all(member(E, m) for m in (2, 4, 5, 6, 7, 100))

    def test_support_cannot_combine(self):
        with pytest.raises(ValueError):
            exceptions_from_spec("support:1,3 + 2")

    # from "1_0" on, int() alone would read each number; the grammar takes ASCII decimal digits only
    @pytest.mark.parametrize("bad", ["1", "0", "powers:1", "multiples:1", "x", "support:2,3", "powers:",
                                     "1_0", "\uff12", "2,\u0664", "powers:\u0663", "multiples:\u0663",
                                     "support:1,\uff13"])
    def test_rejects_bad_tokens(self, bad):
        with pytest.raises(ValueError):
            exceptions_from_spec(bad)

    def test_one_never_excluded(self):
        with pytest.raises(ValueError):
            ExceptionSet(frozenset({1}), ())


def test_family_validation():
    with pytest.raises(ValueError):
        PowersOf(1)
    with pytest.raises(ValueError):
        MultiplesOf(1)
    with pytest.raises(ValueError):
        SupportComplement(frozenset({2, 3}))


def test_support_view_lists_complement():
    assert support_view(exceptions_from_spec("2,4"), 8) == (1, 3, 5, 6, 7, 8)


@given(exception_specs(), st.integers(1, 200))
def test_support_view_agrees_with_member(espec, horizon):
    # support_view lists each family's members; member tests one n at a time and is the reference
    E = exceptions_from_spec(espec)
    assert support_view(E, horizon) == tuple(n for n in range(1, horizon + 1) if not member(E, n))


class TestNextAllowed:
    def test_membership_and_successor(self):
        E = exceptions_from_spec("3,4,6")
        assert not member(E, 5) and not member(E, 9) and member(E, 4)
        assert next_allowed(E, 1) == 2
        assert next_allowed(E, 2) == 5
        assert next_allowed(E, 5) == 7
        assert next_allowed(E, 8) == 9

    def test_none_past_the_last_support_part(self):
        E = exceptions_from_spec("support:1,3,7")
        assert [next_allowed(E, m) for m in (-5, 0, 1, 3, 6)] == [1, 1, 3, 7, 7]
        assert next_allowed(E, 7) is None and next_allowed(E, 100) is None
        assert next_allowed(exceptions_from_spec("support:1"), 1) is None
        # an atom on top of a support set, which only the constructor can build, is still skipped
        E = ExceptionSet(frozenset({3}), (SupportComplement(frozenset({1, 3, 5})),))
        assert next_allowed(E, 1) == 5

    @pytest.mark.parametrize("espec,m,expected", [
        ("powers:2", 1, 3),
        ("powers:2", 7, 9),
        ("powers:3", 8, 10),
        ("multiples:2", 3, 5),
        ("multiples:3", 2, 4),
        ("3 + powers:2", 1, 5),
        ("3 + powers:2", 7, 9),
        ("multiples:2 + multiples:3", 1, 5),
        ("multiples:2 + multiples:3", 7, 11),
        ("none", 41, 42),
    ])
    def test_families_and_unions(self, espec, m, expected):
        assert next_allowed(exceptions_from_spec(espec), m) == expected

    @given(exception_specs(), st.integers(1, 80), st.data())
    def test_agrees_with_support_view(self, espec, horizon, data):
        E = exceptions_from_spec(espec)
        view = support_view(E, horizon)
        m = data.draw(st.integers(0, horizon - 1))
        expected = next((k for k in view if k > m), None)
        got = next_allowed(E, m)
        if expected is None:
            assert got is None or got > horizon
        else:
            assert got == expected


@pytest.mark.parametrize("espec,n,expected", [
    ("none", 6, 12),
    ("none", 1, 1),
    ("2,4", 4, 1),
    ("2", 12, 26),
    ("powers:2", 8, 1),
    ("support:1,3", 9, 4),
])
def test_sigma_restricted_divisor_sum(espec, n, expected):
    # sigma(n) is the g-envelope's upper end at ell = 1 on power weights
    assert sum(allowed_divisors(exceptions_from_spec(espec), n)) == expected
    assert reported_at(espec, n, expected) == []
    assert reported_at(espec, n, expected + 1) == [n]


@pytest.mark.parametrize("espec,n,expected", [
    ("none", 12, 12),
    ("2,4", 4, 1),
    ("2,4", 12, 12),
    ("powers:2", 8, 1),
    ("powers:2", 12, 12),
    ("support:1,3", 9, 3),
    ("support:1,3", 10, 1),
])
def test_largest_allowed_divisor(espec, n, expected):
    # n_S is the g-envelope's lower end at ell = 1 on power weights
    assert allowed_divisors(exceptions_from_spec(espec), n)[-1] == expected
    assert reported_at(espec, n, expected) == []
    assert reported_at(espec, n, expected - 1) == [n]


class TestWeightFamilies:
    def test_power(self):
        w = weight_from_spec("power")
        assert [w.eval(1, n) for n in range(1, 6)] == [1, 1, 1, 1, 1]
        assert w.eval(4, 3) == 27
        assert w.phi(5) == 4 and w.psi(5) == 4 and w.envelope_gap == 0

    def test_example1_bumps_two(self):
        w = weight_from_spec("example1")
        assert w.eval(3, 2) == 8
        assert w.eval(3, 3) == 9
        assert w.eval(1, 2) == 2
        assert w.phi(5) == 4 and w.psi(5) == 5 and w.envelope_gap == 1

    def test_example2_alternates(self):
        w = weight_from_spec("example2")
        assert w.eval(2, 3) == 9
        assert w.eval(2, 2) == 8
        assert w.eval(3, 2) == 4
        assert w.eval(2, 4) == 4
        assert w.eval(1, 4) == 16
        assert w.phi(5) == 4 and w.psi(5) == 6 and w.envelope_gap == 2

    def test_envelope_brackets_values(self):
        for spec in ("power", "example1", "example2"):
            w = weight_from_spec(spec)
            for ell in range(1, 6):
                lo, hi = w.phi(ell), w.psi(ell)
                for n in range(2, 12):
                    assert n ** lo <= w.eval(ell, n) <= n ** hi, (spec, ell, n)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({
            "base": -1,
            "phi": -1,
            "psi": 0,
            "B": 1,
            "overrides": {"2": "ell"},
        }))
        w = weight_from_spec(f"custom:{path}")
        assert w.eval(3, 5) == 25
        assert w.eval(3, 2) == 8
        assert w.eval(3, 1) == 1
        assert w.phi(3) == 2 and w.psi(3) == 3 and w.envelope_gap == 1

    @pytest.mark.parametrize("preset,twin", [
        pytest.param("power", {"base": -1, "phi": -1, "psi": -1, "B": 0}, id="power"),
        pytest.param("example1", {"base": -1, "phi": -1, "psi": 0, "B": 1,
                                  "overrides": {"2": "ell"}}, id="example1"),
        pytest.param("example2", {"base": 0, "phi": -1, "psi": 1, "B": 2,
                                  "overrides": {"2": "ell+alt", "4": "ell-alt"}}, id="example2"),
    ])
    def test_custom_twin_matches_preset(self, tmp_path, preset, twin):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(twin))
        w = weight_from_spec(f"custom:{path}")
        ref = weight_from_spec(preset)
        for ell in range(1, 13):
            for n in range(1, 41):
                assert w.eval(ell, n) == ref.eval(ell, n), (ell, n)
            assert w.phi(ell) == ref.phi(ell) and w.psi(ell) == ref.psi(ell)
        assert w.envelope_gap == ref.envelope_gap

    @pytest.mark.parametrize("text", [
        pytest.param('{"base": 0, "phi": 0, "psi": 0}', id="missing-B"),
        pytest.param('[0, 0, 0, 0]', id="top-level-list"),
        pytest.param('{base: 0}', id="not-json"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "extra": 1}', id="unknown-key"),
        pytest.param('{"base": null, "phi": 0, "psi": 0, "B": 0}', id="base-null"),
        pytest.param('{"base": 0.7, "phi": 0, "psi": 0, "B": 0}', id="base-float"),
        pytest.param('{"base": true, "phi": 0, "psi": 0, "B": 0}', id="base-bool"),
        pytest.param('{"base": 0, "phi": "0", "psi": 0, "B": 0}', id="phi-string"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": -1}', id="B-negative"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": ["ell"]}', id="overrides-list"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"1": "ell"}}', id="override-n1"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"0": "ell"}}', id="override-n0"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"x": "ell"}}', id="override-nx"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"2": "ell", "02": "ell"}}',
                     id="override-n2-twice"),
        pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"2": "ell", "2": "0"}}',
                     id="override-key-twice"),
    ])
    def test_custom_malformed_file(self, tmp_path, text):
        path = tmp_path / "weights.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            weight_from_spec(f"custom:{path}")

    def test_custom_negative_exponent(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"base": -2, "phi": -2, "psi": 0, "B": 2}))
        w = weight_from_spec(f"custom:{path}")
        with pytest.raises(ValueError):
            w.eval(1, 2)

    def test_weight_ceiling_checked_before_the_power(self):
        w = WeightFamily("big", 0, (), 0, 0, 0)
        # n = 2 has bit length 2, so 2^e passes exactly at e = MAX_WEIGHT_BITS / 2
        assert w.eval(MAX_WEIGHT_BITS // 2, 2) == 1 << (MAX_WEIGHT_BITS // 2)
        # 3^e for this e would take about 104 KB; the refusal allocates next to nothing
        ell = MAX_WEIGHT_BITS // 2 + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="ceiling"):
                w.eval(ell, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8192
        with pytest.raises(ValueError, match="ceiling"):
            w.exponent(ell, 3)

    def test_custom_huge_base_refused(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"base": 10**12, "phi": 10**12, "psi": 10**12, "B": 0}))
        w = weight_from_spec(f"custom:{path}")
        assert w.eval(1, 1) == 1
        # exponent() first: without the check it returns 10^12 + 1 instead of building 2^(10^12 + 1)
        with pytest.raises(ValueError, match="ceiling"):
            w.exponent(1, 2)
        with pytest.raises(ValueError, match="ceiling"):
            w.eval(1, 2)

    @pytest.mark.parametrize("formula", [
        "ell*2", 3, None, pytest.param(["ell"], id="list"), pytest.param("", id="empty"),
        "2ell", "1 2", "e ll", "ell+", "ell--1", "+-ell", "ell+x", "(ell)",
    ])
    def test_custom_bad_formula(self, tmp_path, formula):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({
            "base": 0, "phi": 0, "psi": 0, "B": 0,
            "overrides": {"2": formula},
        }))
        with pytest.raises(ValueError):
            weight_from_spec(f"custom:{path}")

    @pytest.mark.parametrize("args,message", [
        pytest.param((0, (), 5, -5, 0), "base has exponent ell, below phi(ell) = ell+5", id="phi-above-psi"),
        pytest.param((-2, (), -1, 1, 2), "base has exponent ell-2, below phi(ell) = ell-1", id="base"),
        pytest.param((0, ((2, 1, 1),), -1, 1, 2), "part 2 has exponent ell+1+alt, above psi(ell) = ell+1", id="part"),
        pytest.param((0, ((3, 0, -2),), -1, 1, 2), "part 3 has exponent ell-2*alt, below phi(ell) = ell-1",
                     id="part-alt"),
        pytest.param((0, (), -1, 1, 1), "B = 1 is below psi - phi = 2", id="B"),
    ])
    def test_a_family_outside_its_envelope_cannot_be_built(self, args, message):
        with pytest.raises(ValueError) as info:
            WeightFamily("direct", *args)
        assert str(info.value) == f"weight family 'direct': {message}"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            weight_from_spec("cubic")


@settings(max_examples=40, deadline=None)
@given(broken_weight_schemas())
@example(({"base": -1, "phi": -1, "psi": 1, "B": 2, "overrides": {"2": "ell+ell-1"}}, "override 2"))
@example(({"base": 0, "phi": 5, "psi": -5, "B": 0}, "base has exponent"))
@example(({"base": 0, "phi": -1, "psi": 1, "B": 2, "overrides": {"4": "ell-alt-alt"}}, "part 4 has exponent"))
@example(({"base": 0, "phi": -1, "psi": 1, "B": 1}, "B = "))
def test_files_outside_their_envelope_are_refused(broken):
    schema, name = broken
    with pytest.raises(ValueError, match=re.escape(name)) as info:
        weight_from_spec(_weight_file(schema))
    assert "\n" not in str(info.value)


_TERMS = st.one_of(st.sampled_from(["ell", "alt"]), st.integers(0, 10**12).map(str))
_SPACE = st.sampled_from(["", " ", "  "])


@st.composite
def _formulas(draw):
    """Exponent formulas from the grammar, in a form Python also evaluates."""
    terms = draw(st.lists(_TERMS, min_size=1, max_size=8))
    parts = [draw(_SPACE), draw(st.sampled_from(["", "+", "-"])), draw(_SPACE), terms[0]]
    for term in terms[1:]:
        parts += [draw(_SPACE), draw(st.sampled_from("+-")), draw(_SPACE), term]
    return "".join(parts + [draw(_SPACE)])


@given(_formulas())
def test_formula_linear_form_matches_python(formula):
    a, b, c = _linear_form(formula, "test")
    for ell in range(1, 6):
        alt = (-1) ** ell
        assert a * ell + b + c * alt == eval(formula, {}, {"ell": ell, "alt": alt})


@st.composite
def failing_families(draw, ceiling=MAX_WEIGHT_BITS):
    """Weight families inside their envelope whose weights may be invalid at some ell <= 45: each
    override's exponent is near 0, so it can go negative at ell 1 or 2, or within 45 steps of the
    exponent at which its part passes a weight ceiling of `ceiling` bits."""
    base = draw(st.integers(-3, 1))
    overrides = []
    for n in sorted(draw(st.lists(st.integers(2, 40), unique=True, max_size=3))):
        b = draw(st.one_of(st.integers(-4, 2), st.integers(0, 45).map(lambda k: ceiling // n.bit_length() - k)))
        overrides.append((n, b, draw(st.integers(-2, 2))))
    phi = min([base] + [b - abs(c) for _, b, c in overrides])
    psi = max([base] + [b + abs(c) for _, b, c in overrides])
    return WeightFamily("drawn", base, tuple(overrides), phi, psi, psi - phi)


def _ell_sets():
    """Ascending ells: a range, or any set of them."""
    return st.one_of(st.builds(lambda lo, k: range(lo, lo + k), st.integers(1, 5), st.integers(0, 45)),
                     st.lists(st.integers(1, 45), unique=True).map(sorted))


def _failure(w, ell, parts):
    """exponent's message at the first of parts whose weight at ell is invalid, or None."""
    for n in parts:
        try:
            w.exponent(ell, n)
        except ValueError as exc:
            return str(exc)
    return None


@st.composite
def _parts_of(draw, w):
    """Some parts, in any order, with every part w overrides among them."""
    drawn = draw(st.lists(st.integers(2, 40), unique=True, max_size=4))
    return draw(st.permutations(sorted(set(drawn) | {n for n, _, _ in w.overrides})))


@settings(max_examples=200, deadline=None)
@given(failing_families().flatmap(lambda w: st.tuples(st.just(w), _ell_sets(), _parts_of(w))))
# part 3 passes the ceiling from ell 6 on; of the ends 1, 2, 39 and 40 the least to fail is 39
@example((WeightFamily("drawn", -1, ((3, 524283, 0),), -1, 524283, 524284), range(1, 41), [2, 3]))
# part 3's exponent is -1 at ell 2 and ell + 3 at odd ell
@example((WeightFamily("drawn", -1, ((3, 0, -3),), -3, 3, 6), range(1, 41), [3]))
def test_check_raises_exactly_when_some_ell_fails_at_its_least_failing_end(case):
    w, ells, parts = case
    failing = [ell for ell in ells if _failure(w, ell, parts)]
    ends = sorted({f(same) for parity in (0, 1) if (same := [ell for ell in ells if ell % 2 == parity])
                   for f in (min, max)})
    if not failing:
        w.check(ells, parts)
        return
    message = next(filter(None, (_failure(w, ell, parts) for ell in ends)))
    with pytest.raises(ValueError) as info:
        w.check(ells, parts)
    assert str(info.value) == message


def test_check_reads_a_range_at_its_ends_only():
    # 10^9 rows: a pass over them would take minutes
    w = weight_from_spec("power")
    with pytest.raises(ValueError, match=r"^f_999999999\(2\) = 2\^999999998 may exceed"):
        w.check(range(1, 10**9 + 1), (2, 3))
    w.check(range(1, 500_001), (2, 3))
