import hashlib
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerprod import (
    MaxProdTable,
    a_ratio,
    classify_pipeline,
    exceptions_from_spec,
    next_allowed,
    q_value,
    weight_from_spec,
)
from eulerprod import classify, cli, maxprod
from eulerprod.classify import (
    CONDITIONAL,
    EVENTUALLY_CONCAVE,
    EVENTUALLY_CONVEX,
    MECH_TABLE,
    UNKNOWN,
    ZERO,
    Prediction,
    _a_ratio,
    _basic,
    _pipeline_columns,
    classify_delta_branch,
    classify_refined,
    delta_branch_n_bound,
    theorem_table,
)
from eulerprod.model import member
from eulerprod.qseries import g_table
from test_maxprod import exception_specs
from test_qseries import WEIGHT_SPECS

E0 = exceptions_from_spec("none")
E4 = exceptions_from_spec("4")
E24 = exceptions_from_spec("2,4")
S13 = exceptions_from_spec("support:1,3")


class TestQuotient:
    @pytest.mark.parametrize("espec,n,expected", [
        ("4", 6, Fraction(9, 8)),
        ("none", 7, Fraction(8, 9)),
        ("none", 5, Fraction(1)),
        ("2,4", 6, Fraction(9, 5)),
        ("2,4", 7, Fraction(3, 5)),
        ("support:1,3", 9, Fraction(3)),
        ("support:1,3", 7, Fraction(1)),
        ("3", 6, Fraction(32, 25)),
    ])
    def test_values(self, espec, n, expected):
        qv = q_value(exceptions_from_spec(espec), n)
        assert qv.q == expected

    def test_relation_strings(self):
        assert q_value(E24, 6).relation == "greater-than-1"
        assert q_value(E24, 7).relation == "less-than-1"
        assert q_value(E0, 5).relation == "equal-1"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            q_value(E0, 0)


def basic(E, n):
    return _basic(MaxProdTable(E, n + 1), n)


class TestBasic:
    def test_decides_when_quotient_leaves_one(self):
        p = basic(E24, 6)
        assert p.verdict == EVENTUALLY_CONCAVE and p.detail["q"] == Fraction(9, 5)
        p = basic(E24, 7)
        assert p.verdict == EVENTUALLY_CONVEX

    def test_open_when_quotient_ties(self):
        assert basic(E0, 5).verdict == UNKNOWN


class TestARatio:
    def test_published_ratio_shape(self):
        ar = a_ratio(E4, 8)
        assert ar.ratio == Fraction(3)
        assert ar.hypotheses.all_hold()

    def test_tie_at_one_detected(self):
        ar = a_ratio(S13, 7)
        assert ar.ratio == Fraction(2)
        assert not ar.hypotheses.strict_growth
        assert ar.hypotheses.balanced

    def test_multi_maximizer_below(self):
        ar = a_ratio(E0, 8)
        h = ar.hypotheses
        assert h.strict_growth and h.unique_at and h.unique_above
        assert not h.unique_below and not h.balanced

    def test_needs_room(self):
        with pytest.raises(ValueError):
            a_ratio(E0, 1)


class TestRefined:
    def test_concave_family(self):
        for n in (5, 8, 11, 14):
            p = classify_refined(E4, n)
            assert p.verdict == EVENTUALLY_CONCAVE
            assert p.mechanism == "a-criterion"
            assert p.detail["ratio"] == Fraction(2 * (n + 1), n - 2)

    def test_requires_quotient_tie(self):
        with pytest.raises(ValueError):
            classify_refined(E24, 6)

    def test_unmet_hypotheses_stay_open(self):
        assert classify_refined(S13, 7).verdict == UNKNOWN

    def test_delegates_full_support_case(self):
        p = classify_refined(E0, 8)
        assert p.verdict == CONDITIONAL and p.mechanism == "delta-branch"
        probes = dict(p.detail["probes"])
        assert probes[10] == Fraction(2099202, 1050625)


class TestDeltaBranch:
    def test_probe_values_power(self):
        p = classify_delta_branch(E0, 8, weight_from_spec("power"), range(1, 5))
        probes = dict(p.detail["probes"])
        assert probes[1] == Fraction(14, 9)
        assert probes[2] == Fraction(42, 25)
        assert p.detail["trend"] == "increasing"
        assert not p.detail["oscillates"]
        assert "n_bound_at_last" in p.detail

    def test_alternating_weights_oscillate(self):
        p = classify_delta_branch(E0, 8, weight_from_spec("example2"), range(1, 9))
        assert p.detail["oscillates"] and p.detail["trend"] == "oscillating"

    def test_validation(self):
        w = weight_from_spec("power")
        with pytest.raises(ValueError):
            classify_delta_branch(E4, 8, w, range(1, 3))
        with pytest.raises(ValueError):
            classify_delta_branch(E0, 7, w, range(1, 3))
        with pytest.raises(ValueError):
            classify_delta_branch(E0, 8, w, [])

    @settings(max_examples=60, deadline=None)
    @given(espec=st.sampled_from(["none", "5", "6,7", "multiples:5"]), wspec=WEIGHT_SPECS,
           ells=st.lists(st.integers(1, 30), min_size=1, max_size=6))
    def test_probes_match_the_g_tables_of_every_set(self, espec, wspec, ells):
        # the probes are shared by the weight family across sets that allow 2, 3 and 4
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        expected = []
        for ell in ells:
            g = g_table(E, w, ell, 4).values
            expected.append((ell, Fraction(2 * g[4], g[2] ** 2)))
        assert classify_delta_branch(E, 8, w, iter(ells)).detail["probes"] == tuple(expected)

    def test_a_failed_probe_is_not_remembered(self, tmp_path):
        path = tmp_path / "weights.json"
        # f_ell(4) = 4^(ell - 5): the probes at ell 5..7 succeed and the one at ell 4 after them fails
        path.write_text('{"base": -1, "phi": -5, "psi": 0, "B": 5, "overrides": {"4": "ell-5"}}')
        w = weight_from_spec(f"custom:{path}")
        for _ in range(3):
            with pytest.raises(ValueError, match=r"negative exponent -1 for f_4\(4\)"):
                classify_delta_branch(E0, 8, w, (5, 6, 7, 4))
        assert [ell for ell, _ in classify_delta_branch(E0, 8, w, (5, 6, 7)).detail["probes"]] == [5, 6, 7]
        with pytest.raises(ValueError, match="negative exponent"):
            classify_delta_branch(E0, 8, w, (5, 6, 7, 4))

    def test_probes_are_tabled_once_per_family(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return g_table(*args)

        monkeypatch.setattr(classify, "g_table", counting)
        classify._probe_detail.cache_clear()
        power, example2 = weight_from_spec("power"), weight_from_spec("example2")
        for E in (E0, exceptions_from_spec("5"), exceptions_from_spec("6,7")):
            _pipeline_columns(E, [8, 11, 14], power, range(1, 4))
        assert len(calls) == 3
        _pipeline_columns(E0, [8], example2, range(1, 4))
        _pipeline_columns(E0, [8], power, range(1, 5))
        assert len(calls) == 10
        # one entry is kept: going back to an earlier pair recomputes it, once per call
        _pipeline_columns(E0, [8, 11, 14], example2, range(1, 4))
        assert len(calls) == 13

    def test_n_bound(self):
        assert delta_branch_n_bound(2) == 8
        assert delta_branch_n_bound(Fraction(3, 2)) == 14
        with pytest.raises(ValueError):
            delta_branch_n_bound(1)


class TestTheoremTable:
    @pytest.mark.parametrize("espec,n,verdict", [
        ("none", 9, EVENTUALLY_CONCAVE),
        ("none", 7, EVENTUALLY_CONVEX),
        ("none", 8, CONDITIONAL),
        ("4", 8, EVENTUALLY_CONCAVE),
        ("3", 8, EVENTUALLY_CONCAVE),
        ("3", 9, EVENTUALLY_CONVEX),
        ("3,5", 10, EVENTUALLY_CONCAVE),
        ("2,4", 6, EVENTUALLY_CONCAVE),
        ("2,4", 8, EVENTUALLY_CONVEX),
        ("2,4", 7, EVENTUALLY_CONVEX),
        ("powers:2", 9, EVENTUALLY_CONCAVE),
        ("powers:2", 7, EVENTUALLY_CONVEX),
        ("powers:3", 7, EVENTUALLY_CONVEX),
        ("powers:3", 8, EVENTUALLY_CONCAVE),
        ("support:1,3", 7, ZERO),
        ("support:1,3", 9, EVENTUALLY_CONCAVE),
        ("support:1,3", 8, EVENTUALLY_CONVEX),
        ("support:1,3,4", 26, EVENTUALLY_CONVEX),
        ("support:1,3,4", 27, EVENTUALLY_CONCAVE),
        ("2", 30, EVENTUALLY_CONCAVE),
        ("2,3", 68, EVENTUALLY_CONCAVE),
        ("2,3", 71, EVENTUALLY_CONVEX),
    ])
    def test_verdicts(self, espec, n, verdict):
        assert theorem_table(exceptions_from_spec(espec), n).verdict == verdict

    @pytest.mark.parametrize("espec,n", [
        ("none", 2),
        ("3", 4),
        ("2,4", 3),
        ("2,4,5", 7),
        ("support:1,3,4", 25),
        ("2,3", 67),
        ("support:1,3,7", 13),
    ])
    def test_open_cases(self, espec, n):
        assert theorem_table(exceptions_from_spec(espec), n).verdict == UNKNOWN

    def test_parts_above_n_plus_1_are_not_read(self):
        # with 2 and 3 excluded the pair 4, 5 lies beyond n = 2, so no case applies yet
        E23 = exceptions_from_spec("2,3")
        assert theorem_table(E23, 2).detail == {"note": "configuration not covered by the table"}
        assert "below the stated range" in theorem_table(E23, 3).detail["note"]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theorem_table(E0, 0)

    @settings(max_examples=100, deadline=None)
    @given(exception_specs())
    def test_decided_rows_agree_with_the_quotient(self, espec):
        # wherever Q(n) != 1 decides the column, a table verdict must be the same one
        E = exceptions_from_spec(espec)
        table = MaxProdTable(E, 61)
        for n in range(1, 61):
            stated, basic = theorem_table(E, n), _basic(table, n)
            if (stated.mechanism == MECH_TABLE and stated.verdict in (EVENTUALLY_CONCAVE, EVENTUALLY_CONVEX)
                    and basic.verdict != UNKNOWN):
                assert stated.verdict == basic.verdict, (espec, n, stated, basic.detail["q"])


class TestPipeline:
    def test_table_precedence(self):
        p = classify_pipeline(E24, 6)
        assert p.verdict == EVENTUALLY_CONCAVE and p.mechanism == "theorem-table"

    def test_quotient_when_table_silent(self):
        p = classify_pipeline(exceptions_from_spec("2,3"), 5)
        assert p.verdict == EVENTUALLY_CONCAVE and p.mechanism == "q-criterion"
        assert p.detail["q"] == Fraction(25, 24)

    def test_conditional_falls_through_to_probes(self):
        p = classify_pipeline(E0, 8)
        assert p.verdict == CONDITIONAL and p.mechanism == "delta-branch"
        assert "probes" in p.detail

    def test_one_shot_probe_ells_serve_every_column(self):
        out = _pipeline_columns(E0, [8, 11, 14], weight_from_spec("power"), iter([1, 2, 3]))
        for n in (8, 11, 14):
            assert out[n].mechanism == "delta-branch"
            assert [ell for ell, _ in out[n].detail["probes"]] == [1, 2, 3]

    def test_open_configuration_stays_open(self):
        p = classify_pipeline(exceptions_from_spec("2,4,5"), 7)
        assert p.verdict == UNKNOWN

    @settings(max_examples=40, deadline=None)
    @given(spec=exception_specs(), order=st.permutations(range(1, 41)))
    def test_shuffled_columns_match_one_fresh_table(self, spec, order):
        # column by column the shared table regrows and is read at every horizon it passes through
        E = exceptions_from_spec(spec)
        with mock.patch.dict(maxprod._shared, clear=True):
            expected = _pipeline_columns(E, range(1, 41), None)
        with mock.patch.dict(maxprod._shared, clear=True):
            assert {n: classify_pipeline(E, n) for n in order} == expected

    @settings(max_examples=100, deadline=None)
    @given(exception_specs())
    def test_conditional_columns_have_the_delta_branch_shape(self, espec):
        # the refined path sends every such column to the probes on the set's facts alone, which
        # stands in for this shape: a quotient tie, one maximizer at n and n + 1, two at n - 1
        E = exceptions_from_spec(espec)
        table = MaxProdTable(E, 121 + classify._GROWTH_GUARD)
        allows_2_3_4 = not any(member(E, m) for m in (2, 3, 4))
        for n in range(1, 121):
            conditional = allows_2_3_4 and n % 3 == 2 and n >= 5
            assert (theorem_table(E, n).verdict == CONDITIONAL) == conditional, (espec, n)
            if conditional:
                assert _basic(table, n).detail["q"] == 1, (espec, n)
                h = _a_ratio(table, n).hypotheses
                assert h.strict_growth and h.unique_at and h.unique_above and not h.unique_below, (espec, n)
                assert len(table.maximizers(n - 1)) == 2, (espec, n)

    @pytest.mark.usefixtures("empty_shared_tables")
    def test_open_columns_never_build_runner_ups(self, monkeypatch):
        built = []
        init = MaxProdTable.__init__

        def recording(self, E, n_max):
            built.append(self)
            init(self, E, n_max)

        monkeypatch.setattr(MaxProdTable, "__init__", recording)
        for espec, n, mechanism in (("none", 8, "delta-branch"), ("2,3,4", 11, "a-criterion"),
                                    ("2,3", 5, "q-criterion"), ("2,4,5", 7, "none")):
            assert classify_pipeline(exceptions_from_spec(espec), n).mechanism == mechanism
        assert len(built) == 4
        assert all("second" not in vars(table) for table in built)


def reference_theorem_table(E, n):
    """The theorem table as a per-column scan: every fact of E is read again with member at each n."""
    def in_S(m):
        return not member(E, m)

    s2, s3, s4, s5 = in_S(2), in_S(3), in_S(4), in_S(5)
    if s3 and all(member(E, m) for m in range(2, n + 2) if m != 3) and n % 3 == 1:
        return Prediction(ZERO, "s13-identity", {
            "case": "support {1,3}",
            "rule": "coefficients repeat in blocks of three, difference vanishes at n = 1 mod 3"})
    if s2 and s3:
        if n < 3:
            return Prediction(UNKNOWN, "none", {"note": "below the stated range n >= 3"})
        if n % 3 == 0:
            return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE, {"case": "1,2,3 allowed", "rule": "n = 0 mod 3"})
        if n % 3 == 1:
            return Prediction(EVENTUALLY_CONVEX, MECH_TABLE, {"case": "1,2,3 allowed", "rule": "n = 1 mod 3"})
        if not s4:
            return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE,
                              {"case": "1,2,3 allowed, 4 excluded", "rule": "n = 2 mod 3"})
        return Prediction(CONDITIONAL, MECH_TABLE, {
            "case": "1,2,3,4 allowed", "rule": "n = 2 mod 3",
            "note": "sign depends on the weight family; see the branch analysis"})
    if s2:
        if n < 5:
            return Prediction(UNKNOWN, "none", {"note": "below the stated range n >= 5"})
        if n % 2 == 0:
            return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE, {"case": "1,2 allowed, 3 excluded", "rule": "even n"})
        return Prediction(EVENTUALLY_CONVEX, MECH_TABLE, {"case": "1,2 allowed, 3 excluded", "rule": "odd n"})
    if s3 and not s4:
        if n % 3 != 1:
            if n < 4:
                return Prediction(UNKNOWN, "none", {"note": "below the stated range n >= 4"})
            if n % 3 == 0:
                return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE,
                                  {"case": "1,3 allowed, 2,4 excluded", "rule": "n = 0 mod 3"})
            return Prediction(EVENTUALLY_CONVEX, MECH_TABLE,
                              {"case": "1,3 allowed, 2,4 excluded", "rule": "n = 2 mod 3"})
        if s5:
            if n < 4:
                return Prediction(UNKNOWN, "none", {"note": "below the stated range n >= 4"})
            return Prediction(EVENTUALLY_CONVEX, MECH_TABLE,
                              {"case": "1,3,5 allowed, 2,4 excluded", "rule": "n = 1 mod 3"})
        return Prediction(UNKNOWN, "none",
                          {"note": "2, 4 and 5 excluded with support beyond {1,3}: open configuration"})
    r = next_allowed(E, 1)
    if r is not None and r <= n + 1 and in_S(r + 1):
        start = (r * (r - 1) * (3 * r - 1) + 4) // 2
        if n < start:
            return Prediction(UNKNOWN, "none", {"note": f"below the stated range n >= {start}"})
        case = f"1,{r},{r + 1} allowed, 2..{r - 1} excluded"
        if n % r == r - 1:
            return Prediction(EVENTUALLY_CONVEX, MECH_TABLE, {"case": case, "rule": f"n = {r - 1} mod {r}"})
        return Prediction(EVENTUALLY_CONCAVE, MECH_TABLE, {"case": case, "rule": f"n != {r - 1} mod {r}"})
    return Prediction(UNKNOWN, "none", {"note": "configuration not covered by the table"})


class TestIntegerFastPath:
    """The per-set facts and the integer criteria against the per-column and Fraction forms they replace."""

    @settings(max_examples=60, deadline=None)
    @given(exception_specs())
    def test_matches_the_reference_forms(self, espec):
        E = exceptions_from_spec(espec)
        guard = classify._GROWTH_GUARD
        table = MaxProdTable(E, 81 + guard)
        best = table.best
        for n in range(1, 81):
            assert theorem_table(E, n) == reference_theorem_table(E, n), (espec, n)
            assert _basic(table, n).detail["q"] == Fraction(best[n] ** 2, best[n - 1] * best[n + 1])
            if n >= 2:
                ar = _a_ratio(table, n)
                a_below, a_at, a_above = (table.coefficient(m) for m in (n - 1, n, n + 1))
                assert ar.ratio == a_at ** 2 / (a_below * a_above), (espec, n)
                window = range(max(2, n - 1 - guard), n + 2 + guard)
                assert ar.hypotheses.strict_growth == all(best[m] > best[m - 1] for m in window), (espec, n)


# the 16 subsets of {2,3,4,5} and five sets with parts beyond them
PIN_SPECS = ("none", "2", "3", "4", "5", "2,3", "2,4", "2,5", "3,4", "3,5", "4,5", "2,3,4", "2,3,5",
             "2,4,5", "3,4,5", "2,3,4,5", "support:1,3", "support:1,3,4", "powers:2", "multiples:3", "2,4,5,8")
PIN_N = range(1, 121)
PIN_DIGEST = "e63a0eeae497f07a1f57aab21bea71c5fa5c2e4cd5d400eae4d30bc38756e660"


class TestAnswerPin:
    """Every classifier answer on 21 sets x 2 weight families x n 1..120, pinned by one digest."""

    def test_every_answer_keeps_its_bytes(self):
        digest = hashlib.sha256()
        for spec in PIN_SPECS:
            E = exceptions_from_spec(spec)
            for weights in ("power", "example2"):
                columns = _pipeline_columns(E, PIN_N, weight_from_spec(weights))
                for n in PIN_N:
                    digest.update(f"{spec}\t{weights}\t{n}\t{json.dumps(cli._jsonable(columns[n]))}\n".encode())
        assert digest.hexdigest() == PIN_DIGEST

    @pytest.mark.parametrize("spec,weights,n", [
        ("none", "power", 8), ("none", "example2", 119), ("2,4,5", "power", 7), ("2,3,4", "power", 11),
        ("2,3,4,5", "example2", 97), ("support:1,3", "power", 7), ("support:1,3,4", "example2", 26),
        ("2,4,5,8", "power", 120), ("powers:2", "example2", 1), ("multiples:3", "power", 50),
    ])
    def test_one_column_matches_the_batch(self, spec, weights, n):
        E, w = exceptions_from_spec(spec), weight_from_spec(weights)
        with mock.patch.dict(maxprod._shared, clear=True):
            alone = classify_pipeline(E, n, w)
        assert alone == _pipeline_columns(E, PIN_N, w)[n]
