from fractions import Fraction
from functools import lru_cache
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerprod import (
    MaxProdReport,
    MaxProdTable,
    closed_form_max,
    exceptions_from_spec,
    max_product,
    max_product_bruteforce,
    max_product_bruteforce_all,
    max_product_values,
)
from eulerprod import maxprod
from eulerprod.maxprod import SHARED_TABLES, PartitionMultiset, _coefficient, shared_table
from eulerprod.model import member
from eulerprod.suites import BATTERY, _closed_form_agrees


def _atom_lists(lo):
    return st.lists(st.integers(lo, 30), min_size=1, max_size=5).map(lambda a: ",".join(map(str, a)))


def exception_specs():
    """Spec strings over the whole grammar: atoms, powers:, multiples:, '+' unions and support:.

    Atoms from 5 up form a branch of their own: those sets allow 2, 3 and 4, the only
    configuration with delta-branch columns, which the other branches rarely draw.
    """
    token = st.one_of(_atom_lists(2), st.integers(2, 7).map("powers:{}".format),
                      st.integers(2, 9).map("multiples:{}".format))
    unions = st.lists(token, min_size=1, max_size=3).map(" + ".join)
    supports = st.sets(st.integers(2, 40), max_size=6).map(
        lambda kept: "support:" + ",".join(map(str, [1, *sorted(kept)])))
    return st.one_of(st.sampled_from(BATTERY), unions, supports, _atom_lists(5))


def reference_reports(E, N):
    """The plain all-parts DP: best and runner-up over every allowed part, maximizers by walking every part."""
    parts = [s for s in range(1, N + 1) if not member(E, s)]
    best, second = [1], [0]
    for r in range(1, N + 1):
        products = [(s, s * best[r - s]) for s in parts if s <= r]
        best.append(max(v for _, v in products))
        second.append(max(v if v < best[r] else s * second[r - s] for s, v in products))

    @lru_cache(maxsize=None)
    def walk(r, cap):
        if r == 0:
            return ((),)
        return tuple((s, *rest) for s in parts if s <= min(r, cap) and s * best[r - s] == best[r]
                     for rest in walk(r - s, s))

    reports = []
    for n in range(N + 1):
        maximizers = tuple(PartitionMultiset(p) for p in sorted(walk(n, n)))
        coefficient = sum((m.ordering_coefficient() for m in maximizers), Fraction(0))
        reports.append(MaxProdReport(n, best[n], maximizers, len(maximizers) == 1,
                                     coefficient, second[n] or None))
    return reports


class TestPartitionMultiset:
    def test_of_sorts_descending(self):
        m = PartitionMultiset.of([2, 5, 3])
        assert m.parts == (5, 3, 2)
        assert m.total == 10 and m.product == 30 and m.part_count == 3

    def test_multiplicities(self):
        m = PartitionMultiset.of([3, 3, 2])
        assert m.multiplicities() == {3: 2, 2: 1}
        assert m.ordering_coefficient() == Fraction(1, 2)

    def test_empty(self):
        m = PartitionMultiset.of([])
        assert m.product == 1 and m.total == 0
        assert m.ordering_coefficient() == 1


def parts_of(report):
    return [m.parts for m in report.maximizers]


class TestMaxProduct:
    def test_unrestricted_six(self):
        r = max_product(exceptions_from_spec("none"), 6)
        assert r.product == 9 and parts_of(r) == [(3, 3)]
        assert r.unique and r.coefficient == Fraction(1, 2)
        assert r.second_product == 8

    def test_unrestricted_seven_ties(self):
        r = max_product(exceptions_from_spec("none"), 7)
        assert r.product == 12 and parts_of(r) == [(3, 2, 2), (4, 3)]
        assert not r.unique
        assert r.coefficient == Fraction(1, 2) + 1

    def test_odd_parts_only(self):
        r = max_product(exceptions_from_spec("2,4"), 8)
        assert r.product == 15 and parts_of(r) == [(5, 3)]
        assert r.second_product == 9

    def test_four_excluded(self):
        r = max_product(exceptions_from_spec("4"), 8)
        assert r.product == 18 and parts_of(r) == [(3, 3, 2)]
        assert r.coefficient == Fraction(1, 2) and r.second_product == 16
        r = max_product(exceptions_from_spec("4"), 9)
        assert r.product == 27 and r.second_product == 24

    def test_sparse_supports(self):
        assert max_product(exceptions_from_spec("support:1,3,4"), 25).product == 8748
        r = max_product(exceptions_from_spec("support:1,2,5"), 7)
        assert r.product == 10 and parts_of(r) == [(5, 2)]
        r = max_product(exceptions_from_spec("support:1,4,8"), 9)
        assert r.product == 16 and parts_of(r) == [(4, 4, 1)]

    def test_runner_up_far_below(self):
        r = max_product(exceptions_from_spec("2,4,5"), 4)
        assert r.product == 3 and parts_of(r) == [(3, 1)]
        assert r.second_product == 1

    def test_zero_and_negative(self):
        r = max_product(exceptions_from_spec("none"), 0)
        assert r.product == 1 and parts_of(r) == [()] and r.second_product is None
        with pytest.raises(ValueError):
            max_product(exceptions_from_spec("none"), -1)

    def test_values_agree_with_reports(self):
        E = exceptions_from_spec("3,5")
        values = max_product_values(E, 12)
        for n in range(13):
            assert values[n] == max_product(E, n).product

    def test_second_max_helper(self):
        E = exceptions_from_spec("none")
        assert max_product(E, 6).second_product == 8
        assert max_product(E, 1).second_product is None

    def test_deep_chain_single_part(self):
        r = max_product(exceptions_from_spec("support:1"), 2000)
        assert r.product == 1 and parts_of(r) == [(1,) * 2000]
        assert r.second_product is None

    def test_deep_chain_dead_ends(self):
        # at every odd remainder both 1 and 2 lead; only the last 1 is not a dead end
        r = max_product(exceptions_from_spec("support:1,2"), 2001)
        assert r.product == 2 ** 1000 and parts_of(r) == [(2,) * 1000 + (1,)]
        assert r.second_product == 2 ** 999


class TestMaxProdTable:
    def test_report_range(self):
        table = MaxProdTable(exceptions_from_spec("none"), 5)
        for n in (-1, 6):
            with pytest.raises(ValueError):
                table.report(n)
        with pytest.raises(ValueError):
            MaxProdTable(exceptions_from_spec("none"), -1)

    @pytest.mark.parametrize("N", [4, 5, 30, 206])
    def test_unrestricted_leads(self, N):
        assert MaxProdTable(exceptions_from_spec("none"), N).leads == (1, 2, 3, 4)

    @pytest.mark.parametrize("espec,leads", [
        ("2,4", (1, 3, 5)), ("2,3,4", (1, 5, 6, 7, 8, 9)), ("support:1,3", (1, 3))])
    def test_leads_after_exceptions(self, espec, leads):
        assert MaxProdTable(exceptions_from_spec(espec), 60).leads == leads

    def test_runner_ups_only_on_demand(self):
        table = MaxProdTable(exceptions_from_spec("none"), 30)
        table.maximizers(30)
        assert "second" not in vars(table)
        assert table.report(6).second_product == 8 and "second" in vars(table)

    @settings(max_examples=40, deadline=None)
    @given(spec=exception_specs(), N=st.integers(0, 150))
    def test_equals_the_all_parts_reference(self, spec, N):
        E = exceptions_from_spec(spec)
        table, reference = MaxProdTable(E, N), reference_reports(E, N)
        assert table.best == tuple(r.product for r in reference)
        assert set(table.leads) <= set(table.parts)
        for n in range(N + 1):
            assert table.maximizers(n) == reference[n].maximizers
            assert table.report(n) == reference[n]

    @settings(max_examples=100, deadline=None)
    @given(spec=exception_specs())
    def test_spec_text_round_trips(self, spec):
        E = exceptions_from_spec(spec)
        assert exceptions_from_spec(E.spec_text) == E

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_prefix_agrees_with_bruteforce(self, data):
        E = exceptions_from_spec(data.draw(exception_specs()))
        N = data.draw(st.integers(0, 40))
        n = data.draw(st.integers(0, min(N, 28)))
        table = MaxProdTable(E, N)
        assert table.report(n) == max_product_bruteforce(E, n)
        assert table.best[:n + 1] == max_product_values(E, n)

    @settings(max_examples=60, deadline=None)
    @given(spec=exception_specs(), N=st.integers(0, 24))
    def test_walk_equals_the_all_parts_reference(self, spec, N):
        # the walk over parts >= 2 padded with ones against the plain DP, with no table in between
        E = exceptions_from_spec(spec)
        assert max_product_bruteforce_all(E, N) == tuple(reference_reports(E, N))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_table_and_one_walk_serve_every_target(self, data):
        E = exceptions_from_spec(data.draw(exception_specs()))
        N = data.draw(st.integers(0, 28))
        table, walk = MaxProdTable(E, N), max_product_bruteforce_all(E, N)
        assert len(walk) == N + 1
        for n in range(N + 1):
            assert table.report(n) == max_product(E, n)
            assert walk[n] == max_product_bruteforce(E, n)

    @settings(max_examples=80, deadline=None)
    @given(spec=exception_specs(), N=st.integers(0, 120))
    def test_coefficient_column_matches_the_maximizer_sums(self, spec, N):
        # the lead recurrence against two sums over enumerated maximizers: the table's and the brute force's
        E = exceptions_from_spec(spec)
        table, walk = MaxProdTable(E, N), max_product_bruteforce_all(E, 28)
        most_parts, _ = table._coefficient_column
        assert len(most_parts) == N + 1
        for n in range(N + 1):
            assert table.coefficient(n) == _coefficient(table.maximizers(n))
            assert most_parts[n] == max(m.part_count for m in table.maximizers(n))
            if n <= 28:
                assert table.coefficient(n) == walk[n].coefficient
        for n in range(1, N):
            a = table.coefficient
            assert table.coefficient_ratio(n) == a(n) ** 2 / (a(n - 1) * a(n + 1))

    def test_coefficient_column_on_a_chain(self):
        # with 3 excluded the maximizers of 4 are 4 and 2+2 (1 + 1/2!), those of 8 are 4+4, 4+2+2
        # and 2+2+2+2 (1/2! + 1/2! + 1/4!), kept as 4! A(8) = 25; the column is built on first use
        table = MaxProdTable(exceptions_from_spec("3"), 8)
        assert "_coefficient_column" not in vars(table)
        assert [table.coefficient(n) for n in range(5)] == [1, 1, 1, 1, Fraction(3, 2)]
        assert table.coefficient(8) == Fraction(25, 24)
        most_parts, scaled = table._coefficient_column
        assert (most_parts[8], scaled[8]) == (4, 25)
        for n in (-1, 9):
            with pytest.raises(ValueError):
                table.coefficient(n)
        # A(4)^2 / (A(3) A(5)) = (3/2)^2 / (1 * 1), and the ratio needs both neighbours
        assert table.coefficient_ratio(4) == Fraction(9, 4)
        for n in (0, 8):
            with pytest.raises(ValueError):
                table.coefficient_ratio(n)

    def test_coefficient_with_a_factorial_denominator(self):
        # with 2, 4 and 5 excluded the maximizers of 3k, 3k + 1 and 3k + 2 are 3^k, 3^k 1 and 3^k 1 1
        table = MaxProdTable(exceptions_from_spec("2,4,5"), 3002)
        assert table.coefficient(3000) == table.coefficient(3001) == Fraction(1, factorial(1000))
        assert table.coefficient(3002) == Fraction(1, 2 * factorial(1000))


class TestSharedTable:
    @settings(max_examples=60, deadline=None)
    @given(spec=exception_specs(), targets=st.lists(st.integers(0, 60), min_size=1, max_size=12))
    def test_any_query_order_matches_a_fresh_table(self, spec, targets):
        # targets in random order regrow the table and revisit remembered walks
        E = exceptions_from_spec(spec)
        brute = max_product_bruteforce_all(E, 28)
        with mock.patch.dict(maxprod._shared, clear=True):
            for n in targets:
                table = shared_table(E, n)
                assert table.n_max >= n
                assert table.maximizers(n) == MaxProdTable(E, n).maximizers(n)
                if n <= 28:
                    assert table.report(n) == brute[n]

    @pytest.mark.usefixtures("empty_shared_tables")
    def test_regrowth_doubles_the_horizon(self):
        E = exceptions_from_spec("2,4")
        table = shared_table(E, 10)
        assert table.n_max == 10 and shared_table(E, 7) is table
        assert shared_table(E, 11).n_max == 20
        assert shared_table(E, 50).n_max == 50

    @pytest.mark.usefixtures("empty_shared_tables")
    def test_keeps_the_most_recent_sets(self):
        specs = ["none", "2", "3", "4", "5", "2,4", "2,4,5", "2,3,4", "support:1,3"]
        for spec in specs:
            shared_table(exceptions_from_spec(spec), 12)
        assert len(maxprod._shared) == SHARED_TABLES == 8
        assert list(maxprod._shared) == [exceptions_from_spec(s) for s in specs[1:]]

    def test_walk_remembers_only_what_was_asked(self):
        # 3 excluded: 2+2 and 4 swap freely, a chain of 101 maximizers at 400
        table = MaxProdTable(exceptions_from_spec("3"), 400)
        assert len(table.maximizers(400)) == 101
        assert list(table._known) == [400] and len(table._known[400]) == 101


class TestBruteForce:
    @pytest.mark.parametrize("espec", ["none", "2,4", "powers:2", "support:1,3"])
    def test_agrees_with_dp(self, espec):
        E = exceptions_from_spec(espec)
        for n in range(16):
            assert max_product(E, n) == max_product_bruteforce(E, n), (espec, n)

    def test_refuses_large_targets(self):
        with pytest.raises(ValueError):
            max_product_bruteforce(exceptions_from_spec("none"), 31)
        for n_max in (-1, 31):
            with pytest.raises(ValueError):
                max_product_bruteforce_all(exceptions_from_spec("none"), n_max)

    def test_walk_from_the_empty_partition(self):
        walk = max_product_bruteforce_all(exceptions_from_spec("none"), 0)
        assert len(walk) == 1 and walk[0].product == 1 and parts_of(walk[0]) == [()]
        assert walk[0].second_product is None


class TestClosedForms:
    def test_three_blocks_without_four(self):
        r = closed_form_max(exceptions_from_spec("4"), 10)
        assert r.product == 36 and parts_of(r) == [(3, 3, 2, 2)] and r.unique

    def test_three_blocks_with_four_tie(self):
        r = closed_form_max(exceptions_from_spec("none"), 7)
        assert r.product == 12 and parts_of(r) == [(3, 2, 2), (4, 3)]

    def test_four_chain_with_five(self):
        r = closed_form_max(exceptions_from_spec("3"), 9)
        assert r.product == 20 and parts_of(r) == [(5, 2, 2), (5, 4)]

    def test_four_chain_without_five(self):
        r = closed_form_max(exceptions_from_spec("3,5"), 9)
        assert r.product == 16
        assert parts_of(r) == [(2, 2, 2, 2, 1), (4, 2, 2, 1), (4, 4, 1)]

    def test_five_over_two(self):
        r = closed_form_max(exceptions_from_spec("3,4"), 9)
        assert r.product == 20 and parts_of(r) == [(5, 2, 2)]

    def test_twos_only(self):
        for spec in ("3,4,5", "support:1,2"):
            r = closed_form_max(exceptions_from_spec(spec), 9)
            assert r.product == 16 and parts_of(r) == [(2, 2, 2, 2, 1)]

    def test_isolated_blocks(self):
        r = closed_form_max(exceptions_from_spec("2,4,5"), 8)
        assert r.product == 9 and parts_of(r) == [(3, 3, 1, 1)]
        r = closed_form_max(exceptions_from_spec("support:1,4"), 9)
        assert r.product == 16 and parts_of(r) == [(4, 4, 1)]

    def test_consecutive_pair_beyond_threshold(self):
        E = exceptions_from_spec("2")
        assert closed_form_max(E, 23) is None
        assert closed_form_max(E, 24).product == 6561
        r = closed_form_max(E, 25)
        assert r.product == 8748 and parts_of(r) == [(4, 3, 3, 3, 3, 3, 3, 3)]
        assert closed_form_max(E, 26).product == 11664

    def test_uncovered_heads(self):
        assert closed_form_max(exceptions_from_spec("support:1,3,5"), 12) is None
        assert closed_form_max(exceptions_from_spec("2,3,5"), 12) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            closed_form_max(exceptions_from_spec("support:1,2"), 0)

    @settings(max_examples=100, deadline=None)
    @given(spec=exception_specs())
    def test_any_closed_form_agrees_with_the_table(self, spec):
        E = exceptions_from_spec(spec)
        table = MaxProdTable(E, 70)
        for n in range(1, 71):
            cf = closed_form_max(E, n)
            assert cf is None or _closed_form_agrees(cf, table, n), (spec, n)
        # the comparison reads no runner-up, so it builds no runner-up column
        assert "second" not in vars(table)
