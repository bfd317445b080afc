import csv
import io
import json
import multiprocessing
import os
import pickle
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerprod import (
    BudgetExceeded,
    MaxProdTable,
    classify_pipeline,
    coeffs_by_recurrence,
    default_predictions,
    delta,
    emit_grid,
    exceptions_from_spec,
    parse_grid_csv,
    row_signs,
    stabilization,
    sweep,
    weight_from_spec,
)
from eulerprod import harness, model
from eulerprod.harness import SignGrid, _worker_count
from eulerprod.qseries import LADDER_BITS
from eulerprod.suites import BATTERY
from test_maxprod import exception_specs
from test_model import failing_families
from test_qseries import WEIGHT_SPECS

POWER = weight_from_spec("power")
E24 = exceptions_from_spec("2,4")
S13 = exceptions_from_spec("support:1,3")


def small_grid():
    return sweep(S13, POWER, 3, 2)


@st.composite
def sign_grids(draw):
    """SignGrids of arbitrary signs, their ell range starting anywhere from 1 up."""
    n_max = draw(st.integers(1, 60))
    rows = draw(st.lists(st.tuples(*[st.sampled_from((-1, 0, 1))] * n_max), min_size=1, max_size=40))
    lo = draw(st.integers(1, 500))
    return SignGrid(E24, POWER, n_max, (lo, lo + len(rows) - 1), tuple(rows))


@pytest.fixture(scope="class")
def shared_pool():
    """One 2-worker pool for every example of a property test, instead of a pool per sweep.

    Class-scoped, so its workers are joined before the tests that assert no child is left.
    """
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


class BorrowedPool:
    """Stands in for the pool one pooled sweep builds: its shutdown cancels that sweep's rows, not the workers."""

    def __init__(self, pool):
        self.pool = pool
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(self.pool.submit(fn, *args))
        return self.futures[-1]

    def shutdown(self, cancel_futures):
        for future in self.futures:
            future.cancel()


class TestSweep:
    def test_cells_match_direct_computation(self):
        grid = sweep(E24, POWER, 10, 5)
        for ell in range(1, 6):
            table = coeffs_by_recurrence(E24, POWER, ell, 11)
            for n in range(1, 11):
                assert grid.sign(n, ell) == delta(table, n).sign

    def test_column_independence(self):
        grid = sweep(E24, POWER, 8, 6)
        for n in range(1, 9):
            column = grid.column(n)
            recomputed = tuple(
                delta(coeffs_by_recurrence(E24, POWER, ell, n + 1), n).sign
                for ell in range(1, 7))
            assert column == recomputed

    def test_parallel_matches_serial(self):
        serial = sweep(E24, POWER, 12, 6)
        parallel = sweep(E24, POWER, 12, 6, jobs=2)
        assert serial.signs == parallel.signs
        assert multiprocessing.active_children() == []

    def test_budget_raises_with_partial(self):
        with pytest.raises(BudgetExceeded) as info:
            # column 8 of E = none is never certified, so every row computes a prefix; the whole
            # sweep takes about 0.2 s
            sweep(exceptions_from_spec("none"), POWER, 40, 1000, budget_seconds=0.01)
        partial = info.value.partial
        assert partial.ell_range[0] == 1
        assert 1 <= partial.ell_range[1] < 1000
        assert len(partial.signs) == partial.ell_range[1]

    def test_serial_rows_are_not_built_up_front(self):
        # 500,000 tasks built up front would take tens of MB; from row 524,290 on, part 2's weight
        # passes the ceiling, and the sweep is refused
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as info:
                sweep(exceptions_from_spec("none"), POWER, 2, 500_000, budget_seconds=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(info.value.partial.signs) == 1
        assert peak < 1 << 20

    def test_pooled_rows_are_not_submitted_up_front(self):
        # on a one-core machine the pool is clamped to serial; the bound holds either way
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            sweep(exceptions_from_spec("none"), POWER, 2, 200000, jobs=2, budget_seconds=0)
        assert time.perf_counter() - start < 1
        assert len(info.value.partial.signs) == 1
        # the stop joins the workers instead of leaving them to run
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_stop_keeps_a_prefix(self, monkeypatch, jobs):
        full = sweep(E24, POWER, 30, 12, jobs=jobs)
        for stop in (1, 5, 11):
            seen = []
            # the clock passes the deadline once on_row has seen the stop-th row
            clock = SimpleNamespace(monotonic=lambda: 0.0 if len(seen) < stop else 2.0,
                                    perf_counter=time.perf_counter)
            with monkeypatch.context() as patch, pytest.raises(BudgetExceeded) as info:
                patch.setattr(harness, "time", clock)
                sweep(E24, POWER, 30, 12, jobs=jobs, budget_seconds=1,
                      on_row=lambda ell, bits, n_computed, seconds: seen.append(ell))
            partial = info.value.partial
            assert partial.ell_range == (1, stop)
            assert partial.signs == full.signs[:stop]
            assert seen == list(range(1, stop + 1))

    def test_pooled_row_error_joins_its_workers(self):
        class Stop(Exception):
            pass

        def on_row(ell, bits, n_computed, seconds):
            if ell == 3:
                raise Stop

        with pytest.raises(Stop):
            sweep(E24, POWER, 30, 12, jobs=2, on_row=on_row)
        assert multiprocessing.active_children() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(E24, POWER, 1, 5)
        with pytest.raises(ValueError):
            sweep(E24, POWER, 5, 0)
        for jobs in (0, -7):
            with pytest.raises(ValueError):
                sweep(E24, POWER, 5, 3, jobs=jobs)

    @pytest.mark.parametrize("budget", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ValueError, match="budget_seconds"):
            sweep(E24, POWER, 5, 3, budget_seconds=budget)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_row_reports_each_row_in_order(self, jobs):
        seen = []
        grid = sweep(E24, POWER, 50, 70, jobs=jobs,
                     on_row=lambda ell, bits, n_computed, seconds: seen.append((ell, bits, seconds)))
        assert [ell for ell, _, _ in seen] == list(range(1, 71))
        # rows 1..41 are below the route boundary; every bounded row is decided at the first rung
        assert [bits for _, bits, _ in seen] == [None] * 41 + [LADDER_BITS[0]] * 29
        assert all(seconds > 0 for _, _, seconds in seen)
        assert grid.signs == sweep(E24, POWER, 50, 70).signs

    def test_worker_count_clamps(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert _worker_count(1, 300) == 1
        assert _worker_count(64, 300) == 4
        assert _worker_count(64, 3) == 3
        for jobs in (0, -7):
            with pytest.raises(ValueError):
                _worker_count(jobs, 300)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _worker_count(64, 300) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(64, 300) == 1

    def test_cell_boundaries(self):
        grid = small_grid()
        with pytest.raises(IndexError):
            grid.sign(4, 1)
        with pytest.raises(IndexError):
            grid.sign(1, 3)
        with pytest.raises(IndexError):
            grid.column(0)


# a weight ceiling of 160 bits in place of 2^20 lets the ceiling fail by ell 40 on parts up to 31,
# while every row that passes it stays small enough to compute
_LOW_CEILING = 160


@settings(max_examples=100, deadline=None)
@given(exception_specs(), failing_families(_LOW_CEILING), st.integers(2, 30), st.integers(1, 40))
def test_weights_are_refused_before_row_1_exactly_when_some_row_refuses_them(espec, w, n_max, ell_max):
    E = exceptions_from_spec(espec)
    with mock.patch.object(model, "MAX_WEIGHT_BITS", _LOW_CEILING):
        errors = []
        for ell in range(1, ell_max + 1):
            try:
                row_signs(E, w, ell, n_max)
            except ValueError as exc:
                errors.append(str(exc))
        seen = []
        if not errors:
            sweep(E, w, n_max, ell_max, on_row=lambda *row: seen.append(row))
            assert len(seen) == ell_max
            return
        with pytest.raises(ValueError) as info:
            sweep(E, w, n_max, ell_max, on_row=lambda *row: seen.append(row))
    # the error of a failing row, one at an end of its parity
    assert str(info.value) in errors
    assert seen == []


class TestSharedPool:
    @settings(max_examples=30, deadline=None)
    @given(exception_specs(), WEIGHT_SPECS, st.integers(2, 40), st.integers(1, 60))
    # rows 42..117 of this one take the bounded route, and every column is certified by row 111
    @example(espec="2,4", wspec="power", n_max=50, ell_max=130)
    # the tie column 8 stays open while the columns past it are certified
    @example(espec="none", wspec="power", n_max=12, ell_max=60)
    def test_pooled_matches_serial_on_a_shared_pool(self, shared_pool, espec, wspec, n_max, ell_max):
        # certified cells are filled, not computed: every row still equals the full row, and the
        # pooled sweep computes the same prefix on the same route as the serial one
        E, w = exceptions_from_spec(espec), weight_from_spec(wspec)
        full = tuple(row_signs(E, w, ell, n_max)[1] for ell in range(1, ell_max + 1))
        seen = []
        with mock.patch("concurrent.futures.ProcessPoolExecutor", lambda max_workers: BorrowedPool(shared_pool)):
            pooled = sweep(E, w, n_max, ell_max, jobs=2,
                           on_row=lambda ell, bits, n_computed, seconds: seen.append((bits, n_computed)))
        serial = []
        assert pooled.signs == full
        assert sweep(E, w, n_max, ell_max,
                     on_row=lambda ell, bits, n_computed, seconds: serial.append((bits, n_computed))).signs == full
        assert seen == serial

    def test_zero_width_rows_never_reach_the_pool(self, shared_pool, monkeypatch, tmp_path):
        # the grid-wide shape: the odd rows from 35 and the even rows from 60 compute nothing
        # (54 of 100), so only the other 46 go to the pool
        path = tmp_path / "example2.json"
        path.write_text(json.dumps({"base": 0, "phi": -1, "psi": 1, "B": 2,
                                    "overrides": {"2": "ell+alt", "4": "ell-alt"}}))
        E3, w = exceptions_from_spec("3"), weight_from_spec(f"custom:{path}")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pools = []

        def borrow(max_workers):
            pools.append(BorrowedPool(shared_pool))
            return pools[-1]

        with mock.patch("concurrent.futures.ProcessPoolExecutor", borrow):
            pooled = sweep(E3, w, 200, 100, jobs=2)
        assert len(pools) == 1 and len(pools[0].futures) == 46
        assert pooled.signs == sweep(E3, w, 200, 100).signs


class TestStabilization:
    def test_zero_columns_for_sparse_support(self):
        grid = sweep(S13, POWER, 12, 6)
        rows = {r.n: r for r in stabilization(grid, default_predictions(grid))}
        for n in (1, 4, 7, 10):
            row = rows[n]
            assert row.terminal_sign == 0 and row.threshold == 1
            assert row.stabilized and row.predicted == "zero" and row.agrees

    def test_threshold_is_minimal(self):
        grid = sweep(E24, POWER, 20, 30)
        lo, hi = grid.ell_range
        for row in stabilization(grid, default_predictions(grid)):
            column = grid.column(row.n)
            assert all(s == row.terminal_sign for s in column[row.threshold - lo:])
            if row.threshold > lo:
                assert column[row.threshold - 1 - lo] != row.terminal_sign

    def test_unsettled_column_flagged(self):
        grid = SignGrid(E24, POWER, 2, (1, 3), ((1, 1), (1, -1), (1, 1)))
        rows = {r.n: r for r in stabilization(grid, {})}
        assert rows[2].threshold == 3 and not rows[2].stabilized
        assert rows[1].threshold == 1 and rows[1].stabilized
        assert rows[1].agrees is None and rows[1].predicted == "unknown"


def blank_grid(E, w, n_max):
    return SignGrid(E, w, n_max, (1, 1), ((0,) * n_max,))


class TestDefaultPredictions:
    @pytest.mark.parametrize("wspec", ["power", "example1", "example2"])
    def test_match_the_pipeline_column_by_column(self, wspec):
        w = weight_from_spec(wspec)
        for espec in BATTERY:
            E = exceptions_from_spec(espec)
            expected = {n: classify_pipeline(E, n, w) for n in range(1, 61)}
            assert default_predictions(blank_grid(E, w, 60)) == expected, espec

    @pytest.mark.usefixtures("empty_shared_tables")
    def test_one_max_product_table_per_grid(self, monkeypatch):
        built = []
        init = MaxProdTable.__init__

        def counting(self, E, n_max):
            built.append(n_max)
            init(self, E, n_max)

        monkeypatch.setattr(MaxProdTable, "__init__", counting)
        predictions = default_predictions(blank_grid(E24, POWER, 50))
        assert len(predictions) == 50
        # the theorem table leaves only columns 2 and 3 open; the refined step reads up to n + 6
        assert built == [3 + 6]


def csv_writer_bytes(grid):
    """The csv of a grid as csv.writer writes it, row by row: the reference for the emitted bytes."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["n", "ell", "sign"])
    lo, _ = grid.ell_range
    for n in range(1, grid.n_max + 1):
        for offset, row in enumerate(grid.signs):
            writer.writerow([n, lo + offset, row[n - 1]])
    return handle.getvalue().encode("utf-8")


class TestEmission:
    def test_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        emit_grid(small_grid(), str(path), "csv")
        assert path.read_bytes() == (
            b"n,ell,sign\r\n"
            b"1,1,0\r\n1,2,0\r\n"
            b"2,1,-1\r\n2,2,-1\r\n"
            b"3,1,1\r\n3,2,1\r\n")

    @settings(max_examples=50, deadline=None)
    @given(sign_grids())
    @example(sweep(E24, POWER, 6, 4))
    def test_csv_round_trip(self, tmp_path_factory, grid):
        path = tmp_path_factory.mktemp("csv") / "grid.csv"
        emit_grid(grid, str(path), "csv")
        assert path.read_bytes() == csv_writer_bytes(grid)
        lo, hi = grid.ell_range
        assert parse_grid_csv(str(path)) == {(n, ell): grid.sign(n, ell)
                                             for n in range(1, grid.n_max + 1) for ell in range(lo, hi + 1)}

    def test_json(self, tmp_path):
        path = tmp_path / "grid.json"
        emit_grid(small_grid(), str(path), "json")
        payload = json.loads(path.read_text())
        assert payload["signs"] == [[0, -1, 1], [0, -1, 1]]
        assert payload["context"]["exceptions"] == "support:1,3"
        assert payload["context"]["weights"] == "power"
        assert payload["context"]["ell_range"] == [1, 2]

    def test_pbm(self, tmp_path):
        path = tmp_path / "grid.pbm"
        emit_grid(small_grid(), str(path), "pbm")
        text = path.read_text()
        assert text.startswith("P1\n")
        assert text.endswith("3 2\n1 1 0\n1 1 0\n")

    def test_pbm_all_positive(self, tmp_path):
        grid = SignGrid(E24, POWER, 2, (1, 2), ((1, 1), (1, 1)))
        path = tmp_path / "grid.pbm"
        emit_grid(grid, str(path), "pbm")
        assert path.read_text().endswith("2 2\n0 0\n0 0\n")

    def test_deterministic_bytes(self, tmp_path):
        grid = small_grid()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_grid(grid, str(a), "json")
        emit_grid(grid, str(b), "json")
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_grid(small_grid(), str(tmp_path / "x"), "svg")


class TestWeightsAsData:
    @pytest.fixture
    def swing_path(self, tmp_path):
        path = tmp_path / "swing.json"
        path.write_text(json.dumps({"base": 0, "phi": -1, "psi": 1, "B": 2,
                                    "overrides": {"2": "ell+alt", "4": "ell-alt"}}))
        return path

    def test_sweep_never_rereads_weight_file(self, swing_path):
        w = weight_from_spec(f"custom:{swing_path}")
        E3 = exceptions_from_spec("3")
        before = sweep(E3, w, 12, 6)
        swing_path.unlink()
        assert sweep(E3, w, 12, 6).signs == before.signs
        assert sweep(E3, w, 12, 6, jobs=2).signs == before.signs

    def test_families_hash_and_pickle(self, swing_path):
        for spec in ("power", "example1", "example2", f"custom:{swing_path}"):
            w = weight_from_spec(spec)
            clone = pickle.loads(pickle.dumps(w))
            assert clone == w and hash(clone) == hash(w), spec
            assert [clone.eval(ell, 4) for ell in (1, 2)] == [w.eval(ell, 4) for ell in (1, 2)]
