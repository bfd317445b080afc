"""Sign grids over (n, ell), stabilization thresholds, file emission.

A sweep computes sign(p(n)^2 - p(n-1) p(n+1)) for every cell of an
(n, ell) rectangle, one row per ell.  Each row computes, by
qseries.row_signs, only the prefix of columns that terminal.ColumnCertificates
has not yet certified; row_signs picks the prefix's route (certified
interval bounds or the exact recurrence) and reports which one decided
it, and the certified signs fill the rest.  Stabilization reduces each column to its
terminal sign and the least ell from which that sign persists, and
compares against classifier predictions.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from bisect import bisect_right
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Mapping, TextIO

from .classify import (
    EVENTUALLY_CONCAVE,
    EVENTUALLY_CONVEX,
    UNKNOWN,
    ZERO,
    Prediction,
    _pipeline_columns,
)
from .model import ExceptionSet, WeightFamily
from .qseries import row_signs
from .terminal import ROW_LAG, ColumnCertificates


@dataclass(frozen=True)
class SignGrid:
    """Exact signs over a full (n, ell) rectangle.

    signs is stored row-major over ell ascending; each row runs over
    n = 1..n_max ascending.
    """

    exceptions: ExceptionSet
    weights: WeightFamily
    n_max: int
    ell_range: tuple[int, int]
    signs: tuple[tuple[int, ...], ...]

    def sign(self, n: int, ell: int) -> int:
        lo, hi = self.ell_range
        if not (1 <= n <= self.n_max and lo <= ell <= hi):
            raise IndexError(f"cell ({n}, {ell}) outside the grid")
        return self.signs[ell - lo][n - 1]

    def column(self, n: int) -> tuple[int, ...]:
        """Signs at fixed n for ell ascending."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"column {n} outside the grid")
        return tuple(row[n - 1] for row in self.signs)


@dataclass(frozen=True)
class StabilizationRow:
    """Terminal behavior of one grid column.

    threshold is the least ell from which the sign stays constant to
    the top of the grid; stabilized means the constant run started
    strictly before the top, so at least two cells witness it.  agrees
    is None when the prediction decides nothing (unknown/conditional).
    """

    n: int
    predicted: str
    terminal_sign: int
    threshold: int
    stabilized: bool
    agrees: bool | None


class BudgetExceeded(RuntimeError):
    """Wall-clock budget ran out mid-sweep; carries the finished rows."""

    def __init__(self, message: str, partial: SignGrid):
        super().__init__(message)
        self.partial = partial


def _sign_row(task: tuple[ExceptionSet, WeightFamily, int, int]
              ) -> tuple[int, tuple[int, ...], int | None, tuple[tuple[int, int], ...], float]:
    """The first n_hi cells of one grid row: (ell, signs, the interval width that decided them
    or None for exact, upper bounds (hi, e) on p(0..n_hi + 1), seconds taken); nothing for n_hi = 0."""
    E, w, ell, n_hi = task
    start = time.perf_counter()
    bits, row, bounds = row_signs(E, w, ell, n_hi) if n_hi else (None, (), ())
    return ell, row, bits, bounds, time.perf_counter() - start


def _check_weights(w: WeightFamily, parts: tuple[int, ...], ell: int) -> None:
    """Raise the ValueError g_table would at the first of parts (ascending, all >= 2) whose weight at ell is invalid."""
    for m in parts:
        w.exponent(ell, m)


def _worker_count(jobs: int, ell_max: int) -> int:
    """Pool size: jobs, but no more than the rows or usable cores (a pool starts all up front)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(jobs, ell_max, cores)


def _rows(tasks: Iterator[tuple[ExceptionSet, WeightFamily, int, int]],
          workers: int) -> Iterator[tuple[int, tuple[int, ...], int | None, tuple[tuple[int, int], ...], float]]:
    """_sign_row over tasks, in order: in this process, or on a pool of workers.

    The pool keeps at most 2 rows per worker, and no more than ROW_LAG, in
    flight, refilled in ell order.  A row that computes no column (n_hi = 0)
    holds its place among them but never goes to the pool: this process
    answers it in its ell turn.  However the stream ends (exhausted, closed
    early, or a row raising), the pool waits for every row in flight and
    joins its workers: each such row is running or in the executor's call
    queue (workers + 1 slots), where cancel_futures cannot reach it, and its
    result is dropped.
    """
    if workers == 1:
        yield from map(_sign_row, tasks)
        return
    # imported here so that a serial sweep never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)

    def answer(task: tuple[ExceptionSet, WeightFamily, int, int]) -> Callable[[], tuple]:
        return pool.submit(_sign_row, task).result if task[3] else partial(_sign_row, task)

    try:
        pending = deque(map(answer, islice(tasks, min(2 * workers, ROW_LAG))))
        while pending:
            yield pending.popleft()()
            pending.extend(map(answer, islice(tasks, 1)))
    finally:
        pool.shutdown(cancel_futures=True)


def sweep(E: ExceptionSet, w: WeightFamily, n_max: int, ell_max: int,
          jobs: int = 1, budget_seconds: float | None = None,
          on_row: Callable[[int, int | None, int, float], None] | None = None) -> SignGrid:
    """Exact sign grid for n in 1..n_max, ell in 1..ell_max.

    Row ell computes the columns up to the largest one that no certificate
    proven at a row <= ell - ROW_LAG covers, by row_signs: certified on
    intervals when that prefix is large enough to gain from it, and by the
    exact recurrence otherwise or when a cell stays undecided.  Certified
    signs fill the other cells, and the weights of every part are checked
    on every row as a full row would.  on_row, if given, is called in ell
    order with (ell, the interval width that decided the row or None for
    the exact recurrence, the number of columns computed, seconds the row
    took).  Once the budget has passed, the sweep stops after the current
    row with BudgetExceeded.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    if budget_seconds is not None and not 0 <= budget_seconds < math.inf:
        raise ValueError(f"budget_seconds must be finite and >= 0, got {budget_seconds}")
    workers = _worker_count(jobs, ell_max)
    start = time.monotonic()
    columns = ColumnCertificates(E, w, n_max)
    rows: list[tuple[int, ...]] = []
    # an exponent is linear in ell on each parity, so a weight valid at two rows of one parity is
    # valid at every row of that parity between them: once rows 1 and 2 pass in full, every
    # row passes if the top two do
    try:
        for ell in range(max(ell_max - 1, 1), ell_max + 1):
            _check_weights(w, columns.parts[1:], ell)
        every_row_valid = True
    except ValueError:
        every_row_valid = False
    tasks = ((E, w, ell, columns.width(ell)) for ell in range(1, ell_max + 1))
    with closing(_rows(tasks, workers)) as stream:
        for ell, prefix, bits, bounds, seconds in stream:
            if ell <= 2 or not every_row_valid:
                # the prefix read the weights of the parts up to len(prefix) + 1; check the rest
                _check_weights(w, columns.parts[bisect_right(columns.parts, len(prefix) + 1):], ell)
            rows.append(columns.record(ell, prefix, bounds))
            if on_row is not None:
                on_row(ell, bits, len(prefix), seconds)
            if (budget_seconds is not None and len(rows) < ell_max
                    and time.monotonic() - start > budget_seconds):
                raise BudgetExceeded(
                    f"budget of {budget_seconds}s exhausted after {len(rows)} of {ell_max} rows",
                    SignGrid(E, w, n_max, (1, len(rows)), tuple(rows)))
    return SignGrid(E, w, n_max, (1, ell_max), tuple(rows))


_EXPECTED_SIGN = {EVENTUALLY_CONCAVE: 1, EVENTUALLY_CONVEX: -1, ZERO: 0}


def stabilization(grid: SignGrid, predictions: Mapping[int, Prediction]) -> list[StabilizationRow]:
    """Collapse each column to terminal sign, threshold and agreement."""
    lo, hi = grid.ell_range
    out: list[StabilizationRow] = []
    for n, column in enumerate(zip(*grid.signs), 1):
        terminal = column[-1]
        threshold = hi
        for ell in range(hi - 1, lo - 1, -1):
            if column[ell - lo] != terminal:
                break
            threshold = ell
        prediction = predictions.get(n)
        verdict = prediction.verdict if prediction else UNKNOWN
        expected = _EXPECTED_SIGN.get(verdict)
        agrees = None if expected is None else terminal == expected
        out.append(StabilizationRow(n, verdict, terminal, threshold, threshold < hi, agrees))
    return out


def default_predictions(grid: SignGrid) -> dict[int, Prediction]:
    """One pipeline prediction per column of the grid, all read from one max-product table."""
    return _pipeline_columns(grid.exceptions, range(1, grid.n_max + 1), grid.weights)


# the end of a csv line per sign, with csv.writer's line terminator
_CSV_ENDS = {1: ",1\r\n", 0: ",0\r\n", -1: ",-1\r\n"}


def _emit_csv(grid: SignGrid, handle: TextIO) -> None:
    """The lines 'n,ell,sign' of csv.writer, n-major, one write per column n."""
    lo, hi = grid.ell_range
    ells = [f",{ell}" for ell in range(lo, hi + 1)]
    handle.write("n,ell,sign\r\n")
    for n, column in enumerate(zip(*grid.signs), 1):
        head = str(n)
        handle.write(head + head.join([ell + _CSV_ENDS[sign] for ell, sign in zip(ells, column)]))


def _emit_json(grid: SignGrid, handle: TextIO) -> None:
    payload = {
        "context": {
            "exceptions": grid.exceptions.spec_text,
            "weights": grid.weights.id,
            "n_range": [1, grid.n_max],
            "ell_range": list(grid.ell_range),
            "rows": "ell ascending",
            "columns": "n ascending",
        },
        "signs": grid.signs,
    }
    handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _emit_pbm(grid: SignGrid, handle: TextIO) -> None:
    lo, hi = grid.ell_range
    lines = [
        "P1",
        f"# exceptions: {grid.exceptions.spec_text}",
        f"# weights: {grid.weights.id}",
        f"# rows: ell {lo}..{hi} ascending; columns: n 1..{grid.n_max} ascending",
        "# pixel 1 marks sign <= 0",
        f"{grid.n_max} {len(grid.signs)}",
    ]
    for row in grid.signs:
        lines.append(" ".join("1" if s <= 0 else "0" for s in row))
    handle.write("\n".join(lines) + "\n")


_EMITTERS = {"csv": _emit_csv, "json": _emit_json, "pbm": _emit_pbm}


def emit_grid(grid: SignGrid, path: str, format: str) -> None:
    """Write the grid to path, or to stdout for '-', as csv, json or pbm; byte-deterministic."""
    emit = _EMITTERS.get(format)
    if emit is None:
        raise ValueError(f"unknown grid format {format!r}")
    if path == "-":
        emit(grid, sys.stdout)
        return
    # csv ends its lines with \r\n itself
    with open(path, "w", newline="" if format == "csv" else None, encoding="utf-8") as handle:
        emit(grid, handle)


def parse_grid_csv(path: str) -> dict[tuple[int, int], int]:
    """Read back an emitted csv as a cell map keyed by (n, ell)."""
    cells: dict[tuple[int, int], int] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            cells[int(record["n"]), int(record["ell"])] = int(record["sign"])
    return cells
