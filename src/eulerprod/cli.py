"""Command line front end for the restricted Euler product toolkit.

Subcommands: compute (coefficient tables with differences), delta (one
difference), maxprod (maximal-product reports), classify (eventual
sign prediction), sweep (sign grids to file or a stabilization
summary), verify (named check suites).  Exit codes: 0 success, 1 a
verification suite failed, 2 usage error or a size too large to
allocate, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from .classify import classify_pipeline
from .harness import BudgetExceeded, default_predictions, emit_grid, stabilization, sweep
from .maxprod import MaxProdReport, closed_form_max, max_product
from .model import _parse_positive, exceptions_from_spec, weight_from_spec
from .qseries import coeffs_by_recurrence, delta
from .suites import SUITE_IDS, verify_suite

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _jsonable(obj):
    """Recursively convert dataclasses, Fractions and tuples for json."""
    if isinstance(obj, Fraction):
        return str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@contextlib.contextmanager
def _out_handle(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            yield handle


def _parse_probe_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"probe range must look like 'a..b', got {text!r}")
    start, stop = _parse_positive(lo, text), _parse_positive(hi, text)
    if start < 1 or stop < start:
        raise ValueError(f"probe range {text!r} is empty or starts below 1")
    return range(start, stop + 1)


def _add_series_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exceptions", default="none", metavar="SPEC",
                   help="excluded parts: 'none', '2,4', 'powers:2', 'multiples:3', "
                        "'3 + powers:5', or 'support:1,3' for a finite support")
    p.add_argument("--weights", default="power", metavar="SPEC",
                   help="weight family: power, example1, example2, or custom:<path>")


def _run_compute(args: argparse.Namespace) -> int:
    E = exceptions_from_spec(args.exceptions)
    w = weight_from_spec(args.weights)
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    # an unwritable --out fails before the coefficients are computed, not after
    with _kept_unless_failed(args.out) if args.out != "-" else contextlib.nullcontext():
        table = coeffs_by_recurrence(E, w, args.ell, args.n_max + 1)
        rows = [{"n": 0, "p": table.coeffs[0], "delta": None, "sign": None}]
        for n in range(1, args.n_max + 1):
            d = delta(table, n)
            rows.append({"n": n, "p": table.coeffs[n], "delta": d.value, "sign": d.sign})
        with _out_handle(args.out) as handle:
            if args.format == "csv":
                writer = csv.writer(handle)
                writer.writerow(["n", "p", "delta", "sign"])
                for row in rows:
                    writer.writerow([row["n"], row["p"],
                                     "" if row["delta"] is None else row["delta"],
                                     "" if row["sign"] is None else row["sign"]])
            else:
                payload = {
                    "context": {"exceptions": E.spec_text, "weights": w.id,
                                "ell": args.ell, "n_max": args.n_max},
                    "rows": rows,
                }
                json.dump(payload, handle, indent=2)
                handle.write("\n")
    return EXIT_OK


def _run_delta(args: argparse.Namespace) -> int:
    E = exceptions_from_spec(args.exceptions)
    w = weight_from_spec(args.weights)
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    table = coeffs_by_recurrence(E, w, args.ell, args.n + 1)
    d = delta(table, args.n)
    if args.format == "json":
        print(json.dumps(_jsonable(d)))
    else:
        print(f"n={d.n} delta={d.value} sign={d.sign:+d}")
    return EXIT_OK


def _print_maxprod(report: MaxProdReport) -> None:
    print(f"n: {report.n}")
    print(f"max product: {report.product}")
    print("maximizers: " + "; ".join("+".join(str(p) for p in m.parts) or "(empty)"
                                     for m in report.maximizers))
    print(f"unique: {'yes' if report.unique else 'no'}")
    print(f"coefficient: {report.coefficient}")
    print(f"runner-up: {report.second_product if report.second_product is not None else 'none'}")


def _run_maxprod(args: argparse.Namespace) -> int:
    E = exceptions_from_spec(args.exceptions)
    if args.closed_form:
        report = closed_form_max(E, args.n)
        if report is None:
            print("no closed form covers this exception set")
            return EXIT_OK
    else:
        report = max_product(E, args.n)
    if args.format == "json":
        print(json.dumps(_jsonable(report)))
    else:
        _print_maxprod(report)
    return EXIT_OK


def _run_classify(args: argparse.Namespace) -> int:
    E = exceptions_from_spec(args.exceptions)
    w = weight_from_spec(args.weights)
    probes = None if args.probe_ell is None else _parse_probe_range(args.probe_ell)
    prediction = classify_pipeline(E, args.n, w, probes)
    if args.format == "json":
        print(json.dumps(_jsonable(prediction)))
    else:
        print(f"verdict: {prediction.verdict}")
        print(f"mechanism: {prediction.mechanism}")
        for key, value in prediction.detail.items():
            print(f"{key}: {_jsonable(value)}")
    return EXIT_OK


@contextlib.contextmanager
def _kept_unless_failed(path: str):
    """Open path for appending, so that an unwritable path fails at once and an existing file keeps
    its bytes; if the body raises, remove the file again unless it existed before."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    try:
        yield
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def _run_sweep(args: argparse.Namespace) -> int:
    E = exceptions_from_spec(args.exceptions)
    w = weight_from_spec(args.weights)
    with contextlib.ExitStack() as stack:
        if args.out not in (None, "-"):
            # an unwritable --out fails before the first row, not after the whole sweep
            stack.enter_context(_kept_unless_failed(args.out))
        on_row = None
        if args.stats is not None:
            # stats never join the deterministic outputs, so '-' sends them to stderr
            stats = sys.stderr if args.stats == "-" else stack.enter_context(open(args.stats, "w", encoding="utf-8"))

            def on_row(ell: int, bits: int | None, n_computed: int, seconds: float) -> None:
                path = "certified" if not n_computed else "exact" if bits is None else "bounded"
                stats.write(json.dumps({"ell": ell, "path": path, "bits": bits, "n_computed": n_computed,
                                        "seconds": round(seconds, 6)}) + "\n")

        try:
            grid = sweep(E, w, args.n_max, args.ell_max, jobs=args.jobs,
                         budget_seconds=args.budget_seconds, on_row=on_row)
        except BudgetExceeded as exc:
            if args.out is not None:
                emit_grid(exc.partial, args.out, args.format)
                rows_done = exc.partial.ell_range[1]
                print(f"budget exceeded; wrote partial grid of {rows_done} rows to "
                      f"{'stdout' if args.out == '-' else args.out}", file=sys.stderr)
            else:
                print(f"budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        if args.out is not None:
            emit_grid(grid, args.out, args.format)
            return EXIT_OK
    rows = stabilization(grid, default_predictions(grid))
    print("n terminal threshold stabilized predicted agrees")
    for row in rows:
        agrees = "-" if row.agrees is None else ("yes" if row.agrees else "NO")
        print(f"{row.n} {row.terminal_sign:+d} {row.threshold} "
              f"{'yes' if row.stabilized else 'no'} {row.predicted} {agrees}")
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    suites = SUITE_IDS if args.suite == "all" else (args.suite,)
    all_passed = True
    for suite in suites:
        start = time.perf_counter()
        report = verify_suite(suite)
        if args.timings:
            print(f"{suite} {time.perf_counter() - start:.3f}", file=sys.stderr)
        for check in report.checks:
            mark = "PASS" if check.passed else "FAIL"
            line = f"{mark} {suite}/{check.name}"
            if check.details:
                line += f": {check.details}"
            print(line)
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerprod",
        description="Exact coefficients, maximal products, and log-concavity "
                    "analysis for Euler products with restricted part sizes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="tabulate coefficients with differences and signs")
    _add_series_options(p)
    p.add_argument("--ell", type=int, default=1, help="weight index (default 1)")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--out", default="-", metavar="PATH", help="output path, '-' for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_run_compute)

    p = sub.add_parser("delta", help="one log-concavity difference p(n)^2 - p(n-1)p(n+1)")
    _add_series_options(p)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_run_delta)

    p = sub.add_parser("maxprod", help="maximal part product with all maximizers")
    p.add_argument("--exceptions", default="none", metavar="SPEC", help="excluded parts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--closed-form", action="store_true",
                   help="use the closed-form case analysis on the smallest allowed parts")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_run_maxprod)

    p = sub.add_parser("classify", help="predict the eventual sign of the difference")
    _add_series_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--probe-ell", metavar="A..B",
                   help="inclusive probe range for the conditional branch analysis")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_run_classify)

    p = sub.add_parser("sweep", help="exact sign grid over (n, ell)")
    _add_series_options(p)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--ell-max", type=int, default=300)
    p.add_argument("--out", metavar="PATH",
                   help="write the grid here, '-' for stdout; omit for a stabilization summary")
    p.add_argument("--format", choices=("csv", "json", "pbm"), default="csv")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget-seconds", type=float)
    p.add_argument("--stats", metavar="PATH",
                   help="write one JSON line per row to PATH, '-' for stderr: ell, the path that decided "
                        "it (bounded, exact, or certified when every cell was already "
                        "certified), the interval width in bits that did (null otherwise), "
                        "n_computed, the number of columns the row computed, and its seconds")
    p.set_defaults(run=_run_sweep)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_IDS + ("all",))
    p.add_argument("--timings", action="store_true",
                   help="print '<suite> <seconds>' per suite to stderr")
    p.set_defaults(run=_run_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory: the requested size is too large to allocate", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
