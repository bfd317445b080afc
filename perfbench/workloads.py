"""The four benchmark workloads of eulerprod.

Each workload knows the inputs it feeds the package, how to run one
pass of it, how to check a pass's output against the references
recorded from the package, and which spot checks against the
independent oracles it runs outside the timed region.  The seed only
shuffles the classify columns and picks the spot-checked rows and
columns; it never changes the amount of timed work.

The package is passed in as a module object and every call goes
through its attributes at call time, so the tracer in tracing.py can
swap in its wrappers without these classes knowing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WEIGHTS_FILE = BENCH_DIR / "example2.json"

SIGN_CHARS = {"1": "+", "-1": "-", "0": "0"}
KNOWN_RED = "examples/alternating-weight-oscillation"


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def pool_jobs(wanted: int, cpus: int) -> int:
    """Worker count for a pooled sweep: never more processes than cores."""
    return max(1, min(wanted, cpus))


def run_cli(ep, argv: list[str]) -> tuple[int | None, str]:
    """Run the package's command line in-process; returns (exit code, stdout).

    An exception escaping the command fails the pass instead of the
    benchmark: the code is None and the traceback goes to stderr.
    """
    buf = io.StringIO()
    code = None
    with contextlib.redirect_stdout(buf):
        try:
            code = ep.cli.main(argv)
        except Exception:
            traceback.print_exc()
    return code, buf.getvalue()


def sign_string(coeffs, n_max: int) -> str:
    """Row of signs of p(n)^2 - p(n-1) p(n+1) for n = 1..n_max, as +, - and 0."""
    out = []
    for n in range(1, n_max + 1):
        d = coeffs[n] * coeffs[n] - coeffs[n - 1] * coeffs[n + 1]
        out.append("+" if d > 0 else "-" if d < 0 else "0")
    return "".join(out)


@dataclass
class Outcome:
    """Operations checked and failed in one pass or one round of spot checks."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.notes.append(note)


class GridTall:
    """Serial 2,4 power sweep to csv: few terms per row, coefficients near 11k bits."""

    name = "grid-tall"
    item_unit = "cells"
    SIZES = {"full": (50, 400), "tiny": (12, 30)}
    SPOT_ROWS = 3
    exceptions = ("2,4",)
    weights = "power"
    uses_cli = True

    def __init__(self, size: str, seed: int):
        self.n_max, self.ell_max = self.SIZES[size]
        self.items = self.n_max * self.ell_max
        self.jobs = 1
        self.path = OUT_DIR / f"{self.name}-{size}.csv"
        self.spot_rows = sorted(random.Random(seed).sample(range(1, self.ell_max + 1), self.SPOT_ROWS))

    def run(self, ep, jobs: int):
        self.path.unlink(missing_ok=True)
        code, _ = run_cli(ep, ["sweep", "--exceptions", "2,4", "--weights", "power",
                               "--n-max", str(self.n_max), "--ell-max", str(self.ell_max),
                               "--out", str(self.path)])
        return code, self.path.read_bytes() if self.path.exists() else b""

    def rows(self, data: bytes) -> dict[int, str]:
        """Sign strings keyed by ell, read back from the emitted csv."""
        cells: dict[tuple[int, int], str] = {}
        for line in data.decode(errors="replace").splitlines()[1:]:
            fields = line.split(",")
            if len(fields) == 3 and fields[0].isdigit() and fields[1].isdigit():
                cells[int(fields[1]), int(fields[0])] = SIGN_CHARS.get(fields[2], "?")
        return {ell: "".join(cells.get((ell, n), "?") for n in range(1, self.n_max + 1))
                for ell in range(1, self.ell_max + 1)}

    def reference(self, ep, output) -> dict:
        code, data = output
        return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
                "rows": [row for _, row in sorted(self.rows(data).items())]}

    def check(self, output, ref: dict) -> Outcome:
        code, data = output
        got = self.rows(data)
        out = Outcome(attempted=self.ell_max)
        bad = [ell for ell in range(1, self.ell_max + 1) if got[ell] != ref["rows"][ell - 1]]
        if bad:
            out.fail(f"{len(bad)} grid rows differ from the reference, first at ell={bad[0]}", len(bad))
        elif hashlib.sha256(data).hexdigest() != ref["sha256"]:
            out.fail("csv bytes differ from the reference digest")
        if code != ref["exit"]:
            out.fail(f"exit code {code}, reference {ref['exit']}")
        return out

    def spot_check(self, ep, output, ref: dict) -> Outcome:
        """Sampled rows of the emitted grid against the product oracle."""
        got = self.rows(output[1])
        E = ep.exceptions_from_spec("2,4")
        w = ep.weight_from_spec("power")
        out = Outcome(attempted=len(self.spot_rows))
        for ell in self.spot_rows:
            oracle = sign_string(ep.coeffs_by_product(E, w, ell, self.n_max + 1).coeffs, self.n_max)
            if oracle != got[ell]:
                out.fail(f"row ell={ell} differs from coeffs_by_product")
        return out


class GridWide:
    """Pooled 3-excluded sweep with example2 weights from a custom file, summary to stdout."""

    name = "grid-wide"
    item_unit = "cells"
    SIZES = {"full": (200, 100), "tiny": (20, 12)}
    SPOT_ROWS = 2
    WANTED_JOBS = 2
    exceptions = ("3",)
    weights = f"custom:{WEIGHTS_FILE}"
    uses_cli = True

    def __init__(self, size: str, seed: int):
        self.n_max, self.ell_max = self.SIZES[size]
        self.items = self.n_max * self.ell_max
        self.jobs = pool_jobs(self.WANTED_JOBS, available_cpus())
        self.spot_rows = sorted(random.Random(seed).sample(range(1, self.ell_max + 1), self.SPOT_ROWS))

    def run(self, ep, jobs: int):
        return run_cli(ep, ["sweep", "--exceptions", "3", "--weights", self.weights,
                            "--n-max", str(self.n_max), "--ell-max", str(self.ell_max),
                            "--jobs", str(jobs)])

    def reference(self, ep, output) -> dict:
        code, text = output
        E = ep.exceptions_from_spec("3")
        w = ep.weight_from_spec(self.weights)
        rows = ["".join("+" if s > 0 else "-" if s < 0 else "0" for s in row)
                for row in ep.sweep(E, w, self.n_max, self.ell_max).signs]
        return {"exit": code, "summary": text.splitlines(), "rows": rows}

    def check(self, output, ref: dict) -> Outcome:
        """One operation per column line of the stabilization summary."""
        code, text = output
        lines = text.splitlines()
        want = ref["summary"]
        out = Outcome(attempted=self.n_max)
        bad = sum(1 for i in range(1, len(want)) if i >= len(lines) or lines[i] != want[i])
        bad += max(0, len(lines) - len(want))
        if bad:
            out.fail(f"{bad} summary lines differ from the reference", bad)
        if not lines or lines[0] != want[0]:
            out.fail("summary header differs from the reference")
        if code != ref["exit"]:
            out.fail(f"exit code {code}, reference {ref['exit']}")
        return out

    def spot_check(self, ep, output, ref: dict) -> Outcome:
        """Sampled rows: the recurrence and the product oracle against the reference."""
        E = ep.exceptions_from_spec("3")
        w = ep.weight_from_spec(self.weights)
        out = Outcome(attempted=len(self.spot_rows))
        for ell in self.spot_rows:
            want = ref["rows"][ell - 1]
            fast = sign_string(ep.coeffs_by_recurrence(E, w, ell, self.n_max + 1).coeffs, self.n_max)
            oracle = sign_string(ep.coeffs_by_product(E, w, ell, self.n_max + 1).coeffs, self.n_max)
            if fast != want or oracle != want:
                out.fail(f"row ell={ell}: recurrence or product oracle differs from the reference")
        return out


class Classify:
    """classify_pipeline on every column of three exception sets, in seed-shuffled order."""

    name = "classify"
    item_unit = "columns"
    SIZES = {"full": (("none", 120), ("2,4,5", 140), ("2,3,4", 200)),
             "tiny": (("none", 20), ("2,4,5", 24), ("2,3,4", 30))}
    SPOT_COLUMNS = 4
    # max_product_bruteforce stops at 30 and the window reaches n + 1
    SPOT_MAX_N = 27
    weights = "power"
    uses_cli = False

    def __init__(self, size: str, seed: int):
        self.ranges = self.SIZES[size]
        self.exceptions = tuple(spec for spec, _ in self.ranges)
        rng = random.Random(seed)
        self.columns = [(spec, n) for spec, top in self.ranges for n in range(1, top + 1)]
        rng.shuffle(self.columns)
        self.items = len(self.columns)
        self.jobs = 1
        small = [c for c in self.columns if 2 <= c[1] <= self.SPOT_MAX_N]
        self.spot_columns = rng.sample(small, self.SPOT_COLUMNS)

    def run(self, ep, jobs: int):
        parsed = {spec: ep.exceptions_from_spec(spec) for spec in self.exceptions}
        out = []
        for spec, n in self.columns:
            try:
                p = ep.classify_pipeline(parsed[spec], n)
            except Exception as exc:  # one failed column, not a failed benchmark
                out.append((spec, n, "raised", repr(exc)))
            else:
                out.append((spec, n, p.verdict, p.mechanism))
        return out

    def reference(self, ep, output) -> dict:
        table = {spec: [None] * top for spec, top in self.ranges}
        for spec, n, verdict, mechanism in output:
            table[spec][n - 1] = [verdict, mechanism]
        return {"columns": table}

    def check(self, output, ref: dict) -> Outcome:
        out = Outcome(attempted=self.items)
        bad = [(spec, n) for spec, n, verdict, mechanism in output
               if ref["columns"][spec][n - 1] != [verdict, mechanism]]
        bad += [None] * (self.items - len(output))
        if bad:
            out.fail(f"{len(bad)} columns differ from the reference verdict or mechanism, first {bad[0]}",
                     len(bad))
        return out

    def spot_check(self, ep, output, ref: dict) -> Outcome:
        """Sampled small columns: DP reports against brute force, and the quotient verdict."""
        verdicts = {(spec, n): (verdict, mechanism) for spec, n, verdict, mechanism in output}
        out = Outcome(attempted=len(self.spot_columns))
        for spec, n in self.spot_columns:
            E = ep.exceptions_from_spec(spec)
            brute = {m: ep.max_product_bruteforce(E, m) for m in (n - 1, n, n + 1)}
            if any(ep.max_product(E, m) != brute[m] for m in brute):
                out.fail(f"column {spec} n={n}: max_product differs from brute force")
                continue
            verdict, mechanism = verdicts[spec, n]
            if mechanism == "q-criterion":
                q = Fraction(brute[n].product ** 2, brute[n - 1].product * brute[n + 1].product)
                want = "eventually-concave" if q > 1 else "eventually-convex"
                if q == 1 or verdict != want:
                    out.fail(f"column {spec} n={n}: brute-force quotient {q} contradicts {verdict}")
        return out


class Verify:
    """`eulerprod verify all`: every suite, including the known red criterion 9 check."""

    name = "verify"
    item_unit = "checks"
    SIZES = {"full": "all", "tiny": "examples"}
    exceptions = ()
    weights = None
    uses_cli = True

    def __init__(self, size: str, seed: int):
        self.suite = self.SIZES[size]
        self.jobs = 1
        self.items = None  # the number of checks, learned from the reference

    def run(self, ep, jobs: int):
        return run_cli(ep, ["verify", self.suite])

    @staticmethod
    def checks(text: str) -> list[list[str]]:
        """[name, PASS|FAIL] per printed check line, in print order."""
        out = []
        for line in text.splitlines():
            mark, _, rest = line.partition(" ")
            out.append([rest.split(":", 1)[0], mark])
        return out

    def reference(self, ep, output) -> dict:
        code, text = output
        return {"exit": code, "checks": self.checks(text)}

    def check(self, output, ref: dict) -> Outcome:
        code, text = output
        got = self.checks(text)
        want = ref["checks"]
        out = Outcome(attempted=len(want))
        bad = [want[i][0] for i in range(len(want)) if i >= len(got) or got[i] != want[i]]
        bad += [g[0] for g in got[len(want):]]
        if bad:
            out.fail(f"{len(bad)} checks differ from the reference PASS/FAIL vector: {', '.join(bad[:4])}",
                     len(bad))
        if code != ref["exit"]:
            out.fail(f"exit code {code}, reference {ref['exit']}")
        red = dict(map(tuple, got)).get(KNOWN_RED)
        if red is not None:
            out.notes.append(f"known red check {KNOWN_RED}: {red} "
                             f"(reference {dict(map(tuple, want))[KNOWN_RED]})")
        return out

    def spot_check(self, ep, output, ref: dict) -> Outcome:
        # the suites already cross-check both coefficient routes and the DP against brute force
        return Outcome()


WORKLOADS = {w.name: w for w in (GridTall, GridWide, Classify, Verify)}
