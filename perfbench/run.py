"""Benchmark for eulerprod: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload grid-tall --seed 1 --seconds 28 --trace 0

The package is imported from the checkout's src/.  A run measures
set-up in fresh interpreters and repeats the workload for --seconds,
after one warm-up pass, and reports medians over the passes.  Every
pass's output is checked against references.json; after the timed
passes, seed-chosen rows or columns are spot-checked against the
independent oracles.  With --trace 1 each round makes an untraced pass
(pooled where the workload pools), an untraced serial pass if it
pools, and a traced serial pass; the run then reports per-layer
metrics and writes the spans to .bench_out/spans-<workload>-<seed>.tsv.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without the package sources the run
exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_UNITS, TIME_UNITS, Tracer, tail
from workloads import OUT_DIR, ROOT, WORKLOADS, Outcome, available_cpus

SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_SAMPLES = 9  # at least, for runs with few passes

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    **COUNT_UNITS,
    **TIME_UNITS,
    "harness.sweep.row_p50_s": "s",
    "harness.sweep.row_tail_s": "s",
    "harness.sweep.row_tail_pct": "%",
    "harness.sweep.row_samples": "count",
    "classify.pipeline.column_p50_s": "s",
    "classify.pipeline.column_tail_s": "s",
    "classify.pipeline.column_tail_pct": "%",
    "classify.pipeline.column_samples": "count",
    "harness.pool.jobs": "count",
    "harness.pool.wall_s": "s",
    "harness.pool.efficiency": "ratio",
    "harness.pool.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# Import the package, parse the workload's exception specs and build its
# weight family, timed inside a fresh interpreter.
SETUP_CODE = """\
import importlib, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[2])
ep = sys.modules["eulerprod"]
for spec in sys.argv[4:]:
    ep.exceptions_from_spec(spec)
if sys.argv[3]:
    ep.weight_from_spec(sys.argv[3])
print(time.perf_counter() - start)
"""


def import_package():
    """eulerprod with its command line, from the checkout's src/; exits if absent."""
    if not (SRC / "eulerprod" / "__init__.py").is_file():
        sys.exit(f"error: no eulerprod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    ep = importlib.import_module("eulerprod")
    importlib.import_module("eulerprod.cli")
    if SRC not in Path(ep.__file__).resolve().parents:
        sys.exit(f"error: imported eulerprod from {ep.__file__}, not from {SRC}")
    return ep


def measure_setup(wl) -> float:
    """One set-up sample of the workload, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
         "eulerprod.cli" if wl.uses_cli else "eulerprod", wl.weights or "", *wl.exceptions],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed_pass(ep, wl, jobs: int):
    """One pass: (output, wall seconds, cpu seconds including finished pool workers)."""
    gc.collect()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    output = wl.run(ep, jobs)
    wall = time.perf_counter() - start
    return output, wall, cpu_seconds() - cpu0


def peak_rss_mib() -> float:
    """Largest resident set of this process or of any finished child, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def samples_line(label: str, values: list[float]) -> str:
    pct, value = tail(values)
    shown = f"p{pct:g} {value:.4f}" if pct else "tail n/a"
    return (f"{label}: p50 {statistics.median(values):.4f}, {shown}, {len(values)} samples: "
            + " ".join(f"{v:.4f}" for v in values))


class Run:
    """One benchmark run: the workload, its reference, and the checked operations."""

    def __init__(self, name: str, size: str, seed: int, ep, references: dict, log=print):
        self.wl = WORKLOADS[name](size, seed)
        self.ref = references[size][name]
        self.ep = ep
        self.log = log
        self.seed = seed
        self.total = Outcome()
        self.notes: dict[str, None] = {}  # ordered set
        # verify's item count is the number of checks the reference lists
        self.items = self.wl.items if self.wl.items is not None else len(self.ref["checks"])

    def checked_pass(self, jobs: int):
        output, wall, cpu = timed_pass(self.ep, self.wl, jobs)
        self.add(self.wl.check(output, self.ref))
        return output, wall, cpu

    def add(self, outcome: Outcome) -> None:
        self.total.attempted += outcome.attempted
        self.total.failed += outcome.failed
        self.notes.update(dict.fromkeys(outcome.notes))

    def measure(self, seconds: float, trace: bool) -> dict:
        """Run the workload and return the result object printed as the last line."""
        OUT_DIR.mkdir(exist_ok=True)
        deadline = time.perf_counter() + seconds
        self.checked_pass(self.wl.jobs)  # warm-up
        if trace:
            output, metrics, consistent = self.traced_rounds(deadline)
            units = PER_LAYER_UNITS
        else:
            output, metrics = self.timed_rounds(deadline)
            consistent = True
            units = END_TO_END_UNITS
        self.add(self.wl.spot_check(self.ep, output, self.ref))
        for note in self.notes:
            self.log(note)
        total = self.total
        self.log(f"fail_ratio {total.failed / total.attempted:.6f} ratio "
                 f"({total.failed} of {total.attempted} operations failed)")
        return {
            "correct": total.failed == 0 and consistent,
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        }

    def timed_rounds(self, deadline: float):
        # set-up samples are spread over the run, one before each pass, so that
        # they see the same machine load as the passes
        walls, cpus, setup = [], [], []
        while not walls or time.perf_counter() < deadline:
            setup.append(measure_setup(self.wl))
            output, wall, cpu = self.checked_pass(self.wl.jobs)
            walls.append(wall)
            cpus.append(cpu)
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(self.wl))
        self.log(f"items per pass: {self.items} {self.wl.item_unit}")
        self.log(samples_line("wall_s", walls))
        self.log(samples_line("cpu_s", cpus))
        self.log(samples_line("setup_s", setup))
        return output, {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(self.items / w for w in walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": peak_rss_mib(),
            "setup_s": statistics.median(setup),
        }

    def traced_rounds(self, deadline: float):
        wl = self.wl
        tracer = Tracer(self.ep)
        passes: list[dict] = []
        pooled, serial, traced = [], [], []
        while len(passes) < 2 or time.perf_counter() < deadline:
            _, wall, _ = self.checked_pass(wl.jobs)
            pooled.append(wall)
            if wl.jobs > 1:
                _, wall, _ = self.checked_pass(1)
            serial.append(wall)
            tracer.begin_pass()
            tracer.install()
            try:
                output, wall, _ = self.checked_pass(1)
            finally:
                tracer.uninstall()
            traced.append(wall)
            passes.append(tracer.end_pass(wall))
        spans_file = OUT_DIR / f"spans-{wl.name}-{self.seed}.tsv"
        tracer.write(spans_file)

        metrics = {key: statistics.median(p[key] for p in passes) for key in TIME_UNITS}
        mismatched = [key for key in COUNT_UNITS if len({p[key] for p in passes}) > 1]
        metrics.update((key, passes[0][key]) for key in COUNT_UNITS)
        if mismatched:
            print(f"error: exact counts differ between traced passes: {', '.join(mismatched)}",
                  file=sys.stderr)
        for prefix, span in (("harness.sweep.row", "harness.sweep.row"),
                             ("classify.pipeline.column", "classify.pipeline")):
            samples = tracer.durations(span)
            pct, value = tail(samples)
            metrics[f"{prefix}_p50_s"] = statistics.median(samples) if samples else 0.0
            metrics[f"{prefix}_tail_s"] = value
            metrics[f"{prefix}_tail_pct"] = pct
            metrics[f"{prefix}_samples"] = len(samples)
        pool_wall = statistics.median(pooled)
        serial_wall = statistics.median(serial)
        metrics["harness.pool.jobs"] = wl.jobs
        metrics["harness.pool.wall_s"] = pool_wall
        metrics["harness.pool.efficiency"] = metrics["harness.sweep.row_sum_s"] / (wl.jobs * pool_wall)
        metrics["harness.pool.overhead_s"] = pool_wall - serial_wall / wl.jobs
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = serial_wall
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - serial_wall
        self.log(f"traced rounds: {len(passes)}; pool jobs: {wl.jobs}; "
                 f"exact counts repeat: {'no' if mismatched else 'yes'}")
        self.log(f"spans: {spans_file.relative_to(ROOT)}")
        return output, metrics, not mismatched


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ep = import_package()
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"nproc {available_cpus()}, Python {platform.python_version()}")
    result = Run(args.workload, "full", args.seed, ep, references).measure(args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
