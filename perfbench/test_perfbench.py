"""Tests of the benchmark itself, at the tiny workload sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END_UNITS, PER_LAYER_UNITS, REFERENCES, Run, import_package
from tracing import COUNT_UNITS, MECHANISMS, SUITES
from workloads import (KNOWN_RED, ROOT, WORKLOADS, Classify, GridTall, GridWide, Verify,
                       available_cpus, pool_jobs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def ep():
    return import_package()


@pytest.fixture(scope="module")
def references():
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def tiny_run(ep, references, name, seed=0, trace=False):
    return Run(name, "tiny", seed, ep, references, log=lambda *_: None).measure(0.05, trace)


def test_benchmark_json_lists_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(ep, references, name, trace):
    result = tiny_run(ep, references, name, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in units)


def test_one_flipped_sign_in_the_csv_fails_a_row(ep, references):
    wl = GridTall("tiny", 0)
    code, data = wl.run(ep, wl.jobs)
    ref = references["tiny"]["grid-tall"]
    assert wl.check((code, data), ref).failed == 0
    lines = data.decode().splitlines(keepends=True)
    n, ell, sign = lines[5].strip().split(",")
    lines[5] = f"{n},{ell},{'-1' if sign == '1' else '1'}\r\n"
    assert wl.check((code, "".join(lines).encode()), ref).failed == 1


def test_one_flipped_terminal_sign_fails_a_column(ep, references):
    wl = GridWide("tiny", 0)
    code, text = wl.run(ep, wl.jobs)
    ref = references["tiny"]["grid-wide"]
    assert wl.check((code, text), ref).failed == 0
    lines = text.splitlines()
    fields = lines[3].split()
    fields[1] = "-1" if fields[1] == "+1" else "+1"
    lines[3] = " ".join(fields)
    assert wl.check((code, "\n".join(lines) + "\n"), ref).failed == 1


def test_one_altered_verdict_fails_a_column(ep, references):
    wl = Classify("tiny", 0)
    output = wl.run(ep, wl.jobs)
    ref = references["tiny"]["classify"]
    assert wl.check(output, ref).failed == 0
    spec, n, verdict, mechanism = output[0]
    output[0] = (spec, n, "unknown" if verdict != "unknown" else "zero", mechanism)
    assert wl.check(output, ref).failed == 1


def test_known_red_check_is_reported_and_a_flip_fails(ep, references):
    wl = Verify("tiny", 0)
    code, text = wl.run(ep, wl.jobs)
    ref = references["tiny"]["verify"]
    outcome = wl.check((code, text), ref)
    assert outcome.failed == 0
    assert any(KNOWN_RED in note and "FAIL" in note for note in outcome.notes)
    assert [KNOWN_RED, "FAIL"] in ref["checks"] and [KNOWN_RED, "FAIL"] in references["full"]["verify"]["checks"]
    flipped = text.replace(f"FAIL {KNOWN_RED}", f"PASS {KNOWN_RED}")
    assert wl.check((code, flipped), ref).failed == 1


def test_pool_never_exceeds_the_cores():
    assert pool_jobs(2, 1) == 1
    assert pool_jobs(2, 64) == 2
    assert GridWide("full", 0).jobs <= available_cpus()


def test_exact_counts_repeat_across_seeds(ep, references):
    a = tiny_run(ep, references, "classify", seed=1, trace=True)["metrics"]
    b = tiny_run(ep, references, "classify", seed=2, trace=True)["metrics"]
    assert {k: a[k]["value"] for k in COUNT_UNITS} == {k: b[k]["value"] for k in COUNT_UNITS}


def test_seed_changes_order_not_work():
    a, b = Classify("full", 1), Classify("full", 2)
    assert a.columns != b.columns and sorted(a.columns) == sorted(b.columns)
    assert GridTall("full", 1).items == GridTall("full", 2).items


def test_names_match_the_package(ep):
    assert SUITES == ep.SUITE_IDS
    assert set(MECHANISMS) == {getattr(ep.classify, k) for k in dir(ep.classify) if k.startswith("MECH_")}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
