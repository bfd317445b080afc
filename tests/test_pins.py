"""The smoke steps of the CI workflow, run in-process through cli.main with the same numbers; a step
that guards against a runaway runs in a subprocess under the step's timeout.

Each digest is read from the workflow's `sha256sum -c` lines, so it is written in one place.
The demos' stdout digests are checked by tests/test_demos.py, which runs each demo once.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eulerprod import coeffs_by_product, exceptions_from_spec, weight_from_spec
from eulerprod.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_digests():
    """{file name: sha256} from the workflow's `echo "<sha256>  $RUNNER_TEMP/<file>" | sha256sum -c -` lines."""
    pattern = re.compile(r'echo "([0-9a-f]{64})  \$RUNNER_TEMP/([\w.]+)" \| sha256sum -c -')
    return {name: digest for digest, name in pattern.findall(WORKFLOW.read_text(encoding="utf-8"))}


DIGESTS = workflow_digests()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stats_rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def count(rows, path, bits=None, n_computed=None):
    return sum(1 for row in rows if row["path"] == path and row["bits"] == bits
               and (n_computed is None or row["n_computed"] == n_computed))


def test_the_workflow_pins_every_digest_read_here():
    demos = {f"{path.stem}.txt" for path in (ROOT / "demos").glob("*.py")}
    assert set(DIGESTS) == {"verify.txt", "tall.csv", "tall.json", "tall.pbm", "tie.csv", "walk.txt",
                            "probes.txt", "module.txt"} | demos


def test_verify_all_with_timings(capsys):
    # exit 1 for the one known red check and for nothing else
    code, out, err = run(capsys, "verify", "all", "--timings")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 29
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL examples/alternating-weight-oscillation"]
    assert sha256(out.encode()) == DIGESTS["verify.txt"]
    timings = err.splitlines()
    assert len(timings) == 7
    assert all(re.fullmatch(r"(oracles|maxprod|lemmas|q-tables|theorems|figure1|examples) \d+\.\d{3}", line)
               for line in timings), timings


def test_pooled_budget_stop(capsys):
    code, out, err = run(capsys, "sweep", "--exceptions", "none", "--n-max", "2", "--ell-max", "200000",
                         "--jobs", "2", "--budget-seconds", "0")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1


def test_a_weight_file_outside_its_envelope(tmp_path, capsys):
    # the file the workflow writes, read from its echo line
    [text] = re.findall(r"echo '(.*)' > \"\$RUNNER_TEMP/steep.json\"", WORKFLOW.read_text(encoding="utf-8"))
    path = tmp_path / "steep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "classify", "--weights", f"custom:{path}", "--n", "8")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("sweep", "--exceptions", "none", "--n-max", "50", "--ell-max", "600000"),
    ("classify", "--exceptions", "none", "--n", "8", "--probe-ell", "1..600000"),
])
def test_weights_past_the_ceiling(tmp_path, argv):
    # in a subprocess under the workflow's timeout, so that a runaway fails instead of hanging
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-m", "eulerprod", *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=20)
    assert result.returncode == 2 and result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and "may exceed the weight ceiling" in line


def test_a_probe_range_past_its_size_ceiling(tmp_path):
    # in a subprocess under the workflow's timeout, so that a runaway fails instead of hanging
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-m", "eulerprod", "classify", "--exceptions", "none", "--n", "8",
                             "--probe-ell", "1..300000"], cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=20)
    assert result.returncode == 2 and result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and "ceiling for one set of probes" in line


@contextlib.contextmanager
def full_digits():
    """Read and write integers of any length here, as the workflow's check does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_integers_in_full(capsys):
    outs = {}
    for fmt in ("csv", "json"):
        code, outs[fmt], _ = run(capsys, "compute", "--exceptions", "none", "--ell", "1000", "--n-max", "30",
                                 "--format", fmt)
        assert code == 0
    code, outs["txt"], _ = run(capsys, "delta", "--exceptions", "none", "--ell", "1000", "--n", "30")
    assert code == 0
    with full_digits():
        p = coeffs_by_product(exceptions_from_spec("none"), weight_from_spec("power"), 1000, 31).coeffs
        rows = list(csv.DictReader(io.StringIO(outs["csv"])))
        assert len(rows[30]["p"]) > 4300
        assert [int(row["p"]) for row in rows] == list(p[:31])
        assert [row["p"] for row in json.loads(outs["json"])["rows"]] == list(p[:31])
        assert outs["txt"] == f"n=30 delta={p[30] ** 2 - p[29] * p[31]} sign=+1\n"


def test_an_unwritable_compute_path(tmp_path, capsys):
    code, out, err = run(capsys, "compute", "--n-max", "20000", "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


def test_routes_on_a_wide_sweep(tmp_path, capsys):
    stats = tmp_path / "rows.jsonl"
    weights = f"custom:{ROOT / 'perfbench' / 'example2.json'}"
    code, _, _ = run(capsys, "sweep", "--exceptions", "3", "--weights", weights, "--n-max", "200", "--ell-max", "100",
                     "--stats", str(stats))
    assert code == 0
    rows = stats_rows(stats)
    assert len(rows) == 100
    assert count(rows, "certified", n_computed=0) == 54
    assert count(rows, "bounded", bits=24) == 40
    assert count(rows, "exact") == 6


def test_routes_and_bytes_of_a_tall_sweep(tmp_path, capsys):
    stats, out = tmp_path / "tall.jsonl", tmp_path / "tall.csv"
    code, _, _ = run(capsys, "sweep", "--exceptions", "2,4", "--n-max", "50", "--ell-max", "400",
                     "--stats", str(stats), "--out", str(out))
    assert code == 0
    rows = stats_rows(stats)
    assert len(rows) == 400
    assert count(rows, "exact") == 41
    assert count(rows, "bounded", bits=24) == 76
    assert count(rows[-283:], "certified", n_computed=0) == 283
    assert sha256(out.read_bytes()) == DIGESTS["tall.csv"]
    for fmt in ("json", "pbm"):
        out = tmp_path / f"tall.{fmt}"
        code, _, _ = run(capsys, "sweep", "--exceptions", "2,4", "--n-max", "50", "--ell-max", "400",
                         "--format", fmt, "--out", str(out))
        assert code == 0
        assert sha256(out.read_bytes()) == DIGESTS[f"tall.{fmt}"], fmt


def test_certified_columns_on_a_tie(tmp_path, capsys):
    stats, out = tmp_path / "tie.jsonl", tmp_path / "tie.csv"
    code, _, _ = run(capsys, "sweep", "--exceptions", "none", "--n-max", "50", "--ell-max", "1000",
                     "--stats", str(stats), "--out", str(out))
    assert code == 0
    rows = stats_rows(stats)
    assert len(rows) == 1000
    assert [ell for ell, row in enumerate(rows, 1) if row["n_computed"] == 8] == list(range(71, 1001))
    assert sha256(out.read_bytes()) == DIGESTS["tie.csv"]


def test_one_large_maximizer_walk(capsys):
    code, out, _ = run(capsys, "maxprod", "--exceptions", "3", "--n", "400")
    assert code == 0
    [line] = [line for line in out.splitlines() if line.startswith("maximizers: ")]
    assert len(line.split(";")) == 101
    assert sha256(out.encode()) == DIGESTS["walk.txt"]


def test_delta_branch_probes(capsys):
    code, out, _ = run(capsys, "classify", "--exceptions", "none", "--n", "8", "--probe-ell", "1..12")
    assert code == 0
    assert sha256(out.encode()) == DIGESTS["probes.txt"]
