import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from eulerprod import exceptions_from_spec, parse_grid_csv, row_signs, weight_from_spec
from eulerprod import cli
from eulerprod.cli import main
from eulerprod.qseries import LADDER_BITS
from eulerprod.suites import CheckResult, SuiteReport
from test_pins import DIGESTS
from test_qseries import _weight_file, broken_weight_schemas


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_multiprocessing_unloaded():
    # a serial run never needs the pool's machinery, so importing the front end must not pay for it
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import eulerprod.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def run_module(tmp_path, *argv, preexec_fn=None):
    """python -m eulerprod with only the checkout's src/ on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "eulerprod", *argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=60, preexec_fn=preexec_fn)


class TestModuleEntryPoint:
    def test_classify_prints_the_probe_bytes(self, tmp_path):
        result = run_module(tmp_path, "classify", "--exceptions", "none", "--n", "8", "--probe-ell", "1..12")
        assert result.returncode == 0, result.stderr
        # the digest the CI smoke test pins for the module entry point
        assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS["module.txt"]

    def test_bad_probe_range_exits_2_with_one_line(self, tmp_path):
        result = run_module(tmp_path, "classify", "--exceptions", "none", "--n", "8", "--probe-ell", "a..b")
        assert result.returncode == 2
        assert result.stdout == b""
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestCompute:
    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "compute", "--exceptions", "2,4", "--n-max", "5")
        assert code == 0
        assert out.splitlines() == [
            "n,p,delta,sign",
            "0,1,,",
            "1,1,0,0",
            "2,1,-1,-1",
            "3,2,2,1",
            "4,2,-2,-1",
            "5,3,-1,-1",
        ]

    def test_json_file(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        code, _, _ = run(capsys, "compute", "--n-max", "6", "--format", "json",
                         "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["context"] == {"exceptions": "none", "weights": "power",
                                      "ell": 1, "n_max": 6}
        assert payload["rows"][0] == {"n": 0, "p": 1, "delta": None, "sign": None}
        assert payload["rows"][6] == {"n": 6, "p": 11, "delta": 16, "sign": 1}

    def test_rejects_bad_n_max(self, capsys):
        code, _, err = run(capsys, "compute", "--n-max", "0")
        assert code == 2 and "error:" in err

    def test_unwritable_out_fails_before_the_coefficients(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "coeffs_by_recurrence", lambda *args: pytest.fail("the coefficients were computed"))
        for path in (tmp_path / "missing" / "x.csv", tmp_path):
            code, out, err = run(capsys, "compute", "--n-max", "1500", "--ell", "20", "--out", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_compute_keeps_an_existing_out_file(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise ArithmeticError("no coefficients")

        monkeypatch.setattr(cli, "coeffs_by_recurrence", fail)
        kept, new = tmp_path / "table.csv", tmp_path / "new.csv"
        kept.write_bytes(b"earlier\n")
        for path in (kept, new):
            code, _, err = run(capsys, "compute", "--out", str(path))
            assert code == 2 and err == "error: no coefficients\n"
        assert kept.read_bytes() == b"earlier\n" and not new.exists()


class TestDelta:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "delta", "--n", "6")
        assert code == 0 and out.strip() == "n=6 delta=16 sign=+1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "delta", "--n", "6", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 6, "value": 16, "sign": 1}


class TestMaxprod:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "maxprod", "--exceptions", "4", "--n", "8")
        assert code == 0
        assert out.splitlines() == [
            "n: 8",
            "max product: 18",
            "maximizers: 3+3+2",
            "unique: yes",
            "coefficient: 1/2",
            "runner-up: 16",
        ]

    def test_closed_form_json(self, capsys):
        code, out, _ = run(capsys, "maxprod", "--exceptions", "2", "--closed-form",
                           "--n", "25", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["product"] == 8748
        assert payload["maximizers"] == [{"parts": [4, 3, 3, 3, 3, 3, 3, 3]}]
        assert payload["second_product"] is None

    def test_closed_form_reads_the_exception_set(self, capsys):
        _, closed, _ = run(capsys, "maxprod", "--exceptions", "2", "--closed-form", "--n", "25")
        _, table, _ = run(capsys, "maxprod", "--exceptions", "2", "--n", "25")
        assert closed.splitlines()[:5] == table.splitlines()[:5]

    def test_closed_form_no_case(self, capsys):
        code, out, _ = run(capsys, "maxprod", "--exceptions", "support:1,3,5", "--closed-form", "--n", "12")
        assert code == 0 and "no closed form" in out

    def test_a_target_too_large_to_allocate_exits_2_with_one_line(self, tmp_path):
        # the child alone runs with a 400 MB address space, where the part list of 10^8 targets cannot be built
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        result = run_module(tmp_path, "maxprod", "--exceptions", "3", "--n", "100000000",
                            preexec_fn=cap_address_space)
        assert result.returncode == 2
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert b"Traceback" not in result.stderr

    def test_tail_min_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["maxprod", "--n", "8", "--tail-min", "5"])
        assert info.value.code == 2 and "error:" in capsys.readouterr().err


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--exceptions", "2,4", "--n", "9")
        assert code == 0
        assert "verdict: eventually-concave" in out
        assert "mechanism: theorem-table" in out

    def test_json_with_probes(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "8", "--probe-ell", "1..4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "conditional"
        assert payload["detail"]["probes"][0] == [1, "14/9"]

    def test_bad_probe_range(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "8", "--probe-ell", "5")
        assert code == 2 and "error:" in err

    # int() alone would probe ell 10..12 and 3..4 here
    @pytest.mark.parametrize("probes", ["1_0..1_2", " \uff13..4", "1..\u0664"])
    def test_probe_range_takes_ascii_digits_only(self, capsys, probes):
        code, out, err = run(capsys, "classify", "--n", "8", "--probe-ell", probes)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestSweep:
    def test_grid_file(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "sweep", "--exceptions", "2,4", "--n-max", "6",
                         "--ell-max", "4", "--out", str(path))
        assert code == 0
        cells = parse_grid_csv(str(path))
        assert len(cells) == 24 and cells[3, 1] == 1

    def test_pbm(self, tmp_path, capsys):
        path = tmp_path / "grid.pbm"
        code, _, _ = run(capsys, "sweep", "--exceptions", "support:1,3", "--n-max", "3",
                         "--ell-max", "2", "--out", str(path), "--format", "pbm")
        assert code == 0
        assert path.read_text().startswith("P1\n")

    def test_summary_stdout(self, capsys):
        code, out, _ = run(capsys, "sweep", "--exceptions", "support:1,3",
                           "--n-max", "6", "--ell-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n terminal threshold stabilized predicted agrees"
        assert lines[1] == "1 +0 1 yes zero yes"

    @pytest.mark.parametrize("jobs", ["0", "-7"])
    def test_rejects_bad_jobs(self, capsys, jobs):
        code, _, err = run(capsys, "sweep", "--n-max", "4", "--ell-max", "2", "--jobs", jobs)
        assert code == 2 and "error: jobs must be >= 1" in err

    @pytest.mark.parametrize("budget", ["-1", "nan", "inf"])
    def test_rejects_bad_budget(self, capsys, budget):
        code, out, err = run(capsys, "sweep", "--n-max", "3", "--ell-max", "2",
                             "--budget-seconds", budget)
        assert code == 2 and out == ""
        assert err.startswith("error: budget_seconds") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json", "pbm", None])
    def test_stats_leave_outputs_unchanged(self, tmp_path, capsys, fmt):
        argv = ["sweep", "--exceptions", "2,4", "--n-max", "50", "--ell-max", "70"]
        if fmt is not None:
            argv += ["--format", fmt]
        outputs = []
        for name, extra in (("plain", []), ("stats", ["--stats", str(tmp_path / "rows.jsonl")])):
            out_args = [] if fmt is None else ["--out", str(tmp_path / f"{name}.{fmt}")]
            code, out, err = run(capsys, *argv, *out_args, *extra)
            assert code == 0 and err == ""
            data = b"" if fmt is None else (tmp_path / f"{name}.{fmt}").read_bytes()
            outputs.append((out, data))
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
        assert [row["ell"] for row in rows] == list(range(1, 71))
        assert all(set(row) == {"ell", "path", "bits", "n_computed", "seconds"} for row in rows)
        assert {(row["path"], row["bits"]) for row in rows} == {("bounded", LADDER_BITS[0]), ("exact", None)}

    def test_stats_show_sparse_support_certified(self, tmp_path, capsys):
        path = tmp_path / "rows.jsonl"
        code, _, _ = run(capsys, "sweep", "--exceptions", "support:1,3", "--n-max", "60",
                         "--ell-max", "170", "--jobs", "2", "--out", str(tmp_path / "grid.csv"),
                         "--stats", str(path))
        assert code == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["ell"] for row in rows] == list(range(1, 171))
        # with S = {1, 3}, one of n and n + 1 is never a sum of 3s, so every column is certified
        # from the first row and no row computes a cell
        assert {(row["path"], row["bits"], row["n_computed"]) for row in rows} == {("certified", None, 0)}

    def test_unwritable_out_fails_before_the_first_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
        for path in (tmp_path / "missing" / "grid.csv", tmp_path):
            code, out, err = run(capsys, "sweep", "--n-max", "50", "--ell-max", "600", "--out", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_sweep_keeps_an_existing_out_file(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        path.write_bytes(b"earlier\n")
        code, _, err = run(capsys, "sweep", "--n-max", "1", "--out", str(path))
        assert code == 2 and err == "error: n_max must be >= 2, got 1\n"
        assert path.read_bytes() == b"earlier\n"

    @pytest.mark.parametrize("fmt", ["csv", "json", "pbm"])
    def test_out_dash_writes_the_file_bytes_to_stdout(self, tmp_path, capsysbinary, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--exceptions", "2,4", "--n-max", "12", "--ell-max", "30", "--format", fmt]
        assert main([*argv, "--out", "grid"]) == 0
        assert main([*argv, "--out", "-"]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == (tmp_path / "grid").read_bytes() and captured.err == b""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["grid"]

    def test_stats_dash_writes_the_lines_to_stderr(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--exceptions", "2,4", "--n-max", "12", "--ell-max", "30"]
        code, plain, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = run(capsys, *argv, "--stats", "-")
        assert code == 0 and out == plain
        rows = [json.loads(line) for line in err.splitlines()]
        assert [row["ell"] for row in rows] == list(range(1, 31))
        assert list(tmp_path.iterdir()) == []

    # column 8 of E = none is never certified, so every row computes a prefix; the whole sweep
    # takes about 0.2 s, far past the budget
    BUDGET_SWEEP = ("sweep", "--exceptions", "none", "--n-max", "40", "--ell-max", "1000", "--budget-seconds", "0.01")

    def test_budget_exceeded(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        code, _, err = run(capsys, *self.BUDGET_SWEEP, "--out", str(path))
        assert code == 3 and "budget exceeded" in err
        assert path.exists()

    def test_budget_exceeded_without_out(self, tmp_path, capsys):
        code, _, err = run(capsys, *self.BUDGET_SWEEP)
        assert code == 3 and "budget exceeded" in err

    def test_budget_stop_with_out_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *self.BUDGET_SWEEP, "--out", "-")
        assert code == 3 and out.startswith("n,ell,sign\r\n")
        note = re.fullmatch(r"budget exceeded; wrote partial grid of (\d+) rows to stdout\n", err)
        assert note and len(out.splitlines()) == 1 + 40 * int(note[1])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("override,phi,psi,bad_ell", [
        # 3^(ell + 524283) passes 2^20 bits at ell = 6
        pytest.param("ell+524283", -1, 524283, 6, id="ceiling"),
        # the exponent at 3 is ell + 3 at odd ell and ell - 3 at even ell: -1 at ell = 2, after a good row
        pytest.param("ell-alt-alt-alt", -3, 3, 2, id="negative"),
        pytest.param("ell-10", -10, 0, 1, id="negative-first-row"),
    ])
    def test_filled_rows_keep_weight_checks(self, tmp_path, capsys, jobs, override, phi, psi, bad_ell):
        # S = {1, 3} certifies every column from the first row, so no row computes a weight
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"base": -1, "phi": phi, "psi": psi, "B": psi - phi, "overrides": {"3": override}}))
        spec, stats = f"custom:{path}", tmp_path / "rows.jsonl"
        with pytest.raises(ValueError) as info:
            row_signs(exceptions_from_spec("support:1,3"), weight_from_spec(spec), bad_ell, 30)
        code, out, err = run(capsys, "sweep", "--exceptions", "support:1,3", "--weights", spec, "--n-max", "30",
                             "--ell-max", "40", "--jobs", jobs, "--stats", str(stats), "--out", str(tmp_path / "g.csv"))
        assert code == 2 and out == ""
        assert err == f"error: {info.value}\n"
        assert not (tmp_path / "g.csv").exists()
        rows = [json.loads(line) for line in stats.read_text().splitlines()]
        assert [(row["ell"], row["path"]) for row in rows] == [(ell, "certified") for ell in range(1, bad_ell)]


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "q-tables")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8 and all(line.startswith("PASS q-tables/") for line in lines)

    def test_failing_suite_exit_code(self, capsys, monkeypatch):
        report = SuiteReport("q-tables", (CheckResult("stub", False, "n=1: 2 vs 3"),))
        monkeypatch.setattr("eulerprod.cli.verify_suite", lambda suite: report)
        code, out, _ = run(capsys, "verify", "q-tables")
        assert code == 1 and "FAIL q-tables/stub: n=1: 2 vs 3" in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "bogus"])
        assert info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("suite,expected_code", [("q-tables", 0), ("examples", 1)])
    def test_timings_leave_stdout_and_exit_code_unchanged(self, capsys, suite, expected_code):
        plain = run(capsys, "verify", suite)
        timed = run(capsys, "verify", suite, "--timings")
        assert plain[0] == timed[0] == expected_code and plain[1] == timed[1]
        assert plain[2] == ""
        name, seconds = timed[2].split()
        assert name == suite and float(seconds) >= 0

    def test_grid_flags_rejected_elsewhere(self, capsys):
        # every suite runs at its published size; other figure1 grids are a sweep away
        for flag, value in (("--n-max", "10"), ("--ell-max", "10"), ("--jobs", "2")):
            with pytest.raises(SystemExit) as info:
                main(["verify", "figure1", flag, value])
            out, err = capsys.readouterr()
            assert info.value.code == 2 and out == "" and "Traceback" not in err
            assert err.startswith("usage: eulerprod ") and err.count("error:") == 1
            assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


def test_bad_exception_spec(capsys):
    code, _, err = run(capsys, "delta", "--n", "4", "--exceptions", "nope:")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("text", [
    pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"2": 3}}', id="formula-int"),
    pytest.param('{"base": null, "phi": 0, "psi": 0, "B": 0}', id="base-null"),
    pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": ["ell"]}', id="overrides-list"),
    pytest.param('{"base": 0.7, "phi": 0, "psi": 0, "B": 0}', id="base-float"),
    pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"1": "ell"}}', id="override-n1"),
    pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "overrides": {"0": "ell"}}', id="override-n0"),
    pytest.param('{"base": 0, "phi": 0, "psi": 0, "B": 0, "extra": 1}', id="unknown-key"),
    pytest.param("[" * 100000, id="deep-nesting"),
])
def test_malformed_weight_file(tmp_path, capsys, text):
    path = tmp_path / "weights.json"
    path.write_text(text)
    code, _, err = run(capsys, "compute", "--weights", f"custom:{path}")
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=20, deadline=None)
@given(broken_weight_schemas())
def test_files_outside_their_envelope_exit_2_with_one_line(broken):
    schema, name = broken
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--weights", _weight_file(schema), "--n", "8"])
    assert code == 2 and out.getvalue() == ""
    [line] = err.getvalue().splitlines()
    assert line.startswith("error: weight family ") or line.startswith("error: override ")
    assert name in line


def test_huge_weight_file(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"base": 1000000000000, "phi": 1000000000000, "psi": 1000000000000, "B": 0}')
    # refused by the model first, so a missing check fails here instead of building the power
    with pytest.raises(ValueError, match="ceiling"):
        weight_from_spec(f"custom:{path}").exponent(1, 2)
    code, out, err = run(capsys, "compute", "--weights", f"custom:{path}", "--n-max", "3")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error:") and "ceiling" in err and err.count("\n") == 1
