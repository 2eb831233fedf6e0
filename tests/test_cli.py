"""End-to-end tests for the command-line interface.

Golden tests pin the JSON output byte for byte; the remaining tests cover the
exit-code contract (0 success/yes, 1 verdict no, 2 input or domain error),
format selection, and the CSV edge cases.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monotonia.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

GOLDEN_CASES = [
    (
        "indices_tent.json",
        ["indices", "tests/fixtures/fn_tent.csv", "--format", "json"],
        0,
    ),
    (
        "compare_wave_tent_I.json",
        [
            "compare",
            "tests/fixtures/fn_wave.csv",
            "tests/fixtures/fn_tent.csv",
            "--relation",
            "I",
            "--format",
            "json",
        ],
        0,
    ),
    (
        "measure_atoms.json",
        ["measure", "tests/fixtures/atoms_mixed.csv", "--format", "json"],
        0,
    ),
    (
        "premium_quartet_indicator.json",
        [
            "premium",
            "tests/fixtures/sample_quartet.csv",
            "--weight",
            "indicator",
            "--param",
            "0.5",
            "--format",
            "json",
        ],
        0,
    ),
    (
        "glr_shifted.json",
        ["glr", "tests/fixtures/glr_shifted.csv", "--format", "json"],
        0,
    ),
]


@pytest.fixture
def run(monkeypatch, capsys):
    """Invoke the CLI in-process from the repository root."""
    monkeypatch.chdir(ROOT)

    def _run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def run_subprocess(argv, **extra_env):
    env = dict(os.environ)
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "monotonia.cli", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )


class TestGolden:
    @pytest.mark.parametrize("golden_name, argv, expected_code", GOLDEN_CASES)
    def test_output_is_byte_identical_and_repeatable(self, run, golden_name, argv, expected_code):
        expected = (GOLDEN / golden_name).read_text(encoding="utf-8")
        code, out, err = run(argv)
        assert err == ""
        assert code == expected_code
        assert out == expected
        code2, out2, _ = run(argv)
        assert (code2, out2) == (code, out)

    @pytest.mark.parametrize("golden_name, argv, expected_code", GOLDEN_CASES)
    def test_goldens_are_valid_json_with_fixed_shape(self, golden_name, argv, expected_code):
        payload = json.loads((GOLDEN / golden_name).read_text(encoding="utf-8"))
        assert sorted(payload) == ["command", "input", "results", "warnings"]
        assert payload["command"] == argv[0]

    def test_infinite_ratio_uses_json_infinity_token(self):
        text = (GOLDEN / "premium_quartet_indicator.json").read_text(encoding="utf-8")
        assert '"gain_loss_ratio": Infinity' in text
        assert json.loads(text)["results"]["gain_loss_ratio"] == math.inf


class TestExitContract:
    def test_failed_verdict_exits_one(self, run):
        code, out, err = run(
            [
                "compare",
                "tests/fixtures/fn_tent.csv",
                "tests/fixtures/fn_wave.csv",
                "--relation",
                "I",
                "--format",
                "json",
            ]
        )
        assert code == 1
        assert json.loads(out)["results"]["holds"] == "no"
        assert err == ""

    def test_missing_file(self, run):
        code, out, err = run(["indices", "tests/fixtures/no_such_file.csv"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_duplicate_abscissa_names_both_rows(self, run, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("x,y\n0,0\n1,2\n1,3\n", encoding="utf-8")
        code, _, err = run(["indices", str(bad)])
        assert code == 2
        assert "duplicate x=1.0 at rows 3 and 4" in err

    def test_duplicate_atom_location_prints_a_plain_float(self, run, tmp_path):
        bad = tmp_path / "atoms.csv"
        bad.write_text("location,weight\n0,1\n0,2\n", encoding="utf-8")
        assert run(["measure", str(bad)]) == (
            2,
            "",
            "error: duplicate atom location 0.0; merge weights first\n",
        )

    def test_non_numeric_data_row(self, run, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0,0\n1,oops\n", encoding="utf-8")
        code, _, err = run(["indices", str(bad)])
        assert code == 2
        assert "row 3" in err and "non-numeric" in err

    def test_wrong_column_count(self, run, tmp_path):
        bad = tmp_path / "cols.csv"
        bad.write_text("x,y\n0,0,0\n", encoding="utf-8")
        code, _, err = run(["indices", str(bad)])
        assert code == 2
        assert "expected 2 column(s)" in err

    def test_non_finite_value(self, run, tmp_path):
        bad = tmp_path / "inf.csv"
        bad.write_text("x,y\n0,inf\n1,0\n", encoding="utf-8")
        code, _, err = run(["indices", str(bad)])
        assert code == 2
        assert "non-finite" in err

    def test_non_utf8_file_names_the_byte(self, run, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"x,y\n0,1\n1,\xe9\n")
        code, out, err = run(["indices", str(bad)])
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not UTF-8 text (invalid byte at offset 10)\n"

    def test_too_few_rows(self, run, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text("x,y\n0,0\n", encoding="utf-8")
        code, _, err = run(["indices", str(bad)])
        assert code == 2
        assert "at least 2" in err

    def test_unknown_weight(self, run):
        code, _, err = run(
            ["premium", "tests/fixtures/sample_quartet.csv", "--weight", "gaussian"]
        )
        assert code == 2
        assert "unknown weight" in err

    def test_catalog_weight_requires_param(self, run):
        code, _, err = run(
            ["premium", "tests/fixtures/sample_quartet.csv", "--weight", "esscher"]
        )
        assert code == 2
        assert "parameter" in err

    def test_constant_functions_cannot_be_compared(self, run, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("x,y\n0,1\n1,1\n", encoding="utf-8")
        code, _, err = run(
            ["compare", str(flat), "tests/fixtures/fn_tent.csv", "--relation", "I"]
        )
        assert code == 2
        assert "constant" in err

    def test_glr_domain_must_be_unit_interval(self, run):
        code, _, err = run(["glr", "tests/fixtures/fn_tent.csv"])
        assert code == 2
        assert "[0, 1]" in err

    def test_interval_outside_data_range(self, run):
        code, _, err = run(
            ["indices", "tests/fixtures/fn_tent.csv", "--interval", "0", "5"]
        )
        assert code == 2
        assert "not contained" in err

    def test_invalid_format_flag_is_an_argparse_error(self):
        proc = run_subprocess(["indices", "tests/fixtures/fn_tent.csv", "--format", "xml"])
        assert proc.returncode == 2
        assert "--format" in proc.stderr

    def test_invalid_relation_choice(self):
        proc = run_subprocess(
            [
                "compare",
                "tests/fixtures/fn_tent.csv",
                "tests/fixtures/fn_wave.csv",
                "--relation",
                "Z",
            ]
        )
        assert proc.returncode == 2


class TestFormatSelection:
    def test_default_is_table(self, run):
        code, out, _ = run(["indices", "tests/fixtures/fn_tent.csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command: indices"
        assert "loi: 2" in lines
        assert "loi_norm: 0.666666666667" in lines
        assert "interval: [0, 3]" in lines

    def test_env_variable_switches_to_json(self):
        proc = run_subprocess(
            ["indices", "tests/fixtures/fn_tent.csv"], MONO_FORMAT="json"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "indices"

    def test_flag_overrides_environment(self):
        proc = run_subprocess(
            ["indices", "tests/fixtures/fn_tent.csv", "--format", "table"],
            MONO_FORMAT="json",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("command: indices")

    def test_invalid_environment_format_is_rejected(self):
        proc = run_subprocess(
            ["indices", "tests/fixtures/fn_tent.csv"], MONO_FORMAT="yaml"
        )
        assert proc.returncode == 2
        assert "MONO_FORMAT" in proc.stderr

    def test_premium_table_spells_out_booleans_and_infinities(self, run):
        code, out, _ = run(
            [
                "premium",
                "tests/fixtures/sample_quartet.csv",
                "--weight",
                "indicator",
                "--param",
                "0.5",
            ]
        )
        assert code == 0
        lines = out.splitlines()
        assert "loading_nonneg: yes" in lines
        assert "gain_loss_ratio: inf" in lines
        assert "premium: 3.5" in lines


class TestCsvHandling:
    def test_rows_are_sorted_by_abscissa(self, run, tmp_path):
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("x,y\n3,-1\n0,0\n1,1\n", encoding="utf-8")
        code, out, _ = run(["indices", str(shuffled), "--format", "json"])
        assert code == 0
        golden = json.loads((GOLDEN / "indices_tent.json").read_text(encoding="utf-8"))
        assert json.loads(out)["results"] == golden["results"]

    def test_blank_lines_and_headerless_files(self, run, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("0,0\n\n1,1\n\n3,-1\n", encoding="utf-8")
        code, out, _ = run(["indices", str(plain), "--format", "json"])
        assert code == 0
        golden = json.loads((GOLDEN / "indices_tent.json").read_text(encoding="utf-8"))
        assert json.loads(out)["results"] == golden["results"]

    def test_empty_measure_reports_undefined_normalized_indices(self, run, tmp_path):
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("location,weight\n0,0\n1,0\n", encoding="utf-8")
        code, out, _ = run(["measure", str(zeros)])
        assert code == 0
        lines = out.splitlines()
        assert "lop: 0" in lines
        assert "lop_norm: undefined" in lines
        assert any(line.startswith("warning:") and "zero-weight" in line for line in lines)

    def test_measure_json_zero_weight_warning(self, run):
        code, out, _ = run(["measure", "tests/fixtures/atoms_mixed.csv", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["warnings"] and "row(s) 4" in payload["warnings"][0]


class TestOptions:
    def test_p_flag_adds_lp_index(self, run):
        code, out, _ = run(
            ["indices", "tests/fixtures/fn_tent.csv", "--p", "2", "--format", "json"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["p"] == 2.0
        assert math.isclose(results["loi_p"], math.sqrt(2.0), rel_tol=1e-11)

    def test_interval_restriction(self, run):
        code, out, _ = run(
            [
                "indices",
                "tests/fixtures/fn_tent.csv",
                "--interval",
                "0.5",
                "2.5",
                "--format",
                "json",
            ]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["loi"] == 1.5
        assert results["lod"] == 0.5
        assert results["tv"] == 2.0
        assert results["interval"] == [0.5, 2.5]

    def test_strict_relation_through_cli(self, run, tmp_path):
        rising = tmp_path / "rising.csv"
        rising.write_text("x,y\n0,0\n1,2\n", encoding="utf-8")
        code, out, _ = run(
            [
                "compare",
                str(rising),
                "tests/fixtures/fn_tent.csv",
                "--relation",
                "SI",
                "--format",
                "json",
            ]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["relation"] == "SI"
        assert results["holds"] == "yes"
        assert results["witness"] is None

    def test_strict_failure_carries_witness(self, run, tmp_path):
        rising = tmp_path / "rising.csv"
        rising.write_text("x,y\n0,0\n1,2\n", encoding="utf-8")
        code, out, _ = run(
            [
                "compare",
                "tests/fixtures/fn_tent.csv",
                str(rising),
                "--relation",
                "SI",
                "--format",
                "json",
            ]
        )
        assert code == 1
        results = json.loads(out)["results"]
        assert results["holds"] == "no"
        assert results["witness"] == 0.0

    def test_sampled_weight(self, run):
        code, out, _ = run(
            [
                "premium",
                "tests/fixtures/sample_quartet.csv",
                "--weight",
                "sampled:tests/fixtures/weight_tri.csv",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["premium"] == 2.5
        assert payload["warnings"] == []

    def test_sampled_weight_ignores_param_with_warning(self, run):
        code, out, _ = run(
            [
                "premium",
                "tests/fixtures/sample_quartet.csv",
                "--weight",
                "sampled:tests/fixtures/weight_tri.csv",
                "--param",
                "1.0",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["warnings"] == ["--param is ignored for sampled weights"]
