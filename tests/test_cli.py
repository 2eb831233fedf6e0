"""End-to-end tests for the command-line interface.

Golden tests pin the JSON and table output byte for byte; the remaining tests cover the
exit-code contract (0 success/yes, 1 verdict no, 2 input or domain error),
format selection, and the CSV edge cases.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from monotonia import GainLossReport, LoadingReport, MonotonicityReport, OrderingVerdict, PositivityReport
from monotonia import cli, jordan, positivity_report
from monotonia.cli import _fmt_value, main

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

# The survival-curve verdicts.  They are listed after the other cases, in both
# formats, so that those keep their test ids.
STRICT_GOLDEN_CASES = [
    (
        "compare_tent_wave_SI.json",
        [
            "compare",
            "tests/fixtures/fn_tent.csv",
            "tests/fixtures/fn_wave.csv",
            "--relation",
            "SI",
            "--format",
            "json",
        ],
        1,
    ),
    (
        "compare_tent_wave_SD.json",
        [
            "compare",
            "tests/fixtures/fn_tent.csv",
            "tests/fixtures/fn_wave.csv",
            "--relation",
            "SD",
            "--format",
            "json",
        ],
        0,
    ),
]

# Awkward values for the Jordan parts' emitter, after the cases above so that their test ids keep their numbers.
MEASURE_GOLDEN_CASES = [
    # -0.0, sub-normal, near-maximal and 12-digit-tie values in both Jordan parts.
    (
        "measure_awkward.json",
        ["measure", "tests/fixtures/atoms_awkward.csv", "--format", "json"],
        0,
    ),
    # An all-negative measure: its positive part is empty.
    (
        "measure_negative.json",
        ["measure", "tests/fixtures/atoms_negative.csv", "--format", "json"],
        0,
    ),
]


def as_table(cases):
    """The same commands in table format; every JSON case ends in "--format json"."""
    return [(name.replace(".json", ".txt"), argv[:-1] + ["table"], code) for name, argv, code in cases]


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
    @pytest.mark.parametrize(
        "golden_name, argv, expected_code",
        GOLDEN_CASES + as_table(GOLDEN_CASES) + STRICT_GOLDEN_CASES + as_table(STRICT_GOLDEN_CASES)
        + MEASURE_GOLDEN_CASES + as_table(MEASURE_GOLDEN_CASES),
    )
    def test_output_is_byte_identical_and_repeatable(self, run, golden_name, argv, expected_code):
        expected = (GOLDEN / golden_name).read_text(encoding="utf-8")
        code, out, err = run(argv)
        assert err == ""
        assert code == expected_code
        assert out == expected
        code2, out2, _ = run(argv)
        assert (code2, out2) == (code, out)

    @pytest.mark.parametrize(
        "golden_name, argv, expected_code", GOLDEN_CASES + STRICT_GOLDEN_CASES + MEASURE_GOLDEN_CASES
    )
    def test_goldens_are_valid_json_with_fixed_shape(self, golden_name, argv, expected_code):
        payload = json.loads((GOLDEN / golden_name).read_text(encoding="utf-8"))
        assert sorted(payload) == ["command", "input", "results", "warnings"]
        assert payload["command"] == argv[0]

    def test_infinite_ratio_uses_json_infinity_token(self):
        text = (GOLDEN / "premium_quartet_indicator.json").read_text(encoding="utf-8")
        assert '"gain_loss_ratio": Infinity' in text
        assert json.loads(text)["results"]["gain_loss_ratio"] == math.inf


def _round12_reference(x: float) -> float:
    if math.isinf(x):
        return x
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def _fmt_float_reference(v: float) -> str:
    """The table formatter of a float as it was: format to 12 digits, parse, format again."""
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{_round12_reference(v):.12g}"


def _near_ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """Doubles at and next to a 13th significant digit of 5, where rounding to 12 digits ties."""
    ties = []
    for _ in range(n):
        digits = "".join(map(str, rng.integers(0, 10, 12)))
        tie = float(f"{rng.integers(1, 10)}.{digits[1:]}5e{rng.integers(-300, 300)}")
        ties += [np.nextafter(tie, -math.inf), tie, np.nextafter(tie, math.inf)]
    return np.array(ties)


class TestTableFloats:
    def test_one_format_gives_the_bytes_of_round_then_format(self):
        rng = np.random.default_rng(1205)
        finite = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
        finite = finite[np.isfinite(finite)]
        magnitudes = 10.0 ** rng.uniform(-320.0, 308.0, 40_000)
        ties = _near_ties(rng, 3_000)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, sys.float_info.max,
                 -sys.float_info.max, math.inf, -math.inf, math.nan, 0.1, 1.0, 999999999999.5, 1e12,
                 123456789012.5]
        values = np.concatenate((finite, magnitudes, -magnitudes, ties, edges)).tolist()
        diffs = [v for v in values if _fmt_value(v) != _fmt_float_reference(v)]
        assert diffs == []
        rounded = np.array([cli._round12(v) for v in values]).view(np.int64)
        assert (rounded == np.array([_round12_reference(v) for v in values]).view(np.int64)).all()
        assert len(values) > 100_000


def _round_floats_reference(obj):
    if isinstance(obj, float):
        return _round12_reference(obj)
    if isinstance(obj, dict):
        return {k: _round_floats_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats_reference(v) for v in obj]
    return obj


def _fmt_value_reference(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "0" if v == 0.0 else f"{v:.12g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_value_reference(e) for e in v) + "]"
    return str(v)


def _emit_reference(payload: dict, fmt: str) -> str:
    """The output of the per-value emitter: one Python call per float."""
    if fmt == "json":
        return json.dumps(_round_floats_reference(payload), indent=2) + "\n"
    lines = [f"command: {payload['command']}"]
    lines += [f"{key}: {_fmt_value_reference(value)}" for key, value in payload["input"].items()]
    lines += [f"{key}: {_fmt_value_reference(value)}" for key, value in payload["results"].items()]
    lines += [f"warning: {warning}" for warning in payload["warnings"]]
    return "\n".join(lines) + "\n"


def _measure_reference(path: str, fmt: str) -> str:
    """``monotonia measure`` as it printed the Jordan parts: lists of atoms, each float formatted alone."""
    measure, warnings = cli._load_atoms(path)
    results = asdict(positivity_report(measure))
    parts = jordan(measure)
    for key, part in (("positive_part", parts.positive_part), ("negative_part", parts.negative_part)):
        results[key] = [[float(x), float(w)] for x, w in zip(part.locations, part.weights)]
    return _emit_reference({"command": "measure", "input": {"file": path}, "results": results, "warnings": warnings}, fmt)


def _signed(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    return np.where(rng.random(values.shape[0]) < 0.5, -values, values)


class TestMeasureEmitter:
    """``measure`` prints each Jordan part in one pass per format, with the bytes of the per-value emitter."""

    EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-4, -1e-4, 9.9999999999995e-05,
             np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 99999999999.95, 1e11, 999999999999.5, 1e12,
             123456789012.5, 0.1234567890125, 9999999999999998.0, 1e16, -1e16, 1e17, -1e17,
             sys.float_info.max, -sys.float_info.max]

    @staticmethod
    def atoms(name: str) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(list(map(ord, name)))
        if name == "edges":
            locations = np.array(TestMeasureEmitter.EDGES)
            weights = np.resize([5e-324, -5e-324, 1e12, -1e13, 1e14, -1e15, 1e16, -1e17, 0.1234567890125,
                                 -123456789012.5, 1e-4, -1e-4, 2.5e-310], locations.shape[0])
            weights[3] = sys.float_info.max
            return locations, weights
        if name == "one atom in each part":
            return np.array([-0.0, 1e16]), np.array([5e-324, -0.1234567890125])
        if name == "positive only":
            return np.array([-1e-4, 2.0, 1e17]), np.array([1e-4, 1e300, 123456789012.5])
        if name == "negative only":
            return np.array([-3.5]), np.array([-sys.float_info.max])
        if name == "empty":
            return np.empty(0), np.empty(0)
        if name == "ties and exponent switches":
            # %.12g writes an exponent from 1e12 on and repr from 1e16 on; both below 1e-4.
            magnitudes = np.concatenate((10.0 ** rng.uniform(11.0, 17.0, 5_000), 1e-4 * rng.uniform(0.5, 2.0, 2_000)))
            values = np.concatenate((_near_ties(rng, 1_000), _signed(rng, magnitudes)))
            return values, _signed(rng, rng.permutation(np.abs(values)))
        # Random bit patterns: any finite location, and weights below 1e300 so that the total variation is finite.
        bits = rng.integers(0, 2**64, (2, 110_000), dtype=np.uint64).view(np.float64)
        locations = bits[0][np.isfinite(bits[0])]
        weights = bits[1][np.isfinite(bits[1]) & (np.abs(bits[1]) < 1e300)]
        n = min(locations.shape[0], weights.shape[0], 100_000)
        return locations[:n], weights[:n]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "name",
        ["edges", "one atom in each part", "positive only", "negative only", "empty",
         "ties and exponent switches", "random bits"],
    )
    def test_bytes_of_the_per_value_emitter(self, run, tmp_path, name, fmt):
        locations, weights = self.atoms(name)
        # One atom per location: np.unique takes -0.0 and 0.0 for one value, as the measure does.
        _, first = np.unique(locations, return_index=True)
        path = tmp_path / "atoms.csv"
        rows = [f"{x!r},{w!r}" for x, w in zip(locations[first].tolist(), weights[first].tolist())]
        path.write_text("\n".join(["location,weight", *rows]) + "\n", encoding="utf-8")
        code, out, err = run(["measure", str(path), "--format", fmt])
        assert (code, err) == (0, "")
        # Line by line first: a failure then names the first differing line, not a diff of megabytes.
        expected = _measure_reference(str(path), fmt)
        assert out.splitlines() == expected.splitlines()
        assert out == expected


class TestResultFields:
    """The JSON results of each subcommand are its library result's fields, in declared order."""

    @pytest.mark.parametrize(
        "argv, result_type, dropped, appended",
        [
            (["indices", "tests/fixtures/fn_tent.csv", "--p", "2"], MonotonicityReport, [], []),
            (["indices", "tests/fixtures/fn_tent.csv"], MonotonicityReport, ["p", "loi_p"], []),
            (
                ["compare", "tests/fixtures/fn_wave.csv", "tests/fixtures/fn_tent.csv", "--relation", "I"],
                OrderingVerdict,
                ["note"],
                [],
            ),
            (
                ["compare", "tests/fixtures/fn_tent.csv", "tests/fixtures/fn_wave.csv", "--relation", "SI"],
                OrderingVerdict,
                ["note"],
                [],
            ),
            (["measure", "tests/fixtures/atoms_mixed.csv"], PositivityReport, [], ["positive_part", "negative_part"]),
            (
                ["premium", "tests/fixtures/sample_quartet.csv", "--weight", "indicator", "--param", "0.5"],
                LoadingReport,
                [],
                [],
            ),
            (["glr", "tests/fixtures/glr_shifted.csv"], GainLossReport, [], []),
        ],
    )
    def test_results_keys_are_the_result_fields(self, run, argv, result_type, dropped, appended):
        code, out, err = run([*argv, "--format", "json"])
        assert code in (0, 1) and err == ""
        names = [f.name for f in fields(result_type) if f.name not in dropped]
        assert list(json.loads(out)["results"]) == names + appended


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

    @pytest.mark.filterwarnings("error")
    def test_steep_powered_index_is_scaled_not_an_error(self, run, tmp_path):
        # 10**400 overflows, but loi_p factors the slope out and gives the true value.
        spike = tmp_path / "spike.csv"
        spike.write_text("x,y\n0,0\n1,-10\n2,0\n", encoding="utf-8")
        code, out, err = run(["indices", str(spike), "--p", "400"])
        assert (code, err) == (0, "")
        assert out.endswith("p: 400\nloi_p: 10\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_total_variation_is_an_input_error(self, run, tmp_path):
        peaks = tmp_path / "peaks.csv"
        peaks.write_text("x,y\n0,0\n1,1.5e308\n2,0\n3,1.5e308\n4,0\n", encoding="utf-8")
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("location,weight\n0,1e308\n1,1e308\n", encoding="utf-8")
        for argv in (["indices", str(peaks)], ["measure", str(atoms)]):
            code, out, err = run(argv)
            assert (code, out) == (2, "")
            assert err == "error: the total variation overflows float64\n"

    @pytest.mark.filterwarnings("error")
    def test_glr_at_the_top_of_float64_prints_the_true_values(self, run, tmp_path):
        # a − b overflows in the one cell, which crosses zero at its middle.
        edge = tmp_path / "edge.csv"
        edge.write_text("t,value\n0,1e308\n1,-1e308\n", encoding="utf-8")
        code, out, err = run(["glr", str(edge)])
        assert (code, err) == (0, "")
        assert out.endswith("glr: 1\nomega_style: 0.5\nintegral: 0\nintegral_nonneg: yes\n")

    def test_glr_beyond_float64_is_an_input_error(self, run, tmp_path):
        path = tmp_path / "steep.csv"
        path.write_text("x,y\n0,1e300\n0.25,1e300\n0.5,0\n0.75,-1e-10\n", encoding="utf-8")
        code, out, err = run(["glr", str(path)])
        assert (code, out, err) == (2, "", "error: the gain-loss ratio 3.75e+299 / 1.25e-11 overflows float64\n")

    def test_glr_of_a_float_residual_next_to_one_is_finite(self, run, tmp_path):
        # 0.1 + 0.2 - 0.3 is -5.55e-17: its sliver of negative part is no underflow.
        path = tmp_path / "residual.csv"
        path.write_text(f"x,y\n0,1\n1,{0.3 - (0.1 + 0.2)!r}\n", encoding="utf-8")
        code, out, err = run(["glr", str(path)])
        assert (code, err) == (0, "")
        assert "glr: 3.24518553658e+32" in out.splitlines()

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["indices"], "x,y\n-1e308,0\n1e308,1\n"),
            (["measure"], "location,weight\n-1e308,1\n1e308,-1\n"),
        ],
    )
    def test_duplicate_checks_at_the_top_of_float64_print_no_warning(self, tmp_path, argv, text):
        # A subprocess: a RuntimeWarning from NumPy would go to its stderr.
        path = tmp_path / "far.csv"
        path.write_text(text, encoding="utf-8")
        proc = run_subprocess([*argv, str(path)])
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_curve_length_is_an_input_error(self, run, tmp_path):
        # Two falling cells, each 1.5e308 wide: their total length is wider than float64.
        wide = tmp_path / "wide.csv"
        wide.write_text("x,y\n-1.5e308,0\n0,-1\n1.5e308,-2\n", encoding="utf-8")
        code, out, err = run(["compare", str(wide), "tests/fixtures/fn_tent.csv", "--relation", "SI"])
        assert (code, out) == (2, "")
        assert err == "error: the total length of the falling cells overflows float64\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_total_weight_is_a_parameter_error(self, run):
        code, out, err = run(
            ["premium", "tests/fixtures/sample_quartet.csv", "--weight", "esscher", "--param", "800"]
        )
        assert (code, out) == (2, "")
        assert err == "error: the total weight of esscher(800.0) overflows float64\n"

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

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_a_reader_that_goes_away_ends_the_output_quietly(self, fmt, tmp_path):
        # 2e4 atoms print far more than a pipe holds, so the CLI is still writing when the pipe closes.
        rng = np.random.default_rng(6)
        path = tmp_path / "atoms.csv"
        atoms = np.column_stack((np.arange(20_000.0), rng.normal(size=20_000)))
        np.savetxt(path, atoms, delimiter=",", header="location,weight", comments="")
        proc = subprocess.Popen(
            [sys.executable, "-m", "monotonia.cli", "measure", str(path), "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


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
