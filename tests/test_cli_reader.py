"""Differential tests of the CLI's bulk CSV reader.

``cli._read_table`` parses a whole file with one ``np.loadtxt`` call and
falls back to the row-wise ``cli._read_csv`` on anything that call cannot
take exactly.  ``_read_csv`` is the reference for the values and line
numbers.  The list-based loaders below, the CLI's loaders before the bulk
reader, on top of ``_read_csv``, are the reference for what ``cli.main``
prints.
"""

from __future__ import annotations

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotonia import cli
from monotonia.errors import InvalidInputError
from monotonia.functions import SampledFunction
from monotonia.measures import DiscreteSignedMeasure
from monotonia.risk import EmpiricalDistribution

CASES = {
    "header": b"x,y\n0,0\n1,1\n3,-1\n",
    "headerless": b"0,0\n1,1\n3,-1\n",
    "numeric_first_row_after_blanks": b"\n  \n , \n0,0\n1,1\n3,-1",
    "numeric_header_is_data": b"1,2\n0,0\n3,-1\n",
    "blank_and_whitespace_lines": b"x,y\n\n0,0\n   \n1,1\n\t\n3,-1\n\n\n",
    "comma_only_line": b"x,y\n0,0\n , \n1,1\n",
    "crlf": b"x,y\r\n0,0\r\n1,1\r\n\r\n3,-1\r\n",
    "lone_cr": b"x,y\r0,0\r1,1\r\r3,-1",
    "mixed_line_breaks": b"x,y\r\r\n0,0\n1,1\r\n3,-1\r",
    "hash_row": b"x,y\n#0,0\n1,1\n3,-1\n",
    "hash_header": b"# x,y\n0,0\n1,1\n",
    "quoted_value": b'x,y\n"1.5",0\n2,1\n',
    "quoted_header": b'"x","y"\n0,0\n1,1\n',
    "quoted_header_spans_lines": b'"x\n,y",z\n0,0\n1,x\n',
    "unclosed_quote_in_header": b'x,"y\n0,0\n1,1\n3,-1\n',
    "underscore_digits": b"x,y\n1_0,0\n2,1\n",
    "non_ascii_digit": "x,y\n\u0661,0\n2,1\n".encode(),
    "unicode_whitespace": "x,y\n\xa00\x0c,0\x0b\n1, 1\n3,-1\x1c\n".encode(),
    "byte_order_mark_on_data": "\ufeff0,0\n1,1\n3,-1\n".encode(),
    "number_forms": b"x,y\n1e-3,+.5\n2.,-1E+2\n .25 ,  7\n4,2.2250738585072014e-308\n5,4.9e-324\n",
    "fortran_exponent": b"x,y\n1d5,0\n2,1\n",
    "hex_float": b"x,y\n0x10,0\n20,1\n",
    "inf": b"x,y\n0,inf\n1,0\n",
    "nan": b"x,y\n0,nan\n1,0\n",
    "overflow": b"x,y\n0,1e400\n1,0\n",
    "signed_zero_duplicate": b"x,y\n-0.0,1\n0.0,2\n1,0\n",
    "signed_zero_duplicate_reversed": b"x,y\n1,0\n0.0,2\n\n-0.0,1\n",
    "duplicate_x": b"x,y\n0,0\n1,2\n1,3\n",
    # Twenty rows in falling order, -0.0 in the middle and 0.0 last: an
    # unstable sort would swap the two zeros and the rows the error names.
    "signed_zero_duplicate_descending": (
        "x,y\n" + "".join(f"{'-0.0' if x == 0 else x},{x}\n" for x in range(10, -9, -1)) + "0.0,5\n"
    ).encode(),
    "one_column": b"v\n1\n\n2.5\n3\n",
    "three_columns": b"a,b,c\n1,2,3\n4,5,6\n",
    "ragged": b"x,y\n0,0\n1,1,1\n2,2\n",
    "trailing_comma": b"x,y\n0,0,\n1,1,\n",
    "empty_field": b"x,y\n0,\n1,1\n",
    "inner_space": b"x,y\n1 2,0\n3,1\n",
    "tab_separated": b"x\ty\n0\t0\n1\t1\n",
    "empty": b"",
    "header_only": b"x,y\n",
    "blank_only": b"\n \n\t\n",
    "single_row": b"x,y\n0,1",
    "zero_weights": b"location,weight\n0,1\n1,0\n\n2,-0.0\n3,-2\n4,0\n",
    "all_zero_weights": b"location,weight\n0,0\n1,-0.0\n",
    "duplicate_atom": b"location,weight\n0,1\n0,2\n",
    "nul_in_data": b"x,y\n0,0\n1,\x001\n",
    "nul_in_header": b"x\x00,y\n0,0\n1,1\n",
    "field_over_csv_limit": b"x,y\n" + b"0" * (csv.field_size_limit() + 1) + b"1,0\n2,1\n",
}

COMMANDS = {
    "indices": ["indices", "{path}"],
    "measure": ["measure", "{path}"],
    "premium": ["premium", "{path}", "--weight", "indicator", "--param", "0.5"],
}


# -- the reference loaders ---------------------------------------------------


def _rows(path: str, ncols: int) -> list[tuple[int, list[float]]]:
    values, linenos = cli._read_csv(path, ncols)
    return list(zip(linenos.tolist(), values.tolist()))


def _reference_load_function(path: str) -> SampledFunction:
    rows = _rows(path, 2)
    if len(rows) < 2:
        raise InvalidInputError(f"{path}: need at least 2 data rows")
    ordered = sorted(rows, key=lambda r: r[1][0])
    for (ln_a, va), (ln_b, vb) in zip(ordered, ordered[1:]):
        if va[0] == vb[0]:
            raise InvalidInputError(f"{path}: duplicate x={va[0]!r} at rows {ln_a} and {ln_b}")
    return SampledFunction(np.asarray([v[0] for _, v in ordered]), np.asarray([v[1] for _, v in ordered]))


def _reference_load_atoms(path: str) -> tuple[DiscreteSignedMeasure, list[str]]:
    rows = _rows(path, 2)
    warnings_ = []
    dropped = [str(ln) for ln, v in rows if v[1] == 0.0]
    if dropped:
        warnings_.append(f"{path}: dropped zero-weight atom row(s) {', '.join(dropped)}")
    return DiscreteSignedMeasure.from_atoms([v for _, v in rows if v[1] != 0.0]), warnings_


def _reference_load_sample(path: str) -> EmpiricalDistribution:
    rows = _rows(path, 1)
    if not rows:
        raise InvalidInputError(f"{path}: need at least 1 data row")
    return EmpiricalDistribution(np.asarray([v[0] for _, v in rows]))


# -- helpers -----------------------------------------------------------------


def _outcome(read, path: str, ncols: int):
    """(values as int64 bit patterns, line numbers), or (error type, message)."""
    try:
        values, linenos = read(path, ncols)
    except Exception as exc:  # the error itself is what is compared
        return type(exc).__name__, str(exc)
    assert values.dtype == np.float64 and values.shape == (linenos.shape[0], ncols)
    return values.view(np.int64).tolist(), linenos.tolist()


def _run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("ncols", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bulk_reader_matches_row_wise_reader(tmp_path, name, ncols):
    path = tmp_path / "in.csv"
    path.write_bytes(CASES[name])
    assert _outcome(cli._read_table, str(path), ncols) == _outcome(cli._read_csv, str(path), ncols)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_list_based_loaders(tmp_path, monkeypatch, capsys, name, command):
    path = tmp_path / "in.csv"
    path.write_bytes(CASES[name])
    argv = [str(path) if a == "{path}" else a for a in COMMANDS[command]]
    actual = _run_main(capsys, argv)
    monkeypatch.setattr(cli, "_load_function", _reference_load_function)
    monkeypatch.setattr(cli, "_load_atoms", _reference_load_atoms)
    monkeypatch.setattr(cli, "_load_sample", _reference_load_sample)
    assert actual == _run_main(capsys, argv)


def test_header_crlf_and_empty_lines_stay_on_the_bulk_path(tmp_path, monkeypatch):
    """A header, CRLF line breaks, shuffled rows and empty lines stay off the row-wise reader."""
    rng = np.random.default_rng(7)
    lines = ["x,y"]
    for x, y in zip(rng.permutation(500) * 0.5, rng.normal(size=500)):
        if rng.random() < 0.05:
            lines.append("")
        lines.append(f"{float(x)!r},{float(y)!r}")
    path = tmp_path / "in.csv"
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    expected = _outcome(cli._read_csv, str(path), 2)

    def row_wise_not_expected(path, ncols):
        raise AssertionError("fell back to the row-wise reader")

    monkeypatch.setattr(cli, "_read_csv", row_wise_not_expected)
    assert _outcome(cli._read_table, str(path), 2) == expected


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6e}"),
    st.from_regex(r"\A[+-]?[0-9]{1,30}(\.[0-9]{0,30})?([eE][+-]?[0-9]{1,3})?\Z"),
).flatmap(lambda s: st.sampled_from([s, f" {s}", f"{s} ", f"\t{s} "]))


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(_NUMBER_TEXT, _NUMBER_TEXT), min_size=1, max_size=8))
def test_bulk_values_are_bit_identical_to_float(cells):
    text = "x,y\n" + "".join(f"{a},{b}\n" for a, b in cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "in.csv")
        Path(path).write_text(text, encoding="utf-8")
        assert _outcome(cli._read_table, path, 2) == _outcome(cli._read_csv, path, 2)


@pytest.mark.parametrize("content", [b"", b"x,y\n", b"\n\n", b"\n \n\t\n , \n", b"x,y\n\n\n", b"x,y\n \n\t\n"])
def test_loaders_leak_no_warnings(tmp_path, content):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="need at least 2 data rows"):
            cli._load_function(str(path))
        with pytest.raises(InvalidInputError, match="need at least 1 data row"):
            cli._load_sample(str(path))
        measure, notes = cli._load_atoms(str(path))
    assert measure.locations.shape == (0,) and notes == []
