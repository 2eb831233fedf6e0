"""Command-line front-end: CSV in, table or JSON report out.

Subcommands:
  indices   function CSV (x,y columns) -> monotonicity indices
  compare   two function CSVs -> ordering verdict (exit 1 when it fails)
  measure   atoms CSV (location,weight) -> positivity indices and Jordan parts
  premium   sample CSV (one column) -> weighted premium and loading report
  glr       function CSV on [0,1] -> gain-loss and normalized ratios

Exit codes: 0 success (or verdict "yes"), 1 verdict "no", 2 any input or
domain error.  The default output format is a table; --format json (or the
MONO_FORMAT environment variable) switches to a JSON object with the fixed
shape {command, input, results, warnings}.  JSON floats are rounded to 12
significant digits so identical inputs give byte-identical output; infinite
ratios are emitted as the bare token Infinity, which strict JSON parsers must
be told about.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, MonotoniaError
from .functions import SampledFunction
from .indices import report
from .measures import DiscreteSignedMeasure, jordan, positivity_report
from .orderings import INDEX_RELATIONS, STRICT_RELATIONS, compare, compare_strict
from .risk import WEIGHT_CATALOG, EmpiricalDistribution, WeightSpec, gain_loss_report, loading_report

__all__ = ["main", "build_parser"]

_FORMATS = ("table", "json")


def _all_numeric(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def _data_rows(path: str, reader, ncols: int):
    """The data rows of a ``csv.reader`` as (row number, values).

    Skips blank rows and one leading header, and raises the error that names
    the offending row.
    """
    header_allowed = True
    for rowno, row in enumerate(reader, start=1):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if header_allowed and not _all_numeric(cells):
            header_allowed = False
            continue
        header_allowed = False
        if len(cells) != ncols:
            raise InvalidInputError(f"{path}: row {rowno}: expected {ncols} column(s), got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise InvalidInputError(f"{path}: row {rowno}: non-numeric value") from None
        if not all(math.isfinite(v) for v in values):
            raise InvalidInputError(f"{path}: row {rowno}: non-finite value")
        yield rowno, values


def _bulk_rows(lines: list[str], rowno: int, ncols: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows on ``lines``, which hold no quote or NUL and follow row ``rowno``, read by one ``np.loadtxt``.

    None where that call cannot be sure to give the rows the csv module gives.
    """
    # Fields over the csv module's size limit are for the csv module to reject.
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    if lengths.max(initial=0) > csv.field_size_limit():
        return None
    # Unquoted, each line is one csv row, so the rows number on from rowno,
    # even where a row before them spans lines.  np.loadtxt skips empty lines
    # only, so each non-empty line gives one row; it warns on input without any.
    rownos = np.flatnonzero(lengths) + (rowno + 1)
    try:
        # comments=None: a '#' row is malformed input, not a comment.
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2) if rownos.size else np.empty((0, ncols))
    except ValueError:
        return None
    if values.shape != (rownos.shape[0], ncols) or not np.isfinite(values).all():
        return None
    return values, rownos


def _read_table(path: str, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Data rows of a CSV file as an (n, ncols) float64 array, and their row numbers.

    Skips blank rows and one leading header.  The csv module reads up to the
    first data row and ``np.loadtxt`` the lines after it; where that cannot be
    sure, the csv module carries on from where it stopped.  The file is opened
    and decoded once, and the csv module does not read the head again.
    """
    # The lines of open(newline=""), which end at \r\n, a lone \r or \n.  The
    # csv module reads any line break alike outside quotes, and inside them
    # it is whitespace, which a cell strips or fails float() on alike.
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not UTF-8 text (invalid byte at offset {exc.start})") from None
    lines = text.split("\n")
    # Quoted fields and NUL bytes are for the csv module to parse or reject,
    # so it reads at least through the last line that holds one.
    last = max(text.rfind('"'), text.rfind("\0"))
    csv_lines = text.count("\n", 0, last) + 1 if last >= 0 else 0
    reader = csv.reader(line + "\n" for line in lines)
    rows = _data_rows(path, reader, ncols)
    first = next(rows, None)
    if first is not None and reader.line_num >= csv_lines:
        body = _bulk_rows(lines[reader.line_num :], first[0], ncols)
        if body is not None:
            return np.vstack((first[1], body[0])), np.concatenate(([first[0]], body[1]))
    rows = [first, *rows] if first else []
    return np.array([v for _, v in rows]).reshape(-1, ncols), np.array([n for n, _ in rows], dtype=np.intp)


def _load_function(path: str) -> SampledFunction:
    table, linenos = _read_table(path, 2)
    if table.shape[0] < 2:
        raise InvalidInputError(f"{path}: need at least 2 data rows")
    # Valid abscissas are distinct, so any sort gives the one permutation.
    order = np.argsort(table[:, 0])
    xs = table[order, 0]
    # Compared, not differenced: a difference of finite abscissas can overflow.
    dup = np.flatnonzero(xs[1:] == xs[:-1])
    if dup.size:
        # The first two rows in file order of the smallest repeated x, which may be -0.0 and 0.0.
        first, second = np.flatnonzero(table[:, 0] == xs[dup[0]])[:2]
        raise InvalidInputError(
            f"{path}: duplicate x={float(table[first, 0])!r} at rows {linenos[first]} and {linenos[second]}"
        )
    return SampledFunction(xs, table[order, 1])


def _load_atoms(path: str) -> tuple[DiscreteSignedMeasure, list[str]]:
    table, linenos = _read_table(path, 2)
    locations, weights = table[:, 0], table[:, 1]
    warnings = []
    zero = weights == 0.0
    if zero.any():
        dropped = ", ".join(map(str, linenos[zero].tolist()))
        warnings.append(f"{path}: dropped zero-weight atom row(s) {dropped}")
    return DiscreteSignedMeasure(locations, weights), warnings


def _load_sample(path: str) -> EmpiricalDistribution:
    table, _ = _read_table(path, 1)
    if table.shape[0] == 0:
        raise InvalidInputError(f"{path}: need at least 1 data row")
    return EmpiricalDistribution(table[:, 0])


def _round12(x: float) -> float:
    return float("%.12g" % (x + 0.0))


def _round_floats(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _fmt_pairs(a: np.ndarray) -> str:
    """``_fmt_value`` of an (n, 2) array's rows as lists, in one %-format; + 0.0 turns -0.0 into the 0 it prints."""
    return "[" + ", ".join(["[%.12g, %.12g]"] * a.shape[0]) % tuple((a + 0.0).ravel().tolist()) + "]"


def _json_pairs(a: np.ndarray, pad: str) -> str:
    """``json.dumps`` of an (n, 2) array's rows as lists, rounded as ``_round12`` does, nested at ``pad``.

    Both passes are one %-format: ``%.12g`` rounds every value, and ``%r``
    writes the rounded float as ``json.dumps`` does.  + 0.0 turns -0.0 into
    0.0, as ``_round12`` does.  The values are finite.
    """
    if a.shape[0] == 0:
        return "[]"
    flat = (a + 0.0).ravel().tolist()
    rounded = map(float, (("%.12g " * len(flat)) % tuple(flat)).split())
    outer, inner = pad + "  ", pad + "    "
    pair = f"[\n{inner}%r,\n{inner}%r\n{outer}]"
    return f"[\n{outer}" + f",\n{outer}".join([pair] * a.shape[0]) % tuple(rounded) + f"\n{pad}]"


def _json(value, pad: str = "") -> str:
    """``json.dumps(_round_floats(value), indent=2)`` nested at ``pad``; an array holds (n, 2) pairs.

    A JSON string holds no raw newline, so indenting every line of a nested
    dump places it at ``pad``.
    """
    if isinstance(value, np.ndarray):
        return _json_pairs(value, pad)
    if isinstance(value, dict) and value:
        inner = pad + "  "
        items = [f"{inner}{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    return json.dumps(_round_floats(value), indent=2).replace("\n", "\n" + pad)


def _fmt_value(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, np.ndarray):
        return _fmt_pairs(v)
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return "%.12g" % (v + 0.0)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_value(e) for e in v) + "]"
    return str(v)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(payload))
        return
    print(f"command: {payload['command']}")
    for key, value in payload["input"].items():
        print(f"{key}: {_fmt_value(value)}")
    for key, value in payload["results"].items():
        print(f"{key}: {_fmt_value(value)}")
    for warning in payload["warnings"]:
        print(f"warning: {warning}")


def _resolve_format(flag_value: str | None) -> str:
    fmt = flag_value or os.environ.get("MONO_FORMAT") or "table"
    if fmt not in _FORMATS:
        raise InvalidParameterError(
            f"output format must be one of {_FORMATS}, got {fmt!r} "
            "(check --format and the MONO_FORMAT environment variable)"
        )
    return fmt


def _cmd_indices(args) -> tuple[dict, dict, list[str], int]:
    fn = _load_function(args.file)
    input_info = {"file": args.file}
    if args.interval is not None:
        a, b = args.interval
        fn = fn.restrict(a, b)
        input_info["interval"] = [a, b]
    results = dataclasses.asdict(report(fn, p=args.p))
    if args.p is None:
        del results["p"], results["loi_p"]
    return input_info, results, [], 0


def _cmd_compare(args) -> tuple[dict, dict, list[str], int]:
    g = _load_function(args.file_a)
    h = _load_function(args.file_b)
    order = compare_strict if args.relation in STRICT_RELATIONS else compare
    results = dataclasses.asdict(order(g, h, args.relation))
    note = results.pop("note")
    input_info = {"file_a": args.file_a, "file_b": args.file_b, "relation": args.relation}
    return input_info, results, [note] if note else [], 0 if results["holds"] == "yes" else 1


def _cmd_measure(args) -> tuple[dict, dict, list[str], int]:
    measure, warnings = _load_atoms(args.file)
    results = dataclasses.asdict(positivity_report(measure))
    parts = jordan(measure)
    # (n, 2) arrays of (location, weight) rows, which _emit prints in one pass per format.
    results["positive_part"] = np.column_stack((parts.positive_part.locations, parts.positive_part.weights))
    results["negative_part"] = np.column_stack((parts.negative_part.locations, parts.negative_part.weights))
    return {"file": args.file}, results, warnings, 0


def _make_weight(name: str, param: float | None) -> tuple[WeightSpec, list[str]]:
    if name.startswith("sampled:"):
        weight_fn = _load_function(name.split(":", 1)[1])
        warnings = [] if param is None else ["--param is ignored for sampled weights"]
        return WeightSpec.sampled(weight_fn), warnings
    if name not in WEIGHT_CATALOG:
        raise InvalidParameterError(
            f"unknown weight {name!r}; choose one of {', '.join(WEIGHT_CATALOG)} "
            "or sampled:<csv-file>"
        )
    return WeightSpec(name, param), []


def _cmd_premium(args) -> tuple[dict, dict, list[str], int]:
    sample = _load_sample(args.file)
    weight, warnings = _make_weight(args.weight, args.param)
    results = dataclasses.asdict(loading_report(sample, weight))
    return {"file": args.file, "weight": args.weight, "param": args.param}, results, warnings, 0


def _cmd_glr(args) -> tuple[dict, dict, list[str], int]:
    fn = _load_function(args.file)
    if fn.lower < -1e-9 or fn.upper > 1.0 + 1e-9:
        raise InvalidInputError(
            f"{args.file}: domain [{fn.lower}, {fn.upper}] must lie within [0, 1]"
        )
    return {"file": args.file}, dataclasses.asdict(gain_loss_report(fn)), [], 0


_DISPATCH = {
    "indices": _cmd_indices,
    "compare": _cmd_compare,
    "measure": _cmd_measure,
    "premium": _cmd_premium,
    "glr": _cmd_glr,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotonia",
        description="Monotonicity and positivity indices for sampled data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=_FORMATS,
            default=None,
            help="output format (default: MONO_FORMAT environment variable, then table)",
        )

    p_idx = sub.add_parser("indices", help="monotonicity indices of a sampled function")
    p_idx.add_argument("file", help="CSV with x,y columns")
    p_idx.add_argument("--p", type=float, default=None, help="also report the Lp lack-of-increase index")
    p_idx.add_argument(
        "--interval",
        nargs=2,
        type=float,
        metavar=("A", "B"),
        default=None,
        help="restrict the analysis to [A, B] (must lie within the data range)",
    )
    add_format(p_idx)

    p_cmp = sub.add_parser("compare", help="order two sampled functions by monotonicity")
    p_cmp.add_argument("file_a", help="CSV with x,y columns")
    p_cmp.add_argument("file_b", help="CSV with x,y columns")
    p_cmp.add_argument(
        "--relation",
        required=True,
        choices=INDEX_RELATIONS + STRICT_RELATIONS,
        help="I/D/M compare normalized indices; SI/SD compare survival curves",
    )
    add_format(p_cmp)

    p_meas = sub.add_parser("measure", help="positivity indices of a discrete signed measure")
    p_meas.add_argument("file", help="CSV with location,weight columns")
    add_format(p_meas)

    p_prem = sub.add_parser("premium", help="weighted premium and loading report for a sample")
    p_prem.add_argument("file", help="CSV with one column of observations")
    p_prem.add_argument(
        "--weight",
        required=True,
        help=f"one of {', '.join(WEIGHT_CATALOG)}, or sampled:<csv-file>",
    )
    p_prem.add_argument("--param", type=float, default=None, help="parameter of the catalog weight")
    add_format(p_prem)

    p_glr = sub.add_parser("glr", help="gain-loss and normalized ratios of a function on [0, 1]")
    p_glr.add_argument("file", help="CSV with x,y columns, domain within [0, 1]")
    add_format(p_glr)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fmt = _resolve_format(args.format)
        input_info, results, warnings, code = _DISPATCH[args.command](args)
    except (MonotoniaError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit({"command": args.command, "input": input_info, "results": results, "warnings": warnings}, fmt)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: the rest of the output, and the flush at exit, go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
