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
import json
import math
import os
import sys

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, MonotoniaError
from .functions import SampledFunction
from .indices import _normalize, report
from .measures import DiscreteSignedMeasure, _split_measure, jordan
from .orderings import INDEX_RELATIONS, STRICT_RELATIONS, compare, compare_strict
from .risk import (
    WEIGHT_CATALOG,
    EmpiricalDistribution,
    WeightSpec,
    loading_report,
)
from .risk import _ratios, _value_split

__all__ = ["main", "build_parser"]

_FORMATS = ("table", "json")


def _all_numeric(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def _read_csv(path: str, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise reader: the reference for ``_read_table`` and the source of its row errors.

    Returns the data rows as an (n, ncols) array and their line numbers;
    skips blank lines and one leading header.
    """
    values: list[float] = []
    linenos: list[int] = []
    header_allowed = True
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if header_allowed and not _all_numeric(cells):
                header_allowed = False
                continue
            header_allowed = False
            if len(cells) != ncols:
                raise InvalidInputError(
                    f"{path}: row {lineno}: expected {ncols} column(s), got {len(cells)}"
                )
            try:
                row_values = [float(c) for c in cells]
            except ValueError:
                raise InvalidInputError(f"{path}: row {lineno}: non-numeric value") from None
            if not all(math.isfinite(v) for v in row_values):
                raise InvalidInputError(f"{path}: row {lineno}: non-finite value")
            values.extend(row_values)
            linenos.append(lineno)
    return np.array(values, dtype=np.float64).reshape(-1, ncols), np.array(linenos, dtype=np.intp)


def _parse_table(text: str, ncols: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``_read_csv``'s result in one ``np.loadtxt`` call, or None where it cannot be sure of it."""
    # Quoted fields, NUL bytes and fields over the csv module's size limit
    # are for the csv module to parse or reject.
    if '"' in text or "\0" in text:
        return None
    # The line breaks of open(newline=""): \r\n, a lone \r, \n.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    if lengths.max() > csv.field_size_limit():
        return None
    first = 0
    while first < len(lines) and not lines[first].replace(",", "").strip():
        first += 1
    if first < len(lines) and not _all_numeric([c.strip() for c in lines[first].split(",")]):
        first += 1
    body = lines[first:]
    if not any(body):
        # np.loadtxt warns on input without data.
        return np.empty((0, ncols)), np.empty(0, dtype=np.intp)
    try:
        # comments=None: a '#' row is malformed input, not a comment.
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # np.loadtxt skips empty lines only, so each non-empty line gave one row.
    linenos = np.flatnonzero(lengths[first:]) + (first + 1)
    if values.shape != (linenos.shape[0], ncols) or not np.isfinite(values).all():
        return None
    return values, linenos


def _read_table(path: str, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Data rows of a CSV file as an (n, ncols) float64 array, and their line numbers.

    Skips blank lines and one leading header.  Input the bulk parse cannot
    take is read again row by row, which names the offending row.
    """
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not UTF-8 text (invalid byte at offset {exc.start})") from None
    table = _parse_table(text, ncols)
    return table if table is not None else _read_csv(path, ncols)


def _load_function(path: str) -> SampledFunction:
    table, linenos = _read_table(path, 2)
    if table.shape[0] < 2:
        raise InvalidInputError(f"{path}: need at least 2 data rows")
    order = np.argsort(table[:, 0], kind="stable")
    xs = table[order, 0]
    dup = np.flatnonzero(np.diff(xs) == 0.0)
    if dup.size:
        i = dup[0]
        raise InvalidInputError(
            f"{path}: duplicate x={float(xs[i])!r} at rows {linenos[order[i]]} and {linenos[order[i + 1]]}"
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
    if math.isinf(x):
        return x
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _fmt_value(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{_round12(v):.12g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_value(e) for e in v) + "]"
    return str(v)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_round_floats(payload), indent=2))
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


def _cmd_indices(args) -> tuple[dict, int]:
    fn = _load_function(args.file)
    input_info = {"file": args.file}
    if args.interval is not None:
        a, b = args.interval
        fn = fn.restrict(a, b)
        input_info["interval"] = [a, b]
    rep = report(fn, p=args.p)
    results = {
        "loi": rep.loi,
        "lod": rep.lod,
        "lom": rep.lom,
        "tv": rep.tv,
        "loi_norm": rep.loi_norm,
        "lod_norm": rep.lod_norm,
        "lom_norm": rep.lom_norm,
        "interval": list(rep.interval),
    }
    if rep.p is not None:
        results["p"] = rep.p
        results["loi_p"] = rep.loi_p
    payload = {"command": "indices", "input": input_info, "results": results, "warnings": []}
    return payload, 0


def _cmd_compare(args) -> tuple[dict, int]:
    g = _load_function(args.file_a)
    h = _load_function(args.file_b)
    if args.relation in STRICT_RELATIONS:
        verdict = compare_strict(g, h, args.relation)
    else:
        verdict = compare(g, h, args.relation)
    warnings = [verdict.note] if verdict.note else []
    payload = {
        "command": "compare",
        "input": {"file_a": args.file_a, "file_b": args.file_b, "relation": args.relation},
        "results": {
            "relation": verdict.relation,
            "holds": verdict.holds,
            "witness": verdict.witness,
        },
        "warnings": warnings,
    }
    return payload, 0 if verdict.holds == "yes" else 1


def _cmd_measure(args) -> tuple[dict, int]:
    measure, warnings = _load_atoms(args.file)
    parts = jordan(measure)
    neg_mass, pos_mass, _ = _split_measure(measure)
    tv = neg_mass + pos_mass
    normalized = _normalize(neg_mass, pos_mass, tv) or (None, None, None)
    results = {
        "lop": neg_mass,
        "lon": pos_mass,
        "los": 2.0 * min(neg_mass, pos_mass),
        "tv": tv,
        "lop_norm": normalized[0],
        "lon_norm": normalized[1],
        "los_norm": normalized[2],
        "positive_part": [list(a) for a in parts.positive_part.atoms],
        "negative_part": [list(a) for a in parts.negative_part.atoms],
    }
    payload = {"command": "measure", "input": {"file": args.file}, "results": results, "warnings": warnings}
    return payload, 0


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


def _cmd_premium(args) -> tuple[dict, int]:
    sample = _load_sample(args.file)
    weight, warnings = _make_weight(args.weight, args.param)
    rep = loading_report(sample, weight)
    results = {
        "premium": rep.premium,
        "net_premium": rep.net_premium,
        "covariance": rep.covariance,
        "loading_nonneg": rep.loading_nonneg,
        "gain_loss_ratio": rep.gain_loss_ratio,
        "omega_style_ratio": rep.omega_style_ratio,
    }
    payload = {
        "command": "premium",
        "input": {"file": args.file, "weight": args.weight, "param": args.param},
        "results": results,
        "warnings": warnings,
    }
    return payload, 0


def _cmd_glr(args) -> tuple[dict, int]:
    fn = _load_function(args.file)
    if fn.lower < -1e-9 or fn.upper > 1.0 + 1e-9:
        raise InvalidInputError(
            f"{args.file}: domain [{fn.lower}, {fn.upper}] must lie within [0, 1]"
        )
    pos, neg = _value_split(fn)
    glr, omega = _ratios(pos, neg)
    integral = pos - neg
    results = {
        "glr": glr,
        "omega_style": omega,
        "integral": integral,
        "integral_nonneg": integral >= 0.0,
    }
    payload = {"command": "glr", "input": {"file": args.file}, "results": results, "warnings": []}
    return payload, 0


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
        payload, code = _DISPATCH[args.command](args)
    except (MonotoniaError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, fmt)
    return code


if __name__ == "__main__":
    sys.exit(main())
