"""Workloads of the end-to-end benchmark: seeded inputs, operations, output checks.

Each workload has three stages:

* ``generate`` makes the raw inputs (NumPy arrays, CSV files) from the seed.
  It is the benchmark's own work and is excluded from ``setup_s``.
* ``build`` constructs the library objects held across operations.  It is the
  program's work and is counted in ``setup_s``.
* ``prepare`` computes the reference values the checks compare against.  It is
  excluded from ``setup_s`` and from every operation's time.

``round_ops`` then returns the next round of operations.  The loop in
``worker.py`` always runs whole rounds, so every run holds the same mix of
operations and the latency percentiles do not depend on where a run stops.

Every library call goes through the package namespace at call time
(``m.loi(f)``, ``m.cli.main(argv)``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

REL = 1e-9  # independent NumPy references sum in another order than the library
TV_REL = 1e-12  # loi + lod == tv


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    """One timed call: ``call()`` is timed, ``check(result)`` runs after the clock stops."""

    label: str
    call: Callable[[], Any]
    cells: int
    check: Callable[[Any], None]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(got: float, want: float, rel: float, what: str, scale: float | None = None) -> None:
    tol = rel * (abs(want) if scale is None else scale)
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rel {rel})")


def same(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# Independent references (plain NumPy, no monotonia code)


def slope_sums(xs: np.ndarray, ys: np.ndarray) -> dict:
    """Raw and normalized indices of the piecewise-linear interpolant."""
    dx = np.diff(xs)
    s = np.diff(ys) / dx
    neg = float(np.sum(dx * np.maximum(-s, 0.0)))
    pos = float(np.sum(dx * np.maximum(s, 0.0)))
    tv = neg + pos
    return {"neg": neg, "pos": pos, "tv": tv, "dx": dx, "s": s}


def loi_p_ref(ref: dict, p: float) -> float:
    return float(np.sum(ref["dx"] * np.maximum(-ref["s"], 0.0) ** p)) ** (1.0 / p)


def verdict_ref(a: float, b: float) -> str | None:
    """'yes' when a <= b; None when the two are too close to call independently."""
    if abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300):
        return None
    return "yes" if a <= b else "no"


def survival_at(ref: dict, sign: str, z: float) -> float:
    """Normalized survival curve: cell length with slope part > z, over tv."""
    part = np.maximum(-ref["s"], 0.0) if sign == "neg" else np.maximum(ref["s"], 0.0)
    return float(np.sum(ref["dx"][part > z])) / ref["tv"]


def check_strict(verdict, index_verdict: str | None, ref_g: dict, ref_h: dict, sign: str) -> None:
    """A strict 'yes' implies the index 'yes'; a strict 'no' has a real witness."""
    expect(verdict.holds in ("yes", "no"), f"strict verdict {verdict.holds!r}")
    if verdict.holds == "yes":
        expect(index_verdict != "no", "strict yes but index comparison says no")
        expect(verdict.witness is None, "strict yes carries a witness")
    else:
        z = verdict.witness
        expect(z is not None and z >= 0.0, "strict no without a witness")
        # The witness is a breakpoint, where a cell's slope part equals z up to
        # rounding: count such cells on whichever side lets the violation show.
        left = survival_at(ref_g, sign, z * (1.0 - 1e-9))
        right = survival_at(ref_h, sign, z * (1.0 + 1e-9))
        expect(left > right - 1e-9 * max(left, right), f"witness {z!r} does not violate dominance")


# ---------------------------------------------------------------------------
# Seeded generators


def function_arrays(rng, n_cells: int, kind: int, x0: float = 10.0):
    """A grid of ``n_cells`` cells and ordinates of one of three shapes."""
    xs = x0 + np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n_cells))))
    t = np.linspace(0.0, 1.0, n_cells + 1)
    if kind == 0:
        ys = np.cumsum(rng.normal(0.0, 1.0, n_cells + 1))
    elif kind == 1:
        ys = 3.0 * n_cells * t + np.cumsum(rng.normal(0.0, 1.0, n_cells + 1))
    else:
        ys = 50.0 * np.sin(12.0 * math.pi * t) + rng.normal(0.0, 0.5, n_cells + 1)
    return xs, ys


def unit_interval_arrays(rng, n_cells: int):
    """A function on [0, 1] whose values change sign: the glr and gain_loss input."""
    inner = np.sort(rng.uniform(0.0, 1.0, n_cells - 1))
    xs = np.concatenate(([0.0], inner, [1.0]))
    if np.any(np.diff(xs) <= 0.0):
        xs = np.linspace(0.0, 1.0, n_cells + 1)
    ys = np.sin(7.0 * math.pi * xs) + 0.2 + rng.normal(0.0, 0.05, n_cells + 1)
    return xs, ys


def atom_arrays(rng, n_atoms: int, zero_share: float = 0.01):
    """Distinct locations and signed weights, about ``zero_share`` of them exactly zero."""
    locations = rng.permutation(n_atoms).astype(np.float64) * 0.5 + rng.uniform(0.0, 0.25, n_atoms)
    weights = rng.normal(0.2, 1.0, n_atoms)
    weights[rng.random(n_atoms) < zero_share] = 0.0
    return locations, weights


def write_csv(path: str, header: str, columns, rng, blank_share: float = 0.002) -> np.ndarray:
    """Write shuffled rows with a header and scattered blank lines.

    Every value is written as ``repr(float(v))``: NumPy 2 writes the repr of a
    ``np.float64`` as ``np.float64(...)``, which the CLI rejects.  Returns the
    row order and the 1-based line number of each written data row.
    """
    n = columns[0].shape[0]
    order = rng.permutation(n)
    cols = [[repr(float(v)) for v in c[order]] for c in columns]
    blanks = rng.random(n) < blank_share
    lines = [header]
    line_of = np.empty(n, dtype=np.int64)
    for i, cells in enumerate(zip(*cols)):
        if blanks[i]:
            lines.append("")
        lines.append(",".join(cells))
        line_of[i] = len(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return order, line_of


# ---------------------------------------------------------------------------
# CLI output formats, as documented in the CLI's module docstring


def round12(x: float) -> float:
    if math.isinf(x):
        return x
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def round_all(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: round_all(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_all(v) for v in obj]
    return obj


def table_value(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{round12(v):.12g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(table_value(e) for e in v) + "]"
    return str(v)


def check_cli(out: tuple[int, str, str], fmt: str, command: str, code: int,
              results: dict, warnings: list[str], loose: dict | None = None) -> None:
    """Compare one CLI invocation with the expected results, warnings and exit code.

    ``results`` must match exactly after rounding; ``loose`` maps a result key
    to (reference, absolute tolerance) for values checked against an
    independent reference instead.  The ``input`` echo is not checked, so the
    check survives changes to what the CLI echoes back.
    """
    got_code, stdout, stderr = out
    same(got_code, code, f"{command} exit code (stderr: {stderr.strip()[:200]!r})")
    loose = loose or {}
    if fmt == "json":
        payload = json.loads(stdout)
        same(payload["command"], command, "command")
        got = payload["results"]
        for key, want in round_all(results).items():
            same(got.get(key), want, f"{command} json {key}")
        for key, (want, tol) in loose.items():
            close(got[key], want, 1.0, f"{command} json {key}", scale=tol)
        same(payload["warnings"], warnings, f"{command} json warnings")
        return
    lines = stdout.splitlines()
    same(lines[0], f"command: {command}", "table command line")
    fields = {}
    got_warnings = []
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        if key == "warning":
            got_warnings.append(value)
        else:
            fields[key] = value
    for key, want in results.items():
        same(fields.get(key), table_value(want), f"{command} table {key}")
    for key, (want, tol) in loose.items():
        close(float(fields[key]), want, 1.0, f"{command} table {key}", scale=tol)
    same(got_warnings, warnings, f"{command} table warnings")


def run_cli(m, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Workloads


class CliBulk:
    """Every CLI subcommand, in table and JSON format, on generated CSV files."""

    name = "cli_bulk"
    reference = "interpreter"  # the kind of reference task in worker.py

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.rows = 200 if tiny else 20_000
        self.seed = seed
        self.workdir = workdir

    def sizes(self) -> dict:
        return {"csv_rows": self.rows}

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        n, d = self.rows, self.workdir
        self.paths = {k: os.path.join(d, f"{k}.csv") for k in ("fa", "fb", "atoms", "sample", "glr")}
        fa = function_arrays(rng, n - 1, 0)
        fb = function_arrays(rng, n - 1, 2, x0=-5.0)
        atoms = atom_arrays(rng, n)
        sample = rng.lognormal(0.0, 1.0, n)
        glr = unit_interval_arrays(rng, n - 1)
        write_csv(self.paths["fa"], "x,y", fa, rng)
        write_csv(self.paths["fb"], "x,y", fb, rng)
        order, line_of = write_csv(self.paths["atoms"], "location,weight", atoms, rng)
        write_csv(self.paths["sample"], "loss", (sample,), rng)
        write_csv(self.paths["glr"], "t,value", glr, rng)
        self.arrays = {"fa": fa, "fb": fb, "sample": sample, "glr": glr}
        self.atoms = (atoms[0][order], atoms[1][order], line_of)

    def build(self, m) -> None:
        """Nothing is held across CLI operations: each one reads its files."""

    def prepare(self, m) -> None:
        fa = m.SampledFunction(*self.arrays["fa"])
        fb = m.SampledFunction(*self.arrays["fb"])
        rep = m.report(fa, p=2.0)
        self.indices = {
            "loi": rep.loi, "lod": rep.lod, "lom": rep.lom, "tv": rep.tv,
            "loi_norm": rep.loi_norm, "lod_norm": rep.lod_norm, "lom_norm": rep.lom_norm,
            "interval": list(rep.interval), "p": 2.0, "loi_p": rep.loi_p,
        }
        # The expected CLI results come from the library; the checks also hold
        # the library values to independent references, so that a library
        # defect the CLI passes through still counts as a failure.
        self.ref_a, self.ref_b = slope_sums(*self.arrays["fa"]), slope_sums(*self.arrays["fb"])
        self.verdict = m.compare_strict(fa, fb, "SI")
        self.index_verdict = verdict_ref(self.ref_a["neg"] / self.ref_a["tv"], self.ref_b["neg"] / self.ref_b["tv"])
        v = self.verdict
        self.compare = ({"relation": "SI", "holds": v.holds, "witness": v.witness},
                        [v.note] if v.note else [], 0 if v.holds == "yes" else 1)

        locations, weights, line_of = self.atoms
        keep = weights != 0.0
        measure = m.DiscreteSignedMeasure(locations[keep], weights[keep])
        parts = m.jordan(measure)
        neg, pos = m.lop(measure), m.lon(measure)
        tv = neg + pos
        self.measure = {
            "lop": neg, "lon": pos, "los": m.los(measure), "tv": tv,
            "lop_norm": neg / tv, "lon_norm": pos / tv, "los_norm": 2.0 * min(neg / tv, pos / tv),
            "positive_part": [list(a) for a in parts.positive_part.atoms],
            "negative_part": [list(a) for a in parts.negative_part.atoms],
        }
        dropped = ", ".join(str(int(ln)) for ln in line_of[~keep])
        self.measure_warnings = [f"{self.paths['atoms']}: dropped zero-weight atom row(s) {dropped}"]
        self.atom_neg = float(np.sum(np.maximum(-weights, 0.0)))

        sample = self.arrays["sample"]
        lr = m.loading_report(m.EmpiricalDistribution(sample), m.WeightSpec.esscher(0.8))
        self.sample_range = (float(sample.min()), float(sample.max()))
        self.premium = {
            "premium": lr.premium, "net_premium": lr.net_premium, "covariance": lr.covariance,
            "loading_nonneg": lr.loading_nonneg, "gain_loss_ratio": lr.gain_loss_ratio,
            "omega_style_ratio": lr.omega_style_ratio,
        }

        xs, ys = self.arrays["glr"]
        glr, omega = m.gain_loss(m.SampledFunction(xs, ys))
        integral = float(np.sum(0.5 * (ys[:-1] + ys[1:]) * np.diff(xs)))
        scale = float(np.sum(0.5 * np.abs(ys[:-1] + ys[1:]) * np.diff(xs)))
        self.glr = ({"glr": glr, "omega_style": omega, "integral_nonneg": integral >= 0.0},
                    {"integral": (integral, REL * scale)})

    def round_ops(self, m, r: int) -> list[Op]:
        p = self.paths
        n = self.rows
        res, warns, code = self.compare
        res_g, loose = self.glr

        def check_indices(out, fmt):
            close(self.indices["loi"], self.ref_a["neg"], REL, "library loi")
            check_cli(out, fmt, "indices", 0, self.indices, [])

        def check_compare(out, fmt):
            check_strict(self.verdict, self.index_verdict, self.ref_a, self.ref_b, "neg")
            check_cli(out, fmt, "compare", code, res, warns)

        def check_measure(out, fmt):
            close(self.measure["lop"], self.atom_neg, REL, "library lop")
            check_cli(out, fmt, "measure", 0, self.measure, self.measure_warnings)

        def check_premium(out, fmt):
            lo, hi = self.sample_range
            expect(lo <= self.premium["premium"] <= hi, "library premium outside the sample range")
            expect(self.premium["loading_nonneg"], "negative loading for the esscher weight")
            check_cli(out, fmt, "premium", 0, self.premium, [])

        commands = [
            (["indices", p["fa"], "--p", "2"], n, check_indices),
            (["compare", p["fa"], p["fb"], "--relation", "SI"], 2 * n, check_compare),
            (["measure", p["atoms"]], n, check_measure),
            (["premium", p["sample"], "--weight", "esscher", "--param", "0.8"], n, check_premium),
            (["glr", p["glr"]], n, lambda out, fmt: check_cli(out, fmt, "glr", 0, res_g, [], loose)),
        ]
        ops = []
        for fmt in ("table", "json"):
            for argv, cells, checker in commands:
                argv = argv + ["--format", fmt]
                ops.append(Op(f"{argv[0]}/{fmt}", lambda argv=argv: run_cli(m, argv), cells,
                              lambda out, checker=checker, fmt=fmt: checker(out, fmt)))
        return ops


class LibReuse:
    """Three large functions built once and queried many times."""

    name = "lib_reuse_1m"
    reference = "arrays"  # the kind of reference task in worker.py

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.n = 1000 if tiny else 1_000_000
        self.seed = seed

    def sizes(self) -> dict:
        return {"cells_per_function": self.n, "functions": 3}

    def generate(self) -> None:
        # Three independent random walks: each round queries one of them, and
        # walks of equal length cost the same to query (the powered indices
        # loop over the falling cells), so every round holds the same work.
        rng = np.random.default_rng([self.seed, 2])
        self.arrays = [function_arrays(rng, self.n, 0) for _ in range(3)]

    def build(self, m) -> None:
        self.fns = [m.SampledFunction(xs, ys) for xs, ys in self.arrays]

    def prepare(self, m) -> None:
        self.refs = [slope_sums(xs, ys) for xs, ys in self.arrays]
        self.lib = []
        for f in self.fns:
            loi, lod = m.loi(f), m.lod(f)
            self.lib.append({"loi": loi, "lod": lod, "lom": 2.0 * min(loi, lod)})
        for ref in self.refs:
            ref["loi_p2"] = loi_p_ref(ref, 2.0)
            ref["loi_p3"] = loi_p_ref(ref, 3.0)
            ref["norm"] = (ref["neg"] / ref["tv"], ref["pos"] / ref["tv"])
            ref["norm"] += (2.0 * min(ref["norm"]),)

    def round_ops(self, m, r: int) -> list[Op]:
        i, j = r % 3, (r + 1) % 3
        f, h = self.fns[i], self.fns[j]
        ref, lib, ref_h = self.refs[i], self.lib[i], self.refs[j]
        n = self.n

        def check_tv(tv):
            close(tv, ref["tv"], REL, "total_variation")
            close(lib["loi"] + lib["lod"], tv, TV_REL, "loi + lod == tv")

        def check_norm(got):
            for k in range(3):
                close(got[k], ref["norm"][k], REL, f"normalized_indices[{k}]")

        def check_report(rep):
            close(rep.loi, ref["neg"], REL, "report.loi")
            close(rep.lod, ref["pos"], REL, "report.lod")
            close(rep.loi + rep.lod, rep.tv, TV_REL, "report loi + lod == tv")
            same(rep.lom, lib["lom"], "report.lom")
            close(rep.loi_norm, ref["norm"][0], REL, "report.loi_norm")
            close(rep.loi_p, ref["loi_p2"], REL, "report.loi_p")
            same(tuple(rep.interval), (float(f.xs[0]), float(f.xs[-1])), "report.interval")

        def check_compare(relation, k):
            def check(v):
                want = verdict_ref(ref["norm"][k], ref_h["norm"][k])
                expect(want is None or v.holds == want, f"compare {relation}: {v.holds} != {want}")
            return check

        def grid_measure():
            return m.GridDensityMeasure.from_derivative_profile(m.derivative(f))

        return [
            Op("loi", lambda: m.loi(f), n, lambda v: close(v, ref["neg"], REL, "loi")),
            Op("lod", lambda: m.lod(f), n, lambda v: close(v, ref["pos"], REL, "lod")),
            Op("lom", lambda: m.lom(f), n, lambda v: same(v, lib["lom"], "lom == 2 min(loi, lod)")),
            Op("total_variation", lambda: m.total_variation(f), n, check_tv),
            Op("normalized_indices", lambda: m.normalized_indices(f), n, check_norm),
            Op("report_p2", lambda: m.report(f, p=2), n, check_report),
            Op("loi_p3", lambda: m.loi_p(f, 3), n, lambda v: close(v, ref["loi_p3"], REL, "loi_p 3")),
            Op("compare_I", lambda: m.compare(f, h, "I"), 2 * n, check_compare("I", 0)),
            Op("compare_D", lambda: m.compare(f, h, "D"), 2 * n, check_compare("D", 1)),
            Op("compare_M", lambda: m.compare(f, h, "M"), 2 * n, check_compare("M", 2)),
            Op("lop_grid", lambda: m.lop(grid_measure()), n,
               lambda v: same(v, lib["loi"], "lop of the derivative measure == loi")),
            Op("los_grid", lambda: m.los(grid_measure()), n,
               lambda v: close(v, lib["lom"], TV_REL, "los of the derivative measure == lom")),
        ]


CATALOG = (("indicator", 0.9), ("proportional_hazards", 0.8), ("size_biased", 0.8),
           ("esscher", 0.8), ("kamps", 0.8))


class LibSort:
    """Sort-bound orderings, measures and risk on large inputs."""

    name = "lib_sort_1m"
    reference = "arrays"  # the kind of reference task in worker.py

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.n = 1000 if tiny else 1_000_000
        self.seed = seed

    def sizes(self) -> dict:
        return {"cells_per_function": self.n, "atoms": self.n, "observations": self.n}

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        n = self.n
        self.arrays = [function_arrays(rng, n, 0), function_arrays(rng, n, 2)]
        self.unit = unit_interval_arrays(rng, n)
        self.atoms = atom_arrays(rng, n)
        self.sample = rng.lognormal(0.0, 1.0, n)
        wx = np.linspace(0.0, 1.0, 1001)
        self.weight_samples = (wx, rng.uniform(0.1, 2.0, wx.shape[0]))

    def build(self, m) -> None:
        self.fns = [m.SampledFunction(xs, ys) for xs, ys in self.arrays]
        self.unit_fn = m.SampledFunction(*self.unit)
        self.ed = m.EmpiricalDistribution(self.sample)
        self.weights = [m.WeightSpec(kind, p) for kind, p in CATALOG]
        self.weights.append(m.WeightSpec.sampled(m.SampledFunction(*self.weight_samples)))

    def prepare(self, m) -> None:
        self.refs = [slope_sums(xs, ys) for xs, ys in self.arrays]
        self.lib = [{"loi": m.loi(f), "lod": m.lod(f)} for f in self.fns]
        w = self.atoms[1]
        self.atom_ref = {"neg": float(np.sum(np.maximum(-w, 0.0))), "pos": float(np.sum(np.maximum(w, 0.0))),
                         "n_pos": int(np.sum(w > 0.0)), "n_neg": int(np.sum(w < 0.0))}
        xs, ys = self.unit
        self.unit_integral = float(np.sum(0.5 * (ys[:-1] + ys[1:]) * np.diff(xs)))
        self.sample_range = (float(self.sample.min()), float(self.sample.max()))
        self.v_theta = m.v_theta(self.ed)[1]

    def round_ops(self, m, r: int) -> list[Op]:
        n = self.n

        def check_strict_op(i, j, sign):
            ref_g, ref_h = self.refs[i], self.refs[j]
            index = verdict_ref(ref_g[sign] / ref_g["tv"], ref_h[sign] / ref_h["tv"])
            return lambda v: check_strict(v, index, ref_g, ref_h, sign)

        def check_curve(key, lib_key, src):
            ref_key = "neg" if lib_key == "loi" else "pos"

            def check(curve):
                close(self.lib[src][lib_key], self.refs[src][ref_key], REL, f"library {lib_key}")
                close(curve.integral(), self.lib[src][lib_key], REL, f"layer cake {key}")
                close(curve.tv, self.refs[src]["tv"], REL, f"survival_{key} tv")
            return check

        def measure_ops():
            nu = m.DiscreteSignedMeasure(*self.atoms)
            return nu, m.jordan(nu), m.lop(nu)

        def check_measure(res):
            nu, parts, lop = res
            a = self.atom_ref
            close(lop, a["neg"], REL, "lop of atoms")
            same(parts.positive_part.weights.shape[0], a["n_pos"], "jordan positive atoms")
            same(parts.negative_part.weights.shape[0], a["n_neg"], "jordan negative atoms")
            close(float(np.sum(parts.positive_part.weights)), a["pos"], REL, "jordan positive mass")

        def check_ed(ed):
            same(ed.n, n, "sample size")
            same((float(ed.values[0]), float(ed.values[-1])), self.sample_range, "order statistics")

        def check_loading(monotone):
            def check(rep):
                lo, hi = self.sample_range
                expect(lo <= rep.premium <= hi, f"premium {rep.premium!r} outside [{lo}, {hi}]")
                expect(not monotone or rep.loading_nonneg, "negative loading for a monotone weight")
            return check

        def check_v_theta(res):
            vals, theta = res
            same(theta, self.v_theta, "theta")
            expect(vals.ys[0] == 0.0 and vals.ys[-1] == 0.0, "v does not vanish at the endpoints")

        def check_gain_loss(res):
            glr, omega = res
            expect(0.0 <= omega <= 1.0, f"omega {omega!r} outside [0, 1]")
            expect((glr >= 1.0) == (omega >= 0.5) == (self.unit_integral >= 0.0),
                   "gain-loss predicates disagree")

        # Both functions in both orders: the sort-bound strict comparisons are the
        # slowest kind, and with four per round the tail percentile falls inside
        # them for any run of three rounds or more.
        ops = []
        for i, j in ((0, 1), (1, 0)):
            g, h = self.fns[i], self.fns[j]
            ops += [
                Op(f"compare_strict_SI_{i}{j}", lambda g=g, h=h: m.compare_strict(g, h, "SI"), 2 * n,
                   check_strict_op(i, j, "neg")),
                Op(f"compare_strict_SD_{i}{j}", lambda g=g, h=h: m.compare_strict(g, h, "SD"), 2 * n,
                   check_strict_op(i, j, "pos")),
                Op(f"survival_minus_{i}", lambda g=g: m.survival_minus(g), n, check_curve("minus", "loi", i)),
                Op(f"survival_plus_{i}", lambda g=g: m.survival_plus(g), n, check_curve("plus", "lod", i)),
            ]
        ops += [
            Op("measure_jordan_lop", measure_ops, n, check_measure),
            Op("empirical_distribution", lambda: m.EmpiricalDistribution(self.sample), n, check_ed),
        ]
        for (kind, _), w in zip(CATALOG + (("sampled", None),), self.weights):
            ops.append(Op(f"loading_report_{kind}", lambda w=w: m.loading_report(self.ed, w), n,
                          check_loading(kind != "sampled")))
        ops.append(Op("v_theta", lambda: m.v_theta(self.ed), n, check_v_theta))
        ops.append(Op("gain_loss", lambda: m.gain_loss(self.unit_fn), n, check_gain_loss))
        return ops


class LibFresh:
    """A fresh small input per operation through the whole API: nothing is reused."""

    name = "lib_fresh_small"
    reference = "interpreter"  # the kind of reference task in worker.py
    cells = 256
    batch = 256

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.rng = None

    def sizes(self) -> dict:
        return {"cells_per_input": self.cells, "inputs_per_round": self.batch}

    def generate(self) -> None:
        self.rng = np.random.default_rng([self.seed, 4])

    def build(self, m) -> None:
        """Every operation constructs its own objects."""

    def prepare(self, m) -> None:
        self.esscher = m.WeightSpec.esscher(0.8)

    def _inputs(self):
        rng, n = self.rng, self.cells
        f = function_arrays(rng, n, int(rng.integers(3)))
        h = function_arrays(rng, n, int(rng.integers(3)))
        return f, h, rng.lognormal(0.0, 1.0, n), atom_arrays(rng, n)

    def round_ops(self, m, r: int) -> list[Op]:
        ops = []
        for _ in range(self.batch):
            f_arr, h_arr, sample, atoms = self._inputs()
            ref_f, ref_h = slope_sums(*f_arr), slope_sums(*h_arr)

            def call(f_arr=f_arr, h_arr=h_arr, sample=sample, atoms=atoms):
                f = m.SampledFunction(*f_arr)
                h = m.SampledFunction(*h_arr)
                rep = m.report(f, p=2)
                index = m.compare(f, h, "I")
                strict = m.compare_strict(f, h, "SI")
                loading = m.loading_report(m.EmpiricalDistribution(sample), self.esscher)
                parts = m.jordan(m.DiscreteSignedMeasure(*atoms))
                return rep, index, strict, loading, parts

            def check(res, ref_f=ref_f, ref_h=ref_h, sample=sample, atoms=atoms):
                rep, index, strict, loading, parts = res
                close(rep.loi, ref_f["neg"], REL, "report.loi", scale=ref_f["tv"])
                close(rep.lod, ref_f["pos"], REL, "report.lod", scale=ref_f["tv"])
                close(rep.loi + rep.lod, rep.tv, TV_REL, "loi + lod == tv")
                close(rep.loi_p, loi_p_ref(ref_f, 2.0), REL, "report.loi_p", scale=ref_f["tv"])
                want = verdict_ref(ref_f["neg"] / ref_f["tv"], ref_h["neg"] / ref_h["tv"])
                expect(want is None or index.holds == want, f"compare I: {index.holds} != {want}")
                check_strict(strict, index.holds, ref_f, ref_h, "neg")
                expect(sample.min() <= loading.premium <= sample.max(), "premium outside the sample range")
                expect(loading.loading_nonneg, "negative loading for the esscher weight")
                w = atoms[1]
                close(float(np.sum(parts.negative_part.weights)), float(np.sum(np.maximum(-w, 0.0))),
                      REL, "jordan negative mass")
                same(parts.positive_part.weights.shape[0], int(np.sum(w > 0.0)), "jordan positive atoms")

            ops.append(Op("fresh_pipeline", call, 4 * self.cells, check))
        return ops


WORKLOADS = {w.name: w for w in (CliBulk, LibReuse, LibSort, LibFresh)}
