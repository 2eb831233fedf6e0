"""One workload in one single-threaded process: set up, run a closed loop, report.

Started by ``run.py``; not meant to be run by hand.  The loop has one caller:
it starts the next operation only after the previous one has returned and
been checked.  Only the operation call is timed; input batches and output
checks run between operations, outside the clock.

Right after every operation, and once before the first of a round, the
worker times a fixed reference task that calls no monotonia code.  Each
operation's latency is also given in units of the mean of the two reference
times on either side of it, so that it follows the program and not the speed
the shared host happens to run at (see "Steadiness" in README.md).

With ``--probe`` the process stops once set-up is done and reports only
``setup_s``.  With ``--trace 1`` it alternates untraced and traced rounds, and
reports the per-layer figures of the traced rounds and the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
from itertools import accumulate
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_monotonia():
    """Import the package from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "monotonia" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no monotonia sources under {SRC}")
    sys.path.insert(0, str(SRC))
    m = importlib.import_module("monotonia")
    importlib.import_module("monotonia.cli")
    if Path(m.__file__).resolve().parent != (SRC / "monotonia").resolve():
        raise SystemExit(f"e2ebench: imported monotonia from {m.__file__}, not from {SRC}")
    return m


def compiled_import() -> str:
    """'ok' when the compiled kernels import, else the ImportError text."""
    try:
        importlib.import_module("monotonia._kernels")
    except ImportError as exc:
        return f"ImportError: {exc}"
    return "ok"


class ReferenceTask:
    """A fixed task, independent of monotonia and of the seed, of the same kind of work as a workload.

    ``"interpreter"`` reads 1500 two-column CSV lines with ``csv.reader``,
    turns the cells into floats and sorts the rows by their first value, the
    kind of work the CLI's row-by-row parse does: about 2.5 ms on a 2 GHz
    Xeon.  ``"arrays"`` differences two 256 Ki-element arrays, checks that
    the slopes are finite, sums their falling part and, over the first
    64 Ki slopes, its cube, the kind of array work the library does on large
    inputs: about 6 ms.  The host's
    slow state slows these two kinds of work by different factors, so each
    workload is measured against the kind it does.  ``time()`` runs the task
    once and returns its duration in seconds.
    """

    KINDS = ("interpreter", "arrays")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"reference task kind {kind!r}, expected one of {self.KINDS}")
        rng = np.random.default_rng(0)
        self.run = getattr(self, "_" + kind)
        self.lines = [f"{float(a)!r},{float(b)!r}" for a, b in rng.random((1500, 2))]
        self.xs = np.cumsum(rng.uniform(0.5, 1.5, 1 << 18))
        self.ys = rng.normal(0.0, 1.0, 1 << 18)

    def _interpreter(self) -> None:
        rows = []
        for lineno, row in enumerate(csv.reader(self.lines), start=1):
            rows.append((lineno, [float(cell.strip()) for cell in row]))
        rows.sort(key=lambda r: r[1][0])

    def _arrays(self) -> None:
        dx = np.diff(self.xs)
        slopes = np.diff(self.ys) / dx
        bool(np.all(np.isfinite(slopes)))
        falling = np.maximum(-slopes, 0.0)
        float(np.sum(dx * falling))
        float(np.sum(dx[: 1 << 16] * falling[: 1 << 16] ** 3.0))

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class Session:
    """A workload's inputs, held objects and references, and its measurement loop."""

    def __init__(self, m, workload_cls, seed: int, tiny: bool, workdir: str):
        self.m = m
        self.workload = workload_cls(seed, tiny, workdir)
        self.excluded = 0.0
        self.rounds = 0
        self.failures: list[str] = []
        self.reference: ReferenceTask | None = None

    def _excluded(self, fn) -> None:
        t = time.monotonic()
        fn()
        self.excluded += time.monotonic() - t

    def setup(self, probe: bool = False) -> None:
        """Generate inputs (excluded), build held objects (timed), prepare references (excluded)."""

        def generate():
            self.workload.generate()
            self.reference = ReferenceTask(self.workload.reference)

        self._excluded(generate)
        self.workload.build(self.m)
        if not probe:
            self._excluded(lambda: self.workload.prepare(self.m))

    def run_round(self, phase: dict, tracer=None) -> None:
        """Run the next round of operations, adding latencies and counts to ``phase``.

        The reference task runs right after each operation and once before the
        first, outside the operations' clocks and spans; each operation records
        the mean of the two reference times around it.
        """
        from workloads import CheckFailed

        clock = time.perf_counter
        latencies = phase["latencies"]
        first = len(latencies)
        ops = self.workload.round_ops(self.m, self.rounds)
        before = self.reference.time()
        for op in ops:
            if tracer is not None:
                tracer.begin_op(phase["attempted"])
            t0 = clock()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{op.label} raised {type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer is not None:
                tracer.end_op()
            after = self.reference.time()
            if error is None:
                try:
                    op.check(result)
                except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"{op.label}: {type(exc).__name__}: {exc}"
            phase["attempted"] += 1
            if error is not None:
                phase["failed"] += 1
                if len(self.failures) < 5:
                    self.failures.append(error)
            latencies.append(dt)
            phase["ref_times"].append(0.5 * (before + after))
            phase["cells"] += op.cells
            before = after
        self.rounds += 1
        phase["round_sizes"].append(len(latencies) - first)

    def run_phase(self, seconds: float) -> dict:
        """Run whole rounds until ``seconds`` have passed; return latencies and counts."""
        gc.collect()
        phase = new_phase()
        begin = time.perf_counter()
        while True:
            self.run_round(phase)
            if time.perf_counter() - begin >= seconds:
                return phase

    def run_traced(self, seconds: float, tracer) -> tuple[dict, dict]:
        """Alternate untraced and traced rounds until ``seconds`` have passed.

        Alternating makes both phases see the same state of the host, so their
        throughputs give the tracing overhead.
        """
        gc.collect()
        plain, traced = new_phase(), new_phase()
        begin = time.perf_counter()
        while True:
            self.run_round(plain)
            tracer.install(self.m)
            try:
                self.run_round(traced, tracer)
            finally:
                tracer.uninstall()
            if time.perf_counter() - begin >= seconds:
                return plain, traced


def new_phase() -> dict:
    return {"latencies": [], "ref_times": [], "round_sizes": [], "cells": 0, "attempted": 0, "failed": 0}


def in_ref_units(phase: dict) -> list[float]:
    """Each operation's latency divided by the mean reference-task time around it."""
    return [t / ref for t, ref in zip(phase["latencies"], phase["ref_times"])]


def tail(lat: list[float], sizes: list[int]) -> tuple[float, float, int, int]:
    """The highest percentile with at least ten operations beyond it.

    When every round holds at least 100 operations, the percentile is taken in
    each round and the median over rounds is reported, so that a few stalls
    of the host do not set it; otherwise it is taken over the whole run.
    Returns (value, percentile, operations per window, windows).
    """
    if min(sizes) >= 100:
        windows = [lat[end - n:end] for end, n in zip(accumulate(sizes), sizes)]
    else:
        windows = [lat]
    values, pcts = [], []
    for w in windows:
        ordered = sorted(w)
        k = max(len(ordered) - 11, 0)
        values.append(ordered[k])
        pcts.append(100.0 * (k + 1) / len(ordered))
    return median(values), median(pcts), int(median([len(w) for w in windows])), len(windows)


def end_to_end(phase: dict) -> dict:
    """The gated figures, in reference units, and the same figures in seconds for the record."""
    rel = in_ref_units(phase)
    sizes = phase["round_sizes"]
    value, pct, window_ops, windows = tail(rel, sizes)
    raw_tail = tail(phase["latencies"], sizes)[0]
    return {
        "latency_p50_ref": median(rel),
        "latency_tail_ref": value,
        "tail": {"percentile": pct, "ops_per_window": window_ops, "windows": windows},
        "throughput_cells_per_ref": phase["cells"] / sum(rel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {
            "latency_p50_ms": 1e3 * median(phase["latencies"]),
            "latency_tail_ms": 1e3 * raw_tail,
            "throughput_cells_per_s": phase["cells"] / sum(phase["latencies"]),
            "reference_ms": 1e3 * median(phase["ref_times"]),
        },
    }


def per_layer(tracer, phase: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-operation layer figures of the traced phase, and each layer's share of operation time."""
    from tracer import LAYERS

    totals = tracer.layer_totals()
    ops = phase["attempted"]
    input_cells = phase["cells"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = totals["self_ns"][layer] / 1e6 / ops
        out[f"{layer}.calls"] = totals["calls"][layer] / ops
    out["functions.validation_passes"] = tracer.validated_cells / input_cells
    out["kernels.passes"] = tracer.reduced_cells / input_cells
    out["kernels.bytes_computed"] = 16.0 * tracer.reduced_cells / ops
    out["kernels.cells_per_s"] = tracer.reduced_cells / (totals["kernel_ns"] / 1e9) if totals["kernel_ns"] else 0.0
    out["host.reference_ms"] = 1e3 * median(phase["ref_times"])
    traced_rate = phase["cells"] / sum(in_ref_units(phase))
    untraced_rate = untraced["cells"] / sum(in_ref_units(untraced))
    out["trace.overhead_ratio"] = untraced_rate / traced_rate
    shares = {layer: totals["self_ns"][layer] / totals["op_ns"] for layer in ("bench",) + LAYERS}
    return out, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, required=True, help="CLOCK_MONOTONIC when run.py spawned this process")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    m = import_monotonia()
    from workloads import WORKLOADS

    workdir = ROOT / "e2ebench" / ".work"
    workdir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir)
    try:
        session = Session(m, WORKLOADS[args.workload], args.seed, args.tiny, tmp)
        session.setup(probe=args.probe)
        setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9 - session.excluded
        result = {"setup_s": setup_s, "sizes": session.workload.sizes(), "backend": getattr(m, "BACKEND_NAME", None),
                  "compiled_import": compiled_import(), "numpy": np.__version__,
                  "reference_task": session.workload.reference}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            plain, traced = session.run_traced(args.seconds, tracer)
            result["per_layer"], result["shares"] = per_layer(tracer, traced, plain)
            result["attempted"] = plain["attempted"] + traced["attempted"]
            result["failed"] = plain["failed"] + traced["failed"]
            spans = workdir / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(str(spans))
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["spans"] = len(tracer.start)
        elif not args.probe:
            phase = session.run_phase(args.seconds)
            result.update(end_to_end(phase))
            result["attempted"] = phase["attempted"]
            result["failed"] = phase["failed"]
        result["rounds"] = session.rounds
        result["failures"] = session.failures
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
