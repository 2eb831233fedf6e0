"""End-to-end and per-layer benchmark of monotonia.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload lib_reuse_1m --seed 1 --seconds 15 --trace 0

Each workload runs in its own single-threaded worker process (``worker.py``).
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The lines before it give the environment and every metric with
its unit.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_bulk", "lib_reuse_1m", "lib_sort_1m", "lib_fresh_small")
PROBES = 8  # extra set-up-only processes; setup_s is the median of PROBES + 1
DEADLINE_S = 170  # all worker processes of one run together, so that the run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Latency and throughput are in units of the reference task's time ("ref"),
# measured around each operation; see ReferenceTask in worker.py.
END_TO_END = (("latency_p50_ref", "ref"), ("latency_tail_ref", "ref"), ("throughput_cells_per_ref", "cells/ref"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("cli", "functions", "kernels", "indices", "orderings", "measures", "risk")
PER_LAYER = tuple((f"{layer}.{kind}", unit) for layer in LAYERS
                  for kind, unit in (("self_ms", "ms"), ("calls", "count"))) + (
    ("functions.validation_passes", "ratio"),
    ("kernels.passes", "ratio"),
    ("kernels.bytes_computed", "B"),
    ("kernels.cells_per_s", "cells/s"),
    ("host.reference_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def git_sha() -> str | None:
    """The commit of this checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def l3_bytes() -> int | None:
    """Size of the last-level cache as Linux reports it, e.g. "107520K"; None if unknown."""
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        return None


def spawn(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the closed loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "monotonia" / "__init__.py").is_file():
        print(f"e2ebench: no monotonia sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    # subprocess.run kills and waits for its worker when an exception passes
    # through it; turn SIGTERM into one, so that no worker outlives this process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [spawn(args, ["--probe"], deadline)["setup_s"] for _ in range(PROBES)]
        result = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"e2ebench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    env = {
        "git_sha": git_sha(),
        "backend": result["backend"],
        "compiled_kernels_import": result["compiled_import"],
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "l3_bytes": l3_bytes(),
        "sizes": result["sizes"],
        "working_set_bytes_per_1e6_cells": 16 * 10**6,
        "bytes_note": "kernels.bytes_computed is 16 B per reduced cell, computed from array sizes, "
                      "not a bandwidth measurement: 1e6-cell inputs fit in L3",
        "reference_task": result["reference_task"],
        "seed": args.seed,
        "seconds": args.seconds,
    }
    print("env: " + json.dumps(env))
    for failure in result["failures"]:
        print(f"failure: {failure}")

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in PER_LAYER}
        shares = ", ".join(f"{k} {v:.3f}" for k, v in result["shares"].items())
        print(f"{args.workload}: traced {result['spans']} spans, written to {result['spans_file']}")
        print(f"self-time share of operation time: {shares}")
    else:
        result["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
        print(f"{args.workload}: {attempted} operations in {result['rounds']} rounds, closed loop, one caller")
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        raw = result["raw"]
        print(f"in seconds: latency_p50 = {raw['latency_p50_ms']:.6g} ms, "
              f"latency_tail = {raw['latency_tail_ms']:.6g} ms, "
              f"throughput = {raw['throughput_cells_per_s']:.6g} cells/s, "
              f"reference task = {raw['reference_ms']:.6g} ms (median)")
    for name, metric in metrics.items():
        note = ""
        if name == "latency_tail_ref":
            t = result["tail"]
            note = f"  (p{t['percentile']:.2f} of {t['ops_per_window']} operations"
            note += f", median of {t['windows']} rounds)" if t["windows"] > 1 else ")"
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_ops = {failed} count  (of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
