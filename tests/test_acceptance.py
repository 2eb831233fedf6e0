"""Acceptance suite: one test per release criterion.

Each test prints a single "[criterion N] PASS/FAIL: ..." line (repeated in
the terminal summary by conftest) and then asserts, so a red run still shows
every verdict with its measured numbers.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from monotonia import (
    DiscreteSignedMeasure,
    EmpiricalDistribution,
    SampledFunction,
    WeightSpec,
    compare,
    compare_strict,
    derivative,
    gain_loss,
    loading_covariance,
    lod,
    lod_norm,
    loi,
    loi_norm,
    lom,
    lom_norm,
    lop,
    normalized_indices,
    premium,
    survival_minus,
    survival_plus,
    total_variation,
)

from conftest import ACCEPTANCE_LINES
from helpers import (
    _assemble,
    continuous_function,
    dominated_pair,
    dyadic_function,
    dyadic_scale,
    dyadic_shift,
    negate,
)

ROOT = Path(__file__).resolve().parent.parent
REL = 1e-12


def _report(num: int, description: str, ok: bool) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _dev(a: float, b: float) -> float:
    """Relative deviation with an absolute floor, for the 1e-12 criteria."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _sine_cosine() -> tuple[SampledFunction, SampledFunction]:
    xs = np.linspace(-math.pi / 2.0, math.pi, 100_000)
    return SampledFunction(xs, np.sin(xs)), SampledFunction(xs, np.cos(xs))


def test_criterion_1_sine_cosine_raw_indices():
    start = time.perf_counter()
    sine, cosine = _sine_cosine()
    got = (
        loi(sine),
        lod(sine),
        lom(sine),
        total_variation(sine),
        loi(cosine),
        lod(cosine),
        lom(cosine),
        total_variation(cosine),
    )
    elapsed = time.perf_counter() - start
    expected = (1.0, 2.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0)
    worst = max(abs(g - e) for g, e in zip(got, expected))
    ok = worst <= 1e-3 and elapsed < 1.0
    _report(
        1,
        f"sine (LOI,LOD,LOM)=({got[0]:.5f},{got[1]:.5f},{got[2]:.5f}), "
        f"cosine ({got[4]:.5f},{got[5]:.5f},{got[6]:.5f}), tv ({got[3]:.5f},{got[7]:.5f}); "
        f"max error {worst:.2e} (limit 1e-3), {elapsed:.3f}s (limit 1s)",
        ok,
    )


def test_criterion_2_sine_cosine_normalized_indices():
    sine, cosine = _sine_cosine()
    got = normalized_indices(sine) + normalized_indices(cosine)
    expected = (1 / 3, 2 / 3, 2 / 3, 2 / 3, 1 / 3, 2 / 3)
    worst = max(abs(g - e) for g, e in zip(got, expected))
    ok = worst <= 1e-3
    _report(
        2,
        f"sine normalized ({got[0]:.5f},{got[1]:.5f},{got[2]:.5f}), "
        f"cosine ({got[3]:.5f},{got[4]:.5f},{got[5]:.5f}); max error {worst:.2e} (limit 1e-3)",
        ok,
    )


def test_criterion_3_algebraic_identity_suite():
    rng = np.random.default_rng(20_260_824)
    failures: list[str] = []
    max_dev = 0.0
    checked = 0

    def check(label: str, a: float, b: float) -> None:
        nonlocal max_dev, checked
        checked += 1
        d = _dev(a, b)
        max_dev = max(max_dev, d)
        if d > REL:
            failures.append(f"{label}: {a!r} vs {b!r}")

    for _ in range(1000):
        f = dyadic_function(rng, max_cells=20)
        lengths = np.diff(f.xs)
        slopes = np.diff(f.ys) / lengths
        neg, pos, tv = loi(f), lod(f), total_variation(f)
        net = float(f.ys[-1] - f.ys[0])

        check("LOI+LOD=TV", neg + pos, tv)
        check("LOM=2min", lom(f), 2.0 * min(neg, pos))
        if neg > tv + REL or pos > tv + REL or min(neg, pos) > tv / 2.0 + REL:
            failures.append("index bounds")

        alpha = dyadic_shift(rng)
        shifted = SampledFunction(f.xs, f.ys + alpha)
        check("translation LOI", loi(shifted), neg)
        check("translation LOD", lod(shifted), pos)

        beta = abs(dyadic_scale(rng))
        scaled = SampledFunction(f.xs, beta * f.ys)
        check("positive scaling LOI", loi(scaled), beta * neg)
        check("positive scaling LOD", lod(scaled), beta * pos)

        gamma = -abs(dyadic_scale(rng))
        reflected = SampledFunction(f.xs, gamma * f.ys)
        check("reflection swap LOI", loi(reflected), -gamma * pos)
        check("reflection swap LOD", lod(reflected), -gamma * neg)

        if tv == 0.0:
            continue
        up, down, both = normalized_indices(f)
        check("LOI*+LOD*=1", up + down, 1.0)
        check("LOM*=1-|net|/TV", both, 1.0 - abs(net) / tv)
        if not (0.0 <= up <= 1.0 and 0.0 <= down <= 1.0 and 0.0 <= both <= 1.0):
            failures.append("normalized range")
        check("translation LOI*", loi_norm(shifted), up)
        check("positive scaling LOI*", loi_norm(scaled), up)
        check("negative scaling LOM*", lom_norm(reflected), both)
        check("reflection LOD*(-g)=LOI*", lod_norm(negate(f)), up)
        check("negative scaling LOD*=LOI*", lod_norm(reflected), up)

        rising = _assemble(lengths, np.abs(slopes), 0.0, 0.0)
        falling = _assemble(lengths, -np.abs(slopes), 0.0, 0.0)
        check("LOI(rising)=0", loi(rising), 0.0)
        check("LOD(rising)=TV", lod(rising), total_variation(rising))
        check("LOD(falling)=0", lod(falling), 0.0)
        check("LOI*(rising)=0", loi_norm(rising), 0.0)
        check("LOI*(falling)=1", loi_norm(falling), 1.0)

        if net != 0.0:
            balance_slope = -1.0 if net > 0.0 else 1.0
            balanced = _assemble(
                np.concatenate((lengths, [abs(net)])),
                np.concatenate((slopes, [balance_slope])),
                0.0,
                0.0,
            )
            check("LOM*(balanced)=1", lom_norm(balanced), 1.0)

    flat = SampledFunction(np.array([0.0, 1.0]), np.array([2.0, 2.0]))
    check("zero scaling LOI", loi(flat), 0.0)
    check("zero scaling LOD", lod(flat), 0.0)

    ok = not failures
    detail = f"; first failure {failures[0]}" if failures else ""
    _report(
        3,
        f"1000 random functions, {checked} identity checks (sums, translation, "
        f"scaling, reflection, normalization laws), "
        f"max relative deviation {max_dev:.2e} (limit 1e-12){detail}",
        ok,
    )


def test_criterion_4_layer_cake_and_survival_oracle():
    rng = np.random.default_rng(41)
    max_dev = 0.0
    for _ in range(1000):
        f = dyadic_function(rng, max_cells=20)
        max_dev = max(
            max_dev,
            _dev(survival_minus(f).integral(), loi(f)),
            _dev(survival_plus(f).integral(), lod(f)),
        )
    xs = np.linspace(0.0, 1.5 * math.pi, 100_000)
    curve = survival_minus(SampledFunction(xs, 1.0 - np.cos(xs)))
    worst_curve = max(
        abs(curve.value(z) - (math.pi / 2.0 - math.asin(z))) for z in (0.0, 0.25, 0.5, 0.75)
    )
    ok = max_dev <= REL and worst_curve <= 2e-3
    _report(
        4,
        f"layer-cake identity on 1000 functions, max relative deviation {max_dev:.2e} "
        f"(limit 1e-12); 1-cos survival curve vs arcsin formula, max error "
        f"{worst_curve:.2e} (limit 2e-3)",
        ok,
    )


def _brute_force_function_instance(rng: np.random.Generator, failures: list[str]) -> None:
    n = int(rng.integers(1, 5))
    lengths = rng.uniform(0.2, 2.0, n)
    signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    slopes = signs * rng.uniform(0.05, 4.0, n)
    f = _assemble(lengths, slopes, 0.0, 0.0)
    index = loi(f)
    tol = REL * max(1.0, index)

    star = float(np.sum(lengths * np.abs(slopes - np.maximum(slopes, 0.0))))
    if _dev(star, index) > REL:
        failures.append(f"closed-form candidate misses index: {star} vs {index}")

    brute = 0.0
    for length, m in zip(lengths, slopes):
        grid = np.arange(0.0, 2.0 * abs(m) + abs(m) / 100.0, abs(m) / 50.0)
        grid = np.append(grid, max(m, 0.0))
        brute += length * float(np.min(np.abs(m - grid)))
    if brute < index - tol:
        failures.append(f"separable brute force beat the index: {brute} < {index}")
    if brute > star + tol:
        failures.append("grid missed the closed-form candidate")

    rising = np.nonzero(slopes > 0.0)[0]
    for mask in range(1, 2 ** rising.shape[0]):
        keep = np.maximum(slopes, 0.0)
        removed = 0.0
        for bit, cell in enumerate(rising):
            if mask & (1 << bit):
                keep[cell] = 0.0
                removed += lengths[cell] * slopes[cell]
        obj = float(np.sum(lengths * np.abs(slopes - keep)))
        if obj < index + 0.5 * removed:
            failures.append("zeroing a rising cell failed to increase the distance")

    for _ in range(30):
        candidate = rng.uniform(0.0, 2.0 * np.abs(slopes))
        obj = float(np.sum(lengths * np.abs(slopes - candidate)))
        if obj < index - tol:
            failures.append(f"random candidate beat the index: {obj} < {index}")

    optimum = np.maximum(slopes, 0.0)
    for cell in range(n):
        delta = max(abs(slopes[cell]) / 50.0, 1e-3)
        for signed in (delta, -delta):
            perturbed = optimum.copy()
            perturbed[cell] += signed
            if perturbed[cell] < 0.0 or perturbed[cell] == optimum[cell]:
                continue
            obj = float(np.sum(lengths * np.abs(slopes - perturbed)))
            if obj <= index + 0.4 * lengths[cell] * delta:
                failures.append("perturbing the optimal candidate did not increase the distance")


def _brute_force_measure_instance(rng: np.random.Generator, failures: list[str]) -> None:
    n = int(rng.integers(1, 7))
    locations = rng.choice(np.arange(32.0), size=n, replace=False)
    signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    weights = signs * rng.uniform(0.05, 5.0, n)
    nu = DiscreteSignedMeasure(locations, weights)
    index = lop(nu)
    tol = REL * max(1.0, index)

    star = float(np.sum(np.abs(weights - np.maximum(weights, 0.0))))
    if _dev(star, index) > REL:
        failures.append(f"positive part misses the index: {star} vs {index}")

    brute = 0.0
    for w in weights:
        grid = np.arange(0.0, 2.0 * abs(w) + abs(w) / 100.0, abs(w) / 50.0)
        grid = np.append(grid, max(w, 0.0))
        brute += float(np.min(np.abs(w - grid)))
    if brute < index - tol:
        failures.append(f"separable brute force beat the index: {brute} < {index}")
    if brute > star + tol:
        failures.append("grid missed the positive part")

    for extra_mass in (0.1, 0.5, 1.0):
        if star + extra_mass < index + extra_mass - tol:
            failures.append("off-support mass failed to increase the distance")

    optimum = np.maximum(weights, 0.0)
    for atom in range(n):
        delta = max(abs(weights[atom]), 0.5) / 50.0
        for signed in (delta, -delta):
            perturbed = optimum.copy()
            perturbed[atom] += signed
            if perturbed[atom] < 0.0 or perturbed[atom] == optimum[atom]:
                continue
            obj = float(np.sum(np.abs(weights - perturbed)))
            if obj <= index + 0.4 * delta:
                failures.append("perturbing the optimal measure did not increase the distance")


def test_criterion_5_optimality_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(51)
    failures: list[str] = []
    for _ in range(200):
        _brute_force_function_instance(rng, failures)
    for _ in range(200):
        _brute_force_measure_instance(rng, failures)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    detail = f"; first failure {failures[0]}" if failures else ""
    _report(
        5,
        f"200 function + 200 measure instances: brute force never beat the closed form, "
        f"the closed-form candidate attained it, perturbations strictly lost; "
        f"{elapsed:.2f}s (limit 30s){detail}",
        ok,
    )


def test_criterion_6_strict_ordering_implication():
    rng = np.random.default_rng(93)
    pairs = []
    for _ in range(350):
        pairs.append(
            (continuous_function(rng, force_mixed=True), continuous_function(rng, force_mixed=True))
        )
    for _ in range(250):
        pairs.append(dominated_pair(rng))
    for _ in range(150):
        g, h = dominated_pair(rng)
        pairs.append((negate(g), negate(h)))
    for _ in range(100):
        f = continuous_function(rng, force_mixed=True)
        pairs.append((f, f))
    for _ in range(150):
        m = int(rng.integers(2, 6))
        mono = _assemble(rng.uniform(0.1, 2.0, m), rng.uniform(0.01, 5.0, m), 0.0, 0.0)
        pairs.append((mono, continuous_function(rng, force_mixed=True)))

    counterexamples = 0
    strict_holds = {"SI": 0, "SD": 0}
    for g, h in pairs:
        for strict_rel, index_rel in (("SI", "I"), ("SD", "D")):
            if compare_strict(g, h, strict_rel).holds == "yes":
                strict_holds[strict_rel] += 1
                if compare(g, h, index_rel).holds != "yes":
                    counterexamples += 1
    ok = counterexamples == 0 and strict_holds["SI"] >= 100 and strict_holds["SD"] >= 100
    _report(
        6,
        f"1000 pairs: SI held {strict_holds['SI']} times, SD {strict_holds['SD']} times, "
        f"{counterexamples} implication counterexamples (required 0)",
        ok,
    )


def test_criterion_7_risk_suite():
    quartet = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
    exact = premium(quartet, WeightSpec.indicator(0.5))
    esscher_limit = premium(quartet, WeightSpec.esscher(1e-8))
    part_a = exact == 3.5
    part_b = abs(esscher_limit - 2.5) <= 1e-6

    rng = np.random.default_rng(71)
    monotone = (
        WeightSpec.indicator(0.3),
        WeightSpec.proportional_hazards(0.7),
        WeightSpec.size_biased(1.2),
        WeightSpec.esscher(0.8),
        WeightSpec.kamps(1.5),
    )
    loading_violations = 0
    worst_loading = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 16))
        ed = EmpiricalDistribution(rng.uniform(-10.0, 10.0, n))
        span = float(ed.values[-1] - ed.values[0])
        for w in monotone:
            cov = loading_covariance(ed, w)
            worst_loading = min(worst_loading, cov)
            if cov < -1e-9 * span:
                loading_violations += 1

    predicate_violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, k))))
        xs = xs / xs[-1]
        ys = rng.uniform(-3.0, 3.0, k + 1)
        f = SampledFunction(xs, ys)
        area = float(np.sum(0.5 * (ys[:-1] + ys[1:]) * np.diff(xs)))
        glr, omega = gain_loss(f)
        if not ((area >= 0.0) == (glr >= 1.0) == (omega >= 0.5)):
            predicate_violations += 1

    ok = part_a and part_b and loading_violations == 0 and predicate_violations == 0
    _report(
        7,
        f"indicator premium {exact} (exact 3.5: {part_a}), esscher(1e-8) {esscher_limit:.9f} "
        f"(within 1e-6 of 2.5: {part_b}); 500 samples x 5 monotone weights: "
        f"{loading_violations} loading violations (worst covariance {worst_loading:.2e}); "
        f"1000 functions: {predicate_violations} predicate violations",
        ok,
    )


def test_criterion_8_measure_function_bridge():
    rng = np.random.default_rng(88)
    max_dev = 0.0
    for i in range(200):
        f = dyadic_function(rng) if i % 2 == 0 else continuous_function(rng)
        nu = derivative(f)
        # dg shares the split of f; its copy, rebuilt from dg's arrays, reduces its own masses.
        for measure in (nu, copy.copy(nu)):
            max_dev = max(max_dev, _dev(lop(measure), loi(f)))
    ok = max_dev <= REL
    _report(
        8,
        f"200 functions: LOP of the derivative measure vs LOI, max relative deviation "
        f"{max_dev:.2e} (limit 1e-12)",
        ok,
    )


def _run_cli(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "monotonia.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ),
    )


def test_criterion_9_cli_goldens_and_exit_contract(tmp_path):
    golden_cases = [
        ("indices_tent.json", ["indices", "tests/fixtures/fn_tent.csv", "--format", "json"]),
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
        ),
        ("measure_atoms.json", ["measure", "tests/fixtures/atoms_mixed.csv", "--format", "json"]),
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
        ),
        ("glr_shifted.json", ["glr", "tests/fixtures/glr_shifted.csv", "--format", "json"]),
    ]
    problems: list[str] = []
    for name, argv in golden_cases:
        expected = (ROOT / "tests" / "golden" / name).read_text(encoding="utf-8")
        first = _run_cli(argv, ROOT)
        second = _run_cli(argv, ROOT)
        if first.returncode != 0 or second.returncode != 0:
            problems.append(f"{name}: nonzero exit")
        if first.stdout != expected:
            problems.append(f"{name}: output differs from golden")
        if first.stdout != second.stdout:
            problems.append(f"{name}: output differs across runs")

    dup = tmp_path / "dup.csv"
    dup.write_text("x,y\n0,0\n1,1\n1,2\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,0\nouch,1\n", encoding="utf-8")
    exit_cases = [
        (["indices", "tests/fixtures/no_such.csv"], 2),
        (["indices", str(dup)], 2),
        (["indices", str(bad)], 2),
        (["premium", "tests/fixtures/sample_quartet.csv", "--weight", "gaussian"], 2),
        (
            [
                "compare",
                "tests/fixtures/fn_tent.csv",
                "tests/fixtures/fn_wave.csv",
                "--relation",
                "I",
            ],
            1,
        ),
        (["indices", "tests/fixtures/fn_tent.csv"], 0),
    ]
    for argv, expected_code in exit_cases:
        proc = _run_cli(argv, ROOT)
        if proc.returncode != expected_code:
            problems.append(f"{argv}: exit {proc.returncode}, expected {expected_code}")
        if expected_code == 2 and "error:" not in proc.stderr:
            problems.append(f"{argv}: missing error message")

    ok = not problems
    detail = f"; first problem {problems[0]}" if problems else ""
    _report(
        9,
        f"5 golden outputs byte-identical across runs; exit codes 0/1/2 verified on "
        f"{len(exit_cases)} cases{detail}",
        ok,
    )
