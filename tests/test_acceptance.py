"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
heavier Monte-Carlo criteria reuse session fixtures and stay inside the
stated runtime budgets.
"""

import itertools
import json
import math
import time

import numpy as np
from scipy.optimize import brentq

import qdim as Q
from qdim.cli import main as cli_main

from conftest import LOG23

GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {detail}".rstrip())
    assert ok, f"criterion {num}: {name} {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_multiplicative_exactness(e1, e3):
    t0 = time.perf_counter()
    qs = np.linspace(0.0, 1.0, 5)
    ts = np.linspace(0.0, 2.0, 5)
    worst = 0.0
    system, family = e1
    for q, t in itertools.product(qs, ts):
        oracle = math.log(2.0 ** (1 - q) * 3.0 ** -t)
        value = Q.estimate_pressure(system, family, q, t).value
        worst = max(worst, abs(value - oracle))
    system3, family3 = e3
    i = np.arange(1, 51, dtype=float)
    for q, t in itertools.product(qs, ts):
        oracle = math.log(np.sum(2.0 ** (-i * q) * 3.0 ** (-i * t)))
        value = Q.estimate_pressure(system3, family3, q, t, truncation=50).value
        worst = max(worst, abs(value - oracle))
    elapsed = time.perf_counter() - t0
    _report(1, "multiplicative exactness", worst <= 1e-12 and elapsed < 1.0,
            f"(max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_temperature_closed_form(e1):
    t0 = time.perf_counter()
    system, family = e1
    worst = 0.0
    for q in np.linspace(0.0, 1.0, 21):
        beta = Q.beta_of_q(system, family, float(q))
        worst = max(worst, abs(beta - (1 - q) * LOG23))
    beta1 = abs(Q.beta_of_q(system, family, 1.0))
    gap0 = abs(Q.beta_of_q(system, family, 0.0) - Q.hausdorff_dim(system, family))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and beta1 <= 1e-12 and gap0 <= 1e-12 and elapsed < 1.0
    _report(2, "temperature closed form", ok,
            f"(max dev {worst:.2e}, beta(1) {beta1:.2e}, {elapsed:.2f}s)")


def test_criterion_03_fixed_point(e1, e3):
    t0 = time.perf_counter()
    worst = 0.0
    for system, family in (e1, e3):
        for r in (0.5, 1.0, 2.0, 3.0):
            sol = Q.solve_quantization_dim(system, family, r)
            worst = max(worst, abs(sol.kappa_r - LOG23), abs(sol.D_r - LOG23))
    elapsed = time.perf_counter() - t0
    _report(3, "fixed point kappa_r = D_r = log2/log3", worst <= 1e-12 and elapsed < 5.0,
            f"(max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_04_truncation_sweep(e3):
    t0 = time.perf_counter()
    system, family = e3
    sweep = Q.truncation_sweep(system, family, 2.0, list(range(1, 21)))
    kappas = [e.kappa for e in sweep.entries]
    ok_first = sweep.entries[0].kappa == 0.0 and sweep.entries[0].degenerate
    q2 = math.log(GOLDEN) / math.log(18)
    dev2 = abs(kappas[1] - 2 * q2 / (1 - q2))
    monotone = all(a <= b + 1e-12 for a, b in zip(kappas, kappas[1:]))
    # closed-form root oracle at M = 20: sum_{i<=20} u^i = 1 with u = 18^{-q}
    u20 = brentq(lambda u: np.sum(u ** np.arange(1, 21)) - 1.0, 0.4, 0.7, xtol=1e-15)
    q20 = -math.log(u20) / math.log(18)
    dev_oracle = abs(kappas[-1] - 2 * q20 / (1 - q20))
    gap = abs(kappas[-1] - LOG23)
    elapsed = time.perf_counter() - t0
    ok = (ok_first and dev2 <= 1e-12 and monotone and dev_oracle <= 1e-12
          and gap <= 1e-3 and elapsed < 10.0)
    _report(4, "truncation sweep", ok,
            f"(M=2 dev {dev2:.2e}, M=20 gap {gap:.2e}, {elapsed:.2f}s)")


def _cf_deriv(word, x):
    d, y = 1.0, x
    for i in reversed(word):
        d *= 1.0 / (i + y) ** 2
        y = 1.0 / (i + y)
    return d


def _cf_log_word_sum(t, n):
    total = 0.0
    for word in itertools.product((1, 2), repeat=n):
        total += max(_cf_deriv(word, 0.0), _cf_deriv(word, 1.0)) ** t
    return math.log(total)


def test_criterion_05_continued_fraction_cross_check(gauss12):
    t0 = time.perf_counter()
    system, family = gauss12
    dim = Q.hausdorff_dim(system, family)

    # independent oracle: brute-force word sums telescoped over depth pairs
    # (the per-pair error decays geometrically), Aitken-accelerated
    def telescoped_root(n):
        return brentq(lambda t: _cf_log_word_sum(t, 2 * n) - _cf_log_word_sum(t, n),
                      0.3, 0.8, xtol=1e-13)

    roots = [telescoped_root(n) for n in (4, 5, 6)]
    d1, d2 = roots[1] - roots[0], roots[2] - roots[1]
    oracle = roots[2] - d2 * d2 / (d2 - d1) if abs(d2 - d1) > 1e-15 else roots[2]

    elapsed = time.perf_counter() - t0
    ok = abs(dim - 0.5313) <= 1e-2 and abs(dim - oracle) <= 5e-3 and elapsed < 10.0
    ok = ok and abs(dim - 0.531280506277205) <= 1e-12
    # the published continued-fraction value, cross-check only
    ok = ok and abs(oracle - 0.5312805) <= 1e-3
    _report(5, "continued-fraction dimension", ok,
            f"(dim {dim:.6f}, oracle {oracle:.6f}, {elapsed:.2f}s)")


def test_criterion_06_quantizer_oracles(e1_sample_big):
    t0 = time.perf_counter()
    r1 = Q.lloyd_optimize(e1_sample_big, 1, 2.0)
    r2 = Q.lloyd_optimize(e1_sample_big, 2, 2.0)
    ok_v1 = abs(r1.V_hat - 0.125) <= 0.04 * 0.125
    ok_v2 = abs(r2.V_hat - 1 / 72) <= 0.10 / 72
    d_hat, _ = Q.estimate_Dr([r1, r2])
    ok_d = abs(d_hat - LOG23) <= 0.08 * LOG23
    elapsed = time.perf_counter() - t0
    _report(6, "quantizer oracles", ok_v1 and ok_v2 and ok_d and elapsed < 30.0,
            f"(V1 {r1.V_hat:.5f}, V2 {r2.V_hat:.6f}, slope {d_hat:.4f}, {elapsed:.1f}s)")


def test_criterion_07_main_theorem_verification(tmp_path):
    t0 = time.perf_counter()
    spec = tmp_path / "e2.json"
    spec.write_text(json.dumps({
        "domain": [0.0, 1.0], "kind": "similarity",
        "maps": [{"ratio": 1 / 3, "offset": 0.0}, {"ratio": 1 / 3, "offset": 2 / 3}],
        "potential": {"kind": "logweights", "weights": [0.7, 0.3]},
    }))
    out = tmp_path / "verify.json"
    code = cli_main(["verify", "--system", str(spec), "--r", "2",
                     "--n-list", "4,8,16,32,64,128,256,512",
                     "--samples", "200000", "--seed", "7",
                     "--tol", "0.15", "--out", str(out)])
    report = json.loads(out.read_text())
    elapsed = time.perf_counter() - t0
    ok = code == 0 and report["passed"] and report["relative_gap"] <= 0.15 and elapsed < 120.0
    _report(7, "main-theorem verification on E2", ok,
            f"(kappa {report['kappa_r']:.4f}, D_hat {report['D_hat']:.4f}, "
            f"gap {report['relative_gap']:.3f}, {elapsed:.1f}s)")


def test_criterion_08_antichain_bound(e1, e1_sample_big):
    t0 = time.perf_counter()
    system, family = e1
    kappa = Q.solve_quantization_dim(system, family, 2.0).kappa_r
    series = []
    cards_ok = True
    for n in (4, 8, 16, 32, 64, 128, 256):
        res = Q.antichain_codebook(system, family, 2.0, n)
        cards_ok = cards_ok and res.cardinality <= n
        v = Q.quant_error(e1_sample_big, res.codebook, 2.0)
        series.append(n * v ** (kappa / 2.0))
    ratio = max(series) / min(series)
    elapsed = time.perf_counter() - t0
    _report(8, "antichain cardinality and bounded series",
            cards_ok and ratio <= 2.0 and elapsed < 60.0,
            f"(series ratio {ratio:.2f}, {elapsed:.1f}s)")


def test_criterion_09_measure_convergence(e3):
    t0 = time.perf_counter()
    system, family = e3
    N, R = 20_000, 4
    Ms = (2, 4, 8, 16)
    ns = (4, 16, 64)
    rho = {M: [] for M in Ms}
    slack = {(M, n): [] for M in Ms for n in ns}
    for j in range(R):
        ref = Q.sample_measure(system, family, N, seed=900 + j)
        e_ref = {n: Q.lloyd_optimize(ref, n, 2.0).e_hat for n in ns}
        for M in Ms:
            part = Q.sample_measure(system, family, N, truncation=M, seed=100 * j + M)
            rho_j = Q.wasserstein_1d(2.0, part, ref)
            rho[M].append(rho_j)
            for n in ns:
                e_part = Q.lloyd_optimize(part, n, 2.0).e_hat
                slack[(M, n)].append(abs(e_part - e_ref[n]) - rho_j)

    monotone_ok = True
    detail = []
    for Ma, Mb in zip(Ms, Ms[1:]):
        a, b = np.asarray(rho[Ma]), np.asarray(rho[Mb])
        band = 3.0 * math.sqrt(a.var(ddof=1) / R + b.var(ddof=1) / R)
        monotone_ok = monotone_ok and (b.mean() <= a.mean() + band)
        detail.append(f"{b.mean():.4f}<={a.mean():.4f}+{band:.4f}")

    continuity_ok = True
    for key, vals in slack.items():
        v = np.asarray(vals)
        sigma = v.std(ddof=1) / math.sqrt(R)
        continuity_ok = continuity_ok and (v.mean() <= 3.0 * sigma + 1e-3)

    elapsed = time.perf_counter() - t0
    _report(9, "measure convergence (rho monotone, error continuity)",
            monotone_ok and continuity_ok and elapsed < 60.0,
            f"({'; '.join(detail)}, {elapsed:.1f}s)")


def test_criterion_10_convexity_monotonicity(e1, e3, gauss12):
    t0 = time.perf_counter()
    system, family = e1
    curve = Q.temperature_curve(system, family)
    ok_convex = curve.convexity_defect <= 1e-8
    system3, family3 = e3
    curve3 = Q.temperature_curve(system3, family3, truncation=12)
    ok_convex = ok_convex and curve3.convexity_defect <= 1e-8

    ok_decreasing = True
    for q in (0.0, 0.5, 1.0):
        vals = [Q.estimate_pressure(system3, family3, q, t, truncation=30).value
                for t in np.linspace(0.0, 2.0, 9)]
        ok_decreasing = ok_decreasing and all(a > b for a, b in zip(vals, vals[1:]))
    gsystem, gfamily = gauss12
    gvals = [Q.estimate_pressure(gsystem, gfamily, 0.3, t).value
             for t in np.linspace(0.0, 2.0, 9)]
    ok_decreasing = ok_decreasing and all(a > b for a, b in zip(gvals, gvals[1:]))

    ok_truncation = True
    for q, t in [(0.0, 0.7), (0.5, 0.3), (1.0, 0.1)]:
        vals = [Q.estimate_pressure(system3, family3, q, t, truncation=M).value
                for M in (2, 3, 5, 9, 15)]
        full = Q.estimate_pressure(system3, family3, q, t).value
        ok_truncation = (ok_truncation
                         and all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
                         and vals[-1] <= full + 1e-14)
    p2 = Q.estimate_pressure(Q.gauss_system((1, 2)), gfamily, 0.2, 0.8).value
    p3 = Q.estimate_pressure(Q.gauss_system((1, 2, 3)), gfamily, 0.2, 0.8).value
    ok_truncation = ok_truncation and p2 <= p3 + 1e-14

    elapsed = time.perf_counter() - t0
    ok = ok_convex and ok_decreasing and ok_truncation and elapsed < 5.0
    _report(10, "convexity and monotonicity suite", ok, f"({elapsed:.1f}s)")
