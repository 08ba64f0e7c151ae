"""An operator-free oracle for the pressure: the periodic-orbit determinant.

For a finite Gauss subsystem phi_i(x) = 1 / (i + x) and the transfer
operator L h(x) = sum_i e^{q f_i(x)} |phi_i'(x)|^t h(phi_i x), with
f_i = log p_i + g + s log|phi_i'|, L is nuclear on analytic functions and

    det(I - z L) = exp(-sum_n z^n / n tr L^n),
    tr L^n = sum_{|w| = n} e^{S_w(x_w)} / (1 - phi_w'(x_w)),

the sum over the words w of length n with x_w the fixed point of phi_w and
S_w the exponent summed along its orbit (Ruelle; Jenkinson-Pollicott).  The
power series of the determinant converges like e^{-c n^2}, so its terms up
to a period N give the least zero z_0 = e^{-P(q, t)} to near machine
precision, with no collocation, no node count and no eigenvalue solver.
"""

import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from scipy.optimize import brentq

import qdim as Q

DIM_E2 = 0.531280506277205
DIM_E15 = 0.836829443681208


def _g(x):
    return -4.0 * x


@lru_cache(maxsize=None)
def _orbits(digits: tuple[int, ...], period: int):
    """For each n <= period, one row per word w of length n: its digits
    (int8), its periodic orbit (x_w first) and 1 / (1 - phi_w'(x_w)),
    phi_w'(x_w) signed."""
    out = []
    for n in range(1, period + 1):
        words = np.array(list(product(digits, repeat=n)), dtype=np.int8)
        x = np.full(len(words), 0.5)
        # phi_a(phi_b x) phi_b(x) <= 1/2 on [0, 1], so two symbols contract by 1/4 or more
        for _ in range(-(-80 // n)):
            for k in range(n):
                x = 1.0 / (words[:, k] + x)
        ys = np.empty(words.shape)
        deriv = np.ones(len(words))
        for k in range(n):
            ys[:, k] = x
            x = 1.0 / (words[:, k] + x)
            deriv *= -x * x  # phi_i'(y) = -1 / (i + y)^2 = -phi_i(y)^2
        out.append((words, ys, 1.0 / (1.0 - deriv)))
    return out


def teardown_module():
    # the period-8 orbits of five symbols are tens of MB
    _orbits.cache_clear()


def _determinant(digits, family, q, t, period):
    """The coefficients a_0..a_N of det(I - z L), z in units of e^{-P0}, and P0."""
    traces = []
    if family.weights is not None:
        log_p = np.array([family.weights.log_p(i) for i in range(1, max(digits) + 1)])
    for words, ys, scale in _orbits(digits, period):
        log_d = -2.0 * np.log(words + ys)  # log|phi_i'(y)|
        f = family.s_exp * log_d - family.shift
        if family.weights is not None:
            f = f + log_p[words.astype(int) - 1]
        if family.g is not None:
            f = f + family.g(ys)
        traces.append(np.exp((q * f + t * log_d).sum(axis=1)) @ scale)
    # rescale by the period-1 trace so the zero sits near 1
    p0 = math.log(traces[0])
    c = [-tr * math.exp(-n * p0) / n for n, tr in enumerate(traces, start=1)]
    a = [1.0]
    for m in range(1, period + 1):
        a.append(sum(k * c[k - 1] * a[m - k] for k in range(1, m + 1)) / m)
    return np.array(a), p0


def periodic_orbit_pressure(digits, family, q, t, period):
    """P(q, t) = -log z_0 from the determinant's terms up to ``period``, for
    f_i = log p_i + g + s log|phi_i'| - shift read off ``family`` (digits 1..k)."""
    a, p0 = _determinant(tuple(digits), family, q, t, period)
    coef = a[::-1]
    w = min((r.real for r in np.roots(coef) if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0),
            key=abs)
    for _ in range(3):  # Newton on the polynomial polishes the companion-matrix root
        w -= np.polyval(coef, w) / np.polyval(np.polyder(coef), w)
    return p0 - math.log(w)


_GAUSS12 = {
    "dim": Q.derivative_family(DIM_E2),
    "weights": Q.log_weight_family([0.7, 0.3]),
    "g": Q.derivative_family(0.6, _g, g_sup=4.0),
}


@pytest.mark.parametrize("q, t", [(1.0, 0.0), (0.3, 2.0), (2.0, -1.0), (-1.0, 1.5), (0.3, 10.0)])
@pytest.mark.parametrize("name", list(_GAUSS12))
def test_gauss12_pressure_matches_the_determinant(name, q, t):
    family = _GAUSS12[name]
    value = Q.estimate_pressure(Q.gauss_system((1, 2)), family, q, t).value
    assert abs(value - periodic_orbit_pressure((1, 2), family, q, t, 12)) <= 1e-13


_GAUSS15 = {
    "g": Q.derivative_family(0.6, _g, g_sup=4.0),
    "dim": Q.derivative_family(DIM_E15),
}


@pytest.mark.parametrize("q, t", [(1.0, 0.0), (0.5, 0.4), (2.0, -1.0), (0.0, 0.5)])
@pytest.mark.parametrize("name", list(_GAUSS15))
def test_gauss15_pressure_matches_the_determinant(name, q, t):
    family = _GAUSS15[name]
    value = Q.estimate_pressure(Q.gauss_system((1, 2, 3, 4, 5)), family, q, t).value
    assert abs(value - periodic_orbit_pressure(range(1, 6), family, q, t, 7)) <= 2e-13


def test_gauss12_dimension_is_the_determinants_root():
    # beta(0) does not depend on the potential: the root of t -> P(0, t)
    family = Q.derivative_family(1.0)
    beta0 = brentq(lambda t: periodic_orbit_pressure((1, 2), family, 0.0, t, 12), 0.3, 0.8,
                   xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert abs(beta0 - Q.hausdorff_dim(Q.gauss_system((1, 2)), family)) <= 1e-13
    assert abs(beta0 - DIM_E2) <= 1e-13


_EXTREME = -24.2139863218469  # P(0.3, 25) on Gauss {1,2} at s = dim E_2


def test_determinant_converges_at_an_extreme_temperature():
    p10, p12 = (periodic_orbit_pressure((1, 2), _GAUSS12["dim"], 0.3, 25.0, n) for n in (10, 12))
    assert abs(p10 - p12) <= 2e-14
    assert abs(p12 - _EXTREME) <= 1e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_operator_pressure_at_an_extreme_temperature():
    # 32 collocation nodes miss the determinant's value by about 6e-6
    value = Q.estimate_pressure(Q.gauss_system((1, 2)), _GAUSS12["dim"], 0.3, 25.0).value
    assert abs(value - _EXTREME) <= 1e-10


def _g3(x):
    return 3.0 * x


_GAUSS15_ROOTS = {
    "g=3x": Q.normalize_pressure(Q.derivative_family(0.6, _g3, g_sup=3.0),
                                 Q.gauss_system((1, 2, 3, 4, 5))),
    "weights": Q.log_weight_family([0.3, 0.25, 0.2, 0.15, 0.1]),
}


@pytest.mark.parametrize("name", list(_GAUSS15_ROOTS))
def test_gauss15_temperature_roots_are_the_determinants_zeros(name):
    # beta(q) by the warm-started walk: the determinant's P vanishes at (q, beta(q))
    family = _GAUSS15_ROOTS[name]
    curve = Q.temperature_curve(Q.gauss_system((1, 2, 3, 4, 5)), family, [0.0, 0.5, 1.0, 2.0])
    for q, beta in zip(curve.qs, curve.betas):
        assert abs(periodic_orbit_pressure(range(1, 6), family, q, beta, 8)) <= 1e-13


@pytest.mark.parametrize("r", [0.5, 2.0])
@pytest.mark.parametrize("name", list(_GAUSS15_ROOTS))
def test_gauss15_quantization_roots_are_the_determinants_zeros(name, r):
    # q_r by a cold start: the determinant's P vanishes at (q_r, r q_r)
    family = _GAUSS15_ROOTS[name]
    q_r = Q.solve_quantization_dim(Q.gauss_system((1, 2, 3, 4, 5)), family, r).q_r
    assert abs(periodic_orbit_pressure(range(1, 6), family, q_r, r * q_r, 8)) <= 1e-13
