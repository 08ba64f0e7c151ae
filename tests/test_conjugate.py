"""A nonlinear system with a closed-form answer: similarities conjugated by a Möbius map.

With h(x) = x / (x + c (1 - x)) and similarities S_i(x) = r_i x + o_i on
[0, 1], the maps phi_i = h o S_i o h^-1 are Möbius contractions, and

    log|phi_i'| = log r_i + u o phi_i - u,   u = log h' o h^-1,

is cohomologous to the constant log r_i.  So the constant potential
log p_i has P(q, t) = log sum_i p_i^q r_i^t on the conjugate exactly,
f_i = s log|phi_i'| has the similarity system's normalized pressure,
and every kappa_r is the similarity system's closed form.  The
conjugate's maps are analytic branches, so its numbers all come from
the collocated operator.
"""

import math

import numpy as np
import pytest

import qdim as Q

C = 1.5          # h's parameter; at c = 3 a conjugated e2 map expands
THIRD = 1.0 / 3.0
RATIOS3, OFFSETS3 = (0.2, 0.3, 0.25), (0.0, 0.35, 0.75)


def _h(x):
    return x / (x + C * (1.0 - x))


def _h_deriv(x):
    return C / (x + C * (1.0 - x)) ** 2


def _h_inv(y):
    return C * y / (1.0 + (C - 1.0) * y)


def _h_inv_deriv(y):
    return C / (1.0 + (C - 1.0) * y) ** 2


def _conjugate(ratios, offsets) -> Q.IfsSystem:
    """The system h o S_i o h^-1 of the similarities S_i(x) = r_i x + o_i, as analytic branches."""
    maps = []
    for r, o in zip(ratios, offsets):
        def fn(y, r=r, o=o):
            return _h(r * _h_inv(y) + o)

        def deriv(y, r=r, o=o):
            return _h_deriv(r * _h_inv(y) + o) * r * _h_inv_deriv(y)

        # a Moebius map's |phi'| is monotone, so its sup sits at an end
        maps.append(Q.AnalyticBranch1D(fn, deriv, float(max(deriv(0.0), deriv(1.0)))))
    return Q.IfsSystem(domain=(0.0, 1.0), alphabet=Q.FiniteAlphabet(tuple(maps)))


def test_conjugated_e2_kappa_and_pressure_match_the_closed_form():
    # e2 (weights 0.7, 0.3 on the middle-third maps) and its conjugate carry
    # the same pressure function, so kappa_r and P agree to rounding
    e2 = Q.similarity_system([THIRD, THIRD], [0.0, 2 * THIRD])
    conj = _conjugate((THIRD, THIRD), (0.0, 2 * THIRD))
    assert conj.s == pytest.approx(0.551, abs=1e-3)
    family = Q.log_weight_family([0.7, 0.3])
    for r in (0.5, 1.0, 2.0, 5.0):
        exact = Q.solve_quantization_dim(e2, family, r)
        assert exact.solver == "closed_form"
        got = Q.solve_quantization_dim(conj, family, r)
        assert got.solver != "closed_form"
        assert abs(got.kappa_r - exact.kappa_r) <= 1e-13
    for q, t in ((1.0, 0.0), (0.3, 2.0), (-1.0, 0.5), (2.0, -1.0)):
        closed = math.log(0.7 ** q * THIRD ** t + 0.3 ** q * THIRD ** t)
        assert Q.estimate_pressure(e2, family, q, t).value == pytest.approx(closed, abs=1e-15)
        assert abs(Q.estimate_pressure(conj, family, q, t).value - closed) <= 1e-13


@pytest.mark.parametrize("s_exp", ["dim", 0.5])
def test_conjugated_derivative_potential_matches_the_similarity_system(s_exp):
    # f_i = s log|phi_i'| is cohomologous to s log r_i, so after normalization
    # the conjugate has the similarity system's kappa_r
    sim = Q.similarity_system(RATIOS3, OFFSETS3)
    conj = _conjugate(RATIOS3, OFFSETS3)
    if s_exp == "dim":
        s_exp = Q.hausdorff_dim(sim, Q.derivative_family(1.0))
        assert s_exp == pytest.approx(0.790874, abs=1e-6)
    exact_family = Q.normalize_pressure(Q.derivative_family(s_exp), sim)
    conj_family = Q.normalize_pressure(Q.derivative_family(s_exp), conj)
    for r in (0.5, 2.0, 5.0):
        exact = Q.solve_quantization_dim(sim, exact_family, r)
        assert exact.solver == "closed_form"
        got = Q.solve_quantization_dim(conj, conj_family, r)
        assert abs(got.kappa_r - exact.kappa_r) <= 1e-13


def _cdf(points: np.ndarray, masses: np.ndarray):
    order = np.argsort(points)
    points, cum = points[order], np.cumsum(masses[order]) / masses.sum()
    return lambda y: cum[np.searchsorted(points, y, side="right") - 1]


def test_chain_samples_the_conformal_measure_of_the_conjugate():
    # for f_i = s log|phi_i'| the conformal measure is m ~ (h' o h^-1)^s h_* mu_s,
    # mu_s the self-similar measure with weights r_i^s / sum_j r_j^s; the chain
    # must draw m, and the plain push-forward h_* mu_s must fail the same check
    s_exp, count = 0.6, 50_000
    conj = _conjugate(RATIOS3, OFFSETS3)
    family = Q.normalize_pressure(Q.derivative_family(s_exp), conj)
    points = Q.sample_measure(conj, family, count, seed=7).points

    # depth-10 cylinders of mu_s: S_w(x) = a_w x + b_w, weight p_w
    a, b, p = np.ones(1), np.zeros(1), np.ones(1)
    weights = np.array(RATIOS3) ** s_exp
    weights /= weights.sum()
    for _ in range(10):
        a, b, p = (np.concatenate([a * r for r in RATIOS3]),
                   np.concatenate([a * o + b for o in OFFSETS3]),
                   np.concatenate([p * w for w in weights]))
    x = b + 0.5 * a  # each cylinder as a point mass at its midpoint
    law = _cdf(_h(x), p * _h_deriv(x) ** s_exp)
    push = _cdf(_h(x), p)

    levels = np.arange(1, 50) / 50
    y = np.quantile(points, levels)
    empirical = np.searchsorted(points, y, side="right") / count
    bound = 4.0 / math.sqrt(count)
    assert np.max(np.abs(empirical - law(y))) < bound
    assert np.max(np.abs(empirical - push(y))) > bound
