import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import qdim as Q
import qdim.pressure
from qdim.errors import BracketError, DegenerateSystemError
from qdim.potentials import single_exp_sup
from qdim.pressure import _root_decreasing

from conftest import LOG23

GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


# ---------------------------------------------------------------------------
# word sums


def test_multiplicative_identity_e1(e1):
    system, family = e1
    expected = math.log(2 * 2 ** -0.5 * 3 ** -0.5)
    for depth in range(1, 7):
        value = Q.pressure_word_sum(system, family, 0.5, 0.5, depth)
        assert value == pytest.approx(expected, abs=1e-13)


def test_probability_weights_sum_to_one(e3):
    system, family = e3
    value = Q.pressure_word_sum(system, family, 1.0, 0.0, 1, truncation=50)
    assert value == pytest.approx(0.0, abs=2 ** -49)


def test_gauss_single_level_enumeration(gauss12):
    system, family = gauss12
    value = Q.pressure_word_sum(system, family, 0.0, 1.0, 1)
    assert value == pytest.approx(math.log(1 + 1 / 4), rel=1e-12)


def test_tree_path_matches_closed_form():
    # dual route: the Cantor maps wrapped as analytic branches defeat the
    # multiplicative shortcut, so the word tree must reproduce the closed form
    branches = [
        Q.AnalyticBranch1D(fn=lambda x, o=o: x / 3 + o,
                           deriv=lambda x: 1 / 3 + 0.0 * x,
                           deriv_sup=1 / 3)
        for o in (0.0, 2 / 3)
    ]
    system = Q.IfsSystem(domain=(0.0, 1.0), alphabet=Q.FiniteAlphabet(tuple(branches)),
                         s=1 / 3)
    family = Q.log_weight_family([0.5, 0.5])
    for q, t in [(0.0, 0.5), (0.5, 0.5), (1.0, 0.2), (0.3, 1.4)]:
        expected = math.log(2.0 * 2.0 ** -q * 3.0 ** -t)
        for depth in (1, 3, 5):
            value = Q.pressure_word_sum(system, family, q, t, depth)
            assert value == pytest.approx(expected, abs=1e-12)


def test_untruncated_series_can_diverge(e3):
    system, family = e3
    assert Q.pressure_word_sum(system, family, 0.0, -1.0, 1) == math.inf


def test_estimate_pressure_error_is_node_drift(gauss12):
    system, family = gauss12
    est = Q.estimate_pressure(system, family, 0.0, 0.6)
    assert not hasattr(est, "depth_values")
    assert est.finite
    assert 0.0 <= est.error <= 1e-12  # |P_32 - P_16| of the collocated operator
    assert est.tail_bound == 0.0  # finite alphabet


def test_truncation_tail_reported_separately(e3, gauss_full):
    system, family = e3
    est = Q.estimate_pressure(system, family, 0.5, 0.5, truncation=10)
    # oracle: the exact geometric remainder of the single-symbol series
    a = 2.0 ** -0.5 * 3.0 ** -0.5
    exact_tail = a ** 11 / (1 - a)
    assert est.tail_bound == pytest.approx(exact_tail, rel=1e-12)
    # and the truncated value plus the remainder brackets the full sum
    full = Q.pressure_word_sum(system, family, 0.5, 0.5, 1)
    assert math.exp(est.value) + est.tail_bound == pytest.approx(math.exp(full), rel=1e-12)

    gsystem, gfamily = gauss_full
    tail = Q.truncation_tail_bound(gsystem, gfamily, 0.0, 0.7, 50)
    # integral bound for sum_{i>50} i^{-1.4}
    assert tail == pytest.approx(50 ** -0.4 / 0.4, rel=1e-12)
    assert Q.truncation_tail_bound(gsystem, gfamily, 0.0, 0.4, 50) == math.inf


# ---------------------------------------------------------------------------
# finiteness threshold


def test_theta_examples(e1, e3, gauss_full):
    system, family = gauss_full
    assert Q.theta_of_q(system, family, 0.0).theta == pytest.approx(0.5)
    system3, family3 = e3
    assert Q.theta_of_q(system3, family3, 0.0).theta == pytest.approx(0.0, abs=1e-15)
    system1, family1 = e1
    assert Q.theta_of_q(system1, family1, 0.3).theta == -math.inf


def test_theta_brackets_finiteness(e3):
    system, family = e3
    q = 0.4
    theta = Q.theta_of_q(system, family, q).theta
    assert math.isfinite(Q.pressure_word_sum(system, family, q, theta + 0.05, 1))
    assert Q.pressure_word_sum(system, family, q, theta - 0.05, 1) == math.inf


_TAIL_CASES = {
    "e3": (Q.geometric_similarity_system(1 / 3), Q.geometric_weight_family(0.5)),
    **{f"gauss s={s_exp}": (Q.gauss_system(None), Q.derivative_family(s_exp))
       for s_exp in (0.6, 1.0, 2.0)},
    "gauss geometric weights": (Q.gauss_system(None), Q.geometric_weight_family(0.5)),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_TAIL_CASES)), st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.floats(0.05, 3.0), st.integers(1, 100))
def test_tail_model_bounds_enumerated_tail(name, q, dt, M):
    system, family = _TAIL_CASES[name]
    theta = Q.theta_of_q(system, family, q).theta
    t = max(theta, -1.0) + dt
    # oracle: the next 500 single-symbol sup norms, enumerated one by one
    enumerated = math.fsum(
        single_exp_sup(family, system, i) ** q * system.map(i).deriv_sup ** t
        for i in range(M + 1, M + 501))
    assert enumerated <= Q.truncation_tail_bound(system, family, q, t, M) * (1 + 1e-12)
    if math.isfinite(theta):
        assert math.isfinite(Q.truncation_tail_bound(system, family, q, theta + 0.05, M))
        assert Q.truncation_tail_bound(system, family, q, theta - 0.05, M) == math.inf


# ---------------------------------------------------------------------------
# temperature function


def test_beta_closed_form_e1(e1):
    system, family = e1
    assert Q.beta_of_q(system, family, 0.5) == pytest.approx(0.5 * LOG23, abs=1e-10)
    assert Q.beta_of_q(system, family, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_beta_golden_ratio_truncation(e3):
    # oracle: 3^-t + 9^-t = 1 has the golden solution t = log((sqrt5+1)/2)/log 3
    system, family = e3
    expected = math.log(GOLDEN) / math.log(3)
    assert Q.beta_of_q(system, family, 0.0, truncation=2) == pytest.approx(expected, abs=1e-10)


def test_beta_monotone_convex(e1):
    system, family = e1
    curve = Q.temperature_curve(system, family)
    betas = np.asarray(curve.betas)
    assert np.all(np.diff(betas) < 0)
    assert curve.convexity_defect <= 1e-8


# ---------------------------------------------------------------------------
# the fixed point


def test_qdim_e1_closed_form(e1):
    system, family = e1
    sol = Q.solve_quantization_dim(system, family, 2.0)
    assert sol.q_r == pytest.approx(math.log(2) / math.log(18), abs=1e-10)
    assert sol.kappa_r == pytest.approx(LOG23, abs=1e-8)
    assert sol.D_r == sol.kappa_r
    # defining identity at the returned point
    assert Q.beta_of_q(system, family, sol.q_r) == pytest.approx(2.0 * sol.q_r, abs=1e-9)


def test_qdim_e2_against_bisection_oracle(e2):
    system, family = e2
    q_oracle = brentq(lambda q: math.log(0.7 ** q + 0.3 ** q) - 2 * q * math.log(3),
                      1e-9, 1 - 1e-9, xtol=1e-14)
    kappa_oracle = 2 * q_oracle / (1 - q_oracle)
    assert q_oracle == pytest.approx(0.2345, abs=1e-3)
    assert kappa_oracle == pytest.approx(0.612, abs=3e-3)
    sol = Q.solve_quantization_dim(system, family, 2.0)
    assert sol.q_r == pytest.approx(q_oracle, abs=1e-12)
    assert sol.kappa_r == pytest.approx(kappa_oracle, abs=1e-12)


@st.composite
def _similarity_systems(draw):
    """2-5 similarity maps with ratios in [0.05, 0.8/n] and positive normalized weights."""
    n = draw(st.integers(2, 5))
    ratios = np.array(draw(st.lists(st.floats(0.05, 0.8 / n), min_size=n, max_size=n)))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    weights = raw / raw.sum()
    gap = (1.0 - ratios.sum()) / (n - 1)
    offsets = np.concatenate([[0.0], np.cumsum(ratios[:-1] + gap)])
    return ratios, weights, Q.similarity_system(list(ratios), list(offsets))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_similarity_systems(), st.floats(0.25, 8.0), st.floats(0.0, 1.0))
def test_roots_match_independent_brentq(case, r, q):
    ratios, weights, system = case
    family = Q.log_weight_family(list(weights))
    log_p, log_s = np.log(weights), np.log(ratios)
    eps = 4 * np.finfo(float).eps

    # oracle: sum_i p_i^q s_i^{r q} = 1, solved independently in q
    q_r = brentq(lambda u: np.log(np.sum(np.exp(u * (log_p + r * log_s)))),
                 1e-15, 1.0, xtol=1e-300, rtol=eps, maxiter=500)
    kappa = r * q_r / (1.0 - q_r)
    sol = Q.solve_quantization_dim(system, family, r)
    assert sol.kappa_r == pytest.approx(kappa, rel=1e-12)
    assert len(sol.trace) <= 40

    # oracle: sum_i p_i^q s_i^t = 1, solved independently in t
    beta = brentq(lambda t: np.log(np.sum(np.exp(q * log_p + t * log_s))),
                  -50.0, 50.0, xtol=1e-15, rtol=eps, maxiter=500)
    assert Q.beta_of_q(system, family, q) == pytest.approx(beta, abs=1e-12)


@st.composite
def _oriented_similarity_systems(draw):
    """_similarity_systems with each map's orientation drawn as well."""
    ratios, weights, system = draw(_similarity_systems())
    flips = draw(st.lists(st.sampled_from((1, -1)), min_size=len(ratios),
                          max_size=len(ratios)))
    # a reversing map x -> o - r x has image [o - r, o]
    offsets = [m.offset + (m.ratio if e < 0 else 0.0)
               for m, e in zip(system.alphabet.maps, flips)]
    return weights, Q.similarity_system(list(ratios), offsets, flips)


def _as_branches(system):
    """The same maps as analytic branches, which defeat the closed forms."""
    maps = tuple(Q.AnalyticBranch1D(fn=m.value,
                                    deriv=lambda x, m=m: m.orientation * m.ratio + 0.0 * x,
                                    deriv_sup=m.ratio)
                 for m in system.alphabet.maps)
    return Q.IfsSystem(domain=system.domain, alphabet=Q.FiniteAlphabet(maps), s=system.s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_oriented_similarity_systems(), st.sampled_from(("log-weight", "derivative")),
       st.floats(0.25, 8.0), st.floats(0.0, 1.0), st.floats(0.2, 2.0))
def test_operator_matches_closed_form(case, kind, r, q, s_exp):
    weights, system = case
    family = (Q.log_weight_family(list(weights)) if kind == "log-weight"
              else Q.derivative_family(s_exp))
    branches = _as_branches(system)
    assert Q.is_multiplicative(system, family)
    assert not Q.is_multiplicative(branches, family)
    assert Q.beta_of_q(branches, family, q) == pytest.approx(
        Q.beta_of_q(system, family, q), abs=1e-12)
    kappa = Q.solve_quantization_dim(system, family, r).kappa_r
    assert Q.solve_quantization_dim(branches, family, r).kappa_r == pytest.approx(
        kappa, rel=1e-12)


def _record_t(monkeypatch) -> list:
    """Every t at which the root solves evaluate P, in order."""
    make = qdim.pressure._pressure_callable
    ts = []

    def recording(*args):
        P = make(*args)

        def wrapped(q, t):
            ts.append(t)
            return P(q, t)
        return wrapped

    monkeypatch.setattr(qdim.pressure, "_pressure_callable", recording)
    return ts


@pytest.mark.parametrize("name", ["e1", "gauss12"])
def test_beta_evaluates_no_point_twice(name, request, monkeypatch):
    system, family = request.getfixturevalue(name)
    ts = _record_t(monkeypatch)
    Q.beta_of_q(system, family, 0.4)
    assert ts and len(ts) == len(set(ts))


@pytest.mark.parametrize("s_exp", [0.6, 0.531280506277205])
def test_beta_bracket_stays_at_small_t(s_exp, monkeypatch):
    # 32-node collocation drifts at large t on Gauss {1,2} (P(0.3, 25) is off
    # by 3), so no root solve on q in [0, 1] may evaluate P out there
    system, family = Q.gauss_system((1, 2)), Q.derivative_family(s_exp)
    ts = _record_t(monkeypatch)
    curve = Q.temperature_curve(system, family)
    assert ts and max(ts) <= 4.0
    if s_exp != 0.6:  # f = delta log|phi'| gives beta(q) = delta (1 - q)
        exact = s_exp * (1.0 - np.array(curve.qs))
        assert np.max(np.abs(np.array(curve.betas) - exact)) <= 1e-12


def test_operator_eigen_triple(gauss12):
    # L h = lambda h and nu L = lambda nu at the nodes, h > 0, lambda = e^{P(1, 0)}
    system, family = gauss12
    parts = qdim.pressure._operator_parts(system, family, 2, qdim.pressure._NODES)
    lam, h, nu = qdim.pressure._operator_eigen(parts)
    F, _, E = parts
    L = np.einsum("ij,ijk->jk", np.exp(F), E)
    assert lam == pytest.approx(math.exp(Q.estimate_pressure(system, family, 1.0, 0.0).value),
                                rel=1e-13)
    assert np.all(h > 0) and nu.sum() == pytest.approx(1.0) and nu @ h == pytest.approx(1.0)
    assert np.max(np.abs(L @ h - lam * h)) <= 1e-13 * np.max(h)
    assert np.max(np.abs(nu @ L - lam * nu)) <= 1e-13 * np.max(np.abs(nu))
    # the chain's step probabilities at the nodes sum to one
    probs = np.exp(F) * (E @ h) / (lam * h)
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-13


def test_root_finder_safeguards():
    # +inf at the left end makes the secant step NaN: the midpoint takes over
    trace = []
    x, v = _root_decreasing(lambda t: math.inf if t < 0.1 else 0.5 - t, 0.0, 2.0, trace)
    assert x == pytest.approx(0.5, abs=1e-15) and abs(v) <= 1e-15
    assert len(trace) <= 10
    # a flat root stalls plain regula falsi; forced bisection bounds the steps
    trace = []
    x, _ = _root_decreasing(lambda t: -(t - 0.3) ** 9, -1.0, 2.0, trace)
    assert x == pytest.approx(0.3, abs=1e-15)
    assert len(trace) <= 4 * 64
    with pytest.raises(BracketError):
        _root_decreasing(lambda t: 1.0 - t, 2.0, 3.0)


def test_qdim_rejects_bad_order(e1):
    system, family = e1
    with pytest.raises(ValueError):
        Q.solve_quantization_dim(system, family, -1.0)


def test_single_map_truncation_degenerates(e3):
    system, family = e3
    with pytest.raises(DegenerateSystemError):
        Q.solve_quantization_dim(system, family, 2.0, truncation=1)


# ---------------------------------------------------------------------------
# truncation sweep


def test_sweep_oracle_values(e3):
    system, family = e3
    sweep = Q.truncation_sweep(system, family, 2.0, [1, 2, 4, 8, 20])
    assert sweep.entries[0].kappa == 0.0 and sweep.entries[0].degenerate
    q2 = math.log(GOLDEN) / math.log(18)
    assert sweep.entries[1].kappa == pytest.approx(2 * q2 / (1 - q2), abs=1e-8)
    kappas = [e.kappa for e in sweep.entries]
    assert all(kappas[i] <= kappas[i + 1] + 1e-12 for i in range(len(kappas) - 1))
    assert sweep.kappa_ref == pytest.approx(LOG23, abs=1e-8)
    assert all(e.kappa <= sweep.kappa_ref + 1e-9 for e in sweep.entries)


# ---------------------------------------------------------------------------
# Hausdorff dimension


def test_hausdorff_moran_oracles(e1, e3):
    for system, family in (e1, e3):
        assert Q.hausdorff_dim(system, family) == pytest.approx(LOG23, abs=1e-10)


def test_hausdorff_equals_beta_zero(gauss12):
    system, family = gauss12
    d = Q.hausdorff_dim(system, family)
    b = Q.beta_of_q(system, family, 0.0)
    assert d == pytest.approx(b, abs=1e-12)


def test_hausdorff_continued_fraction_oracles():
    # Jenkinson-Pollicott: dim E_2 and dim E_{1..5}
    family = Q.derivative_family(1.0)
    assert abs(Q.hausdorff_dim(Q.gauss_system((1, 2)), family)
               - 0.531280506277205) <= 1e-12
    assert abs(Q.hausdorff_dim(Q.gauss_system((1, 2, 3, 4, 5)), family)
               - 0.836829443681208) <= 1e-12


def test_gauss_truncations_monotone_in_M(gauss_full):
    system, family = gauss_full
    dims = [Q.hausdorff_dim(system, family, truncation=M) for M in (5, 10, 20, 40)]
    assert all(a < b for a, b in zip(dims, dims[1:]))
    assert abs(dims[0] - 0.836829443681208) <= 1e-12


# ---------------------------------------------------------------------------
# figure dataset and Legendre transform


def test_figure_data_e1(e1):
    system, family = e1
    data = Q.legendre_and_figure_data(system, family, 2.0)
    assert data.intersection[0] == pytest.approx(0.239812, abs=1e-6)
    assert data.intersection[1] == pytest.approx(0.479625, abs=1e-6)
    assert data.intercept == pytest.approx(LOG23, abs=1e-8)
    # linear beta: the spectrum degenerates to the point (log2/log3, log2/log3)
    assert np.allclose(data.alphas, LOG23, atol=1e-6)
    assert np.allclose(data.f_alphas, LOG23, atol=1e-6)


def test_intercept_independent_of_r(e1):
    system, family = e1
    for r in (0.5, 1.0, 3.0):
        data = Q.legendre_and_figure_data(system, family, r)
        assert data.intercept == pytest.approx(LOG23, abs=1e-8)


# ---------------------------------------------------------------------------
# monotonicity invariants


def test_pressure_strictly_decreasing_in_t(e3, gauss12):
    system, family = e3
    for q in (0.0, 0.5, 1.0):
        vals = [Q.pressure_word_sum(system, family, q, t, 1, truncation=30)
                for t in np.linspace(0.0, 2.0, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    gsystem, gfamily = gauss12
    vals = [Q.pressure_word_sum(gsystem, gfamily, 0.3, t, 6) for t in np.linspace(0.0, 2.0, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_truncated_pressure_monotone_in_M(e3):
    system, family = e3
    for q, t in [(0.0, 0.7), (0.5, 0.3), (1.0, 0.1)]:
        vals = [Q.pressure_word_sum(system, family, q, t, 1, truncation=M)
                for M in (2, 3, 5, 9)]
        full = Q.pressure_word_sum(system, family, q, t, 1)
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= full + 1e-14


def test_truncated_pressure_monotone_gauss():
    family = Q.derivative_family(0.6)
    p2 = Q.pressure_word_sum(Q.gauss_system((1, 2)), family, 0.2, 0.8, 6)
    p3 = Q.pressure_word_sum(Q.gauss_system((1, 2, 3)), family, 0.2, 0.8, 6)
    assert p2 <= p3 + 1e-14
