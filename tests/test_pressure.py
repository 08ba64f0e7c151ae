import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import qdim as Q
import qdim.pressure
from qdim.errors import BracketError, DegenerateSystemError
from qdim.potentials import _geometric_pressure, _tail_decay, single_exp_sup

from conftest import LOG23

GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


# ---------------------------------------------------------------------------
# pressure values


def _pressure(system, family, q, t, truncation=None):
    return Q.estimate_pressure(system, family, q, t, truncation).value


def test_multiplicative_identity_e1(e1):
    system, family = e1
    expected = math.log(2 * 2 ** -0.5 * 3 ** -0.5)
    assert _pressure(system, family, 0.5, 0.5) == pytest.approx(expected, abs=1e-13)


def test_probability_weights_sum_to_one(e3):
    system, family = e3
    value = _pressure(system, family, 1.0, 0.0, truncation=50)
    assert value == pytest.approx(0.0, abs=2 ** -49)


def test_operator_path_matches_closed_form():
    # dual route: the Cantor maps wrapped as analytic branches defeat the
    # multiplicative shortcut, so the collocated operator must reproduce the
    # closed form
    branches = [
        Q.AnalyticBranch1D(fn=lambda x, o=o: x / 3 + o,
                           deriv=lambda x: 1 / 3 + 0.0 * x,
                           deriv_sup=1 / 3)
        for o in (0.0, 2 / 3)
    ]
    system = Q.IfsSystem(domain=(0.0, 1.0), alphabet=Q.FiniteAlphabet(tuple(branches)))
    family = Q.log_weight_family([0.5, 0.5])
    for q, t in [(0.0, 0.5), (0.5, 0.5), (1.0, 0.2), (0.3, 1.4)]:
        expected = math.log(2.0 * 2.0 ** -q * 3.0 ** -t)
        assert _pressure(system, family, q, t) == pytest.approx(expected, abs=1e-12)


def test_untruncated_series_can_diverge(e3):
    system, family = e3
    assert _pressure(system, family, 0.0, -1.0) == math.inf


def test_estimate_pressure_error_is_node_drift(gauss12, e3):
    system, family = gauss12
    est = Q.estimate_pressure(system, family, 0.0, 0.6)
    assert not hasattr(est, "depth_values")
    assert est.finite
    assert 0.0 <= est.error <= 1e-12  # |P_32 - P_16| of the collocated operator
    coarse = qdim.pressure._operator_parts(system, family, 2, qdim.pressure._NODES // 2)
    assert est.error == abs(est.value - qdim.pressure._operator_pressure(coarse, 0.0, 0.6))
    assert est.tail_bound == 0.0  # finite alphabet
    assert Q.estimate_pressure(*e3, 0.5, 0.5).error == 0.0  # closed form


def test_truncation_tail_reported_separately(e3, gauss_full):
    system, family = e3
    est = Q.estimate_pressure(system, family, 0.5, 0.5, truncation=10)
    # oracle: the exact geometric remainder of the single-symbol series
    a = 2.0 ** -0.5 * 3.0 ** -0.5
    exact_tail = a ** 11 / (1 - a)
    assert est.tail_bound == pytest.approx(exact_tail, rel=1e-12)
    # and the truncated value plus the remainder brackets the full sum
    full = _pressure(system, family, 0.5, 0.5)
    assert math.exp(est.value) + est.tail_bound == pytest.approx(math.exp(full), rel=1e-12)

    gsystem, gfamily = gauss_full
    tail = Q.truncation_tail_bound(gsystem, gfamily, 0.0, 0.7, 50)
    # integral bound for sum_{i>50} i^{-1.4}
    assert tail == pytest.approx(50 ** -0.4 / 0.4, rel=1e-12)
    assert Q.truncation_tail_bound(gsystem, gfamily, 0.0, 0.4, 50) == math.inf


# ---------------------------------------------------------------------------
# the closed-form kernels, bit for bit against the array formulas they replace


def _lse_reference(a: np.ndarray, d: np.ndarray, q: float, t: float) -> float:
    """log(sum(exp(v))) at v = q a + t d, shifted by np.max; +inf, -inf and
    nan pass through."""
    with np.errstate(all="ignore"):  # overflow to +-inf and inf - inf are the cases
        v = q * a + t * d
        m = float(np.max(v, initial=-math.inf))
        if not math.isfinite(m):
            return m
        return m + math.log(float(np.sum(np.exp(v - m))))


def _geometric_reference(family, system, q, t, M):
    """log sum over i <= M of e^{A + B i} from ``_tail_decay`` at (q, t)."""
    (c0, c1), (b0, b1), _ = _tail_decay(family, system.alphabet.tail, q)
    A, B = c0 + c1 * t, b0 + b1 * t
    if M is None:
        if B >= 0.0:
            return math.inf
        return A + B - math.log1p(-math.exp(B))
    if abs(B) < 1e-300:
        return A + math.log(M)
    if B > 0:
        return A + B * M + math.log1p(-math.exp(-B * M)) - math.log1p(-math.exp(-B))
    return A + B + math.log1p(-math.exp(B * M)) - math.log1p(-math.exp(B))


def _outcome(fn, *args):
    """What fn(*args) gives, comparable to the bit: the exception type, "nan"
    for any NaN, else the value's type and float.hex (which keeps -0.0)."""
    try:
        value = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    if math.isnan(value):
        return "nan"
    return type(value), float.hex(value)


# wide arguments: moderate values, and any float at all (nan, +-inf, huge, subnormal)
_WIDE = st.one_of(st.floats(-60.0, 60.0), st.floats())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
           st.lists(st.floats(-50.0, 10.0), min_size=n, max_size=n),
           st.lists(st.floats(-50.0, 0.0), min_size=n, max_size=n))),
       _WIDE, _WIDE)
def test_finite_kernel_matches_array_formula(logs, q, t):
    a, d = (np.array(x) for x in logs)
    assert (_outcome(qdim.pressure._finite_logsum(a, d), q, t)
            == _outcome(_lse_reference, a, d, q, t))


@pytest.mark.parametrize("a, d, q, t", [
    ([0.0, -1.0], [-1.0, -1.0], math.inf, 0.0),       # exponents (nan, -inf)
    ([-1.0, 0.0], [-1.0, -1.0], math.inf, 0.0),       # (-inf, nan): max skips the nan
    ([10.0, 0.0], [-10.0, 0.0], 1e308, 1e308),        # (nan, 0)
    ([0.0, 10.0], [0.0, -10.0], 1e308, 1e308),        # (0, nan): a finite max
    ([10.0, 0.0, 1.0], [0.0, -10.0, 0.0], 1e308, 1e308),  # (inf, -inf, inf)
    ([1.0, 10.0, 0.0], [0.0, -10.0, -10.0], 1e308, 1e308),  # (inf, nan, -inf)
    ([-1.0, -2.0], [-1.0, -1.0], math.inf, 0.0),      # all -inf
    ([0.0], [0.0], 0.0, 0.0),
], ids=["nan-first", "nan-after-inf", "nan-then-finite", "finite-then-nan", "inf",
        "inf-then-nan", "all-minus-inf", "single-zero"])
def test_finite_kernel_passes_nan_and_inf(a, d, q, t):
    a, d = np.array(a), np.array(d)
    assert (_outcome(qdim.pressure._finite_logsum(a, d), q, t)
            == _outcome(_lse_reference, a, d, q, t))


def _geometric_family(kind, value, shift):
    base = Q.geometric_weight_family(value) if kind == "weights" else Q.derivative_family(value)
    return replace(base, shift=shift)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.01, 1 / 3), st.sampled_from(["weights", "derivative"]),
       st.floats(0.01, 0.99), st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
       st.one_of(st.none(), st.integers(1, 300), st.integers(1, 10 ** 9)), _WIDE, _WIDE)
def test_geometric_kernel_matches_tail_model(ratio, kind, value, shift, M, q, t):
    system = Q.geometric_similarity_system(ratio)
    family = _geometric_family(kind, value, shift)
    assert (_outcome(_geometric_pressure(family, system, M), q, t)
            == _outcome(_geometric_reference, family, system, q, t, M))


def test_geometric_kernel_diverges_untruncated(e3):
    # e3 at q = -1: the terms are e^{A + B i} with B = log 2 - t log 3, so the
    # untruncated series is +inf for t <= log 2 / log 3 and finite above
    system, family = e3
    P = _geometric_pressure(family, system, None)
    assert P(-1.0, 0.0) == math.inf == _geometric_reference(family, system, -1.0, 0.0, None)
    assert math.isfinite(P(-1.0, 1.0))
    assert _outcome(P, -1.0, 1.0) == _outcome(_geometric_reference, family, system, -1.0, 1.0,
                                              None)


# ---------------------------------------------------------------------------
# finiteness threshold


def test_theta_examples(e1, e3, gauss_full):
    system, family = gauss_full
    assert Q.theta_of_q(system, family, 0.0) == pytest.approx(0.5)
    system3, family3 = e3
    assert Q.theta_of_q(system3, family3, 0.0) == pytest.approx(0.0, abs=1e-15)
    system1, family1 = e1
    assert Q.theta_of_q(system1, family1, 0.3) == -math.inf


def test_theta_brackets_finiteness(e3):
    system, family = e3
    q = 0.4
    theta = Q.theta_of_q(system, family, q)
    assert math.isfinite(_pressure(system, family, q, theta + 0.05))
    assert _pressure(system, family, q, theta - 0.05) == math.inf


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
    theta = Q.theta_of_q(system, family, q)
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


@pytest.mark.parametrize("ratio, w", [(1 / 3, 0.5), (0.2, 0.9), (1 / 3, 0.05)])
def test_beta_matches_geometric_closed_form(ratio, w):
    # untruncated: maps ratio^i and weights w (1 - w)^(i - 1) give
    # sum_i w^q (1 - w)^(q (i - 1)) ratio^(i t) = 1 in closed form; below the
    # finiteness threshold (theta > 2 at q <= -0.8 for w = 0.05) P is +inf
    system, family = Q.geometric_similarity_system(ratio), Q.geometric_weight_family(w)
    for q in [*np.linspace(-1.0, 2.0, 31), 0.25]:
        exact = -(math.log1p(((1 - w) / w) ** q) + q * math.log(w)) / math.log(ratio)
        beta = Q.beta_of_q(system, family, float(q))
        # relative to max(1, |beta|), as beta(1) = 0
        assert abs(beta - exact) <= 4e-15 * max(1.0, abs(exact))


def test_beta_monotone_convex(e1):
    system, family = e1
    curve = Q.temperature_curve(system, family)
    betas = np.asarray(curve.betas)
    assert np.all(np.diff(betas) < 0)
    assert np.diff(betas, 2).min() >= -1e-8  # convex up to rounding


# ---------------------------------------------------------------------------
# the fixed point


def test_qdim_e1_closed_form(e1):
    system, family = e1
    sol = Q.solve_quantization_dim(system, family, 2.0)
    assert sol.q_r == pytest.approx(math.log(2) / math.log(18), abs=1e-10)
    assert sol.kappa_r == pytest.approx(LOG23, abs=1e-8)
    # defining identity at the returned point: D_r = beta(q_r) / (1 - q_r) is kappa_r
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
    return Q.IfsSystem(domain=system.domain, alphabet=Q.FiniteAlphabet(maps))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_oriented_similarity_systems(), st.sampled_from(("log-weight", "derivative")),
       st.floats(0.25, 8.0), st.floats(0.0, 1.0), st.floats(0.2, 2.0),
       st.lists(st.integers(0, 7), min_size=1, max_size=3))
def test_operator_matches_closed_form(case, kind, r, q, s_exp, draws):
    weights, system = case
    family = (Q.log_weight_family(list(weights)) if kind == "log-weight"
              else Q.derivative_family(s_exp))
    branches = _as_branches(system)
    assert Q.is_multiplicative(system, family)
    assert not Q.is_multiplicative(branches, family)
    assert Q.beta_of_q(branches, family, q) == pytest.approx(
        Q.beta_of_q(system, family, q), abs=1e-12)
    try:
        kappa = Q.solve_quantization_dim(system, family, r).kappa_r
    except BracketError:
        # a derivative family with s + r below the dimension: g(1) = P(1, r) >= 0,
        # so g(q) = P(q, r q) has no root in (0, 1), by either route
        assert _pressure(system, family, 1.0, r) >= 0.0
        with pytest.raises(BracketError):
            Q.solve_quantization_dim(branches, family, r)
    else:
        assert Q.solve_quantization_dim(branches, family, r).kappa_r == pytest.approx(
            kappa, rel=1e-12)
    # cylinder masses of m_F and of the auxiliary measure at t = r q
    word = tuple(k % system.size + 1 for k in draws)
    for qq, t in ((1.0, 0.0), (q, r * q)):
        assert Q.cylinder_mass(branches, family, word, qq, t) == pytest.approx(
            Q.cylinder_mass(system, family, word, qq, t), rel=1e-12)


def _record_t(monkeypatch) -> tuple[list, list]:
    """Every t at which P is evaluated, in order: closed forms and dense
    eigenvalue solves (with or without the eigenvector) in the first list,
    eigenpair Newton steps in both."""
    ts, newton_ts = [], []
    closed = qdim.pressure._closed_form
    dense = qdim.pressure._operator_pressure
    pair = qdim.pressure._operator_pair
    step = qdim.pressure._operator_step

    def closed_rec(system, family, truncation):
        P = closed(system, family, truncation)

        def rec(q, t):
            ts.append(t)
            return P(q, t)
        return rec

    def dense_rec(parts, q, t):
        ts.append(t)
        return dense(parts, q, t)

    def pair_rec(parts, q, t):
        ts.append(t)
        return pair(parts, q, t)

    def step_rec(major, q, t, dq, dt, h):
        ts.append(t)
        newton_ts.append(t)
        return step(major, q, t, dq, dt, h)

    monkeypatch.setattr(qdim.pressure, "_closed_form", closed_rec)
    monkeypatch.setattr(qdim.pressure, "_operator_pressure", dense_rec)
    monkeypatch.setattr(qdim.pressure, "_operator_pair", pair_rec)
    monkeypatch.setattr(qdim.pressure, "_operator_step", step_rec)
    return ts, newton_ts


@pytest.mark.parametrize("name", ["e1", "gauss12", "e3", "geometric w=0.05",
                                  "gauss-full-M5 q=-1", "gauss-full-M5 q=2"])
def test_beta_evaluates_no_point_twice(name, request, monkeypatch):
    # the bracket walk and the regula falsi, with the Newton start disabled;
    # on full Gauss at s = 1 and M = 5 with Newton on, the cold start from
    # h = 1 leaves h > 0 at once and the bracket loop's Newton answers: P is
    # evaluated at no point twice, nor is a Newton step taken twice at one
    # point (a step at an evaluated point is the derivative there)
    q, M, newton = 0.4, None, False
    if name == "geometric w=0.05":
        # theta(-1) > 2, so P(-1, 2) = +inf: the first upper end becomes the lower one
        system, family = Q.geometric_similarity_system(1 / 3), Q.geometric_weight_family(0.05)
        q = -1.0
    elif name.startswith("gauss-full-M5"):
        system, family = Q.gauss_system(None), Q.derivative_family(1.0)
        q, M, newton = float(name.split("q=")[1]), 5, True
    else:
        system, family = request.getfixturevalue(name)
    if not newton:
        monkeypatch.setattr(qdim.pressure, "_eigen_newton", lambda *args: None)
    ts, newton_ts = _record_t(monkeypatch)
    sol = Q.solve_beta(system, family, q, M)
    values = list(ts)
    for t in newton_ts:
        values.remove(t)
    assert values and len(values) == len(set(values))
    assert len(newton_ts) == len(set(newton_ts)) and bool(newton_ts) == newton
    if newton:  # f = log|phi'| gives beta(q) = dim E_{1..5} - q
        assert sol.solver == "newton"
        assert abs(sol.beta - (0.836829443681208 - q)) <= 1e-14


@pytest.mark.parametrize("s_exp", [0.6, 0.531280506277205])
def test_beta_bracket_stays_at_small_t(s_exp, monkeypatch):
    # 32-node collocation drifts at large t on Gauss {1,2} (P(0.3, 25) is off
    # by 3), so no root solve on q in [0, 1] may evaluate P out there, and no
    # Newton iterate, cold or continued, may build the operator there
    system, family = Q.gauss_system((1, 2)), Q.derivative_family(s_exp)
    ts, newton_ts = _record_t(monkeypatch)
    curve = Q.temperature_curve(system, family)
    assert ts and max(ts) <= 4.0
    assert len(newton_ts) >= len(curve.qs) - 1 and max(newton_ts) <= 4.0
    if s_exp != 0.6:  # f = delta log|phi'| gives beta(q) = delta (1 - q)
        exact = s_exp * (1.0 - np.array(curve.qs))
        assert np.max(np.abs(np.array(curve.betas) - exact)) <= 1e-12


def test_operator_eigen_triple(gauss12):
    # L h = lambda h and nu L = lambda nu at the nodes, h > 0, lambda = e^{P(q, t)}
    system, family = gauss12
    parts = qdim.pressure._operator_parts(system, family, 2, qdim.pressure._NODES)
    F, D, E = parts[0].T, parts[1].T, parts[2].transpose(1, 0, 2)  # symbol-major
    for q, t in ((1.0, 0.0), (0.4, 0.9)):
        lam, h, nu, rho = qdim.pressure._operator_eigen(parts, q, t)
        L = np.einsum("ij,ijk->jk", np.exp(q * F + t * D), E)
        # rho: the second eigenvalue modulus over lambda
        moduli = np.sort(np.abs(np.linalg.eigvals(L)))
        assert moduli[-1] == pytest.approx(lam, rel=1e-13)
        assert rho == pytest.approx(moduli[-2] / lam, rel=1e-12) and 0.0 < rho < 1.0
        assert lam == pytest.approx(math.exp(Q.estimate_pressure(system, family, q, t).value),
                                    rel=1e-13)
        assert np.all(h > 0) and nu.sum() == pytest.approx(1.0) and nu @ h == pytest.approx(1.0)
        assert np.max(np.abs(L @ h - lam * h)) <= 1e-13 * np.max(h)
        assert np.max(np.abs(nu @ L - lam * nu)) <= 1e-13 * np.max(np.abs(nu))
    # the chain's step probabilities at the nodes sum to one
    lam, h, _, _ = qdim.pressure._operator_eigen(parts, 1.0, 0.0)
    probs = np.exp(F) * (E @ h) / (lam * h)
    assert np.max(np.abs(probs.sum(axis=0) - 1.0)) <= 1e-13


_OPERATOR_SYSTEMS = {
    "gauss12": (Q.gauss_system((1, 2)), Q.derivative_family(0.6), 2),
    "gauss15-g": (Q.gauss_system((1, 2, 3, 4, 5)),
                  Q.derivative_family(0.8, lambda x: -4.0 * x, g_sup=4.0), 5),
    "gauss-full-M7": (Q.gauss_system(None), Q.derivative_family(1.0), 7),
    "gauss-full-M645": (Q.gauss_system(None), Q.derivative_family(1.5), 645),
    "similarity3-sin": (Q.similarity_system([0.3, 0.2, 0.25], [0.0, 0.6, 0.75], [1, -1, 1]),
                        Q.derivative_family(0.6, lambda x: 0.8 * np.sin(3.0 * x), g_sup=0.8),
                        3),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_OPERATOR_SYSTEMS)), st.sampled_from([16, 32]),
       st.floats(-5.0, 5.0), st.floats(-5.0, 30.0))
def test_operator_matrix_matches_the_symbol_major_einsum(name, nodes, q, t):
    # the node-major parts give the matrix of the symbol-major formula, bit for bit
    system, family, M = _OPERATOR_SYSTEMS[name]
    parts = qdim.pressure._operator_parts(system, family, M, nodes)
    F, D, E = (np.ascontiguousarray(np.swapaxes(a, 0, 1)) for a in parts)  # F[i, j] = f_i(x_j)
    X = q * F + t * D
    s = float(X.max())
    want = np.einsum("ij,ijk->jk", np.exp(X - s), E)
    got_s, got = qdim.pressure._operator_matrix(parts, q, t)
    assert got_s == s and np.array_equal(got, want)


def test_newton_run_builds_its_direction_exponent_and_buffer_once(monkeypatch):
    # a cold beta(0) root on Gauss {1,2} takes 6 Newton steps: one exponent per
    # step, one for the direction (0, 1) before the first and one for the
    # certificate; every step gets the run's one exponent Y and buffer WV
    system, family = Q.gauss_system((1, 2)), Q.derivative_family(1.0)
    exponent, step = qdim.pressure._exponent, qdim.pressure._operator_step
    exponents, args = [], []

    def exponent_rec(*a):
        exponents.append(a)
        return exponent(*a)

    def step_rec(parts, q, t, Y, WV, h):
        args.append((parts, Y, WV))
        return step(parts, q, t, Y, WV, h)

    monkeypatch.setattr(qdim.pressure, "_exponent", exponent_rec)
    monkeypatch.setattr(qdim.pressure, "_operator_step", step_rec)
    sol = Q.solve_beta(system, family, 0.0)
    assert sol.solver == "newton" and len(args) == 6
    assert len(exponents) == len(args) + 2
    F, D, _ = parts = args[0][0]
    Y, WV = args[0][1], args[0][2]
    assert np.array_equal(Y, 0.0 * F + 1.0 * D) and WV.shape == (F.shape[0], 2, F.shape[1])
    assert all(a[0] is parts and a[1] is Y and a[2] is WV for a in args)


def _line_root_of(f):
    """(u, trace) of the bracket loop on the closed-form line u -> f(u)."""
    u, h, trace, solver = qdim.pressure._line_root(lambda q, t: f(t), None, 0.0, 0.0, 0.0,
                                                   1.0, (), 1e4, math.inf)
    assert h is None and solver == "closed_form"
    return u, trace


def test_root_finder_safeguards():
    # +inf at the left end makes the secant step NaN: the midpoint takes over
    x, trace = _line_root_of(lambda t: math.inf if t < 0.1 else 0.5 - t)
    assert x == pytest.approx(0.5, abs=1e-15) and abs(dict(trace)[x]) <= 1e-15
    assert len(trace) <= 10
    # a flat root stalls plain regula falsi; forced bisection bounds the steps
    x, trace = _line_root_of(lambda t: -(t - 0.3) ** 9)
    assert x == pytest.approx(0.3, abs=1e-15)
    assert len(trace) <= 4 * 64
    # no sign change, and a sign change without a root
    for f in (lambda t: 1.0, lambda t: 1.0 if t < 0.5 else -1.0):
        with pytest.raises(BracketError):
            _line_root_of(f)


def test_qdim_rejects_bad_order(e1):
    system, family = e1
    with pytest.raises(ValueError):
        Q.solve_quantization_dim(system, family, -1.0)


def test_single_map_truncation_degenerates(e3):
    system, family = e3
    with pytest.raises(DegenerateSystemError):
        Q.solve_quantization_dim(system, family, 2.0, truncation=1)


@pytest.mark.parametrize("rounding", [None, 1e-16])
def test_single_map_operator_truncation_degenerates(gauss_full, rounding, monkeypatch):
    # Gauss with M = 1 on the collocated operator: g(0) = P(0, 0) = 0, and the
    # cold Newton root is q = 0 up to rounding.  Were it to round positive,
    # it would pass the certificate, so the degeneracy probe comes first
    system, family = gauss_full
    if rounding is not None:
        newton = qdim.pressure._eigen_newton

        def rounded(*args):
            root = newton(*args)
            return root if root is None or abs(root.u) > 1e-12 else root._replace(u=rounding)

        monkeypatch.setattr(qdim.pressure, "_eigen_newton", rounded)
    with pytest.raises(DegenerateSystemError):
        Q.solve_quantization_dim(system, family, 2.0, truncation=1)
    sweep = Q.truncation_sweep(system, family, 2.0, [1, 2])
    assert sweep.entries[0].degenerate and sweep.entries[0].kappa == 0.0
    assert not sweep.entries[1].degenerate and sweep.entries[1].kappa > 0.0


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
        assert Q.hausdorff_dim(system, family) == pytest.approx(LOG23, abs=1e-14)


def test_hausdorff_equals_beta_zero(gauss12):
    system, family = gauss12
    d = Q.hausdorff_dim(system, family)
    b = Q.beta_of_q(system, family, 0.0)
    assert d == pytest.approx(b, abs=1e-12)


def test_hausdorff_continued_fraction_oracles():
    # Jenkinson-Pollicott: dim E_2 and dim E_{1..5}
    family = Q.derivative_family(1.0)
    assert abs(Q.hausdorff_dim(Q.gauss_system((1, 2)), family)
               - 0.531280506277205) <= 1e-13
    assert abs(Q.hausdorff_dim(Q.gauss_system((1, 2, 3, 4, 5)), family)
               - 0.836829443681208) <= 1e-12


def test_gauss_truncations_monotone_in_M(gauss_full):
    system, family = gauss_full
    dims = [Q.hausdorff_dim(system, family, truncation=M) for M in (5, 10, 20, 40)]
    assert all(a < b for a, b in zip(dims, dims[1:]))
    assert abs(dims[0] - 0.836829443681208) <= 1e-12


# ---------------------------------------------------------------------------
# the continued temperature curve


def _sin_family():
    return Q.derivative_family(0.6, lambda x: 0.8 * np.sin(3.0 * x), g_sup=0.8)


def _continuation_cases():
    g317, full = Q.gauss_system((3, 1, 7)), Q.gauss_system(None)
    return {
        "gauss12-dim": (Q.gauss_system((1, 2)), Q.derivative_family(0.531280506277205), None),
        "gauss12-0.6": (Q.gauss_system((1, 2)), Q.derivative_family(0.6), None),
        "gauss317-normalized": (g317, Q.normalize_pressure(Q.derivative_family(0.6), g317),
                                None),
        "gauss-full-M40-normalized": (
            full, Q.normalize_pressure(Q.derivative_family(0.75), full, truncation=40), 40),
        "gauss12-sin": (Q.gauss_system((1, 2)), _sin_family(), None),
    }


def _cold_starts(monkeypatch) -> list:
    """(q, dq) of every eigenpair Newton start from h = 1, in order."""
    cold = []
    newton = qdim.pressure._eigen_newton

    def recording(parts, q, t, dq, dt, h):
        if np.all(h == 1.0):
            cold.append((q, dq))
        return newton(parts, q, t, dq, dt, h)

    monkeypatch.setattr(qdim.pressure, "_eigen_newton", recording)
    return cold


@pytest.mark.parametrize("name", list(_continuation_cases()))
def test_continued_curve_matches_pointwise_beta(name, monkeypatch):
    # every point but the first comes from eigenpair Newton, certified; the
    # nonlinear cases need several steps per point
    system, family, M = _continuation_cases()[name]
    starts = _cold_starts(monkeypatch)
    curve = Q.temperature_curve(system, family, truncation=M)
    cold = [q for q, _ in starts]
    assert cold == [0.0]
    pointwise = [Q.solve_beta(system, family, q, M).beta for q in curve.qs]
    assert np.max(np.abs(np.array(curve.betas) - pointwise)) <= 1e-14


def test_failed_newton_falls_back_to_the_same_curve(gauss12, monkeypatch):
    system, family = gauss12
    continued = Q.temperature_curve(system, family)
    data = Q.legendre_and_figure_data(system, family, 2.0)
    monkeypatch.setattr(qdim.pressure, "_eigen_newton", lambda *args: None)
    cold = Q.temperature_curve(system, family)
    assert cold.betas == tuple(Q.beta_of_q(system, family, q) for q in cold.qs)
    assert np.max(np.abs(np.array(cold.betas) - continued.betas)) <= 1e-14
    cold_data = Q.legendre_and_figure_data(system, family, 2.0)
    assert cold_data.q_r == Q.solve_quantization_dim(system, family, 2.0).q_r
    assert abs(cold_data.q_r - data.q_r) <= 1e-14


def test_fixed_point_outside_its_cell_is_solved_cold(gauss12, monkeypatch):
    # figure1's fixed point is the cold solve's, from q = 0: a Newton root
    # along t = r q from any other start, here shifted by 0.1, is never read
    system, family = gauss12
    cold = Q.solve_quantization_dim(system, family, 2.0).q_r
    newton = qdim.pressure._eigen_newton

    def shifted(parts, q, t, dq, dt, h):
        root = newton(parts, q, t, dq, dt, h)
        return (root if dq == 0.0 or q == 0.0 or root is None
                else root._replace(u=root.u + 0.1))

    monkeypatch.setattr(qdim.pressure, "_eigen_newton", shifted)
    data = Q.legendre_and_figure_data(system, family, 2.0)
    assert data.q_r == Q.solve_quantization_dim(system, family, 2.0).q_r == cold


def test_newton_from_a_non_perron_vector_is_rejected(gauss12):
    # the second real eigenvalue of Gauss {1,2} at q = 0.4 is 1 near t = -1.85;
    # started there from its eigenvector, which changes sign, Newton gives up
    # at its first step (that eigenpair's leading eigenvalue gives P = 3.1, so
    # it would fail the certificate too)
    system, family = gauss12
    parts = qdim.pressure._operator_parts(system, family, 2, qdim.pressure._NODES)
    q, t = 0.4, -1.85
    F, D, E = parts[0].T, parts[1].T, parts[2].transpose(1, 0, 2)  # symbol-major
    ev, V = np.linalg.eig(np.einsum("ij,ijk->jk", np.exp(q * F + t * D), E))
    real = np.flatnonzero(ev.imag == 0.0)
    second = real[np.argsort(ev.real[real])[-2]]
    assert abs(ev.real[second] - 1.0) < 0.05
    newton = qdim.pressure._eigen_newton
    assert newton(parts, q, t, 0.0, 1.0, V[:, second].real) is None
    # a positive start near beta(q) converges to it instead
    beta = Q.beta_of_q(system, family, q)
    root = newton(parts, q, beta + 0.05, 0.0, 1.0, np.ones(F.shape[1]))
    assert abs(beta + 0.05 + root.u - beta) <= 1e-14 and np.all(root.h > 0.0)


def _beta_root(system, family, q, M):
    """(u, h, trace, solver) of the root loop as ``solve_beta`` runs it, with its h."""
    P = qdim.pressure
    return P._line_root(*P._pressure_callable(system, family, M), q, 0.0, 0.0, 1.0,
                        [(0.0, P._COLD_H, P._ANYWHERE)], 1e4, math.inf)


def _cold_cases():
    cases = dict(_continuation_cases())
    cases["gauss15-dim"] = (Q.gauss_system((1, 2, 3, 4, 5)),
                            Q.derivative_family(0.836829443681208), None)
    return cases


@pytest.mark.parametrize("name", list(_cold_cases()))
def test_cold_newton_matches_the_regula_falsi(name, monkeypatch):
    # every cold root first tries eigenpair Newton from h = 1; with Newton
    # disabled, the bracket walk and the regula falsi give the same roots
    system, family, M = _cold_cases()[name]
    rs = (0.5, 2.0, 3.0) if name != "gauss12-sin" else (2.0, 3.0)  # beta(1) > 0 there
    betas = {q: Q.solve_beta(system, family, q, M) for q in (-1.0, 0.0, 0.3, 2.0)}
    fixed = {r: Q.solve_quantization_dim(system, family, r, M) for r in rs}
    assert betas[0.0].solver == "newton"
    u, h, _, solver = _beta_root(system, family, 0.0, M)
    assert solver == "newton" and u == betas[0.0].beta and np.all(h > 0.0)
    assert all(sol.solver == "newton" and len(sol.trace) >= 2 for sol in fixed.values())
    monkeypatch.setattr(qdim.pressure, "_eigen_newton", lambda *args: None)
    for q, sol in betas.items():
        fallback = Q.solve_beta(system, family, q, M)
        assert fallback.solver == "regula_falsi"
        assert abs(sol.beta - fallback.beta) <= 1e-14
    for r, sol in fixed.items():
        fallback = Q.solve_quantization_dim(system, family, r, M)
        assert fallback.solver == "regula_falsi"
        assert abs(sol.kappa_r - fallback.kappa_r) <= 1e-14 * fallback.kappa_r


# sha256 of repr(trace) of the walk and the regula falsi, Newton off
_FALLBACK_TRACES = {-1.0: "2ad9bd29d31a8fdb08fb9702366a0543ffa470d3d8df6275f4f257d3ac4c52b2",
                    2.0: "28c83688fac980074864c2f83cf14decc0eb898ff189a6b8fe3957602bdaf546"}


@pytest.mark.parametrize("q", [-1.0, 2.0])
def test_failed_cold_start_is_answered_inside_the_bracket(q, monkeypatch):
    # Gauss M = 5 at s = 1: from h = 1 at t = 0, Newton leaves h > 0 at once.
    # With Newton off, the walk and the regula falsi give the pinned trace bit
    # for bit; with Newton on, Newton on P from the bracket's least |P| lands on
    # the same root with fewer dense solves, the failed start's step included
    system, family = Q.gauss_system(None), Q.derivative_family(1.0)
    u, h, _, solver = _beta_root(system, family, q, 5)
    counts = _count_dense_solves(monkeypatch)
    sol = Q.solve_beta(system, family, q, 5)
    newton_solves = sum(counts.values())
    counts.update(dict.fromkeys(counts, 0))
    monkeypatch.setattr(qdim.pressure, "_eigen_newton", lambda *args: None)
    fallback = Q.solve_beta(system, family, q, 5)
    assert fallback.solver == "regula_falsi"
    assert hashlib.sha256(repr(fallback.trace).encode()).hexdigest() == _FALLBACK_TRACES[q]
    assert sol.solver == solver == "newton" and u == sol.beta and np.all(h > 0.0)
    assert abs(sol.beta - fallback.beta) <= 1e-14
    assert newton_solves < sum(counts.values())


def _fallback_cases():
    g12, full = Q.gauss_system((1, 2)), Q.gauss_system(None)
    return {
        "gauss12-0.6-normalized": (g12, Q.normalize_pressure(Q.derivative_family(0.6), g12),
                                   None),
        "gauss15-0.8": (Q.gauss_system((1, 2, 3, 4, 5)), Q.derivative_family(0.8), None),
        "gauss-full-M40-0.75-normalized": (
            full, Q.normalize_pressure(Q.derivative_family(0.75), full, truncation=40), 40),
        "gauss-full-M645-1.5": (full, Q.derivative_family(1.5), 645),
    }


def _count_dense_solves(monkeypatch) -> dict:
    """Calls of the eigenvalue solves (with or without the eigenvector), the
    eigendecomposition and the Newton step."""
    counts = dict.fromkeys(("eigenvalue", "eigendecomposition", "step"), 0)
    for name, kind in (("_operator_pressure", "eigenvalue"), ("_operator_pair", "eigenvalue"),
                       ("_operator_eigen", "eigendecomposition"), ("_operator_step", "step")):
        fn = getattr(qdim.pressure, name)

        def counting(*args, kind=kind, fn=fn):
            counts[kind] += 1
            return fn(*args)

        monkeypatch.setattr(qdim.pressure, name, counting)
    return counts


# dense solves before the bracketed loop, when a failed start was answered
# by a walk restarted from u = 0 and the regula falsi alone: per cold root,
# and the walk's total; by kind, cold (56, 0, 152), (151, 0, 117),
# (237, 0, 99), (327, 0, 83) and walk (36, 1, 78), (35, 1, 31), (37, 1, 103),
# (42, 1, 32)
_DENSE_SOLVES_BEFORE = {
    "gauss12-0.6-normalized": ("12 12 12 9 9 8 8 8 8 8 7 7 7 6 6 3 6 6 7 7 8 8 8 9 9 10", 115),
    "gauss15-0.8": ("11 11 12 11 10 12 12 10 9 9 9 8 8 7 6 5 6 7 8 9 10 13 16 19 15 15", 67),
    "gauss-full-M40-0.75-normalized": (
        "13 12 13 13 12 12 16 15 15 12 11 10 9 8 7 3 8 10 17 20 13 18 18 18 18 15", 141),
    "gauss-full-M645-1.5": (
        "18 20 15 16 16 13 13 19 20 17 14 11 8 6 8 12 14 19 19 17 18 19 17 16 22 23", 75),
}


# ceilings (eigenvalue solves, eigendecompositions, Newton steps): the bracket
# loop's counts.  Its Newton steps replace more of the regula falsi's
# eigenvalue solves than they add, so the step ceilings lie above the counts
# before while no cold root and no total takes more dense solves
@pytest.mark.parametrize("name, cold_ceiling, walk_ceiling", [
    ("gauss12-0.6-normalized", (32, 0, 167), (28, 0, 83)),
    ("gauss15-0.8", (62, 0, 176), (29, 0, 36)),
    ("gauss-full-M40-0.75-normalized", (79, 0, 197), (29, 0, 109)),
    ("gauss-full-M645-1.5", (94, 0, 200), (29, 0, 35)),
])
def test_fallback_grid_dense_solves_under_their_ceilings(name, cold_ceiling, walk_ceiling,
                                                        monkeypatch):
    # on q = -2, -1.8, ..., 3 the cold start from h = 1 at t = 0 fails at 3
    # to 20 of the 26 points, where beta(q) is far from 0, and the bracket
    # loop answers; the roots stay those of the regula falsi
    system, family, M = _fallback_cases()[name]
    qs = [float(q) for q in np.round(np.linspace(-2.0, 3.0, 26), 1)]
    before, walk_before = _DENSE_SOLVES_BEFORE[name]
    counts = _count_dense_solves(monkeypatch)
    cold, per_root = [], []
    for q in qs:
        solved = sum(counts.values())
        cold.append(Q.solve_beta(system, family, q, M).beta)
        per_root.append(sum(counts.values()) - solved)
    assert all(n <= c for n, c in zip(counts.values(), cold_ceiling))
    assert all(n <= b for n, b in zip(per_root, map(int, before.split())))
    assert sum(per_root) < sum(map(int, before.split()))
    counts.update(dict.fromkeys(counts, 0))
    walk = Q.temperature_curve(system, family, qs, M).betas
    assert all(n <= c for n, c in zip(counts.values(), walk_ceiling))
    assert sum(counts.values()) < walk_before
    monkeypatch.setattr(qdim.pressure, "_eigen_newton", lambda *args: None)
    bracketed = [Q.solve_beta(system, family, q, M).beta for q in qs]
    assert np.max(np.abs(np.subtract(cold, bracketed))) <= 1e-14
    assert np.max(np.abs(np.subtract(walk, bracketed))) <= 1e-14


def test_a_failed_bracket_run_stays_in_the_trace(monkeypatch):
    # Gauss M = 5 at s = 1, q = -1: the cold start takes one step and leaves
    # h > 0; with a budget of two steps the bracket's Newton run on P cannot
    # converge either, and the regula falsi answers.  The trace keeps that
    # run's two steps, one entry per dense solve after the cold start's
    system, family = Q.gauss_system(None), Q.derivative_family(1.0)
    monkeypatch.setattr(qdim.pressure, "_NEWTON_STEPS", 2)
    counts = _count_dense_solves(monkeypatch)
    sol = Q.solve_beta(system, family, -1.0, 5)
    assert sol.solver == "regula_falsi" and counts["step"] == 3
    assert len(sol.trace) == sum(counts.values()) - 1
    assert abs(sol.beta - (0.836829443681208 + 1.0)) <= 1e-14


@pytest.mark.parametrize("r", [1e4, 1e6, 1e7])
def test_qdim_e2_at_large_order(e2, r):
    # q_r ~ 6e-7 at r = 1e6 lies below 1e-6, and r (1 - 1e-6) is far past beta
    system, family = e2
    q_oracle = brentq(lambda q: math.log(0.7 ** q + 0.3 ** q) - r * q * math.log(3),
                      0.0, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    sol = Q.solve_quantization_dim(system, family, r)
    assert sol.solver == "closed_form"
    assert sol.q_r == pytest.approx(q_oracle, rel=1e-12)
    assert sol.kappa_r == pytest.approx(r * q_oracle / (1.0 - q_oracle), rel=1e-12)


@pytest.mark.parametrize("r, limit, rel", [
    (1e20, LOG23, 1e-14), (1e100, LOG23, 1e-14), (1e-7, 0.5560326498763891, 1e-6),
])
def test_qdim_e2_at_extreme_orders(e2, r, limit, rel):
    # kappa_r -> beta(0) = log 2 / log 3 as r -> inf, and -> alpha(1) =
    # -(0.7 log 0.7 + 0.3 log 0.3) / log 3 as r -> 0.  At r = 1e20 the bracket
    # [0, 2 / r] is narrower than 2 ulp(1e-3), so the regula falsi narrows past
    # that width until the residual is met; at r = 1e-7, q_r = 1 - 1.8e-7 lies
    # past 1 - 1e-6, so the walk halves 1 - q on
    system, family = e2
    q_oracle = brentq(lambda q: math.log(0.7 ** q + 0.3 ** q) - r * q * math.log(3),
                      0.0, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    sol = Q.solve_quantization_dim(system, family, r)
    assert sol.solver == "closed_form"
    assert sol.kappa_r == pytest.approx(r * q_oracle / (1.0 - q_oracle), rel=1e-8)
    assert sol.kappa_r == pytest.approx(limit, rel=rel)


@pytest.mark.parametrize("name", list(_continuation_cases()))
def test_figure_fixed_point_matches_the_cold_solve(name):
    system, family, M = _continuation_cases()[name]
    rs = (0.7, 2.0, 3.0) if name != "gauss12-sin" else (2.0, 3.0)  # beta(1) > 0 there
    for r in rs:
        data = Q.legendre_and_figure_data(system, family, r, truncation=M)
        assert data.q_r == Q.solve_quantization_dim(system, family, r, M).q_r


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
        vals = [_pressure(system, family, q, t, truncation=30)
                for t in np.linspace(0.0, 2.0, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    gsystem, gfamily = gauss12
    vals = [_pressure(gsystem, gfamily, 0.3, t) for t in np.linspace(0.0, 2.0, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_truncated_pressure_monotone_in_M(e3):
    system, family = e3
    for q, t in [(0.0, 0.7), (0.5, 0.3), (1.0, 0.1)]:
        vals = [_pressure(system, family, q, t, truncation=M) for M in (2, 3, 5, 9)]
        full = _pressure(system, family, q, t)
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= full + 1e-14


def test_truncated_pressure_monotone_gauss():
    family = Q.derivative_family(0.6)
    p2 = _pressure(Q.gauss_system((1, 2)), family, 0.2, 0.8)
    p3 = _pressure(Q.gauss_system((1, 2, 3)), family, 0.2, 0.8)
    assert p2 <= p3 + 1e-14
