import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdim as Q
import qdim.measure
import qdim.pressure
from qdim.errors import NumericalFailure


# ---------------------------------------------------------------------------
# cylinder masses


def test_cylinder_mass_exact_constant(e1, e3):
    system, family = e1
    assert Q.cylinder_mass(system, family, (1, 2)) == pytest.approx(0.25, abs=1e-15)
    system3, family3 = e3
    assert Q.cylinder_mass(system3, family3, (2,)) == pytest.approx(0.25, abs=1e-15)


def test_cylinder_mass_mq_fixed_point(e1):
    # closed form: (p_1 * s_1^2)^{q_r} = (1/18)^{log2/log18} = 1/2
    system, family = e1
    q_r = math.log(2) / math.log(18)
    m = Q.cylinder_mass(system, family, (1,), q=q_r, t=2.0 * q_r)
    assert m == pytest.approx(0.5, rel=1e-10)


def test_mq_masses_sum_to_one_at_fixed_point(e1, e3):
    for system, family in (e1, e3):
        sol = Q.solve_quantization_dim(system, family, 2.0)
        total = sum(
            Q.cylinder_mass(system, family, (i,), q=sol.q_r, t=2.0 * sol.q_r)
            for i in range(1, 30)
            if system.size is None or i <= system.size
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_cylinder_mass_needs_truncation(gauss_full):
    system, family = gauss_full
    # no closed form: the operator of an infinite alphabet needs a truncation
    with pytest.raises(ValueError, match="needs a truncation"):
        Q.cylinder_mass(system, family, (1,))
    with pytest.raises(ValueError, match="beyond the truncation"):
        Q.cylinder_mass(system, family, (1, 6), truncation=5)
    assert Q.cylinder_mass(system, family, ()) == 1.0


def test_cylinder_additivity_bracket(e3):
    system, family = e3
    M = 20
    deficit = 0.5 ** M  # sum_{i > M} p_i of the ratio-1/2 geometric weights
    for word in [(1,), (2, 1), (3,)]:
        parent = Q.cylinder_mass(system, family, word)
        children = sum(Q.cylinder_mass(system, family, word + (i,))
                       for i in range(1, M + 1))
        assert parent * (1 - deficit) - 1e-12 <= children <= parent + 1e-12


def _gauss12_measures(r=1.5):
    """Gauss {1,2} at s = 0.6 (lambda = 0.917, not normalized): m_F at (1, 0)
    and the auxiliary measure at (q_r, r q_r)."""
    system, family = Q.gauss_system((1, 2)), Q.derivative_family(0.6)
    q_r = Q.solve_quantization_dim(system, family, r).q_r
    return system, family, ((1.0, 0.0), (q_r, r * q_r))


def test_cylinder_masses_sum_to_one():
    system, family, pairs = _gauss12_measures()
    for q, t in pairs:
        total = sum(Q.cylinder_mass(system, family, (i,), q, t) for i in (1, 2))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_cylinder_additivity_analytic():
    # child masses recombine to the parent: the masses are exact, not bracketed
    system, family, pairs = _gauss12_measures()
    for q, t in pairs:
        for word in [(1,), (2,), (1, 2)]:
            parent = Q.cylinder_mass(system, family, word, q, t)
            children = sum(Q.cylinder_mass(system, family, word + (i,), q, t)
                           for i in (1, 2))
            assert children == pytest.approx(parent, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_sample_mean_and_determinism(e1):
    system, family = e1
    a = Q.sample_measure(system, family, 100_000, seed=42)
    b = Q.sample_measure(system, family, 100_000, seed=42)
    assert np.array_equal(a.points, b.points)
    # Cantor measure: mean 1/2, variance 1/8
    sigma = math.sqrt(0.125 / len(a))
    assert abs(a.points.mean() - 0.5) <= 3 * sigma


def test_sample_cylinder_frequency(e1):
    system, family = e1
    sample = Q.sample_measure(system, family, 100_000, seed=9)
    lo, hi = Q.cylinder_interval(system, (1, 2))
    freq = np.mean((sample.points >= lo - 1e-12) & (sample.points <= hi + 1e-12))
    sigma = math.sqrt(0.25 * 0.75 / len(sample))
    assert abs(freq - 0.25) <= 3 * sigma


def test_sample_truncation_deficit_guard(e3):
    system, family = e3
    with pytest.raises(NumericalFailure):
        Q.sample_measure(system, family, 100, truncation=4)
    sample = Q.sample_measure(system, family, 100, truncation=4, allow_deficit=True)
    assert sample.deficit == pytest.approx(2.0 ** -4)
    auto = Q.sample_measure(system, family, 100, seed=1)
    assert auto.deficit <= 1e-6


def test_sample_depth_default_resolves_cylinders(e1):
    system, family = e1
    sample = Q.sample_measure(system, family, 10, seed=0)
    assert system.s ** sample.depth <= 1e-11


@pytest.mark.parametrize("rho, depth", [(0.0, 1), (0.5, 40), (1e-300, 1)])
def test_gap_depth_rule(rho, depth):
    assert qdim.measure._gap_depth(rho) == depth
    assert rho ** depth <= qdim.measure._LAW_TOL < rho ** (depth - 1)


@pytest.mark.parametrize("rho", [1.0, 1.5, math.inf, math.nan])
def test_gap_depth_rejects_a_chain_that_does_not_mix(rho):
    with pytest.raises(NumericalFailure, match="does not mix"):
        qdim.measure._gap_depth(rho)


def _node_quadrature(system, family):
    """(nu, nodes): nu integrates node values against the conformal measure."""
    parts = qdim.pressure._operator_parts(system, family, system.size, qdim.pressure._NODES)
    _, _, nu, _ = qdim.pressure._operator_eigen(parts, 1.0, 0.0)
    x, _ = qdim.pressure._chebyshev_nodes(system.domain, qdim.pressure._NODES)
    return nu, x


def test_chain_sampler_matches_branch_mass(gauss12):
    system, _ = gauss12
    family = Q.normalize_pressure(Q.derivative_family(0.6), system)
    sample = Q.sample_measure(system, family, 1500, depth=40, seed=3)
    assert sample.depth == 40  # an explicit depth is used as given
    # attractor hull of the {1,2} branches: [[0; 2, 1, 2, 1, ...], [0; 1, 2, 1, 2, ...]]
    left = (math.sqrt(3) - 1) / 2
    right = 1 / (1 + left)
    assert sample.points.min() >= left - 1e-9
    assert sample.points.max() <= right + 1e-9
    # symbol-1 cylinder frequency against its exact conformal mass
    mass = Q.cylinder_mass(system, family, (1,))
    cut = 1 / (1 + right)  # points above this lie in the branch-1 cylinder
    freq = float(np.mean(sample.points >= cut))
    assert abs(freq - mass) <= 4 * math.sqrt(mass * (1 - mass) / len(sample))


@pytest.mark.parametrize("symbols, s_exp, count", [
    ((1, 2), 0.531280506277205, 40_000),              # s = dim E_2: normalized
    ((1, 2, 3, 4, 5), 0.836829443681208, 20_000),     # s = dim E_{1..5}: normalized
    ((1, 2), 0.6, 40_000),                            # lambda = 0.917: self-normalized
], ids=["gauss12-dim", "gauss15-dim", "gauss12-raw"])
def test_chain_moments_match_node_quadrature(symbols, s_exp, count):
    system, family = Q.gauss_system(symbols), Q.derivative_family(s_exp)
    nu, x = _node_quadrature(system, family)
    sample = Q.sample_measure(system, family, count, seed=1)
    for g in (lambda v: v, lambda v: v * v, lambda v: np.cos(2 * np.pi * v)):
        vals = g(sample.points)
        z = (vals.mean() - nu @ g(x)) / (vals.std() / math.sqrt(vals.size))
        assert abs(z) <= 4.0


@pytest.mark.parametrize("symbols, M, s_exp", [
    ((1, 2), None, 0.531280506277205),
    ((1, 2, 3, 4, 5), None, 0.836829443681208),
    ((1, 2), None, 0.6),
    (None, 40, 1.0),
    (None, 40, 0.75),
    (None, 320, 1.0),
    (None, 20, 2.0),
], ids=["gauss12-dim", "gauss15-dim", "gauss12-raw", "gauss40-s1", "gauss40-s075",
        "gauss320-s1", "gauss20-s2"])
def test_chain_law_at_default_depth(symbols, M, s_exp):
    # the chain's law after n steps from the midpoint, E g(Y_n) = (Q^n g)(mid) with
    # Q = sum_i diag(p_i) E_i, is within 1e-12 of the Gibbs state's nu . (h g)
    system, family = Q.gauss_system(symbols), Q.derivative_family(s_exp)
    parts = qdim.pressure._operator_parts(system, family, M or system.size,
                                          qdim.pressure._NODES)
    F, _, E = parts
    lam, h, nu, rho = qdim.pressure._operator_eigen(parts, 1.0, 0.0)
    depth = Q.sample_measure(system, family, 1, truncation=M, allow_deficit=True).depth
    assert depth == qdim.measure._gap_depth(rho)
    probs = np.exp(F) * (E @ h) / (lam * h)
    chain = np.einsum("ij,ijk->jk", probs, E)
    x, w = qdim.pressure._chebyshev_nodes(system.domain, qdim.pressure._NODES)
    at_mid = qdim.pressure._barycentric_terms(x, w, np.array([system.midpoint]))[0]
    law = at_mid / at_mid.sum() @ np.linalg.matrix_power(chain, depth)
    for g in (lambda v: v, lambda v: v * v, lambda v: np.cos(7 * v),
              lambda v: np.cos(2 * np.pi * v)):
        assert abs(law @ g(x) - nu @ (h * g(x))) <= 1e-12


def test_chain_matches_self_similar_moments():
    # a derivative family on similarity maps is self-similar with p_i = r_i / sum r:
    # X = e_i r_i X + o_i gives E X and E X^2 in closed form
    system = Q.similarity_system([0.2, 0.5], [0.0, 1.0], [1, -1])
    r, o, e = np.array([0.2, 0.5]), np.array([0.0, 1.0]), np.array([1.0, -1.0])
    p = r / r.sum()
    m1 = (p @ o) / (1 - p @ (e * r))
    m2 = (p @ (2 * e * r * o * m1 + o * o)) / (1 - p @ (r * r))
    x = Q.sample_measure(system, Q.derivative_family(1.0), 20_000, seed=2).points
    for vals, exact in ((x, m1), (x * x, m2)):
        assert abs(vals.mean() - exact) <= 4 * vals.std() / math.sqrt(vals.size)


def test_chain_sampler_deterministic_on_hull():
    system, family = Q.gauss_system((1, 2, 3, 4, 5)), Q.derivative_family(0.8)
    a = Q.sample_measure(system, family, 5000, seed=11)
    b = Q.sample_measure(system, family, 5000, seed=11)
    assert a.points.tobytes() == b.points.tobytes()
    assert not np.array_equal(a.points, Q.sample_measure(system, family, 5000, seed=12).points)
    # the attractor of {1..5} spans [a, 1/(1+a)], a = [0; 5, 1, 5, 1, ...]
    # solving a = 1/(5 + 1/(1 + a)), i.e. 5a^2 + 5a - 1 = 0
    left = (math.sqrt(45) - 5) / 10
    assert a.points.min() >= left - 1e-9
    assert a.points.max() <= 1 / (1 + left) + 1e-9


def _weights(M):
    return st.lists(st.floats(1e-6, 1.0), min_size=M, max_size=M)


_TABLES = st.one_of(
    st.sampled_from([2, 3, 20]).flatmap(_weights),
    st.just([0.5 ** i for i in range(1, 701)]),  # geometric: few entries reachable
    st.just([1.0] * 256),                          # flat: more than _REACH reachable
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_TABLES, st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 30))
def test_symbol_draws_match_choice(weights, seed, n, depth):
    probs = np.array(weights) / math.fsum(weights)
    cdf = qdim.measure._symbol_cdf(probs)
    idx = qdim.measure._draw_symbols(np.random.default_rng(seed), cdf, (n, depth))
    u = np.random.default_rng(seed).random((n, depth))
    assert np.array_equal(idx, np.searchsorted(cdf, u, side="right"))
    assert np.array_equal(idx, np.random.default_rng(seed).choice(
        len(weights), size=(n, depth), p=probs))


def test_symbol_draws_cover_both_sides_of_the_reach():
    rng = np.random.default_rng(0)
    geometric = qdim.measure._symbol_cdf(np.array([0.5 ** i for i in range(1, 701)]) /
                                         (1 - 0.5 ** 700))
    flat = qdim.measure._symbol_cdf(np.full(256, 1 / 256))
    # counted below the reach constant, binary-searched above it
    assert qdim.measure._draw_symbols(rng, geometric, (1000, 26)).dtype == np.uint8
    assert qdim.measure._draw_symbols(rng, flat, (1000, 26)).dtype == np.intp


@pytest.mark.parametrize("probs", [[math.nan, 1.0], [-0.5, 1.5], [0.3, 0.3]],
                         ids=["nan", "negative", "not-normalized"])
def test_symbol_cdf_keeps_the_choice_checks(probs):
    with pytest.raises(ValueError) as choice_error:
        np.random.default_rng(0).choice(2, p=probs)
    with pytest.raises(ValueError) as cdf_error:
        qdim.measure._symbol_cdf(np.array(probs))
    assert str(choice_error.value).startswith(str(cdf_error.value))


# sha256 of sample_measure(...).points.tobytes(): the sample streams are part of
# every verify report, so a kernel rewrite must reproduce them bit for bit
_STREAM_SYSTEMS = {
    "e2": (Q.similarity_system([1 / 3, 1 / 3], [0.0, 2 / 3]),
           Q.log_weight_family([0.7, 0.3])),
    "e3": (Q.geometric_similarity_system(1 / 3), Q.geometric_weight_family(0.5)),
    "reversed": (Q.similarity_system([0.3, 0.2, 0.25], [0.0, 0.6, 0.75], [1, -1, 1]),
                 Q.log_weight_family([0.5, 0.2, 0.3])),
    "gauss-constant": (Q.gauss_system((1, 2, 3)), Q.log_weight_family([0.5, 0.3, 0.2])),
    "gauss15-chain": (Q.gauss_system((1, 2, 3, 4, 5)),
                      Q.derivative_family(0.836829443681208)),
}


@pytest.mark.parametrize("name, count, kwargs, digest", [
    ("e2", 70_000, {"seed": 5},  # two chunks, the second partial
     "2043a595c1f292bf7d8d99737d9d76924d1d1cd00e4685922511688fa61e243d"),
    ("e3", 5000, {"seed": 6},  # the automatic truncation, M = 20
     "5d29e619a8eb6c01b962c718374a0fefb2214a4f3ed0e60013e69b4f1d780938"),
    ("e3", 5000, {"seed": 6, "truncation": 700},  # ratios underflow past i ~ 678
     "ea1fc08b6d94bd2a4b6da934a67325b123caa48e0574bda919ca53fa0320dbe9"),
    ("reversed", 20_000, {"seed": 8},
     "76c7c907aba65b437f67b4824975b794fc8c729eeffca58fc2601b00cc120dc1"),
    ("gauss-constant", 5000, {"seed": 2},  # constant weights on non-affine maps
     "16722ac4c81ea15d37d2bdafefdbf477e3b3335a0ace4594156e54f90645c157"),
    ("gauss15-chain", 3000, {"seed": 3},
     "baf22633e6f78a53a11a75089804f3f86c5a4c8f45158c265d06155bfc10fa54"),
], ids=["e2-two-chunks", "e3-auto", "e3-m700", "reversed-map", "gauss-constant",
        "gauss15-chain"])
def test_sample_streams_pinned(name, count, kwargs, digest):
    sample = Q.sample_measure(*_STREAM_SYSTEMS[name], count, **kwargs)
    assert hashlib.sha256(sample.points.tobytes()).hexdigest() == digest


def test_sample_roundtrip(tmp_path, e1):
    system, family = e1
    sample = Q.sample_measure(system, family, 500, seed=5)
    path = tmp_path / "points.csv"
    Q.save_sample(sample, path)
    back = Q.load_sample(path)
    assert np.array_equal(back.points, sample.points)
    assert back.seed == sample.seed and back.depth == sample.depth


# ---------------------------------------------------------------------------
# the minimal metric


def test_wasserstein_identity_and_point_masses():
    a = np.array([0.1, 0.5, 0.9])
    assert Q.wasserstein_1d(2.0, a, a) == 0.0
    zeros, ones = np.zeros(50), np.ones(50)
    for r in (0.5, 1.0, 2.0, 3.0):
        assert Q.wasserstein_1d(r, zeros, ones) == pytest.approx(1.0)


def test_wasserstein_sorted_coupling():
    a = np.array([0.0, 1.0])
    b = np.array([0.25, 0.75])
    assert Q.wasserstein_1d(2.0, a, b) == pytest.approx(0.25)


def test_wasserstein_metric_axioms():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        z = rng.normal(size=64)
        for r in (1.0, 2.0):
            dxy = Q.wasserstein_1d(r, x, y)
            dyx = Q.wasserstein_1d(r, y, x)
            dxz = Q.wasserstein_1d(r, x, z)
            dzy = Q.wasserstein_1d(r, z, y)
            assert dxy == pytest.approx(dyx, rel=1e-12)
            assert dxy <= dxz + dzy + 1e-12


def test_wasserstein_unequal_sizes():
    a = np.linspace(0, 1, 100)
    b = np.linspace(0, 1, 37)
    assert Q.wasserstein_1d(2.0, a, b) <= 0.05
    with pytest.raises(ValueError):
        Q.wasserstein_1d(2.0, a, np.array([]))


def test_weak_convergence_smoke(e3):
    # truncations approach the full measure in the minimal metric
    system, family = e3
    N = 8000
    ref = Q.sample_measure(system, family, N, seed=77)
    rho2 = Q.wasserstein_1d(2.0, Q.sample_measure(system, family, N, truncation=2,
                                                  seed=7, allow_deficit=True), ref)
    rho8 = Q.wasserstein_1d(2.0, Q.sample_measure(system, family, N, truncation=8,
                                                  seed=7, allow_deficit=True), ref)
    assert rho8 < rho2
