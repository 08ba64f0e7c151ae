import math

import numpy as np
import pytest

import qdim as Q
import qdim.pressure
from qdim.errors import NumericalFailure


# ---------------------------------------------------------------------------
# cylinder masses


def test_cylinder_mass_exact_constant(e1, e3):
    system, family = e1
    m = Q.cylinder_mass(system, family, (1, 2))
    assert m.lower == pytest.approx(0.25, abs=1e-15)
    assert m.upper == pytest.approx(0.25, abs=1e-15)
    system3, family3 = e3
    m3 = Q.cylinder_mass(system3, family3, (2,))
    assert m3.midpoint == pytest.approx(0.25, abs=1e-15)


def test_cylinder_mass_mq_fixed_point(e1):
    # closed form: (p_1 * s_1^2)^{q_r} = (1/18)^{log2/log18} = 1/2
    system, family = e1
    q_r = math.log(2) / math.log(18)
    m = Q.cylinder_mass(system, family, (1,), mode="mq", q=q_r, r=2.0)
    assert m.lower == pytest.approx(0.5, rel=1e-10)
    assert m.upper == pytest.approx(0.5, rel=1e-10)


def test_mq_masses_sum_to_one_at_fixed_point(e1, e3):
    for system, family in (e1, e3):
        sol = Q.solve_quantization_dim(system, family, 2.0)
        total = sum(
            Q.cylinder_mass(system, family, (i,), mode="mq", q=sol.q_r, r=2.0).midpoint
            for i in range(1, 30)
            if system.size is None or i <= system.size
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_mq_mode_validates_parameters(e1):
    system, family = e1
    with pytest.raises(ValueError):
        Q.cylinder_mass(system, family, (1,), mode="mq", q=1.5, r=2.0)
    with pytest.raises(ValueError):
        Q.cylinder_mass(system, family, (1,), mode="bogus")


def test_cylinder_additivity_bracket(e3):
    system, family = e3
    M = 20
    deficit = 0.5 ** M  # sum_{i > M} p_i of the ratio-1/2 geometric weights
    for word in [(1,), (2, 1), (3,)]:
        parent = Q.cylinder_mass(system, family, word).midpoint
        children = sum(Q.cylinder_mass(system, family, word + (i,)).midpoint
                       for i in range(1, M + 1))
        assert parent * (1 - deficit) - 1e-12 <= children <= parent + 1e-12


def test_cylinder_mass_bracket_ratio_bound(gauss12):
    system, _ = gauss12
    family = Q.derivative_family(0.6)
    C = Q.ratio_bound(family, system)
    for word in [(1,), (2, 1), (1, 2, 2)]:
        m = Q.cylinder_mass(system, family, word)
        assert 0 <= m.lower <= m.upper
        assert m.upper / m.lower <= C * C * (1 + 1e-9)


def test_cylinder_additivity_analytic(gauss12):
    # child masses recombine to the parent within the ratio-constant bracket
    system, _ = gauss12
    family = Q.derivative_family(0.6)
    C = Q.ratio_bound(family, system)
    for word in [(1,), (2,), (1, 2)]:
        parent = Q.cylinder_mass(system, family, word).midpoint
        children = sum(Q.cylinder_mass(system, family, word + (i,)).midpoint
                       for i in (1, 2))
        assert parent / C ** 2 - 1e-12 <= children <= parent * C ** 2 + 1e-12


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


def _node_quadrature(system, family):
    """(lambda, nu, F, nodes): nu integrates node values against the conformal measure."""
    parts = qdim.pressure._operator_parts(system, family, system.size, qdim.pressure._NODES)
    lam, _, nu = qdim.pressure._operator_eigen(parts)
    x, _ = qdim.pressure._chebyshev_nodes(system.domain, qdim.pressure._NODES)
    return lam, nu, parts[0], x


def test_chain_sampler_matches_branch_mass(gauss12):
    system, _ = gauss12
    family = Q.normalize_pressure(Q.derivative_family(0.6), system)
    sample = Q.sample_measure(system, family, 1500, depth=40, seed=3)
    # attractor hull of the {1,2} branches: [[0; 2, 1, 2, 1, ...], [0; 1, 2, 1, 2, ...]]
    left = (math.sqrt(3) - 1) / 2
    right = 1 / (1 + left)
    assert sample.points.min() >= left - 1e-9
    assert sample.points.max() <= right + 1e-9
    # symbol-1 cylinder frequency against its exact conformal mass
    # m(phi_1 X) = int e^{f_1} dm / lambda, integrated by the node quadrature
    lam, nu, F, _ = _node_quadrature(system, family)
    mass = float(nu @ np.exp(F[0])) / lam
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
    _, nu, _, x = _node_quadrature(system, family)
    sample = Q.sample_measure(system, family, count, seed=1)
    for g in (lambda v: v, lambda v: v * v, lambda v: np.cos(2 * np.pi * v)):
        vals = g(sample.points)
        z = (vals.mean() - nu @ g(x)) / (vals.std() / math.sqrt(vals.size))
        assert abs(z) <= 4.0


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
