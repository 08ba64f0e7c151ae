import math

import numpy as np
import pytest

import qdim as Q
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


def test_surrogate_sampler_stays_on_attractor(gauss12):
    system, _ = gauss12
    family = Q.normalize_pressure(Q.derivative_family(0.6), system)
    sample = Q.sample_measure(system, family, 1500, depth=40, seed=3)
    # attractor hull of the {1,2} branches: [(sqrt3-1)/2, (sqrt3+... numerically
    left = (math.sqrt(3) - 1) / 2
    right = 1 / (1 + left)
    assert sample.points.min() >= left - 1e-9
    assert sample.points.max() <= right + 1e-9
    assert sample.bias_bound == pytest.approx(Q.ratio_bound(family, system))
    # symbol-1 cylinder frequency against the conformal mass bracket, C-widened
    m1 = Q.cylinder_mass(system, family, (1,))
    norm = m1.midpoint / (m1.midpoint + Q.cylinder_mass(system, family, (2,)).midpoint)
    cut = 1 / (1 + right)  # points above this lie in the branch-1 cylinder
    freq = float(np.mean(sample.points >= cut))
    C = sample.bias_bound
    assert norm / C ** 2 - 0.05 <= freq <= min(1.0, norm * C ** 2 + 0.05)


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
