import math

import numpy as np
import pytest

import qdim as Q
from qdim.errors import NonSummableError
from qdim.potentials import _tail_exp_sum


def test_birkhoff_constant_weights(e1):
    system, family = e1
    for word in [(1, 1, 2), (2, 2, 2), (1, 2, 1)]:
        s = Q.birkhoff_sum(family, system, word, 0.1)
        assert s == pytest.approx(-3 * math.log(2), abs=1e-14)


def test_birkhoff_single_gauss_term(gauss12):
    system, _ = gauss12
    family = Q.derivative_family(0.6)
    s = Q.birkhoff_sum(family, system, (2,), 0.0)
    assert s == pytest.approx(0.6 * math.log(1 / 4), abs=1e-14)


def test_birkhoff_geometric_weights(e3):
    system, family = e3
    s = Q.birkhoff_sum(family, system, (2, 1), 0.5)
    assert s == pytest.approx(-math.log(8), abs=1e-14)


def test_birkhoff_requires_nonempty_word(e1):
    system, family = e1
    with pytest.raises(ValueError):
        Q.birkhoff_sum(family, system, (), 0.1)


def test_birkhoff_cocycle(gauss12):
    system, _ = gauss12
    family = Q.derivative_family(0.6)
    rng = np.random.default_rng(17)
    for _ in range(40):
        u = tuple(int(v) + 1 for v in rng.integers(0, 2, size=rng.integers(1, 4)))
        v = tuple(int(w) + 1 for w in rng.integers(0, 2, size=rng.integers(1, 4)))
        x = float(rng.uniform(0, 1))
        inner, _ = Q.compose_and_derivative(system, v, x)
        lhs = Q.birkhoff_sum(family, system, u + v, x)
        rhs = Q.birkhoff_sum(family, system, u, inner) + Q.birkhoff_sum(family, system, v, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _exp_sup(family, system, word):
    """||exp(S_w F)|| over the domain grid."""
    return max(math.exp(Q.birkhoff_sum(family, system, word, float(x))) for x in system.grid)


def test_sup_norm_exact_for_constant_weights(e1):
    system, family = e1
    assert _exp_sup(family, system, (1, 2)) == pytest.approx(1 / 4, abs=1e-15)


def test_sup_norm_e3_triple(e3):
    system, family = e3
    assert _exp_sup(family, system, (1, 1, 1)) == pytest.approx(1 / 8, abs=1e-15)


def test_sup_norm_gauss_derivative_family(gauss12):
    # grid-sup oracle on (2+x)^(-1.2): maximum at x = 0
    system, _ = gauss12
    family = Q.derivative_family(0.6)
    assert _exp_sup(family, system, (2,)) == pytest.approx(0.25 ** 0.6, rel=1e-12)


def test_sup_norm_multiplicative_over_concatenation(e1):
    system, family = e1
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = tuple(int(v) + 1 for v in rng.integers(0, 2, size=rng.integers(1, 5)))
        v = tuple(int(w) + 1 for w in rng.integers(0, 2, size=rng.integers(1, 5)))
        nu, nv, nuv = (_exp_sup(family, system, w) for w in (u, v, u + v))
        assert nuv == pytest.approx(nu * nv, rel=1e-12)


def test_ratio_bound_and_supermultiplicativity(gauss12):
    # continued-fraction words distort |phi_w'| by at most 4, so
    # exp(S_w(x) - S_w(y)) <= C = 4^0.6 for the family 0.6 log|phi'|
    system, _ = gauss12
    family = Q.derivative_family(0.6)
    C = 4.0 ** 0.6
    rng = np.random.default_rng(29)
    grid = np.linspace(0, 1, 33)
    for _ in range(25):
        u = tuple(int(v) + 1 for v in rng.integers(0, 2, size=rng.integers(1, 4)))
        v = tuple(int(w) + 1 for w in rng.integers(0, 2, size=rng.integers(1, 4)))
        vals = np.array([Q.birkhoff_sum(family, system, u, float(x)) for x in grid])
        assert math.exp(vals.max() - vals.min()) <= C * (1 + 1e-9)
        nu, nv, nuv = (_exp_sup(family, system, w) for w in (u, v, u + v))
        assert nuv >= nu * nv / C ** 2 * (1 - 1e-9)


def test_summability_gauss_tail():
    # oracle: partial zeta(1.2) sum to 1e6 plus an integral-test bracket
    system = Q.gauss_system(None)
    family = Q.derivative_family(0.6)
    i = np.arange(1, 1_000_001, dtype=float)
    partial = float(np.sum(i ** -1.2))
    hi = partial + 1e6 ** -0.2 / 0.2
    lo = partial + (1e6 + 1) ** -0.2 / 0.2
    total = _tail_exp_sum(family, system)
    assert lo - 0.01 <= total <= hi + 0.01
    assert total == pytest.approx(5.59, abs=0.02)


def test_summability_constant_is_exact(e1):
    system, family = e1
    assert _tail_exp_sum(family, system) == pytest.approx(1.0)


def test_non_summable_family_reported():
    system = Q.gauss_system(None)
    family = Q.derivative_family(0.4)  # sum i^(-0.8) diverges
    with pytest.raises(NonSummableError):
        Q.normalize_pressure(family, system)
    with pytest.raises(NonSummableError):  # the check needs no map built
        Q.normalize_pressure(family, system, truncation=20)
    for truncation in (None, 20):
        with pytest.raises(NonSummableError):
            Q.sample_measure(system, family, 100, truncation=truncation, seed=1)


def test_normalize_probability_weights_zero_shift(e1, e3):
    for system, family in (e1, e3):
        out = Q.normalize_pressure(family, system)
        assert out.shift == pytest.approx(0.0, abs=1e-14)


def test_normalize_unnormalized_weights():
    system = Q.cantor_system()
    family = Q.log_weight_family([1.0, 1.0])
    out = Q.normalize_pressure(family, system)
    assert out.shift == pytest.approx(math.log(2), abs=1e-14)
    # the shifted family now has vanishing pressure
    assert Q.estimate_pressure(system, out, 1.0, 0.0).value == pytest.approx(0.0, abs=1e-13)


def test_normalize_derivative_family_on_gauss(gauss12, gauss_full):
    system, _ = gauss12
    family = Q.derivative_family(0.6)
    out = Q.normalize_pressure(family, system)
    resid = Q.estimate_pressure(system, out, 1.0, 0.0).value
    assert abs(resid) <= 1e-12
    assert abs(Q.beta_of_q(system, out, 1.0)) <= 1e-12
    # the full system normalizes over a truncation
    full, _ = gauss_full
    out = Q.normalize_pressure(family, full, truncation=20)
    assert abs(Q.beta_of_q(full, out, 1.0, truncation=20)) <= 1e-12


def test_normalize_needs_a_truncation_for_the_operator(gauss_full):
    system, family = gauss_full
    with pytest.raises(ValueError, match="needs a truncation"):
        Q.normalize_pressure(family, system)


def test_normalize_geometric_weights_over_the_truncation(e3):
    system, family = e3
    out = Q.normalize_pressure(family, system, truncation=4)
    assert out.shift == pytest.approx(math.log(15 / 16), abs=1e-15)
    assert abs(Q.beta_of_q(system, out, 1.0, truncation=4)) <= 1e-12


def test_normalize_derivative_family_on_small_geometric_ratio():
    # map i has ratio 0.05**i, which underflows to 0 at i = 249, inside the
    # 256-symbol head; sum_i 0.05**(0.8 i) = b / (1 - b) with b = 0.05**0.8
    system = Q.geometric_similarity_system(0.05)
    out = Q.normalize_pressure(Q.derivative_family(0.8), system)
    b = 0.05 ** 0.8
    assert out.shift == pytest.approx(math.log(b / (1.0 - b)), abs=1e-14)
    assert Q.estimate_pressure(system, out, 1.0, 0.0).value == pytest.approx(0.0, abs=1e-14)
    # g_sup only bounds g; with g = 0 the exact sum must not use it
    loose = Q.derivative_family(0.8, g_sup=0.5)
    assert Q.normalize_pressure(loose, system).shift == out.shift


def test_normalize_nonconstant_family_builds_only_the_kept_maps():
    # a nonzero g defeats the closed form; the summability check must come
    # from the tail model, not from maps 6..256, whose ratios underflow to 0
    system = Q.geometric_similarity_system(0.05)
    family = Q.derivative_family(0.8, g=lambda x: 0.1 * x, g_sup=0.1)
    out = Q.normalize_pressure(family, system, truncation=5)
    assert abs(Q.estimate_pressure(system, out, 1.0, 0.0, truncation=5).value) <= 1e-12
