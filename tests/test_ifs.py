import numpy as np
import pytest
import sympy

import qdim as Q


def test_compose_affine(e1):
    system, _ = e1
    value, deriv = Q.compose_and_derivative(system, (1, 2), 0.0)
    assert value == pytest.approx(2 / 9, abs=1e-15)
    assert deriv == pytest.approx(1 / 9, abs=1e-15)


def test_compose_empty_word_is_identity(e1):
    system, _ = e1
    assert Q.compose_and_derivative(system, (), 0.4) == (0.4, 1.0)


def test_compose_gauss_vs_symbolic(gauss12):
    # oracle: phi_11(x) = 1/(1 + 1/(1+x)) = (1+x)/(2+x), differentiated symbolically
    x = sympy.symbols("x")
    expr = (1 + x) / (2 + x)
    val_expected = float(expr.subs(x, 0))
    deriv_expected = float(sympy.diff(expr, x).subs(x, 0))
    system, _ = gauss12
    value, deriv = Q.compose_and_derivative(system, (1, 1), 0.0)
    assert value == pytest.approx(val_expected, abs=1e-15)
    assert deriv == pytest.approx(deriv_expected, abs=1e-15)


def test_compose_rejects_bad_input(e1):
    system, _ = e1
    with pytest.raises(ValueError):
        Q.compose_and_derivative(system, (3,), 0.0)
    with pytest.raises(ValueError):
        Q.compose_and_derivative(system, (1,), 2.0)


def _deriv_sup(system, word):
    """sup |phi_word'| over the domain grid."""
    return max(Q.compose_and_derivative(system, word, float(x))[1] for x in system.grid)


def test_derivative_sup_norm_similarity(e1):
    system, _ = e1
    assert _deriv_sup(system, (1, 2)) == pytest.approx(1 / 9, abs=1e-15)


@pytest.mark.parametrize("word, expected", [((2,), 1 / 4), ((1, 1), 1 / 4)])
def test_derivative_sup_norm_gauss(gauss12, word, expected):
    # grid-sup oracle: |phi'| is monotone for these branches, max at x = 0
    system, _ = gauss12
    assert _deriv_sup(system, word) == pytest.approx(expected, rel=1e-12)


def test_cylinder_geometry_e1(e1):
    system, _ = e1
    lo, hi = Q.cylinder_interval(system, (1, 1, 2))
    assert (lo, hi) == (pytest.approx(2 / 27, abs=1e-15), pytest.approx(3 / 27, abs=1e-15))
    point, _ = Q.compose_and_derivative(system, (2,), system.midpoint)
    assert point == pytest.approx(5 / 6, abs=1e-15)


def test_cylinder_geometry_gauss(gauss12):
    # oracle: phi_21(x) = 1/(2 + 1/(1+x)) = (1+x)/(3+2x) maps [0, 1] onto [1/3, 2/5]
    system, _ = gauss12
    lo, hi = Q.cylinder_interval(system, (2, 1))
    assert (lo, hi) == (pytest.approx(1 / 3, abs=1e-15), pytest.approx(2 / 5, abs=1e-15))
    # mean value theorem
    assert hi - lo <= _deriv_sup(system, (2, 1)) * system.diam + 1e-15


def _random_words(rng, n_sym, max_len, count):
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        yield tuple(int(v) + 1 for v in rng.integers(0, n_sym, size=length))


@pytest.mark.parametrize("fixture", ["e1", "gauss12"])
def test_chain_rule_consistency(fixture, request):
    system, _ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = tuple(int(v) + 1 for v in rng.integers(0, 2, size=rng.integers(1, 5)))
        v = tuple(int(w) + 1 for w in rng.integers(0, 2, size=rng.integers(1, 5)))
        x = float(rng.uniform(*system.domain))
        inner_val, inner_d = Q.compose_and_derivative(system, v, x)
        outer_val, outer_d = Q.compose_and_derivative(system, u, inner_val)
        full_val, full_d = Q.compose_and_derivative(system, u + v, x)
        assert full_val == pytest.approx(outer_val, rel=1e-12, abs=1e-14)
        assert full_d == pytest.approx(outer_d * inner_d, rel=1e-12)


# sup/inf of |phi_w'| over the domain: 1 for similarities; continued-fraction
# words have |phi_w'(x)| = (q_n + q_{n-1} x)^-2 with q_{n-1} <= q_n, so at most 4
_DISTORTION = {"e1": 1.0, "gauss12": 4.0}


@pytest.mark.parametrize("fixture", ["e1", "gauss12"])
def test_submultiplicativity_with_distortion(fixture, request):
    system, _ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(13)
    for u in _random_words(rng, 2, 4, 30):
        v = tuple(int(w) + 1 for w in rng.integers(0, 2, size=rng.integers(1, 5)))
        nu, nv, nuv = (_deriv_sup(system, w) for w in (u, v, u + v))
        assert nuv <= nu * nv * (1 + 1e-12)
        assert nuv >= nu * nv / _DISTORTION[fixture] * (1 - 1e-12)


def test_contraction_bound(e1):
    system, _ = e1
    rng = np.random.default_rng(3)
    for word in _random_words(rng, 2, 8, 40):
        assert _deriv_sup(system, word) <= system.s ** len(word) + 1e-15


@pytest.mark.parametrize("fixture", ["e1", "e3", "gauss12"])
def test_cylinder_nestedness(fixture, request):
    system, _ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    for word in _random_words(rng, 2, 5, 25):
        outer = Q.cylinder_interval(system, word)
        for i in (1, 2):
            inner = Q.cylinder_interval(system, word + (i,))
            assert outer[0] - 1e-12 <= inner[0] and inner[1] <= outer[1] + 1e-12


def test_gauss_distortion_below_four(gauss12):
    system, _ = gauss12
    rng = np.random.default_rng(0)
    for word in _random_words(rng, 2, 6, 100):
        derivs = [Q.compose_and_derivative(system, word, float(x))[1] for x in system.grid]
        assert max(derivs) <= _DISTORTION["gauss12"] * min(derivs)


def test_infinite_alphabet_stays_lazy(e3):
    system, _ = e3
    assert system.size is None
    m = system.map(7)
    assert m.ratio == pytest.approx(3.0 ** -7)


def test_similarity_system_validates_containment():
    with pytest.raises(ValueError):
        Q.similarity_system([0.5], [0.9])


_TRUNCATED_CALLS = {
    "sample_measure-gauss-full": ("gauss_full", lambda s, f, M: Q.sample_measure(s, f, 10,
                                                                                 truncation=M)),
    "sample_measure-gauss12": ("gauss12", lambda s, f, M: Q.sample_measure(s, f, 10,
                                                                           truncation=M)),
    "sample_measure-e3": ("e3", lambda s, f, M: Q.sample_measure(s, f, 10, truncation=M)),
    "hausdorff_dim-gauss-full": ("gauss_full", lambda s, f, M: Q.hausdorff_dim(s, f, M)),
    "hausdorff_dim-e3": ("e3", lambda s, f, M: Q.hausdorff_dim(s, f, M)),
    "cylinder_mass-gauss-full": ("gauss_full",
                                 lambda s, f, M: Q.cylinder_mass(s, f, (1,), truncation=M)),
    "estimate_pressure-e3": ("e3", lambda s, f, M: Q.estimate_pressure(s, f, 1.0, 0.0, M)),
    "solve_quantization_dim-e3": ("e3",
                                  lambda s, f, M: Q.solve_quantization_dim(s, f, 2.0, M)),
    "normalize_pressure-e3": ("e3", lambda s, f, M: Q.normalize_pressure(f, s, M)),
    "truncation_sweep-e3": ("e3", lambda s, f, M: Q.truncation_sweep(s, f, 2.0, [2, M])),
}


@pytest.mark.parametrize("M", [0, -3])
@pytest.mark.parametrize("name", sorted(_TRUNCATED_CALLS))
def test_truncations_below_one_are_refused(name, M, request):
    # one check in IfsSystem.truncated_size, whatever the system and the entry point
    fixture, call = _TRUNCATED_CALLS[name]
    system, family = request.getfixturevalue(fixture)
    with pytest.raises(ValueError, match="truncations must be >= 1"):
        call(system, family, M)
