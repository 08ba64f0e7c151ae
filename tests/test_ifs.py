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


def test_derivative_sup_norm_similarity(e1):
    system, _ = e1
    norm, err = Q.derivative_sup_norm(system, (1, 2))
    assert norm == pytest.approx(1 / 9, abs=1e-15)
    assert err == 1.0


@pytest.mark.parametrize("word, expected", [((2,), 1 / 4), ((1, 1), 1 / 4)])
def test_derivative_sup_norm_gauss(gauss12, word, expected):
    # grid-sup oracle: |phi'| is monotone for these branches, max at x = 0
    system, _ = gauss12
    norm, err = Q.derivative_sup_norm(system, word)
    assert norm == pytest.approx(expected, rel=1e-12)
    assert err <= system.K


def test_derivative_sup_norm_empty_word(e1):
    system, _ = e1
    with pytest.raises(ValueError):
        Q.derivative_sup_norm(system, ())


def test_cylinder_geometry_e1(e1):
    system, _ = e1
    info = Q.cylinder_geometry(system, (1, 1, 2))
    assert info.diameter <= 1 / 27 + 1e-15
    point = Q.cylinder_geometry(system, (2,)).point
    assert point == pytest.approx(5 / 6, abs=1e-15)


def test_cylinder_geometry_gauss(gauss12):
    system, _ = gauss12
    info = Q.cylinder_geometry(system, (2, 1))
    norm, _ = Q.derivative_sup_norm(system, (2, 1))
    assert info.diameter <= norm * system.K * system.diam + 1e-15
    assert info.deriv_error <= system.K


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


@pytest.mark.parametrize("fixture", ["e1", "gauss12"])
def test_submultiplicativity_with_distortion(fixture, request):
    system, _ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(13)
    for u in _random_words(rng, 2, 4, 30):
        v = tuple(int(w) + 1 for w in rng.integers(0, 2, size=rng.integers(1, 5)))
        nu, eu = Q.derivative_sup_norm(system, u)
        nv, ev = Q.derivative_sup_norm(system, v)
        nuv, euv = Q.derivative_sup_norm(system, u + v)
        # grid estimates may sit anywhere inside their error brackets
        assert nuv <= nu * eu * nv * ev * (1 + 1e-12)
        assert nuv * euv >= nu * nv / system.K * (1 - 1e-12)


def test_contraction_bound(e1):
    system, _ = e1
    rng = np.random.default_rng(3)
    for word in _random_words(rng, 2, 8, 40):
        norm, _ = Q.derivative_sup_norm(system, word)
        assert norm <= system.s ** len(word) + 1e-15


@pytest.mark.parametrize("fixture", ["e1", "e3", "gauss12"])
def test_cylinder_nestedness(fixture, request):
    system, _ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    for word in _random_words(rng, 2, 5, 25):
        outer = Q.cylinder_interval(system, word)
        for i in (1, 2):
            inner = Q.cylinder_interval(system, word + (i,))
            assert outer[0] - 1e-12 <= inner[0] and inner[1] <= outer[1] + 1e-12


def test_distortion_diagnostic_respects_K(gauss12):
    system, _ = gauss12
    assert Q.check_distortion(system, depth=6, samples=100) <= system.K


def test_infinite_alphabet_stays_lazy(e3):
    system, _ = e3
    assert system.size is None
    m = system.map(7)
    assert m.ratio == pytest.approx(3.0 ** -7)


def test_similarity_system_validates_containment():
    with pytest.raises(ValueError):
        Q.similarity_system([0.5], [0.9])
