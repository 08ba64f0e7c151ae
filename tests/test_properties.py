"""Properties of the pressure and the quantization dimension on random finite
similarity systems whose first-level images are disjoint (so the open set
condition holds), with positive weights that need not sum to one.  Where a
property needs a normalized potential, ``normalize_pressure`` supplies it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qdim as Q


@st.composite
def similarity_systems(draw):
    """n disjoint maps in [0, 1] with ratios in [0.1, 0.8/n] and weights in [0.2, 1]."""
    n = draw(st.integers(2, 5))

    def floats(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    ratios = floats(0.1, 0.8 / n, n)
    gaps = floats(0.1, 1.0, n + 1)
    gaps *= (1.0 - ratios.sum()) / gaps.sum()
    offsets = gaps[0] + np.concatenate(([0.0], np.cumsum(ratios[:-1] + gaps[1:n])))
    return Q.similarity_system(ratios, offsets), floats(0.2, 1.0, n)


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@_PROPERTY
@given(similarity_systems(), st.floats(-1.0, 3.0))
def test_pressure_is_strictly_decreasing_in_t(case, q):
    system, family = case[0], Q.log_weight_family(case[1])
    ts = np.linspace(-2.0, 4.0, 13)
    values = [Q.estimate_pressure(system, family, q, float(t)).value for t in ts]
    assert all(b < a for a, b in zip(values, values[1:]))


@_PROPERTY
@given(similarity_systems())
def test_temperature_function_is_convex(case):
    system, family = case[0], Q.log_weight_family(case[1])
    curve = Q.temperature_curve(system, family, np.linspace(-1.0, 2.0, 16))
    assert np.diff(curve.betas, 2).min() >= -1e-12


@_PROPERTY
@given(similarity_systems())
def test_normalized_temperature_function_vanishes_at_one(case):
    system, weights = case
    normalized = Q.normalize_pressure(Q.log_weight_family(weights), system)
    assert abs(Q.beta_of_q(system, normalized, 1.0)) <= 1e-12


@_PROPERTY
@given(similarity_systems())
def test_quantization_dimension_is_nondecreasing_in_r(case):
    system, weights = case
    normalized = Q.normalize_pressure(Q.log_weight_family(weights), system)
    kappas = [Q.solve_quantization_dim(system, normalized, r).kappa_r
              for r in (0.5, 1.0, 2.0, 3.0, 5.0)]
    assert all(b >= a - 1e-12 for a, b in zip(kappas, kappas[1:]))


@_PROPERTY
@given(similarity_systems(), st.floats(0.5, 4.0))
def test_truncated_quantization_dimension_is_nondecreasing_in_m(case, r):
    # the truncations keep the whole system's probabilities, so their weights
    # sum to less than one; each added map adds a positive term to every pressure sum
    system, weights = case
    family = Q.log_weight_family(weights / weights.sum())
    sweep = Q.truncation_sweep(system, family, r, range(1, system.size + 1))
    kappas = [entry.kappa for entry in sweep.entries]
    assert all(b >= a - 1e-12 for a, b in zip(kappas, kappas[1:]))
    assert sweep.entries[0].degenerate and kappas[-1] == sweep.kappa_ref
