import csv
import hashlib
import io
import math
from unittest.mock import patch

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
    sample = Q.sample_measure(system, family, 100, truncation=4)
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
    F, E = parts[0].T, parts[2].transpose(1, 0, 2)  # symbol-major
    lam, h, nu, rho = qdim.pressure._operator_eigen(parts, 1.0, 0.0)
    depth = Q.sample_measure(system, family, 1, truncation=M).depth
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
    "gauss12-chain": (Q.gauss_system((1, 2)), Q.derivative_family(0.531280506277205)),
    "gauss-full-chain": (Q.gauss_system(None), Q.derivative_family(1.5)),
    "gauss-full-0.6": (Q.gauss_system(None), Q.derivative_family(0.6)),
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
    ("gauss12-chain", 20_000, {"seed": 7},  # the conformal-verify sample, about 12 chunks
     "af8e6aefaef686e2bfcefd34b4262dacb366bcd7a754c2a9939d31b1424e9dc1"),
    ("gauss-full-chain", 3000, {"seed": 4, "truncation": 40},
     "722c02cdb9b6050ac85dd34e0165766139d978e7c72fb32a35bfb07df42957ae"),
    # the automatic truncation M = 645: the table filter falls back to the
    # exact draw on some steps
    ("gauss-full-chain", 2000, {"seed": 2024},
     "ab5616959c3ce59cab6e0157164fbba9afce5b2d79f299e52a134d2fe2eec6c4"),
    # no automatic truncation reaches the deficit at s = 0.6: the 40-symbol subsystem
    ("gauss-full-0.6", 2000, {"seed": 2024, "truncation": 40},
     "b690d8b9dd27ac6fa2420b8f6b66e11d6169253aa0fd7a9f9b161fe7b2eb9a5b"),
], ids=["e2-two-chunks", "e3-auto", "e3-m700", "reversed-map", "gauss-constant",
        "gauss15-chain", "gauss12-chain", "gauss-full-chain", "gauss-full-auto",
        "gauss-full-0.6-m40"])
def test_sample_streams_pinned(name, count, kwargs, digest):
    sample = Q.sample_measure(*_STREAM_SYSTEMS[name], count, **kwargs)
    assert hashlib.sha256(sample.points.tobytes()).hexdigest() == digest


def _constant_words(system, family, count, depth, M, seed):
    """i.i.d. words from choice, mapped column by column, last symbol first."""
    probs = np.array([math.exp(family.weights.log_p(i)) for i in range(1, M + 1)])
    step = qdim.measure._map_step(system, M)
    chunk = qdim.measure._CHUNK
    out = []
    for chunk_idx, start in enumerate(range(0, count, chunk)):
        n = min(chunk, count - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx)))
        words = rng.choice(M, size=(n, depth), p=probs / probs.sum())
        x = np.full(n, system.midpoint)
        for j in reversed(range(depth)):
            x = step(words[:, j], x)
        out.append(x)
    return np.concatenate(out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([("e2", None), ("reversed", None), ("e3", 700), ("gauss-constant", None)]),
       st.integers(1, 30), st.sampled_from(["one", "below", "full", "chunks"]),
       st.integers(0, 2**32 - 1))
def test_constant_sampler_matches_the_stepped_words(system_m, depth, size, seed):
    # the suffix table holds the last k symbols' points for the largest k with
    # M^k <= min(count, _CHUNK) and k <= depth; with K that k for a full chunk,
    # M^K - 1 points take a table one symbol shorter, M^K the full one, and
    # more than a chunk takes it into a second, partial chunk
    name, truncation = system_m
    system, family = _STREAM_SYSTEMS[name]
    M = system.truncated_size(truncation)
    K = int(math.log(qdim.measure._CHUNK) / math.log(M) + 1e-9)
    count = {"one": 1, "below": M ** K - 1, "full": M ** K,
             "chunks": qdim.measure._CHUNK + 1 + seed % 1000}[size]
    got = qdim.measure._sample_constant(system, family, count, depth, M, seed)
    assert np.array_equal(got, _constant_words(system, family, count, depth, M, seed))


# 100 equal weights: a range whose largest uniform passes cdf[63] takes the
# binary search, and the other ranges of its chunk count the cdf entries
_WIDE = (Q.similarity_system([1 / 200] * 100, [i / 100 for i in range(100)]),
         Q.log_weight_family([1.0] * 100))


@pytest.mark.parametrize("name, count, depth", [
    ("e2", 1, 26),                               # one word: no pool at any CPU count
    ("e2", 2, 26),                               # fewer words than three workers
    ("e2", qdim.measure._CHUNK + 1, 26),         # a second chunk of one word
    ("reversed", 5000, 7),
    ("wide", 3, 1),                              # one uniform per range
    ("wide", 5000, 2),
], ids=["one", "two", "chunk-plus-one", "reversed", "wide-three", "wide"])
def test_constant_sampler_bytes_do_not_depend_on_the_cpu_count(name, count, depth,
                                                               monkeypatch):
    system, family = _WIDE if name == "wide" else _STREAM_SYSTEMS[name]
    M = system.truncated_size(None)
    want = _constant_words(system, family, count, depth, M, 9).tobytes()
    draw = qdim.measure._draw_symbols
    for cpus in (1, 2, 3):
        calls = []

        def recording_draw(rng, cdf, shape):
            calls.append(draw(rng, cdf, shape))
            return calls[-1]

        monkeypatch.setattr(qdim.measure, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(qdim.measure, "_draw_symbols", recording_draw)
        got = qdim.measure._sample_constant(system, family, count, depth, M, 9)
        assert got.tobytes() == want
        # one nonempty range per worker and chunk, never more ranges than words
        chunks = [min(qdim.measure._CHUNK, count - s)
                  for s in range(0, count, qdim.measure._CHUNK)]
        assert sorted(len(idx) for idx in calls) == sorted(
            n * (j + 1) // cpus - n * j // cpus
            for n in chunks for j in range(cpus) if n * (j + 1) // cpus > n * j // cpus)
        if (name, count) == ("wide", 3) and cpus > 1:
            # the ranges of one chunk took both sides of the reach
            assert {idx.dtype for idx in calls} == {np.dtype(np.uint8), np.dtype(np.intp)}


@pytest.mark.parametrize("count, cpus", [(1, 2), (5, 1)])
def test_constant_sampler_runs_one_range_without_a_pool(count, cpus, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a single range")

    system, family = _STREAM_SYSTEMS["e2"]
    monkeypatch.setattr(qdim.measure, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    got = qdim.measure._sample_constant(system, family, count, 26, 2, 4)
    assert got.tobytes() == _constant_words(system, family, count, 26, 2, 4).tobytes()


@pytest.mark.parametrize("n, depth, lo", [(10, 26, 3), (qdim.measure._CHUNK, 26, 21845),
                                          (7, 1, 6), (5, 60, 1)])
def test_jump_ahead_reproduces_the_later_rows(n, depth, lo):
    # Generator.random takes one PCG64 output per double, in C order
    def stream():
        return np.random.default_rng(np.random.SeedSequence(entropy=(5, 2)))

    whole = stream().random((n, depth))
    rng = stream()
    rng.bit_generator.advance(lo * depth)
    assert rng.random((n - lo, depth)).tobytes() == whole[lo:].tobytes()


def _chain_table(M, rng):
    probs = rng.random((qdim.pressure._NODES, M))
    return np.column_stack([probs / probs.sum(axis=1, keepdims=True),
                            np.ones(qdim.pressure._NODES)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([2, 5, 40]), st.integers(0, 2**32 - 1),
       st.sampled_from(["plain", "clipped", "ties"]))
def test_chain_drawer_matches_the_cumsum_formula(M, seed, kind):
    # at a state exactly on node x_j the interpolated probabilities are row j of
    # the table, so the exact draw is the search of u in that row's running sum
    # (negative entries clipped to 0), scaled to its last entry.  In "ties" the
    # rows are integers summing to 64, so every sum is exact and u can sit on
    # an entry: the draw counts it, as choice's side="right" search does
    rng = np.random.default_rng(seed)
    x, w = qdim.pressure._chebyshev_nodes((0.0, 1.0), qdim.pressure._NODES)
    table = _chain_table(M, rng)
    if kind == "clipped":
        table[rng.random(x.size) < 0.5, 0] *= -1.0
    if kind == "ties":
        table[:, :-1] = rng.multinomial(64 - M, np.full(M, 1.0 / M), size=x.size) + 1
    draw = qdim.measure._chain_drawer(x, w, table)
    j = rng.integers(0, x.size, 256)
    cdf = np.cumsum(np.maximum(table[:, :-1], 0.0), axis=1)
    u = rng.random(j.size)
    if kind == "ties":
        u[::2] = cdf[j[::2], rng.integers(0, M - 1, j[::2].size)] / 64.0  # below 1, as uniforms are
    want = [np.searchsorted(cdf[k], v * cdf[k, -1], side="right") for k, v in zip(j, u)]
    assert np.array_equal(draw(x[j], u), want)


def _system_table(name, M):
    """Node coordinates, weights and the chain's probability table, as the sampler builds them."""
    system, family = _STREAM_SYSTEMS[name]
    parts = qdim.pressure._operator_parts(system, family, M, qdim.pressure._NODES)
    F, E = parts[0].T, parts[2].transpose(1, 0, 2)  # symbol-major
    lam, h, _, _ = qdim.pressure._operator_eigen(parts, 1.0, 0.0)
    x, w = qdim.pressure._chebyshev_nodes(system.domain, qdim.pressure._NODES)
    probs = np.exp(F) * (E @ h) / (lam * h)
    return system.domain, x, w, np.column_stack([probs.T, np.ones(qdim.pressure._NODES)])


class _TableSeen(Exception):
    pass


@pytest.mark.parametrize("name, M", [("gauss12-chain", 2), ("gauss15-chain", 5),
                                     ("gauss-full-chain", 40), ("gauss-full-chain", 645)])
def test_chain_probs_match_the_contiguous_formula(name, M):
    # the sampler's node probabilities, read through symbol-major views of the node-major
    # parts, equal the formula on contiguous symbol-major copies, bit for bit
    system, family = _STREAM_SYSTEMS[name]
    seen = []

    def capture(x, w, table, domain):
        seen.append(table)
        raise _TableSeen

    with patch.object(qdim.measure, "_filtered_drawer", capture), pytest.raises(_TableSeen):
        Q.sample_measure(system, family, 1, truncation=M)
    parts = qdim.pressure._operator_parts(system, family, M, qdim.pressure._NODES)
    F = np.ascontiguousarray(parts[0].T)
    E = np.ascontiguousarray(parts[2].transpose(1, 0, 2))
    lam, h, _, _ = qdim.pressure._operator_eigen(parts, 1.0, 0.0)
    probs = np.exp(F) * (E @ h) / (lam * h)
    assert np.array_equal(seen[0][:, :-1], probs.T)


def _normalized_cdf(x, w, table, y):
    """R_k(y) = cdf_k(y) / cdf_{M-1}(y) by the exact formula, one row per state."""
    num = qdim.pressure._barycentric_terms(x, w, y) @ table
    cdf = np.cumsum(np.maximum(num[:, :-1] / num[:, -1:], 0.0), axis=1)
    return cdf / cdf[:, -1:]


_PINNED_TABLES = {"gauss12-chain": 2, "gauss15-chain": 5, "gauss-full-chain": 40}


def _smooth_table(M, rng, x):
    """Random positive node probabilities that vary smoothly in the state, as a chain's do."""
    logits = rng.normal(size=(M, 3)) @ np.vstack([np.ones_like(x), x, x * x])
    probs = np.exp(logits - logits.max(axis=0))
    return np.column_stack([(probs / probs.sum(axis=0)).T, np.ones(x.size)])


def _filter_table(source, rng):
    """(domain, nodes, weights, table): smooth random tables with M = source symbols; in
    "clipped" the first probability turns negative over part of the domain (mass moved
    to the second keeps the sums at 1); otherwise a pinned chain system's table."""
    if source in _PINNED_TABLES:
        return _system_table(source, _PINNED_TABLES[source])
    x, w = qdim.pressure._chebyshev_nodes((0.0, 1.0), qdim.pressure._NODES)
    table = _smooth_table(5 if source == "clipped" else source, rng, x)
    if source == "clipped":
        shift = np.median(table[:, 0])
        table[:, 0] -= shift
        table[:, 1] += shift
    return (0.0, 1.0), x, w, table


def _counting(name, calls):
    """A stand-in for the exact-path factory ``name`` whose functions log their first argument."""
    exact = getattr(qdim.measure, name)

    def factory(*args):
        run = exact(*args)
        return lambda y, *rest: calls.append(y.copy()) or run(y, *rest)

    return factory


def _decided_row(rng, domain, x, w, table, chains, on_nodes, on_grid, ends):
    """States (on nodes, grid points and domain ends among them) and uniforms that the table
    decides: states in clear cells, uniforms more than twice the margin from every exact R_k."""
    _, clear, margin = qdim.measure._cdf_table(x, w, table, domain)
    apart = 2.0 * margin.max()
    a, b = domain
    cells = clear.size
    grid = np.linspace(a, b, cells + 1)
    y = rng.uniform(a, b, chains)
    kinds = np.split(rng.permutation(chains), np.cumsum([on_nodes, on_grid, ends]))
    y[kinds[0]] = rng.choice(x, on_nodes)
    y[kinds[1]] = rng.choice(grid, on_grid)
    y[kinds[2]] = rng.choice(domain, ends)
    # the drawer's own cell of each state
    cell = np.minimum(((y - a) * (cells / (b - a))).astype(int), cells - 1)
    moved = ~clear[cell]
    inner = rng.choice(np.flatnonzero(clear), moved.sum())
    y[moved] = grid[inner] + rng.uniform(0.25, 0.75, inner.size) * (grid[1] - grid[0])
    M = table.shape[1] - 1
    u = rng.random(chains)
    exact_R = _normalized_cdf(x, w, table, y)[:, :M - 1]
    while True:
        close = (np.abs(u[:, None] - exact_R) <= apart).any(axis=1)
        if not close.any():
            return y, u
        u[close] = rng.random(close.sum())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([2, 5, 40, "clipped", *sorted(_PINNED_TABLES)]),
       st.integers(0, 2**32 - 1), st.integers(0, 16), st.integers(0, 16),
       st.integers(1, 16), st.integers(0, 2), st.integers(0, 8), st.booleans(),
       st.integers(2, 4))
def test_filtered_drawer_matches_the_exact_draw(source, seed, on_nodes, on_grid, clipped,
                                                ends, near, outside, rows):
    # the table filter must give _chain_drawer's symbols for every row (chunk) of a batch:
    # for states on nodes, grid points and domain ends, in cells where a probability turns
    # negative and is clipped, and outside the domain, and for uniforms so close to an
    # interpolated R_k that the step falls back to the exact draw.  Each of the last
    # three sends a row to the exact draw, so each gets a round of its own, in one row of
    # the batch; the table decides the other rows, and the exact draw never sees them
    rng = np.random.default_rng(seed)
    domain, x, w, table = _filter_table(source, rng)
    M = table.shape[1] - 1
    clear = qdim.measure._cdf_table(x, w, table, domain)[1]
    border = np.flatnonzero(~clear & (np.r_[False, clear[:-1]] | np.r_[clear[1:], False]))
    grid = np.linspace(*domain, clear.size + 1)
    chains = 256
    exact = qdim.measure._chain_drawer(x, w, table)
    calls = []
    with patch.object(qdim.measure, "_chain_drawer", _counting("_chain_drawer", calls)):
        filtered = qdim.measure._filtered_drawer(x, w, table, domain)
    for round_ in ("clipped", "outside", "near"):
        y, u = np.empty((rows, chains)), np.empty((rows, chains))
        for row in range(rows):
            y[row], u[row] = _decided_row(rng, domain, x, w, table, chains, on_nodes, on_grid,
                                          ends)
        special = rng.integers(rows)
        ys, us = y[special], u[special]
        placed = rng.choice(chains, near, replace=False)
        if round_ == "clipped" and border.size:  # where the clip sets in
            cell = rng.choice(border, clipped)
            placed = rng.choice(chains, clipped, replace=False)
            ys[placed] = grid[cell] + rng.random(clipped) * (grid[cell + 1] - grid[cell])
        if round_ == "outside" and outside:
            ys[rng.integers(chains)] = domain[1] + (domain[1] - domain[0]) * rng.uniform(0.5, 2.0)
        if round_ != "outside" and M > 1:
            R = _normalized_cdf(x, w, table, ys[placed])
            k = rng.integers(0, M - 1, placed.size)
            offset = rng.choice([-1.0, 1.0], placed.size) * 10.0 ** rng.uniform(-15, -9,
                                                                                  placed.size)
            us[placed] = np.clip(R[np.arange(placed.size), k] + offset, 0.0,
                                 np.nextafter(1.0, 0.0))
        calls.clear()
        with np.errstate(divide="ignore", invalid="ignore"):  # a state outside the domain
            assert np.array_equal(filtered(y, u), [exact(*row) for row in zip(y, u)])
        assert all(np.array_equal(c, ys) for c in calls)


def _system_h(name, M):
    """Node coordinates, weights and eigenfunction of a pinned chain system, as the sampler
    builds them."""
    system, family = _STREAM_SYSTEMS[name]
    parts = qdim.pressure._operator_parts(system, family, M, qdim.pressure._NODES)
    h = qdim.pressure._operator_eigen(parts, 1.0, 0.0)[1]
    x, w = qdim.pressure._chebyshev_nodes(system.domain, qdim.pressure._NODES)
    return system.domain, x, w, h


def _h_at(x, w, h, y):
    """h(y) by the barycentric formula of the exact rejection."""
    terms = qdim.pressure._barycentric_terms(x, w, y)
    return terms @ h / terms.sum(axis=1)


@pytest.mark.parametrize("name, M", sorted(_PINNED_TABLES.items()))
def test_h_table_margin_covers_the_interpolation_error(name, M):
    # on a grid 16 times finer than the eigenfunction's table, linear interpolation in it
    # stays inside its certified margin
    domain, x, w, h = _system_h(name, M)
    values, margin = qdim.measure._h_table(x, w, h, domain)
    a, b = domain
    cells = values.size - 1
    y = np.linspace(a, b, 16 * cells + 1)
    pos = (y - a) * (cells / (b - a))
    cell = np.minimum(pos.astype(int), cells - 1)
    lerp = values[cell] + (pos - cell) * (values[cell + 1] - values[cell])
    assert np.abs(lerp - _h_at(x, w, h, y)).max() < margin
    assert margin <= 1e-6  # narrow enough that the table decides


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_PINNED_TABLES)), st.integers(0, 2**32 - 1),
       st.integers(2, 4), st.integers(1, 8), st.sampled_from(["near", "outside", "node"]))
def test_filtered_rejection_matches_the_exact_rejection(name, seed, rows, near, kind):
    # the kept set of every row of a batch is the exact rejection's: one row has chains
    # whose accept * h(y) lies within 1e-15..1e-9 of h_min ("near", falling back to the
    # exact product), a state outside the domain ("outside"), or states on nodes and at
    # the domain ends ("node", decided by the table); the other rows are decided by the
    # table, and the exact product never sees them
    rng = np.random.default_rng(seed)
    domain, x, w, h = _system_h(name, _PINNED_TABLES[name])
    h_min = float(qdim.measure._h_table(x, w, h, domain)[0].min())
    chains = 256
    y = rng.uniform(*domain, (rows, chains))
    accept = rng.random((rows, chains))
    for row in range(rows):  # keep every other row's acceptance uniforms off the threshold
        while True:
            close = np.abs(accept[row] * _h_at(x, w, h, y[row]) - h_min) <= 1e-6
            if not close.any():
                break
            accept[row, close] = rng.random(close.sum())
    special = rng.integers(rows)
    ys, accepts = y[special], accept[special]
    placed = rng.choice(chains, near, replace=False)
    if kind == "near":
        offset = rng.choice([-1.0, 1.0], near) * 10.0 ** rng.uniform(-15, -9, near)
        accepts[placed] = np.clip((h_min + offset) / _h_at(x, w, h, ys[placed]), 0.0, 1.0)
    if kind == "outside":
        ys[placed[0]] = domain[1] + (domain[1] - domain[0]) * rng.uniform(0.5, 2.0)
    if kind == "node":
        ys[placed] = rng.choice(np.r_[x, domain], near)
    exact = qdim.measure._exact_rejection(x, w, h, h_min)
    calls = []
    with patch.object(qdim.measure, "_exact_rejection", _counting("_exact_rejection", calls)):
        keep = qdim.measure._filtered_rejection(x, w, h, domain)
    with np.errstate(divide="ignore", invalid="ignore"):  # a state outside the domain
        assert np.array_equal(keep(y, accept), [exact(*row) for row in zip(y, accept)])
    assert all(np.array_equal(c, ys) for c in calls)
    if kind == "outside":
        assert len(calls) == 1


def test_chain_batches_match_the_chunk_by_chunk_draw():
    # batches of chunks, a last batch sized from the acceptance rate, and the table
    # filters give the points of stepping each chunk alone by the exact draw and keeping
    # its chains by the exact rejection, for counts within one chunk, across batches
    # and ending inside a batch
    system, family = _STREAM_SYSTEMS["gauss15-chain"]
    domain, x, w, table = _system_table("gauss15-chain", 5)
    h = _system_h("gauss15-chain", 5)[3]
    h_min = float(qdim.measure._h_table(x, w, h, domain)[0].min())
    draw = qdim.measure._chain_drawer(x, w, table)
    keep = qdim.measure._exact_rejection(x, w, h, h_min)
    step = qdim.measure._map_step(system, 5)
    depth, chunk = 4, qdim.measure._CHAIN_CHUNK
    for count, seed in [(1, 0), (chunk, 1), (5 * chunk, 2), (11 * chunk + 7, 3)]:
        kept, total, chunk_idx = [], 0, 0
        while total < count:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx)))
            steps = rng.random((depth, chunk))
            accept = rng.random(chunk)
            y = np.full(chunk, system.midpoint)
            for u in steps:
                y = step(draw(y, u), y)
            kept.append(y[keep(y, accept)])
            total += kept[-1].size
            chunk_idx += 1
        want = np.concatenate(kept)[:count]
        got, _ = qdim.measure._sample_chain(system, family, count, depth, 5, seed)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, M", sorted(_PINNED_TABLES.items()))
def test_cdf_table_margin_covers_the_interpolation_error(name, M):
    # on a grid 16 times finer than the table, linear interpolation of every R_k
    # stays inside its certified margin
    domain, x, w, table = _system_table(name, M)
    R, clear, margin = qdim.measure._cdf_table(x, w, table, domain)
    assert clear.all()
    a, b = domain
    cells = clear.size
    y = np.linspace(a, b, 16 * cells + 1)
    pos = (y - a) * (cells / (b - a))
    cell = np.minimum(pos.astype(int), cells - 1)
    frac = (pos - cell)[:, None]
    lerp = R[cell, :M - 1] + frac * (R[cell + 1, :M - 1] - R[cell, :M - 1])
    error = np.abs(lerp - _normalized_cdf(x, w, table, y)[:, :M - 1]).max(axis=0)
    assert np.all(error < margin[:M - 1])
    if name == "gauss12-chain":
        assert margin.max() <= 1e-6  # narrow enough that the filter decides


def test_filter_decides_every_step_of_the_conformal_verify_sample(monkeypatch):
    # the benchmark's Gauss {1,2} sample never needs the exact draw, nor the exact
    # rejection product
    draws, rejections = [], []
    monkeypatch.setattr(qdim.measure, "_chain_drawer", _counting("_chain_drawer", draws))
    monkeypatch.setattr(qdim.measure, "_exact_rejection",
                        _counting("_exact_rejection", rejections))
    Q.sample_measure(*_STREAM_SYSTEMS["gauss12-chain"], 20_000, seed=7)
    assert draws == []
    assert rejections == []


def _unlabelled(system):
    """The same branches as a generic analytic system, with no Gauss digits recorded."""
    return Q.IfsSystem(domain=system.domain, alphabet=system.alphabet, s=system.s)


def _own_value(system, i: int, v: float) -> float:
    """phi_i(v) by the map itself; a geometric ratio**i that underflows to 0 maps onto 0."""
    if system.geometric_ratio is not None and system.geometric_ratio ** i == 0.0:
        return 0.0
    return system.map(i).value(v)


@pytest.mark.parametrize("system, truncation", [
    (Q.gauss_system((3, 1, 7)), 12), (Q.gauss_system(None), 12),
    (Q.geometric_similarity_system(0.2), 12),
    (Q.similarity_system([0.3, 0.2, 0.25], [0.0, 0.6, 0.75], [1, -1, 1]), 12),
    (_unlabelled(Q.gauss_system((3, 1, 7))), 12),
    # 0.05**i is subnormal from i = 237 and 0 from i = 249
    (Q.geometric_similarity_system(0.05), 256),
], ids=["gauss-subsystem", "gauss-full", "geometric", "reversed", "analytic",
        "geometric-underflow"])
def test_map_step_gives_the_maps_own_values(system, truncation):
    # the uint8 draws of _draw_symbols, the intp ones of its binary search and
    # int64, over the 1-D words of the i.i.d. sampler and the 2-D chain rows
    M = system.truncated_size(truncation)
    step = qdim.measure._map_step(system, M)
    rng = np.random.default_rng(0)
    for shape in [(500,), (4, 125)]:
        symbols = rng.integers(0, M, shape)
        x = rng.random(shape)
        kept = x.copy()
        expected = np.reshape([_own_value(system, int(i) + 1, v)
                               for i, v in zip(symbols.ravel(), x.ravel())], shape)
        for dtype in (np.uint8, np.intp, np.int64):
            out = step(symbols.astype(dtype), x)
            assert out.shape == shape
            assert out.tobytes() == expected.tobytes(), (shape, dtype)
        assert x.tobytes() == kept.tobytes()


def test_gauss_digits_and_generic_branches_sample_alike():
    # the vectorized 1/(b + y) and one map call per drawn symbol give the same stream
    system, family = Q.gauss_system((1, 2, 3)), Q.derivative_family(0.7)
    a = Q.sample_measure(system, family, 2000, seed=9)
    b = Q.sample_measure(_unlabelled(system), family, 2000, seed=9)
    assert a.points.tobytes() == b.points.tobytes()


def test_sample_roundtrip(tmp_path, e1):
    system, family = e1
    sample = Q.sample_measure(system, family, 500, seed=5)
    path = tmp_path / "points.csv"
    Q.save_sample(sample, path)
    back = Q.load_sample(path)
    assert np.array_equal(back.points, sample.points)
    assert back.seed == sample.seed and back.depth == sample.depth


def test_save_sample_writes_the_csv_writer_bytes(tmp_path):
    # the joined rows are the bytes of a csv.writer row loop, and load back bit for bit
    points = np.r_[np.random.default_rng(3).random(2000), 0.0, -0.0, 5e-324, 1e-300, 1.0,
                   1e300, 0.1, 2.0 / 3.0]
    sample = qdim.measure.SampleSet(points=points, seed=1, depth=2, truncation=None,
                                    deficit=0.0)
    path = tmp_path / "points.csv"
    Q.save_sample(sample, path)
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["point"])
    for p in sample.points:
        writer.writerow([repr(float(p))])
    assert path.read_bytes() == reference.getvalue().encode()
    assert Q.load_sample(path).points.tobytes() == sample.points.tobytes()


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
    rho2 = Q.wasserstein_1d(2.0, Q.sample_measure(system, family, N, truncation=2, seed=7),
                            ref)
    rho8 = Q.wasserstein_1d(2.0, Q.sample_measure(system, family, N, truncation=8, seed=7),
                            ref)
    assert rho8 < rho2
