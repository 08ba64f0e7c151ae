import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdim as Q
import qdim.quantizer

from conftest import LOG23


@pytest.fixture(scope="module")
def e1_sample(e1):
    system, family = e1
    return Q.sample_measure(system, family, 40_000, seed=21)


# ---------------------------------------------------------------------------
# error evaluation


def test_quant_error_variance_oracle(e1_sample):
    # Cantor measure: Var = 1/8 from the self-similar recursion V = V/9 + 1/9
    v = Q.quant_error(e1_sample, np.array([0.5]), 2.0)
    assert v == pytest.approx(0.125, rel=0.04)


def test_quant_error_second_moment_oracle(e1_sample):
    # E x^2 = Var + mean^2 = 1/8 + 1/4
    v = Q.quant_error(e1_sample, np.array([0.0]), 2.0)
    assert v == pytest.approx(0.375, rel=0.03)


def test_quant_error_zero_when_codebook_covers(e1_sample):
    code = np.unique(e1_sample.points)
    assert Q.quant_error(e1_sample, code, 2.0) == 0.0


def test_quant_error_rejects_empty(e1_sample):
    with pytest.raises(ValueError):
        Q.quant_error(e1_sample, np.array([]), 2.0)


# ---------------------------------------------------------------------------
# Lloyd optimization


def test_lloyd_one_point_is_mean(e1_sample):
    run = Q.lloyd_optimize(e1_sample, 1, 2.0)
    assert run.codebook.points[0] == pytest.approx(0.5, abs=0.01)
    assert run.V_hat == pytest.approx(0.125, rel=0.04)


def test_lloyd_two_points_split_oracle(e1_sample):
    # each third carries half the mass with variance scaled by 1/9:
    # optimal points {1/6, 5/6}, V = 2 * (1/2) * (1/9) * (1/8) = 1/72
    run = Q.lloyd_optimize(e1_sample, 2, 2.0)
    assert run.codebook.points == pytest.approx([1 / 6, 5 / 6], abs=0.01)
    assert run.V_hat == pytest.approx(1 / 72, rel=0.10)


def test_lloyd_error_trace_nonincreasing(e1_sample):
    for n in (3, 7, 16):
        run = Q.lloyd_optimize(e1_sample, n, 2.0)
        trace = np.asarray(run.trace)
        assert np.all(np.diff(trace) <= 1e-12)


def test_lloyd_monotone_in_n(e1_sample):
    vs = [Q.lloyd_optimize(e1_sample, n, 2.0).V_hat
          for n in (1, 2, 4, 8, 16)]
    assert all(a >= b - 1e-15 for a, b in zip(vs, vs[1:]))


def test_lloyd_general_r_median_and_golden(e1_sample):
    # r = 1: the one-point optimum is the median  (E|x - c| minimized)
    run1 = Q.lloyd_optimize(e1_sample, 1, 1.0)
    med = float(np.median(e1_sample.points))
    assert run1.codebook.points[0] == pytest.approx(med, abs=0.02)
    # r = 3: golden-section path; two-point codebook still splits the thirds
    run3 = Q.lloyd_optimize(e1_sample, 2, 3.0)
    assert run3.codebook.points == pytest.approx([1 / 6, 5 / 6], abs=0.05)
    # r = 0.7: pre-scan path stays finite and ordered
    run07 = Q.lloyd_optimize(e1_sample, 2, 0.7, max_iter=20)
    assert np.all(np.diff(run07.codebook.points) > 0)


def test_cell_centers_match_loop_form():
    # cells [0, 2), [2, 2) (empty), [2, 5), [5, 6), [6, 6) (empty, last)
    pts = np.array([0.1, 0.2, 0.25, 0.4, 0.7, 0.8])
    edges = np.array([0, 2, 2, 5, 6, 6])
    medians, lo, hi = np.zeros(5), np.zeros(5), np.zeros(5)
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if b > a:
            seg = pts[a:b]
            medians[j] = 0.5 * (seg[(b - a - 1) // 2] + seg[(b - a) // 2])
            lo[j], hi[j] = seg[0], seg[-1]
    assert qdim.quantizer._cell_centers(pts, edges, 1.0, 0.0).tobytes() == medians.tobytes()
    # a tolerance wider than every bracket returns the bracket midpoints untouched
    golden = qdim.quantizer._golden_centers(pts, edges, 1.5, math.inf)
    assert golden.tobytes() == (0.5 * (lo + hi)).tobytes()


def test_lloyd_oversized_codebook_returns_zero():
    sample = Q.SampleSet(points=np.array([0.1, 0.2, 0.3]), seed=0, depth=1,
                         truncation=None, deficit=0.0)
    run = Q.lloyd_optimize(sample, 8, 2.0)
    assert run.V_hat == 0.0
    assert run.converged


def test_lloyd_deterministic(e1_sample):
    a = Q.lloyd_optimize(e1_sample, 5, 2.0)
    b = Q.lloyd_optimize(e1_sample, 5, 2.0)
    assert np.array_equal(a.codebook.points, b.codebook.points)
    assert a.V_hat == b.V_hat


def _fresh(sample):
    """A new SampleSet over a copy of the points: it shares no cached split sequence."""
    return Q.SampleSet(points=sample.points.copy(), seed=sample.seed, depth=sample.depth,
                       truncation=sample.truncation, deficit=sample.deficit)


@pytest.mark.parametrize("r", [2.0, 1.5])
@pytest.mark.parametrize("ns", [[4, 8, 16, 32, 64], [64, 32, 16, 8, 4], [16, 64, 4, 32, 8]],
                         ids=["ascending", "descending", "shuffled"])
def test_split_sequence_shared_across_n(e1_sample, ns, r, monkeypatch):
    sizes = []
    best_split = qdim.quantizer._best_split
    monkeypatch.setattr(qdim.quantizer, "_best_split",
                        lambda seg: sizes.append(seg.size) or best_split(seg))
    sample = _fresh(e1_sample)
    runs = [Q.lloyd_optimize(sample, n, r) for n in ns]
    # 63 splits give the 64-cell start, and every smaller start is on the way
    assert len(sizes) == 63
    monkeypatch.undo()
    for n, run in zip(ns, runs):
        alone = Q.lloyd_optimize(_fresh(e1_sample), n, r)
        assert np.array_equal(run.codebook.points, alone.codebook.points)
        assert run.V_hat == alone.V_hat


def _sse(values: list[float]) -> float:
    """Summed squared error about the mean, loop form."""
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


_UNITS = st.floats(0.0, 1.0, allow_nan=False)
_SEGMENTS = st.one_of(
    st.lists(_UNITS, min_size=2, max_size=300),  # random
    st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.5, 0.52, 0.9]),  # clustered
                       st.floats(0.0, 1e-3)), min_size=2, max_size=300
             ).map(lambda pairs: [c + d for c, d in pairs]),
    st.lists(st.integers(0, 4), min_size=2, max_size=300  # duplicate-heavy
             ).map(lambda ints: [i / 3 for i in ints]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_SEGMENTS)
def test_best_split_is_least_sse(values):
    seg = np.sort(np.array(values))
    assume(seg[0] < seg[-1])
    valid = [k for k in range(1, seg.size) if seg[k - 1] < seg[k]]
    sse = {k: _sse(seg[:k].tolist()) + _sse(seg[k:].tolist()) for k in valid}
    least = min(sse.values())
    k = qdim.quantizer._best_split(seg)
    assert k in sse  # never between equal values
    # the argmin, up to splits whose errors agree within rounding
    slack = 1e-9 * _sse(seg.tolist()) + 1e-300
    assert sse[k] <= least + slack
    if sum(v <= least + slack for v in sse.values()) == 1:
        assert k == min(sse, key=sse.get)


def test_split_cache_lets_go_of_the_sample(e1_sample):
    sample = _fresh(e1_sample)
    alive = weakref.ref(sample)
    Q.lloyd_optimize(sample, 8, 2.0)
    del sample
    gc.collect()
    assert alive() is None


def _optimal_r2_errors(pts: np.ndarray, n_max: int) -> list[float]:
    """Exact optimal order-2 errors for n = 1..n_max by dynamic programming.

    Optimal 1-D cells are contiguous on the sorted sample, so
    D_k[j] = min_{i<j} D_{k-1}[i] + SSE(x[i:j]) is the least error of
    k cells covering the first j points; O(n N^2) over an N x N table.
    """
    N = pts.size
    y = pts - pts[0]
    p1 = np.concatenate(([0.0], np.cumsum(y)))
    p2 = np.concatenate(([0.0], np.cumsum(y * y)))
    i, j = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (p2[j] - p2[i]) - (p1[j] - p1[i]) ** 2 / (j - i)
    sse = np.where(j > i, np.maximum(sse, 0.0), np.inf)
    best = sse[0]
    errors = [best[N] / N]
    for _ in range(2, n_max + 1):
        best = np.min(best[:, None] + sse, axis=0)
        errors.append(best[N] / N)
    return errors


@pytest.mark.parametrize("name", ["e2", "gauss12", "e3"])
def test_lloyd_near_exact_optimum(name, request):
    system, family = request.getfixturevalue(name)
    sample = Q.sample_measure(system, family, 1500, seed=5)
    v_opt = _optimal_r2_errors(sample.points, 16)
    for n in (2, 3, 5, 8, 12, 16):
        assert Q.lloyd_optimize(sample, n, 2.0).V_hat <= 1.01 * v_opt[n - 1]


# ---------------------------------------------------------------------------
# dimension estimation


def test_estimate_dr_exact_cantor_pair():
    runs = [
        Q.QuantizationRun(n=1, r=2.0, V_hat=1 / 8, e_hat=(1 / 8) ** 0.5,
                          codebook=Q.Codebook(np.array([0.5]), 1),
                          iterations=1, restarts=1, converged=True),
        Q.QuantizationRun(n=2, r=2.0, V_hat=1 / 72, e_hat=(1 / 72) ** 0.5,
                          codebook=Q.Codebook(np.array([1 / 6, 5 / 6]), 2),
                          iterations=1, restarts=1, converged=True),
    ]
    d, diag = Q.estimate_Dr(runs)
    assert d == pytest.approx(2 * math.log(2) / math.log(9), abs=1e-12)
    assert d == pytest.approx(LOG23, abs=1e-12)


def test_estimate_dr_planted_power_law():
    kappa = 0.7
    runs = []
    for n in (4, 8, 16, 32, 64):
        v = float(n) ** (-2.0 / kappa)
        runs.append(Q.QuantizationRun(n=n, r=2.0, V_hat=v, e_hat=v ** 0.5,
                                      codebook=Q.Codebook(np.zeros(1), n),
                                      iterations=1, restarts=1, converged=True))
    d, diag = Q.estimate_Dr(runs, kappa_hint=kappa)
    assert d == pytest.approx(kappa, abs=1e-12)
    series = diag["coefficient_series"][f"{kappa:.6f}"]
    assert max(series) / min(series) == pytest.approx(1.0, abs=1e-9)


def test_estimate_dr_input_validation():
    run = Q.QuantizationRun(n=4, r=2.0, V_hat=0.1, e_hat=0.1 ** 0.5,
                            codebook=Q.Codebook(np.zeros(1), 4),
                            iterations=1, restarts=1, converged=True)
    with pytest.raises(ValueError):
        Q.estimate_Dr([run])
    bad = Q.QuantizationRun(n=8, r=1.0, V_hat=0.05, e_hat=0.05,
                            codebook=Q.Codebook(np.zeros(1), 8),
                            iterations=1, restarts=1, converged=True)
    with pytest.raises(ValueError):
        Q.estimate_Dr([run, bad])


# ---------------------------------------------------------------------------
# the antichain codebook


def test_antichain_depth_one_example(e1):
    # with C = K = 1: L = 1 and rho = (m_1 * (1/3)^2)^eta = (1/18)^{q_r} = 1/2,
    # so the n = 4 threshold is 1/2 and both depth-1 words qualify
    system, family = e1
    result = Q.antichain_codebook(system, family, 2.0, 4)
    assert result.rho_N == pytest.approx(0.5, rel=1e-9)
    assert result.L == pytest.approx(1.0)
    assert result.words == ((1,), (2,))
    assert result.cardinality == 2


def test_antichain_cardinality_bound(e1):
    system, family = e1
    kappa = Q.solve_quantization_dim(system, family, 2.0).kappa_r
    for n in (4, 16, 64, 256):
        result = Q.antichain_codebook(system, family, 2.0, n, kappa_r=kappa)
        assert result.cardinality <= n


def test_antichain_is_maximal(e1):
    system, family = e1
    result = Q.antichain_codebook(system, family, 2.0, 32)
    prefixes = set(result.words)
    max_len = max(len(w) for w in prefixes)
    rng = np.random.default_rng(45)
    for _ in range(1000):
        stream = tuple(int(v) + 1 for v in rng.integers(0, 2, size=max_len + 2))
        hits = [k for k in range(1, len(stream) + 1) if stream[:k] in prefixes]
        assert len(hits) == 1


def test_antichain_on_truncated_infinite(e3):
    system, family = e3
    result = Q.antichain_codebook(system, family, 2.0, 32, truncation=6)
    assert 1 <= result.cardinality <= 32
    pts = result.codebook.points
    assert np.all((pts >= 0) & (pts <= 1))


def test_antichain_series_bounded(e1, e1_sample_big):
    system, family = e1
    kappa = Q.solve_quantization_dim(system, family, 2.0).kappa_r
    series = []
    for n in (4, 8, 16, 32, 64):
        res = Q.antichain_codebook(system, family, 2.0, n, kappa_r=kappa)
        v = Q.quant_error(e1_sample_big, res.codebook, 2.0)
        series.append(n * v ** (kappa / 2.0))
    assert max(series) / min(series) <= 50.0


def test_truncation_comparison_invariant(e3):
    # quantizing the truncated measure is never harder than the full one
    system, family = e3
    N = 20_000
    full = Q.sample_measure(system, family, N, seed=3)
    for M in (2, 4, 8):
        part = Q.sample_measure(system, family, N, truncation=M, seed=3,
                                allow_deficit=True)
        for n in (4, 16):
            v_m = Q.lloyd_optimize(part, n, 2.0).V_hat
            v_f = Q.lloyd_optimize(full, n, 2.0).V_hat
            assert v_m <= v_f * 1.10 + 1e-6


def test_wasserstein_continuity_of_errors():
    # |e(A) - e(B)| <= rho_r(A, B) for the exact empirical optima
    rng = np.random.default_rng(8)
    a = np.sort(rng.normal(0.0, 1.0, size=3000))
    b = np.sort(rng.normal(0.2, 1.1, size=3000))
    sa = Q.SampleSet(points=a, seed=0, depth=1, truncation=None, deficit=0.0)
    sb = Q.SampleSet(points=b, seed=0, depth=1, truncation=None, deficit=0.0)
    for n in (2, 5, 9):
        ea = Q.lloyd_optimize(sa, n, 2.0).e_hat
        eb = Q.lloyd_optimize(sb, n, 2.0).e_hat
        rho = Q.wasserstein_1d(2.0, sa, sb)
        assert abs(ea - eb) <= rho + 0.02
