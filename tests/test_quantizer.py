import gc
import heapq
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdim as Q
import qdim.pressure
import qdim.quantizer

from conftest import LOG23

DIM_GAUSS2 = 0.531280506277205  # dim E_{1,2}


@pytest.fixture(scope="module")
def e1_sample(e1):
    system, family = e1
    return Q.sample_measure(system, family, 40_000, seed=21)


# ---------------------------------------------------------------------------
# error evaluation


def _per_point_errors(pts: np.ndarray, code: np.ndarray, r: float) -> np.ndarray:
    """|x - nearest code point|^r by one search per sample point."""
    mids = 0.5 * (code[1:] + code[:-1])
    idx = np.searchsorted(mids, pts)
    return np.abs(pts - code[idx]) ** r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 400), st.integers(1, 12), st.sampled_from([0.7, 1.0, 1.5, 2.0]),
       st.integers(0, 2 ** 32 - 1))
def test_sorted_errors_equal_the_per_point_search(size, n, r, seed):
    # code points on a coarse grid repeat; the sample holds their computed
    # midpoints, where the two neighbours' distances differ by rounding, so
    # a tie must go to the lower code point as in the per-point search
    rng = np.random.default_rng(seed)
    code = np.sort(rng.integers(0, 16, 2 * n) / 10.0)
    mids = 0.5 * (code[1:] + code[:-1])
    pts = np.sort(np.concatenate((rng.random(size) * 1.6, mids)))
    assert np.array_equal(qdim.quantizer._sorted_errors(pts, code, r),
                          _per_point_errors(pts, code, r))


@pytest.mark.parametrize("name", ["e2", "gauss12"])
def test_quant_error_equals_the_per_point_mean(name, request):
    # Lloyd and random codebooks of 1 to 64 points at orders 0.5 to 3
    sample = Q.sample_measure(*request.getfixturevalue(name), 5000, seed=4)
    rng = np.random.default_rng(9)
    for r in (0.5, 1.0, 1.5, 2.0, 3.0):
        for n in (1, 3, 16, 64):
            for code in (Q.lloyd_optimize(sample, n, r).codebook, np.sort(rng.random(n))):
                points = code.points if isinstance(code, Q.Codebook) else code
                assert (np.mean(qdim.quantizer._sorted_errors(sample.points, points, r))
                        == np.mean(_per_point_errors(sample.points, points, r)))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_lloyd_rejects_a_bad_order(e1_sample, r):
    with pytest.raises(ValueError, match="the order r must be finite and positive"):
        Q.lloyd_optimize(e1_sample, 4, r)


def _quant_error(sample, code, r):
    """Mean over the sample of (distance to the nearest code point)^r."""
    return float(np.mean(qdim.quantizer._sorted_errors(sample.points, code, r)))


def test_quant_error_variance_oracle(e1_sample):
    # Cantor measure: Var = 1/8 from the self-similar recursion V = V/9 + 1/9
    v = _quant_error(e1_sample, np.array([0.5]), 2.0)
    assert v == pytest.approx(0.125, rel=0.04)


def test_quant_error_second_moment_oracle(e1_sample):
    # E x^2 = Var + mean^2 = 1/8 + 1/4
    v = _quant_error(e1_sample, np.array([0.0]), 2.0)
    assert v == pytest.approx(0.375, rel=0.03)


def test_quant_error_zero_when_codebook_covers(e1_sample):
    code = np.unique(e1_sample.points)
    assert _quant_error(e1_sample, code, 2.0) == 0.0


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


@pytest.mark.parametrize("seed", [7, 8])
def test_lloyd_finds_the_optimal_cantor_quantizer(e1, seed):
    # Graf-Luschgy (Math. Nachr. 183, 1997): for n = 2^k the optimal order-2
    # codebook of the Cantor measure is the midpoints of the 2^k level-k
    # cylinders, of length 3^-k, and its error is 9^-k / 8
    system, family = e1
    sample = Q.sample_measure(system, family, 200_000, seed=seed)
    for k in range(1, 7):
        words = itertools.product((1, 2), repeat=k)
        mids = np.sort([Q.compose_and_derivative(system, w, system.midpoint)[0] for w in words])
        run = Q.lloyd_optimize(sample, 2 ** k, 2.0)
        assert run.codebook.points.size == 2 ** k
        assert np.max(np.abs(run.codebook.points - mids)) <= 0.05 * 3.0 ** -k, k
        assert run.V_hat == pytest.approx(9.0 ** -k / 8.0, rel=0.01), k


def test_lloyd_error_trace_nonincreasing(e1_sample, monkeypatch):
    # V_hat after at most k Lloyd steps, k = 1 up to the full run's steps.  The
    # split start settles in one step on the Cantor sample, and in 12 to 30
    # steps on uniform draws
    uniform = Q.SampleSet(points=np.random.default_rng(5).random(4000), seed=5, depth=1,
                          truncation=None, deficit=0.0)
    for sample in (e1_sample, uniform):
        for n in (3, 7, 16):
            steps = Q.lloyd_optimize(sample, n, 2.0).iterations
            trace = []
            for k in range(1, steps + 1):
                monkeypatch.setattr(qdim.quantizer, "_MAX_ITER", k)
                trace.append(Q.lloyd_optimize(sample, n, 2.0).V_hat)
            monkeypatch.undo()
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
    run07 = Q.lloyd_optimize(e1_sample, 2, 0.7)
    assert np.all(np.diff(run07.codebook.points) > 0)


def _slope_root(seg: list[float], r: float) -> float:
    """Root of c -> sum sign(c - x) |c - x|^(r - 1) by bisection to adjacent floats, loop form."""
    lo, hi = seg[0], seg[-1]
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if math.fsum(math.copysign(abs(mid - x) ** (r - 1), mid - x) for x in seg) > 0:
            hi = mid
        else:
            lo = mid


def test_cell_centers_match_loop_form():
    # cells [0, 2), [2, 2) (empty), [2, 5), [5, 6), [6, 6) (empty, last)
    pts = np.array([0.1, 0.2, 0.25, 0.4, 0.7, 0.8])
    edges = np.array([0, 2, 2, 5, 6, 6])
    cells = [pts[a:b].tolist() for a, b in zip(edges[:-1], edges[1:])]
    medians, means, lo, hi = np.zeros(5), np.zeros(5), np.zeros(5), np.zeros(5)
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if b > a:
            seg = pts[a:b]
            medians[j] = 0.5 * (seg[(b - a - 1) // 2] + seg[(b - a) // 2])
            means[j] = sum(cells[j]) / len(cells[j])
            lo[j], hi[j] = seg[0], seg[-1]
    assert qdim.quantizer._cell_centers(pts, edges, 1.0, 0.0).tobytes() == medians.tobytes()
    assert qdim.quantizer._cell_centers(pts, edges, 2.0, 0.0).tobytes() == means.tobytes()
    tol = 1e-9
    # r > 1: the slope's root; r < 1: the objective is concave between sample
    # points, so some point of the cell is a minimizer
    centers = qdim.quantizer._cell_centers(pts, edges, 1.5, tol)
    for c, seg in zip(centers, cells):
        assert c == 0.0 if not seg else abs(c - _slope_root(seg, 1.5)) <= tol
    centers = qdim.quantizer._cell_centers(pts, edges, 0.7, tol)
    for c, seg in zip(centers, cells):
        if not seg:
            assert c == 0.0
            continue
        cost = {x: math.fsum(abs(x - y) ** 0.7 for y in seg) for x in seg}
        least = min(cost.values())
        assert any(abs(c - x) <= tol for x in seg if cost[x] <= least * (1 + 1e-12))
    # a tolerance wider than every bracket returns the bracket midpoints untouched
    golden = qdim.quantizer._golden_centers(pts, edges, 1.5, math.inf)
    assert golden.tobytes() == (0.5 * (lo + hi)).tobytes()


def test_lloyd_oversized_codebook_returns_zero():
    sample = Q.SampleSet(points=np.array([0.1, 0.2, 0.3]), seed=0, depth=1,
                         truncation=None, deficit=0.0)
    run = Q.lloyd_optimize(sample, 8, 2.0)
    assert run.V_hat == 0.0
    assert run.converged


def test_lloyd_relocates_an_empty_cell():
    # from the centers (-1, 5, 11) of the cells {-1}, {0, 10}, {11}, the
    # nearest-center partition leaves 5 without a point; the farthest point,
    # 0, takes its place, and one more step settles on (-1, 0, 10.5)
    pts = np.array([-1.0, 0.0, 10.0, 11.0])
    centers = np.array([-1.0, 5.0, 11.0])
    assert qdim.quantizer._cell_edges(pts, centers).tolist() == [0, 2, 2, 4]
    code, v, _, converged = qdim.quantizer._lloyd_once(
        pts, np.array([0, 1, 3, 4]), centers, 2.0, 1e-10 * 12.0)
    assert code.tolist() == [-1.0, 0.0, 10.5]
    assert v == 0.125 and converged


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
                        lambda seg, *buffers: sizes.append(seg.size) or best_split(seg, *buffers))
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
@given(_SEGMENTS, st.sampled_from([1.01, 1.1, 1.5, 2.5, 3.0, 6.0]))
def test_slope_centers_minimize_the_order_r_error(values, r):
    # three cells; the first is empty when the segment has two points
    seg = np.sort(np.array(values))
    L = seg.size
    edges = np.array([0, L // 3, (2 * L) // 3, L])
    tol = 1e-12 * (float(seg[-1] - seg[0]) or 1.0)
    q = qdim.quantizer
    centers = q._cell_centers(seg, edges, r, tol)
    cells = q._cell_index(edges)
    golden = q._golden_centers(seg, edges, r, tol)
    # the order-r error of the partition, which Lloyd lowers
    error = math.fsum(q._segment_objective(seg, cells, centers, r))
    assert error <= math.fsum(q._segment_objective(seg, cells, golden, r)) * (1.0 + 1e-12)
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if a == b:
            assert centers[j] == 0.0
            continue
        c = centers[j]
        assert seg[a] <= c <= seg[b - 1]
        # the slope changes sign within tol, or within one float where tol is finer
        dx = max(tol, float(np.spacing(c)))
        around = np.full(3, c)
        around[j] = c - dx
        below = q._cell_slope(seg, cells, around, r)[j]
        around[j] = c + dx
        above = q._cell_slope(seg, cells, around, r)[j]
        assert below <= 0.0 <= above


def test_slope_centers_need_few_evaluations(monkeypatch):
    # golden-section search takes 66-88 objective passes per call here; near r = 1
    # the slope is almost a step function, where a plain secant took 27-55
    system = Q.gauss_system((1, 2))
    sample = Q.sample_measure(system, Q.derivative_family(DIM_GAUSS2), 20_000, seed=3)
    evals, per_call = [], []
    slope, centers = qdim.quantizer._cell_slope, qdim.quantizer._cell_centers

    def counted(*args):
        start = len(evals)
        out = centers(*args)
        per_call.append(len(evals) - start)
        return out

    monkeypatch.setattr(qdim.quantizer, "_cell_slope", lambda *a: evals.append(1) or slope(*a))
    monkeypatch.setattr(qdim.quantizer, "_cell_centers", counted)
    for r in (1.01, 1.1, 1.5):
        per_call.clear()
        for n in (4, 8, 16, 32, 64):
            Q.lloyd_optimize(sample, n, r)
        assert len(per_call) >= 5
        assert max(per_call) <= 25, r


def _best_split(seg: np.ndarray) -> int:
    """``_best_split`` of a cell with its own prefix sum and buffers."""
    L = seg.size
    return qdim.quantizer._best_split(seg, np.cumsum(seg - seg[0]),
                                      (np.empty(L), np.empty(L), np.arange(1.0, float(L))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_SEGMENTS)
def test_best_split_is_least_sse(values):
    seg = np.sort(np.array(values))
    assume(seg[0] < seg[-1])
    valid = [k for k in range(1, seg.size) if seg[k - 1] < seg[k]]
    sse = {k: _sse(seg[:k].tolist()) + _sse(seg[k:].tolist()) for k in valid}
    least = min(sse.values())
    k = _best_split(seg)
    assert k in sse  # never between equal values
    # the argmin, up to splits whose errors agree within rounding
    slack = 1e-9 * _sse(seg.tolist()) + 1e-300
    assert sse[k] <= least + slack
    if sum(v <= least + slack for v in sse.values()) == 1:
        assert k == min(sse, key=sse.get)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_SEGMENTS, st.lists(st.sampled_from([-1.0, 1.0, 1.0 + 2.0 ** -52]),
                                     min_size=2, max_size=40)))
def test_best_split_equals_the_masked_score(values):
    # every score formed, then the splits between equal values of seg - seg[0]
    # masked: the same index.  With seg[0] = -1, 1 and 1 + 2^-52 differ but
    # round to the same seg - seg[0]
    seg = np.sort(np.array(values))
    assume(seg[0] < seg[-1])
    y = seg - seg[0]
    L = y.size
    s = np.cumsum(y)
    k = np.arange(1, L, dtype=float)
    d = s[:-1] * L - k * s[-1]
    score = d * d / (k * (L - k))
    score[y[1:] == y[:-1]] = -1.0
    assert _best_split(seg) == 1 + int(np.argmax(score))


def _reference_starts(pts: np.ndarray, n: int, r: float) -> list[int]:
    """The greedy split order cell by cell, with a fresh prefix sum of seg - seg[0] per cell."""
    heap, starts = [(0.0, 0, pts.size)], [0]
    while len(starts) < n:
        _, a, b = heapq.heappop(heap)
        seg = pts[a:b]
        L = seg.size
        y = seg - seg[0]
        s = np.cumsum(y)
        k = np.arange(1.0, L)
        d = s[:-1] * L - k * s[-1]
        score = d * d / (k * (L - k))
        score[y[1:] == y[:-1]] = -1.0
        split = 1 + int(np.argmax(score))
        means = np.add.reduceat(seg, [0, split]) / np.array([split, L - split])
        costs = np.add.reduceat(np.abs(seg - np.repeat(means, [split, L - split])) ** r,
                                [0, split])
        for lo, hi, c in ((0, split, costs[0]), (split, L, costs[1])):
            heapq.heappush(heap, (-c if seg[lo] < seg[hi - 1] else math.inf, a + lo, a + hi))
        starts.append(a + split)
    return starts


@pytest.mark.parametrize("grow", ["ascending", "shuffled"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(_SEGMENTS, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       st.lists(st.integers(1, 64), min_size=1, max_size=6))
def test_split_order_equals_the_per_cell_reference(grow, values, r, ns):
    # left halves read their parent's prefix sum; every cut and heap key is unchanged
    pts = np.sort(np.array(values))
    distinct = 1 + int(np.count_nonzero(pts[1:] != pts[:-1]))
    assume(distinct > 1)
    ns = [min(n, distinct - 1) for n in ns]
    if grow == "ascending":
        ns.sort()
    order = qdim.quantizer._SplitOrder(pts.size)
    for n in ns:
        edges = order.edges(pts, n, r)
        assert edges.tolist() == sorted(_reference_starts(pts, n, r)) + [pts.size]
    assert order.starts == _reference_starts(pts, max(ns), r)


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


def test_truncation_comparison_invariant(e3):
    # quantizing the truncated measure is never harder than the full one
    system, family = e3
    N = 20_000
    full = Q.sample_measure(system, family, N, seed=3)
    for M in (2, 4, 8):
        part = Q.sample_measure(system, family, N, truncation=M, seed=3)
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
        rho = np.mean((a - b) ** 2) ** 0.5  # W_2 by the sorted (quantile) coupling
        assert abs(ea - eb) <= rho + 0.02
