"""Codebook optimization and quantization-error scaling.

The order-r quantization error of a codebook is the mean r-th power of
the distance to the nearest code point.  ``lloyd_optimize`` alternates
nearest-point partitions (contiguous cells on a sorted sample) with
per-cell center minimization: the mean for r = 2, the median for r = 1,
for any other r > 1 the root of the increasing slope
sum sign(c - x) |c - x|^(r - 1) by vectorized Illinois regula falsi, and
for r < 1, where the objective is not convex, a golden-section search
after a 64-point pre-scan.  It starts from one deterministic greedy split
of the sorted sample into n contiguous cells; optimal 1-D cells are
contiguous too.

``antichain_codebook`` splits cylinders heaviest first by the weight
m_w |phi_w(X)|^r, with m_w the exact cylinder mass, until a further
split would pass n words; one point per kept cylinder gives a codebook
of at most n points, along which n * V^(kappa/r) stays bounded.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSystemError, NumericalFailure
from .ifs import IfsSystem, Word, compose_and_derivative, cylinder_interval
from .measure import SampleSet, cylinder_mass
from .potentials import PotentialFamily

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Codebook:
    points: np.ndarray
    n: int

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("empty codebook")
        if pts.size > self.n:
            raise ValueError("codebook larger than its cardinality budget")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class QuantizationRun:
    n: int
    r: float
    V_hat: float
    e_hat: float
    codebook: Codebook
    iterations: int
    restarts: int
    converged: bool
    trace: tuple[float, ...] = ()


@dataclass(frozen=True)
class AntichainResult:
    r: float
    n: int
    tau: float               # weight of the heaviest kept word
    words: tuple[Word, ...]
    codebook: Codebook
    cardinality: int


# ---------------------------------------------------------------------------
# error evaluation


def _power_in_place(d: np.ndarray, r: float) -> np.ndarray:
    """|d|^r in d's own buffer; at r = 2 the square, which is what |d| ** 2 computes."""
    if r == 2.0:
        return np.square(d, out=d)
    np.abs(d, out=d)
    d **= r
    return d


def _sorted_errors(pts: np.ndarray, code: np.ndarray, r: float) -> np.ndarray:
    """|x - nearest code point|^r for each x of a sorted sample, from one
    search per code point.

    Point x takes the code point of index #{mids < x} (a tie at a midpoint
    goes to the lower one), so the points of code point j end at
    searchsorted(pts, mids[j], side="right").
    """
    ends = np.searchsorted(pts, 0.5 * (code[1:] + code[:-1]), side="right")
    err = np.repeat(code, np.diff(ends, prepend=0, append=pts.size))
    np.subtract(pts, err, out=err)
    return _power_in_place(err, r)


def quant_error(sample: SampleSet, codebook: Codebook | np.ndarray, r: float) -> float:
    """Mean over the sample of (distance to the nearest code point)^r."""
    pts = sample.points if isinstance(sample, SampleSet) else np.sort(np.asarray(sample, float))
    code = codebook.points if isinstance(codebook, Codebook) else np.sort(np.asarray(codebook, float))
    if code.size == 0:
        raise ValueError("empty codebook")
    if pts.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(_sorted_errors(pts, code, r)))


# ---------------------------------------------------------------------------
# Lloyd iteration


def _cell_edges(pts: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Start indices of each code point's cell in the sorted sample."""
    mids = 0.5 * (code[1:] + code[:-1])
    inner = np.searchsorted(pts, mids, side="left")
    return np.concatenate(([0], inner, [pts.size]))


def _cell_starts(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty-cell mask of a partition and the start index of each nonempty cell.

    Nonempty starts rise strictly and stay below the sample size, so
    ``np.add.reduceat`` at them sums exactly each nonempty cell, also a
    last one followed by empty cells, whose start (the size) it rejects.
    """
    full = np.diff(edges) > 0
    return full, edges[:-1][full]


def _cell_sums(values: np.ndarray, full: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-cell sums of per-point values, 0.0 for an empty cell."""
    sums = np.zeros(full.size)
    sums[full] = np.add.reduceat(values, starts)
    return sums


def _cell_index(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points per cell, nonempty mask, nonempty starts), built once per center solve.

    ``np.repeat(centers, counts)`` gives each point its cell's center.
    """
    return (np.diff(edges),) + _cell_starts(edges)


def _segment_objective(pts: np.ndarray, cells: tuple, centers: np.ndarray,
                       r: float) -> np.ndarray:
    """Per-cell sum of |x - c|^r about the cell's center c."""
    counts, full, starts = cells
    return _cell_sums(np.abs(pts - np.repeat(centers, counts)) ** r, full, starts)


def _cell_slope(pts: np.ndarray, cells: tuple, centers: np.ndarray, r: float) -> np.ndarray:
    """Per-cell slope sum_x sign(c - x) |c - x|^(r - 1) of the order-r objective, over r."""
    counts, full, starts = cells
    d = np.repeat(centers, counts) - pts
    terms = np.abs(d)
    terms **= r - 1.0
    return _cell_sums(np.copysign(terms, d, out=terms), full, starts)


def _cell_points(pts: np.ndarray, edges: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """pts[idx[j]] for each nonempty cell j, 0.0 for an empty one (fixed by the caller)."""
    return np.where(np.diff(edges) > 0, pts[np.clip(idx, 0, pts.size - 1)], 0.0)


def _splittable(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Brackets with a float strictly inside; one down to adjacent floats cannot narrow."""
    mid = 0.5 * (lo + hi)
    return (lo < mid) & (mid < hi)


def _golden_centers(pts: np.ndarray, edges: np.ndarray, r: float,
                    tol: float) -> np.ndarray:
    """Per-cell golden-section minimization of c -> sum |x - c|^r, vectorized.

    The objective is not convex for r < 1, so a 64-point pre-scan
    narrows each bracket before the local search.  Each bracket is the
    cell's span; the search stops when every bracket is at most tol wide
    or down to adjacent floats.
    """
    cells = _cell_index(edges)
    lo = _cell_points(pts, edges, edges[:-1])
    hi = _cell_points(pts, edges, edges[1:] - 1)
    if r < 1.0:
        best = lo.copy()
        best_val = _segment_objective(pts, cells, best, r)
        for frac in np.linspace(0.0, 1.0, 64):
            cand = lo + frac * (hi - lo)
            val = _segment_objective(pts, cells, cand, r)
            better = val < best_val
            best[better] = cand[better]
            best_val[better] = val[better]
        width = (hi - lo) / 63.0
        lo = np.maximum(lo, best - width)
        hi = np.minimum(hi, best + width)
    while np.max(hi - lo, where=_splittable(lo, hi), initial=0.0) > tol:
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = _segment_objective(pts, cells, x1, r)
        f2 = _segment_objective(pts, cells, x2, r)
        take_left = f1 < f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    return 0.5 * (lo + hi)


def _slope_centers(pts: np.ndarray, edges: np.ndarray, r: float, tol: float) -> np.ndarray:
    """Per-cell root of the increasing order-r slope, for r > 1, vectorized.

    For r > 1 the objective c -> sum |x - c|^r is strictly convex, and its
    minimizer is the one root of g(c) = sum sign(c - x) |c - x|^(r - 1)
    (Graf-Luschgy, Foundations of Quantization, 2000).  g <= 0 at the
    cell's first point and g >= 0 at its last, so that span brackets the
    root in every cell.  For r < 2 the root usually lies between the
    cell's median (the r = 1 center) and its mean (r = 2), so the bracket
    starts there; where g has one sign on both, it runs from the nearer
    of them to the span's end, whose slope is known only by its sign, so
    the first step there is a bisection.

    Illinois regula falsi narrows all brackets at once, as
    ``pressure._root_decreasing`` does for one: the secant through the
    bracket ends, with the value kept at an end that survives twice in a
    row halved; the midpoint when the secant is NaN or leaves the bracket
    and after four steps in a row that did not halve it; a step shorter
    than tol / 2 moves the nearer end by tol / 2 instead.  For r < 2 the
    slope is infinitely steep at every sample point, and near r = 1 it is
    almost a step function, which secant steps approach slowly; so while a
    bracket holds sample points, a step goes to the one nearest the secant
    (and the midpoint to their middle one), and each step drops at least
    one of them.  A cell stops once its bracket is at most tol wide (or
    down to adjacent floats).  Its center is the secant root through the
    last bracket's ends, or a sample point inside the bracket where that
    has a lower error: a root at a sample point is that point to within
    rounding.
    """
    cells = _cell_index(edges)
    first = _cell_points(pts, edges, edges[:-1])
    last = _cell_points(pts, edges, edges[1:] - 1)
    rough = r < 2.0
    if rough:
        median, mean = _cell_centers(pts, edges, 1.0, tol), _cell_centers(pts, edges, 2.0, tol)
        lo, hi = np.minimum(median, mean), np.maximum(median, mean)
    else:
        lo, hi = first, last
    g_lo = _cell_slope(pts, cells, lo, r)
    g_hi = _cell_slope(pts, cells, hi, r)
    below, above = g_lo > 0.0, g_hi < 0.0   # the root lies outside [lo, hi]
    lo, hi, g_lo, g_hi = (np.where(below, first, np.where(above, hi, lo)),
                          np.where(below, lo, np.where(above, last, hi)),
                          np.where(below, np.nan, np.where(above, g_hi, g_lo)),
                          np.where(below, g_lo, np.where(above, np.nan, g_hi)))
    w_lo, w_hi = g_lo, g_hi                 # secant weights
    side = np.zeros(lo.size)                # +1 after hi moved, -1 after lo moved
    width, slow = hi - lo, np.zeros(lo.size, dtype=int)
    active, step = width > tol, 0.5 * tol
    top = pts.size - 1
    while active.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo - w_lo * (hi - lo) / (w_hi - w_lo)
        # indices of the first and last sample point strictly inside each bracket
        inner_lo = np.searchsorted(pts, lo, side="right")
        inner_hi = np.searchsorted(pts, hi, side="left") - 1
        inner = rough & (inner_lo <= inner_hi)
        middle = np.where(inner, pts[np.minimum((inner_lo + inner_hi) // 2, top)],
                          0.5 * (lo + hi))
        x = np.where((slow >= 4) | ~((lo <= x) & (x <= hi)), middle, x)
        x = np.minimum(np.maximum(x, lo + step), hi - step)
        if inner.any():
            near = np.minimum(np.clip(np.searchsorted(pts, x), inner_lo, inner_hi), top)
            left = np.minimum(np.maximum(near - 1, inner_lo), top)
            near = np.where(x - pts[left] < pts[near] - x, left, near)
            x = np.where(inner, pts[near], x)
        v = _cell_slope(pts, cells, x, r)
        up = active & (v >= 0.0)            # the root lies at or below x
        down = active & (v < 0.0)
        w_lo = np.where(down, v, np.where(up & (side > 0), 0.5 * w_lo, w_lo))
        w_hi = np.where(up, v, np.where(down & (side < 0), 0.5 * w_hi, w_hi))
        lo, g_lo = np.where(down, x, lo), np.where(down, v, g_lo)
        hi, g_hi = np.where(up, x, hi), np.where(up, v, g_hi)
        side = np.where(up, 1.0, np.where(down, -1.0, side))
        halved = hi - lo <= 0.5 * width
        width = np.where(halved, hi - lo, width)
        slow = np.where(halved, 0, slow + 1)
        active &= (hi - lo > tol) & _splittable(lo, hi) & (v != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    centers = np.where((lo <= secant) & (secant <= hi), secant, 0.5 * (lo + hi))
    point = pts[np.minimum(np.searchsorted(pts, lo), pts.size - 1)]
    inside = cells[1] & (point <= hi)
    if inside.any():
        on_point = np.where(inside, point, centers)
        lower = (_segment_objective(pts, cells, on_point, r)
                 < _segment_objective(pts, cells, centers, r))
        centers = np.where(lower, on_point, centers)
    return centers


def _cell_centers(pts: np.ndarray, edges: np.ndarray, r: float, tol: float) -> np.ndarray:
    """The order-r center of each contiguous cell of the sorted sample, 0.0 if empty.

    r = 2: the mean; r = 1: the median, the midpoint of the two middle
    values; any other r > 1: the root of the increasing slope
    (``_slope_centers``) and r < 1: a golden-section search after a
    64-point pre-scan (``_golden_centers``), both to within tol.
    """
    if r == 2.0:
        return _cell_sums(pts, *_cell_starts(edges)) / np.maximum(np.diff(edges), 1)
    if r == 1.0:  # the medians
        counts = np.diff(edges)
        start = edges[:-1]
        return 0.5 * (_cell_points(pts, edges, start + (counts - 1) // 2)
                      + _cell_points(pts, edges, start + counts // 2))
    if r > 1.0:
        return _slope_centers(pts, edges, r, tol)
    return _golden_centers(pts, edges, r, tol)


def _fix_empty_cells(pts: np.ndarray, code: np.ndarray, r: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Relocate empty-cell centers onto the farthest sample point (deterministic).

    Returns the code and its cell edges (``_cell_edges``).
    """
    for _ in range(code.size):
        edges = _cell_edges(pts, code)
        empty = np.flatnonzero(np.diff(edges) == 0)
        if empty.size == 0:
            return code, edges
        errs = _sorted_errors(pts, code, r)
        code = code.copy()
        code[empty[0]] = pts[int(np.argmax(errs))]
        code = np.sort(code)
    return code, _cell_edges(pts, code)


def _best_split(seg: np.ndarray, prefix: np.ndarray,
                work: tuple[np.ndarray, np.ndarray, np.ndarray]) -> int:
    """Index splitting a sorted cell into two with the least summed squared error.

    For a split after the first k of L values, the summed squared error
    about the two means is the total about the common mean less the
    between-cells term (s_k L - k t)^2 / (L k (L - k)), s_k the sum of the
    first k values and t the sum of all, so the split maximizes
    (s_k L - k t)^2 / (k (L - k)) (Otsu, IEEE SMC 1979).  One prefix sum
    of seg - seg[0] gives every term, with no s2 - s1^2/k cancellation;
    splits between equal values are excluded.  ``prefix`` is that prefix
    sum (it is only read), and ``work`` the buffers (score, scratch, ranks
    1.0, 2.0, ...) of at least L entries (L - 1 for the ranks).  Scores
    are >= 0, so the first maximum is also the first maximum away from
    equal values unless it lies between two; only then are the splits
    between equal values masked out.
    """
    L = seg.size
    low = seg[0]
    score_buf, tmp_buf, ranks = work
    k = ranks[:L - 1]
    score = np.multiply(prefix[:-1], L, out=score_buf[:L - 1])
    tmp = np.multiply(k, prefix[-1], out=tmp_buf[:L - 1])
    score -= tmp                               # d = s_k L - k t
    np.square(score, out=score)
    score /= np.multiply(k, k[::-1], out=tmp)  # k (L - k), exact integers
    best = int(score.argmax())
    if seg[best] - low == seg[best + 1] - low:  # a split between equal values of seg - low
        y = np.subtract(seg, low, out=tmp_buf[:L])
        np.copyto(score, -1.0, where=y[1:] == y[:-1])
        best = int(score.argmax())
    return 1 + best


class _SplitOrder:
    """The greedy split sequence of one sorted sample at one order r, grown on demand.

    Starting from one cell, the cell with the largest order-r cost about
    its mean is split at ``_best_split``; a cell of equal values cannot
    be split and ranks last.  The sequence does not depend on n, so it
    is kept as ``starts``: the start index of each cell in the order the
    splits create it (the whole sample's cell, at 0, first).  The greedy
    partition into n cells is the cells that begin at ``starts[:n]``.

    ``prefix`` has one entry per point; the slice [a, b) of a live cell
    whose heap entry says so holds cumsum(pts[a:b] - pts[a]).  A left
    half starts where its parent starts, and the cumulative sum adds in
    order, so its prefix sum is the first part of its parent's, bit for
    bit; only the whole sample and a right half get a fresh one, when
    popped.
    """

    def __init__(self, size: int):
        self.heap = [(0.0, 0, size, False)]  # (-order-r cost, start, stop, prefix valid)
        self.starts = [0]
        self.prefix = np.empty(size)
        # the cell's scores, then its per-point costs; scratch; the ranks 1.0, 2.0, ...
        self.work = np.empty(size), np.empty(size), np.arange(1.0, float(size))

    def edges(self, pts: np.ndarray, n: int, r: float) -> np.ndarray:
        """Edges of the first n greedy cells; n must be below the distinct count."""
        while len(self.starts) < n:
            _, a, b, valid = heapq.heappop(self.heap)
            seg = pts[a:b]
            prefix = self.prefix[a:b]
            if not valid:
                np.subtract(seg, seg[0], out=prefix)
                prefix.cumsum(out=prefix)
            split = _best_split(seg, prefix, self.work)
            halves = np.array([0, split])
            sums = np.add.reduceat(seg, halves).tolist()
            cost = self.work[0][:b - a]
            np.subtract(seg[:split], sums[0] / split, out=cost[:split])
            np.subtract(seg[split:], sums[1] / (b - a - split), out=cost[split:])
            costs = np.add.reduceat(_power_in_place(cost, r), halves).tolist()
            for lo, hi, c in ((0, split, costs[0]), (split, b - a, costs[1])):
                key = -c if seg[lo] < seg[hi - 1] else math.inf
                heapq.heappush(self.heap, (key, a + lo, a + hi, lo == 0))
            self.starts.append(a + split)
        return np.array(sorted(self.starts[:n]) + [pts.size])


# sample -> (distinct value count, {r: _SplitOrder}); an entry goes when its sample does
_SPLIT_ORDERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _split_orders(sample: SampleSet) -> tuple[int, dict]:
    """The sample's distinct value count and its split sequences by order r."""
    entry = _SPLIT_ORDERS.get(sample)
    if entry is None:
        pts = sample.points
        entry = _SPLIT_ORDERS[sample] = (1 + int(np.count_nonzero(pts[1:] != pts[:-1])), {})
    return entry


def _lloyd_once(pts: np.ndarray, edges: np.ndarray, centers: np.ndarray, r: float,
                max_iter: int, center_tol: float
                ) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Lloyd iteration from the order-r centers of a contiguous partition.

    Centers are a pure function of (edges, r), so a partition that
    repeats reuses the centers already computed for it.
    """
    trace: list[float] = []
    converged = False
    code = centers
    it = 0
    for it in range(1, max_iter + 1):
        code, new_edges = _fix_empty_cells(pts, code, r)
        if not np.array_equal(new_edges, edges):
            edges = new_edges
            centers = _cell_centers(pts, edges, r, center_tol)
        counts = np.diff(edges)
        new_code = np.sort(np.where(counts > 0, centers, code))
        trace.append(float(np.mean(_sorted_errors(pts, new_code, r))))
        done = np.max(np.abs(new_code - code)) <= center_tol
        code = new_code
        if done:
            converged = True
            break
    return code, trace[-1], it, converged, trace


def lloyd_optimize(sample: SampleSet, n: int, r: float = 2.0,
                   max_iter: int = 60) -> QuantizationRun:
    """Lloyd optimization of an n-point codebook from a greedy split start.

    The start is the order-r centers of the first n cells of the
    sample's greedy split sequence (``_SplitOrder``): a deterministic
    contiguous partition of the sorted sample, so the same sample always
    gives the same codebook.  The sequence is grown once per sample and
    order r and shared by every n.
    """
    if n < 1:
        raise ValueError("codebook size must be >= 1")
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"the order r must be finite and positive, got {r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    pts = sample.points
    distinct, orders = _split_orders(sample)
    if n >= distinct:
        code = Codebook(pts[np.concatenate(([True], pts[1:] != pts[:-1]))], n)
        return QuantizationRun(n=n, r=r, V_hat=0.0, e_hat=0.0, codebook=code,
                               iterations=0, restarts=0, converged=True)
    span = float(pts[-1] - pts[0]) or 1.0
    center_tol = 1e-10 * span
    order = orders.get(r)
    if order is None:
        order = orders[r] = _SplitOrder(pts.size)
    edges = order.edges(pts, n, r)
    centers = _cell_centers(pts, edges, r, center_tol)
    code, v, iters, converged, trace = _lloyd_once(pts, edges, centers, r, max_iter,
                                                   center_tol)
    return QuantizationRun(n=n, r=r, V_hat=v, e_hat=v ** (1.0 / r),
                           codebook=Codebook(code, n), iterations=iters,
                           restarts=1, converged=converged, trace=tuple(trace))


# ---------------------------------------------------------------------------
# the antichain codebook


def antichain_codebook(system: IfsSystem, family: PotentialFamily, r: float, n: int,
                       truncation: int | None = None) -> AntichainResult:
    """The threshold antichain of at most n cylinders, one code point in each.

    A word w weighs m_w |I_w|^r, with m_w the exact mass of the
    (truncated) system's measure and I_w = phi_w(X).  From the empty word
    on, the heaviest word is split into its N children while the word
    count stays at most n.  Children weigh no more than their parent, so
    every kept word weighs at most tau, the heaviest kept weight, and
    every split word weighed at least tau.  The code points are
    phi_w(midpoint of X).
    """
    if n < 1:
        raise ValueError("codebook budget must be >= 1")
    N = system.truncated_size(truncation)
    if N is None:
        raise ValueError("infinite alphabets need a truncation for the antichain")
    if N == 1:
        raise DegenerateSystemError("a one-symbol alphabet splits its cylinder forever")

    def entry(word: Word) -> tuple[float, Word]:
        lo, hi = cylinder_interval(system, word)
        mass = cylinder_mass(system, family, word, truncation=truncation)
        return -mass * (hi - lo) ** r, word

    heap = [entry(())]
    while len(heap) + N - 1 <= n:
        _, w = heapq.heappop(heap)
        for i in range(1, N + 1):
            heapq.heappush(heap, entry(w + (i,)))
    words = sorted(w for _, w in heap)
    points = np.array([compose_and_derivative(system, w, system.midpoint)[0] for w in words])
    return AntichainResult(r=r, n=n, tau=-heap[0][0], words=tuple(words),
                           codebook=Codebook(points, n), cardinality=len(words))


# ---------------------------------------------------------------------------
# dimension estimation from error scaling


def estimate_Dr(runs: Sequence[QuantizationRun],
                kappa_hint: float | None = None) -> tuple[float, dict]:
    """Log-log regression of the error sequence: D_hat = -r / slope.

    Also emits the coefficient series n * V^(t/r) around the hint so the
    bounded/divergent dichotomy of the scaling criteria is visible.
    """
    if len(runs) < 2:
        raise ValueError("need at least two runs at distinct codebook sizes")
    rs = {run.r for run in runs}
    if len(rs) != 1:
        raise ValueError("runs must share the same order r")
    r = rs.pop()
    ns = np.array([run.n for run in runs], dtype=float)
    vs = np.array([run.V_hat for run in runs], dtype=float)
    if len(np.unique(ns)) < len(ns):
        raise ValueError("codebook sizes must be distinct")
    if np.any(vs <= 0):
        # a sample with no more distinct points than a codebook size: a
        # numerical outcome, not bad input
        raise NumericalFailure("nonpositive error estimates cannot be regressed")
    slope, intercept = np.polyfit(np.log(ns), np.log(vs), 1)
    D_hat = -r / slope
    diagnostics: dict = {
        "slope": float(slope),
        "intercept": float(intercept),
        "n": [int(v) for v in ns],
        "V_hat": [float(v) for v in vs],
    }
    if kappa_hint is not None:
        series = {}
        for t in (0.9 * kappa_hint, kappa_hint, 1.1 * kappa_hint):
            series[f"{t:.6f}"] = [float(n * v ** (t / r)) for n, v in zip(ns, vs)]
        diagnostics["coefficient_series"] = series
    return float(D_hat), diagnostics
