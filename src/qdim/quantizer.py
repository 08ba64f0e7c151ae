"""Codebook optimization and quantization-error scaling.

The order-r quantization error of a codebook is the mean r-th power of
the distance to the nearest code point.  ``lloyd_optimize`` alternates
nearest-point partitions (contiguous cells on a sorted sample) with
per-cell center minimization: the mean for r = 2, the median for r = 1,
a golden-section search on the convex 1-D objective otherwise.  It
starts from one deterministic greedy split of the sorted sample into n
contiguous cells; optimal 1-D cells are contiguous too.

``antichain_codebook`` builds the prefix-free cylinder family whose
weights (mass * ||phi'||^r)^eta straddle a size-n threshold; one
representative point per retained word yields a codebook of cardinality
at most n, and the scaled error series n * V^(kappa/r) along these
codebooks stays bounded.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalFailure
from .ifs import (FiniteAlphabet, IfsSystem, Word, compose_and_derivative,
                  derivative_sup_norm)
from .measure import SampleSet, cylinder_mass
from .potentials import PotentialFamily, ratio_bound
from .pressure import solve_quantization_dim

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
    eta: float
    L: float
    rho_N: float
    words: tuple[Word, ...]
    codebook: Codebook
    cardinality: int


# ---------------------------------------------------------------------------
# error evaluation


def _nearest_errors(pts: np.ndarray, code: np.ndarray, r: float) -> np.ndarray:
    mids = 0.5 * (code[1:] + code[:-1])
    idx = np.searchsorted(mids, pts)
    return np.abs(pts - code[idx]) ** r


def quant_error(sample: SampleSet, codebook: Codebook | np.ndarray, r: float) -> float:
    """Mean over the sample of (distance to the nearest code point)^r."""
    pts = sample.points if isinstance(sample, SampleSet) else np.asarray(sample, float)
    code = codebook.points if isinstance(codebook, Codebook) else np.sort(np.asarray(codebook, float))
    if code.size == 0:
        raise ValueError("empty codebook")
    if pts.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(_nearest_errors(pts, code, r)))


# ---------------------------------------------------------------------------
# Lloyd iteration


def _cell_edges(pts: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Start indices of each code point's cell in the sorted sample."""
    mids = 0.5 * (code[1:] + code[:-1])
    inner = np.searchsorted(pts, mids, side="left")
    return np.concatenate(([0], inner, [pts.size]))


def _segment_objective(pts: np.ndarray, edges: np.ndarray, centers: np.ndarray,
                       r: float) -> np.ndarray:
    cell_of = np.repeat(np.arange(centers.size), np.diff(edges))
    costs = np.abs(pts - centers[cell_of]) ** r
    return np.add.reduceat(costs, edges[:-1]) * (np.diff(edges) > 0)


def _cell_points(pts: np.ndarray, edges: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """pts[idx[j]] for each nonempty cell j, 0.0 for an empty one (fixed by the caller)."""
    return np.where(np.diff(edges) > 0, pts[np.clip(idx, 0, pts.size - 1)], 0.0)


def _golden_centers(pts: np.ndarray, edges: np.ndarray, r: float,
                    tol: float) -> np.ndarray:
    """Per-cell golden-section minimization of c -> sum |x - c|^r, vectorized.

    Convex for r >= 1; for r < 1 a 64-point pre-scan narrows each
    bracket before the local search.  Each bracket is the cell's span.
    """
    lo = _cell_points(pts, edges, edges[:-1])
    hi = _cell_points(pts, edges, edges[1:] - 1)
    if r < 1.0:
        best = lo.copy()
        best_val = _segment_objective(pts, edges, best, r)
        for frac in np.linspace(0.0, 1.0, 64):
            cand = lo + frac * (hi - lo)
            val = _segment_objective(pts, edges, cand, r)
            better = val < best_val
            best[better] = cand[better]
            best_val[better] = val[better]
        width = (hi - lo) / 63.0
        lo = np.maximum(lo, best - width)
        hi = np.minimum(hi, best + width)
    while np.max(hi - lo) > tol:
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = _segment_objective(pts, edges, x1, r)
        f2 = _segment_objective(pts, edges, x2, r)
        take_left = f1 < f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    return 0.5 * (lo + hi)


def _cell_centers(pts: np.ndarray, edges: np.ndarray, r: float, tol: float) -> np.ndarray:
    counts = np.diff(edges)
    if r == 2.0:
        sums = np.add.reduceat(pts, edges[:-1]) * (counts > 0)
        return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    if r == 1.0:  # the medians
        start = edges[:-1]
        return 0.5 * (_cell_points(pts, edges, start + (counts - 1) // 2)
                      + _cell_points(pts, edges, start + counts // 2))
    return _golden_centers(pts, edges, r, tol)


def _fix_empty_cells(pts: np.ndarray, code: np.ndarray, r: float) -> np.ndarray:
    """Relocate empty-cell centers onto the farthest sample point (deterministic)."""
    for _ in range(code.size):
        edges = _cell_edges(pts, code)
        counts = np.diff(edges)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return code
        errs = _nearest_errors(pts, code, r)
        code = code.copy()
        code[empty[0]] = pts[int(np.argmax(errs))]
        code = np.sort(code)
    return code


def _best_split(seg: np.ndarray) -> int:
    """Index splitting a sorted cell into two with the least summed squared error.

    For a split after the first k of L values, the summed squared error
    about the two means is the total about the common mean less the
    between-cells term (s_k L - k t)^2 / (L k (L - k)), s_k the sum of the
    first k values and t the sum of all, so the split maximizes
    (s_k L - k t)^2 / (k (L - k)) (Otsu, IEEE SMC 1979).  One prefix sum
    of seg - seg[0] gives every term, with no s2 - s1^2/k cancellation;
    splits between equal values are excluded.
    """
    y = seg - seg[0]
    L = y.size
    s = np.cumsum(y)
    k = np.arange(1, L, dtype=float)
    d = s[:-1] * L - k * s[-1]
    score = d * d / (k * (L - k))
    score[y[1:] == y[:-1]] = -1.0
    return 1 + int(np.argmax(score))


class _SplitOrder:
    """The greedy split sequence of one sorted sample at one order r, grown on demand.

    Starting from one cell, the cell with the largest order-r cost about
    its mean is split at ``_best_split``; a cell of equal values cannot
    be split and ranks last.  The sequence does not depend on n, so it
    is kept as ``starts``: the start index of each cell in the order the
    splits create it (the whole sample's cell, at 0, first).  The greedy
    partition into n cells is the cells that begin at ``starts[:n]``.
    """

    def __init__(self, size: int):
        self.heap = [(0.0, 0, size)]  # (-order-r cost, start, stop)
        self.starts = [0]

    def edges(self, pts: np.ndarray, n: int, r: float) -> np.ndarray:
        """Edges of the first n greedy cells; n must be below the distinct count."""
        while len(self.starts) < n:
            _, a, b = heapq.heappop(self.heap)
            seg = pts[a:b]
            split = _best_split(seg)
            edges = np.array([0, split, b - a])
            # the means; the center tolerance is unused at r = 2
            costs = _segment_objective(seg, edges, _cell_centers(seg, edges, 2.0, 0.0), r)
            for lo, hi, cost in zip(edges[:-1], edges[1:], costs):
                key = -cost if seg[lo] < seg[hi - 1] else math.inf
                heapq.heappush(self.heap, (key, a + int(lo), a + int(hi)))
            self.starts.append(a + split)
        return np.array(sorted(self.starts[:n]) + [pts.size])


# sample -> {r: _SplitOrder}; an entry goes when its sample does
_SPLIT_ORDERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
        code = _fix_empty_cells(pts, code, r)
        new_edges = _cell_edges(pts, code)
        if not np.array_equal(new_edges, edges):
            edges = new_edges
            centers = _cell_centers(pts, edges, r, center_tol)
        counts = np.diff(edges)
        new_code = np.sort(np.where(counts > 0, centers, code))
        trace.append(float(np.mean(_nearest_errors(pts, new_code, r))))
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
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    pts = sample.points
    rises = pts[1:] != pts[:-1]
    if n > np.count_nonzero(rises):  # n >= the number of distinct values
        code = Codebook(pts[np.concatenate(([True], rises))], n)
        return QuantizationRun(n=n, r=r, V_hat=0.0, e_hat=0.0, codebook=code,
                               iterations=0, restarts=0, converged=True)
    span = float(pts[-1] - pts[0]) or 1.0
    center_tol = 1e-10 * span
    order = _SPLIT_ORDERS.setdefault(sample, {}).setdefault(r, _SplitOrder(pts.size))
    edges = order.edges(pts, n, r)
    centers = _cell_centers(pts, edges, r, center_tol)
    code, v, iters, converged, trace = _lloyd_once(pts, edges, centers, r, max_iter,
                                                   center_tol)
    return QuantizationRun(n=n, r=r, V_hat=v, e_hat=v ** (1.0 / r),
                           codebook=Codebook(code, n), iterations=iters,
                           restarts=1, converged=converged, trace=tuple(trace))


# ---------------------------------------------------------------------------
# the antichain codebook


def _sorted_symbols(system: IfsSystem, N: int) -> list[int]:
    norms = []
    for i in range(1, N + 1):
        norm, _ = derivative_sup_norm(system, (i,))
        norms.append((i, norm))
    norms.sort(key=lambda p: (-p[1], p[0]))
    return [i for i, _ in norms]


def antichain_codebook(system: IfsSystem, family: PotentialFamily, r: float, n: int,
                       truncation: int | None = None,
                       kappa_r: float | None = None) -> AntichainResult:
    """Prefix-free cylinder codebook of cardinality at most n.

    Words are split while their weight (mass * ||phi'||^r)^eta exceeds
    L/(n rho_N) and retained once it drops to the threshold, with the
    exact m_F mass of the subsystem over symbols 1..N; their
    parents stay above it, so the retained set is a finite maximal
    antichain.  The threshold constants use eta = kappa_r/(r+kappa_r),
    L = (C K^r)^eta and the conservative rho_N built from the smallest
    depth-1 mass and the weakest contraction of the sorted subsystem.
    """
    if n < 1:
        raise ValueError("codebook budget must be >= 1")
    N = system.truncated_size(truncation)
    if N is None:
        raise ValueError("infinite alphabets need a truncation for the antichain")
    if kappa_r is None:
        M_ref = None if isinstance(system.alphabet, FiniteAlphabet) else N
        kappa_r = solve_quantization_dim(system, family, r, truncation=M_ref).kappa_r

    order = _sorted_symbols(system, N)
    eta = kappa_r / (r + kappa_r)
    C = ratio_bound(family, system)
    K = system.K
    L = (C * K ** r) ** eta
    level1 = {i: cylinder_mass(system, family, (i,), truncation=N) for i in order}
    norm_last, _ = derivative_sup_norm(system, (order[-1],))
    rho_N = (C ** -3 * K ** -r * min(level1.values()) * norm_last ** r) ** eta
    log_tau = math.log(L) - math.log(n) - math.log(rho_N)

    def log_weight(word: Word) -> float:
        mass = cylinder_mass(system, family, word, truncation=N)
        dnorm, _ = derivative_sup_norm(system, word)
        return eta * (math.log(mass) + r * math.log(dnorm))

    words: list[Word] = []
    stack: list[Word] = [(i,) for i in order]
    while stack:
        w = stack.pop()
        if len(w) > 1000:
            raise NumericalFailure("antichain expansion did not terminate")
        if log_weight(w) <= log_tau + 1e-12:
            words.append(w)
        else:
            stack.extend(w + (i,) for i in order)

    if len(words) > n:
        raise NumericalFailure(
            f"antichain cardinality {len(words)} exceeded the budget {n}"
        )
    points = np.array([compose_and_derivative(system, w, system.midpoint)[0] for w in words])
    return AntichainResult(r=r, n=n, eta=eta, L=L, rho_N=rho_N,
                           words=tuple(sorted(words)),
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
        raise ValueError("nonpositive error estimates cannot be regressed")
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
