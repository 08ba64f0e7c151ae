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


def _golden_centers(pts: np.ndarray, edges: np.ndarray, r: float,
                    tol: float) -> np.ndarray:
    """Per-cell golden-section minimization of c -> sum |x - c|^r, vectorized.

    Convex for r >= 1; for r < 1 a 64-point pre-scan narrows each
    bracket before the local search.
    """
    k = edges.size - 1
    lo = np.empty(k)
    hi = np.empty(k)
    for j in range(k):
        a, b = edges[j], edges[j + 1]
        if b > a:
            lo[j], hi[j] = pts[a], pts[b - 1]
        else:
            lo[j] = hi[j] = 0.0  # empty cells are fixed by the caller
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
    if r == 1.0:
        centers = np.zeros(counts.size)
        for j in range(counts.size):
            a, b = edges[j], edges[j + 1]
            if b > a:
                seg = pts[a:b]
                centers[j] = 0.5 * (seg[(b - a - 1) // 2] + seg[(b - a) // 2])
        return centers
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

    Prefix sums of seg - seg[0] give both halves' errors for every split
    in one pass; splits between equal values are excluded.
    """
    y = seg - seg[0]
    k = np.arange(1, y.size)
    s1 = np.cumsum(y)[:-1]
    s2 = np.cumsum(y * y)[:-1]
    t1, t2 = s1[-1] + y[-1], s2[-1] + y[-1] * y[-1]
    sse = s2 - s1 * s1 / k + (t2 - s2) - (t1 - s1) ** 2 / (y.size - k)
    sse[y[1:] == y[:-1]] = np.inf
    return 1 + int(np.argmin(sse))


def _split_start(pts: np.ndarray, n: int, r: float, tol: float) -> np.ndarray:
    """Centers of n contiguous cells grown by greedy splits of the sorted sample.

    Starting from one cell, the cell with the largest order-r cost about
    its mean is split at ``_best_split`` until there are n cells; only
    the final centers are order-r optimal.  A cell of equal values
    cannot be split and ranks last; the caller guarantees n is below the
    number of distinct values, so a splittable cell remains.
    """
    heap = [(0.0, 0, pts.size)]  # (-order-r cost, start, stop)
    while len(heap) < n:
        _, a, b = heapq.heappop(heap)
        seg = pts[a:b]
        edges = np.array([0, _best_split(seg), b - a])
        costs = _segment_objective(seg, edges, _cell_centers(seg, edges, 2.0, tol), r)
        for lo, hi, cost in zip(edges[:-1], edges[1:], costs):
            key = -cost if seg[lo] < seg[hi - 1] else math.inf
            heapq.heappush(heap, (key, a + int(lo), a + int(hi)))
    edges = np.array(sorted(start for _, start, _ in heap) + [pts.size])
    return _cell_centers(pts, edges, r, tol)


def _lloyd_once(pts: np.ndarray, code: np.ndarray, r: float, max_iter: int,
                center_tol: float) -> tuple[np.ndarray, float, int, bool, list[float]]:
    trace: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        code = _fix_empty_cells(pts, code, r)
        edges = _cell_edges(pts, code)
        centers = _cell_centers(pts, edges, r, center_tol)
        counts = np.diff(edges)
        centers = np.where(counts > 0, centers, code)
        new_code = np.sort(centers)
        v = float(np.mean(_nearest_errors(pts, new_code, r)))
        trace.append(v)
        if np.max(np.abs(new_code - code)) <= center_tol:
            code = new_code
            converged = True
            break
        code = new_code
    v = float(np.mean(_nearest_errors(pts, code, r)))
    return code, v, it, converged, trace


def lloyd_optimize(sample: SampleSet, n: int, r: float = 2.0,
                   max_iter: int = 60) -> QuantizationRun:
    """Lloyd optimization of an n-point codebook from a greedy split start.

    The start is ``_split_start``: a deterministic contiguous partition
    of the sorted sample, so the same sample always gives the same
    codebook.
    """
    if n < 1:
        raise ValueError("codebook size must be >= 1")
    pts = sample.points
    distinct = np.unique(pts)
    span = float(pts[-1] - pts[0]) or 1.0
    center_tol = 1e-10 * span
    if n >= distinct.size:
        code = Codebook(distinct, n)
        return QuantizationRun(n=n, r=r, V_hat=0.0, e_hat=0.0, codebook=code,
                               iterations=0, restarts=0, converged=True)
    init = _split_start(pts, n, r, center_tol)
    code, v, iters, converged, trace = _lloyd_once(pts, init, r, max_iter, center_tol)
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
    L/(n rho_N) and retained once it drops to the threshold; their
    parents stay above it, so the retained set is a finite maximal
    antichain.  The threshold constants use eta = kappa_r/(r+kappa_r),
    L = (C K^r)^eta and the conservative rho_N built from the smallest
    depth-1 mass and the weakest contraction of the sorted subsystem.
    """
    if n < 1:
        raise ValueError("codebook budget must be >= 1")
    if isinstance(system.alphabet, FiniteAlphabet):
        N = system.alphabet.size if truncation is None else min(truncation, system.alphabet.size)
    else:
        if truncation is None:
            raise ValueError("infinite alphabets need a truncation for the antichain")
        N = truncation
    if kappa_r is None:
        M_ref = None if isinstance(system.alphabet, FiniteAlphabet) else N
        kappa_r = solve_quantization_dim(system, family, r, truncation=M_ref).kappa_r

    order = _sorted_symbols(system, N)
    eta = kappa_r / (r + kappa_r)
    C = ratio_bound(family, system)
    K = system.K
    L = (C * K ** r) ** eta
    level1 = {i: cylinder_mass(system, family, (i,), truncation=N).midpoint for i in order}
    norm_last, _ = derivative_sup_norm(system, (order[-1],))
    rho_N = (C ** -3 * K ** -r * min(level1.values()) * norm_last ** r) ** eta
    log_tau = math.log(L) - math.log(n) - math.log(rho_N)

    def log_weight(word: Word) -> float:
        mass = cylinder_mass(system, family, word, truncation=N).midpoint
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
