"""Two-parameter topological pressure and the temperature function.

P(q, t) is the exponential growth rate of the word sums

    sum over |w| = n of  ||exp(S_w(F))||^q * ||phi_w'||^t .

Symbol-constant families on similarity systems are multiplicative: the
depth-n sum is the n-th power of the single-symbol sum, so P is exact
at every depth.  Otherwise P is the log of the leading eigenvalue of the
transfer operator g -> sum_i exp(q f_i) |phi_i'|^t g o phi_i, collocated
at Chebyshev-Lobatto nodes (Jenkinson-Pollicott; Falk-Nussbaum).

The temperature function beta(q) is the unique zero of t -> P(q, t)
(P is strictly decreasing in t).  The quantization dimension of order r
solves beta(q_r) = r * q_r and equals kappa_r = r * q_r / (1 - q_r).
Since P decreases in t, q_r is also the single root of
g(q) = P(q, r * q), which is found directly, without computing beta.
Both roots come from one safeguarded regula falsi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, DegenerateSystemError, NumericalFailure, WordBudgetError
from .ifs import FiniteAlphabet, IfsSystem, InfiniteAlphabet
from .potentials import (ConstantLogWeights, FiniteWeights, PotentialFamily, _tail_decay,
                         f_value, is_symbol_constant, symbol_log_weight,
                         truncation_tail_bound)

_WORD_BUDGET = 4_000_000  # refuse word trees beyond this many leaves
_NODES = 32               # Chebyshev-Lobatto nodes of the collocated operator
_TOL = 1e-12              # default |P| tolerance of the root solves


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class PressureEstimate:
    q: float
    t: float
    truncation: int | None          # None means the untruncated alphabet
    value: float
    error: float                    # drift from halving the nodes; 0 for closed forms
    finite: bool                    # false when the truncation tail diverges
    tail_bound: float = 0.0         # single-symbol mass beyond the truncation


@dataclass(frozen=True)
class ThetaResult:
    q: float
    theta: float                    # -inf for finite alphabets


@dataclass(frozen=True)
class TemperatureSample:
    qs: tuple[float, ...]
    betas: tuple[float, ...]
    convexity_defect: float         # max(0, -min second difference)


@dataclass(frozen=True)
class QdimSolution:
    r: float
    q_r: float
    kappa_r: float
    D_r: float
    truncation: int | None
    trace: tuple[tuple[float, float], ...]
    degenerate: bool = False


@dataclass(frozen=True)
class SweepEntry:
    M: int
    kappa: float
    degenerate: bool


@dataclass(frozen=True)
class SweepResult:
    r: float
    entries: tuple[SweepEntry, ...]
    kappa_ref: float | None
    final_gap: float | None


@dataclass(frozen=True)
class FigureData:
    r: float
    qs: tuple[float, ...]
    betas: tuple[float, ...]
    line: tuple[float, ...]
    alphas: tuple[float, ...]
    f_alphas: tuple[float, ...]
    q_r: float
    intersection: tuple[float, float]
    intercept: float

    def rows(self):
        for row in zip(self.qs, self.betas, self.line, self.alphas, self.f_alphas):
            yield row


# ---------------------------------------------------------------------------
# closed forms for multiplicative systems


def _lse(v: np.ndarray) -> float:
    """log(sum(exp(v))), shifted by the maximum; +inf or nan pass through."""
    m = float(np.max(v, initial=-math.inf))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(v - m))))


@lru_cache(maxsize=16)
def _symbol_logs(system: IfsSystem, family: PotentialFamily,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol (log||e^{f_i}||, log||phi_i'||) for i = 1..n."""
    a = np.array([symbol_log_weight(family, system, i) for i in range(1, n + 1)])
    d = np.array([math.log(system.map(i).deriv_sup) for i in range(1, n + 1)])
    a.flags.writeable = False
    d.flags.writeable = False
    return a, d


def is_multiplicative(system: IfsSystem, family: PotentialFamily) -> bool:
    """Symbol-constant potentials on similarity maps: word sums factor exactly."""
    if not is_symbol_constant(family, system):
        return False
    if isinstance(system.alphabet, InfiniteAlphabet):
        return system.geometric_ratio is not None
    from .ifs import Similarity1D
    return all(isinstance(m, Similarity1D) for m in system.alphabet.maps)


def _single_symbol_logsum(system: IfsSystem, family: PotentialFamily, q: float,
                          t: float, M: int | None) -> float:
    """log sum_i ||e^{f_i}||^q * ||phi_i'||^t with geometric closed forms.

    Returns +inf when the untruncated series diverges.
    """
    if isinstance(system.alphabet, FiniteAlphabet):
        n = system.alphabet.size if M is None else min(M, system.alphabet.size)
        a, d = _symbol_logs(system, family, n)
        return _lse(q * a + t * d)

    rho = system.geometric_ratio
    if rho is None:
        raise ValueError("closed-form sums need geometric similarity structure")
    log_rho = math.log(rho)
    if isinstance(family, ConstantLogWeights):
        w = family.weights
        if isinstance(w, FiniteWeights):
            raise ValueError("finite weight table on an infinite alphabet")
        # log p_i = log(1-w) + (i-1) log w;  log ratio_i = i log rho
        A = q * (math.log1p(-w.ratio) - math.log(w.ratio) - family.shift)
        B = q * math.log(w.ratio) + t * log_rho
    else:
        A = -q * family.shift
        B = q * family.s_exp * log_rho + t * log_rho
    # sum_{i=1..M} e^{A + B i}
    if M is None:
        if B >= 0.0:
            return math.inf
        return A + B - math.log1p(-math.exp(B))
    if abs(B) < 1e-300:
        return A + math.log(M)
    if B > 0:
        return A + B * M + math.log1p(-math.exp(-B * M)) - math.log1p(-math.exp(-B))
    return A + B + math.log1p(-math.exp(B * M)) - math.log1p(-math.exp(B))


# ---------------------------------------------------------------------------
# word-tree sup arrays (the depth-n definition, general systems)


def _tree_sup_arrays(system: IfsSystem, family: PotentialFamily, M: int,
                     depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-word sup arrays at a fixed depth over the truncated alphabet.

    Returns (B, D) with B[w] = log||exp(S_w(F))|| and
    D[w] = log||phi_w'||, both as grid maxima.  Words are built by
    prepending symbols, which keeps every update a single vectorized
    pass: for w -> i+w,

        values_{iw} = phi_i(values_w)
        logderiv_{iw} = log|phi_i'(values_w)| + logderiv_w
        birkhoff_{iw} = f_i(values_w) + birkhoff_w .
    """
    if M ** depth > _WORD_BUDGET:
        raise WordBudgetError(
            f"word tree M={M}, depth={depth} exceeds the budget; "
            "lower the depth or the truncation"
        )
    grid = np.array(system.grid, dtype=float)
    vals = grid[None, :].copy()
    logd = np.zeros_like(vals)
    bsum = np.zeros_like(vals)
    maps = [system.map(i) for i in range(1, M + 1)]
    for _ in range(depth):
        new_vals, new_logd, new_bsum = [], [], []
        for i, m in enumerate(maps, start=1):
            new_vals.append(m.value(vals))
            new_logd.append(np.log(m.abs_deriv(vals)) + logd)
            new_bsum.append(f_value(family, system, i, vals) + bsum)
        vals = np.concatenate(new_vals, axis=0)
        logd = np.concatenate(new_logd, axis=0)
        bsum = np.concatenate(new_bsum, axis=0)
    return bsum.max(axis=1), logd.max(axis=1)


def _resolve_truncation(system: IfsSystem, truncation: int | None) -> int:
    if isinstance(system.alphabet, FiniteAlphabet):
        return system.alphabet.size if truncation is None else min(truncation, system.alphabet.size)
    if truncation is None:
        raise ValueError("the transfer operator of an infinite alphabet needs a truncation")
    return truncation


# ---------------------------------------------------------------------------
# the collocated transfer operator (general systems)


def _chebyshev_nodes(domain: tuple[float, float],
                     nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes of the domain and their barycentric weights."""
    a, b = domain
    k = np.arange(nodes)
    x = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * k / (nodes - 1))
    w = (-1.0) ** k
    w[[0, -1]] *= 0.5
    return x, w


def _barycentric_terms(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unnormalized barycentric terms w_j / (y - x_j) for points y (any shape).

    Dividing by their sum over j interpolates node values at y; where y is
    itself a node the terms are that node's unit vector instead.
    """
    diff = y[..., None] - x
    with np.errstate(divide="ignore"):
        C = w / diff
    hit = diff == 0.0
    if hit.any():
        exact = hit.any(axis=-1)
        C[exact] = hit[exact]
    return C


@lru_cache(maxsize=32)
def _operator_parts(system: IfsSystem, family: PotentialFamily, M: int,
                    nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, D, E) of the transfer operator over symbols 1..M at ``nodes`` points.

    At the Chebyshev-Lobatto nodes x_j of the domain, F[i, j] = f_i(x_j),
    D[i, j] = log|phi_i'(x_j)|, and E[i] is the barycentric interpolation
    matrix from values at the nodes to values at phi_i(x_j); its row is a
    unit vector where phi_i(x_j) is itself a node.
    """
    x, w = _chebyshev_nodes(system.domain, nodes)
    maps = [system.map(i) for i in range(1, M + 1)]
    F = np.array([f_value(family, system, i, x) for i in range(1, M + 1)])
    D = np.log([m.abs_deriv(x) for m in maps])
    E = _barycentric_terms(x, w, np.array([m.value(x) for m in maps]))
    E /= E.sum(axis=2, keepdims=True)
    for arr in (F, D, E):
        arr.flags.writeable = False
    return F, D, E


def _operator_matrix(parts: tuple[np.ndarray, np.ndarray, np.ndarray],
                     q: float, t: float) -> tuple[float, np.ndarray]:
    """(s, sum_i diag(e^{q F_i + t D_i - s}) E_i) with s the largest exponent."""
    F, D, E = parts
    X = q * F + t * D
    s = float(X.max())
    return s, np.einsum("ij,ijk->jk", np.exp(X - s), E)


def _leading_real(ev: np.ndarray, q: float, t: float) -> int:
    """Index of the largest *real* eigenvalue, which must be positive.

    Not the largest in modulus: where |phi_i'| = 1 at a point (Gauss branch
    1 at 0), spurious oscillatory modes are not damped and can outweigh it.
    """
    real = np.where(ev.imag == 0.0, ev.real, -np.inf)
    k = int(np.argmax(real))
    if not real[k] > 0.0:
        raise NumericalFailure(f"collocated operator has no positive real eigenvalue "
                               f"at (q, t) = ({q:.6g}, {t:.6g})")
    return k


def _operator_pressure(parts: tuple[np.ndarray, np.ndarray, np.ndarray],
                       q: float, t: float) -> float:
    """s + log of the leading real eigenvalue of the collocated operator."""
    s, A = _operator_matrix(parts, q, t)
    ev = np.linalg.eigvals(A)
    return s + math.log(float(ev.real[_leading_real(ev, q, t)]))


def _operator_eigen(parts: tuple[np.ndarray, np.ndarray, np.ndarray]
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """(lambda, h, nu) of the collocated operator at (q, t) = (1, 0).

    lambda is the leading real eigenvalue (as in ``_operator_pressure``),
    h > 0 its right eigenvector at the nodes and nu its left eigenvector,
    scaled so that sum(nu) = 1 and nu . h = 1.  Since L*m = lambda m, nu is
    a quadrature rule for the conformal measure m, and h m is the Gibbs
    state.  One eigendecomposition gives lambda and h; nu solves the
    bordered system [A^T - mu, h; h^T, 0] [nu; 0] = [0; 1], which is well
    conditioned for a simple eigenvalue, where a row of the inverse
    eigenvector matrix is not (its condition number reaches 1e13).
    """
    s, A = _operator_matrix(parts, 1.0, 0.0)
    ev, V = np.linalg.eig(A)
    k = _leading_real(ev, 1.0, 0.0)
    mu = float(ev.real[k])
    h = V[:, k].real
    h = h if h.sum() > 0.0 else -h
    if not np.all(h > 0.0):
        raise NumericalFailure("the leading eigenfunction of the collocated "
                               "operator changes sign")
    n = h.size
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = A.T - mu * np.eye(n)
    bordered[:n, n] = bordered[n, :n] = h
    nu = np.linalg.solve(bordered, np.eye(n + 1)[n])[:n]
    total = float(nu.sum())
    return math.exp(s) * mu, h * total, nu / total


def pressure_word_sum(system: IfsSystem, family: PotentialFamily, q: float, t: float,
                      depth: int, truncation: int | None = None) -> float:
    """(1/n) log sum over depth-n words of ||exp S_w||^q ||phi_w'||^t.

    Multiplicative systems use the exact single-symbol identity (the
    value is depth-independent); everything else runs the word tree.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if is_multiplicative(system, family):
        return _single_symbol_logsum(system, family, q, t, truncation)
    M = _resolve_truncation(system, truncation)
    B, D = _tree_sup_arrays(system, family, M, depth)
    return _lse(q * B + t * D) / depth


def estimate_pressure(system: IfsSystem, family: PotentialFamily, q: float, t: float,
                      truncation: int | None = None) -> PressureEstimate:
    """P(q, t) with its error indicator and the truncation tail bound.

    Closed forms are exact (error 0).  The transfer-operator value comes
    with the drift |P_32 - P_16| between 32 and 16 collocation nodes.
    """
    if is_multiplicative(system, family):
        value = _single_symbol_logsum(system, family, q, t, truncation)
        error = 0.0
    else:
        truncation = _resolve_truncation(system, truncation)
        value = _operator_pressure(_operator_parts(system, family, truncation, _NODES), q, t)
        half = _operator_parts(system, family, truncation, _NODES // 2)
        error = abs(value - _operator_pressure(half, q, t))
    tail = 0.0
    if truncation is not None and isinstance(system.alphabet, InfiniteAlphabet):
        tail = truncation_tail_bound(system, family, q, t, truncation)
    return PressureEstimate(q, t, truncation, value, error,
                            math.isfinite(value) and math.isfinite(tail), tail)


# ---------------------------------------------------------------------------
# finiteness threshold


def theta_of_q(system: IfsSystem, family: PotentialFamily, q: float) -> ThetaResult:
    """theta(q): infimum of t for which the pressure series stays finite.

    Finite alphabets are unbounded below (theta = -inf).  On an infinite
    alphabet the single-symbol series converges where the tail model's
    log b(t) = b0 + b1 t < 0, or log b(t) = 0 and p(t) = p0 + p1 t > 1.
    """
    if isinstance(system.alphabet, FiniteAlphabet):
        return ThetaResult(q, -math.inf)
    _, (b0, b1), (p0, p1) = _tail_decay(family, system.alphabet.tail, q)
    if b1 != 0.0:  # a geometric tail: log b(theta) = 0
        return ThetaResult(q, -b0 / b1)
    if b0 != 0.0:  # geometric weights alone decide, for every t at once
        return ThetaResult(q, -math.inf if b0 < 0.0 else math.inf)
    return ThetaResult(q, (1.0 - p0) / p1)  # a power-law tail: p(theta) = 1


# ---------------------------------------------------------------------------
# root finding


def _pressure_callable(system: IfsSystem, family: PotentialFamily,
                       truncation: int | None) -> Callable[[float, float], float]:
    """(q, t) -> P(q, t): the closed form, or the collocated operator."""
    if is_multiplicative(system, family):
        return lambda q, t: _single_symbol_logsum(system, family, q, t, truncation)
    parts = _operator_parts(system, family, _resolve_truncation(system, truncation), _NODES)
    return lambda q, t: _operator_pressure(parts, q, t)


def _root_decreasing(fn: Callable[[float], float], lo: float, hi: float,
                     trace: list | None = None,
                     ends: tuple[float, float] | None = None) -> tuple[float, float]:
    """(x, fn(x)) at the root of a decreasing fn with fn(lo) > 0 > fn(hi).

    Illinois regula falsi: the secant through the bracket ends, with the
    value kept at an end that survives twice in a row halved.  The
    midpoint replaces a secant step that is NaN (fn(lo) = +inf) or leaves
    the bracket, and any step after three in a row that did not halve
    the bracket, so it never needs more than four times the steps of
    bisection.  Stops when the bracket is a few ulps wide and returns
    the end with the smaller |fn|.  Every evaluation made here goes to
    ``trace``; ``ends`` are fn(lo) and fn(hi) when the caller has them.
    """
    def f(x: float) -> float:
        v = fn(x)
        if trace is not None:
            trace.append((x, v))
        return v

    f_lo, f_hi = (f(lo), f(hi)) if ends is None else ends
    if not f_lo > 0.0 > f_hi:
        raise BracketError(f"no sign change on [{lo:.6g}, {hi:.6g}]: "
                           f"values {f_lo:.3g}, {f_hi:.3g}")
    best = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    w_lo, w_hi, side = f_lo, f_hi, 0           # secant weights, last side moved
    width, slow = hi - lo, 0                   # last halved width, steps since
    while True:
        step = 2.0 * math.ulp(max(abs(lo), abs(hi), 1e-3))
        if hi - lo <= 2.0 * step:
            break
        x = lo - w_lo * (hi - lo) / (w_hi - w_lo)
        if slow >= 3 or not lo <= x <= hi:
            x = 0.5 * (lo + hi)
        # a step shorter than `step` moves the nearer end by `step` instead
        x = min(max(x, lo + step), hi - step)
        v = f(x)
        if abs(v) < abs(best[1]):
            best = (x, v)
        if v == 0.0:
            break
        if v > 0.0:
            lo, w_lo = x, v
            w_hi = 0.5 * w_hi if side > 0 else w_hi
            side = 1
        else:
            hi, w_hi = x, v
            w_lo = 0.5 * w_lo if side < 0 else w_lo
            side = -1
        if hi - lo <= 0.5 * width:
            width, slow = hi - lo, 0
        else:
            slow += 1
    return best


def beta_of_q(system: IfsSystem, family: PotentialFamily, q: float,
              truncation: int | None = None, tolerance: float | None = None) -> float:
    """The temperature function: the unique t with P(q, t) = 0.

    Exploits strict decrease of t -> P(q, t); the returned t satisfies
    |P(q, t)| <= max(10 * tolerance, 1e-9).  Raises BracketError when no
    sign change exists or the residual is above that bound (irregular or
    degenerate truncations are reported, never extrapolated over).
    """
    P = _pressure_callable(system, family, truncation)
    tol = _TOL if tolerance is None else tolerance

    def fn(t: float) -> float:
        return P(q, t)

    # truncated series converge for every t, so the finiteness threshold
    # constrains the bracket only for untruncated infinite sums
    theta = -math.inf
    if truncation is None and isinstance(system.alphabet, InfiniteAlphabet):
        theta = theta_of_q(system, family, q).theta
    if math.isfinite(theta):
        lo = theta + 1e-6
        # regularity probe: P must become positive and finite just above theta
        probes = [fn(u) for u in (lo, theta + 0.05, theta + 0.1)]
        if not any(math.isfinite(v) and v > 0 for v in probes):
            raise BracketError(
                f"pressure never positive just above theta({q})={theta}; "
                "system looks irregular at this truncation"
            )
        f_lo = probes[0]
        while not math.isfinite(f_lo):
            lo = 0.5 * (lo + theta + 0.2)
            f_lo = fn(lo)
    else:
        lo, step = 0.0, 1.0
        while (f_lo := fn(lo)) <= 0.0:
            lo -= step
            step *= 2.0
            if lo < -1e4:
                raise BracketError("no positive pressure found walking t downward")

    # a short first bracket: collocation degrades at large t on branches
    # with |phi'| = 1 at a point, so roots never evaluate far out there
    hi = max(2.0, lo + 1.0)
    while (f_hi := fn(hi)) >= 0.0:
        hi *= 2.0
        if hi > 1e4:
            raise BracketError("pressure does not become negative for large t")

    t, resid = _root_decreasing(fn, lo, hi, ends=(f_lo, f_hi))
    if not abs(resid) <= max(tol * 10, 1e-9):
        raise BracketError(f"pressure residual {resid:.3g} at beta({q}) above tolerance")
    return t


def hausdorff_dim(system: IfsSystem, family: PotentialFamily,
                  truncation: int | None = None, tolerance: float | None = None) -> float:
    """Root of t -> P(0, t); coincides with beta(0) for regular systems."""
    return beta_of_q(system, family, 0.0, truncation, tolerance)


def temperature_curve(system: IfsSystem, family: PotentialFamily,
                      q_grid: Sequence[float] | None = None,
                      truncation: int | None = None,
                      tolerance: float | None = None) -> TemperatureSample:
    qs = np.linspace(0.0, 1.0, 21) if q_grid is None else np.asarray(q_grid, float)
    betas = [beta_of_q(system, family, float(q), truncation, tolerance) for q in qs]
    b = np.asarray(betas)
    defect = 0.0
    if len(b) >= 3:
        second = np.diff(b, 2)
        defect = max(0.0, float(-second.min()))
    return TemperatureSample(tuple(map(float, qs)), tuple(map(float, betas)), defect)


def solve_quantization_dim(system: IfsSystem, family: PotentialFamily, r: float,
                           truncation: int | None = None,
                           tolerance: float | None = None) -> QdimSolution:
    """Solve beta(q_r) = r * q_r and return (q_r, kappa_r, D_r).

    As t -> P(q, t) is strictly decreasing, beta(q) = r q holds exactly
    where g(q) = P(q, r q) vanishes, and g is strictly decreasing with
    g(0) > 0 when beta(0) > 0; its root is found directly.  The trace
    holds every (q, g(q)) evaluation.  kappa_r = r q_r/(1-q_r) and
    D_r = kappa_r = beta(q_r)/(1-q_r).
    """
    if r <= 0:
        raise ValueError("the order r must be positive")
    P = _pressure_callable(system, family, truncation)
    tol = _TOL if tolerance is None else tolerance

    p0 = P(0.0, 1e-9)
    if p0 <= 0.0:
        raise DegenerateSystemError(
            f"P(0, 1e-9) = {p0:.3g} <= 0, so beta(0) <= 0: "
            "the (truncated) limit set carries no dimension"
        )

    trace: list[tuple[float, float]] = []
    q_r, check = _root_decreasing(lambda q: P(q, r * q), 1e-6, 1.0 - 1e-6, trace)
    if not abs(check) <= max(tol * 10, 1e-9):
        raise BracketError(f"fixed-point residual {check:.3g} above tolerance")
    kappa = r * q_r / (1.0 - q_r)
    return QdimSolution(r=r, q_r=q_r, kappa_r=kappa, D_r=kappa,
                        truncation=truncation, trace=tuple(trace))


def truncation_sweep(system: IfsSystem, family: PotentialFamily, r: float,
                     M_list: Sequence[int], tolerance: float | None = None) -> SweepResult:
    """kappa_{r,M} across truncations, with the full-system reference when closed-form.

    Truncations whose beta_M(0) <= 0 (single-map limit sets are points)
    come back as kappa = 0 with a degenerate flag.
    """
    entries = []
    for M in M_list:
        if M < 1:
            raise ValueError("truncations must be >= 1")
        try:
            sol = solve_quantization_dim(system, family, r, truncation=int(M),
                                         tolerance=tolerance)
            entries.append(SweepEntry(int(M), sol.kappa_r, False))
        except DegenerateSystemError:
            entries.append(SweepEntry(int(M), 0.0, True))
    kappa_ref = None
    gap = None
    if is_multiplicative(system, family) or isinstance(system.alphabet, FiniteAlphabet):
        ref = solve_quantization_dim(system, family, r, truncation=None,
                                     tolerance=tolerance)
        kappa_ref = ref.kappa_r
        gap = kappa_ref - entries[-1].kappa if entries else None
    return SweepResult(r, tuple(entries), kappa_ref, gap)


def legendre_and_figure_data(system: IfsSystem, family: PotentialFamily, r: float,
                             q_grid: Sequence[float] | None = None,
                             truncation: int | None = None,
                             tolerance: float | None = None) -> FigureData:
    """Temperature curve, the y = r q chord, and the discrete Legendre transform.

    The line through the intersection (q_r, r q_r) and (1, 0) meets the
    vertical axis at the quantization dimension; the spectrum is
    f(alpha) = inf over the grid of (q alpha + beta(q)) with alpha
    ranging over the negated slopes of beta.
    """
    qs = np.linspace(0.0, 1.0, 21) if q_grid is None else np.asarray(q_grid, float)
    if len(qs) < 3:
        raise ValueError("q grid too coarse")
    betas = np.array(temperature_curve(system, family, qs, truncation, tolerance).betas)
    sol = solve_quantization_dim(system, family, r, truncation, tolerance)
    q_r = sol.q_r
    intercept = r * q_r / (1.0 - q_r)

    slopes = -np.diff(betas) / np.diff(qs)
    a_min, a_max = float(slopes.min()), float(slopes.max())
    if a_max - a_min < 1e-9:
        alphas = np.full(len(qs), 0.5 * (a_min + a_max))
    else:
        alphas = np.linspace(a_min, a_max, len(qs))
    f_alphas = np.array([np.min(qs * a + betas) for a in alphas])

    return FigureData(
        r=r,
        qs=tuple(map(float, qs)),
        betas=tuple(map(float, betas)),
        line=tuple(float(r * q) for q in qs),
        alphas=tuple(map(float, alphas)),
        f_alphas=tuple(map(float, f_alphas)),
        q_r=q_r,
        intersection=(q_r, r * q_r),
        intercept=intercept,
    )
