"""Two-parameter topological pressure and the temperature function.

P(q, t) is the exponential growth rate of the word sums

    sum over |w| = n of  ||exp(S_w(F))||^q * ||phi_w'||^t .

Symbol-constant families on similarity systems are multiplicative: the
depth-n sum is the n-th power of the single-symbol sum, so P is exact
at every depth.  Otherwise P is the log of the leading eigenvalue of the
transfer operator g -> sum_i exp(q f_i) |phi_i'|^t g o phi_i, collocated
at Chebyshev-Lobatto nodes (Jenkinson-Pollicott; Falk-Nussbaum).
``is_multiplicative`` decides between the two; ``_pressure_callable``
(every root solve), ``estimate_pressure``, ``_temperature_walk``,
``truncation_sweep`` and ``measure.cylinder_mass`` each ask it.

The temperature function beta(q) is the unique zero of t -> P(q, t)
(P is strictly decreasing in t).  The quantization dimension of order r
solves beta(q_r) = r * q_r and equals kappa_r = r * q_r / (1 - q_r).
Since P decreases in t, q_r is also the single root of
g(q) = P(q, r * q), which is found directly, without computing beta.
On the collocated operator every root is first a Newton solve on the
operator's eigenpair (h, t) with e^P = 1, one small linear solve per
step (``_eigen_newton``), kept only if h stays positive and the
leading eigenvalue there certifies |P| <= 1e-9.  A cold root
(``solve_beta``, ``solve_quantization_dim``) starts from h = 1; when
it is not certified, and on closed forms, one safeguarded regula falsi
solves it (``_root_decreasing``).  Along a q grid,
``temperature_curve`` solves the first point cold and continues from
it: a secant predictor and the last h start Newton, and a point it
does not certify is solved cold.  ``legendre_and_figure_data``
continues the same way along the line t = r q from the grid cell where
beta(q) - r q changes sign, and keeps that q_r only if it lies in the
cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BracketError, DegenerateSystemError, NumericalFailure
from .ifs import FiniteAlphabet, IfsSystem
from .potentials import (PotentialFamily, _geometric_logsum, _tail_decay, f_value,
                         is_symbol_constant, symbol_log_weight, truncation_tail_bound)

_NODES = 32               # Chebyshev-Lobatto nodes of the collocated operator
_RESIDUAL = 1e-9          # largest |P| a root solve may return
_NEWTON_STEPS = 6         # eigenpair Newton steps before a continued root falls back
_COLD_STEPS = 16          # the same for a cold root, started from h = 1
_NEWTON_TOL = 1e-12       # a last Newton step at most this (relative) size ends it


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
    trace: tuple[tuple[float, float], ...]  # one (q, residual) per dense solve
    solver: str                     # "newton", "regula_falsi" or "closed_form"
    degenerate: bool = False


@dataclass(frozen=True)
class BetaSolution:
    q: float
    beta: float
    solver: str                     # "newton", "regula_falsi" or "closed_form"
    trace: tuple[tuple[float, float], ...]  # one (t, residual) per dense solve
    # the positive eigenvector at the nodes (sum 1) of a Newton root, else None
    h: np.ndarray | None = field(default=None, compare=False, repr=False)


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
    return is_symbol_constant(family, system) and system.all_similarities


def _single_symbol_logsum(system: IfsSystem, family: PotentialFamily, q: float,
                          t: float, M: int | None) -> float:
    """log sum_i ||e^{f_i}||^q * ||phi_i'||^t with geometric closed forms.

    Returns +inf when the untruncated series diverges.
    """
    M = system.truncated_size(M)
    if isinstance(system.alphabet, FiniteAlphabet):
        a, d = _symbol_logs(system, family, M)
        return _lse(q * a + t * d)
    return _geometric_logsum(family, system, q, t, M)


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
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        C = np.divide(w, diff, out=diff)
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


def _operator_eigen(parts: tuple[np.ndarray, np.ndarray, np.ndarray], q: float,
                    t: float) -> tuple[float, np.ndarray, np.ndarray, float]:
    """(lambda, h, nu, rho) of the collocated operator at (q, t).

    lambda is the leading real eigenvalue (as in ``_operator_pressure``),
    h > 0 its right eigenvector at the nodes and nu its left eigenvector,
    scaled so that sum(nu) = 1 and nu . h = 1.  Since L*m = lambda m, nu is
    a quadrature rule for the measure m with that eigen-relation (the
    conformal measure at (1, 0)), and h m is the Gibbs state.  rho is the
    largest modulus among the other eigenvalues over lambda: the rate
    rho^n at which L^n / lambda^n approaches its projection onto h (the
    spectral gap).  One eigendecomposition gives lambda, h and rho; nu
    solves the bordered system
    [A^T - mu, h; h^T, 0] [nu; 0] = [0; 1], which is well conditioned
    for a simple eigenvalue, where a row of the inverse eigenvector
    matrix is not (its condition number reaches 1e13).
    """
    s, A = _operator_matrix(parts, q, t)
    ev, V = np.linalg.eig(A)
    k = _leading_real(ev, q, t)
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
    rho = float(np.max(np.abs(np.delete(ev, k)))) / mu
    return math.exp(s) * mu, h * total, nu / total, rho


@lru_cache(maxsize=32)
def _node_major(system: IfsSystem, family: PotentialFamily,
                M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_operator_parts`` at ``_NODES`` nodes, node-major for ``_operator_step``:
    F^T and D^T (node x symbol), and E^T with E^T[j, i] = E[i, j]."""
    major = tuple(np.ascontiguousarray(np.swapaxes(a, 0, 1))
                  for a in _operator_parts(system, family, M, _NODES))
    for arr in major:
        arr.flags.writeable = False
    return major


def _operator_step(major: tuple[np.ndarray, np.ndarray, np.ndarray], q: float, t: float,
                   dq: float, dt: float, h: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(s, A, B h): ``_operator_matrix`` at (q, t), and its derivative along
    (dq, dt) applied to h.

    B = sum_i diag((dq F_i + dt D_i) e^{q F_i + t D_i - s}) E_i, under the
    same shift s as A.  One batched product over the node-major parts
    (``_node_major``) reads E once and gives row j of A and of B together.
    """
    FT, DT, ET = major
    X = q * FT + t * DT
    s = float(X.max())
    WV = np.empty((FT.shape[0], 2, FT.shape[1]))
    np.exp(X - s, out=WV[:, 0])
    np.multiply(dq * FT + dt * DT, WV[:, 0], out=WV[:, 1])
    rows = WV @ ET
    return s, rows[:, 0], rows[:, 1] @ h


class _NewtonRoot(NamedTuple):
    u: float
    h: np.ndarray
    # one (u, residual) per dense solve: each step's u and max|L h - h| there,
    # then the root's u and P from the certificate
    trace: tuple[tuple[float, float], ...]


def _eigen_newton(system: IfsSystem, family: PotentialFamily, truncation: int | None,
                  q: float, t: float, dq: float, dt: float, h: np.ndarray,
                  max_steps: int = _NEWTON_STEPS) -> _NewtonRoot | None:
    """The root u of P(q + u dq, t + u dt) = 0 with h > 0 its eigenvector, or None.

    Newton on the eigenpair of the unshifted collocated operator L = e^s A:
    from u = 0 and the start h, each step solves the bordered system

        [[A - e^{-s} I, B h], [1^T, 0]] [dh; du] = [e^{-s} h - A h; 1 - 1^T h]

    (``_operator_step``; the rows are L h = h scaled by e^{-s}).  It gives
    up as soon as a step leaves h > 0, and ends when a step moves u and h
    by at most ``_NEWTON_TOL``.  The root is kept only if that happens
    within ``max_steps`` steps and the leading real eigenvalue there
    (``_operator_pressure``) gives |P| <= ``_RESIDUAL``; any other
    eigenvalue 1 that Newton might reach fails that test.
    """
    parts = _collocated_parts(system, family, truncation)
    major = _node_major(system, family, system.truncated_size(truncation))
    n = h.size
    J = np.zeros((n + 1, n + 1))
    J[n, :n] = 1.0
    rhs = np.zeros(n + 1)
    diag = np.arange(n)
    h = h / h.sum()
    u = 0.0
    trace = []
    with np.errstate(all="ignore"):  # overflow and NaN fail the finiteness test
        for _ in range(max_steps):
            s, A, Bh = _operator_step(major, q + u * dq, t + u * dt, dq, dt, h)
            c = np.exp(-s)
            J[:n, :n] = A
            J[diag, diag] -= c
            J[:n, n] = Bh
            rhs[:n] = c * h - A @ h
            rhs[n] = 1.0 - h.sum()
            trace.append((u, float(np.max(np.abs(rhs[:n])) / c)))
            try:
                step = np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(step)):
                return None
            h = h + step[:n]
            u += float(step[n])
            if not np.all(h > 0.0):
                return None
            if (abs(step[n]) <= _NEWTON_TOL * (1.0 + abs(u))
                    and np.max(np.abs(step[:n])) <= _NEWTON_TOL * np.max(h)):
                break
        else:
            return None
    try:
        resid = _operator_pressure(parts, q + u * dq, t + u * dt)
    except NumericalFailure:
        return None
    trace.append((u, resid))
    return _NewtonRoot(u, h, tuple(trace)) if abs(resid) <= _RESIDUAL else None


@lru_cache(maxsize=32)
def _operator_measure(system: IfsSystem, family: PotentialFamily, M: int, q: float,
                      t: float) -> tuple[np.ndarray, float]:
    """(nu, P(q, t)) of the collocated operator over symbols 1..M.

    The quadrature rule and the pressure that every cylinder mass at
    (q, t) shares: one eigendecomposition and one pressure per argument
    set, however many cylinders are weighed.
    """
    parts = _operator_parts(system, family, M, _NODES)
    nu = _operator_eigen(parts, q, t)[2]
    nu.flags.writeable = False
    return nu, _operator_pressure(parts, q, t)


def estimate_pressure(system: IfsSystem, family: PotentialFamily, q: float, t: float,
                      truncation: int | None = None) -> PressureEstimate:
    """P(q, t) with its error indicator and the truncation tail bound.

    Closed forms are exact (error 0).  The transfer-operator value comes
    with the drift |P_32 - P_16| between 32 and 16 collocation nodes.  That
    drift is a heuristic, not a bound: on Gauss {1,2} at (q, t) = (0.3, 25)
    it reads 3.0 while the 32-node value lies within 1e-5 of the truth
    (ROADMAP item 3 replaces it by a certified bracket).
    """
    value = _pressure_callable(system, family, truncation)(q, t)
    error = 0.0
    if not is_multiplicative(system, family):
        coarse = _operator_parts(system, family, system.truncated_size(truncation), _NODES // 2)
        error = abs(value - _operator_pressure(coarse, q, t))
    tail = 0.0 if truncation is None else truncation_tail_bound(system, family, q, t, truncation)
    return PressureEstimate(q, t, truncation, value, error,
                            math.isfinite(value) and math.isfinite(tail), tail)


# ---------------------------------------------------------------------------
# finiteness threshold


def theta_of_q(system: IfsSystem, family: PotentialFamily, q: float) -> float:
    """theta(q): infimum of t for which the pressure series stays finite.

    Finite alphabets are unbounded below (theta = -inf).  On an infinite
    alphabet the single-symbol series converges where the tail model's
    log b(t) = b0 + b1 t < 0, or log b(t) = 0 and p(t) = p0 + p1 t > 1.
    """
    if isinstance(system.alphabet, FiniteAlphabet):
        return -math.inf
    _, (b0, b1), (p0, p1) = _tail_decay(family, system.alphabet.tail, q)
    if b1 != 0.0:  # a geometric tail: log b(theta) = 0
        return -b0 / b1
    if b0 != 0.0:  # geometric weights alone decide, for every t at once
        return -math.inf if b0 < 0.0 else math.inf
    return (1.0 - p0) / p1  # a power-law tail: p(theta) = 1


# ---------------------------------------------------------------------------
# root finding


def _collocated_parts(system: IfsSystem, family: PotentialFamily, truncation: int | None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_operator_parts`` of the (truncated) system at ``_NODES`` nodes."""
    M = system.truncated_size(truncation)
    if M is None:
        raise ValueError("the transfer operator of an infinite alphabet needs a truncation")
    return _operator_parts(system, family, M, _NODES)


def _pressure_callable(system: IfsSystem, family: PotentialFamily, truncation: int | None
                       ) -> Callable[[float, float], float]:
    """(q, t) -> P(q, t): the exact closed form on multiplicative systems,
    else the collocated operator at ``_NODES`` nodes."""
    if is_multiplicative(system, family):
        return lambda q, t: _single_symbol_logsum(system, family, q, t, truncation)
    parts = _collocated_parts(system, family, truncation)
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


def solve_beta(system: IfsSystem, family: PotentialFamily, q: float,
               truncation: int | None = None) -> BetaSolution:
    """The temperature function: the unique t with P(q, t) = 0, and how it was found.

    On the collocated operator ``_eigen_newton`` runs first, from (q, 0)
    along t with h = 1 and up to ``_COLD_STEPS`` steps; its certified root
    is kept.  Otherwise, and on closed forms, one bracket rule serves every
    system, by the sign of P alone (strictly decreasing in t, and +inf
    below theta(q) on an untruncated infinite alphabet): walk down from
    t = 0 while P <= 0, then double hi = max(2, lo + 1) while P >= 0,
    each hi with P > 0 becoming lo, and ``_root_decreasing`` solves in
    the bracket.  The returned t satisfies |P(q, t)| <= 1e-9.  Raises
    BracketError when no sign change exists or the residual is above that
    bound.  The trace holds every (t, P(q, t)) evaluation, or the Newton
    root's trace.
    """
    P = _pressure_callable(system, family, truncation)
    closed = is_multiplicative(system, family)
    if not closed:
        root = _eigen_newton(system, family, truncation, q, 0.0, 0.0, 1.0, np.ones(_NODES),
                             _COLD_STEPS)
        if root is not None:
            return BetaSolution(q, root.u, "newton", root.trace, root.h)
    trace: list[tuple[float, float]] = []

    def fn(t: float) -> float:
        v = P(q, t)
        trace.append((t, v))
        return v

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
        if f_hi > 0.0:  # +inf below a finiteness threshold too
            lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > 1e4:
            raise BracketError("pressure does not become negative for large t")

    t, resid = _root_decreasing(fn, lo, hi, ends=(f_lo, f_hi))
    if not abs(resid) <= _RESIDUAL:
        raise BracketError(f"pressure residual {resid:.3g} at beta({q}) above tolerance")
    return BetaSolution(q, t, "closed_form" if closed else "regula_falsi", tuple(trace))


def beta_of_q(system: IfsSystem, family: PotentialFamily, q: float,
              truncation: int | None = None) -> float:
    """beta(q), the root of t -> P(q, t), by ``solve_beta``."""
    return solve_beta(system, family, q, truncation).beta


def hausdorff_dim(system: IfsSystem, family: PotentialFamily,
                  truncation: int | None = None) -> float:
    """Root of t -> P(0, t), that is beta(0)."""
    return beta_of_q(system, family, 0.0, truncation)


def _temperature_walk(system: IfsSystem, family: PotentialFamily, qs: np.ndarray,
                      truncation: int | None) -> tuple[list[float], list]:
    """beta at each grid point, and the operator's eigenvector h at each root.

    Closed forms solve every point with ``beta_of_q`` (h is None).  On the
    collocated operator only the first point is solved cold, by
    ``solve_beta``, with h from its Newton root (from ``_operator_eigen``
    when the regula falsi answered); each later point starts from the
    secant through the last two roots (the last root after a single one)
    and the last h, and ``_eigen_newton`` corrects along t.  A point it
    does not certify is solved cold again, and restarts the walk.
    """
    if is_multiplicative(system, family):
        return [beta_of_q(system, family, float(q), truncation) for q in qs], [None] * len(qs)
    betas: list[float] = []
    hs: list = []
    h = None
    for k, q in enumerate(map(float, qs)):
        root = None
        if h is not None:
            t = betas[-1]
            if k >= 2 and qs[k - 1] != qs[k - 2]:
                t += (betas[-1] - betas[-2]) * (q - qs[k - 1]) / (qs[k - 1] - qs[k - 2])
            root = _eigen_newton(system, family, truncation, q, t, 0.0, 1.0, h)
        if root is None:
            cold = solve_beta(system, family, q, truncation)
            t, h = cold.beta, cold.h
            if h is None:
                try:
                    h = _operator_eigen(_collocated_parts(system, family, truncation), q, t)[1]
                except NumericalFailure:  # no positive h to start from: the next point is cold too
                    pass
        else:
            t += root.u
            h = root.h
        betas.append(t)
        hs.append(h)
    return betas, hs


def temperature_curve(system: IfsSystem, family: PotentialFamily,
                      q_grid: Sequence[float] | None = None,
                      truncation: int | None = None) -> TemperatureSample:
    """beta on a q grid (21 points on [0, 1] by default), by ``_temperature_walk``."""
    qs = np.linspace(0.0, 1.0, 21) if q_grid is None else np.asarray(q_grid, float)
    betas, _ = _temperature_walk(system, family, qs, truncation)
    b = np.asarray(betas)
    defect = 0.0
    if len(b) >= 3:
        second = np.diff(b, 2)
        defect = max(0.0, float(-second.min()))
    return TemperatureSample(tuple(map(float, qs)), tuple(map(float, betas)), defect)


def solve_quantization_dim(system: IfsSystem, family: PotentialFamily, r: float,
                           truncation: int | None = None) -> QdimSolution:
    """Solve beta(q_r) = r * q_r and return (q_r, kappa_r, D_r).

    As t -> P(q, t) is strictly decreasing, beta(q) = r q holds exactly
    where g(q) = P(q, r q) vanishes, and g is strictly decreasing with
    g(0) > 0 when beta(0) > 0; its root is found directly.  First
    P(0, 1e-9) > 0 is checked, or DegenerateSystemError raised.  On the
    collocated operator ``_eigen_newton`` runs next, from (0, 0) along
    (1, r) with h = 1 and up to ``_COLD_STEPS`` steps, and a certified
    root with 0 < q_r < 1 is kept.  Otherwise, and on closed forms, the
    bracket starts at lo = 0 and at hi = min(2 / r, 1 - 1e-6), where
    r hi <= 2 keeps the operator at small t, hi doubles toward 1 - 1e-6
    while g(hi) >= 0, each hi with g > 0 becoming lo, and
    ``_root_decreasing`` solves in it.  The trace holds every (q, g(q))
    evaluation, or the Newton root's trace (that check is in neither).
    kappa_r = r q_r/(1-q_r) and D_r = kappa_r = beta(q_r)/(1-q_r).
    """
    if r <= 0:
        raise ValueError("the order r must be positive")
    P = _pressure_callable(system, family, truncation)
    p0 = P(0.0, 1e-9)
    if p0 <= 0.0:
        raise DegenerateSystemError(
            f"P(0, 1e-9) = {p0:.3g} <= 0, so beta(0) <= 0: "
            "the (truncated) limit set carries no dimension"
        )

    closed = is_multiplicative(system, family)
    if not closed:
        root = _eigen_newton(system, family, truncation, 0.0, 0.0, 1.0, r, np.ones(_NODES),
                             _COLD_STEPS)
        if root is not None and 0.0 < root.u < 1.0:
            return _qdim_solution(r, root.u, truncation, root.trace, "newton")

    trace: list[tuple[float, float]] = []

    def g(q: float) -> float:
        v = P(q, r * q)
        trace.append((q, v))
        return v

    top = 1.0 - 1e-6
    lo, f_lo = 0.0, g(0.0)  # P(0, 0) >= P(0, 1e-9) > 0, +inf included
    hi = min(2.0 / r, top)
    while (f_hi := g(hi)) >= 0.0 and hi < top:
        if f_hi > 0.0:
            lo, f_lo = hi, f_hi
        hi = min(2.0 * hi, top)
    q_r, check = _root_decreasing(g, lo, hi, ends=(f_lo, f_hi))
    if not abs(check) <= _RESIDUAL:
        raise BracketError(f"fixed-point residual {check:.3g} above tolerance")
    return _qdim_solution(r, q_r, truncation, tuple(trace),
                          "closed_form" if closed else "regula_falsi")


def _qdim_solution(r: float, q_r: float, truncation: int | None, trace: tuple,
                   solver: str) -> QdimSolution:
    kappa = r * q_r / (1.0 - q_r)
    return QdimSolution(r=r, q_r=q_r, kappa_r=kappa, D_r=kappa, truncation=truncation,
                        trace=trace, solver=solver)


def truncation_sweep(system: IfsSystem, family: PotentialFamily, r: float,
                     M_list: Sequence[int]) -> SweepResult:
    """kappa_{r,M} across truncations, with the full-system reference when closed-form.

    Truncations whose beta_M(0) <= 0 (single-map limit sets are points)
    come back as kappa = 0 with a degenerate flag.
    """
    entries = []
    for M in M_list:
        try:
            sol = solve_quantization_dim(system, family, r, truncation=int(M))
            entries.append(SweepEntry(int(M), sol.kappa_r, False))
        except DegenerateSystemError:
            entries.append(SweepEntry(int(M), 0.0, True))
    kappa_ref = None
    gap = None
    if is_multiplicative(system, family) or isinstance(system.alphabet, FiniteAlphabet):
        ref = solve_quantization_dim(system, family, r, truncation=None)
        kappa_ref = ref.kappa_r
        gap = kappa_ref - entries[-1].kappa if entries else None
    return SweepResult(r, tuple(entries), kappa_ref, gap)


def _continued_fixed_point(system: IfsSystem, family: PotentialFamily, r: float,
                           qs: np.ndarray, betas: np.ndarray, hs: list,
                           truncation: int | None) -> float | None:
    """q_r by eigenpair Newton along t = r q from the curve, or None.

    The start is the first grid cell [q_k, q_k+1] where beta(q) - r q
    changes sign: the chord's root in q and h at q_k.  ``_eigen_newton``
    moves along the direction (1, r), and its root is kept only if it lies
    in that cell.  None where there is no such cell, no h at q_k, or no
    certified root in the cell.
    """
    d = betas - r * qs
    for k in range(len(qs) - 1):
        if d[k] > 0.0 >= d[k + 1]:
            break
    else:
        return None
    if hs[k] is None:
        return None
    q0 = float(qs[k] + d[k] * (qs[k + 1] - qs[k]) / (d[k] - d[k + 1]))
    root = _eigen_newton(system, family, truncation, q0, r * q0, 1.0, r, hs[k])
    if root is None or not qs[k] <= q0 + root.u <= qs[k + 1]:
        return None
    return q0 + root.u


def legendre_and_figure_data(system: IfsSystem, family: PotentialFamily, r: float,
                             q_grid: Sequence[float] | None = None,
                             truncation: int | None = None) -> FigureData:
    """Temperature curve, the y = r q chord, and the discrete Legendre transform.

    The line through the intersection (q_r, r q_r) and (1, 0) meets the
    vertical axis at the quantization dimension; the spectrum is
    f(alpha) = inf over the grid of (q alpha + beta(q)) with alpha
    ranging over the negated slopes of beta.
    """
    qs = np.linspace(0.0, 1.0, 21) if q_grid is None else np.asarray(q_grid, float)
    if len(qs) < 3:
        raise ValueError("q grid too coarse")
    betas, hs = _temperature_walk(system, family, qs, truncation)
    betas = np.array(betas)
    q_r = _continued_fixed_point(system, family, r, qs, betas, hs, truncation)
    if q_r is None:
        q_r = solve_quantization_dim(system, family, r, truncation).q_r
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
