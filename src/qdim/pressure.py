"""Two-parameter topological pressure and the temperature function.

P(q, t) is the exponential growth rate of the word sums

    sum over |w| = n of  ||exp(S_w(F))||^q * ||phi_w'||^t .

Symbol-constant families on similarity systems are multiplicative: the
depth-n sum is the n-th power of the single-symbol sum, so P is exact
at every depth.  Otherwise P is the log of the leading eigenvalue of the
transfer operator g -> sum_i exp(q f_i) |phi_i'|^t g o phi_i, collocated
at Chebyshev-Lobatto nodes (Jenkinson-Pollicott; Falk-Nussbaum).  Its
parts are kept once, node-major (``_operator_parts``): the operator
matrix, the Newton step and the sampler all read that one copy.
``is_multiplicative`` decides between the two once per solve, in
``_pressure_callable``, which passes P and the parts (None on a closed
form) down; only ``truncation_sweep`` asks again, for its reference.

Each solve builds its P once (``_pressure_callable``).  On multiplicative
systems that is a scalar kernel (``_closed_form``): it reads the symbol
logs, or the geometric tail model, when it is built, and each evaluation
is then float arithmetic with one ``np.exp`` on finite alphabets.  The
kernel gives the array formula's values bit for bit; it is not kept
across calls.

The temperature function beta(q) is the unique zero of t -> P(q, t)
(P is strictly decreasing in t).  The quantization dimension of order r
solves beta(q_r) = r * q_r and equals kappa_r = r * q_r / (1 - q_r).
Since P decreases in t, q_r is also the single root of
g(q) = P(q, r * q), which is found directly, without computing beta.
Every root lies on a line u -> (q + u dq, t + u dt) along which P
decreases: beta(q) on (q, 0) + u (0, 1), q_r on (0, 0) + u (1, r).  One
loop finds them all (``_line_root``): Newton on the collocated
operator's eigenpair (h, u), one small linear solve per step
(``_eigen_newton``), from each of the caller's starts (h = 1 at u = 0
cold; along the temperature curve's q grid the secant prediction and
the last h), kept where the leading eigenvalue certifies |P| <= 1e-9 in
the start's window.  Else, and on closed forms, a sign bracket closes
on the root, by one Newton run on P from an evaluation's h or by
regula falsi.  ``legendre_and_figure_data`` takes its q_r from
``solve_quantization_dim``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BracketError, DegenerateSystemError, NumericalFailure
from .ifs import FiniteAlphabet, IfsSystem
from .potentials import (PotentialFamily, _exponent, _geometric_pressure, _log_deriv_sup,
                         _tail_decay, f_value, is_symbol_constant, symbol_log_weight,
                         truncation_tail_bound)

_NODES = 32               # Chebyshev-Lobatto nodes of the collocated operator
_RESIDUAL = 1e-9          # largest |P| a root solve may return
_NEWTON_STEPS = 16        # eigenpair Newton steps before a start is given up
_NEWTON_TOL = 1e-12       # a last Newton step at most this (relative) size ends it


# ---------------------------------------------------------------------------
# result types
#
# Records that are only read are NamedTuples, which cost far less than
# frozen dataclasses to define at import.


class PressureEstimate(NamedTuple):
    q: float
    t: float
    truncation: int | None          # None means the untruncated alphabet
    value: float
    error: float                    # drift from halving the nodes; 0 for closed forms
    finite: bool                    # false when the truncation tail diverges
    tail_bound: float = 0.0         # single-symbol mass beyond the truncation


class TemperatureSample(NamedTuple):
    qs: tuple[float, ...]
    betas: tuple[float, ...]


class QdimSolution(NamedTuple):
    r: float
    q_r: float
    kappa_r: float
    truncation: int | None
    trace: tuple[tuple[float, float], ...]  # one (q, residual) per dense solve
    solver: str                     # "newton", "regula_falsi" or "closed_form"


class BetaSolution(NamedTuple):
    q: float
    beta: float
    solver: str                     # "newton", "regula_falsi" or "closed_form"
    trace: tuple[tuple[float, float], ...]  # one (t, residual) per dense solve


class SweepEntry(NamedTuple):
    M: int
    kappa: float
    degenerate: bool


class SweepResult(NamedTuple):
    r: float
    entries: tuple[SweepEntry, ...]
    kappa_ref: float | None
    final_gap: float | None


class FigureData(NamedTuple):
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


@lru_cache(maxsize=16)
def _symbol_logs(system: IfsSystem, family: PotentialFamily,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol (log||e^{f_i}||, log||phi_i'||) for i = 1..n."""
    a = np.array([symbol_log_weight(family, system, i) for i in range(1, n + 1)])
    d = np.array([_log_deriv_sup(system, i) for i in range(1, n + 1)])
    a.flags.writeable = False
    d.flags.writeable = False
    return a, d


def is_multiplicative(system: IfsSystem, family: PotentialFamily) -> bool:
    """Symbol-constant potentials on similarity maps: word sums factor exactly."""
    return is_symbol_constant(family, system) and system.all_similarities


def _finite_logsum(a: np.ndarray, d: np.ndarray) -> Callable[[float, float], float]:
    """(q, t) -> log sum_i e^{q a_i + t d_i}, shifted by the largest exponent.

    The exponents v_i and the shift m = max v are Python floats; the
    shifted terms take one ``np.exp`` on an array and its ``sum``, so the
    value is m + log(sum(exp(v - m))) of the array formula, to the bit.  A
    largest exponent of +inf or -inf passes through, and any NaN exponent
    gives NaN.
    """
    terms = tuple(zip(a.tolist(), d.tolist()))

    def logsum(q: float, t: float) -> float:
        v = [q * ai + t * di for ai, di in terms]
        m = max(v)
        if not math.isfinite(m):
            # Python's max may skip a NaN that np.max would return
            return math.nan if any(x != x for x in v) else m
        return m + math.log(np.exp(np.array([x - m for x in v])).sum())
    return logsum


def _closed_form(system: IfsSystem, family: PotentialFamily,
                 truncation: int | None) -> Callable[[float, float], float]:
    """(q, t) -> log sum_i ||e^{f_i}||^q * ||phi_i'||^t over the (truncated)
    alphabet, the exact pressure of a multiplicative system.

    A finite alphabet reads its symbol logs once (``_finite_logsum``), a
    geometric one its tail model (``_geometric_pressure``); +inf where the
    untruncated series diverges.
    """
    M = system.truncated_size(truncation)
    if isinstance(system.alphabet, FiniteAlphabet):
        return _finite_logsum(*_symbol_logs(system, family, M))
    return _geometric_pressure(family, system, M)


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


_Parts = tuple[np.ndarray, np.ndarray, np.ndarray]  # (F, D, E) of ``_operator_parts``
_Trace = tuple[tuple[float, float], ...]  # one (u, residual) per dense solve


@lru_cache(maxsize=32)
def _operator_parts(system: IfsSystem, family: PotentialFamily, M: int | None,
                    nodes: int) -> _Parts:
    """(F, D, E) of the transfer operator over symbols 1..M at ``nodes`` points.

    Node-major: at the Chebyshev-Lobatto nodes x_j of the domain,
    F[j, i] = f_i(x_j), D[j, i] = log|phi_i'(x_j)|, and E[j, i] is the
    barycentric interpolation row from values at the nodes to the value
    at phi_i(x_j), a unit vector where phi_i(x_j) is itself a node.  The
    sampler reads the symbol-major views ``F.T`` and ``E.transpose(1, 0, 2)``.

    The cache serves in-process repeats of one spec (every system the
    library builds is value-equal, so two loads of one spec give one key)
    and, in one command, ``verify``'s sample and ``figure1``'s fixed point.
    An infinite alphabet needs a truncation: M = None raises ValueError.
    """
    if M is None:
        raise ValueError("the transfer operator of an infinite alphabet needs a truncation")
    x, w = _chebyshev_nodes(system.domain, nodes)
    maps = [system.map(i) for i in range(1, M + 1)]
    F = np.column_stack([f_value(family, system, i, x) for i in range(1, M + 1)])
    with np.errstate(divide="ignore"):
        D = np.log(np.column_stack([m.abs_deriv(x) for m in maps]))
    E = _barycentric_terms(x, w, np.column_stack([m.value(x) for m in maps]))
    E /= E.sum(axis=2, keepdims=True)
    for arr in (F, D, E):
        arr.flags.writeable = False
    return F, D, E


def _operator_matrix(parts: _Parts, q: float, t: float) -> tuple[float, np.ndarray]:
    """(s, sum_i diag(e^{q F_i + t D_i - s}) E_i), s the largest exponent (``_exponent``).

    Overflow and NaN in the exponents pass through silently: the
    eigenvalue solve reports them as a numerical failure.
    """
    F, D, E = parts
    with np.errstate(over="ignore", invalid="ignore"):
        X = _exponent(F, D, q, t)
        s = float(X.max())
        X -= s
        return s, np.einsum("ji,jik->jk", np.exp(X, out=X), E)


def _leading_real(ev: np.ndarray, q: float, t: float) -> int:
    """Index of the largest *real* eigenvalue, which must be positive.

    Not the largest in modulus: where |phi_i'| = 1 at a point (Gauss branch
    1 at 0), spurious oscillatory modes are not damped and can outweigh it.
    """
    real = np.where(ev.imag == 0.0, ev.real, -np.inf)
    k = int(real.argmax())
    if not real[k] > 0.0:
        raise NumericalFailure(f"collocated operator has no positive real eigenvalue "
                               f"at (q, t) = ({q:.6g}, {t:.6g})")
    return k


def _lapack(routine, q: float, t: float, *args):
    """``routine(*args)``, with LAPACK's failure (a NaN or inf entry, no
    convergence, a singular system) raised as the numerical failure it is."""
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"collocated operator at (q, t) = ({q:.6g}, {t:.6g}): "
                               f"{exc}") from exc


def _operator_pressure(parts: _Parts, q: float, t: float) -> float:
    """s + log of the leading real eigenvalue of the collocated operator."""
    s, A = _operator_matrix(parts, q, t)
    ev = _lapack(np.linalg.eigvals, q, t, A)
    return s + math.log(float(ev.real[_leading_real(ev, q, t)]))


def _operator_pair(parts: _Parts, q: float, t: float) -> tuple[float, np.ndarray | None]:
    """(P, h): ``_operator_pressure``, h > 0 (sum 1) by one inverse iteration from 1, or None."""
    s, A = _operator_matrix(parts, q, t)
    ev = _lapack(np.linalg.eigvals, q, t, A)
    mu = float(ev.real[_leading_real(ev, q, t)])
    with np.errstate(all="ignore"):  # a singular shift or a zero sum fails h > 0
        try:
            h = np.linalg.solve(A - mu * np.eye(len(A)), np.ones(len(A)))
        except np.linalg.LinAlgError:
            h = np.zeros(len(A))
        h = h / h.sum()
    return s + math.log(mu), h if np.all(h > 0.0) else None


def _operator_eigen(parts: _Parts, q: float, t: float
                    ) -> tuple[float, np.ndarray, np.ndarray, float]:
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
    ev, V = _lapack(np.linalg.eig, q, t, A)
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
    nu = _lapack(np.linalg.solve, q, t, bordered, np.eye(n + 1)[n])[:n]
    total = float(nu.sum())
    rho = float(np.max(np.abs(np.delete(ev, k)))) / mu
    return math.exp(s) * mu, h * total, nu / total, rho


def _operator_step(parts: _Parts, q: float, t: float, Y: np.ndarray, WV: np.ndarray,
                   h: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(s, A, B h): ``_operator_matrix`` at (q, t), and its derivative along
    the run's direction applied to h.

    Y = dq F + dt D is the direction's exponent and WV a (nodes, 2, symbols)
    buffer, both built once per Newton run; the step overwrites WV with
    e^{X - s} and Y e^{X - s}, X = q F + t D.  B = sum_i diag(Y_i e^{X_i - s}) E_i,
    under the same shift s as A.  One batched product over the node-major
    parts reads E once and gives row j of A and of B together; it rounds
    differently from ``_operator_matrix``'s einsum, which the certificate reads.
    """
    F, D, E = parts
    X = _exponent(F, D, q, t)
    s = float(X.max())
    X -= s
    np.exp(X, out=WV[:, 0])
    np.multiply(Y, WV[:, 0], out=WV[:, 1])
    rows = WV @ E
    return s, rows[:, 0], rows[:, 1] @ h


class _NewtonRoot(NamedTuple):
    u: float
    h: np.ndarray | None            # None where a bracket run failed
    # one (u, residual) per dense solve: each step's u and max|e^-p L h - h|
    # there, then the root's u and P from the certificate
    trace: _Trace


def _eigen_newton(parts: _Parts, q: float, t: float, dq: float, dt: float, h: np.ndarray,
                  bracket: tuple[float, float] | None = None) -> _NewtonRoot | None:
    """The root u of P(q + u dq, t + u dt) = 0 with h > 0 its eigenvector, or None.

    Newton on the eigenpair of the unshifted collocated operator L = e^s A
    whose ``parts`` the solve's ``_pressure_callable`` built: from u = 0
    and the start h, each step solves the bordered system

        [[A - m I, B h], [1^T, 0]] [dh; du] = [m h - A h - m p h; 1 - 1^T h]

    with m = e^{p - s} (``_operator_step``, which reads the node-major parts as
    they are cached).  The direction's exponent Y = dq F + dt D and the step's
    product buffer WV are built once, before the first step, and every step
    gets the same two.  A start takes p = 0, Newton on L h = h; a run in a sign
    bracket (lo, hi) about its point takes p = log 1^T L h / 1^T h, Newton on
    P = log lambda, which does not overstep where lambda is far from 1, gives
    up once u leaves (lo, hi), and when it fails returns its trace, h None.
    A run gives up once a step leaves h > 0, and ends when a step moves u and h
    by at most ``_NEWTON_TOL``.  The root is kept only if that happens within
    ``_NEWTON_STEPS`` steps, one budget for every run, and the leading real
    eigenvalue there (``_operator_pressure``) gives |P| <= ``_RESIDUAL``; any
    other eigenvalue 1 that Newton might reach fails that test.
    """
    F, D, _ = parts
    n = h.size
    J = np.zeros((n + 1, n + 1))
    J[n, :n] = 1.0
    diag = J.ravel()[:n * (n + 2):n + 2]  # a view of A - m I's diagonal
    rhs = np.zeros(n + 1)
    WV = np.empty((F.shape[0], 2, F.shape[1]))
    h = h / h.sum()
    u = 0.0
    trace = []
    lo, hi = _ANYWHERE if bracket is None else bracket

    def failed() -> _NewtonRoot | None:
        return None if bracket is None else _NewtonRoot(u, None, tuple(trace))

    with np.errstate(all="ignore"):  # overflow and NaN fail the finiteness test
        Y = _exponent(F, D, dq, dt)
        for _ in range(_NEWTON_STEPS):
            s, A, Bh = _operator_step(parts, q + u * dq, t + u * dt, Y, WV, h)
            Ah = A @ h
            p = 0.0 if bracket is None else s + float(np.log(Ah.sum() / h.sum()))
            c = np.exp(p - s)
            J[:n, :n] = A
            diag -= c
            J[:n, n] = Bh
            r = c * h - Ah
            rhs[:n] = r - c * p * h
            rhs[n] = 1.0 - h.sum()
            trace.append((u, float(np.abs(r).max() / c)))
            try:
                step = np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                return failed()
            h = h + step[:n]
            u += float(step[n])
            if not (np.isfinite(step).all() and (h > 0.0).all() and lo < u < hi):
                return failed()
            if (abs(step[n]) <= _NEWTON_TOL * (1.0 + abs(u))
                    and np.abs(step[:n]).max() <= _NEWTON_TOL * h.max()):
                break
        else:
            return failed()
    try:
        resid = _operator_pressure(parts, q + u * dq, t + u * dt)
    except NumericalFailure:
        return failed()
    trace.append((u, resid))
    return _NewtonRoot(u, h, tuple(trace)) if abs(resid) <= _RESIDUAL else failed()


@lru_cache(maxsize=32)
def _operator_measure(system: IfsSystem, family: PotentialFamily, M: int | None,
                      q: float, t: float) -> tuple[np.ndarray, float]:
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
    P, parts = _pressure_callable(system, family, truncation)
    value = P(q, t)
    error = 0.0
    if parts is not None:  # the 16-node twin over the parts' M symbols
        coarse = _operator_parts(system, family, parts[0].shape[1], _NODES // 2)
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


def _pressure_callable(system: IfsSystem, family: PotentialFamily, truncation: int | None
                       ) -> tuple[Callable[[float, float], float], _Parts | None]:
    """(P, parts): (q, t) -> P(q, t), and the collocated operator's parts or None.

    A solve's one choice between the two, built once and passed down.
    Multiplicative systems get the exact closed form itself (``_closed_form``,
    float arithmetic per evaluation) and parts None; others get
    ``_operator_parts`` at ``_NODES`` nodes and ``_operator_pressure`` on
    them, which needs a truncation on an infinite alphabet (ValueError).
    """
    if is_multiplicative(system, family):
        return _closed_form(system, family, truncation), None
    parts = _operator_parts(system, family, system.truncated_size(truncation), _NODES)
    return (lambda q, t: _operator_pressure(parts, q, t)), parts


_ANYWHERE = (-math.inf, math.inf)
_COLD_H = np.ones(_NODES)        # the eigenvector of a cold start
_COLD_H.flags.writeable = False


def _line_root(P: Callable[[float, float], float], parts: _Parts | None, q: float, t: float,
               dq: float, dt: float,
               starts: Sequence[tuple[float, np.ndarray, tuple[float, float]]], cap: float,
               top: float) -> tuple[float, np.ndarray | None, _Trace, str]:
    """(u, h, trace, solver) at the root of u -> P(q + u dq, t + u dt), decreasing in u.

    The one root loop.  On the collocated operator ``_eigen_newton`` runs from
    each start (u0, h0, (a, b)), and the first certified root with a < u < b
    is kept; closed forms run no start.  Otherwise a sign bracket
    P(lo) > 0 > P(hi) closes on the root, as ``rtsafe`` does (Numerical
    Recipes 9.4).  A walk finds its ends: from u = 0 down by 1, 2, 4, ...
    while P <= 0, to no lower than -cap; from u = 2 / dt (t = 2: collocation
    on branches with |phi'| = 1 at a point degrades at large t) up while
    P >= 0, doubling to cap and then halving the gap to top, each end with
    P > 0 (+inf too) becoming the lower one.  On the operator each of the
    walk's evaluations also takes its h (``_operator_pair``); then one Newton
    run on P inside the bracket, from the walk's evaluation with the least
    |P| and h > 0, may give the root.  Else Illinois steps (a stale end's
    value halved; the midpoint for a NaN or outside secant and after three slow
    steps) narrow the bracket to a few ulps, and its end with the smaller |P|,
    which must meet ``_RESIDUAL``, is the root, with its h.  The trace holds
    every (u, P) and the run's entries, in order.  BracketError when P keeps
    its sign on [-cap, top) or the residual fails.
    """
    for u0, h0, (a, b) in (starts if parts is not None else ()):
        root = _eigen_newton(parts, q + u0 * dq, t + u0 * dt, dq, dt, h0)
        if root is not None and a < u0 + root.u < b:
            return (u0 + root.u, root.h, tuple((u0 + u, v) for u, v in root.trace),
                    "newton")
    trace: list[tuple[float, float]] = []
    hs: dict[float, np.ndarray | None] = {}  # the h > 0 of each evaluation, or None

    def fn(u: float) -> float:
        x, y = q + u * dq, t + u * dt
        v, hs[u] = (P(x, y), None) if parts is None else _operator_pair(parts, x, y)
        trace.append((u, v))
        return v

    lo, step = 0.0, 1.0
    while (f_lo := fn(lo)) <= 0.0:
        lo -= step
        step *= 2.0
        if lo < -cap:
            raise BracketError(f"P stays <= 0 down to u = {-cap:.6g} from ({q:.6g}, {t:.6g})")
    hi = min(2.0 / dt, cap)
    while (f_hi := fn(hi)) >= 0.0:
        if f_hi > 0.0:
            lo, f_lo = hi, f_hi
        up = min(2.0 * hi, cap) if hi < cap else hi + 0.5 * (top - hi)
        if not up < top:
            raise BracketError(f"P stays >= 0 up to u = {hi:.17g} from ({q:.6g}, {t:.6g})")
        hi = up
    _, x = min(((abs(v), u) for u, v in trace if hs[u] is not None), default=(0.0, None))
    root = None if x is None else _eigen_newton(parts, q + x * dq, t + x * dt, dq, dt, hs[x],
                                                (lo - x, hi - x))
    if root is not None:
        trace.extend((x + u, v) for u, v in root.trace)
        if root.h is not None and lo < x + root.u < hi:
            return x + root.u, root.h, tuple(trace), "newton"
    best = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    w_lo, w_hi, side = f_lo, f_hi, 0           # secant weights, last side moved
    width, slow = hi - lo, 0                   # last halved width, steps since
    while True:
        # a few ulps of the ends, and of 1e-3 once the residual is met
        step = 2.0 * math.ulp(max(abs(lo), abs(hi), 1e-3 if abs(best[1]) <= _RESIDUAL else 0.0))
        if hi - lo <= 2.0 * step:
            break
        u = lo - w_lo * (hi - lo) / (w_hi - w_lo)
        if slow >= 3 or not lo <= u <= hi:
            u = 0.5 * (lo + hi)
        # a step shorter than `step` moves the nearer end by `step` instead
        u = min(max(u, lo + step), hi - step)
        v = fn(u)
        if abs(v) < abs(best[1]):
            best = (u, v)
        if v == 0.0:
            break
        if v > 0.0:
            lo, w_lo = u, v
            w_hi = 0.5 * w_hi if side > 0 else w_hi
            side = 1
        else:
            hi, w_hi = u, v
            w_lo = 0.5 * w_lo if side < 0 else w_lo
            side = -1
        if hi - lo <= 0.5 * width:
            width, slow = hi - lo, 0
        else:
            slow += 1
    u, resid = best
    if not abs(resid) <= _RESIDUAL:
        raise BracketError(f"pressure residual {resid:.3g} at ({q + u * dq:.6g}, "
                           f"{t + u * dt:.6g}) above tolerance")
    return u, hs[u], tuple(trace), "closed_form" if parts is None else "regula_falsi"


def solve_beta(system: IfsSystem, family: PotentialFamily, q: float,
               truncation: int | None = None) -> BetaSolution:
    """The temperature function: the unique t with P(q, t) = 0, and how it was found.

    ``_line_root`` along t from (q, 0), Newton from h = 1 there, and the
    bracket within t = -1e4 and 1e4 (P is strictly decreasing in t, and
    +inf below theta(q) on an untruncated infinite alphabet).  The
    returned t satisfies |P(q, t)| <= 1e-9; BracketError otherwise.
    """
    u, _, trace, solver = _line_root(*_pressure_callable(system, family, truncation),
                                     q, 0.0, 0.0, 1.0, [(0.0, _COLD_H, _ANYWHERE)], 1e4, math.inf)
    return BetaSolution(q, u, solver, trace)


def beta_of_q(system: IfsSystem, family: PotentialFamily, q: float,
              truncation: int | None = None) -> float:
    """beta(q), the root of t -> P(q, t), by ``solve_beta``."""
    return solve_beta(system, family, q, truncation).beta


def hausdorff_dim(system: IfsSystem, family: PotentialFamily,
                  truncation: int | None = None) -> float:
    """Root of t -> P(0, t), that is beta(0)."""
    return beta_of_q(system, family, 0.0, truncation)


def temperature_curve(system: IfsSystem, family: PotentialFamily,
                      q_grid: Sequence[float] | None = None,
                      truncation: int | None = None) -> TemperatureSample:
    """beta on a q grid (21 points on [0, 1] by default).

    One P serves the walk, and each point after the first puts a warm
    start ahead of the cold one: the secant through the last two roots
    (the last root after a single one) with the last h, that of the
    Newton root or of the regula falsi's evaluation there; without a
    positive h the next point starts cold only.  Closed forms have no
    parts and run no Newton, so their h stays None.
    """
    qs = np.linspace(0.0, 1.0, 21) if q_grid is None else np.asarray(q_grid, float)
    P, parts = _pressure_callable(system, family, truncation)
    betas: list[float] = []
    h = None
    for k, q in enumerate(map(float, qs)):
        starts = [(0.0, _COLD_H, _ANYWHERE)]
        if h is not None:
            t = betas[-1]
            if k >= 2 and qs[k - 1] != qs[k - 2]:
                t += (betas[-1] - betas[-2]) * (q - qs[k - 1]) / (qs[k - 1] - qs[k - 2])
            starts.insert(0, (t, h, _ANYWHERE))
        t, h, _, _ = _line_root(P, parts, q, 0.0, 0.0, 1.0, starts, 1e4, math.inf)
        betas.append(t)
    return TemperatureSample(tuple(map(float, qs)), tuple(map(float, betas)))


def solve_quantization_dim(system: IfsSystem, family: PotentialFamily, r: float,
                           truncation: int | None = None) -> QdimSolution:
    """Solve beta(q_r) = r * q_r and return (q_r, kappa_r).

    As t -> P(q, t) is strictly decreasing, beta(q) = r q holds exactly
    where g(q) = P(q, r q) vanishes, and g is strictly decreasing with
    g(0) > 0 when beta(0) > 0; its root is found directly.  First
    P(0, 1e-9) > 0 is checked, or DegenerateSystemError raised.  Then
    ``_line_root`` along (1, r) from (0, 0), on the check's P, with Newton
    from h = 1 there kept if 0 < q_r < 1 and the bracket below q = 1 (the
    trace leaves the check out).  kappa_r = r q_r/(1-q_r), which is
    D_r = beta(q_r)/(1-q_r).
    """
    if r <= 0:
        raise ValueError("the order r must be positive")
    P, parts = _pressure_callable(system, family, truncation)
    p0 = P(0.0, 1e-9)
    if p0 <= 0.0:
        raise DegenerateSystemError(
            f"P(0, 1e-9) = {p0:.3g} <= 0, so beta(0) <= 0: "
            "the (truncated) limit set carries no dimension"
        )
    q_r, _, trace, solver = _line_root(P, parts, 0.0, 0.0, 1.0, r, [(0.0, _COLD_H, (0.0, 1.0))],
                                       1.0 - 1e-6, 1.0)
    kappa = r * q_r / (1.0 - q_r)
    return QdimSolution(r=r, q_r=q_r, kappa_r=kappa, truncation=truncation,
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


def legendre_and_figure_data(system: IfsSystem, family: PotentialFamily, r: float,
                             q_grid: Sequence[float] | None = None,
                             truncation: int | None = None) -> FigureData:
    """Temperature curve, the y = r q chord, and the discrete Legendre transform.

    The line through the intersection (q_r, r q_r) and (1, 0) meets the
    vertical axis at the quantization dimension; the spectrum is
    f(alpha) = inf over the grid of (q alpha + beta(q)) with alpha
    ranging over the negated slopes of beta.  beta is ``temperature_curve``'s
    on the grid; q_r and the intercept kappa_r are ``solve_quantization_dim``'s.
    """
    qs = np.linspace(0.0, 1.0, 21) if q_grid is None else np.asarray(q_grid, float)
    if len(qs) < 3:
        raise ValueError("q grid too coarse")
    betas = np.array(temperature_curve(system, family, qs, truncation).betas)
    fixed = solve_quantization_dim(system, family, r, truncation)
    q_r, intercept = fixed.q_r, fixed.kappa_r

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
