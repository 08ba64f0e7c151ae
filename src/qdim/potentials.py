"""Summable potential families over an IFS alphabet.

One family, f_i(x) = log p_i + g(x) + s_exp * log|phi_i'(x)| - shift,
with each of its three terms optional: log p_i from a finite or
geometric weight list (the self-similar / Bernoulli case), a base
function g, and the derivative term of the standard summable class on
hereditarily regular systems.  The ``shift`` normalizes the family so
that its topological pressure vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NonSummableError
from .ifs import FiniteAlphabet, GeometricTail, IfsSystem, TailDecay, Word

# ---------------------------------------------------------------------------
# weight tables


@dataclass(frozen=True)
class FiniteWeights:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values or not all(v > 0 for v in self.values):
            raise ValueError("weights must be positive")
        try:  # normalization and sampling sum e^{log p_i} over the table
            total = math.fsum(math.exp(self.log_p(i)) for i in range(1, self.size + 1))
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise ValueError("weights must have a finite sum")

    def log_p(self, i: int) -> float:
        return math.log(self.values[i - 1])

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GeometricWeights:
    """p_i = (1 - ratio) * ratio**(i-1); sums to one over the full alphabet."""

    ratio: float

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("weight ratio must lie in (0, 1)")

    def log_p(self, i: int) -> float:
        return math.log1p(-self.ratio) + (i - 1) * math.log(self.ratio)


@dataclass(frozen=True)
class PotentialFamily:
    """Potential family f_i(x) = log p_i + g(x) + s_exp * log|phi_i'(x)| - shift.

    ``weights=None`` drops the log p_i term, ``g=None`` the base
    function and ``s_exp=0`` the derivative term; an absent term is
    skipped, never formed as zero (0 * log|phi_i'| is NaN where phi_i'
    underflows).  ``g_sup`` bounds sup|g| and feeds the tail bounds of
    infinite alphabets.
    """

    weights: FiniteWeights | GeometricWeights | None = None
    s_exp: float = 0.0
    g: Callable | None = None
    g_sup: float = 0.0
    shift: float = 0.0

    def __post_init__(self):
        if self.s_exp < 0:
            raise ValueError("derivative exponent must be positive")


# ---------------------------------------------------------------------------
# families as functions on symbols


def log_weight_family(weights: Sequence[float]) -> PotentialFamily:
    return PotentialFamily(FiniteWeights(tuple(float(w) for w in weights)))


def geometric_weight_family(ratio: float) -> PotentialFamily:
    return PotentialFamily(GeometricWeights(float(ratio)))


def derivative_family(s_exp: float, g: Callable | None = None, *,
                      g_sup: float = 0.0) -> PotentialFamily:
    if s_exp <= 0:
        raise ValueError("derivative exponent must be positive")
    return PotentialFamily(None, float(s_exp), g, g_sup)


def _log_p(family: PotentialFamily, i: int) -> float:
    return 0.0 if family.weights is None else family.weights.log_p(i)


def f_value(family: PotentialFamily, system: IfsSystem, i: int, x):
    """Shift-adjusted potential f_i(x); broadcasts over numpy arrays."""
    if family.g is None and not family.s_exp:
        return _log_p(family, i) - family.shift + 0.0 * x
    value = _log_p(family, i) + (0.0 if family.g is None else family.g(x))
    if family.s_exp:
        with np.errstate(divide="ignore"):  # log 0 = -inf where phi_i' vanishes
            value = value + family.s_exp * np.log(system.map(i).abs_deriv(x))
    return value - family.shift


def single_exp_sup(family: PotentialFamily, system: IfsSystem, i: int) -> float:
    """||e^{f_i}|| over the domain (grid estimate for an x-dependent f_i)."""
    if family.g is None and not family.s_exp:
        return math.exp(_log_p(family, i) - family.shift)
    return float(np.exp(np.max(f_value(family, system, i, system.grid))))


def is_symbol_constant(family: PotentialFamily, system: IfsSystem) -> bool:
    """True when every f_i is constant on the domain (exact sup norms)."""
    return family.g is None and (not family.s_exp or system.all_similarities)


def _log_deriv_sup(system: IfsSystem, i: int) -> float:
    """log sup|phi_i'|; a geometric alphabet's ratio**i, read without building the map,
    gives -inf once it underflows (the symbol weighs 0; ``_map_step`` maps it onto 0)."""
    ratio = system.geometric_ratio
    sup = system.map(i).deriv_sup if ratio is None else ratio ** i
    return math.log(sup) if sup > 0.0 else -math.inf


def symbol_log_weight(family: PotentialFamily, system: IfsSystem, i: int) -> float:
    """log||e^{f_i}|| for symbol-constant families (exact)."""
    value = _log_p(family, i)
    if family.s_exp:
        value = value + family.s_exp * _log_deriv_sup(system, i)
    return value - family.shift


# ---------------------------------------------------------------------------
# Birkhoff sums


def _exponent(F, D, q: float, t: float):
    """q F + t D, the exponent of e^{q f} |phi'|^t from F = f and D = log|phi'|; D is
    not read at t = 0 (D = -inf where |phi'| underflows, and 0 * -inf is NaN)."""
    return q * F if t == 0.0 else q * F + t * D


def _orbit_exponent(family: PotentialFamily, system: IfsSystem, word: Word, x,
                    q: float = 1.0, t: float = 0.0) -> np.ndarray:
    """q S_w(F) + t log|phi_w'| on an array of points, via the suffix orbit."""
    y = np.asarray(x, dtype=float)
    total = np.zeros_like(y)
    for sym in reversed(word):
        m = system.map(sym)
        with np.errstate(divide="ignore"):  # D = -inf where |phi'| underflows
            D = np.log(m.abs_deriv(y)) if t != 0.0 else None
        total = total + _exponent(f_value(family, system, sym, y), D, q, t)
        y = m.value(y)
    return total


# ---------------------------------------------------------------------------
# the tail model of infinite alphabets


_HEAD = 256  # symbols summed exactly before the tail bound takes over


def _tail_constants(family: PotentialFamily) -> tuple[float, float | None]:
    """(kc, kb) with log||e^{f_i}|| <= kc + kb i + s_exp log||phi_i'||.

    Geometric weights give kc + kb i = log p_i - shift exactly, and g adds
    g_sup to kc; kb is None without weights.
    """
    w = family.weights
    if isinstance(w, FiniteWeights):
        raise ValueError("finite weight table on an infinite alphabet")
    kc = 0.0 if family.g is None else family.g_sup  # exact for a zero g
    kb = None
    if w is not None:
        kc = math.log1p(-w.ratio) - math.log(w.ratio) + kc
        kb = math.log(w.ratio)
    return kc - family.shift, kb


def _tail_decay(family: PotentialFamily, tail: TailDecay,
                q: float) -> tuple[tuple[float, float], ...]:
    """((c0, c1), (b0, b1), (p0, p1)): the decay of the single-symbol terms.

    For q >= 0, every t and i >= 1,  ||e^{f_i}||^q ||phi_i'||^t <= c * b**i * i**(-p)
    with log c = c0 + c1 t, log b = b0 + b1 t and p = p0 + p1 t.  This is
    the one place that reads a tail descriptor; the family enters through
    ``_tail_constants``, with ||phi_i'|| at the exponent q s_exp + t.
    """
    kc, kb = _tail_constants(family)
    c0 = q * kc
    b0 = 0.0 if kb is None else q * kb
    e0 = q * family.s_exp if family.s_exp else 0.0  # ||phi_i'|| enters with the exponent e0 + t
    log_coef = math.log(tail.coef)
    c = (c0 + e0 * log_coef, log_coef)
    if isinstance(tail, GeometricTail):
        log_base = math.log(tail.base)
        return c, (b0 + e0 * log_base, log_base), (0.0, 0.0)
    return c, (b0, 0.0), (e0 * tail.power, tail.power)


def _geometric_pressure(family: PotentialFamily, system: IfsSystem,
                        M: int | None) -> Callable[[float, float], float]:
    """(q, t) -> log sum over i <= M of ||e^{f_i}||^q ||phi_i'||^t on a geometric
    similarity system.

    There a symbol-constant family meets its tail model with equality:
    the terms are e^{A + B i} with A = log c and B = log b
    (``_tail_decay``).  The logs that do not depend on q are taken once
    here; each call repeats the rest of ``_tail_decay``'s operations in
    its order, so every value is the one that model gives, to the bit.
    M = None sums the whole alphabet and gives +inf where that series
    diverges.
    """
    tail = system.alphabet.tail
    log_coef, log_base = math.log(tail.coef), math.log(tail.base)
    kc, kb = _tail_constants(family)
    s_exp = family.s_exp

    def logsum(q: float, t: float) -> float:
        e0 = q * s_exp if s_exp else 0.0
        b0 = 0.0 if kb is None else q * kb
        return _log_geometric_series(q * kc + e0 * log_coef + log_coef * t,
                                     b0 + e0 * log_base + log_base * t, M)
    return logsum


def _log_geometric_series(A: float, B: float, M: int | None) -> float:
    """log sum over 1 <= i <= M of e^{A + B i}; M = None sums to infinity."""
    if M is None:
        if B >= 0.0:
            return math.inf
        return A + B - math.log1p(-math.exp(B))
    if abs(B) < 1e-300:
        return A + math.log(M)
    if B > 0:
        return A + B * M + math.log1p(-math.exp(-B * M)) - math.log1p(-math.exp(-B))
    return A + B + math.log1p(-math.exp(B * M)) - math.log1p(-math.exp(B))


def truncation_tail_bound(system: IfsSystem, family: PotentialFamily, q: float,
                          t: float, M: int) -> float:
    """Upper bound for sum over i > M >= 1 of ||e^{f_i}||^q ||phi_i'||^t.

    Separates the alphabet-truncation error from the operator error; it
    is reported alongside truncated estimates, never folded into them.
    Returns +inf when the tail diverges at this (q, t).
    """
    if isinstance(system.alphabet, FiniteAlphabet):
        return 0.0
    log_c, log_b, p = (x0 + x1 * t for x0, x1 in _tail_decay(family, system.alphabet.tail, q))
    if log_b > 0.0 or (log_b == 0.0 and p <= 1.0):
        return math.inf
    try:
        if log_b == 0.0:
            return math.exp(log_c) * M ** (1.0 - p) / (p - 1.0)  # integral test
        # the terms c e^{-lam i} i^a, a = max(0, -p), peak at i = a/lam at most
        # and from n0 >= 2a/lam on shrink by a ratio below e^{a/n0 - lam} <= e^{-lam/2}
        lam, a = -log_b, max(0.0, -p)
        n0 = max(M + 1, math.ceil(2.0 * a / lam))
        rest = math.exp(log_c - lam * n0 - p * math.log(n0)) / -math.expm1(a / n0 - lam)
        if n0 == M + 1:
            return rest
        return rest + (n0 - M - 1) * math.exp(log_c + a * math.log(a / lam) - a)
    except OverflowError:  # a bound beyond the float range
        return math.inf


def _head_exp_sum(family: PotentialFamily, system: IfsSystem, M: int) -> float:
    """sum over i <= M of ||e^{f_i}||; in closed form on geometric similarity
    systems, whose far maps underflow to zero ratios (ratio 0.05 at i = 249)."""
    if system.geometric_ratio is not None and is_symbol_constant(family, system):
        return math.exp(_geometric_pressure(family, system, M)(1.0, 0.0))
    return math.fsum(single_exp_sup(family, system, i) for i in range(1, M + 1))


def _summable_tail(family: PotentialFamily, system: IfsSystem) -> float:
    """The tail bound of sum_i ||e^{f_i}|| beyond the head; raises where it diverges."""
    tail = truncation_tail_bound(system, family, 1.0, 0.0, _HEAD)
    if tail == math.inf:
        raise NonSummableError("sum_i ||e^{f_i}|| diverges over the alphabet's tail")
    return tail


def _tail_exp_sum(family: PotentialFamily, system: IfsSystem) -> float:
    """sum_i ||e^{f_i}||: an exact head plus, on infinite alphabets, the tail bound."""
    if isinstance(system.alphabet, FiniteAlphabet):
        return _head_exp_sum(family, system, system.size)
    tail = _summable_tail(family, system)
    return _head_exp_sum(family, system, _HEAD) + tail


# ---------------------------------------------------------------------------
# pressure normalization


def normalize_pressure(family: PotentialFamily, system: IfsSystem,
                       truncation: int | None = None) -> PotentialFamily:
    """Return a family whose shift makes the pressure P(1, 0) vanish.

    Symbol-constant families take the shift log sum_i ||e^{f_i}|| over
    the truncation, or over the whole alphabet (exact head plus the
    closed-form tail, itself exact for geometric tails).  Otherwise the
    shift is P(1, 0) of the collocated transfer operator, which needs a
    truncation on an infinite alphabet.  A divergent tail raises
    NonSummableError in either case; only the kept maps are built.
    """
    _summable_tail(family, system)

    if is_symbol_constant(family, system):
        if truncation is None:
            total = _tail_exp_sum(family, system)
        else:
            total = _head_exp_sum(family, system, system.truncated_size(truncation))
        return replace(family, shift=family.shift + math.log(total))

    from .pressure import _pressure_callable  # cycle kept local on purpose

    P, _ = _pressure_callable(system, family, truncation)
    return replace(family, shift=family.shift + P(1.0, 0.0))
