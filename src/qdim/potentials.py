"""Summable potential families over an IFS alphabet.

Two families are shipped.  ``ConstantLogWeights`` assigns f_i = log p_i
(the self-similar / Bernoulli case).  ``DerivativeFamily`` assigns
f_i(x) = g(x) + s_exp * log|phi_i'(x)|, the standard summable class on
hereditarily regular systems.  Arbitrary potentials enter through the
same evaluation-oracle interface by supplying g.

Families carry a normalization ``shift``: the effective potential is
f_i - shift, chosen so the topological pressure of the family vanishes.
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

    @property
    def size(self) -> None:
        return None


@dataclass(frozen=True)
class ConstantLogWeights:
    """Potential family f_i = log p_i (x-independent)."""

    weights: FiniteWeights | GeometricWeights
    shift: float = 0.0


@dataclass(frozen=True)
class DerivativeFamily:
    """Potential family f_i(x) = g(x) + s_exp * log|phi_i'(x)|.

    ``g=None`` means the zero function.  ``g_sup`` bounds sup|g| and
    feeds the tail bounds of infinite alphabets.
    """

    s_exp: float
    g: Callable | None = None
    g_sup: float = 0.0
    shift: float = 0.0

    def __post_init__(self):
        if self.s_exp <= 0:
            raise ValueError("derivative exponent must be positive")


PotentialFamily = ConstantLogWeights | DerivativeFamily


# ---------------------------------------------------------------------------
# families as functions on symbols


def log_weight_family(weights: Sequence[float]) -> ConstantLogWeights:
    return ConstantLogWeights(FiniteWeights(tuple(float(w) for w in weights)))


def geometric_weight_family(ratio: float) -> ConstantLogWeights:
    return ConstantLogWeights(GeometricWeights(float(ratio)))


def derivative_family(s_exp: float, g: Callable | None = None, *,
                      g_sup: float = 0.0) -> DerivativeFamily:
    return DerivativeFamily(float(s_exp), g, g_sup)


def f_value(family: PotentialFamily, system: IfsSystem, i: int, x):
    """Shift-adjusted potential f_i(x); broadcasts over numpy arrays."""
    if isinstance(family, ConstantLogWeights):
        return family.weights.log_p(i) - family.shift + 0.0 * x
    m = system.map(i)
    base = 0.0 if family.g is None else family.g(x)
    return base + family.s_exp * np.log(m.abs_deriv(x)) - family.shift


def single_exp_sup(family: PotentialFamily, system: IfsSystem, i: int) -> float:
    """||e^{f_i}|| over the domain (grid estimate for nonconstant g)."""
    if isinstance(family, ConstantLogWeights):
        return math.exp(family.weights.log_p(i) - family.shift)
    return float(np.exp(np.max(f_value(family, system, i, system.grid))))


def is_symbol_constant(family: PotentialFamily, system: IfsSystem) -> bool:
    """True when every f_i is constant on the domain (exact sup norms)."""
    if isinstance(family, ConstantLogWeights):
        return True
    return family.g is None and system.all_similarities


def symbol_log_weight(family: PotentialFamily, system: IfsSystem, i: int) -> float:
    """log||e^{f_i}|| for symbol-constant families (exact)."""
    if isinstance(family, ConstantLogWeights):
        return family.weights.log_p(i) - family.shift
    return family.s_exp * math.log(system.map(i).deriv_sup) - family.shift


# ---------------------------------------------------------------------------
# Birkhoff sums


def _birkhoff_grid(family: PotentialFamily, system: IfsSystem, word: Word,
                   x: np.ndarray) -> np.ndarray:
    """S_w(F) evaluated on an array of points, via the suffix orbit."""
    total = np.zeros_like(np.asarray(x, dtype=float))
    y = np.asarray(x, dtype=float)
    for sym in reversed(word):
        total = total + f_value(family, system, sym, y)
        y = system.map(sym).value(y)
    return total


def birkhoff_sum(family: PotentialFamily, system: IfsSystem, word: Sequence[int],
                 x: float) -> float:
    """S_w(F)(x) = sum_j f_{w_j}(phi_{suffix after j}(x))."""
    w = system.check_word(word)
    if not w:
        raise ValueError("Birkhoff sums need a nonempty word")
    a, b = system.domain
    if not (a - 1e-12 <= x <= b + 1e-12):
        raise ValueError(f"x={x} outside the domain [{a}, {b}]")
    return float(_birkhoff_grid(family, system, w, np.asarray(float(x))))


# ---------------------------------------------------------------------------
# the tail model of infinite alphabets


_HEAD = 256  # symbols summed exactly before the tail bound takes over


def _tail_decay(family: PotentialFamily, tail: TailDecay,
                q: float) -> tuple[tuple[float, float], ...]:
    """((c0, c1), (b0, b1), (p0, p1)): the decay of the single-symbol terms.

    For q >= 0, every t and i >= 1,  ||e^{f_i}||^q ||phi_i'||^t <= c * b**i * i**(-p)
    with log c = c0 + c1 t, log b = b0 + b1 t and p = p0 + p1 t.  This is
    the one place that reads a tail descriptor.  Geometric weights give
    ||e^{f_i}|| exactly; a derivative family is bounded by
    e^{g_sup - shift} ||phi_i'||^s_exp.
    """
    if isinstance(family, ConstantLogWeights):
        w = family.weights
        if isinstance(w, FiniteWeights):
            raise ValueError("finite weight table on an infinite alphabet")
        c0 = q * (math.log1p(-w.ratio) - math.log(w.ratio) - family.shift)
        b0 = q * math.log(w.ratio)
        e0 = 0.0  # ||phi_i'|| enters with the exponent e0 + t
    else:
        g_sup = 0.0 if family.g is None else family.g_sup  # exact for a zero g
        c0 = q * (g_sup - family.shift)
        b0 = 0.0
        e0 = q * family.s_exp
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
    if isinstance(family, ConstantLogWeights):
        w = family.weights
        if isinstance(w, FiniteWeights):
            raise ValueError("finite weight table on an infinite alphabet")
        kc = math.log1p(-w.ratio) - math.log(w.ratio) - family.shift
        kb = math.log(w.ratio)
        zc, zb = 0.0 * log_coef, 0.0 * log_base  # e0 = 0: ||phi_i'|| enters with the exponent t

        def logsum(q: float, t: float) -> float:
            return _log_geometric_series(q * kc + zc + log_coef * t,
                                         q * kb + zb + log_base * t, M)
        return logsum
    kc = (0.0 if family.g is None else family.g_sup) - family.shift
    s_exp = family.s_exp

    def logsum(q: float, t: float) -> float:
        e0 = q * s_exp
        return _log_geometric_series(q * kc + e0 * log_coef + log_coef * t,
                                     0.0 + e0 * log_base + log_base * t, M)
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

    P = _pressure_callable(system, family, truncation)
    return replace(family, shift=family.shift + P(1.0, 0.0))
