"""One-dimensional conformal iterated function systems.

A system is a finite or countably infinite family of injective uniform
contractions of a closed interval into itself.  Infinite alphabets stay
lazy: maps come from a generator ``i -> map`` and derivative decay is
described by an explicit tail bound, so no code path ever enumerates the
whole alphabet.

Everything here is immutable after construction and safe to share across
workers; the operations are pure functions of their arguments.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

Word = tuple[int, ...]

_GRID_POINTS = 64  # domain grid for sup-norm estimates


# ---------------------------------------------------------------------------
# contraction maps


@dataclass(frozen=True)
class Similarity1D:
    """Affine map x -> orientation * ratio * x + offset, with ratio in (0, 1)."""

    ratio: float
    offset: float
    orientation: int = 1

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"similarity ratio must lie in (0, 1), got {self.ratio}")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")

    def value(self, x):
        return self.orientation * self.ratio * x + self.offset

    def abs_deriv(self, x):
        # constant derivative, broadcast against x
        return self.ratio + 0.0 * x

    @property
    def deriv_sup(self) -> float:
        return self.ratio


@dataclass(frozen=True)
class AnalyticBranch1D:
    """Injective differentiable branch given by evaluation and derivative oracles.

    Both callables must accept numpy arrays.  ``deriv_sup`` upper-bounds
    sup |phi'| over the domain; the derivative may not vanish there.
    """

    fn: Callable
    deriv: Callable
    deriv_sup: float
    label: str = ""

    def value(self, x):
        return self.fn(x)

    def abs_deriv(self, x):
        return np.abs(self.deriv(x))


ContractionMap = Similarity1D | AnalyticBranch1D


# ---------------------------------------------------------------------------
# alphabets and tail descriptors


@dataclass(frozen=True)
class PowerLawTail:
    """Derivative tail bound  sup|phi_i'| <= coef * i**(-power)  for every i >= 1."""

    coef: float
    power: float


@dataclass(frozen=True)
class GeometricTail:
    """Derivative tail bound  sup|phi_i'| <= coef * base**i  for every i >= 1."""

    coef: float
    base: float


TailDecay = PowerLawTail | GeometricTail


@dataclass(frozen=True)
class FiniteAlphabet:
    maps: tuple[ContractionMap, ...]

    def __post_init__(self):
        if not self.maps:
            raise ValueError("alphabet needs at least one map")

    @property
    def size(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class InfiniteAlphabet:
    """Lazy countable alphabet: generator plus derivative tail descriptor."""

    generator: Callable[[int], ContractionMap]
    tail: TailDecay

    @property
    def size(self) -> None:
        return None


# ---------------------------------------------------------------------------
# the system


@dataclass(frozen=True)
class IfsSystem:
    """An iterated function system on a closed interval.

    ``s`` is the uniform contraction bound.  It is allowed to equal 1.0
    for borderline families (continued-fraction branches have
    sup|phi_1'| = 1 on [0, 1]).  Bounded distortion is assumed, not
    stored: the quantization dimension follows from the pressure alone,
    and cylinders are measured exactly (``cylinder_interval``).
    """

    domain: tuple[float, float]
    alphabet: FiniteAlphabet | InfiniteAlphabet
    s: float
    geometric_ratio: float | None = None  # set when map i is a ratio**i similarity
    gauss_digits: Sequence[int] | None = None  # set when map i is 1/(gauss_digits[i-1] + x)
    assumptions: tuple[str, ...] = ("closure-of-interior", "cone-condition")

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError("domain must be a nondegenerate interval [a, b]")
        if not 0.0 < self.s <= 1.0:
            raise ValueError("contraction bound s must lie in (0, 1]")
        if isinstance(self.alphabet, FiniteAlphabet):
            for i, m in enumerate(self.alphabet.maps, start=1):
                if m.deriv_sup > self.s + 1e-12:
                    raise ValueError(
                        f"map {i} violates the stored contraction bound "
                        f"({m.deriv_sup} > {self.s})"
                    )

    # -- basic geometry -----------------------------------------------------

    @property
    def size(self) -> int | None:
        return self.alphabet.size

    @property
    def all_similarities(self) -> bool:
        """True when every map is a similarity (geometric alphabets included)."""
        if isinstance(self.alphabet, InfiniteAlphabet):
            return self.geometric_ratio is not None
        return all(isinstance(m, Similarity1D) for m in self.alphabet.maps)

    def truncated_size(self, truncation: int | None) -> int | None:
        """Symbols kept by a truncation: at most a finite alphabet's size.

        None keeps a finite alphabet whole and an infinite one untruncated.
        """
        if truncation is not None and truncation < 1:
            raise ValueError("truncations must be >= 1")
        n = self.alphabet.size
        if n is None:
            return truncation
        return n if truncation is None else min(truncation, n)

    @property
    def diam(self) -> float:
        return self.domain[1] - self.domain[0]

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.domain[0] + self.domain[1])

    @cached_property
    def grid(self) -> np.ndarray:
        g = np.linspace(self.domain[0], self.domain[1], _GRID_POINTS)
        g.flags.writeable = False
        return g

    def map(self, i: int) -> ContractionMap:
        if i < 1:
            raise ValueError(f"symbols are 1-based, got {i}")
        if isinstance(self.alphabet, FiniteAlphabet):
            if i > self.alphabet.size:
                raise ValueError(
                    f"symbol {i} out of range for alphabet of size {self.alphabet.size}"
                )
            return self.alphabet.maps[i - 1]
        return self.alphabet.generator(i)

    def check_word(self, word: Sequence[int]) -> Word:
        w = tuple(int(i) for i in word)
        n = self.size
        for i in w:
            if i < 1 or (n is not None and i > n):
                raise ValueError(f"invalid symbol {i} in word {w}")
        return w


# ---------------------------------------------------------------------------
# word operations


def compose_and_derivative(system: IfsSystem, word: Sequence[int], x: float) -> tuple[float, float]:
    """Evaluate the composed map and |derivative| of a word at x.

    Composition is right-to-left (phi_w = phi_{w_1} o ... o phi_{w_n});
    the derivative is the chain-rule product of |phi'| along the orbit.
    The empty word is the identity: returns (x, 1.0).
    """
    w = system.check_word(word)
    a, b = system.domain
    if not (a - 1e-12 <= x <= b + 1e-12):
        raise ValueError(f"x={x} outside the domain [{a}, {b}]")
    value = float(x)
    deriv = 1.0
    for sym in reversed(w):
        m = system.map(sym)
        deriv *= float(m.abs_deriv(value))
        value = float(m.value(value))
    return value, deriv


def cylinder_interval(system: IfsSystem, word: Sequence[int]) -> tuple[float, float]:
    """Exact image interval phi_word([a, b]) (branches are monotone)."""
    w = system.check_word(word)
    lo, _ = compose_and_derivative(system, w, system.domain[0])
    hi, _ = compose_and_derivative(system, w, system.domain[1])
    return (lo, hi) if lo <= hi else (hi, lo)


# ---------------------------------------------------------------------------
# builders


def similarity_system(ratios: Sequence[float], offsets: Sequence[float],
                      orientations: Sequence[int] | None = None, *,
                      domain: tuple[float, float] = (0.0, 1.0),
                      s: float | None = None) -> IfsSystem:
    """Finite system of affine contractions; validates images stay inside the domain."""
    if len(ratios) != len(offsets):
        raise ValueError("ratios and offsets must have equal length")
    if orientations is None:
        orientations = [1] * len(ratios)
    maps = tuple(
        Similarity1D(float(r), float(o), int(e))
        for r, o, e in zip(ratios, offsets, orientations)
    )
    a, b = domain
    for i, m in enumerate(maps, start=1):
        ends = sorted((m.value(a), m.value(b)))
        if ends[0] < a - 1e-12 or ends[1] > b + 1e-12:
            raise ValueError(f"map {i} does not send the domain into itself")
    if s is None:
        s = max(m.ratio for m in maps)
    return IfsSystem(domain=(float(a), float(b)), alphabet=FiniteAlphabet(maps),
                     s=float(s))


def cantor_system(domain: tuple[float, float] = (0.0, 1.0)) -> IfsSystem:
    """The middle-third Cantor system {x/3, x/3 + 2/3}."""
    a, b = domain
    span = b - a
    return similarity_system([1 / 3, 1 / 3], [a + 0.0, a + 2 * span / 3], domain=domain)


def geometric_similarity_system(ratio: float = 1 / 3) -> IfsSystem:
    """Countable system phi_i(x) = ratio**i * (x + 2) with disjoint images.

    Images are [2*ratio**i, 3*ratio**i]; disjointness and containment in
    [0, 1] require ratio <= 1/3.
    """
    if not 0.0 < ratio <= 1 / 3:
        raise ValueError("geometric systems need ratio in (0, 1/3]")

    def gen(i: int, _r: float = ratio) -> Similarity1D:
        return Similarity1D(_r ** i, 2.0 * _r ** i)

    return IfsSystem(domain=(0.0, 1.0),
                     alphabet=InfiniteAlphabet(gen, GeometricTail(1.0, ratio)),
                     s=ratio, geometric_ratio=ratio)


def _gauss_branch(i: int) -> AnalyticBranch1D:
    return AnalyticBranch1D(
        fn=lambda x, i=i: 1.0 / (i + x),
        deriv=lambda x, i=i: -1.0 / (i + x) ** 2,
        deriv_sup=1.0 / i ** 2,
        label=f"1/({i}+x)",
    )


def gauss_system(symbols: Sequence[int] | None = None) -> IfsSystem:
    """Continued-fraction branches phi_i(x) = 1/(i + x) on [0, 1].

    ``symbols`` picks a finite subsystem; None gives the full countable
    system with the i**-2 derivative tail.  Branch 1 has sup|phi'| = 1,
    so the stored contraction bound degenerates to 1.0 there.
    """
    if symbols is None:
        return IfsSystem(domain=(0.0, 1.0),
                         alphabet=InfiniteAlphabet(_gauss_branch, PowerLawTail(1.0, 2.0)),
                         s=1.0, gauss_digits=range(1, sys.maxsize))
    syms = tuple(int(i) for i in symbols)
    if any(i < 1 for i in syms):
        raise ValueError("continued-fraction symbols are positive integers")
    maps = tuple(_gauss_branch(i) for i in syms)
    s = min(1.0, max(m.deriv_sup for m in maps))
    return IfsSystem(domain=(0.0, 1.0), alphabet=FiniteAlphabet(maps), s=s,
                     gauss_digits=syms)
