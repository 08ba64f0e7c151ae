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

    def value(self, x):
        return self.fn(x)

    def abs_deriv(self, x):
        return np.abs(self.deriv(x))


@dataclass(frozen=True)
class GaussBranch1D:
    """Continued-fraction branch x -> 1 / (digit + x) on [0, 1], digit >= 1."""

    digit: int

    def value(self, x):
        return 1.0 / (self.digit + x)

    def abs_deriv(self, x):
        return 1.0 / (self.digit + x) ** 2

    @property
    def deriv_sup(self) -> float:
        return 1.0 / self.digit ** 2


ContractionMap = Similarity1D | AnalyticBranch1D | GaussBranch1D


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
    """An iterated function system on a closed interval: its domain and its maps.

    Everything else is read off the maps.  Bounded distortion is assumed,
    not stored: the quantization dimension follows from the pressure
    alone, and cylinders are measured exactly (``compose_and_derivative``).
    """

    domain: tuple[float, float]
    alphabet: FiniteAlphabet | InfiniteAlphabet

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError("domain must be a nondegenerate interval [a, b]")
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"contraction bound s = {self.s} outside (0, 1]: a map expands")

    # -- basic geometry -----------------------------------------------------

    @property
    def size(self) -> int | None:
        return self.alphabet.size

    @property
    def s(self) -> float:
        """The uniform contraction bound: the largest sup|phi_i'|, or an infinite
        alphabet's tail bound at i = 1 (1.0 with continued-fraction branch 1)."""
        if isinstance(self.alphabet, FiniteAlphabet):
            return max(m.deriv_sup for m in self.alphabet.maps)
        tail = self.alphabet.tail
        return tail.coef * tail.base if isinstance(tail, GeometricTail) else tail.coef

    @property
    def geometric_ratio(self) -> float | None:
        """The ratio when map i is the similarity ratio**i (x + 2), else None."""
        gen = getattr(self.alphabet, "generator", None)
        return gen.ratio if isinstance(gen, _GeometricSimilarities) else None

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


# ---------------------------------------------------------------------------
# builders


def similarity_system(ratios: Sequence[float], offsets: Sequence[float],
                      orientations: Sequence[int] | None = None, *,
                      domain: tuple[float, float] = (0.0, 1.0)) -> IfsSystem:
    """Finite system of affine contractions; validates images stay inside the domain."""
    if len(ratios) != len(offsets):
        raise ValueError("ratios and offsets must have equal length")
    if orientations is None:
        orientations = [1] * len(ratios)
    if any(isinstance(e, bool) or e not in (1, -1) for e in orientations):
        raise ValueError("orientations must be 1 or -1")
    maps = tuple(
        Similarity1D(float(r), float(o), int(e))
        for r, o, e in zip(ratios, offsets, orientations)
    )
    a, b = domain
    for i, m in enumerate(maps, start=1):
        ends = sorted((m.value(a), m.value(b)))
        if ends[0] < a - 1e-12 or ends[1] > b + 1e-12:
            raise ValueError(f"map {i} does not send the domain into itself")
    return IfsSystem(domain=(float(a), float(b)), alphabet=FiniteAlphabet(maps))


def cantor_system() -> IfsSystem:
    """The middle-third Cantor system {x/3, x/3 + 2/3} on [0, 1]."""
    return similarity_system([1 / 3, 1 / 3], [0.0, 2 / 3])


@dataclass(frozen=True)
class _GeometricSimilarities:
    """The generator i -> Similarity1D(ratio**i, 2 ratio**i) of a geometric system."""

    ratio: float

    def __call__(self, i: int) -> Similarity1D:
        if self.ratio ** i == 0.0:
            raise ValueError(f"symbol {i}: its ratio {self.ratio}**{i} underflows to 0.0")
        return Similarity1D(self.ratio ** i, 2.0 * self.ratio ** i)


def geometric_similarity_system(ratio: float = 1 / 3) -> IfsSystem:
    """Countable system phi_i(x) = ratio**i * (x + 2) with disjoint images.

    Images are [2*ratio**i, 3*ratio**i]; disjointness and containment in
    [0, 1] require ratio <= 1/3.
    """
    if not 0.0 < ratio <= 1 / 3:
        raise ValueError("geometric systems need ratio in (0, 1/3]")
    return IfsSystem((0.0, 1.0), InfiniteAlphabet(_GeometricSimilarities(ratio),
                                                  GeometricTail(1.0, ratio)))


def gauss_system(symbols: Sequence[int] | None = None) -> IfsSystem:
    """Continued-fraction branches phi_i(x) = 1/(i + x) on [0, 1].

    ``symbols`` picks a finite subsystem; None gives the full countable
    system with the i**-2 derivative tail.  Branch 1 has sup|phi'| = 1,
    so the contraction bound degenerates to 1.0 there.
    """
    if symbols is None:
        return IfsSystem(domain=(0.0, 1.0),
                         alphabet=InfiniteAlphabet(GaussBranch1D, PowerLawTail(1.0, 2.0)))
    syms = tuple(symbols)
    if (any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) or i < 1 for i in syms)
            or len(set(syms)) != len(syms)):
        raise ValueError("continued-fraction symbols must be distinct positive integers")
    maps = tuple(GaussBranch1D(int(i)) for i in syms)
    return IfsSystem(domain=(0.0, 1.0), alphabet=FiniteAlphabet(maps))
