"""Sampling and metric machinery for conformal measures.

The conformal measure assigns every cylinder the weight of its Birkhoff
exponential; constant-weight families reduce to self-similar measures
and sample exactly by i.i.d. symbol draws.  Nonconstant families are
sampled by a place-dependent chain driven by the leading eigenfunction
of the transfer operator, whose stationary law is the Gibbs state, and
a rejection step that turns the Gibbs state back into the conformal
measure.

Also here: the order-r minimal (Wasserstein) metric between empirical
measures on the line, computed by the sorted (quantile) coupling.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalFailure
from .ifs import FiniteAlphabet, IfsSystem, Similarity1D, Word
from .potentials import (ConstantLogWeights, PotentialFamily, _head_exp_sum,
                         _tail_exp_sum, ratio_bound, sup_norm_exp_birkhoff,
                         truncation_tail_bound)
from .pressure import (_NODES, _barycentric_terms, _chebyshev_nodes, _operator_eigen,
                       _operator_parts)

_CHUNK = 65536
_CHAIN_CHUNK = 2048       # chains per chunk of the eigenfunction sampler
_H_GRID = 2049            # grid points for the minimum of the eigenfunction's interpolant
_DEFICIT = 1e-6           # largest relative tail mass an automatic truncation leaves out
_MAX_TRUNCATION = 4096    # the chain interpolates every symbol's probability at every step


@dataclass(frozen=True)
class CylinderMass:
    word: Word
    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class SampleSet:
    """Weighted-uniform empirical approximation of a conformal measure."""

    points: np.ndarray            # sorted ascending
    seed: int
    depth: int
    truncation: int | None
    deficit: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("sample sets need at least one point")
        pts = np.sort(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)


# ---------------------------------------------------------------------------
# cylinder masses


def _renorm_log(system: IfsSystem, family: PotentialFamily, truncation: int | None) -> float:
    """log of the per-symbol mass renormalizer for a truncated subsystem."""
    if truncation is None:
        return 0.0
    return math.log(_head_exp_sum(family, system, truncation))


def cylinder_mass(system: IfsSystem, family: PotentialFamily, word: Sequence[int],
                  mode: str = "mF", q: float | None = None, r: float | None = None,
                  truncation: int | None = None) -> CylinderMass:
    """Two-sided bracket for a cylinder's conformal mass.

    mode "mF": the measure transforming by exp(S_w); the bracket is
    [C^-1 ||exp S_w||, ||exp S_w||], exact for constant-weight families.

    mode "mq": the auxiliary measure transforming by
    (exp(S_w) |phi_w'|^r)^q at the exponent pair t = r q; exact for
    constant-weight similarity systems as (p_w s_w^r)^q.

    A truncation renormalizes the per-symbol weights over {1..M}.
    """
    w = system.check_word(word)
    if not w:
        return CylinderMass(w, 1.0, 1.0)
    C = ratio_bound(family, system)
    renorm = _renorm_log(system, family, truncation)

    norm, err = sup_norm_exp_birkhoff(family, system, w)
    log_mass_up = math.log(norm) + math.log(err) - len(w) * renorm
    log_mass_lo = math.log(norm) - math.log(C) - len(w) * renorm

    if mode == "mF":
        return CylinderMass(w, math.exp(log_mass_lo), math.exp(log_mass_up))
    if mode == "mq":
        if q is None or r is None or not 0.0 < q < 1.0:
            raise ValueError("mq mode needs q in (0,1) and the order r (t = r*q)")
        from .ifs import derivative_sup_norm
        dnorm, derr = derivative_sup_norm(system, w)
        upper = q * (log_mass_up + r * math.log(dnorm) + r * math.log(derr))
        lower = q * (log_mass_lo + r * (math.log(dnorm) - math.log(system.K)))
        return CylinderMass(w, math.exp(lower), math.exp(upper))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# truncation bookkeeping


def _weight_deficit(system: IfsSystem, family: PotentialFamily, M: int) -> float:
    """Relative child-weight mass beyond symbol M: the tail bound over the total."""
    tail = truncation_tail_bound(system, family, 1.0, 0.0, M)
    return 0.0 if tail == 0.0 else tail / _tail_exp_sum(family, system)


def _auto_truncation(system: IfsSystem, family: PotentialFamily) -> int:
    """The smallest M >= 2 with deficit <= _DEFICIT, by bisection (deficits fall in M)."""
    deficit = _weight_deficit(system, family, _MAX_TRUNCATION)
    if deficit > _DEFICIT:
        raise NumericalFailure(
            f"cannot reach the truncation deficit {_DEFICIT:.3g}: it is still "
            f"{deficit:.3g} at {_MAX_TRUNCATION} symbols"
        )
    lo, hi = 1, _MAX_TRUNCATION  # deficit(hi) <= _DEFICIT; lo is never a candidate
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _weight_deficit(system, family, mid) <= _DEFICIT:
            hi = mid
        else:
            lo = mid
    return hi


def _default_depth(system: IfsSystem) -> int:
    if system.s < 1.0:
        return int(math.ceil(math.log(1e-12) / math.log(system.s)))
    return 60


# ---------------------------------------------------------------------------
# sampling


def _apply_symbols(system: IfsSystem, syms: np.ndarray, x: np.ndarray, M: int) -> np.ndarray:
    """x -> phi_{sym}(x) elementwise for a vector of symbols."""
    out = np.empty_like(x)
    for i in range(1, M + 1):
        mask = syms == i
        if mask.any():
            out[mask] = system.map(i).value(x[mask])
    return out


def _sample_constant(system: IfsSystem, family: ConstantLogWeights, count: int,
                     depth: int, M: int, seed: int) -> np.ndarray:
    probs = np.array([math.exp(family.weights.log_p(i)) for i in range(1, M + 1)])
    probs = probs / probs.sum()
    mid = system.midpoint
    all_sims = (system.geometric_ratio is not None
                or (isinstance(system.alphabet, FiniteAlphabet)
                    and all(isinstance(m, Similarity1D) for m in system.alphabet.maps)))
    if system.geometric_ratio is not None:
        # phi_i(x) = ratio**i (x + 2) in closed form: a ratio**i that underflows
        # to 0 only collapses a map of negligible weight onto 0
        ratio = np.array([system.geometric_ratio ** i for i in range(1, M + 1)])
        orient = np.ones(M)
        offset = 2.0 * ratio
    elif all_sims:
        ratio = np.array([system.map(i).ratio for i in range(1, M + 1)])
        orient = np.array([float(system.map(i).orientation) for i in range(1, M + 1)])
        offset = np.array([system.map(i).offset for i in range(1, M + 1)])
    out = np.empty(count)
    start = 0
    chunk_idx = 0
    while start < count:
        n = min(_CHUNK, count - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx)))
        syms = rng.choice(M, size=(n, depth), p=probs) + 1
        x = np.full(n, mid)
        for k in range(depth - 1, -1, -1):
            col = syms[:, k]
            if all_sims:
                idx = col - 1
                x = orient[idx] * ratio[idx] * x + offset[idx]
            else:
                x = _apply_symbols(system, col, x, M)
        out[start:start + n] = x
        start += n
        chunk_idx += 1
    return out


def _sample_chain(system: IfsSystem, family: PotentialFamily, count: int,
                  depth: int, M: int, seed: int) -> np.ndarray:
    """Exact draw for nonconstant families: an eigenfunction chain, then rejection.

    With L h = lambda h for the transfer operator at (q, t) = (1, 0), the
    place-dependent chain y -> phi_i(y) with probability
    p_i(y) = e^{f_i(y)} h(phi_i y) / (lambda h(y)) has the Gibbs state h m
    as its stationary law (Barnsley-Demko-Elton-Geronimo); keeping its
    state after ``depth`` steps with probability min h / h(y) leaves the
    conformal measure m.  The p_i are interpolated from their values at
    the operator's Chebyshev-Lobatto nodes, so each step is one product
    of (chains x nodes) barycentric terms with the (nodes x M) node
    probabilities.  Chunks of chains run from (seed, chunk) streams until
    ``count`` points are kept.
    """
    parts = _operator_parts(system, family, M, _NODES)
    F, _, E = parts
    lam, h, _ = _operator_eigen(parts)
    x, w = _chebyshev_nodes(system.domain, _NODES)
    probs = np.exp(F) * (E @ h) / (lam * h)               # probs[i, j] = p_{i+1}(x_j)
    table = np.column_stack([probs.T, np.ones(_NODES)])  # the last column gives the denominator
    grid = np.linspace(*system.domain, _H_GRID)
    terms = _barycentric_terms(x, w, grid)
    h_min = float(np.min(terms @ h / terms.sum(axis=1)))
    if not h_min > 0.0:
        raise NumericalFailure("the interpolated eigenfunction is not positive")

    kept, total, chunk_idx = [], 0, 0
    while total < count:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx)))
        steps = rng.random((depth, _CHAIN_CHUNK))
        accept = rng.random(_CHAIN_CHUNK)
        y = np.full(_CHAIN_CHUNK, system.midpoint)
        for u in steps:
            num = _barycentric_terms(x, w, y) @ table
            cdf = np.cumsum(np.maximum(num[:, :-1] / num[:, -1:], 0.0), axis=1)
            syms = (cdf <= u[:, None] * cdf[:, -1:]).sum(axis=1) + 1
            y = _apply_symbols(system, syms, y, M)
        terms = _barycentric_terms(x, w, y)
        y = y[accept * (terms @ h / terms.sum(axis=1)) <= h_min]
        kept.append(y)
        total += y.size
        chunk_idx += 1
    return np.concatenate(kept)[:count]


def sample_measure(system: IfsSystem, family: PotentialFamily, count: int,
                   depth: int | None = None, truncation: int | None = None,
                   seed: int = 0, allow_deficit: bool = False) -> SampleSet:
    """Draw a deterministic empirical approximation of the conformal measure.

    Constant-weight families draw i.i.d. symbol strings with the
    (truncation-renormalized) weights and map the domain midpoint
    through the word; every other family runs ``depth`` steps of the
    eigenfunction chain (``_sample_chain``).  Infinite alphabets
    truncate at the smallest M whose relative tail mass is at most 1e-6
    (at most 4096 symbols) unless an explicit truncation is supplied; a
    larger deficit needs ``allow_deficit=True``.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    if depth is None:
        depth = _default_depth(system)
    if depth < 1:
        raise ValueError("depth must be >= 1")

    if isinstance(system.alphabet, FiniteAlphabet):
        M = system.alphabet.size if truncation is None else min(truncation, system.alphabet.size)
    elif truncation is None:
        M = _auto_truncation(system, family)
    else:
        M = truncation
    deficit = _weight_deficit(system, family, M)
    if deficit > _DEFICIT and not allow_deficit:
        raise NumericalFailure(
            f"truncation deficit {deficit:.3g} exceeds {_DEFICIT:.3g}; "
            "pass allow_deficit=True to sample the truncated measure anyway"
        )

    if isinstance(family, ConstantLogWeights):
        pts = _sample_constant(system, family, count, depth, M, seed)
    else:
        pts = _sample_chain(system, family, count, depth, M, seed)
    return SampleSet(points=np.sort(pts), seed=seed, depth=depth, truncation=M,
                     deficit=deficit)


# ---------------------------------------------------------------------------
# serialization


def save_sample(sample: SampleSet, path: str | Path) -> None:
    """CSV with a single `point` column plus a JSON sidecar of the draw metadata."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point"])
        for p in sample.points:
            writer.writerow([repr(float(p))])
    sidecar = {
        "count": len(sample),
        "seed": sample.seed,
        "depth": sample.depth,
        "truncation": sample.truncation,
        "deficit": sample.deficit,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_sample(path: str | Path) -> SampleSet:
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["point"]:
            raise ValueError("expected a single 'point' column")
        pts = np.array([float(row[0]) for row in reader])
    meta = json.loads(Path(str(path) + ".json").read_text())
    return SampleSet(points=pts, seed=meta["seed"], depth=meta["depth"],
                     truncation=meta["truncation"], deficit=meta["deficit"])


# ---------------------------------------------------------------------------
# the order-r minimal metric


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, SampleSet):
        return obj.points
    pts = np.sort(np.asarray(obj, dtype=float))
    return pts


def wasserstein_1d(r: float, a, b) -> float:
    """Order-r minimal metric between two empirical measures on the line.

    In one dimension the optimal coupling is the sorted (quantile)
    coupling; unequal sizes are resampled onto a common quantile grid.
    """
    if r <= 0:
        raise ValueError("the order r must be positive")
    pa, pb = _as_points(a), _as_points(b)
    if pa.size == 0 or pb.size == 0:
        raise ValueError("empty sample set")
    if pa.size != pb.size:
        k = max(pa.size, pb.size)
        qs = (np.arange(k) + 0.5) / k
        pa = np.quantile(pa, qs, method="inverted_cdf")
        pb = np.quantile(pb, qs, method="inverted_cdf")
    return float(np.mean(np.abs(pa - pb) ** r) ** (1.0 / r))
