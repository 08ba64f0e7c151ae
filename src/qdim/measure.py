"""Sampling and metric machinery for conformal measures.

The conformal measure assigns every cylinder the weight of its Birkhoff
exponential; constant-weight families reduce to self-similar measures
and sample exactly by i.i.d. symbol draws.  Nonconstant families are
sampled by a ratio-bounded surrogate: the word grows one symbol at a
time with probabilities proportional to the child cylinder-mass bracket
midpoints, whose bias is bounded by the ratio constant C and recorded
on the sample.

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
                         _tail_exp_sum, f_value, ratio_bound,
                         sup_norm_exp_birkhoff, truncation_tail_bound)

_CHUNK = 65536
_SURROGATE_CHUNK = 1024
_DEFICIT = 1e-6           # largest relative tail mass an automatic truncation leaves out
_MAX_TRUNCATION = 4096    # the surrogate sampler visits every symbol at every step


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
    bias_bound: float             # worst-case per-draw ratio distortion

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
    if all_sims:
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


def _sample_surrogate(system: IfsSystem, family: PotentialFamily, count: int,
                      depth: int, M: int, seed: int) -> np.ndarray:
    """Ratio-bounded surrogate draw for nonconstant families.

    The word is grown from its last symbol to its first; prepending a
    symbol i updates the cached grid images in one vectorized step
    (phi_{iw} = phi_i o phi_w), and the next symbol is drawn with
    probability proportional to the grid sup of exp(S_{iw}), the common
    midpoint scale of the child mass brackets.
    """
    grid = np.append(system.grid, system.midpoint)
    out = np.empty(count)
    start = 0
    chunk_idx = 0
    while start < count:
        n = min(_SURROGATE_CHUNK, count - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx)))
        vals = np.broadcast_to(grid, (n, grid.size)).copy()
        bsum = np.zeros_like(vals)
        uniforms = rng.random((depth, n))
        for step in range(depth):
            scores = np.empty((n, M))
            cand_vals = np.empty((M, n, grid.size))
            cand_bsum = np.empty((M, n, grid.size))
            for i in range(1, M + 1):
                m = system.map(i)
                fv = f_value(family, system, i, vals)
                cand_bsum[i - 1] = bsum + fv
                cand_vals[i - 1] = m.value(vals)
                scores[:, i - 1] = cand_bsum[i - 1].max(axis=1)
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            cdf = np.cumsum(w, axis=1)
            cdf /= cdf[:, -1:]
            pick = (uniforms[step][:, None] > cdf).sum(axis=1)
            rows = np.arange(n)
            vals = cand_vals[pick, rows, :]
            bsum = cand_bsum[pick, rows, :]
        out[start:start + n] = vals[:, -1]  # the image of the midpoint
        start += n
        chunk_idx += 1
    return out


def sample_measure(system: IfsSystem, family: PotentialFamily, count: int,
                   depth: int | None = None, truncation: int | None = None,
                   seed: int = 0, allow_deficit: bool = False) -> SampleSet:
    """Draw a deterministic empirical approximation of the conformal measure.

    Constant-weight families draw i.i.d. symbol strings with the
    (truncation-renormalized) weights and map the domain midpoint
    through the word.  Infinite alphabets truncate at the smallest M
    whose relative tail mass is at most 1e-6 (at most 4096 symbols)
    unless an explicit truncation is supplied; a larger deficit needs
    ``allow_deficit=True``.
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
        bias = 1.0
    else:
        pts = _sample_surrogate(system, family, count, depth, M, seed)
        bias = ratio_bound(family, system)
    return SampleSet(points=np.sort(pts), seed=seed, depth=depth, truncation=M,
                     deficit=deficit, bias_bound=bias)


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
        "bias_bound": sample.bias_bound,
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
                     truncation=meta["truncation"], deficit=meta["deficit"],
                     bias_bound=meta["bias_bound"])


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
