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
from .ifs import IfsSystem
from .potentials import (ConstantLogWeights, PotentialFamily, _tail_exp_sum, f_value,
                         truncation_tail_bound)
from .pressure import (_NODES, _barycentric_terms, _chebyshev_nodes, _operator_eigen,
                       _operator_parts, _pressure_callable, _symbol_logs,
                       is_multiplicative)

_CHUNK = 65536
_REACH = 64               # reachable cdf entries up to which counting beats a binary search
_CHAIN_CHUNK = 2048       # chains per chunk of the eigenfunction sampler
_H_GRID = 2049            # grid points for the minimum of the eigenfunction's interpolant
_DEFICIT = 1e-6           # largest relative tail mass an automatic truncation leaves out
_MAX_TRUNCATION = 4096    # the chain interpolates every symbol's probability at every step
_LAW_TOL = 1e-12          # the default depth takes the sampled law this close to its limit


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Weighted-uniform empirical approximation of a conformal measure.

    Compared and hashed by identity, so per-sample results can be cached
    against it.
    """

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


def cylinder_mass(system: IfsSystem, family: PotentialFamily, word: Sequence[int],
                  q: float = 1.0, t: float = 0.0, truncation: int | None = None) -> float:
    """m(phi_w X) for the measure m with L*m = e^{P(q, t)} m.

    L is the transfer operator g -> sum_i e^{q f_i} |phi_i'|^t g o phi_i
    over the (truncated) alphabet, so (q, t) = (1, 0) gives the conformal
    measure m_F and t = r q the auxiliary measure of order r.  Pulling
    the cylinder back through L^n gives, for |w| = n,

        m(phi_w X) = e^{-n P(q, t)} int e^{q S_w F} |phi_w'|^t dm,

    a product of symbol weights on multiplicative systems and otherwise
    the integral against the operator's left eigenvector nu, which is a
    quadrature rule for m at the collocation nodes.
    """
    w = system.check_word(word)
    if not w:
        return 1.0
    P, _ = _pressure_callable(system, family, truncation)
    M = system.truncated_size(truncation)
    if M is not None and max(w) > M:
        raise ValueError(f"symbol {max(w)} beyond the truncation {M}")
    if is_multiplicative(system, family):
        a, d = _symbol_logs(system, family, M or max(w))
        k = np.array(w) - 1
        log_integral = float(np.sum(q * a[k] + t * d[k]))
    else:
        _, _, nu, _ = _operator_eigen(_operator_parts(system, family, M, _NODES), q, t)
        y, _ = _chebyshev_nodes(system.domain, _NODES)
        log_g = np.zeros(_NODES)
        for sym in reversed(w):  # q S_w F + t log|phi_w'| along the suffix orbit
            m = system.map(sym)
            log_g += q * f_value(family, system, sym, y) + t * np.log(m.abs_deriv(y))
            y = m.value(y)
        top = float(log_g.max())
        log_integral = top + math.log(float(nu @ np.exp(log_g - top)))
    return math.exp(log_integral - len(w) * P(q, t))


# ---------------------------------------------------------------------------
# truncation bookkeeping


def _weight_deficit(system: IfsSystem, family: PotentialFamily, M: int,
                    total: float) -> float:
    """Relative child-weight mass beyond symbol M: the tail bound over ``total``,
    the sum over the whole alphabet (``_tail_exp_sum``)."""
    tail = truncation_tail_bound(system, family, 1.0, 0.0, M)
    return 0.0 if tail == 0.0 else tail / total


def _auto_truncation(system: IfsSystem, family: PotentialFamily, total: float) -> int:
    """The smallest M >= 2 with deficit <= _DEFICIT, by bisection (deficits fall in M)."""
    deficit = _weight_deficit(system, family, _MAX_TRUNCATION, total)
    if deficit > _DEFICIT:
        raise NumericalFailure(
            f"cannot reach the truncation deficit {_DEFICIT:.3g}: it is still "
            f"{deficit:.3g} at {_MAX_TRUNCATION} symbols"
        )
    lo, hi = 1, _MAX_TRUNCATION  # deficit(hi) <= _DEFICIT; lo is never a candidate
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _weight_deficit(system, family, mid, total) <= _DEFICIT:
            hi = mid
        else:
            lo = mid
    return hi


def _gap_depth(rho: float) -> int:
    """The fewest steps n with rho^n <= _LAW_TOL, for a law that converges like rho^n."""
    if not 0.0 <= rho < 1.0:
        raise NumericalFailure(f"the chain does not mix: its convergence rate {rho:.6g} "
                               "is not below 1")
    return 1 if rho == 0.0 else math.ceil(math.log(_LAW_TOL) / math.log(rho))


def _default_depth(system: IfsSystem) -> int:
    """Depth of the i.i.d. symbol words: backward iteration contracts by s per step."""
    return _gap_depth(system.s) if system.s < 1.0 else 60


# ---------------------------------------------------------------------------
# sampling


def _apply_symbols(system: IfsSystem, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x -> phi_{i+1}(x) elementwise for a vector of 0-based symbol indices i.

    One sort groups the positions by symbol, then each symbol that occurs
    gets one vectorized map call, so the cost does not grow with the
    alphabet.
    """
    order = np.argsort(idx, kind="stable")
    drawn = idx[order]
    cuts = np.flatnonzero(drawn[1:] != drawn[:-1]) + 1
    out = np.empty_like(x)
    for group in np.split(order, cuts):
        out[group] = system.map(int(idx[group[0]]) + 1).value(x[group])
    return out


def _symbol_cdf(probs: np.ndarray) -> np.ndarray:
    """The cdf that ``Generator.choice(M, p=probs)`` searches, after its checks on p."""
    p_sum = float(np.sum(probs))
    if math.isnan(p_sum):
        raise ValueError("Probabilities contain NaN")
    if np.any(probs < 0):
        raise ValueError("Probabilities are not non-negative")
    if abs(p_sum - 1.0) > math.sqrt(np.finfo(float).eps):
        raise ValueError("Probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_symbols(rng: np.random.Generator, cdf: np.ndarray, shape: tuple[int, int]
                  ) -> np.ndarray:
    """0-based symbols, equal to ``rng.choice(cdf.size, size=shape, p=probs)``.

    Draws the same uniforms u as ``choice`` and returns
    ``searchsorted(cdf, u, side="right")``: as a uint8 count of the cdf
    entries <= u, over only the entries that some u reaches, when there
    are at most _REACH of them, and by the binary search otherwise.
    """
    u = rng.random(shape)
    reach = int(np.searchsorted(cdf, u.max(), side="right"))
    if reach > _REACH:
        return np.searchsorted(cdf, u, side="right")
    idx = np.zeros(shape, np.uint8)
    for c in cdf[:reach]:
        idx += u >= c
    return idx


def _sample_constant(system: IfsSystem, family: ConstantLogWeights, count: int,
                     depth: int, M: int, seed: int) -> np.ndarray:
    """i.i.d. symbol words of length ``depth`` applied to the domain midpoint.

    Chunks of _CHUNK words come from (seed, chunk) streams, and the draws
    are bit-identical to ``rng.choice(M, size=(n, depth), p=probs)``
    (``_draw_symbols``).  Similarity maps step as slope * x + offset with
    slope = orientation * ratio, exact because the orientation is +-1.
    """
    probs = np.array([math.exp(family.weights.log_p(i)) for i in range(1, M + 1)])
    cdf = _symbol_cdf(probs / probs.sum())
    mid = system.midpoint
    all_sims = system.all_similarities
    if system.geometric_ratio is not None:
        # phi_i(x) = ratio**i (x + 2) in closed form: a ratio**i that underflows
        # to 0 only collapses a map of negligible weight onto 0
        slope = np.array([system.geometric_ratio ** i for i in range(1, M + 1)])
        offset = 2.0 * slope
    elif all_sims:
        maps = [system.map(i) for i in range(1, M + 1)]
        slope = np.array([float(m.orientation) * m.ratio for m in maps])
        offset = np.array([m.offset for m in maps])
    out = np.empty(count)
    for chunk_idx, start in enumerate(range(0, count, _CHUNK)):
        n = min(_CHUNK, count - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx)))
        # steps[k] holds the k-th symbol of every word, contiguous
        steps = _draw_symbols(rng, cdf, (n, depth)).T.copy()
        x = np.full(n, mid)
        for idx in steps[::-1]:
            if all_sims:
                x = slope.take(idx) * x + offset.take(idx)
            else:
                x = _apply_symbols(system, idx, x)
        out[start:start + n] = x
    return out


def _sample_chain(system: IfsSystem, family: PotentialFamily, count: int,
                  depth: int | None, M: int, seed: int) -> tuple[np.ndarray, int]:
    """Exact draw for nonconstant families: an eigenfunction chain, then rejection.

    With L h = lambda h for the transfer operator at (q, t) = (1, 0), the
    place-dependent chain y -> phi_i(y) with probability
    p_i(y) = e^{f_i(y)} h(phi_i y) / (lambda h(y)) has the Gibbs state h m
    as its stationary law (Barnsley-Demko-Elton-Geronimo); keeping its
    state after ``depth`` steps with probability min h / h(y) leaves the
    conformal measure m.  Its transition operator Q g = L(h g) / (lambda h)
    is similar to L / lambda, so the law after n steps approaches h m like
    rho^n, rho the operator's subdominant eigenvalue ratio; a ``depth`` of
    None takes the fewest steps with rho^n <= 1e-12 (``_gap_depth``).  The
    p_i are interpolated from their values at the operator's
    Chebyshev-Lobatto nodes, so each step is one product of
    (chains x nodes) barycentric terms with the (nodes x M) node
    probabilities.  Chunks of chains run from (seed, chunk) streams until
    ``count`` points are kept.  Returns the points and the depth used.
    """
    parts = _operator_parts(system, family, M, _NODES)
    F, _, E = parts
    lam, h, _, rho = _operator_eigen(parts, 1.0, 0.0)
    if depth is None:
        depth = _gap_depth(rho)
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
            idx = (cdf <= u[:, None] * cdf[:, -1:]).sum(axis=1)
            y = _apply_symbols(system, idx, y)
        terms = _barycentric_terms(x, w, y)
        y = y[accept * (terms @ h / terms.sum(axis=1)) <= h_min]
        kept.append(y)
        total += y.size
        chunk_idx += 1
    return np.concatenate(kept)[:count], depth


def sample_measure(system: IfsSystem, family: PotentialFamily, count: int,
                   depth: int | None = None, truncation: int | None = None,
                   seed: int = 0, allow_deficit: bool = False) -> SampleSet:
    """Draw a deterministic empirical approximation of the conformal measure.

    Constant-weight families draw i.i.d. symbol strings with the
    (truncation-renormalized) weights and map the domain midpoint
    through the word; every other family runs ``depth`` steps of the
    eigenfunction chain (``_sample_chain``).  A ``depth`` of None takes
    the law within 1e-12 of its limit: words of length
    log(1e-12) / log(s) for constant weights (60 when s = 1), and for the
    chain the steps its transfer operator's spectral gap needs.  Infinite
    alphabets truncate at the smallest M whose relative tail mass is at
    most 1e-6 (at most 4096 symbols) unless an explicit truncation is
    supplied; a larger deficit needs ``allow_deficit=True``.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    if depth is not None and depth < 1:
        raise ValueError("depth must be >= 1")

    total = _tail_exp_sum(family, system)
    M = system.truncated_size(truncation)
    if M is None:
        M = _auto_truncation(system, family, total)
    deficit = _weight_deficit(system, family, M, total)
    if deficit > _DEFICIT and not allow_deficit:
        raise NumericalFailure(
            f"truncation deficit {deficit:.3g} exceeds {_DEFICIT:.3g}; "
            "pass allow_deficit=True to sample the truncated measure anyway"
        )

    if isinstance(family, ConstantLogWeights):
        depth = _default_depth(system) if depth is None else depth
        pts = _sample_constant(system, family, count, depth, M, seed)
    else:
        pts, depth = _sample_chain(system, family, count, depth, M, seed)
    return SampleSet(points=pts, seed=seed, depth=depth, truncation=M,
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
