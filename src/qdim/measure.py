"""Sampling and metric machinery for conformal measures.

The conformal measure assigns every cylinder the weight of its Birkhoff
exponential; symbol-constant families reduce to Bernoulli measures and
sample exactly by i.i.d. symbol draws.  Nonconstant families are
sampled by a place-dependent chain driven by the leading eigenfunction
of the transfer operator, whose stationary law is the Gibbs state, and
a rejection step that turns the Gibbs state back into the conformal
measure.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalFailure
from .ifs import GaussBranch1D, IfsSystem, Similarity1D
from .potentials import (PotentialFamily, _exponent, _orbit_exponent, _tail_exp_sum,
                         is_symbol_constant, symbol_log_weight, truncation_tail_bound)
from .pressure import (_NODES, _barycentric_terms, _chebyshev_nodes, _closed_form,
                       _operator_eigen, _operator_measure, _operator_parts, _symbol_logs,
                       is_multiplicative)

_CHUNK = 65536
_THREADS = 4              # most threads of the i.i.d. sampler, one row range each
_REACH = 64               # reachable cdf entries up to which counting beats a binary search
_CHAIN_CHUNK = 2048       # chains per chunk of the eigenfunction sampler
_CHAIN_BATCH = 4          # chunks per step call: 4 x 2048 float64 = 64 KB per per-step array
_H_GRID = 2049            # grid points of the eigenfunction's table (its minimum, the rejection)
_DEFICIT = 1e-6           # largest relative tail mass an automatic truncation leaves out
_MAX_TRUNCATION = 4096    # the chain interpolates every symbol's probability at every step
_LAW_TOL = 1e-12          # each sample's depth takes its law this close to its limit
_TABLE_GRID = 1024        # grid cells of the chain's cdf table
_TABLE_BYTES = 1 << 21    # at most this many bytes of cdf table; larger alphabets get fewer cells
_ROUNDING = 1e-12         # rounding of the table, of the exact draw and of its normalization


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
    M = system.truncated_size(truncation)
    if M is not None and max(w) > M:
        raise ValueError(f"symbol {max(w)} beyond the truncation {M}")
    if is_multiplicative(system, family):
        a, d = _symbol_logs(system, family, M or max(w))
        k = np.array(w) - 1
        log_integral = float(np.sum(_exponent(a[k], d[k], q, t)))
        pressure = _closed_form(system, family, truncation)(q, t)
    else:
        nu, pressure = _operator_measure(system, family, M, q, t)
        x, _ = _chebyshev_nodes(system.domain, _NODES)
        log_g = _orbit_exponent(family, system, w, x, q, t)
        top = float(log_g.max())  # -inf at every node: the cylinder weighs 0
        log_integral = top if top == -math.inf else top + math.log(float(nu @ np.exp(log_g - top)))
    return math.exp(log_integral - len(w) * pressure)


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


def _map_step(system: IfsSystem, M: int):
    """(idx, x) -> phi_{idx+1}(x) for symbols 1..M, one vectorized call where it can.

    The maps' types choose the step.  Similarities step as slope * x +
    offset with slope = orientation * ratio (exact, the orientation is +-1;
    a geometric system's ratio**i, in closed form, that underflows to 0
    only collapses a map of negligible weight onto 0), and Gauss branches
    as 1 / (b + x) with b their digits (exact, an integer converts
    exactly).  These give the maps' own values bit for bit; any other mix
    makes one map call per drawn symbol (``_apply_symbols``).  The
    vectorized steps convert the indices (the uint8 draws of
    ``_draw_symbols``) to intp once and build the result in the buffer
    that the first ``take`` returns, with the same two float operations.
    """
    if system.geometric_ratio is not None:
        # phi_i(x) = ratio**i (x + 2) in closed form
        slope = np.array([system.geometric_ratio ** i for i in range(1, M + 1)])
        offset = 2.0 * slope
    else:
        maps = [system.map(i) for i in range(1, M + 1)]
        if all(isinstance(m, GaussBranch1D) for m in maps):
            b = np.array([m.digit for m in maps], dtype=float)

            def gauss_step(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
                out = b.take(idx.astype(np.intp, copy=False))
                out += x
                return np.divide(1.0, out, out=out)

            return gauss_step
        if not all(isinstance(m, Similarity1D) for m in maps):
            return lambda idx, x: _apply_symbols(system, idx.ravel(), x.ravel()).reshape(x.shape)
        slope = np.array([float(m.orientation) * m.ratio for m in maps])
        offset = np.array([m.offset for m in maps])

    def affine_step(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        i = idx.astype(np.intp, copy=False)
        out = slope.take(i)
        out *= x
        out += offset.take(i)
        return out

    return affine_step


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
    are at most _REACH of them, and by the binary search otherwise.  Every
    u is below cdf[-1] = 1, so at most the first M - 1 entries are reached,
    and a short cdf is counted whole without looking for the largest u.
    The sampler calls it once per row range of a chunk, so the largest u,
    and with it the dtype, can differ between the ranges of one chunk; the
    symbols cannot.
    """
    u = rng.random(shape)
    reach = cdf.size - 1
    if reach > _REACH:
        reach = int(np.searchsorted(cdf, u.max(), side="right"))
        if reach > _REACH:
            return np.searchsorted(cdf, u, side="right")
    if reach == 1:
        return np.greater_equal(u, cdf[0]).view(np.uint8)
    idx = np.zeros(shape, np.uint8)
    for c in cdf[:reach]:
        idx += u >= c
    return idx


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_worker():
    """A pool initializer that pins the j-th worker to CPU ``cpus[j % len(cpus)]``.

    ``cpus`` is the sorted affinity mask of the calling thread, and
    ``os.sched_setaffinity(0, ...)`` acts on the calling thread only (Linux),
    so each worker moves and the thread that starts the pool stays where it
    is.  None where the call does not exist; a worker whose call raises
    ``OSError`` stays unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.count()

    def pin() -> None:
        try:
            os.sched_setaffinity(0, {cpus[next(turn) % len(cpus)]})
        except OSError:
            pass

    return pin


def _sample_constant(system: IfsSystem, family: PotentialFamily, count: int,
                     depth: int, M: int, seed: int) -> np.ndarray:
    """i.i.d. symbol words of length ``depth`` applied to the domain midpoint.

    Chunks of _CHUNK words come from (seed, chunk) streams, and the draws
    are bit-identical to ``rng.choice(M, size=(n, depth), p=probs)``
    (``_draw_symbols``).  The last k symbols of a word take the midpoint to
    one of M^k points, tabulated once by the same ``_map_step`` calls, for
    the largest k <= depth with M^k <= min(count, _CHUNK): a word looks up
    its suffix by the base-M number of those symbols, and each of the
    other depth - k steps maps the rows at once by one ``_map_step`` call.
    Every point is the one that stepping the whole word gives, bit for bit.

    Each chunk is cut into one contiguous row range per thread, with
    threads = min(_cpu_count(), _THREADS) and no empty range.  A range
    [lo, hi) starts its chunk's stream and jumps it ahead by lo * depth
    outputs (``PCG64.advance``): ``Generator.random`` takes one 64-bit
    output per double and fills rows in C order, so the range draws rows
    lo:hi of the chunk's uniforms exactly.  The ranges run on a thread pool
    (the draws and the array loops release the GIL) and write disjoint
    slices of the result, so the sample is the same bytes whatever the
    CPU count; with one range in all (one CPU, or a single word) they run
    inline, without a pool.

    Each worker pins itself to its own CPU of the caller's mask
    (``_pin_worker``).  Unpinned, two workers on a 2-vCPU Xeon VM took as
    long as one thread: the 200 000-point sample of a weighted Cantor
    measure took 26-28 ms serially or unpinned and 15-17 ms pinned.  The
    cost: a pinned worker cannot leave a CPU that another process keeps
    busy.  The caller's own mask is left as it is.
    """
    probs = np.array([math.exp(symbol_log_weight(family, system, i)) for i in range(1, M + 1)])
    cdf = _symbol_cdf(probs / probs.sum())
    step = _map_step(system, M)
    k, cap = 0, min(count, _CHUNK)
    while k < depth and M ** (k + 1) <= cap:
        k += 1
    # suffix[c] = phi_{a_1} o ... o phi_{a_k}(midpoint) for c = sum a_j M^(k-j), 0-based a_j
    suffix = np.array([system.midpoint])
    for _ in range(k):
        suffix = step(np.repeat(np.arange(M), suffix.size), np.tile(suffix, M))
    out = np.empty(count)

    def words(chunk_idx: int, lo: int, hi: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx)))
        if lo:
            rng.bit_generator.advance(lo * depth)
        # steps[j] holds the j-th symbol of every word, contiguous
        steps = _draw_symbols(rng, cdf, (hi - lo, depth)).T.copy()
        code = np.zeros(hi - lo, np.int32)  # codes stay below M^k <= _CHUNK
        for idx in steps[depth - k:]:
            code *= M
            code += idx
        x = suffix.take(code)
        for idx in steps[:depth - k][::-1]:
            x = step(idx, x)
        out[chunk_idx * _CHUNK + lo:chunk_idx * _CHUNK + hi] = x

    threads = min(_cpu_count(), _THREADS)
    ranges = []
    for chunk_idx, start in enumerate(range(0, count, _CHUNK)):
        n = min(_CHUNK, count - start)
        cuts = [n * j // threads for j in range(threads + 1)]
        ranges += [(chunk_idx, lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    workers = min(threads, len(ranges))
    if workers == 1:
        for args in ranges:
            words(*args)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers, initializer=_pin_worker()) as pool:
            list(pool.map(lambda args: words(*args), ranges))
    return out


def _chain_drawer(x: np.ndarray, w: np.ndarray, table: np.ndarray):
    """(y, u) -> the chain's 0-based symbols at states y for uniforms u, exactly.

    The exact draw behind ``_filtered_drawer``, which calls it for a chunk
    whose step its table cannot decide: with ``num = _barycentric_terms(x, w, y) @ table``
    (a state on a node takes that node's unit row), ``cdf`` is the running
    sum of ``max(num[:, :-1] / num[:, -1:], 0)`` over symbols and the symbol
    is the count of cdf entries <= u times its last entry.  The product
    stays a BLAS product: another summation order would round differently
    and change the streams.
    """
    def draw(y: np.ndarray, u: np.ndarray) -> np.ndarray:
        num = _barycentric_terms(x, w, y) @ table
        cdf = np.cumsum(np.maximum(num[:, :-1] / num[:, -1:], 0.0), axis=1)
        return (cdf <= u[:, None] * cdf[:, -1:]).sum(axis=1)

    return draw


def _chebyshev_magnitudes(values: np.ndarray) -> np.ndarray:
    """|c_n| for the interpolant sum c_n T_n of each column of node values.

    The rows of ``values`` are values at the Chebyshev-Lobatto nodes
    (``_chebyshev_nodes`` order); the c_n come from a discrete cosine
    transform.  With |T_n| <= 1 and |T_n''| <= n^2 (n^2 - 1) / 3 on
    [-1, 1], they bound the interpolant and its second derivative.
    """
    n = np.arange(values.shape[0])
    N = n[-1]
    half = np.where((n == 0) | (n == N), 0.5, 1.0)
    dct = (2.0 / N) * half[:, None] * half * np.cos(np.pi * np.outer(n, n) / N)
    return np.abs(dct @ values)


def _lerp_curvature(nodes: int, cells: int) -> np.ndarray:
    """Delta^2 / 8 times the |T_n''| bound, for n < ``nodes``, on a domain of ``cells`` cells.

    Dotted with ``_chebyshev_magnitudes`` of node values it bounds the error
    of linear interpolation of their interpolant between grid points
    Delta = (b - a) / cells apart: Delta^2 / 8 max |f''|, with
    (2 / (b - a))^2 for the map of [-1, 1] onto the domain [a, b].
    """
    n = np.arange(nodes)
    return (2.0 / cells) ** 2 / 8.0 * n ** 2 * (n ** 2 - 1) / 3.0


def _cdf_table(x: np.ndarray, w: np.ndarray, table: np.ndarray,
               domain: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, clear, margin): the chain's normalized cdf on a uniform grid, and its error.

    R[j, k] = cdf_k(g_j) / cdf_{M-1}(g_j) at the G + 1 grid points g_j of
    the domain, by the exact formula of ``_chain_drawer``, for the k < M - 1
    that a bisection compares with u; the columns are padded with 1.0 to
    2^ceil(log2 M) - 1, so every bisection step reads inside the table.  G
    is _TABLE_GRID, or less where the table would pass _TABLE_BYTES.

    clear[j] says that every interpolated probability p_k is positive on the
    whole cell [g_j, g_{j+1}], so the drawer's max(p_k, 0) never acts there:
    the smaller end value minus Delta^2 / 8 max |p_k''| is positive, with
    Delta = (b - a) / G.  On a clear cell, linear interpolation of R_k is
    off by at most

        margin[k] = Delta^2 / 8 min(max |cdf_k''|, max |(S - cdf_k)''|)
                    + 2 max |S - 1| + _ROUNDING + 2 M eps,

    where S = cdf_{M-1} is the sum of all p_k, 1 up to the eigenvector's
    residual (R_k = cdf_k / S = 1 - (S - cdf_k) / S is within max |S - 1|
    of both cdf_k and 1 - (S - cdf_k)).  The second derivatives and
    max |S - 1| are bounded from Chebyshev coefficients
    (``_chebyshev_magnitudes``, ``_lerp_curvature``); the tail form keeps
    the margin of the late, nearly flat R_k as small as their spacing.  The
    last term covers the running sums of M entries.  Needs M >= 2.
    """
    a, b = domain
    M = table.shape[1] - 1
    width = (1 << (M - 1).bit_length()) - 1
    cells = max(1, min(_TABLE_GRID, _TABLE_BYTES // (16 * width)))
    # einsum, not BLAS: a threaded gemm of this shape can stall for milliseconds, and
    # the summation order only moves the table by rounding, which the margin covers
    num = np.einsum("gj,jk->gk", _barycentric_terms(x, w, np.linspace(a, b, cells + 1)), table)
    p = num[:, :-1] / num[:, -1:]
    cdf = np.cumsum(np.maximum(p, 0.0), axis=1)
    R = np.ones((cells + 1, width))
    R[:, :M - 1] = cdf[:, :-1] / cdf[:, -1:]

    probs = table[:, :-1]
    curve = _lerp_curvature(probs.shape[0], cells)
    lows = curve @ _chebyshev_magnitudes(probs)
    clear = np.all(np.minimum(p[:-1], p[1:]) > lows, axis=1)
    head = curve @ _chebyshev_magnitudes(np.cumsum(probs, axis=1)[:, :-1])
    tail = curve @ _chebyshev_magnitudes(np.cumsum(probs[:, :0:-1], axis=1)[:, ::-1])
    s_off = float(_chebyshev_magnitudes(probs.sum(axis=1) - 1.0).sum())
    margin = np.full(width, 2.0 * s_off + _ROUNDING + 2 * M * np.finfo(float).eps)
    margin[:M - 1] += np.minimum(head, tail)
    return R, clear, margin


def _in_table(pos: np.ndarray, cells: int, fail):
    """(pos, fail): rows with a table position outside [0, cells] join ``fail``.

    ``fail`` is False or a mask over the rows of ``pos``.  The positions of
    the rows that join it are set to 0, so every table lookup of the batch
    stays inside the table; the caller redoes those rows exactly.
    """
    if not (pos.min() >= 0.0 and pos.max() <= cells):
        out = ~((pos.min(axis=1) >= 0.0) & (pos.max(axis=1) <= cells))
        pos[out] = 0.0
        fail = fail | out
    return pos, fail


def _unsure(gap: np.ndarray, margin, fail):
    """``fail`` joined by the rows with some |gap| <= margin, which the table cannot decide."""
    sure = np.abs(gap) > margin
    return fail if sure.all() else fail | ~sure.all(axis=1)


def _redo_rows(exact, out: np.ndarray, fail, *args: np.ndarray) -> np.ndarray:
    """out[r] = exact(*(a[r] for a in args)) for each row r that ``fail`` marks."""
    if fail is not False:
        for row in np.flatnonzero(fail):
            out[row] = exact(*(a[row] for a in args))
    return out


def _filtered_drawer(x: np.ndarray, w: np.ndarray, table: np.ndarray,
                     domain: tuple[float, float]):
    """(y, u) -> symbols: ``_chain_drawer`` with a certified table filter in front of it.

    y and u are (rows, chains) arrays, one row per chunk of chains, and the
    rows share every numpy call, which a step's cost is mostly made of.
    Each step interpolates the normalized cdf R_k linearly at every
    chain's state from ``_cdf_table`` and finds the symbol by a vectorized
    bisection over k: ceil(log2 M) comparisons of u with interpolated
    R_k, among them the two R_k that bracket u.  Where every chain of a
    row lies in the domain on a clear cell, every u is below 1 - _ROUNDING
    and more than ``margin[k]`` away from each R_k it is compared with,
    every comparison has the exact one's outcome and the row's symbols are
    the exact draw's, bit for bit.  Each other row is redone alone by
    ``_chain_drawer``, which is that chunk's exact draw: the chains in
    another product shape could round differently, so a row is redone
    whole or not at all.
    """
    exact = _chain_drawer(x, w, table)

    def every_row(y: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _redo_rows(exact, np.empty(y.shape, np.intp), np.ones(len(y), bool), y, u)

    if table.shape[1] < 3:  # one symbol: nothing to decide
        return every_row
    R, clear, margin = _cdf_table(x, w, table, domain)
    if not clear.any():
        return every_row
    a, b = domain
    cells, width = clear.size, R.shape[1]
    scale = cells / (b - a)
    # R_k at each grid point and its rise to the next, point-major; the last point
    # rises by 0, so a state at b reads R_k there from a cell of its own
    rises = np.vstack([np.diff(R, axis=0), np.zeros(width)])
    clear = np.append(clear, clear[-1])
    steps = [1 << i for i in reversed(range((table.shape[1] - 2).bit_length()))]
    first = steps[0] - 1  # the first comparison reads the same column for every chain
    left0, rise0, margin0 = R[:, first].copy(), rises[:, first].copy(), margin[first]
    left, rise = R.ravel(), rises.ravel()
    all_clear = bool(clear.all())

    def draw(y: np.ndarray, u: np.ndarray) -> np.ndarray:
        fail = False
        if not u.max() < 1.0 - _ROUNDING:
            fail = ~(u.max(axis=1) < 1.0 - _ROUNDING)
        pos, fail = _in_table((y - a) * scale, cells, fail)
        cell = pos.astype(np.intp)
        if not all_clear:
            inside = clear.take(cell)
            if not inside.all():
                fail = fail | ~inside.all(axis=1)
        frac = pos - cell
        gap = u - (left0.take(cell) + frac * rise0.take(cell))
        fail = _unsure(gap, margin0, fail)
        k = (gap >= 0.0) * steps[0]
        if len(steps) > 1:
            base = cell * width
            for step in steps[1:]:
                col = k + (step - 1)
                idx = base + col
                gap = u - (left.take(idx) + frac * rise.take(idx))
                fail = _unsure(gap, margin.take(col), fail)
                k += (gap >= 0.0) * step
        return _redo_rows(exact, k, fail, y, u)

    return draw


def _h_table(x: np.ndarray, w: np.ndarray, h: np.ndarray,
             domain: tuple[float, float]) -> tuple[np.ndarray, float]:
    """(values, margin): the eigenfunction's interpolant on _H_GRID grid points, and its error.

    values[j] = h(g_j) by the barycentric formula of the exact rejection
    (``_exact_rejection``).  Linear interpolation between them is off from
    that formula by at most

        margin = Delta^2 / 8 max |h''| + _ROUNDING max |h|,

    Delta = (b - a) / (_H_GRID - 1), with max |h''| bounded from the
    Chebyshev coefficients of h (``_chebyshev_magnitudes``,
    ``_lerp_curvature``); the last term covers the rounding of both
    evaluations and of the products with the acceptance uniforms.
    """
    terms = _barycentric_terms(x, w, np.linspace(*domain, _H_GRID))
    values = terms @ h / terms.sum(axis=1)
    curve = _lerp_curvature(h.size, _H_GRID - 1)
    margin = float(curve @ _chebyshev_magnitudes(h)) + _ROUNDING * float(np.abs(values).max())
    return values, margin


def _exact_rejection(x: np.ndarray, w: np.ndarray, h: np.ndarray, h_min: float):
    """(y, accept) -> which chains of one chunk the rejection keeps, exactly.

    A chain is kept where accept * h(y) <= h_min, with h(y) by the
    barycentric formula: the terms' product with h over their sum.  The
    product stays a BLAS product, as in ``_chain_drawer``.
    """
    def keep(y: np.ndarray, accept: np.ndarray) -> np.ndarray:
        terms = _barycentric_terms(x, w, y)
        return accept * (terms @ h / terms.sum(axis=1)) <= h_min

    return keep


def _filtered_rejection(x: np.ndarray, w: np.ndarray, h: np.ndarray,
                        domain: tuple[float, float]):
    """(y, accept) -> kept mask of (rows, chains) states: the rejection with a table filter.

    h_min is the smallest h on the grid of ``_h_table``, as it always was.
    Each chain's h(y) is interpolated linearly from that table; where every
    chain of a row lies in the domain and has accept * h(y) more than
    accept * margin away from h_min, the kept set is the exact one's.  Each
    other row runs ``_exact_rejection`` whole, for the reason
    ``_filtered_drawer`` redoes a row whole.
    """
    values, margin = _h_table(x, w, h, domain)
    h_min = float(np.min(values))
    if not h_min > 0.0:
        raise NumericalFailure("the interpolated eigenfunction is not positive")
    exact = _exact_rejection(x, w, h, h_min)
    a, b = domain
    cells = values.size - 1
    scale = cells / (b - a)
    rise = np.append(np.diff(values), 0.0)  # a state at b reads h(b) from a cell of its own

    def keep(y: np.ndarray, accept: np.ndarray) -> np.ndarray:
        pos, fail = _in_table((y - a) * scale, cells, False)
        cell = pos.astype(np.intp)
        gap = accept * (values.take(cell) + (pos - cell) * rise.take(cell)) - h_min
        fail = _unsure(gap, accept * margin, fail)
        return _redo_rows(exact, gap <= 0.0, fail, y, accept)

    return keep


def _sample_chain(system: IfsSystem, family: PotentialFamily, count: int,
                  M: int, seed: int) -> tuple[np.ndarray, int]:
    """Exact draw for nonconstant families: an eigenfunction chain, then rejection.

    With L h = lambda h for the transfer operator at (q, t) = (1, 0), the
    place-dependent chain y -> phi_i(y) with probability
    p_i(y) = e^{f_i(y)} h(phi_i y) / (lambda h(y)) has the Gibbs state h m
    as its stationary law (Barnsley-Demko-Elton-Geronimo); keeping its
    state after n steps with probability min h / h(y) leaves the
    conformal measure m.  Its transition operator Q g = L(h g) / (lambda h)
    is similar to L / lambda, so the law after n steps approaches h m like
    rho^n, rho the operator's subdominant eigenvalue ratio; the chain takes
    the fewest steps with rho^n <= 1e-12 (``_gap_depth``).  The
    p_i are interpolated from their values at the operator's
    Chebyshev-Lobatto nodes.  Exactly, a step is one product of
    (chains x nodes) barycentric terms with the (nodes x M) node
    probabilities and a running sum over the symbols (``_chain_drawer``);
    a table of the normalized cdf on a uniform grid, built once per
    sample, decides the step instead by linear interpolation and a
    bisection over the symbols wherever its proven error bound separates
    every chain's uniform from the cdf entries it is compared with, and
    the exact draw runs only for a chunk where it does not
    (``_filtered_drawer``), with the same symbols either way.  Then one
    vectorized map call (``_map_step``) moves the chains.  The rejection
    reads h from a table on a uniform grid in the same way, with the exact
    product only for a chunk with a chain inside the table's error bound
    (``_filtered_rejection``).

    Chunks of chains run from (seed, chunk) streams until ``count`` points
    are kept, so the points are byte-identical per seed.  Up to
    _CHAIN_BATCH chunks step together as the rows of one array, so each
    numpy call serves them all.  Each row's stream fills that row's
    uniforms one step at a time and then its acceptance uniforms, which
    continues the stream exactly as one draw of all a chunk's steps
    would.  At 4 x 2048 chains every per-step float64 array holds 64 KB,
    half of glibc's 128 KB mmap threshold, so a step's temporaries come
    from the heap instead of fresh mappings; and no array of a batch's
    whole depth is held, whose release would raise that (dynamic)
    threshold for the rest of the process.  The first batch has at most
    the chunks that ``count`` needs if every chain were kept, each later
    one as many as the acceptance rate so far needs; chunks past the last
    one needed only add points past ``count``.  Returns the points and the
    depth used.
    """
    parts = _operator_parts(system, family, M, _NODES)
    F, _, E = parts
    lam, h, _, rho = _operator_eigen(parts, 1.0, 0.0)
    depth = _gap_depth(rho)
    x, w = _chebyshev_nodes(system.domain, _NODES)
    # symbol-major views of the node-major parts; probs[i, j] = p_{i+1}(x_j)
    probs = np.exp(F.T) * (E.transpose(1, 0, 2) @ h) / (lam * h)
    table = np.column_stack([probs.T, np.ones(_NODES)])  # the last column gives the denominator
    keep = _filtered_rejection(x, w, h, system.domain)
    draw = _filtered_drawer(x, w, table, system.domain)
    step = _map_step(system, M)
    rows = min(_CHAIN_BATCH, -(-count // _CHAIN_CHUNK))
    kept, total, chunk_idx = [], 0, 0
    while total < count:
        streams = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_idx + row)))
                   for row in range(rows)]
        u = np.empty((rows, _CHAIN_CHUNK))
        y = np.full((rows, _CHAIN_CHUNK), system.midpoint)
        for _ in range(depth):
            for rng, row in zip(streams, u):
                rng.random(out=row)
            y = step(draw(y, u), y)
        for rng, row in zip(streams, u):  # each stream's acceptance uniforms follow its steps'
            rng.random(out=row)
        y = y[keep(y, u)]
        kept.append(y)
        total += y.size
        chunk_idx += rows
        rows = min(_CHAIN_BATCH, -(-(count - total) * chunk_idx // total)) if total else _CHAIN_BATCH
    return np.concatenate(kept)[:count], depth


def sample_measure(system: IfsSystem, family: PotentialFamily, count: int,
                   truncation: int | None = None, seed: int = 0) -> SampleSet:
    """Draw a deterministic empirical approximation of the conformal measure.

    Symbol-constant families (``is_symbol_constant``) draw i.i.d. symbol
    strings with the (truncation-renormalized) weights e^{f_i} and map the
    domain midpoint through the word; every other family runs the
    eigenfunction chain (``_sample_chain``).  The depth takes the law
    within 1e-12 of its limit: words of length log(1e-12) / log(s) for
    i.i.d. words (60 when s = 1), and for the chain the steps its
    transfer operator's spectral gap needs.  Infinite
    alphabets truncate at the smallest M whose relative tail mass is at
    most 1e-6 (at most 4096 symbols) unless an explicit truncation is
    supplied, which samples the truncated system's own measure whatever
    its deficit; ``deficit`` reports that relative tail mass either way.
    """
    if count < 1:
        raise ValueError("need at least one sample")

    total = _tail_exp_sum(family, system)
    M = system.truncated_size(truncation)
    if M is None:
        M = _auto_truncation(system, family, total)
    deficit = _weight_deficit(system, family, M, total)

    if is_symbol_constant(family, system):
        depth = _default_depth(system)
        pts = _sample_constant(system, family, count, depth, M, seed)
    else:
        pts, depth = _sample_chain(system, family, count, M, seed)
    return SampleSet(points=pts, seed=seed, depth=depth, truncation=M,
                     deficit=deficit)


# ---------------------------------------------------------------------------
# serialization


def save_sample(sample: SampleSet, path: str | Path) -> None:
    """CSV with a single `point` column plus a JSON sidecar of the draw metadata.

    The rows are joined in one string: a float's repr needs no quoting, so
    these are the bytes of ``csv.writer`` (rows ended by CRLF) row by row.
    """
    path = Path(path)
    rows = "".join(repr(v) + "\r\n" for v in sample.points.tolist())
    path.write_text("point\r\n" + rows, newline="")
    sidecar = {
        "count": len(sample),
        "seed": sample.seed,
        "depth": sample.depth,
        "truncation": sample.truncation,
        "deficit": sample.deficit,
    }
    try:
        Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    except OSError:
        path.unlink()  # no CSV without its metadata
        raise
