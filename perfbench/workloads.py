"""Benchmark workloads: the seed becomes spec documents, CLI argument
lists and the oracle each command's output is checked against.

The program under test only ever sees the generated spec files and
argument lists.  Oracles are computed here, independently of qdim:
closed-form roots by ``scipy.optimize.brentq`` for similarity systems,
and fixed published constants for continued-fraction sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

LOG23 = math.log(2.0) / math.log(3.0)
# Jenkinson-Pollicott (2001): dim E_2 and dim E_{1..5}
DIM_E2 = 0.531280506277205
DIM_E15 = 0.836829443681208

THIRD = 1.0 / 3.0
R_SET = (0.5, 1.0, 2.0, 3.0)
VERIFY_TOL = 0.15

# Tolerances of the pass/fail oracle checks.  Closed-form paths are held
# to near machine precision; word-tree paths only to their documented
# accuracy, so known defects show in the digit metrics, not as failures.
RTOL_CLOSED = 1e-8
RTOL_TREE = 1e-2
ATOL_BETA_CLOSED = 1e-9
ATOL_BETA_TREE = 1e-3
ATOL_PRESSURE_TREE = 1e-3


@dataclass
class Command:
    label: str                  # unique within a pass
    argv: list[str]
    check: dict                 # oracle expectation, see checks.evaluate
    artifact: str | None = None  # --out file whose bytes are hashed

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    why: str
    specs: dict[str, dict]
    commands: list[Command]
    # spec files rewritten before every pass with K = base + pass/8, so a
    # longer run never repeats a (system, truncation) pair in one process
    vary_K: list[str] = field(default_factory=list)


WHY = {
    "selfsimilar-theory": "closed-form pressure path: nested beta-in-q bisection "
                          "dominates; word tree, sampling and quantizer idle",
    "conformal-theory": "word-tree pressure on continued-fraction branches: one "
                        "tree reused over a q grid and a fresh tree per truncation M",
    "selfsimilar-verify": "verify on a weighted Cantor measure: restarted Lloyd at "
                          "r=2 dominates, exact constant-weight sampler, closed-form kappa",
    "conformal-verify": "verify on Gauss {1,2}: Python-loop surrogate sampler and "
                        "golden-section Lloyd for r outside {1,2}",
}
NAMES = tuple(WHY)


# ---------------------------------------------------------------------------
# closed-form oracles for similarity systems


def _root(fn, lo: float, hi: float) -> float:
    return brentq(fn, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


def finite_kappa(log_p: np.ndarray, log_s: np.ndarray, r: float) -> float:
    """kappa_r from sum_i p_i^q s_i^(r q) = 1 (q in (0, 1))."""
    q = _root(lambda q: logsumexp(q * (log_p + r * log_s)), 1e-15, 1.0)
    return r * q / (1.0 - q)


def finite_beta(log_p: np.ndarray, log_s: np.ndarray, q: float) -> float:
    """beta(q) from sum_i p_i^q s_i^t = 1."""
    return _root(lambda t: logsumexp(q * log_p + t * log_s), -50.0, 50.0)


def geometric_kappa(w: float, rho: float, r: float, M: int | None) -> float | None:
    """kappa_{r,M} for p_i = (1-w) w^(i-1), s_i = rho^i; None when degenerate.

    The truncated sum runs over i <= M without renormalizing the weights,
    as the CLI's truncation does.
    """
    if M is None:
        def g(q):
            a = q * (math.log(w) + r * math.log(rho))
            return q * math.log1p(-w) + r * q * math.log(rho) - math.log1p(-math.exp(a))
    else:
        if M < 2:
            return None
        i = np.arange(1, M + 1, dtype=float)

        def g(q):
            return logsumexp(q * (math.log1p(-w) + (i - 1) * math.log(w))
                             + r * q * i * math.log(rho))
    q = _root(g, 1e-15, 1.0)
    return r * q / (1.0 - q)


# ---------------------------------------------------------------------------
# spec documents


def _similarity_doc(ratios, offsets, weights) -> dict:
    return {"domain": [0.0, 1.0], "kind": "similarity",
            "maps": [{"ratio": float(s), "offset": float(o)} for s, o in zip(ratios, offsets)],
            "potential": {"kind": "logweights", "weights": [float(p) for p in weights]}}


def _gauss_doc(symbols, s: float, K: float = 4.0) -> dict:
    doc = {"domain": [0.0, 1.0], "kind": "gauss", "K": K,
           "potential": {"kind": "derivative", "s": s, "g": "zero"}}
    if symbols is None:
        doc["infinite"] = {"family": "gauss"}
    else:
        doc["symbols"] = list(symbols)
    return doc


def _random_similarity(rng: np.random.Generator, n: int) -> dict:
    """n disjoint maps in [0, 1] with ratios in [0.1, 0.8/n] and positive weights."""
    ratios = rng.uniform(0.1, 0.8 / n, n)
    gaps = rng.uniform(0.1, 1.0, n + 1)
    gaps *= (1.0 - ratios.sum()) / gaps.sum()
    offsets = gaps[0] + np.concatenate(([0.0], np.cumsum(ratios[:-1] + gaps[1:n])))
    weights = rng.uniform(0.2, 1.0, n)
    return _similarity_doc(ratios, offsets, weights / weights.sum())


def _logs(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    log_p = np.log([float(p) for p in doc["potential"]["weights"]])
    log_s = np.log([m["ratio"] for m in doc["maps"]])
    return log_p, log_s


def _r_draw(rng: np.random.Generator) -> float:
    return float(np.round(rng.uniform(0.5, 3.0), 3))


# ---------------------------------------------------------------------------
# the four workloads


def _selfsimilar_theory(rng, smoke: bool) -> Workload:
    specs = {
        "e1.json": _similarity_doc([THIRD, THIRD], [0.0, 2 * THIRD], [0.5, 0.5]),
        "e2.json": _similarity_doc([THIRD, THIRD], [0.0, 2 * THIRD], [0.7, 0.3]),
        "e3.json": {"domain": [0.0, 1.0], "kind": "similarity",
                    "infinite": {"family": "geometric", "ratio": THIRD},
                    "potential": {"kind": "logweights",
                                  "weights": {"family": "geometric", "ratio": 0.5}}},
    }
    for n in ((3,) if smoke else (2, 3, 4)):
        specs[f"sim{n}.json"] = _random_similarity(rng, n)
    r_set = (2.0,) if smoke else R_SET

    cmds = []
    for name, doc in specs.items():
        # the fixed systems at every r of the set, each random system at one random r
        for r in (r_set if name.startswith("e") else (_r_draw(rng),)):
            if name == "e3.json":
                kappa = geometric_kappa(0.5, THIRD, r, None)
            else:
                kappa = finite_kappa(*_logs(doc), r)
            cmds.append(Command(f"qdim {name} r={r}", ["qdim", "--system", name, "--r", repr(r)],
                                {"kind": "kappa", "oracle": kappa, "rtol": RTOL_CLOSED}))
    for name in ("e1.json", "e2.json"):
        cmds.append(Command(f"dimh {name}", ["dimh", "--system", name],
                            {"kind": "dimh", "oracle": LOG23, "rtol": RTOL_CLOSED}))
    ms = list(range(1, 6 if smoke else 21))
    cmds.append(Command(
        "sweep e3.json", ["sweep", "--system", "e3.json", "--r", "2.0",
                          "--m-list", ",".join(map(str, ms)), "--out", "sweep.csv"],
        {"kind": "sweep", "M": ms, "rtol": RTOL_CLOSED,
         "oracle": [geometric_kappa(0.5, THIRD, 2.0, M) for M in ms],
         "ref": geometric_kappa(0.5, THIRD, 2.0, None)},
        artifact="sweep.csv"))
    log_p, log_s = _logs(specs["e2.json"])
    grid = np.linspace(0.0, 1.0, 21)
    cmds.append(Command(
        "figure1 e2.json", ["figure1", "--system", "e2.json", "--r", "2.0", "--out", "figure1.csv"],
        {"kind": "figure1", "oracle": finite_kappa(log_p, log_s, 2.0), "rtol": RTOL_CLOSED,
         "beta": [finite_beta(log_p, log_s, float(q)) for q in grid], "atol": ATOL_BETA_CLOSED},
        artifact="figure1.csv"))
    return Workload("selfsimilar-theory", WHY["selfsimilar-theory"], specs, cmds)


def _conformal_theory(rng, smoke: bool) -> Workload:
    specs = {"gauss12.json": _gauss_doc([1, 2], DIM_E2),
             "gauss15.json": _gauss_doc([1, 2, 3, 4, 5], DIM_E15),
             "gauss.json": _gauss_doc(None, 1.0)}
    tree = {"rtol": RTOL_TREE}
    cmds = [Command("dimh gauss12.json", ["dimh", "--system", "gauss12.json"],
                    {"kind": "dimh", "oracle": DIM_E2, **tree}),
            Command("dimh gauss15.json", ["dimh", "--system", "gauss15.json"],
                    {"kind": "dimh", "oracle": DIM_E15, **tree})]
    for M in ((5, 10) if smoke else (5, 10, 20, 40)):
        cmds.append(Command(f"dimh gauss.json M={M}",
                            ["dimh", "--system", "gauss.json", "--m", str(M)],
                            {"kind": "dimh", "oracle": DIM_E15 if M == 5 else None,
                             "series": "gauss-M", **tree}))
    for name, delta in (("gauss12.json", DIM_E2), ("gauss15.json", DIM_E15)):
        r = _r_draw(rng)
        # f = delta * log|phi'| gives beta(q) = delta (1 - q), so kappa_r = delta
        cmds.append(Command(f"qdim {name}", ["qdim", "--system", name, "--r", repr(r)],
                            {"kind": "kappa", "oracle": delta, **tree}))
    r = _r_draw(rng)
    grid = np.linspace(0.0, 1.0, 21)
    cmds.append(Command(
        "figure1 gauss12.json",
        ["figure1", "--system", "gauss12.json", "--r", repr(r), "--out", "figure1.csv"],
        {"kind": "figure1", "oracle": DIM_E2, "beta": [DIM_E2 * (1.0 - q) for q in grid],
         "atol": ATOL_BETA_TREE, **tree},
        artifact="figure1.csv"))
    cmds.append(Command(
        "pressure gauss12.json",
        ["pressure", "--system", "gauss12.json", "--q", "0", "--t", repr(DIM_E2)],
        {"kind": "pressure", "atol": ATOL_PRESSURE_TREE}))
    return Workload("conformal-theory", WHY["conformal-theory"], specs, cmds,
                    vary_K=["gauss.json"])


def _verify(name: str, spec: dict, r: float, n_list, samples: int, seed: int,
            kappa: float, rtol: float) -> Workload:
    argv = ["verify", "--system", "system.json", "--r", repr(r),
            "--n-list", ",".join(map(str, n_list)), "--samples", str(samples),
            "--seed", str(seed), "--tol", repr(VERIFY_TOL), "--out", "verify.json"]
    cmd = Command("verify system.json", argv,
                  {"kind": "verify", "oracle": kappa, "rtol": rtol}, artifact="verify.json")
    return Workload(name, WHY[name], {"system.json": spec}, [cmd])


def _selfsimilar_verify(rng, smoke: bool) -> Workload:
    spec = _similarity_doc([THIRD, THIRD], [0.0, 2 * THIRD], [0.7, 0.3])
    n_list = [4, 8, 16, 32] if smoke else [4, 8, 16, 32, 64, 128, 256, 512]
    return _verify("selfsimilar-verify", spec, 2.0, n_list, 20_000 if smoke else 200_000,
                   int(rng.integers(1, 2**31)), finite_kappa(*_logs(spec), 2.0), RTOL_CLOSED)


def _conformal_verify(rng, smoke: bool) -> Workload:
    n_list = [4, 8, 16] if smoke else [4, 8, 16, 32, 64]
    return _verify("conformal-verify", _gauss_doc([1, 2], DIM_E2), 1.5, n_list,
                   4_000 if smoke else 20_000, int(rng.integers(1, 2**31)), DIM_E2, RTOL_TREE)


_BUILDERS = {
    "selfsimilar-theory": _selfsimilar_theory,
    "conformal-theory": _conformal_theory,
    "selfsimilar-verify": _selfsimilar_verify,
    "conformal-verify": _conformal_verify,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, NAMES.index(name)]))
    return _BUILDERS[name](rng, smoke)
