"""Command-line driver for the toolkit.

Subcommands: pressure, beta, qdim, dimh, sweep, sample, quantize,
verify, figure1.  Exit codes: 0 success, 1 malformed spec or flags,
2 numerical failure, 3 verification gap above tolerance.

Every artifact embeds the input digest, the seed and the tolerances, so
re-running a command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, measure, quantizer
from .errors import NumericalFailure, SpecFormatError
from .pressure import (estimate_pressure, legendre_and_figure_data, solve_beta,
                       solve_quantization_dim, temperature_curve, truncation_sweep)
from .specio import load_spec

_EXIT_OK = 0
_EXIT_SPEC = 1
_EXIT_NUMERIC = 2
_EXIT_VERIFY = 3


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: str as is, float, int, bool and None
    as their JSON text (inf as "Infinity"); anything else is a TypeError."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _plain(value):
    """``value`` with non-finite floats as None, tuples as lists and dict keys
    as strings: what a JSON round trip would give back."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {_json_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _json_text(payload: dict) -> str:
    """Sorted, indented JSON; non-finite floats become null, as JSON has no inf/nan."""
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit_json(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _emit_csv(rows, header, out: str) -> None:
    import csv  # imported at first use: the JSON-only commands never need it

    with Path(out).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdim",
                                     description="quantization dimensions of conformal measures")
    parser.add_argument("--version", action="version", version=f"qdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False):
        p.add_argument("--system", required=True, help="system spec JSON")
        p.add_argument("--out", default=None, help="artifact path")
        p.add_argument("--m", type=int, default=None, help="alphabet truncation")
        if seed:
            p.add_argument("--depth", type=int, default=None, help="sampling depth")
            p.add_argument("--seed", type=int, default=2024)

    p = sub.add_parser("pressure", help="two-parameter pressure estimate")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("beta", help="temperature function")
    common(p)
    p.add_argument("--q", type=float, default=None,
                   help="single value; omit with --out for a 21-point grid CSV")

    p = sub.add_parser("qdim", help="quantization dimension fixed point")
    common(p)
    p.add_argument("--r", type=float, required=True)

    p = sub.add_parser("dimh", help="Hausdorff dimension of the limit set")
    common(p)

    p = sub.add_parser("sweep", help="truncation sweep of kappa_{r,M}")
    common(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--m-list", type=_int_list, required=True)

    p = sub.add_parser("sample", help="draw an empirical measure to CSV")
    common(p, seed=True)
    p.add_argument("--samples", type=int, required=True)

    p = sub.add_parser("quantize", help="Lloyd runs over codebook sizes")
    common(p, seed=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("verify", help="theoretical kappa_r against the empirical slope")
    common(p, seed=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.15, help="largest relative gap")
    p.add_argument("--n-list", type=_int_list, default=(4, 8, 16, 32, 64, 128, 256, 512))
    p.add_argument("--samples", type=int, default=200_000)

    p = sub.add_parser("figure1", help="temperature curve, chord and spectrum dataset")
    common(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--grid", type=int, default=21)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_pressure(args, system, family, meta) -> int:
    est = estimate_pressure(system, family, args.q, args.t, truncation=args.m)
    _emit_json({
        "command": "pressure", "q": est.q, "t": est.t,
        "truncation": est.truncation,
        "value": est.value, "error": est.error, "finite": est.finite,
        "tail_bound": est.tail_bound,
        **meta,
    }, args.out)
    return _EXIT_OK


def _cmd_beta(args, system, family, meta) -> int:
    if args.q is None:
        _check_out(args)
        curve = temperature_curve(system, family, truncation=args.m)
        _emit_csv(zip(curve.qs, curve.betas), ["q", "beta_q"], args.out)
        return _EXIT_OK
    sol = solve_beta(system, family, args.q, args.m)
    _emit_json({"command": "beta", "q": args.q, "beta": sol.beta, "truncation": args.m,
                "solver": sol.solver, "iterations": len(sol.trace), **meta}, args.out)
    return _EXIT_OK


def _cmd_qdim(args, system, family, meta) -> int:
    sol = solve_quantization_dim(system, family, args.r, args.m)
    _emit_json({"command": "qdim", "r": sol.r, "q_r": sol.q_r,
                "kappa_r": sol.kappa_r, "D_r": sol.D_r,
                "truncation": sol.truncation, "solver": sol.solver,
                "iterations": len(sol.trace), **meta}, args.out)
    return _EXIT_OK


def _cmd_dimh(args, system, family, meta) -> int:
    sol = solve_beta(system, family, 0.0, args.m)
    _emit_json({"command": "dimh", "dim_h": sol.beta, "truncation": args.m,
                "solver": sol.solver, "iterations": len(sol.trace), **meta}, args.out)
    return _EXIT_OK


def _cmd_sweep(args, system, family, meta) -> int:
    _check_out(args)
    result = truncation_sweep(system, family, args.r, args.m_list)
    rows = [(e.M, e.kappa) for e in result.entries]
    _emit_csv(rows, ["M", "kappa_rM"], args.out)
    summary = {
        "command": "sweep", "r": result.r,
        "entries": [{"M": e.M, "kappa": e.kappa, "degenerate": e.degenerate}
                    for e in result.entries],
        "kappa_ref": result.kappa_ref, "final_gap": result.final_gap, **meta,
    }
    sys.stdout.write(_json_text(summary))
    return _EXIT_OK


def _cmd_sample(args, system, family, meta) -> int:
    _check_out(args)
    _check_depth(args)
    sample = measure.sample_measure(system, family, args.samples, depth=args.depth,
                                    truncation=args.m, seed=args.seed)
    measure.save_sample(sample, args.out)
    sys.stdout.write(_json_text({
        "command": "sample", "count": len(sample), "seed": sample.seed,
        "depth": sample.depth, "truncation": sample.truncation,
        "deficit": sample.deficit, **meta,
    }))
    return _EXIT_OK


def _check_numbers(args) -> None:
    """Reject a bad --q, --t, --r, --tol, --m or --m-list before the spec is read."""
    for flag in ("q", "t"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            raise SpecFormatError(f"--{flag} {value} is not finite")
    r = getattr(args, "r", None)
    if r is not None and not (math.isfinite(r) and r > 0.0):
        raise SpecFormatError(f"--r {r} is not a finite positive order")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise SpecFormatError(f"--tol {tol} is not a finite nonnegative tolerance")
    m = getattr(args, "m", None)
    if m is not None and m < 1:
        raise SpecFormatError(f"--m {m} is not a positive truncation")
    m_list = getattr(args, "m_list", None)
    if m_list is not None and not m_list:
        raise SpecFormatError("--m-list is empty")
    for M in m_list or ():
        if M < 1:
            raise SpecFormatError(f"--m-list truncation {M} is not positive")


def _check_out(args) -> None:
    """Reject a missing --out that would otherwise fail only after sampling."""
    if not args.out:
        raise SpecFormatError(f"{args.command} needs --out for the CSV artifact")


def _check_depth(args) -> None:
    """Reject a sampling depth that would otherwise fail only after the solves."""
    if args.depth is not None and args.depth < 1:
        raise SpecFormatError(f"--depth {args.depth} is not positive")


def _check_n_list(args) -> None:
    """Reject codebook sizes that would otherwise fail only after sampling."""
    if not args.n_list:
        raise SpecFormatError("--n-list is empty")
    seen = set()
    for n in args.n_list:
        if n < 1:
            raise SpecFormatError(f"--n-list size {n} is not positive")
        if n in seen:
            raise SpecFormatError(f"--n-list size {n} is repeated")
        if n >= args.samples:
            raise SpecFormatError(f"--n-list size {n} is not below --samples {args.samples}")
        seen.add(n)


def _run_quantize(args, system, family):
    sample = measure.sample_measure(system, family, args.samples, depth=args.depth,
                                    truncation=args.m, seed=args.seed)
    return sample, [quantizer.lloyd_optimize(sample, n, args.r) for n in args.n_list]


def _cmd_quantize(args, system, family, meta) -> int:
    _check_out(args)
    _check_n_list(args)
    _check_depth(args)
    sample, runs = _run_quantize(args, system, family)
    rows = []
    for k, run in enumerate(runs):
        if k >= 1:
            d_running, _ = quantizer.estimate_Dr(runs[: k + 1])
        else:
            d_running = float("nan")
        rows.append((run.n, run.r, run.V_hat, run.e_hat, d_running))
    _emit_csv(rows, ["n", "r", "V_hat", "e_hat", "D_running"], args.out)
    manifest = {
        "command": "quantize", "r": args.r, "seed": args.seed,
        "samples": len(sample), "depth": sample.depth, "truncation": sample.truncation,
        "deficit": sample.deficit,
        "runs": [{"n": run.n, "V_hat": run.V_hat, "iterations": run.iterations,
                  "restarts": run.restarts, "converged": run.converged}
                 for run in runs],
        **meta,
    }
    sys.stdout.write(_json_text(manifest))
    return _EXIT_OK


def _cmd_verify(args, system, family, meta) -> int:
    _check_n_list(args)
    _check_depth(args)
    if len(args.n_list) < 2:
        raise SpecFormatError("verify needs at least two --n-list sizes")
    sol = solve_quantization_dim(system, family, args.r, truncation=args.m)
    sample, runs = _run_quantize(args, system, family)
    d_hat, diagnostics = quantizer.estimate_Dr(runs, kappa_hint=sol.kappa_r)
    gap = abs(d_hat - sol.kappa_r) / sol.kappa_r
    report = {
        "command": "verify", "r": args.r, "seed": args.seed,
        "samples": len(sample), "depth": sample.depth, "truncation": sample.truncation,
        "deficit": sample.deficit,
        "n_list": list(args.n_list), "kappa_r": sol.kappa_r, "q_r": sol.q_r, "D_hat": d_hat,
        "relative_gap": gap, "tolerance": args.tol, "passed": bool(gap <= args.tol),
        "diagnostics": diagnostics,
        "runs": [{"n": run.n, "iterations": run.iterations, "converged": run.converged}
                 for run in runs],
        **meta,
    }
    _emit_json(report, args.out)
    return _EXIT_OK if gap <= args.tol else _EXIT_VERIFY


def _cmd_figure1(args, system, family, meta) -> int:
    _check_out(args)
    data = legendre_and_figure_data(system, family, args.r,
                                    q_grid=np.linspace(0.0, 1.0, args.grid),
                                    truncation=args.m)
    _emit_csv(data.rows(), ["q", "beta", "line", "legendre_alpha", "legendre_f"],
              args.out)
    summary = {
        "command": "figure1", "r": data.r, "q_r": data.q_r,
        "intersection": list(data.intersection), "intercept": data.intercept,
        **meta,
    }
    sys.stdout.write(_json_text(summary))
    return _EXIT_OK


_COMMANDS = {
    "pressure": _cmd_pressure,
    "beta": _cmd_beta,
    "qdim": _cmd_qdim,
    "dimh": _cmd_dimh,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
    "quantize": _cmd_quantize,
    "verify": _cmd_verify,
    "figure1": _cmd_figure1,
}


_FLOAT_FLAGS = frozenset({"--q", "--t", "--r", "--tol"})


def _attach_numbers(argv: list[str]) -> list[str]:
    """``--q -1e-1`` as ``--q=-1e-1``: argparse takes a negative number in
    exponent form (or -inf) for an option, not for the flag's value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _FLOAT_FLAGS and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return _EXIT_SPEC if exc.code not in (0, None) else 0
    try:
        _check_numbers(args)
        system, family, meta = load_spec(args.system)
        return _COMMANDS[args.command](args, system, family, meta)
    except SpecFormatError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return _EXIT_SPEC
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except ValueError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return _EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
