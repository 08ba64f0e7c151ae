"""qdim benchmark: CLI workloads checked against fixed oracles, timed end to
end, with a separate outside-in traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all ...      # every workload in turn

Run it from the root of a qdim checkout; it imports ``qdim`` from
``src/`` there and fails (exit 2, no result) when that is missing.

A run with ``--trace 0`` spawns several fresh interpreters that only
import ``qdim.cli`` and load the first spec (set-up samples), then one
client interpreter that issues the workload's commands through
``qdim.cli.main``, pass after pass, for S seconds.  A run with
``--trace 1`` runs one client that alternates untraced and traced
passes; the difference of their median pass times is the tracing
overhead.  Every command's output is checked against an oracle (see
``workloads.py`` and ``checks.py``) and every artifact (verify report,
sweep and figure1 CSVs) is hashed: a hash that differs from an earlier
pass, or from an earlier run of the same seed on the same code, fails
the command.

Times in seconds are scaled to a nominal machine speed with a reference
kernel timed next to each interval (``speed.py``); the raw seconds are
printed too.  ``wall_s`` sums, over the workload's commands, each
command's median time across passes; a failed attempt's time is never
a sample.

Human-readable lines name every metric with its unit, including the
per-command times and accuracy figures that exist only on some
workloads; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics declared in BENCHMARK.json.
Per-layer times are shares (%) of the traced pass time, so a layer a
workload never calls reads 0 %; multiply by ``trace.wall_s`` for
seconds.  Metrics with no sample on a workload read 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4          # set-up-only interpreters per --trace 0 run, besides the client
CHILD_TIMEOUT = 150.0     # seconds; keeps a whole run under three minutes

# (name, unit, better) of the metrics in the last output line
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
    ("kappa_digits", "digits", "higher"),
]
COMMANDS = ("qdim", "dimh", "sweep", "figure1", "pressure", "verify")
_FULL = ("pct", "self_pct", "calls")
# per-layer metrics taken from the traced client
LAYERS = [
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("specio.load_spec.pct", "%"),
    ("specio.load_spec.calls", "count"),
    ("cli.main.self_pct", "%"),
    *[(f"cli.{c}.pct", "%") for c in COMMANDS],
    *[(f"pressure.solve_quantization_dim.{k}", "%" if k.endswith("pct") else "count")
      for k in _FULL + ("iterations",)],
    ("pressure.beta_of_q.pct", "%"),
    ("pressure.beta_of_q.calls", "count"),
    *[(f"pressure.{fn}.{k}", "%" if k.endswith("pct") else "count")
      for fn in ("hausdorff_dim", "truncation_sweep", "legendre_and_figure_data",
                 "estimate_pressure") for k in _FULL],
    ("potentials.symbol_log_weight.calls", "count"),
    ("potentials.f_value.pct", "%"),
    ("potentials.f_value.calls", "count"),
    ("ifs.IfsSystem.map.calls", "count"),
    ("measure.sample_measure.pct", "%"),
    ("measure.sample_measure.points", "count"),
    ("quantizer.lloyd_optimize.pct", "%"),
    ("quantizer.lloyd_optimize.max_pct", "%"),
    ("quantizer.lloyd_optimize.calls", "count"),
    ("quantizer.lloyd_optimize.iterations", "count"),
    ("quantizer.lloyd_optimize.restarts", "count"),
    ("quantizer.lloyd_optimize.kept_per_attempt", "ratio"),
    ("quantizer.estimate_Dr.pct", "%"),
]
# accuracy figures: (key in Tally.accuracy, per-layer name, unit)
ACCURACY = [
    ("dimh_digits", "pressure.dimh_digits", "digits"),
    ("pressure_digits", "pressure.pressure_digits", "digits"),
    ("monotone_violations", "pressure.monotone_violations", "count"),
    ("verify_rel_gap", "quantizer.verify_rel_gap", "ratio"),
    ("distortion_log10_mean", "quantizer.distortion_log10_mean", "log10"),
]
PER_LAYER = LAYERS + [(name, unit) for _, name, unit in ACCURACY]


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    # one client, no extra threads: pin every BLAS/OpenMP pool to one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(workdir: Path, env: dict, tag: str, *args: str) -> tuple[dict, float, float]:
    """Run one worker interpreter; returns its result and its set-up time,
    raw and scaled to the nominal machine speed."""
    result_path = workdir / f"result-{tag}.json"
    ref = speed.reference_seconds()
    t_spawn = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "plan.json", result_path.name, *args],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} exceeded {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    setup = result["ready"] - t_spawn
    return result, setup, setup * speed.NOMINAL_S / ref


def _code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qdim").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _reference_hashes(root: Path, name: str, seed: int, smoke: bool) -> tuple[Path, dict]:
    """Artifact hashes an earlier run of this seed on this code recorded, if any."""
    key = hashlib.sha256(f"{name}|{seed}|{smoke}|{_code_digest(root)}".encode()).hexdigest()
    path = BENCH_DIR / ".work" / "hashes" / f"{key[:32]}.json"
    return path, (json.loads(path.read_text()) if path.exists() else {})


def _median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Checks every command attempt and gathers times and accuracy samples."""

    def __init__(self, wl, reference: dict):
        self.wl = wl
        self.reference = reference        # label -> artifact hash
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        # label -> times of successful attempts, scaled to nominal speed and raw
        self.times: dict[str, list[float]] = {}
        self.raw_times: dict[str, list[float]] = {}
        self.acc: dict[str, list] = {}
        self.series_by_pass: list[list] = []

    def add(self, result: dict) -> None:
        """Check every command of every pass one client ran."""
        for p in result["passes"]:
            series = []
            for cmd, rec in zip(self.wl.commands, p["commands"]):
                text = result["artifacts"].get(rec["artifact"]) if rec["artifact"] else None
                ok, reason, acc = checks.evaluate(cmd.check, rec["rc"], rec["out"], text)
                if ok and cmd.artifact:
                    ref = self.reference.setdefault(cmd.label, rec["artifact"])
                    if rec["artifact"] != ref:
                        ok, reason = False, "artifact differs from this seed's earlier artifact"
                for kind, values in acc.items():
                    if kind == "series":
                        series.extend(values)
                    else:
                        self.acc.setdefault(kind, []).extend(values)
                self.attempted += 1
                if ok:
                    self.times.setdefault(cmd.label, []).append(
                        rec["s"] * speed.NOMINAL_S / rec["ref_s"])
                    self.raw_times.setdefault(cmd.label, []).append(rec["s"])
                else:
                    self.failed += 1
                    self.reasons.append(f"{cmd.label}: {reason} {rec['stderr'][-200:]}".strip())
            self.series_by_pass.append(series)

    def seconds(self, command: str | None = None, times=None) -> float:
        """Sum over the workload's commands (named ``command``, if given) of
        each one's median time; a burst of machine noise during one pass then
        moves only the commands it hit."""
        times = self.times if times is None else times
        return sum(_median(times.get(c.label, [])) for c in self.wl.commands
                   if command in (None, c.name))

    def accuracy(self) -> dict[str, float]:
        def lowest(kind):
            return min(self.acc[kind]) if self.acc.get(kind) else 0.0

        def middle(kind):     # every pass of one seed yields the same report
            return _median(self.acc.get(kind, []))

        return {
            "kappa_digits": lowest("kappa"),
            "dimh_digits": lowest("dimh"),
            "pressure_digits": lowest("pressure"),
            "monotone_violations": max((checks.monotone_violations(s)
                                        for s in self.series_by_pass), default=0),
            "verify_rel_gap": middle("verify_gap"),
            "distortion_log10_mean": middle("distortion"),
        }


def _pass_seconds(passes: list[dict]) -> float:
    """Median pass time, scaled to nominal speed."""
    return _median([p["s"] * speed.NOMINAL_S / p["ref_s"] for p in passes])


def _per_layer(passes: list[dict], untraced: list[dict], wl) -> dict[str, float]:
    """Per-layer metrics from the traced passes of one client; the
    interleaved untraced passes give the tracing overhead."""
    metrics = {"trace.wall_s": _pass_seconds(passes),
               "trace.overhead_s": _pass_seconds(passes) - _pass_seconds(untraced)}

    def share(seconds, p):
        return 100.0 * seconds / p["s"]

    for c in COMMANDS:
        metrics[f"cli.{c}.pct"] = _median([
            share(sum(r["s"] for cmd, r in zip(wl.commands, p["commands"]) if cmd.name == c), p)
            for p in passes])
    first = passes[0]["trace"]
    for name, unit in LAYERS:
        if name in metrics:
            continue
        target, key = name.rsplit(".", 1)
        if target not in first:          # absent from this version of qdim
            metrics[name] = 0.0
        elif key == "kept_per_attempt":
            restarts = first[target]["restarts"]
            metrics[name] = first[target]["calls"] / restarts if restarts else 0.0
        elif unit == "%":
            stat = key[:-len("pct")] + "s"
            metrics[name] = _median([share(p["trace"][target][stat], p) for p in passes])
        else:
            metrics[name] = first[target][key]
    return metrics


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[dict, list[str]]:
    wl = workloads.build(name, seed, smoke)
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        for fname, doc in wl.specs.items():
            (workdir / fname).write_text(json.dumps(doc))
        plan = {"src": str(root / "src"), "first_spec": next(iter(wl.specs)),
                "specs": wl.specs, "vary_K": wl.vary_K,
                "commands": [asdict(c) for c in wl.commands]}
        (workdir / "plan.json").write_text(json.dumps(plan))
        env = _child_env(root)
        # a traced client needs two passes: one untraced, one traced
        max_passes = ["--max-passes", "2" if trace else "1"] if smoke else []

        ref_path, reference = _reference_hashes(root, name, seed, smoke)
        tally = Tally(wl, dict(reference))
        extra: dict[str, tuple[float, str]] = {}   # printed, not in the result line
        if not trace:
            setups = [_spawn(workdir, env, f"setup{k}", "--mode", "setup")[1:]
                      for k in range(1 if smoke else SETUP_PROBES)]
            result, *setup = _spawn(workdir, env, "run", "--mode", "run",
                                    "--seconds", repr(seconds), *max_passes)
            setups.append(setup)
            tally.add(result)
            acc = tally.accuracy()
            metrics = {
                "setup_s": _median([scaled for _, scaled in setups]),
                "wall_s": tally.seconds(),
                "peak_rss_mb": result["maxrss_mb"],
                "ok_share": 1.0 - tally.failed / tally.attempted,
                "kappa_digits": acc["kappa_digits"],
            }
            present = {c.name for c in wl.commands}
            extra.update({f"{c}_s": (tally.seconds(c), "s") for c in COMMANDS if c in present})
            extra["wall_raw_s"] = (tally.seconds(times=tally.raw_times), "s")
            extra["setup_raw_s"] = (_median([raw for raw, _ in setups]), "s")
            extra["reference_s"] = (_median([p["ref_s"] for p in result["passes"]]), "s")
            extra["failed_share"] = (tally.failed / tally.attempted, "share")
            extra.update({key: (acc[key], unit) for key, _, unit in ACCURACY})
            extra["passes"] = (len(result["passes"]), "count")
            extra["setup_samples"] = (len(setups), "count")
        else:
            result, *_ = _spawn(workdir, env, "traced", "--mode", "run", "--trace",
                                "--seconds", repr(seconds), *max_passes)
            tally.add(result)
            traced = [p for p in result["passes"] if p["traced"]]
            untraced = [p for p in result["passes"] if not p["traced"]]
            acc = tally.accuracy()
            metrics = _per_layer(traced, untraced, wl)
            metrics.update({name: acc[key] for key, name, _ in ACCURACY})
            extra["passes"] = (len(traced), "count")
            extra["untraced_passes"] = (len(untraced), "count")
            extra.update({f"absent:{name}": (0, "count") for name in result["absent"]})

        if not reference and tally.failed == 0:
            ref_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = ref_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(tally.reference, sort_keys=True))
            os.replace(tmp, ref_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(PER_LAYER) if trace else {n: u for n, u, _ in END_TO_END}
    lines = [f"workload {name} seed {seed} trace {int(trace)}: {wl.why}"]
    lines += [f"  {k} = {v!r} {units[k]}" for k, v in metrics.items()]
    lines += [f"  {k} = {v!r} {u}" for k, (v, u) in extra.items()]
    lines += [f"  FAILED {reason}" for reason in tally.reasons[:20]]
    record = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return record, lines


def _provenance() -> str:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"nproc {len(os.sched_getaffinity(0))}; cpu {cpu}; python "
            f"{sys.version.split()[0]}; numpy {numpy.__version__}; scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass, one set-up probe")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qdim" / "__init__.py").is_file():
        print(f"no qdim sources under {root / 'src'}; run from a qdim checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    print(_provenance())
    records = {}
    for name in names:
        try:
            record, lines = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace), args.smoke)
        except BenchError as exc:
            print(f"benchmark error on {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        records[name] = record
    if args.workload == "all":
        print(json.dumps(records))
        return 0 if all(r["correct"] for r in records.values()) else 1
    print(json.dumps(records[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
