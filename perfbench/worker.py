"""Benchmark client: one fresh interpreter issuing a plan's qdim commands.

    python worker.py PLAN RESULT --mode setup|run [--trace] [--seconds S] [--max-passes N]

The client imports ``qdim.cli`` from the checkout's ``src`` (the parent
puts it on PYTHONPATH), loads the plan's first spec, and records the
``time.perf_counter`` reading at that point; on Linux that clock is
CLOCK_MONOTONIC, shared with the parent, which subtracts its spawn time
to get the set-up time.  In ``run`` mode it then issues the commands one
at a time through ``qdim.cli.main`` (a closed loop with one client, no
extra threads), pass after pass, and stops before a pass would end past
the time budget.  It writes per-command exit codes, times, stdout JSON
and artifact hashes as JSON to RESULT, with the reference kernel's time
around each command (see ``speed.py``).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from speed import reference_seconds  # the script's own directory is first on sys.path


def _setup(plan_path):
    plan = json.loads(Path(plan_path).read_text())
    import qdim
    from qdim import cli, specio  # noqa: F401  (importing the CLI is part of set-up)
    src = Path(plan["src"]).resolve()
    if src not in Path(qdim.__file__).resolve().parents:
        sys.exit(f"qdim was imported from {qdim.__file__}, not from {src}")
    specio.load_spec(plan["first_spec"])
    return plan, time.perf_counter()


def _run_pass(plan, cli, artifacts):
    """Run every command once, timing the reference kernel between commands."""
    records = []
    ref_before = reference_seconds()
    for cmd in plan["commands"]:
        if cmd["artifact"] and os.path.exists(cmd["artifact"]):
            os.remove(cmd["artifact"])
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(cmd["argv"])
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            rc, err = -1, io.StringIO(repr(exc))
        dt = time.perf_counter() - t0
        try:
            parsed = json.loads(out.getvalue())
        except ValueError:
            parsed = None
        digest = None
        if cmd["artifact"] and os.path.exists(cmd["artifact"]):
            data = Path(cmd["artifact"]).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            artifacts.setdefault(digest, data.decode("utf-8", "replace"))
        ref_after = reference_seconds()
        records.append({"rc": rc, "s": dt, "ref_s": 0.5 * (ref_before + ref_after),
                        "out": parsed, "artifact": digest, "stderr": err.getvalue()[-500:]})
        ref_before = ref_after
    return records


def _write_varied_specs(plan, k):
    for name in plan["vary_K"]:
        doc = dict(plan["specs"][name], K=plan["specs"][name]["K"] + k / 8)
        Path(name).write_text(json.dumps(doc))


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--mode", choices=["setup", "run"], required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-passes", type=int, default=1000)
    args = parser.parse_args(argv)

    plan, ready = _setup(args.plan)
    result = {"ready": ready, "passes": [], "artifacts": {}, "absent": []}
    if args.mode == "run":
        from qdim import cli

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.install()
            result["absent"] = tracer.absent
        start = time.perf_counter()
        for k in range(args.max_passes):
            _write_varied_specs(plan, k)
            # untraced, traced, traced, untraced, ...: slow drift of the
            # machine's speed hits both kinds of pass alike
            traced = tracer is not None and k % 4 in (1, 2)
            if traced:
                tracer.enable()
                tracer.reset()
            elif tracer:
                tracer.disable()
            records = _run_pass(plan, cli, result["artifacts"])
            duration = sum(rec["s"] for rec in records)
            ref = sum(rec["ref_s"] * rec["s"] for rec in records) / duration
            result["passes"].append({"s": duration, "ref_s": ref, "commands": records,
                                     "traced": traced,
                                     "trace": tracer.snapshot() if traced else None})
            over_budget = time.perf_counter() - start + duration > args.seconds
            if over_budget and (tracer is None or k >= 1):
                break

    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
