"""Outside-in tracing of qdim's layers.

The tracer wraps public functions of the ``qdim`` modules from outside;
nothing under ``src/`` knows about it.  Because modules import names
directly (``cli`` does ``from .pressure import solve_quantization_dim``),
every ``qdim.*`` module attribute bound to the same function object is
replaced, and calls between functions of one module go through the
wrapper too, since they look the global name up at call time.

A span wrapper records calls, inclusive time, self time (inclusive time
minus the time of traced calls made inside it) and the longest call.
A counter wrapper only counts calls; it sits on functions called so
often that timing them would dominate what is measured.  A target that
no longer exists is reported as absent instead of failing.  ``enable``
and ``disable`` put the wrappers in and take them out again, so one
client can alternate traced and untraced passes.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _iterations(result) -> int:
    return len(getattr(result, "trace", ()))


# (layer, attribute path, extra counts taken from the result)
SPANS = [
    ("specio", "load_spec", {}),
    ("cli", "main", {}),
    ("pressure", "solve_quantization_dim", {"iterations": _iterations}),
    ("pressure", "beta_of_q", {}),
    ("pressure", "hausdorff_dim", {}),
    ("pressure", "truncation_sweep", {}),
    ("pressure", "legendre_and_figure_data", {}),
    ("pressure", "estimate_pressure", {}),
    ("potentials", "f_value", {}),
    ("measure", "sample_measure", {"points": len}),
    ("quantizer", "lloyd_optimize", {"iterations": lambda r: r.iterations,
                                     "restarts": lambda r: r.restarts}),
    ("quantizer", "estimate_Dr", {}),
]
COUNTERS = [
    ("potentials", "symbol_log_weight"),
    ("ifs", "IfsSystem.map"),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self._children: list[float] = []   # traced time inside each open span
        self._patches: list[tuple] = []    # (owner, attribute, original, wrapper)

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def reset(self) -> None:
        for st in self.stats.values():
            for key in st:
                st[key] = 0

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {name: dict(st) for name, st in self.stats.items()}

    def span(self, name: str, fn, extras: dict):
        st = self.stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0,
                                 **{key: 0 for key in extras}}
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                st["calls"] += 1
                st["s"] += dt
                st["self_s"] += dt - inner
                st["max_s"] = max(st["max_s"], dt)
            for key, get in extras.items():
                st[key] += get(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        st = self.stats[name] = {"calls": 0}

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper


def _bindings(orig) -> list[tuple]:
    """Every (qdim module, attribute) bound to ``orig``."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "qdim" or modname.startswith("qdim.")):
            continue
        found += [(module, attr) for attr, value in vars(module).items() if value is orig]
    return found


def install() -> Tracer:
    """Wrap every target in the already imported qdim modules, enabled."""
    tracer = Tracer()
    targets = [(layer, path, extras, True) for layer, path, extras in SPANS]
    targets += [(layer, path, {}, False) for layer, path in COUNTERS]
    for layer, path, extras, timed in targets:
        name = f"{layer}.{path}"
        owner = sys.modules.get(f"qdim.{layer}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None)
        if not callable(orig):
            tracer.absent.append(name)
            continue
        wrapper = tracer.span(name, orig, extras) if timed else tracer.counter(name, orig)
        # a method is patched on its class; a function wherever it is bound
        sites = [(owner, attr)] if parents else _bindings(orig)
        tracer._patches += [(site, site_attr, orig, wrapper) for site, site_attr in sites]
    tracer.enable()
    return tracer
