"""JSON system/potential specification documents.

A document bundles the map family and the potential:

    {"domain": [0.0, 1.0],
     "kind": "similarity" | "gauss",
     "maps": [{"ratio": .., "offset": .., "orientation": 1}, ...],
     "symbols": [1, 2],                      # gauss subsystems
     "infinite": {"family": "geometric" | "gauss",
                  "ratio": ..},              # geometric similarity base
     "s": ..,                                # an old spec's "K" is ignored
     "potential": {"kind": "logweights",
                   "weights": [..] | {"family": "geometric", "ratio": ..}}
                | {"kind": "derivative", "s": .., "g": "zero"}}
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from .errors import SpecFormatError
from .ifs import IfsSystem, gauss_system, geometric_similarity_system, similarity_system
from .potentials import (PotentialFamily, derivative_family,
                         geometric_weight_family, log_weight_family)


def _build_system(doc: dict) -> IfsSystem:
    kind = doc.get("kind")
    domain = tuple(doc.get("domain", (0.0, 1.0)))
    if len(domain) != 2:
        raise SpecFormatError("domain must be [a, b]")

    if kind == "similarity":
        if "infinite" in doc:
            inf = doc["infinite"]
            if inf.get("family") != "geometric":
                raise SpecFormatError("infinite similarity systems must be geometric")
            if "ratio" not in inf:
                raise SpecFormatError("geometric family needs a ratio")
            return geometric_similarity_system(float(inf["ratio"]))
        maps = doc.get("maps")
        if not maps:
            raise SpecFormatError("similarity systems need a maps list")
        try:
            s = doc.get("s")
            return similarity_system(
                [m["ratio"] for m in maps],
                [m["offset"] for m in maps],
                [m.get("orientation", 1) for m in maps],
                domain=(float(domain[0]), float(domain[1])),
                s=None if s is None else float(s),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecFormatError(f"bad similarity maps: {exc}") from exc

    if kind == "gauss":
        if "infinite" in doc:
            return gauss_system(None)
        symbols = doc.get("symbols")
        if not symbols:
            raise SpecFormatError("finite continued-fraction systems need symbols")
        return gauss_system(symbols)

    raise SpecFormatError(f"unknown system kind {kind!r}")


def _build_potential(doc: dict) -> PotentialFamily:
    pot = doc.get("potential")
    if pot is None:
        raise SpecFormatError("missing potential section")
    kind = pot.get("kind")
    if kind == "logweights":
        weights = pot.get("weights")
        if isinstance(weights, dict):
            if weights.get("family") != "geometric":
                raise SpecFormatError("weight generators must be geometric")
            return geometric_weight_family(float(weights["ratio"]))
        if not isinstance(weights, (list, tuple)) or not weights:
            raise SpecFormatError("logweights needs a weight list or generator")
        return log_weight_family([float(w) for w in weights])
    if kind == "derivative":
        if pot.get("g", "zero") != "zero":
            raise SpecFormatError("only the zero base function ships; "
                                  "custom g enters programmatically")
        if "s" not in pot:
            raise SpecFormatError("derivative potentials need the exponent s")
        return derivative_family(float(pot["s"]))
    raise SpecFormatError(f"unknown potential kind {kind!r}")


def _finite_float(text: str) -> float:
    # also parses the NaN/Infinity constants; 1e999 and huge integers overflow to inf
    value = float(text)
    if not math.isfinite(value):
        raise SpecFormatError(f"non-finite number {text[:24]} in spec")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)
    return int(text)


def load_spec(path: str | Path) -> tuple[IfsSystem, PotentialFamily, dict]:
    """Parse a spec document; returns (system, family, metadata).

    Metadata carries the sha256 digest of the raw file and the
    geometric assumptions the toolkit accepts on the user's assertion.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw, parse_constant=_finite_float,
                         parse_float=_finite_float, parse_int=_finite_int)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be a JSON object")

    system = _build_system(doc)
    family = _build_potential(doc)

    meta = {
        "system_digest": hashlib.sha256(raw).hexdigest(),
        "path": str(path),
        "assumptions": list(system.assumptions),
    }
    return system, family, meta
