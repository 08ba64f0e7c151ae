"""JSON system/potential specification documents.

A document bundles the map family and the potential:

    {"domain": [0.0, 1.0],                  # [0, 1] for gauss and geometric
     "kind": "similarity" | "gauss",
     "maps": [{"ratio": .., "offset": .., "orientation": 1 | -1}, ...],
     "symbols": [1, 2],                      # gauss subsystems: distinct, >= 1
     "infinite": {"family": "geometric" | "gauss",
                  "ratio": ..},              # geometric similarity base
     "potential": {"kind": "logweights",
                   "weights": [..] | {"family": "geometric", "ratio": ..}}
                | {"kind": "derivative", "s": .., "g": "zero"}}

A weight list has one weight per map or symbol.  The contraction bound is
read off the maps, so an old spec's top-level "s", like its "K", is
ignored with every other key the loader does not read.  Anything else,
including a value of the wrong type, raises ``SpecFormatError``.
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


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _section(doc: dict, key: str) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise SpecFormatError(f"{key} must be an object, got {value!r}")
    return value


def _build_system(doc: dict) -> IfsSystem:
    kind = doc.get("kind")
    domain = doc.get("domain", [0.0, 1.0])
    if not isinstance(domain, list) or len(domain) != 2:
        raise SpecFormatError("domain must be [a, b]")
    domain = (_number(domain[0], "domain end"), _number(domain[1], "domain end"))

    if kind == "similarity":
        if "infinite" in doc:
            if domain != (0.0, 1.0):
                raise SpecFormatError("geometric systems live on [0, 1]")
            inf = _section(doc, "infinite")
            if inf.get("family") != "geometric":
                raise SpecFormatError("infinite similarity systems must be geometric")
            if "ratio" not in inf:
                raise SpecFormatError("geometric family needs a ratio")
            return geometric_similarity_system(_number(inf["ratio"], "geometric ratio"))
        maps = doc.get("maps")
        if not isinstance(maps, list) or not maps:
            raise SpecFormatError("similarity systems need a maps list")
        if not all(isinstance(m, dict) for m in maps):
            raise SpecFormatError("each map must be an object")
        orientations = [m.get("orientation", 1) for m in maps]
        if any(isinstance(e, bool) or e not in (1, -1) for e in orientations):
            raise SpecFormatError("map orientations must be 1 or -1")
        try:
            return similarity_system(
                [_number(m["ratio"], "map ratio") for m in maps],
                [_number(m["offset"], "map offset") for m in maps],
                orientations,
                domain=domain,
            )
        except (KeyError, ValueError) as exc:
            raise SpecFormatError(f"bad similarity maps: {exc}") from exc

    if kind == "gauss":
        if domain != (0.0, 1.0):
            raise SpecFormatError("continued-fraction systems live on [0, 1]")
        if "infinite" in doc:
            if _section(doc, "infinite").get("family") != "gauss":
                raise SpecFormatError("infinite continued-fraction systems must be gauss")
            return gauss_system(None)
        symbols = doc.get("symbols")
        if not isinstance(symbols, list) or not symbols:
            raise SpecFormatError("finite continued-fraction systems need a symbols list")
        if (any(isinstance(i, bool) or not isinstance(i, int) or i < 1 for i in symbols)
                or len(set(symbols)) != len(symbols)):
            raise SpecFormatError("continued-fraction symbols must be distinct positive integers")
        return gauss_system(symbols)

    raise SpecFormatError(f"unknown system kind {kind!r}")


def _build_potential(doc: dict, size: int | None) -> PotentialFamily:
    """The potential section; ``size`` is the finite alphabet's, None for an infinite one."""
    if "potential" not in doc:
        raise SpecFormatError("missing potential section")
    pot = _section(doc, "potential")
    kind = pot.get("kind")
    if kind == "logweights":
        weights = pot.get("weights")
        if isinstance(weights, dict):
            if weights.get("family") != "geometric":
                raise SpecFormatError("weight generators must be geometric")
            if "ratio" not in weights:
                raise SpecFormatError("geometric weights need a ratio")
            return geometric_weight_family(_number(weights["ratio"], "weight ratio"))
        if not isinstance(weights, list) or not weights:
            raise SpecFormatError("logweights needs a weight list or generator")
        if size is not None and len(weights) != size:
            raise SpecFormatError(f"a weight list of length {len(weights)} for {size} maps")
        return log_weight_family([_number(w, "weight") for w in weights])
    if kind == "derivative":
        if pot.get("g", "zero") != "zero":
            raise SpecFormatError("only the zero base function ships; "
                                  "custom g enters programmatically")
        if "s" not in pot:
            raise SpecFormatError("derivative potentials need the exponent s")
        return derivative_family(_number(pot["s"], "the exponent s"))
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
    family = _build_potential(doc, system.alphabet.size)

    meta = {
        "system_digest": hashlib.sha256(raw).hexdigest(),
        "path": str(path),
        "assumptions": ["closure-of-interior", "cone-condition"],
    }
    return system, family, meta
