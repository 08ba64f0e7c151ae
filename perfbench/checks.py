"""Oracle checks of one command's output, and the accuracy samples it yields.

``evaluate`` returns (ok, reason, accuracy).  ``accuracy`` maps a kind
(``kappa``, ``dimh``, ``pressure`` digits; ``series`` values for the
monotonicity count; ``verify_gap``; ``distortion``) to the samples this
output contributes, whether or not the check passed.
"""

from __future__ import annotations

import csv
import io
import math

DIGITS_CAP = 15.0


def digits(value: float, ref: float) -> float:
    """-log10 of the relative error, capped; 0 for a non-finite value."""
    if not math.isfinite(value):
        return 0.0
    err = abs(value - ref) / abs(ref)
    return DIGITS_CAP if err == 0.0 else max(0.0, min(DIGITS_CAP, -math.log10(err)))


def _close(value, ref: float, rtol: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and \
        abs(value - ref) <= rtol * abs(ref)


def _csv_rows(text: str | None) -> list[dict]:
    if text is None:
        return []
    return list(csv.DictReader(io.StringIO(text)))


def evaluate(check: dict, rc: int, out: dict | None, artifact: str | None):
    acc: dict[str, list] = {}
    if rc != 0:
        return False, f"exit code {rc}", acc
    if not isinstance(out, dict):
        return False, "no JSON on stdout", acc
    kind = check["kind"]
    try:
        return _CHECKS[kind](check, out, artifact, acc)
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"malformed output: {exc!r}", acc


def _check_kappa(check, out, artifact, acc):
    kappa = out["kappa_r"]
    acc["kappa"] = [digits(kappa, check["oracle"])]
    if not _close(kappa, check["oracle"], check["rtol"]):
        return False, f"kappa_r {kappa!r} vs oracle {check['oracle']!r}", acc
    return True, "", acc


def _check_dimh(check, out, artifact, acc):
    dim = out["dim_h"]
    if "series" in check:
        acc["series"] = [(check["series"], out.get("truncation"), dim)]
    if check["oracle"] is None:
        ok = isinstance(dim, float) and 0.0 < dim < 1.0
        return ok, "" if ok else f"dim_h {dim!r} outside (0, 1)", acc
    acc["dimh"] = [digits(dim, check["oracle"])]
    if not _close(dim, check["oracle"], check["rtol"]):
        return False, f"dim_h {dim!r} vs oracle {check['oracle']!r}", acc
    return True, "", acc


def _check_sweep(check, out, artifact, acc):
    rows = _csv_rows(artifact)
    entries = out["entries"]
    if [int(row["M"]) for row in rows] != check["M"] or len(entries) != len(rows):
        return False, "sweep CSV rows do not match --m-list", acc
    kappas = [float(row["kappa_rM"]) for row in rows]
    acc["series"] = [("sweep", M, k) for M, k in zip(check["M"], kappas)]
    acc["kappa"] = [digits(k, ref) for k, ref in zip(kappas, check["oracle"]) if ref is not None]
    for M, k, ref, entry in zip(check["M"], kappas, check["oracle"], entries):
        if ref is None:
            if not (entry["degenerate"] and k == 0.0):
                return False, f"M={M} should be degenerate", acc
        elif entry["degenerate"] or not _close(k, ref, check["rtol"]):
            return False, f"kappa at M={M}: {k!r} vs oracle {ref!r}", acc
    acc["kappa"].append(digits(out["kappa_ref"], check["ref"]))
    if not _close(out["kappa_ref"], check["ref"], check["rtol"]):
        return False, f"kappa_ref {out['kappa_ref']!r} vs oracle {check['ref']!r}", acc
    return True, "", acc


def _check_figure1(check, out, artifact, acc):
    rows = _csv_rows(artifact)
    acc["kappa"] = [digits(out["intercept"], check["oracle"])]
    if len(rows) != len(check["beta"]):
        return False, f"figure1 CSV has {len(rows)} rows", acc
    worst = max(abs(float(row["beta"]) - ref) for row, ref in zip(rows, check["beta"]))
    if not worst <= check["atol"]:
        return False, f"beta column off by {worst:.3g}", acc
    if not _close(out["intercept"], check["oracle"], check["rtol"]):
        return False, f"intercept {out['intercept']!r} vs oracle {check['oracle']!r}", acc
    return True, "", acc


def _check_pressure(check, out, artifact, acc):
    value = out["value"]
    if not (isinstance(value, float) and math.isfinite(value)):
        return False, f"pressure {value!r} not finite", acc
    acc["pressure"] = [DIGITS_CAP if value == 0.0
                       else max(0.0, min(DIGITS_CAP, -math.log10(abs(value))))]
    if not abs(value) <= check["atol"]:
        return False, f"pressure {value!r} not within {check['atol']} of 0", acc
    return True, "", acc


def _check_verify(check, out, artifact, acc):
    kappa, d_hat, gap = out["kappa_r"], out["D_hat"], out["relative_gap"]
    v_hat = out["diagnostics"]["V_hat"]
    acc["kappa"] = [digits(kappa, check["oracle"])]
    acc["verify_gap"] = [gap]
    acc["distortion"] = [sum(math.log10(v) for v in v_hat) / len(v_hat)]
    if not _close(kappa, check["oracle"], check["rtol"]):
        return False, f"kappa_r {kappa!r} vs oracle {check['oracle']!r}", acc
    if not _close(gap, abs(d_hat - kappa) / kappa, 1e-12) or out["passed"] is not True:
        return False, "relative_gap inconsistent with D_hat and kappa_r", acc
    return True, "", acc


_CHECKS = {
    "kappa": _check_kappa,
    "dimh": _check_dimh,
    "sweep": _check_sweep,
    "figure1": _check_figure1,
    "pressure": _check_pressure,
    "verify": _check_verify,
}


def monotone_violations(series: list[tuple]) -> int:
    """Decreasing steps of each named series, ordered by truncation M."""
    by_name: dict[str, list[tuple]] = {}
    for name, M, value in series:
        by_name.setdefault(name, []).append((M, value))
    count = 0
    for points in by_name.values():
        values = [v for _, v in sorted(points)]
        count += sum(1 for a, b in zip(values, values[1:]) if b < a)
    return count
