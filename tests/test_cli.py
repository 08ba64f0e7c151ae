import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdim as Q
import qdim.cli
from qdim.cli import _build_parser, main

from conftest import LOG23

E1_DOC = """{"domain": [0.0, 1.0], "kind": "similarity",
 "maps": [{"ratio": 0.3333333333333333, "offset": 0.0},
          {"ratio": 0.3333333333333333, "offset": 0.6666666666666666}],
 "potential": {"kind": "logweights", "weights": [0.5, 0.5]}}
"""

E3_DOC = """{"domain": [0.0, 1.0], "kind": "similarity",
 "infinite": {"family": "geometric", "ratio": 0.3333333333333333},
 "potential": {"kind": "logweights", "weights": {"family": "geometric", "ratio": 0.5}}}
"""

GEO_DERIVATIVE_DOC = """{"kind": "similarity", "infinite": {"family": "geometric", "ratio": 0.05},
 "potential": {"kind": "derivative", "s": 0.8}}
"""

GAUSS_DOC = """{"domain": [0.0, 1.0], "kind": "gauss", "symbols": [1, 2], "K": 4.0,
 "potential": {"kind": "derivative", "s": 0.6, "g": "zero"}}
"""

GAUSS_FULL_DOC = """{"domain": [0.0, 1.0], "kind": "gauss", "infinite": {"family": "gauss"},
 "K": 4.0, "potential": {"kind": "derivative", "s": 0.6, "g": "zero"}}
"""


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


@pytest.fixture()
def e1_spec(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(E1_DOC)
    return str(path)


@pytest.fixture()
def e3_spec(tmp_path):
    path = tmp_path / "e3.json"
    path.write_text(E3_DOC)
    return str(path)


def test_qdim_command(e1_spec, tmp_path, capsys):
    out = tmp_path / "qdim.json"
    assert main(["qdim", "--system", e1_spec, "--r", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["q_r"] == pytest.approx(0.239812, abs=1e-6)
    assert report["kappa_r"] == pytest.approx(LOG23, abs=1e-8)
    assert report["D_r"] == report["kappa_r"]
    assert "system_digest" in report


def test_beta_command_at_one(e1_spec, capsys):
    assert main(["beta", "--system", e1_spec, "--q", "1.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["beta"]) <= 1e-10


def test_beta_grid_csv(e1_spec, tmp_path):
    out = tmp_path / "beta.csv"
    assert main(["beta", "--system", e1_spec, "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "q,beta_q"
    assert len(rows) == 22
    q, b = map(float, rows[11].split(","))
    assert b == pytest.approx((1 - q) * LOG23, abs=1e-9)


def test_dimh_and_pressure_commands(e1_spec, tmp_path, capsys):
    assert main(["dimh", "--system", e1_spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim_h"] == pytest.approx(LOG23, abs=1e-9)
    assert main(["pressure", "--system", e1_spec, "--q", "0.5", "--t", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == pytest.approx(0.5 * (math.log(2) - math.log(3)), abs=1e-12)
    # the full Gauss tail sum_{i>M} i^{-0.8} diverges: not finite, and the
    # infinite bound is written as null, since strict JSON has no Infinity
    path = tmp_path / "gauss_full.json"
    path.write_text(GAUSS_FULL_DOC)
    assert main(["pressure", "--system", str(path), "--m", "5", "--q", "0",
                 "--t", "0.4"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert report["finite"] is False and report["tail_bound"] is None


def test_sweep_command(e3_spec, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--system", e3_spec, "--r", "2", "--m-list", "1,2,4",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "M,kappa_rM"
    kappas = [float(r.split(",")[1]) for r in rows[1:]]
    assert kappas[0] == 0.0
    assert kappas == sorted(kappas)


def test_sample_command_roundtrip(e1_spec, tmp_path, capsys):
    out = tmp_path / "pts.csv"
    args = ["sample", "--system", e1_spec, "--samples", "500", "--seed", "3",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    sidecar = json.loads((tmp_path / "pts.csv.json").read_text())
    assert sidecar["count"] == 500 and sidecar["seed"] == 3


def test_figure1_matches_qdim(e1_spec, tmp_path, capsys):
    fig = tmp_path / "fig.csv"
    assert main(["figure1", "--system", e1_spec, "--r", "2", "--out", str(fig)]) == 0
    summary = json.loads(capsys.readouterr().out)
    out = tmp_path / "qdim.json"
    assert main(["qdim", "--system", e1_spec, "--r", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(summary["intercept"] - report["D_r"]) <= 1e-6
    header = fig.read_text().splitlines()[0]
    assert header == "q,beta,line,legendre_alpha,legendre_f"


def _count_eigensolves(monkeypatch) -> list:
    calls = []
    for name in ("eigvals", "eig"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, solver=solver: calls.append(a) or solver(a))
    return calls


def test_figure1_takes_few_eigensolves(tmp_path, monkeypatch, capsys):
    # the continued curve: one certifying eigenvalue solve for the cold
    # Newton root at q = 0, per later point and for q_r (254 when every
    # grid point was solved by the regula falsi)
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS_DOC.replace('"s": 0.6', '"s": 0.531280506277205'))
    calls = _count_eigensolves(monkeypatch)
    fig = tmp_path / "fig.csv"
    assert main(["figure1", "--system", str(path), "--r", "2", "--out", str(fig)]) == 0
    assert 21 <= len(calls) <= 25
    summary = json.loads(capsys.readouterr().out)
    assert main(["qdim", "--system", str(path), "--r", "2"]) == 0
    assert abs(summary["q_r"] - json.loads(capsys.readouterr().out)["q_r"]) <= 1e-14
    rows = [list(map(float, row.split(","))) for row in fig.read_text().splitlines()[1:]]
    assert max(abs(b - 0.531280506277205 * (1.0 - q)) for q, b, *_ in rows) <= 1e-12


def test_dimh_takes_one_eigensolve(tmp_path, monkeypatch, capsys):
    # eigenpair Newton from h = 1, certified by one eigenvalue solve
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS_DOC.replace('"s": 0.6', '"s": 0.531280506277205'))
    calls = _count_eigensolves(monkeypatch)
    assert main(["dimh", "--system", str(path)]) == 0
    assert len(calls) <= 1
    report = json.loads(capsys.readouterr().out)
    assert report["solver"] == "newton"
    assert abs(report["dim_h"] - 0.531280506277205) <= 1e-13


@pytest.mark.parametrize("doc, m, solvers", [
    (E1_DOC, [], ("closed_form",) * 3),
    (GAUSS_DOC, [], ("newton",) * 3),
    # from h = 1 at t = 0, Newton leaves h > 0 at q = 2 on Gauss M = 5 at s = 1
    (GAUSS_FULL_DOC.replace('"s": 0.6', '"s": 1.0'), ["--m", "5"],
     ("newton", "regula_falsi", "newton")),
])
def test_root_commands_name_their_solver(doc, m, solvers, tmp_path, capsys):
    # each root reports how it was found; reruns are byte-identical
    path = tmp_path / "spec.json"
    path.write_text(doc)
    for args, solver in zip((["dimh"], ["beta", "--q", "2"], ["qdim", "--r", "2"]), solvers):
        outputs = []
        for _ in range(2):
            assert main(args[:1] + ["--system", str(path), *m, *args[1:]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["solver"] == solver and report["iterations"] >= 1


def test_qdim_at_large_order_by_the_regula_falsi(tmp_path, monkeypatch, capsys):
    # Gauss {1,2} at r = 1e4: the operator has no positive real eigenvalue at
    # t = r (1 - 1e-6), so the fallback's upper end starts at r q = 2
    monkeypatch.setattr(qdim.pressure, "_eigen_newton", lambda *args: None)
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS_DOC)
    reports = []
    for args in (["qdim", "--r", "1e3"], ["qdim", "--r", "1e4"], ["dimh"]):
        assert main(args[:1] + ["--system", str(path), *args[1:]]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        assert reports[-1]["solver"] == "regula_falsi"
    kappa_1e3, kappa_1e4, dim_h = (reports[0]["kappa_r"], reports[1]["kappa_r"],
                                   reports[2]["dim_h"])
    assert kappa_1e3 <= kappa_1e4 <= dim_h


def test_too_few_distinct_points_exit_two(tmp_path, capsys):
    # depth 2 gives 4 distinct points, so V_hat = 0 from n = 4 on: the
    # regression fails numerically, and the flags were fine
    path = tmp_path / "e2.json"
    path.write_text(E1_DOC.replace("[0.5, 0.5]", "[0.7, 0.3]"))
    assert main(["verify", "--system", str(path), "--r", "2", "--n-list", "4,8,16,32,64",
                 "--samples", "100", "--seed", "1", "--depth", "2"]) == 2
    assert "numerical failure: nonpositive error estimates" in capsys.readouterr().err


def test_verify_deterministic_and_exit_codes(e1_spec, tmp_path, capsys):
    r1 = tmp_path / "v1.json"
    r2 = tmp_path / "v2.json"
    base = ["verify", "--system", e1_spec, "--r", "2", "--n-list", "4,16,64",
            "--samples", "20000", "--seed", "7"]
    assert main(base + ["--out", str(r1)]) == 0
    assert main(base + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["passed"] and report["relative_gap"] <= 0.15
    assert [run["n"] for run in report["runs"]] == [4, 16, 64]
    assert report["depth"] == 26 and report["truncation"] == 2  # log 1e-12 / log(1/3)
    assert all(run["converged"] and run["iterations"] >= 1 for run in report["runs"])
    # an absurd tolerance forces the verification exit code
    capsys.readouterr()
    assert main(base + ["--tol", "1e-9"]) == 3


def test_quantize_command(e1_spec, tmp_path, capsys):
    out = tmp_path / "quant.csv"
    assert main(["quantize", "--system", e1_spec, "--r", "2", "--n-list", "2,4,8",
                 "--samples", "20000", "--seed", "5", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,r,V_hat,e_hat,D_running"
    vs = [float(r.split(",")[2]) for r in rows[1:]]
    assert vs == sorted(vs, reverse=True)
    manifest = json.loads(capsys.readouterr().out)
    assert [run["n"] for run in manifest["runs"]] == [2, 4, 8]
    assert manifest["depth"] == 26 and manifest["truncation"] == 2


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before --n-list was checked")


@pytest.mark.parametrize("command", ["quantize", "verify"])
@pytest.mark.parametrize("n_list, message", [
    ("0,4", "--n-list size 0 is not positive"),
    ("4,-2", "--n-list size -2 is not positive"),
    ("4,8,4", "--n-list size 4 is repeated"),
    ("4,8,16", "--n-list size 16 is not below --samples 10"),
], ids=["zero", "negative", "repeated", "not-below-samples"])
def test_n_list_checked_before_sampling(command, n_list, message, e1_spec, tmp_path,
                                        monkeypatch, capsys):
    monkeypatch.setattr(qdim.cli, "sample_measure", _no_sampling)
    assert main([command, "--system", e1_spec, "--r", "2", "--n-list", n_list,
                 "--samples", "10", "--out", str(tmp_path / "out")]) == 1
    assert f"spec error: {message}" in capsys.readouterr().err


def test_verify_needs_two_sizes(e1_spec, monkeypatch, capsys):
    monkeypatch.setattr(qdim.cli, "sample_measure", _no_sampling)
    assert main(["verify", "--system", e1_spec, "--r", "2", "--n-list", "8"]) == 1
    assert "spec error: verify needs at least two --n-list sizes" in capsys.readouterr().err


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the flags were checked")


@pytest.mark.parametrize("command", ["sample", "quantize", "verify"])
@pytest.mark.parametrize("depth", ["0", "-3"])
def test_depth_checked_before_solving(command, depth, e1_spec, tmp_path, monkeypatch,
                                      capsys):
    monkeypatch.setattr(qdim.cli, "sample_measure", _no_sampling)
    monkeypatch.setattr(qdim.cli, "solve_quantization_dim", _no_solve)
    args = [command, "--system", e1_spec, "--depth", depth, "--samples", "100",
            "--out", str(tmp_path / "out")]
    if command != "sample":
        args += ["--r", "2", "--n-list", "4,8"]
    assert main(args) == 1
    assert f"spec error: --depth {depth} is not positive" in capsys.readouterr().err


_OUT_ARGS = {
    "sample": ["--samples", "100"],
    "quantize": ["--samples", "100", "--r", "2", "--n-list", "4,8"],
    "beta": [],
    "sweep": ["--r", "2", "--m-list", "2,3"],
    "figure1": ["--r", "2"],
}


@pytest.mark.parametrize("command", ["sample", "quantize", "beta", "sweep", "figure1"])
def test_out_checked_before_sampling(command, e1_spec, monkeypatch, capsys):
    monkeypatch.setattr(qdim.cli, "sample_measure", _no_sampling)
    for solver in ("temperature_curve", "truncation_sweep", "legendre_and_figure_data"):
        monkeypatch.setattr(qdim.cli, solver, _no_solve)
    assert main([command, "--system", e1_spec, *_OUT_ARGS[command]]) == 1
    assert f"spec error: {command} needs --out for the CSV artifact" in capsys.readouterr().err


_SAMPLING = ["--n-list", "4,8", "--samples", "100"]


@pytest.mark.parametrize("args, message", [
    (["quantize", "--r", "0", *_SAMPLING], "--r 0.0 is not a finite positive order"),
    (["quantize", "--r", "-1", *_SAMPLING], "--r -1.0 is not a finite positive order"),
    (["quantize", "--r", "nan", *_SAMPLING], "--r nan is not a finite positive order"),
    (["verify", "--r", "2", "--tol", "nan", *_SAMPLING],
     "--tol nan is not a finite nonnegative tolerance"),
    (["verify", "--r", "2", "--tol", "-1", *_SAMPLING],
     "--tol -1.0 is not a finite nonnegative tolerance"),
    (["qdim", "--r", "inf"], "--r inf is not a finite positive order"),
    (["sweep", "--r", "nan", "--m-list", "2,3"], "--r nan is not a finite positive order"),
    (["pressure", "--q", "0.5", "--t", "inf"], "--t inf is not finite"),
    (["beta", "--q", "nan"], "--q nan is not finite"),
], ids=["quantize-r0", "quantize-r-negative", "quantize-r-nan", "verify-tol-nan",
        "verify-tol-negative", "qdim-r-inf", "sweep-r-nan", "pressure-t-inf", "beta-q-nan"])
def test_bad_numeric_flags_exit_one(args, message, e1_spec, tmp_path):
    out = tmp_path / "artifact"
    done = subprocess.run([sys.executable, "-m", "qdim.cli", args[0], "--system", e1_spec,
                           *args[1:], "--out", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert f"spec error: {message}" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == "" and not out.exists()


@pytest.mark.parametrize("doc, args, message", [
    (GAUSS_FULL_DOC, ["dimh", "--m", "0"], "--m 0 is not a positive truncation"),
    (GAUSS_FULL_DOC, ["pressure", "--q", "1", "--t", "0", "--m", "-2"],
     "--m -2 is not a positive truncation"),
    (GAUSS_FULL_DOC, ["sample", "--samples", "100", "--m", "0"],
     "--m 0 is not a positive truncation"),
    (GAUSS_DOC, ["qdim", "--r", "2", "--m", "0"], "--m 0 is not a positive truncation"),
    (GAUSS_FULL_DOC, ["sweep", "--r", "2", "--m-list", "40,0"],
     "--m-list truncation 0 is not positive"),
], ids=["dimh-zero", "pressure-negative", "sample-zero", "qdim-zero", "sweep-list-zero"])
def test_truncation_below_one_exits_one(doc, args, message, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    out = tmp_path / "artifact"
    done = subprocess.run([sys.executable, "-m", "qdim.cli", args[0], "--system", str(path),
                           *args[1:], "--out", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert f"spec error: {message}" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == "" and not out.exists()


@pytest.mark.parametrize("args", [["dimh", "--m", "2"], ["qdim", "--r", "2", "--m", "2"]],
                         ids=["dimh", "qdim"])
def test_legacy_distortion_key_is_ignored(args, tmp_path, capsys):
    doc = json.loads(GAUSS_DOC)
    assert doc.pop("K") == 4.0
    reports = []
    for name, text in (("with_k", GAUSS_DOC), ("without_k", json.dumps(doc))):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main([args[0], "--system", str(path), *args[1:]]) == 0
        report = json.loads(capsys.readouterr().out)
        reports.append({k: v for k, v in report.items() if k not in ("path", "system_digest")})
    assert reports[0] == reports[1]


def test_sample_reports_the_spectral_gap_depth(tmp_path, capsys):
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS_DOC.replace('"s": 0.6', '"s": 0.531280506277205'))
    out = tmp_path / "pts.csv"
    assert main(["sample", "--system", str(path), "--samples", "50", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 24
    assert json.loads((tmp_path / "pts.csv.json").read_text())["depth"] == 24


def test_malformed_spec_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "martian"}')
    assert main(["qdim", "--system", str(bad), "--r", "2"]) == 1
    bad.write_text("not json")
    assert main(["qdim", "--system", str(bad), "--r", "2"]) == 1
    missing = tmp_path / "missing.json"
    assert main(["qdim", "--system", str(missing), "--r", "2"]) == 1
    bad.write_text('{"kind": "custom", "name": "x"}')
    assert main(["qdim", "--system", str(bad), "--r", "2"]) == 1


@pytest.mark.parametrize("doc", [
    GAUSS_DOC.replace('"K": 4.0', '"K": NaN'),
    E1_DOC.replace('"weights": [0.5, 0.5]', '"weights": [NaN, 0.5]'),
    E1_DOC.replace('"weights": [0.5, 0.5]', '"weights": [0.5, -Infinity]'),
    E1_DOC.replace('"offset": 0.0', '"offset": 1e999'),
    E1_DOC.replace('"weights": [0.5, 0.5]', '"weights": [1' + '0' * 400 + ', 0.5]'),
], ids=["K-nan", "weight-nan", "weight-minus-infinity", "offset-overflow",
        "weight-int-overflow"])
def test_nonfinite_spec_numbers_exit_one(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["dimh", "--system", str(path)]) == 1
    assert "non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "quantize", "verify"])
def test_overflowing_weight_sum_exits_one(command, tmp_path):
    # each weight is finite, but their sum is not
    path = tmp_path / "big.json"
    path.write_text(E1_DOC.replace('"weights": [0.5, 0.5]', '"weights": [1e308, 1e308]'))
    args = [command, "--system", str(path), "--samples", "100",
            "--out", str(tmp_path / "out")]
    if command != "sample":
        args += ["--r", "2", "--n-list", "4,8"]
    done = subprocess.run([sys.executable, "-m", "qdim.cli", *args], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "spec error: weights must have a finite sum" in done.stderr
    assert "Traceback" not in done.stderr


def test_sample_explicit_truncation_reports_its_deficit(e3_spec, tmp_path, capsys):
    # --m samples the truncated system's own measure; the tail it leaves out,
    # sum_{i > 3} 2^-i = 2^-3, is reported, not refused
    out = tmp_path / "pts.csv"
    assert main(["sample", "--system", e3_spec, "--samples", "100", "--m", "3",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["truncation"] == 3
    assert report["deficit"] == pytest.approx(2.0 ** -3, rel=1e-12)
    assert json.loads(Path(str(out) + ".json").read_text())["deficit"] == report["deficit"]


def test_sample_full_gauss_below_the_automatic_reach(tmp_path, capsys):
    # at s = 0.6 no truncation up to 4096 symbols reaches the 1e-6 deficit, but
    # --m 40 samples the 40-symbol subsystem, the same points as the library call
    path = tmp_path / "gauss_full.json"
    path.write_text(GAUSS_FULL_DOC)
    out = tmp_path / "pts.csv"
    assert main(["sample", "--system", str(path), "--samples", "500", "--m", "40",
                 "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    system, family = Q.gauss_system(None), Q.derivative_family(0.6)
    ref = Q.sample_measure(system, family, 500, truncation=40, seed=5)
    assert [float(v) for v in out.read_text().split()[1:]] == ref.points.tolist()
    sidecar = json.loads(Path(str(out) + ".json").read_text())
    assert sidecar["truncation"] == 40 and sidecar["deficit"] == pytest.approx(0.4275, abs=5e-5)


@pytest.mark.parametrize("doc, m, code", [(GAUSS_FULL_DOC, 40, 3), (GAUSS_DOC, None, 0)],
                         ids=["full-m40", "gauss12"])
def test_verify_and_quantize_report_the_deficit(doc, m, code, tmp_path, capsys):
    # the verify report and the quantize manifest carry the sampled measure's
    # deficit: at --m 40 (s = 0.6) the kappa_{2,40} of the subsystem fails
    # the check (exit 3) while 0.4275 of the child weight is cut
    path = tmp_path / "system.json"
    path.write_text(doc)
    common = ["--system", str(path), "--r", "2", "--n-list", "4,8,16", "--samples", "2000",
              "--seed", "3"] + ([] if m is None else ["--m", str(m)])
    system, family, _ = Q.load_spec(str(path))
    deficit = Q.sample_measure(system, family, 2000, truncation=m, seed=3).deficit
    assert deficit == (0.0 if m is None else pytest.approx(0.4275, abs=5e-5))
    report = tmp_path / "verify.json"
    assert main(["verify", *common, "--out", str(report)]) == code
    capsys.readouterr()
    assert json.loads(report.read_text())["deficit"] == deficit
    assert main(["quantize", *common, "--out", str(tmp_path / "runs.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["deficit"] == deficit


def test_sample_far_geometric_truncation(e3_spec, tmp_path, capsys):
    # ratio**i underflows to 0 past i ~ 678; those maps carry no weight
    out = tmp_path / "pts.csv"
    assert main(["sample", "--system", e3_spec, "--samples", "2000", "--m", "700",
                 "--seed", "4", "--out", str(out)]) == 0
    points = [float(v) for v in out.read_text().split()[1:]]
    assert len(points) == 2000 and all(0.0 <= p <= 1.0 for p in points)


def test_sample_small_geometric_ratio(tmp_path, capsys):
    # ratio 0.05**i underflows to 0 at i = 249, inside the 256-symbol head
    # of the weight total; that total now comes from the closed form
    path = tmp_path / "geo.json"
    path.write_text(GEO_DERIVATIVE_DOC)
    out = tmp_path / "pts.csv"
    assert main(["sample", "--system", str(path), "--samples", "500", "--seed", "3",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["truncation"] == 6 and report["deficit"] <= 1e-6
    points = [float(v) for v in out.read_text().split()[1:]]
    assert len(points) == 500 and all(0.0 <= p <= 1.0 for p in points)


def test_depth_only_samples(tmp_path, capsys):
    path = tmp_path / "gauss_full.json"
    path.write_text(GAUSS_FULL_DOC)
    # the pressure comes from the transfer operator: --depth is no dimh flag
    assert main(["dimh", "--system", str(path), "--m", "40", "--depth", "6"]) == 1
    capsys.readouterr()
    # the root solves have no tolerance knob: only verify takes --tol
    assert main(["dimh", "--system", str(path), "--m", "40", "--tol", "1e-6"]) == 1
    capsys.readouterr()
    assert main(["dimh", "--system", str(path), "--m", "40"]) == 0
    assert 0.98 < json.loads(capsys.readouterr().out)["dim_h"] < 1.0
    # without a closed form, an infinite alphabet still needs --m
    assert main(["dimh", "--system", str(path)]) == 1
    assert "needs a truncation" in capsys.readouterr().err


def test_parser_built_once(e1_spec, capsys):
    assert _build_parser() is _build_parser()
    assert main(["dimh", "--system", e1_spec]) == 0
    assert json.loads(capsys.readouterr().out)["dim_h"] == pytest.approx(LOG23, abs=1e-12)
    assert main(["qdim", "--system", e1_spec, "--r", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa_r"] == pytest.approx(LOG23, abs=1e-12)
    reports = []
    for _ in range(2):
        assert main(["verify", "--system", e1_spec, "--r", "2", "--samples", "20000"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["n_list"] == [4, 8, 16, 32, 64, 128, 256, 512]


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports qdim from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; a fresh CLI process must not pay its import
    code = ("import sys, qdim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("s_exp", ["1.0", "0.6"])
def test_sample_unreachable_deficit_exits_two(s_exp, tmp_path):
    # sum_{i>M} i^(-2s) over the total stays above 1e-6 up to the 4096-symbol cap
    path = tmp_path / "gauss_full.json"
    path.write_text(GAUSS_FULL_DOC.replace('"s": 0.6', f'"s": {s_exp}'))
    done = subprocess.run([sys.executable, "-m", "qdim.cli", "sample", "--system", str(path),
                           "--samples", "100", "--out", str(tmp_path / "pts.csv")],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "cannot reach the truncation deficit" in done.stderr


def test_gauss_spec_loads(tmp_path, capsys):
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS_DOC)
    assert main(["dimh", "--system", str(path), "--m", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["dim_h"] - 0.531280506277205) <= 1e-12


def test_spec_contraction_override(tmp_path):
    from qdim.specio import load_spec
    path = tmp_path / "s.json"
    doc = json.loads(E1_DOC)
    doc["s"] = 0.5
    path.write_text(json.dumps(doc))
    system, _, _ = load_spec(path)
    assert system.s == 0.5
    doc["s"] = 0.1  # below the actual map ratios: rejected
    path.write_text(json.dumps(doc))
    with pytest.raises(Exception):
        load_spec(path)
