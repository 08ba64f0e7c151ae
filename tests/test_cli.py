import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# Gauss {1,2} at its dimension dim E_2; the spec keeps the legacy "K": 4.0
GAUSS12_DIM_DOC = GAUSS_DOC.replace('"s": 0.6', '"s": 0.531280506277205')

# four similarities with unequal ratios and unequal weights
SIM4_DOC = """{"domain": [0.0, 1.0], "kind": "similarity",
 "maps": [{"ratio": 0.1, "offset": 0.0}, {"ratio": 0.2, "offset": 0.15},
          {"ratio": 0.25, "offset": 0.4}, {"ratio": 0.3, "offset": 0.7}],
 "potential": {"kind": "logweights", "weights": [0.1, 0.2, 0.3, 0.4]}}
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
    assert summary["intercept"] == report["D_r"]
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
    # Newton root at q = 0 and per later point, then qdim's degeneracy check
    # and certificate for q_r (254 when every grid point was solved by the
    # regula falsi)
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS12_DIM_DOC)
    calls = _count_eigensolves(monkeypatch)
    fig = tmp_path / "fig.csv"
    assert main(["figure1", "--system", str(path), "--r", "2", "--out", str(fig)]) == 0
    assert 21 <= len(calls) <= 25
    summary = json.loads(capsys.readouterr().out)
    assert main(["qdim", "--system", str(path), "--r", "2"]) == 0
    assert summary["q_r"] == json.loads(capsys.readouterr().out)["q_r"]
    rows = [list(map(float, row.split(","))) for row in fig.read_text().splitlines()[1:]]
    assert max(abs(b - 0.531280506277205 * (1.0 - q)) for q, b, *_ in rows) <= 1e-12


def test_dimh_takes_one_eigensolve(tmp_path, monkeypatch, capsys):
    # eigenpair Newton from h = 1, certified by one eigenvalue solve
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS12_DIM_DOC)
    calls = _count_eigensolves(monkeypatch)
    assert main(["dimh", "--system", str(path)]) == 0
    assert len(calls) <= 1
    report = json.loads(capsys.readouterr().out)
    assert report["solver"] == "newton"
    assert abs(report["dim_h"] - 0.531280506277205) <= 1e-13


def _count_operator_lookups(monkeypatch) -> list:
    # measure binds the name at import, so its binding is wrapped too
    calls = []
    lookup = qdim.pressure._operator_parts
    for module in (qdim.pressure, qdim.measure):
        monkeypatch.setattr(module, "_operator_parts",
                            lambda *args: calls.append(args) or lookup(*args))
    return calls


@pytest.mark.parametrize("args, lookups", [
    (["dimh"], 1),
    (["qdim", "--r", "2"], 1),
    (["beta", "--q", "0.5"], 1),
    (["beta", "--out", "beta.csv"], 1),
    (["figure1", "--r", "2", "--out", "fig.csv"], 2),   # the walk, then the fixed point
    (["pressure", "--q", "0.5", "--t", "0.3"], 2),      # and the 16-node twin
    (["verify", "--r", "2", "--n-list", "4,8", "--samples", "500", "--out", "v.json"], 2),
    (["sample", "--samples", "500", "--out", "s.csv"], 1),
], ids=["dimh", "qdim", "beta-q", "beta-grid", "figure1", "pressure", "verify", "sample"])
def test_one_operator_lookup_per_solve(args, lookups, tmp_path, monkeypatch, capsys):
    # each solve looks its collocated operator up once and passes the parts
    # down to every Newton start, regula falsi and eigenvector it needs
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS12_DIM_DOC)
    monkeypatch.chdir(tmp_path)
    calls = _count_operator_lookups(monkeypatch)
    assert main([args[0], "--system", str(path), *args[1:]]) == 0
    assert len(calls) == lookups


def test_one_operator_lookup_for_many_cylinder_masses(monkeypatch):
    # cylinder masses at one (q, t) share the operator's nu and pressure: the
    # first word looks the operator up and every later word reuses the pair
    system, family = Q.gauss_system((1, 2)), Q.derivative_family(0.531280506277205)
    calls = _count_operator_lookups(monkeypatch)
    words = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    masses = [Q.cylinder_mass(system, family, word).hex() for word in words]
    assert len(calls) == 1
    assert masses == ["0x1.42969d3e865bcp-1", "0x1.7ad2c582f349dp-2", "0x1.7ad2c582f34a3p-2",
                      "0x1.0a5a74fa196e4p-2", "0x1.c9e2299c89a09p-3", "0x1.2bc361695cf40p-3"]


@pytest.mark.parametrize("doc, m, solvers", [
    (E1_DOC, [], ("closed_form",) * 3),
    (GAUSS_DOC, [], ("newton",) * 3),
    # from h = 1 at t = 0, Newton leaves h > 0 at q = 2 on Gauss M = 5 at s = 1,
    # and Newton on P from inside the sign bracket answers
    (GAUSS_FULL_DOC.replace('"s": 0.6', '"s": 1.0'), ["--m", "5"], ("newton",) * 3),
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
    # ratios 0.01 set the depth to log(1e-12) / log(0.01) = 6, so the sample has
    # at most 2^6 = 64 distinct points and V_hat = 0 at n = 64: the regression
    # fails numerically, and the flags were fine
    path = tmp_path / "tiny.json"
    path.write_text(E2_DOC.replace("0.3333333333333333", "0.01")
                    .replace("0.6666666666666666", "0.99"))
    assert main(["verify", "--system", str(path), "--r", "2", "--n-list", "4,8,16,32,64",
                 "--samples", "100", "--seed", "1"]) == 2
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


E2_DOC = E1_DOC.replace("[0.5, 0.5]", "[0.7, 0.3]")

_VERIFY_SPECS = {"e2": E2_DOC, "gauss12-dim": GAUSS12_DIM_DOC}


@pytest.mark.parametrize("spec, r, samples, n_list, seed, digest", [
    # e2 at r = 2: the mean centers from the greedy split start
    pytest.param("e2", "2", "20000", "4,8,16,32,64", 7,
                 "5afcf2fe66dd5cf0217e80f5846fbe4e39a92171ae735a1c072e7acf0cdfcf8f",
                 id="7-5afcf2fe66dd5cf0217e80f5846fbe4e39a92171ae735a1c072e7acf0cdfcf8f"),
    pytest.param("e2", "2", "20000", "4,8,16,32,64", 8,
                 "b751ea7e4d87232ec818ce48a795fc9924bdd54ee12c5b5c102c7043fd11b204",
                 id="8-b751ea7e4d87232ec818ce48a795fc9924bdd54ee12c5b5c102c7043fd11b204"),
    # e2 at r = 1.5: the slope-root centers; 2024 is the default seed
    pytest.param("e2", "1.5", "20000", "4,8,16,32,64", 2024,
                 "b7592ff8b75748e8f5ed9683a97d1b3f8f730d90bacc81b38216a123fc7fe9d9", id="e2-r1.5"),
    # Gauss {1,2} through the eigenfunction chain: the slope-root centers
    # below and above r = 2, and the golden-section search at r = 0.7
    pytest.param("gauss12-dim", "1.5", "4000", "4,8,16", 2024,
                 "5668e4e564c61dbc92afe51568d002e101a0898bbd0d2d0c408c7434a409e3cf",
                 id="gauss12-r1.5"),
    pytest.param("gauss12-dim", "3", "4000", "4,8,16", 2024,
                 "81f48a5eafd7ff0a88ec3c6ca0fe39a7898295ab8fafdf9403e6bbb8a7d2e1da",
                 id="gauss12-r3"),
    pytest.param("gauss12-dim", "0.7", "4000", "4,8,16", 2024,
                 "49a47de94367428022c73a7a17e2e7627b2e61ad93b7491f1a853124d4be6903",
                 id="gauss12-r0.7"),
])
def test_verify_reports_pinned(spec, r, samples, n_list, seed, digest, tmp_path, monkeypatch):
    # the whole verify report, byte for byte: the sample stream, the greedy
    # split start, the Lloyd codebooks and the regression.  The report
    # records the spec's path, so the spec sits in the working directory
    monkeypatch.chdir(tmp_path)
    Path(f"{spec}.json").write_text(_VERIFY_SPECS[spec])
    assert main(["verify", "--system", f"{spec}.json", "--r", r, "--samples", samples,
                 "--n-list", n_list, "--seed", str(seed), "--out", "v.json"]) == 0
    assert hashlib.sha256(Path("v.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("r, digest", [
    ("2", "bdbc2f1a50e30d1cc63b92dd5c751ab2dfda1a501441995255e12aace28ef393"),
    ("1.5", "139ab8a8d4de24fa09ea26b5bec865956d31a46007189d06615ae78c485200a1"),
])
def test_verify_reports_pinned_at_benchmark_shape(r, digest, tmp_path, monkeypatch):
    # the selfsimilar-verify shape: 200 000 points are three full sampling
    # chunks and a partial one, and n up to 512 grows a 511-cut split tree
    monkeypatch.chdir(tmp_path)
    Path("e2.json").write_text(E2_DOC)
    assert main(["verify", "--system", "e2.json", "--r", r, "--samples", "200000",
                 "--n-list", "4,8,16,32,64,128,256,512", "--seed", "7", "--out", "v.json"]) == 0
    assert hashlib.sha256(Path("v.json").read_bytes()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
@pytest.mark.parametrize("width", [1, 2], ids=["one-cpu", "two-cpus"])
def test_verify_under_a_cpu_mask_writes_the_pinned_report(width, tmp_path):
    # a child confined to one CPU reads that mask in _cpu_count and draws each
    # chunk's words inline, without a thread pool; one confined to two CPUs
    # pins one pool worker to each: both write the r = 2 report pinned above
    mask = sorted(os.sched_getaffinity(0))
    if len(mask) < width:
        pytest.skip(f"the process may run on {len(mask)} CPU(s)")
    (tmp_path / "e2.json").write_text(E2_DOC)
    done = subprocess.run([sys.executable, "-m", "qdim.cli", "verify", "--system", "e2.json",
                           "--r", "2", "--samples", "200000", "--n-list",
                           "4,8,16,32,64,128,256,512", "--seed", "7", "--out", "v.json"],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=120, preexec_fn=lambda: os.sched_setaffinity(0, mask[:width]))
    assert done.returncode == 0, done.stderr
    assert (hashlib.sha256((tmp_path / "v.json").read_bytes()).hexdigest()
            == "bdbc2f1a50e30d1cc63b92dd5c751ab2dfda1a501441995255e12aace28ef393")


_THEORY_COMMANDS = (
    ["dimh"], ["beta", "--q", "-1"], ["beta", "--q", "0.3"], ["beta", "--q", "2"],
    ["qdim", "--r", "0.5"], ["qdim", "--r", "2"], ["qdim", "--r", "1e4"],
    ["figure1", "--r", "2", "--out", "out.csv"], ["beta", "--out", "out.csv"],
)

_THEORY_SYSTEMS = {
    "e2": (E2_DOC, []),
    "e3": (E3_DOC, []),
    "gauss12-dim": (GAUSS12_DIM_DOC, []),
    "gauss12-0.6": (GAUSS_DOC, []),
    "gauss15-0.8": (GAUSS_DOC.replace("[1, 2]", "[1, 2, 3, 4, 5]").replace('"s": 0.6', '"s": 0.8'),
                    []),
    # from h = 1 at t = 0, the cold Newton start fails at q = 2 here
    "gauss-full-1-m5": (GAUSS_FULL_DOC.replace('"s": 0.6', '"s": 1.0'), ["--m", "5"]),
    "gauss-full-1.5-m40": (GAUSS_FULL_DOC.replace('"s": 0.6', '"s": 1.5'), ["--m", "40"]),
    "sim4": (SIM4_DOC, []),
}

# systems pinned on other commands than ``_THEORY_COMMANDS``: the truncated
# geometric sums of every M up to 20, a finite sweep below and at the size,
# and the cold start alone on the 40-symbol Gauss subsystem at s = 0.6 (an
# unnormalized potential)
_THEORY_EXTRA = {
    "e3-sweep": (E3_DOC, (["sweep", "--r", "2", "--m-list", ",".join(map(str, range(1, 21))),
                           "--out", "out.csv"],)),
    "sim4-sweep": (SIM4_DOC, (["sweep", "--r", "2", "--m-list", "1,2,3,4", "--out", "out.csv"],
                              ["sweep", "--r", "0.5", "--m-list", "2,4", "--out", "out.csv"])),
    "gauss-full-0.6-m40": (GAUSS_FULL_DOC, (["dimh", "--m", "40"],
                                            ["qdim", "--m", "40", "--r", "2"])),
}


def _theory_digests(doc: str, m: list, capsys, commands=_THEORY_COMMANDS) -> list[str]:
    """sha256 of stdout plus any --out file, one per entry of ``commands``.
    Reports record the spec's path, so the spec sits in the working
    directory."""
    Path("spec.json").write_text(doc)
    digests = []
    for args in commands:
        assert main(args[:1] + ["--system", "spec.json", *m, *args[1:]]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode())
        out = Path("out.csv")
        if out.exists():
            digest.update(out.read_bytes())
            out.unlink()
        digests.append(digest.hexdigest())
    return digests


@pytest.mark.parametrize("name, digests", [
    ("e2", (
        "ee65c36915e6db932e134119258a75abdc1a8b4b2aab1b94dd71d002f48cd6be",
        "15968aade7a25ffc894ced253cdcb447d2ced07fc1d265cdaa64bdbc1517b6e2",
        "a8dc326f5df36c1ac71fb0ffdecaf640161cf6f0b837483fb2b4f8bc936a53e5",
        "bcc7a8fe59a0d9c0d5662ae2b6501db93f0c403eaf49f9491df51edd831b5cf1",
        "3c439d0f16119ee60d03d8b5633acd5cc4f6a751e8654fbcdaea6a874d324071",
        "28e75c4fd3a31d16211c3c13b2f87b6d0fa936f07c0acb7d17d6f3d7f7d4bd4f",
        "55ba53d7eaa57f8fcaef5ace14e2c1225c261e991df6cf8b3e78d38c4075ee43",
        "349d75fbe24e096c64edfcbe853e23bad919511939dc37eddb91b880b45360a8",
        "53bb6b66a2c4e5f4d3b5779edf5b872c1b8b21e48d8266960abd816b13bfd39d",
    )),
    ("e3", (
        "2acfaa506711d6aefb42758bc4156523089fb775627b17019ce7c9596fae0ced",
        "f3ccfbc78d6f4a28844b76f4bf211aa97d76bf3d69d01edff53295205479c547",
        "63d20f474ef651fb12397aa6a248d16bd358b013df18c44cb650a379625ad5c3",
        "61b49a50993c17af8442c65ad2caa7d29997979994e3c2a5759359ff9093a6b0",
        "4b91c5197626004dbe56dc9eaf10d25113b099f61b414455688b74665c026d9b",
        "445faaa41e40cd3f49409542e56f7c70f225882e47e4768b8879d1c9149ddf04",
        "ee04ff7b3ebba9da2310adaf09cadb5715a25b090838adfdb7c585b09b9444c1",
        "ba014d85a54be08d696939854beed196edd9aaf0aae9d5335cbf48244d46f0e6",
        "43d0192891310143c17273eeebde32f0543d8276eef36ebc88f89547848d8784",
    )),
    ("gauss12-dim", (
        "764c12a7ed01c1ca03bd676aaac11961aaad04fbad8a160b14e68f3b268917c9",
        "6b1373265b288523e29feb7a12ede4e64de65dcceb29802f8096522deb01b905",
        "8b7749861ed34cdf34aa82574f48fc7f1be30774177c602dcf8dced34c2b77dc",
        "18ee3d588612362dcb4efffacb42587ce6d324abe248ba08936dd738d3ae7644",
        "268452b95a1a9db2dffadcf8fbb8e1181d6cbdb3f64401bdcb5cf20cc4da2d08",
        "3cf55dd4dd250cbe3460793a6e156c7b549a132e56e56b73317410b600346643",
        "1e904200c80112de91520be6abae2f308d49dfca625640e1d02954a0606f4321",
        "5aff163020e73105d4c224424f34d95022afb1c116ee3cccd87155caf3af57b2",
        "9cc7becc56687eb2c54a10f5de5b00b70f560c837b838cd2bfc35f9d68961544",
    )),
    ("gauss12-0.6", (
        "3b2468317bef2b70616c4b6eb53fdfca079a7684e6d3a3f32206d645ba6fb9e3",
        "9ed582c9944ed7c092ef5cd55cc8eb3450c79eebb337af56d32eb55ee6ba0eb0",
        "1ad59d1ed40e7e64cc187a5a04b3d57288978924688b949d373c8266ec7fa3bb",
        "d006557197b990dba24660bf83d60570198922bcee1f40b798588a4ee8bc2e5c",
        "8c5057952fc04347c172f0fed416b6ab8fb717af80bcb27e41c259ea8e85fbb9",
        "1ddfc9ad7a577560aac6513791ee7459b8e5744cad6bd9c2acb9c43a3494a813",
        "31916af00a20bdd2ae50dfd36bce66f20e3086d92b97046aad2e2392fb1bc3c9",
        "f97796b06e34498bc7249048e6ddfa241c45ede3629332890043d91bc2cdd599",
        "81adaa910865a3b0765fcdf258f78e54f7c40ac84a601060a745ee5bfd152cca",
    )),
    ("gauss15-0.8", (
        "b918529f0f907ba77718741edc31d5826cca53b6bf123b616f9dada1683e1c42",
        "b1e80beb8006f5adac8523691781a367c9a73ff728a54d77b7d3c45c62af5651",
        "35c188064e85af256528e5c691df4b29312a8508ff547fa9fe70ee2da23ef707",
        "be29ac520899f268c6e2889e1c4eda5ed686b2b67ab69b88756a1c35ced0845e",
        "3cf6de9f74b2aab8263f823b417b9dab3f05dcb411c8fbdbfd529b6f872f12a1",
        "dca99198ef50f631a6ee4d2d9f0732e6708cf7a5e74bd6b552ad7df633f22633",
        "5e1489e159dc2090bd0af22dc0d8dbb5e1c9bed94cce279341e6a9b3ea598b18",
        "c781312f76f01dcf478ee591d6348e825ad15155b8dbda3030094dcf1429f67a",
        "6202b1f88aa0a3657d326eef21ab70d83d9502d73dbf30f5e046720cd90f8e07",
    )),
    ("gauss-full-1-m5", (
        "c0a0c0ab8f4e68135dc797911a5c0f0f771632e5b09beee3a1da5fcc8cadce4d",
        "f0eddd499a18b9ab7dc5f5b13e87b05261b5f5b4f3df0a701970248498fcd422",
        "b2492c620ff0a47548b4044e8c39b2a12d8e9427f6ec31575b66bc96c7bc148a",
        "b3a38784380fd13faf88ee1d2ab43aa04180f40eba2550bdec3406eeef6d36ac",
        "e9241488185e52a5bc4892af88b40d81a387e26756d586db1ec9989c0c54d8d6",
        "22436b4afd559983bc4ecc7d1124b658c75a7909c1d3df9b64c3088ae3fff26f",
        "aaace54def3c19e70484d8e28caad09db87d2b9fda00998fdabfa00e2bc7fbd2",
        "747776ccd4d43aeeb97a31acfebf8aa417a66a7ec551fa61b4fd0301c819eb38",
        "562ad33ebbfa202c281180037175d63e04b73b598032bd877d7501c0676b59e4",
    )),
    ("gauss-full-1.5-m40", (
        "32ab00cda2a568c202372380601f51bb22e1f3cf26eb0eb27c1283955817fb59",
        "bc23bafffdaa894c3c4bfb8c35e96174818a7de159a95efa43f340c247849fe4",
        "572439bc431b201af4174a39c42e4d752105db3d94b3d1a715956719b31ad643",
        "5ac82d6750d51cf8ff312ee3d1626d86ee444fe24916c63da71f57559346524f",
        "2100a75f5ae30ded22849608bc8c4fd74846c0b2c82208a506cf6228f1931d02",
        "0b7899fcfbd4b9556f4179d034204a5176f619e20ffca3257fd25d7fe7466100",
        "1c5d5a4918aef1d4dc262a1e2db8494e2fb2d71d76e7fe000418147abde08c97",
        "3c06ad36daf8a60c99f8f7b3dd7f2a7a546752970d5974eaa85b439b546f1591",
        "eb56ded1685ce4353fb8278acd261c2032a0d474c1782cc113d8836417e61974",
    )),
    ("sim4", (
        "7d9c51589827dba0500ff79687f2691777d31e81eca795b043dbde9f201420c8",
        "882b4b683349edf60663a225869170a1f8b21f7abd09f83346ad2284d8a251d4",
        "0528f8415a422968c33205ba2bf4cd640c57dae92551e6c250e7e3a45a556024",
        "392d09e718e47dedd64ea1e6c704c85ccf6019542b08462387dcf08f810e85ec",
        "93073d9d3b8d04b55b9f59d4f2a10b089c6f0fcb5a7c725c769dfbe77c571917",
        "77b2115e6adefc06412fa9c01a01ae0a2d31ff2af8d623ccb612a9f89b90a82f",
        "df61b708a6d17bddccf37ca3a6e54b51df7b7e89531f93bebb2a467307dbb67c",
        "520fed839b0d5efe4685c81aa10e61851e36b3dffd017c59e48bd6486d1de3d8",
        "ec5babb85b24d194534f34b52d9ce32e95bd679cf8af87d3f9271fa8136a18bb",
    )),
    ("e3-sweep", (
        "b09d28afb89bed1d3743a6777966eb0bfdb8748ea1c416311c0c76e757445d30",
    )),
    ("sim4-sweep", (
        "838ec61625083b651b53753227586e58b48d69df0b629024dff578d59b8bbfda",
        "f65c7da261e79f8806c6757e9bd41a454312eb787407d130d32df53ff9a8b0cd",
    )),
    ("gauss-full-0.6-m40", (
        "4af0f93f15058dba524813cc67d13e64ec0ddccc7bb71159842bf0ed04d1be56",
        "aeaff2cd3db199d42c366997981cd6b66b3d69ddbeead1107e4ef7053bea6544",
    )),
])
def test_theory_outputs_pinned(name, digests, tmp_path, monkeypatch, capsys):
    # every theory command's report and artifact, byte for byte: dimh, beta
    # at q = -1, 0.3 and 2, qdim at r = 0.5, 2 and 1e4, figure1 at r = 2 and
    # the beta grid CSV, on closed forms, finite Gauss systems and
    # truncations of the full Gauss system; sweeps on e3 and on sim4; dimh
    # and qdim on the full Gauss system at s = 0.6 with --m 40
    monkeypatch.chdir(tmp_path)
    if name in _THEORY_EXTRA:
        doc, commands = _THEORY_EXTRA[name]
        assert _theory_digests(doc, [], capsys, commands) == list(digests)
    else:
        doc, m = _THEORY_SYSTEMS[name]
        assert _theory_digests(doc, m, capsys) == list(digests)


@pytest.mark.parametrize("name", list(_THEORY_SYSTEMS))
def test_figure1_reports_the_qdim_fixed_point(name, tmp_path, monkeypatch, capsys):
    # figure1's chord meets beta at qdim's q_r and the vertical axis at
    # qdim's kappa_r, to the bit
    monkeypatch.chdir(tmp_path)
    doc, m = _THEORY_SYSTEMS[name]
    Path("spec.json").write_text(doc)
    for r in ("0.777", "1.37", "2", "2.5"):
        assert main(["figure1", "--system", "spec.json", *m, "--r", r, "--out", "fig.csv"]) == 0
        figure = json.loads(capsys.readouterr().out)
        assert main(["qdim", "--system", "spec.json", *m, "--r", r]) == 0
        report = json.loads(capsys.readouterr().out)
        q_r = report["q_r"]
        assert (figure["q_r"], figure["intercept"]) == (q_r, report["kappa_r"]), r
        assert figure["intersection"] == [q_r, float(r) * q_r], r


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
    (",", "--n-list is empty"),
], ids=["zero", "negative", "repeated", "not-below-samples", "empty"])
def test_n_list_checked_before_sampling(command, n_list, message, e1_spec, tmp_path,
                                        monkeypatch, capsys):
    monkeypatch.setattr(qdim.measure, "sample_measure", _no_sampling)
    assert main([command, "--system", e1_spec, "--r", "2", "--n-list", n_list,
                 "--samples", "10", "--out", str(tmp_path / "out")]) == 1
    assert f"spec error: {message}" in capsys.readouterr().err


def test_verify_needs_two_sizes(e1_spec, monkeypatch, capsys):
    monkeypatch.setattr(qdim.measure, "sample_measure", _no_sampling)
    assert main(["verify", "--system", e1_spec, "--r", "2", "--n-list", "8"]) == 1
    assert "spec error: verify needs at least two --n-list sizes" in capsys.readouterr().err


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the flags were checked")


@pytest.mark.parametrize("command", ["sample", "quantize", "verify"])
@pytest.mark.parametrize("depth", ["0", "-3", "6"])
def test_depth_checked_before_solving(command, depth, e1_spec, tmp_path, monkeypatch,
                                      capsys):
    # every sample runs at the depth its law needs: no command takes --depth,
    # and its parser rejects the flag before anything is sampled or solved
    monkeypatch.setattr(qdim.measure, "sample_measure", _no_sampling)
    monkeypatch.setattr(qdim.cli, "solve_quantization_dim", _no_solve)
    args = [command, "--system", e1_spec, "--depth", depth, "--samples", "100",
            "--out", str(tmp_path / "out")]
    if command != "sample":
        args += ["--r", "2", "--n-list", "4,8"]
    assert main(args) == 1
    assert capsys.readouterr() == (
        "", _TOP_USAGE + f"qdim: error: unrecognized arguments: --depth {depth}\n")


_OUT_ARGS = {
    "sample": ["--samples", "100"],
    "quantize": ["--samples", "100", "--r", "2", "--n-list", "4,8"],
    "beta": [],
    "sweep": ["--r", "2", "--m-list", "2,3"],
    "figure1": ["--r", "2"],
    "pressure": ["--q", "0.5", "--t", "0.5"],
    "qdim": ["--r", "2"],
    "dimh": [],
    "verify": ["--samples", "100", "--r", "2", "--n-list", "4,8"],
}
_SOLVERS = ("estimate_pressure", "legendre_and_figure_data", "solve_beta",
            "solve_quantization_dim", "temperature_curve", "truncation_sweep")


@pytest.mark.parametrize("command", ["sample", "quantize", "beta", "sweep", "figure1"])
def test_out_checked_before_sampling(command, e1_spec, monkeypatch, capsys):
    monkeypatch.setattr(qdim.measure, "sample_measure", _no_sampling)
    for solver in ("temperature_curve", "truncation_sweep", "legendre_and_figure_data"):
        monkeypatch.setattr(qdim.cli, solver, _no_solve)
    assert main([command, "--system", e1_spec, *_OUT_ARGS[command]]) == 1
    assert f"spec error: {command} needs --out for the CSV artifact" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_OUT_ARGS))
def test_out_in_a_missing_directory_exits_one_before_solving(command, e1_spec, tmp_path,
                                                             monkeypatch, capsys):
    monkeypatch.setattr(qdim.measure, "sample_measure", _no_sampling)
    for solver in _SOLVERS:
        monkeypatch.setattr(qdim.cli, solver, _no_solve)
    out = tmp_path / "missing" / "artifact"
    assert main([command, "--system", e1_spec, *_OUT_ARGS[command], "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"spec error: cannot write --out {out}: {out.parent} is not a directory\n")


@pytest.mark.parametrize("command", ["dimh", "figure1", "sample"])
def test_a_failed_out_write_exits_one(command, e1_spec, tmp_path, capsys):
    # --out names a directory: the JSON, CSV and sample writes each fail
    assert main([command, "--system", e1_spec, *_OUT_ARGS[command], "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: cannot write --out {tmp_path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_failed_sidecar_write_leaves_no_csv(e1_spec, tmp_path, capsys):
    # the CSV is written, then its PATH.json sidecar fails: the CSV goes too
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / "pts.csv.json").mkdir()
    out = tmp_path / "side" / "pts.csv"
    assert main(["sample", "--system", e1_spec, "--samples", "100", "--out", str(out)]) == 1
    _, err = capsys.readouterr()
    assert err.startswith(f"spec error: cannot write --out {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


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
    # negative values in exponent form, and -inf, reach the checks as values
    (["qdim", "--r", "-1e-1"], "--r -0.1 is not a finite positive order"),
    (["verify", "--r", "2", "--tol", "-2E-1", *_SAMPLING],
     "--tol -0.2 is not a finite nonnegative tolerance"),
    (["beta", "--q", "-inf"], "--q -inf is not finite"),
    (["figure1", "--r", "2", "--grid", "-1"], "--grid -1 is not a q grid of at least 3 points"),
    (["figure1", "--r", "2", "--grid", "2"], "--grid 2 is not a q grid of at least 3 points"),
], ids=["quantize-r0", "quantize-r-negative", "quantize-r-nan", "verify-tol-nan",
        "verify-tol-negative", "qdim-r-inf", "sweep-r-nan", "pressure-t-inf", "beta-q-nan",
        "qdim-r-exponent", "verify-tol-exponent", "beta-q-minus-inf", "figure1-grid-negative",
        "figure1-grid-two"])
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
    (GAUSS_FULL_DOC, ["sweep", "--r", "2", "--m-list", ","], "--m-list is empty"),
], ids=["dimh-zero", "pressure-negative", "sample-zero", "qdim-zero", "sweep-list-zero",
        "sweep-list-empty"])
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


_GAUSS12_LOGWEIGHTS = GAUSS_DOC.replace('{"kind": "derivative", "s": 0.6, "g": "zero"}',
                                        '{"kind": "logweights", "weights": [0.7]}')


@pytest.mark.parametrize("doc, args, message", [
    (E2_DOC.replace("[0.7, 0.3]", "[0.7]"), [], "a weight list of length 1 for 2 maps"),
    (_GAUSS12_LOGWEIGHTS, [], "a weight list of length 1 for 2 maps"),
    (E2_DOC.replace("[0.7, 0.3]", "[0.7, 0.3, 0.5]"), [], "a weight list of length 3 for 2 maps"),
    (GAUSS_DOC.replace("[1, 2]", "[1.5, 2]"), [],
     "continued-fraction symbols must be distinct positive integers"),
    (GAUSS_DOC.replace("[1, 2]", "[1, 1]"), [],
     "continued-fraction symbols must be distinct positive integers"),
    (E2_DOC.replace('"offset": 0.0}', '"offset": 0.0, "orientation": 1.5}'), [],
     "map orientations must be 1 or -1"),
    (GAUSS_DOC.replace("[0.0, 1.0]", "[0, 2]"), [], "continued-fraction systems live on [0, 1]"),
    (E3_DOC.replace("[0.0, 1.0]", "[0, 2]"), [], "geometric systems live on [0, 1]"),
    (GAUSS_DOC.replace("[1, 2]", "5"), [], "finite continued-fraction systems need a symbols list"),
    (E2_DOC.replace("[0.0, 1.0]", "5"), [], "domain must be [a, b]"),
    (E3_DOC.replace('{"family": "geometric", "ratio": 0.3333333333333333}', "3"), [],
     "infinite must be an object, got 3"),
    (GAUSS_FULL_DOC.replace('{"family": "gauss"}', "3"), ["--m", "5"],
     "infinite must be an object, got 3"),
    (GAUSS_FULL_DOC.replace('{"family": "gauss"}', '{"family": "geometric", "ratio": 0.3}'),
     ["--m", "5"], "infinite continued-fraction systems must be gauss"),
    (E2_DOC.replace('{"kind": "logweights", "weights": [0.7, 0.3]}', "3"), [],
     "potential must be an object, got 3"),
    (E3_DOC.replace('{"family": "geometric", "ratio": 0.5}', '{"family": "geometric"}'), [],
     "geometric weights need a ratio"),
], ids=["one-weight", "gauss-one-weight", "three-weights", "symbols-fraction",
        "symbols-repeated", "orientation-fraction", "gauss-domain", "geometric-domain",
        "symbols-number", "domain-number", "infinite-number", "gauss-infinite-number",
        "gauss-infinite-geometric",
        "potential-number", "geometric-weights-without-ratio"])
def test_malformed_spec_exits_one_with_a_spec_error(doc, args, message, tmp_path):
    # neither a traceback nor a silent coercion to another system
    path = tmp_path / "spec.json"
    path.write_text(doc)
    done = subprocess.run([sys.executable, "-m", "qdim.cli", "dimh", "--system", str(path),
                           *args], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert f"spec error: {message}" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("key, value, text, args", [
    ("K", 4.0, GAUSS_DOC, ["dimh", "--m", "2"]),
    ("K", 4.0, GAUSS_DOC, ["qdim", "--r", "2", "--m", "2"]),
    # the contraction bound is read off the maps: e1's 1/3, not the old key's 0.5,
    # sets the default depth, log(1e-12) / log(1/3) -> 26 symbols
    ("s", 0.5, E1_DOC.replace('"kind"', '"s": 0.5, "kind"'),
     ["sample", "--samples", "50", "--out", "pts.csv"]),
], ids=["dimh", "qdim", "sample-s"])
def test_legacy_distortion_key_is_ignored(key, value, text, args, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(text)
    assert doc.pop(key) == value
    reports = []
    for name, spec in (("with_key", text), ("without_key", json.dumps(doc))):
        path = tmp_path / f"{name}.json"
        path.write_text(spec)
        assert main([args[0], "--system", str(path), *args[1:]]) == 0
        report = json.loads(capsys.readouterr().out)
        reports.append({k: v for k, v in report.items() if k not in ("path", "system_digest")})
        if args[0] == "sample":
            assert json.loads((tmp_path / "pts.csv.json").read_text())["depth"] == 26
    assert reports[0] == reports[1]


def test_sample_reports_the_spectral_gap_depth(tmp_path, capsys):
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS12_DIM_DOC)
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


def test_lapack_failure_exits_two(tmp_path):
    # q F + t D overflows to inf - inf = NaN in the collocated operator, and
    # eigvals raises LinAlgError, a ValueError subclass: a numerical failure
    # of a valid spec, not a spec error
    path = tmp_path / "gauss12.json"
    path.write_text(GAUSS_DOC)
    done = subprocess.run([sys.executable, "-m", "qdim.cli", "pressure", "--system", str(path),
                           "--q", "1e308", "--t", "-1e308"], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert ("numerical failure: collocated operator at (q, t) = (1e+308, -1e+308): "
            "Array must not contain infs or NaNs") in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert "RuntimeWarning" not in done.stderr


def test_overflow_exits_two_in_process(tmp_path, capsys):
    # the same failure under pytest's error::RuntimeWarning filter: the overflow
    # and the NaN it makes raise no warning out of main
    path = tmp_path / "gauss12.json"
    path.write_text(GAUSS_DOC)
    assert main(["pressure", "--system", str(path), "--q", "1e308", "--t", "-1e308"]) == 2
    captured = capsys.readouterr()
    assert ("numerical failure: collocated operator at (q, t) = (1e+308, -1e+308): "
            "Array must not contain infs or NaNs") in captured.err
    assert captured.out == ""


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


def test_derivative_spec_samples_past_the_ratio_underflow(tmp_path, capsys, monkeypatch):
    # 0.05**249 == 0.0: symbols from 249 on weigh 0 and map onto 0, read off the
    # generator's ratio without building Similarity1D(0.0, 0.0), which is no map
    monkeypatch.chdir(tmp_path)
    Path("geo.json").write_text(GEO_DERIVATIVE_DOC)
    common = ["--system", "geo.json", "--m", "300"]
    assert main(["sample", *common, "--samples", "2000", "--seed", "7", "--out", "pts.csv"]) == 0
    assert json.loads(capsys.readouterr().out)["truncation"] == 300
    points = [float(v) for v in Path("pts.csv").read_text().split()[1:]]
    assert len(points) == 2000 and all(0.0 <= p <= 1.0 for p in points)
    code = main(["verify", *common, "--r", "2", "--n-list", "4,8,16", "--samples", "2000",
                 "--out", "v.json"])
    assert code in (0, 3)
    capsys.readouterr()
    assert main(["qdim", *common, "--r", "2"]) == 0
    kappa = json.loads(capsys.readouterr().out)["kappa_r"]
    assert json.loads(Path("v.json").read_text())["kappa_r"] == kappa
    # below the underflow the sample's bytes are pinned
    assert main(["sample", "--system", "geo.json", "--m", "248", "--samples", "2000",
                 "--seed", "7", "--out", "pts.csv"]) == 0
    assert (hashlib.sha256(Path("pts.csv").read_bytes()).hexdigest()
            == "fc6b044feec50d9d31ea14212fdc972b6fd26da72c5cc40e9833ccb36797e101")


def test_depth_only_samples(tmp_path, capsys):
    path = tmp_path / "gauss_full.json"
    path.write_text(GAUSS_FULL_DOC)
    # no command takes --depth: the samplers set their own
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


@pytest.mark.parametrize("exponent, decimal", [
    (["beta", "--q", "-1e-1"], ["beta", "--q", "-0.1"]),
    (["pressure", "--q", "-1.5e0", "--t", "-2e-1"], ["pressure", "--q", "-1.5", "--t", "-0.2"]),
    (["qdim", "--r", "2e0"], ["qdim", "--r", "2"]),
], ids=["beta", "pressure", "qdim"])
def test_negative_exponent_values(exponent, decimal, tmp_path, monkeypatch, capsys):
    # argparse reads "-1e-1" as an option unless it is attached to its flag
    monkeypatch.chdir(tmp_path)
    Path("e2.json").write_text(E2_DOC)
    reports = []
    for args in (exponent, decimal):
        assert main([args[0], "--system", "e2.json", *args[1:]]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


_TOP_USAGE = ("usage: qdim [-h] [--version]\n"
              "            {pressure,beta,qdim,dimh,sweep,sample,quantize,verify,figure1} ...\n")
_CHOICES = ("(choose from 'pressure', 'beta', 'qdim', 'dimh', 'sweep', 'sample', 'quantize', "
            "'verify', 'figure1')")

# (argv, exit code, stdout, stderr) of argparse's paths through main, recorded
# with Python 3.11 at COLUMNS=80 when every argv went through the top parser
_PARSE_PATHS = {
    "version": (["--version"], 0, "qdim 0.1.0\n", ""),
    "help": (["--help"], 0, _TOP_USAGE + """
quantization dimensions of conformal measures

positional arguments:
  {pressure,beta,qdim,dimh,sweep,sample,quantize,verify,figure1}
    pressure            two-parameter pressure estimate
    beta                temperature function
    qdim                quantization dimension fixed point
    dimh                Hausdorff dimension of the limit set
    sweep               truncation sweep of kappa_{r,M}
    sample              draw an empirical measure to CSV
    quantize            Lloyd runs over codebook sizes
    verify              theoretical kappa_r against the empirical slope
    figure1             temperature curve, chord and spectrum dataset

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", ""),
    "empty": ([], 1, "", _TOP_USAGE + "qdim: error: the following arguments are required: "
              "command\n"),
    "unknown-command": (["bogus"], 1, "", _TOP_USAGE + "qdim: error: argument command: "
                        f"invalid choice: 'bogus' {_CHOICES}\n"),
    "option-first": (["--system", "e2.json", "dimh"], 1, "", _TOP_USAGE +
                     f"qdim: error: argument command: invalid choice: 'e2.json' {_CHOICES}\n"),
    "missing-system": (["dimh"], 1, "", "usage: qdim dimh [-h] --system SYSTEM [--out OUT] "
                       "[--m M]\nqdim dimh: error: the following arguments are required: "
                       "--system\n"),
    "unrecognized-flag": (["dimh", "--system", "e2.json", "--bogus", "1"], 1, "",
                          _TOP_USAGE + "qdim: error: unrecognized arguments: --bogus 1\n"),
    "stray-positional": (["dimh", "--system", "e2.json", "stray"], 1, "",
                         _TOP_USAGE + "qdim: error: unrecognized arguments: stray\n"),
    "bad-float": (["qdim", "--system", "e2.json", "--r", "abc"], 1, "",
                  "usage: qdim qdim [-h] --system SYSTEM [--out OUT] [--m M] --r R\n"
                  "qdim qdim: error: argument --r: invalid float value: 'abc'\n"),
    "verify-help": (["verify", "--help"], 0, """\
usage: qdim verify [-h] --system SYSTEM [--out OUT] [--m M] [--seed SEED] --r
                   R [--tol TOL] [--n-list N_LIST] [--samples SAMPLES]

options:
  -h, --help         show this help message and exit
  --system SYSTEM    system spec JSON
  --out OUT          artifact path
  --m M              alphabet truncation
  --seed SEED
  --r R
  --tol TOL          largest relative gap
  --n-list N_LIST
  --samples SAMPLES
""", ""),
}


@pytest.mark.parametrize("name", list(_PARSE_PATHS))
def test_parse_paths_pinned(name, tmp_path, monkeypatch, capsys):
    # argparse wraps usage and help at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    Path("e2.json").write_text(E2_DOC)
    argv, code, out, err = _PARSE_PATHS[name]
    outcome = (main(list(argv)), *capsys.readouterr())
    # every argv the top parser alone reads gives the same bytes
    with pytest.raises(SystemExit) as done:
        _build_parser()[0].parse_args(list(argv))
    assert outcome == (0 if done.value.code in (0, None) else 1, *capsys.readouterr())
    # argparse's wording is the standard library's: the literal bytes hold
    # on the Python they were recorded with
    if sys.version_info[:2] == (3, 11):
        assert outcome == (code, out, err)


def _json_text_reference(payload: dict) -> str:
    """The JSON text as a round trip through the parser gives it."""
    plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(plain, sort_keys=True, indent=2, allow_nan=False) + "\n"


_JSON_KEYS = st.text(max_size=3)  # every payload key is a str
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                         st.floats(), st.floats().map(np.float64),
                         st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=6))
def test_json_text_matches_the_round_trip(payload):
    assert qdim.cli._json_text(payload) == _json_text_reference(payload)


@pytest.mark.parametrize("payload", [
    {"a": (1.0, [math.inf, {"b": (-math.inf, math.nan)}])},
    {"x": np.float64(0.1), "y": [np.float64(math.nan)], "z": {"w": (np.float64(-0.0),)}},
    # the text json gives True, False, None, 10, 2, 1.5 and inf as keys, as str keys
    {"true": 1, "false": 2, "null": 3, "10": 4, "2": 5, "1.5": 6, "Infinity": 7, "": 8,
     "\u00e9": 9, "a\"b": 10},
], ids=["nested-nonfinite", "numpy-floats", "key-conversion"])
def test_json_text_examples(payload):
    assert qdim.cli._json_text(payload) == _json_text_reference(payload)


@pytest.mark.parametrize("payload", [{(1, 2): 0}, {"a": {"b": {b"c": 0}}}, {"n": np.int64(3)}],
                         ids=["tuple-key", "bytes-key", "numpy-int"])
def test_json_text_rejects_what_json_rejects(payload):
    with pytest.raises(TypeError):
        _json_text_reference(payload)
    with pytest.raises(TypeError):
        qdim.cli._json_text(payload)


@pytest.mark.parametrize("payload", [{1: 0}, {None: 0}, {True: 0}, {1.5: 0}, {"a": 0, 2: 1},
                                     {"a": [{"b": {math.inf: 0}}]}],
                         ids=["int", "none", "bool", "float", "mixed", "nested"])
def test_json_text_rejects_a_key_that_is_no_str(payload):
    # json would write these keys as text; no payload has one
    with pytest.raises(TypeError):
        qdim.cli._json_text(payload)


def _emit_csv_reference(rows, header) -> bytes:
    """The bytes of ``csv.writer`` with a float cell written by repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


# the headers of beta --out, sweep, quantize and figure1
_CSV_HEADERS = [["q", "beta_q"], ["M", "kappa_rM"], ["n", "r", "V_hat", "e_hat", "D_running"],
                ["q", "beta", "line", "legendre_alpha", "legendre_f"]]
_CSV_CELLS = st.one_of(st.floats(), st.floats().map(np.float64), st.integers(), st.none(),
                       st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_CSV_HEADERS).flatmap(
    lambda header: st.tuples(st.just(header),
                             st.lists(st.lists(_CSV_CELLS, min_size=len(header),
                                               max_size=len(header)), max_size=25))))
def test_emit_csv_matches_the_csv_writer(tmp_path_factory, header_rows):
    header, rows = header_rows
    out = tmp_path_factory.mktemp("csv") / "rows.csv"
    qdim.cli._emit_csv(iter(rows), header, str(out))
    assert out.read_bytes() == _emit_csv_reference(rows, header)


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


# every public name of the package, including those it serves from its lazy modules
# and the submodules, qdim.cli among them once the probe has imported it
_PUBLIC_NAMES = """
AnalyticBranch1D BetaSolution BracketError Codebook DegenerateSystemError FigureData
FiniteAlphabet FiniteWeights GaussBranch1D GeometricTail GeometricWeights IfsSystem
InfiniteAlphabet NonSummableError NumericalFailure PotentialFamily PowerLawTail
PressureEstimate QdimError QdimSolution QuantizationRun SampleSet Similarity1D
SpecFormatError SweepResult TemperatureSample Word beta_of_q cantor_system cli
compose_and_derivative cylinder_mass derivative_family errors estimate_Dr
estimate_pressure gauss_system geometric_similarity_system geometric_weight_family
hausdorff_dim ifs is_multiplicative legendre_and_figure_data lloyd_optimize load_spec
log_weight_family measure normalize_pressure potentials pressure quantizer
sample_measure save_sample similarity_system solve_beta solve_quantization_dim specio
temperature_curve theta_of_q truncation_sweep truncation_tail_bound
""".split()

_STARTUP_PROBE = """
import json, sys, types
import qdim, qdim.cli

def executed(name):  # reads the module's type, which does not load it
    return type(sys.modules[name]) is types.ModuleType

specs, out = json.loads(sys.argv[1]), sys.argv[2]
for k, spec in enumerate(specs):
    for argv in (["dimh"], ["qdim", "--r", "2"],
                 ["figure1", "--r", "2", "--out", f"{out}/fig{k}.csv"],
                 ["sweep", "--r", "2", "--m-list", "1,2", "--out", f"{out}/sweep{k}.csv"]):
        assert qdim.cli.main([argv[0], "--system", spec, *argv[1:]]) == 0, argv
print(json.dumps({
    "theory": [executed("qdim.measure"), executed("qdim.quantizer")],
    "verify": qdim.cli.main(["verify", "--system", specs[0], "--r", "2", "--n-list",
                             "4,16,64", "--samples", "20000", "--seed", "7"]),
    "same": qdim.lloyd_optimize is qdim.quantizer.lloyd_optimize,
    "dir": dir(qdim),
}))
try:
    qdim.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("qdim.no_such_name did not raise AttributeError")
"""


def test_theory_commands_leave_the_sampling_stack_unloaded(e1_spec, tmp_path):
    gauss = tmp_path / "gauss12.json"
    gauss.write_text(GAUSS_DOC)
    done = subprocess.run([sys.executable, "-c", _STARTUP_PROBE,
                           json.dumps([e1_spec, str(gauss)]), str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["theory"] == [False, False]
    assert report["verify"] == 0
    assert report["same"]
    assert [name for name in report["dir"] if not name.startswith("_")] == sorted(_PUBLIC_NAMES)


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


@pytest.mark.parametrize("doc", [GAUSS_DOC, GAUSS_FULL_DOC, E2_DOC, E3_DOC],
                         ids=["gauss12", "gauss-full", "e2", "e3"])
def test_two_loads_of_one_spec_are_one_system(doc, tmp_path):
    # value-typed maps and generators: equal specs give equal cache keys
    from qdim.specio import load_spec
    path = tmp_path / "spec.json"
    path.write_text(doc)
    (system_a, family_a, _), (system_b, family_b, _) = load_spec(path), load_spec(path)
    assert system_a == system_b and hash(system_a) == hash(system_b)
    assert family_a == family_b and hash(family_a) == hash(family_b)


def test_repeated_dimh_reuses_the_operator(tmp_path, capsys):
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS_DOC)
    qdim.pressure._operator_parts.cache_clear()
    for _ in range(3):
        assert main(["dimh", "--system", str(path)]) == 0
    info = qdim.pressure._operator_parts.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# the text of every ```json block of the README
_README_SPECS = [block.split("```")[0] for block in (
    Path(__file__).resolve().parents[1] / "README.md").read_text().split("```json\n")[1:]]


@pytest.mark.parametrize("text", _README_SPECS,
                         ids=[f"block{k}" for k in range(len(_README_SPECS))])
def test_readme_spec_examples_run(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text)
    Q.load_spec(path)
    assert main(["dimh", "--system", str(path)]) == 0
