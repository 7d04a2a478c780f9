import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cqec.cli import main
from cqec.closed_forms import alpha_nonmarkov_1q
from cqec.reduced_model import LABELS
from cqec.dynamics import IntegrationError
from cqec.analysis import FitError


def _read_csv(path):
    """Returns (embedded config dict, header list, data array)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: ") :])
    header = lines[1].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    return config, header, data


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_csv_matching_closed_form(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(
        [
            "simulate", "--scenario", "hamiltonian-1q", "--R", "5",
            "--t-max", "2", "--samples", "51", "--out", str(out),
        ]
    )
    assert rc == 0
    config, header, data = _read_csv(out)
    assert header == ["t_dimensionless", "F_cw", "P_cs", "Lambda"]
    assert config["schema_version"] == 1
    assert config["kappa"] == 5.0
    assert data.shape == (51, 4)
    ref = alpha_nonmarkov_1q(data[:, 0], 1.0, 5.0)
    assert np.max(np.abs(data[:, 1] - ref)) < 1e-8
    # trivial code: codeword fidelity and code-space weight coincide
    assert np.max(np.abs(data[:, 2] - data[:, 1])) < 1e-12


def test_simulate_is_deterministic(tmp_path):
    args = [
        "simulate", "--scenario", "markovian-3q", "--kappa", "4",
        "--t-max", "1", "--samples", "21",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_config_round_trip(tmp_path):
    """The embedded config line reproduces the run byte for byte."""
    first = tmp_path / "first.csv"
    main(
        [
            "simulate", "--scenario", "hamiltonian-1q", "--R", "3",
            "--t-max", "1.5", "--samples", "31", "--out", str(first),
        ]
    )
    config, _, _ = _read_csv(first)
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(config))
    second = tmp_path / "second.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "scenario": "hamiltonian-1q",
                "kappa": 2.0,
                "t_max": 1.0,
                "samples": 11,
            }
        )
    )
    out = tmp_path / "run.csv"
    rc = main(
        ["simulate", "--config", str(cfg_path), "--kappa", "7", "--out", str(out)]
    )
    assert rc == 0
    config, _, _ = _read_csv(out)
    assert config["kappa"] == 7.0


def test_simulate_zero_horizon_single_row(tmp_path):
    out = tmp_path / "zero.csv"
    rc = main(
        [
            "simulate", "--scenario", "markovian-1q", "--kappa", "1",
            "--t-max", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    _, header, data = _read_csv(out)
    assert data.shape == (1, 4)
    assert data[0, 0] == 0.0 and data[0, 1] == 1.0


def test_simulate_reduced_engine_has_coefficient_columns(tmp_path):
    out = tmp_path / "red.csv"
    rc = main(
        [
            "simulate", "--scenario", "hamiltonian-3q", "--engine", "reduced",
            "--R", "50", "--t-max", "10", "--samples", "11", "--out", str(out),
        ]
    )
    assert rc == 0
    _, header, data = _read_csv(out)
    assert header == ["t_dimensionless", "F_cw", "P_cs", "Lambda"] + list(LABELS)
    assert data.shape == (11, 17)
    # F_cw column repeats the first class coefficient
    assert np.max(np.abs(data[:, 1] - data[:, 4])) < 1e-15


def test_simulate_weak_step_engine(tmp_path):
    out = tmp_path / "weak.csv"
    rc = main(
        [
            "simulate", "--scenario", "hamiltonian-1q", "--engine", "weak-step",
            "--R", "2", "--t-max", "0.5", "--samples", "11",
            "--tau-c", "1e-3", "--out", str(out),
        ]
    )
    assert rc == 0
    _, _, data = _read_csv(out)
    ref = alpha_nonmarkov_1q(data[:, 0], 1.0, 2.0)
    assert np.max(np.abs(data[:, 1] - ref)) < 5e-3


def test_simulate_monte_carlo_engine_seeded(tmp_path):
    args = [
        "simulate", "--scenario", "hamiltonian-1q", "--engine", "monte-carlo",
        "--R", "2", "--t-max", "1", "--samples", "5", "--n-traj", "20",
        "--seed", "7",
    ]
    a, b = tmp_path / "mc_a.csv", tmp_path / "mc_b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_cross_validate(tmp_path, capsys):
    out = tmp_path / "xval.csv"
    rc = main(
        [
            "simulate", "--scenario", "hamiltonian-3q", "--R", "4",
            "--t-max", "0.5", "--samples", "6", "--cross-validate",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "cross-validate" in capsys.readouterr().err


def test_simulate_writes_stdout_by_default(capsys):
    rc = main(
        [
            "simulate", "--scenario", "markovian-1q", "--kappa", "1",
            "--t-max", "0.1", "--samples", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# config: ")
    assert "t_dimensionless,F_cw,P_cs,Lambda" in out


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_unknown_scenario_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "bogus"])
    assert exc.value.code == 2


def test_config_errors_return_2(tmp_path):
    # Markovian scenario with a vanishing flip rate
    assert main(["simulate", "--scenario", "markovian-1q", "--lambda", "0"]) == 2
    # R is only meaningful for Hamiltonian scenarios
    assert main(["simulate", "--scenario", "markovian-1q", "--R", "5"]) == 2
    # R and kappa at the same time are ambiguous
    assert (
        main(["simulate", "--scenario", "hamiltonian-1q", "--R", "5", "--kappa", "5"])
        == 2
    )
    # reduced engine outside its scenario
    assert (
        main(["simulate", "--scenario", "markovian-3q", "--engine", "reduced"]) == 2
    )
    # scan grid too short
    assert main(["scan", "--scenario", "markovian-1q", "--grid", "10,30,100"]) == 2
    # eig without a rate
    assert main(["eig", "--out", "-"]) == 2


def test_spectral_method_on_six_qubit_scenario(tmp_path):
    """Spectral propagation of the matrix-free hamiltonian-3q generator
    matches the adaptive-RK run."""
    args = ["simulate", "--scenario", "hamiltonian-3q", "--R", "10", "--t-max", "5"]
    spectral, adaptive = tmp_path / "spectral.csv", tmp_path / "adaptive.csv"
    assert main(args + ["--method", "spectral", "--out", str(spectral)]) == 0
    assert main(args + ["--out", str(adaptive)]) == 0
    _, _, a = _read_csv(spectral)
    _, _, b = _read_csv(adaptive)
    assert a.shape == b.shape == (201, 4)
    assert np.max(np.abs(a[:, 1:3] - b[:, 1:3])) < 1e-9


def test_fixed_rk4_method_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "markovian-1q", "--method", "fixed-RK4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["--grid=0,1,2,3", "--grid=-1,1,2,3", "--grid=1,2,3,inf"])
def test_scan_rejects_nonpositive_or_infinite_rates(grid, capsys):
    rc = main(["scan", "--scenario", "markovian-1q", grid, "--fit"])
    assert rc == 2
    assert "finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("t_max", ["0.0025", "0.0001"])
def test_weak_step_horizon_must_be_whole_cycles(t_max, capsys):
    """2.5 cycles and 0.1 cycle of tau_c = 1e-3 are refused, not rounded."""
    rc = main(
        ["simulate", "--scenario", "hamiltonian-1q", "--engine", "weak-step",
         "--R", "5", "--t-max", t_max, "--tau-c", "1e-3"]
    )
    assert rc == 2
    assert "whole number" in capsys.readouterr().err


def test_weak_step_whole_cycles_end_on_horizon(tmp_path):
    out = tmp_path / "weak.csv"
    rc = main(
        ["simulate", "--scenario", "hamiltonian-1q", "--engine", "weak-step",
         "--R", "5", "--t-max", "0.003", "--tau-c", "1e-3", "--out", str(out)]
    )
    assert rc == 0
    _, _, data = _read_csv(out)
    assert data[-1, 0] == pytest.approx(0.003, rel=1e-12)


def test_weak_step_rows_never_exceed_samples(tmp_path):
    """999 cycles in 10 intervals: strides of 100 cycles, the last one 99."""
    out = tmp_path / "weak.csv"
    rc = main(
        ["simulate", "--scenario", "hamiltonian-1q", "--engine", "weak-step",
         "--R", "2", "--t-max", "0.999", "--tau-c", "1e-3", "--samples", "11",
         "--out", str(out)]
    )
    assert rc == 0
    _, _, data = _read_csv(out)
    assert data.shape[0] == 11
    assert data[-1, 0] == pytest.approx(0.999, rel=1e-12)


def test_jobs_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--scenario", "markovian-1q", "--grid", "10,30,100,300", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--R", "10", "--scenario", "markovian-1q", "--engine", "monte-carlo",
         "--samples", "3"],
        ["scan", "--scenario", "markovian-1q", "--grid", "10,30,100,300", "--R", "5",
         "--engine", "reduced", "--method", "spectral", "--seed", "4"],
        ["eig", "--scenario", "markovian-1q", "--lambda", "3", "--R", "100"],
    ],
    ids=["graph", "scan", "eig"],
)
def test_subcommands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "scenario,grid,closed_form",
    [
        ("markovian-1q", "1e14,1e15,1e16,1e17", lambda r: 1.0 / (2.0 + r)),
        ("hamiltonian-1q", "1e6,1e7,1e8,1e9", lambda r: 2.0 / (4.0 + r**2)),
    ],
    ids=["markovian-1q", "hamiltonian-1q"],
)
def test_scan_at_large_rates_matches_closed_form(tmp_path, scenario, grid, closed_form):
    """The plateau keeps its relative precision when the infidelity is tiny,
    because 1 - P_cs is summed over the weight outside the code space."""
    out = tmp_path / "scan.csv"
    assert main(["scan", "--scenario", scenario, "--grid", grid, "--out", str(out)]) == 0
    _, _, data = _read_csv(out)
    ref = closed_form(data[:, 0])
    assert np.max(np.abs(data[:, 1] / ref - 1.0)) <= 1e-10


def test_scan_point_without_plateau_exits_3(tmp_path, capsys):
    """A rate that never settles fails the whole scan; no CSV is written."""
    out = tmp_path / "scan.csv"
    rc = main(
        ["scan", "--scenario", "hamiltonian-1q", "--grid", "1e-12,1,2,3,4", "--fit",
         "--out", str(out)]
    )
    assert rc == 3
    assert "no plateau" in capsys.readouterr().err
    assert not out.exists()


def test_scan_without_plateau_emits_no_runtime_warning(tmp_path):
    """At R = 1e-12 the decade search ends in PlateauError (it does not
    accept the true plateau 0.5) without overflow in the propagation."""
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(
            ["scan", "--scenario", "hamiltonian-1q", "--grid", "1e-12,1,2,3",
             "--out", str(out)]
        )
    assert rc == 3
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_unresolved_slow_mode_exits_3(tmp_path, capsys):
    """At R = 1e6 the slow frequency 24/R^2 is lost in rounding."""
    out = tmp_path / "scan.csv"
    rc = main(
        ["scan", "--scenario", "hamiltonian-3q", "--grid", "30,100,1000,1e6",
         "--out", str(out)]
    )
    assert rc == 3
    assert "not resolved" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_file_returns_2(tmp_path):
    bad_version = tmp_path / "v9.json"
    bad_version.write_text(json.dumps({"schema_version": 9, "scenario": "markovian-1q"}))
    assert main(["simulate", "--config", str(bad_version)]) == 2

    unknown_field = tmp_path / "extra.json"
    unknown_field.write_text(json.dumps({"schema_version": 1, "turbo": True}))
    assert main(["simulate", "--config", str(unknown_field)]) == 2

    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


def test_numerical_failure_returns_3(monkeypatch):
    def boom(*args, **kwargs):
        raise IntegrationError("synthetic blow-up")

    monkeypatch.setattr("cqec.cli.cmd_simulate", boom)
    rc = main(["simulate", "--scenario", "markovian-1q", "--kappa", "1"])
    assert rc == 3


def test_fit_failure_returns_4(monkeypatch):
    def boom(*args, **kwargs):
        raise FitError("synthetic fit failure")

    monkeypatch.setattr("cqec.cli.cmd_scan", boom)
    rc = main(["scan", "--scenario", "markovian-1q", "--grid", "10,30,100,300"])
    assert rc == 4


# ---------------------------------------------------------------------------
# eig / graph / scan / fig
# ---------------------------------------------------------------------------


def test_eig_report(tmp_path):
    out = tmp_path / "eig.json"
    assert main(["eig", "--R", "100", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["entries"]) == 13
    assert report["all_bands_ok"] is True
    assert report["conjugation_closed"] is True
    moduli = [np.hypot(*e["numerical"]) for e in report["entries"]]
    assert sum(m < 1e-10 for m in moduli) == 1


def test_graph_report(tmp_path):
    out = tmp_path / "graph.json"
    assert main(["graph", "--R", "10", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    edges = payload["edges"]
    corr = [
        e
        for e in edges
        if e["from"] == "C100_100" and e["to"] == "C000_000"
        and e["source"] == "correction"
    ]
    assert len(corr) == 1
    assert corr[0]["rate_over_gamma"] == pytest.approx(30.0)


def test_scan_with_fit(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(
        [
            "scan", "--scenario", "markovian-1q", "--grid", "10,30,100,300",
            "--fit", "--out", str(out),
        ]
    )
    assert rc == 0
    config, header, data = _read_csv(out)
    assert header == ["rate", "equilibrium_infidelity"]
    assert data.shape == (4, 2)
    assert np.allclose(data[:, 0], [10.0, 30.0, 100.0, 300.0])
    fit = json.loads((tmp_path / "scan.csv.fit.json").read_text())
    assert fit["model"] == "power-law"
    assert -1.2 < fit["params"]["slope"] < -0.8
    assert "power-law slope" in capsys.readouterr().out


def test_fig1_datasets(tmp_path):
    figs = tmp_path / "figs"
    assert main(["fig", "1", "--out", str(figs)]) == 0
    for big_r in (1, 2, 5):
        assert (figs / f"fig1_R{big_r}.csv").exists()
    _, _, data = _read_csv(figs / "fig1_R1.csv")
    f = data[:, 1]
    interior = (f[1:-1] > f[:-2]) & (f[1:-1] > f[2:])
    assert int(interior.sum()) >= 2  # revival structure survives weak correction


def test_fig3_dataset(tmp_path):
    figs = tmp_path / "figs"
    assert main(["fig", "3", "--out", str(figs)]) == 0
    config, header, data = _read_csv(figs / "fig3_R100.csv")
    assert config["engine"] == "reduced"
    assert len(header) == 17
    assert data.shape == (3001, 17)
    # slow coherent decay: first minimum near gamma t = pi R^2 / 24
    i = int(np.argmin(data[:, 1]))
    assert data[i, 1] == pytest.approx(0.086, abs=1e-3)
    assert data[i, 0] == pytest.approx(np.pi * 100.0**2 / 24.0, rel=0.02)


def _run_python(*args):
    """A fresh interpreter with this checkout's `src` first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env
    )


def test_entry_point_runs_as_module():
    proc = _run_python("-m", "cqec.cli", "eig", "--R", "100", "--out", "-")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["all_bands_ok"] is True


def test_import_loads_no_scipy():
    """scipy is imported only by the fits and the ill-conditioned fallback
    of propagate_linear, never by `import cqec.cli`."""
    proc = _run_python(
        "-c",
        "import sys, cqec.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
