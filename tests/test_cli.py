import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cqec import dynamics, reduced_model
from cqec.cli import ENGINES, ConfigError, ExperimentConfig, _class_columns, _run_trajectory, main
from cqec.codes_and_maps import SCENARIOS, apply_recovery
from cqec.closed_forms import alpha_markov_1q, alpha_nonmarkov_1q, markov3q_exact_leak
from cqec.reduced_model import LABELS
from cqec.dynamics import IntegrationError, PositivityWarning
from cqec.analysis import FitError, fidelity_weight_series, observables


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
    assert config["schema_version"] == 2
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
                "schema_version": 2,
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
            "--t-max", "0", "--samples", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    _, header, data = _read_csv(out)
    assert data.shape == (1, 4)
    assert data[0, 0] == 0.0 and data[0, 1] == 1.0


@pytest.mark.parametrize("engine", ["full", "weak-step", "monte-carlo"])
def test_simulate_two_samples_give_the_one_sided_rate(engine, tmp_path):
    """Two rows, at t = 0 and t_max, both carry Lambda = -(F_1 - F_0)/t_max.
    Uncorrected, F_cw = cos^2(gamma t)."""
    out = tmp_path / "two.csv"
    argv = ["simulate", "--engine", engine, "--samples", "2", "--t-max", "1", "--n-traj", "5",
            "--out", str(out)]
    assert main(argv) == 0
    _, _, data = _read_csv(out)
    assert np.array_equal(data[:, 0], [0.0, 1.0])
    assert np.max(np.abs(data[:, 1] - [1.0, np.cos(1.0) ** 2])) <= 1e-12
    assert np.array_equal(data[:, 3], [data[0, 1] - data[1, 1]] * 2)


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


def _reduced_config(big_r, t_max, samples):
    return ExperimentConfig(scenario="hamiltonian-3q", engine="reduced", gamma=1.0,
                            kappa=float(big_r), t_max=float(t_max), samples=samples)


@pytest.mark.parametrize("big_r, t_max, samples", [(100, 3000, 3001), (10, 20, 201), (4, 5, 51)])
def test_reduced_engine_gives_coordinates_on_the_class_states(big_r, t_max, samples):
    """The reduced engine's run is the full run on the shared class states,
    and its 13 columns are that run's coordinates over the class norms:
    F_cw and P_cs read from the run are C000_000 and C000_000 + C111_111 to
    rounding, the columns match the class projection of its states
    (``class_coefficients``), and its states are those that the class
    states build from the columns."""
    traj = _run_trajectory(_reduced_config(big_r, t_max, samples))
    assert traj.basis is reduced_model.class_basis()
    c = _class_columns(traj)
    assert c.shape == (samples, 13)
    f, p = fidelity_weight_series(traj, SCENARIOS["hamiltonian-3q"].code())
    assert np.max(np.abs(f - c[:, 0])) <= 1e-15
    assert np.max(np.abs(p - (c[:, 0] + c[:, 12]))) <= 1e-15
    projected = reduced_model.class_coefficients(traj.coords, traj.basis)
    assert np.max(np.abs(projected - c)) <= 1e-15
    for i in np.linspace(0, samples - 1, 6).astype(int):
        expanded = (reduced_model.class_basis() @ (reduced_model.CLASS_NORMS * c[i]))
        assert np.max(np.abs(traj.states[i] - expanded.reshape(64, 64))) <= 1e-15


def test_reduced_engine_refuses_a_run_off_the_class_states(monkeypatch, tmp_path, capsys):
    """The reduced engine's columns are coordinates on the class states: a
    run on any other basis (here the Krylov basis, forced) exits 3 and
    writes no columns."""
    monkeypatch.setattr("cqec.reduced_model.class_restriction", lambda *args: None)
    out = tmp_path / "run.csv"
    assert main(_reduced_argv("10", "1", out)) == 3
    assert capsys.readouterr().err.strip() == (
        "numerical failure: the reduced engine's run is not on the class states")
    assert not out.exists()


def test_fig3_case_peaks_under_4_mb():
    """The fig-3 run (reduced engine, R = 100, 3001 samples) with its
    observables, including the class basis it builds, never holds the
    (3001, 64, 64) state stack (197 MB)."""
    tracemalloc.start()
    try:
        traj = _run_trajectory(_reduced_config(100, 3000, 3001))
        observables(traj, SCENARIOS["hamiltonian-3q"].code())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "states" not in vars(traj)
    assert peak < 4e6


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


def test_simulate_monte_carlo_seeds_above_2_63(tmp_path):
    """Seeds 2**63 and 2**63 + 1 give different samples, and 2**64 - 1 runs
    with no cast warning (an error under the suite's RuntimeWarning filter)
    and gives samples other than seed 0's."""
    args = [
        "simulate", "--scenario", "hamiltonian-1q", "--engine", "monte-carlo",
        "--R", "2", "--t-max", "1", "--samples", "5", "--n-traj", "20",
    ]
    data = {}
    for seed in (0, 2**63, 2**63 + 1, 2**64 - 1):
        out = tmp_path / f"mc_{seed}.csv"
        assert main(args + ["--seed", str(seed), "--out", str(out)]) == 0
        config, _, data[seed] = _read_csv(out)
        assert config["seed"] == seed
    assert not np.array_equal(data[2**63], data[2**63 + 1])
    assert not np.array_equal(data[2**64 - 1], data[0])


def test_simulate_cross_validate(tmp_path, capsys):
    """Every sample of the run on the class tables and of the Krylov run
    (all 6, all 201) is read as class coefficients, and they agree."""
    out = tmp_path / "xval.csv"
    for big_r, t_max, samples in (("4", "0.5", "6"), ("10", "20", "201")):
        rc = main(["simulate", "--scenario", "hamiltonian-3q", "--R", big_r, "--t-max", t_max,
                   "--samples", samples, "--cross-validate", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        dev = float(re.fullmatch(r"cross-validate: max coefficient deviation (\S+)\n", err)[1])
        assert dev <= 1e-9


def test_cross_validate_runs_each_engine_once(monkeypatch, tmp_path, capsys):
    """The trajectory of the engine that was asked for is the one compared
    where it is the run on the class tables (full, reduced): the table run
    (k = 13) and the Krylov run (k = 9) take place once each, whichever
    engine was asked for, and the deviation line is the same."""
    calls = {}

    def counted(name, engine):
        def wrapper(*args, **kwargs):
            traj = engine(*args, **kwargs)
            calls.setdefault(name, []).append(traj.basis.shape[1])
            return traj
        return wrapper

    monkeypatch.setattr("cqec.cli.integrate", counted("table", dynamics.integrate))
    monkeypatch.setattr("cqec.cli.integrate_krylov", counted("krylov", dynamics.integrate_krylov))
    lines = set()
    for engine in ("full", "reduced", "monte-carlo"):
        calls.clear()
        argv = ["simulate", "--scenario", "hamiltonian-3q", "--engine", engine, "--R", "10",
                "--t-max", "1", "--n-traj", "20", "--cross-validate",
                "--out", str(tmp_path / f"{engine}.csv")]
        assert main(argv) == 0
        assert calls == {"table": [13], "krylov": [9]}, engine
        lines.add(capsys.readouterr().err)
    assert len(lines) == 1
    assert re.fullmatch(r"cross-validate: max coefficient deviation \S+\n", lines.pop())


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
    """The full engine's propagation of the matrix-free hamiltonian-3q
    generator gives the F_cw and P_cs of the 13x13 reduced model to 1e-13."""
    args = ["simulate", "--scenario", "hamiltonian-3q", "--R", "10", "--t-max", "5"]
    full, reduced = tmp_path / "full.csv", tmp_path / "reduced.csv"
    assert main(args + ["--out", str(full)]) == 0
    assert main(args + ["--engine", "reduced", "--out", str(reduced)]) == 0
    _, _, a = _read_csv(full)
    _, _, b = _read_csv(reduced)
    assert a.shape == (201, 4) and b.shape == (201, 17)
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.max(np.abs(a[:, 1:3] - b[:, 1:3])) <= 1e-13


def test_fixed_rk4_method_is_gone():
    """simulate has one propagation path: the integrator flags are unknown."""
    for flag, value in (("--method", "spectral"), ("--rtol", "1e-9"), ("--atol", "1e-12")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "markovian-1q", flag, value])
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
        ("hamiltonian-1q", "1e-12,1e-6,1e-3,1", lambda r: 2.0 / (4.0 + r**2)),
        ("hamiltonian-1q", "1e13,1e14,1e15,1e16", lambda r: 2.0 / (4.0 + r**2)),
        ("markovian-3q", "1e-12,1e-3,1e3,1e7", lambda r: 3.0 / (4.0 + r)),
    ],
    ids=["markovian-1q", "hamiltonian-1q", "hamiltonian-1q-small", "hamiltonian-1q-huge",
         "markovian-3q"],
)
def test_scan_at_large_rates_matches_closed_form(tmp_path, scenario, grid, closed_form):
    """The stationary solve needs no horizon, so it holds at tiny rates, and
    it keeps its relative precision when the infidelity is tiny, because
    1 - P_cs is summed over the weight outside the code space."""
    out = tmp_path / "scan.csv"
    assert main(["scan", "--scenario", scenario, "--grid", grid, "--out", str(out)]) == 0
    _, _, data = _read_csv(out)
    ref = closed_form(data[:, 0])
    assert np.max(np.abs(data[:, 1] / ref - 1.0)) <= 1e-10


def test_scan_without_unique_stationary_state_exits_3(monkeypatch, tmp_path, capsys):
    """A generator whose restriction has no unique stationary state (here a
    trace-free nilpotent map, tr(rho) |0><1|) fails the scan with exit 3 and
    no CSV."""
    unit = np.zeros((4, 4))
    unit[0, 1] = 1.0
    generator = SimpleNamespace(noise=lambda r: np.trace(r) * unit,
                                correction=lambda r: np.trace(r) * unit)
    monkeypatch.setattr("cqec.analysis.total_generator", lambda scenario, params: generator)
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--scenario", "hamiltonian-1q", "--grid", "1,2,3,4", "--out", str(out)])
    assert rc == 3
    assert "no unique stationary state for hamiltonian-1q at rate 1" in capsys.readouterr().err
    assert not out.exists()


def test_unresolved_slow_mode_exits_3(tmp_path, capsys):
    """At R = 1e6 the slow frequency 24/R^2 is lost in rounding; from R ~
    1e16 no eigenvalue is above the oscillation threshold, and at 1e308 the
    matrix overflows."""
    for grid in ("30,100,1000,1e6", "1e16,1e17,1e18,1e19", "1e308,1e308,1e308,1e308"):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--scenario", "hamiltonian-3q", "--grid", grid, "--out", str(out)])
        assert rc == 3, grid
        assert "not resolved" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--scenario", "hamiltonian-1q", "--gamma", "1e160", "--R", "1"],
    # the full engine reads hamiltonian-3q's restriction from the tables too
    ["--scenario", "hamiltonian-3q", "--gamma", "1.5e308", "--R", "1"],
    ["--scenario", "hamiltonian-1q", "--gamma", "1e160", "--R", "1",
     "--engine", "monte-carlo", "--n-traj", "10"],
    # Monte Carlo reads hamiltonian-3q's restriction from the reduced model's
    # tables, gamma times entries up to 2.45, which overflow only from ~7e307
    ["--scenario", "hamiltonian-3q", "--gamma", "1.5e308", "--R", "1",
     "--engine", "monte-carlo", "--n-traj", "10"],
    ["--scenario", "markovian-1q", "--lambda", "1e300", "--kappa", "1e300"],
    # kappa times the restriction is finite, but the propagation's products
    # with it overflow: h g h in the trace's reflection, or 0/0 in the split
    ["--scenario", "markovian-1q", "--kappa", "1.5e308"],
    ["--scenario", "hamiltonian-1q", "--R", "1.5e308"],
    ["--scenario", "markovian-3q", "--lambda", "2", "--kappa", "1e308"],
    # a solve of the split returns inf from finite inputs, inside numpy.linalg,
    # which keeps its own errstate
    ["--scenario", "markovian-3q", "--kappa", "8.357077269294065e+307"],
    ["--scenario", "markovian-3q", "--kappa", "9.488280603019884e+307"],
], ids=["full-1q", "full-3q", "monte-carlo-1q", "monte-carlo-3q", "markovian-1q",
        "markovian-1q-propagation", "hamiltonian-1q-propagation", "markovian-3q-propagation",
        "markovian-3q-solve-8.4e307", "markovian-3q-solve-9.5e307"])
def test_rates_beyond_double_precision_exit_3(tmp_path, capsys, argv):
    """Rates whose square overflows (for hamiltonian-3q, whose engines read
    the tables, their product with the tables) cannot be restricted, and
    rates whose products in the propagation overflow cannot be propagated:
    the run exits 3 with a message and writes no CSV, rather than a state
    that never moves (F_cw = 1 at every sample), a numpy warning, a
    traceback or a trace of nan."""
    out = tmp_path / "run.csv"
    rc = main(["simulate", *argv, "--t-max", "1", "--samples", "3", "--out", str(out)])
    assert rc == 3
    assert "rates beyond double precision" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--R", "1e308"],
    ["--gamma", "1e-300", "--kappa", "1e10"],
], ids=["reduced-R", "reduced-kappa-over-gamma"])
def test_reduced_engine_keeps_unit_fidelity_at_vast_rates(tmp_path, argv):
    """The reduced engine is the full run on the class tables, which keeps
    kappa apart from the tables: at R = 1e308, and at R = kappa/gamma =
    1e310 (beyond the largest double), it exits 0 as the full engine does,
    with F_cw within 1e-12 of 1 at every sample (1 - F_cw ~ 6/R^2)."""
    out = tmp_path / "run.csv"
    assert main(["simulate", "--scenario", "hamiltonian-3q", "--engine", "reduced", *argv,
                 "--t-max", "1", "--samples", "3", "--out", str(out)]) == 0
    assert np.max(np.abs(_read_csv(out)[2][:, 1] - 1.0)) <= 1e-12


@pytest.mark.parametrize("gamma, cycles", [("1e-160", "1e+163"), ("1e-16", "1e+19")])
def test_weak_step_power_beyond_double_precision_exits_3(tmp_path, capsys, gamma, cycles):
    """Vast cycle counts compound the one-cycle map's rounding past the
    largest double: the run exits 3 naming the cycle count, with no numpy
    warning and no CSV, rather than a trace that reads nan.  At gamma = 1e-16
    the samples lie past 2**63 cycles, beyond numpy's int64."""
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--scenario", "hamiltonian-3q", "--engine", "weak-step",
               "--gamma", gamma, "--R", "10", "--t-max", "1", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{cycles} cycles of the one-cycle map are beyond double precision" in err
    assert not out.exists()


def _rows_at_gammas(tmp_path, argv, gammas):
    """{gamma: CSV rows} of ``simulate`` with ``argv`` at each gamma, to
    gamma t = 1 in 3 samples; every run must exit 0."""
    rows = {}
    for gamma in gammas:
        out = tmp_path / f"g{gamma}.csv"
        assert main(["simulate", *argv, "--gamma", gamma, "--t-max", "1", "--samples", "3",
                     "--out", str(out)]) == 0
        rows[gamma] = _read_csv(out)[2]
    return rows


def test_large_rates_give_the_unit_rate_curve(tmp_path):
    """Below the overflow, a run at gamma = 1e150 writes the gamma = 1 curve
    in dimensionless time, F_cw = 0.6057 at gamma t = 1 for R = 1;
    hamiltonian-3q's Monte Carlo at gamma = 1e160 writes the same seed's
    gamma = 1 curve, and its full engine, on the tables as well, the
    gamma = 1 curve."""
    rows = _rows_at_gammas(tmp_path, ["--scenario", "hamiltonian-1q", "--R", "1"],
                           ["1", "1e150"])
    assert np.max(np.abs(rows["1e150"][:, :3] - rows["1"][:, :3])) <= 1e-12
    assert rows["1e150"][-1, 1] == pytest.approx(alpha_nonmarkov_1q(1.0, 1.0, 1.0), abs=1e-12)

    rows = _rows_at_gammas(tmp_path, ["--scenario", "hamiltonian-3q", "--R", "10",
                                      "--engine", "monte-carlo", "--n-traj", "10"],
                           ["1", "1e160"])
    assert np.max(np.abs(rows["1e160"][:, :3] - rows["1"][:, :3])) <= 1e-12

    rows = _rows_at_gammas(tmp_path, ["--scenario", "hamiltonian-3q", "--R", "10"],
                           ["1", "1e160"])
    assert np.max(np.abs(rows["1e160"][:, :3] - rows["1"][:, :3])) <= 1e-12


def test_rate_past_the_block_norm_overflow_gives_the_unit_rate_curve(tmp_path):
    """At gamma = 4.2e153 the square of a 3 x 3 block's norm of gamma times
    the maps would overflow, but the restriction of the rate-free maps takes
    no such norm: hamiltonian-1q's full engine exits 0 and writes the
    gamma = 1 curve, F_cw = 0.6057 at gamma t = 1 for R = 1."""
    rows = _rows_at_gammas(tmp_path, ["--scenario", "hamiltonian-1q", "--R", "1"],
                           ["1", "4.2e153"])
    assert np.max(np.abs(rows["4.2e153"][:, :3] - rows["1"][:, :3])) <= 1e-12
    assert rows["4.2e153"][-1, 1] == pytest.approx(alpha_nonmarkov_1q(1.0, 1.0, 1.0), abs=1e-12)


def test_small_rates_give_the_unit_rate_curve(tmp_path):
    """Above the underflow, the full engine at gamma = 1e-140 and 1e-150
    writes the gamma = 1 curve, for one qubit and for three."""
    for scenario in ("hamiltonian-1q", "hamiltonian-3q"):
        rows = _rows_at_gammas(tmp_path, ["--scenario", scenario, "--R", "1"],
                               ["1", "1e-140", "1e-150"])
        for gamma in ("1e-140", "1e-150"):
            assert np.max(np.abs(rows[gamma][:, :3] - rows["1"][:, :3])) <= 1e-12


@pytest.mark.parametrize("argv", [
    ["--scenario", "hamiltonian-1q", "--gamma", "1e-300", "--R", "1"],
    ["--scenario", "hamiltonian-1q", "--gamma", "1e-160", "--R", "1"],
    ["--scenario", "markovian-1q", "--lambda", "1e-300", "--kappa", "1e-300"],
    ["--scenario", "hamiltonian-1q", "--gamma", "1e-160", "--R", "1",
     "--engine", "monte-carlo", "--n-traj", "10"],
], ids=["full-1q-1e-300", "full-1q-1e-160", "markovian-1q", "monte-carlo-1q"])
def test_rates_below_double_precision_exit_3(tmp_path, argv):
    """Rates whose images have subnormal squares cannot be restricted: the
    run exits 3 with a message and writes no CSV, rather than F_cw = 1 at
    every sample (1e-300, where the norms read 0), a curve off in the 6th
    digit (1e-160), or a Monte Carlo run that never returns (Gram-Schmidt
    on such norms adds a direction for every image).  Each run is a fresh
    interpreter under a timeout."""
    out = tmp_path / "run.csv"
    proc = _run_python("-m", "cqec.cli", "simulate", *argv, "--t-max", "1", "--samples", "3",
                       "--out", str(out), timeout=60)
    assert proc.returncode == 3
    assert "rates below double precision" in proc.stderr
    assert not out.exists()


# a state dipping below -1e-8 warns, as the command does on stderr with exit 0
@pytest.mark.filterwarnings("ignore::cqec.dynamics.PositivityWarning")
@pytest.mark.parametrize("rate", [f"{m}e{e}" for e in range(6, 14) for m in (1, 3)])
@pytest.mark.parametrize("scenario, engine", [
    *[pytest.param(scenario, "full", id=scenario) for scenario in sorted(SCENARIOS)],
    pytest.param("hamiltonian-3q", "reduced", id="hamiltonian-3q-reduced"),
])
def test_simulate_at_large_rates_exits_0_or_3(scenario, engine, rate, tmp_path):
    """Over rates 1e6 ... 3e13 every scenario's default engine, and the
    reduced engine, resolves the run (exit 0) or refuses it (exit 3, no
    CSV), never with a traceback.  At exit 0 the values hold where a closed
    form gives them.  A slow rate with an error of the size eps r of the
    fast ones would move them by up to eps r at lambda t = 1 (6.7e-3 at
    r = 3e13); the split over the kernel of the correction leaves a few
    ulps: markovian-3q's P_cs within 3 eps of 1 - markov3q_exact_leak
    (eps r relative to the leak ~3/r; measured at most 1.1 eps), and
    markovian-1q's and hamiltonian-1q's F_cw within 4 eps of
    alpha_markov_1q and alpha_nonmarkov_1q (measured at most 2 eps)."""
    flag = "--kappa" if SCENARIOS[scenario].time_unit == "lambda" else "--R"
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--scenario", scenario, "--engine", engine, flag, rate,
               "--t-max", "1", "--samples", "3", "--out", str(out)])
    assert rc in (0, 3)
    assert out.exists() == (rc == 0)
    if rc == 0:
        data = _read_csv(out)[2]
        eps, t, r = np.finfo(float).eps, data[:, 0], float(rate)
        if scenario == "markovian-3q":
            assert np.max(np.abs(data[:, 2] - (1.0 - markov3q_exact_leak(t, 1.0, r)))) <= 3 * eps
        elif scenario != "hamiltonian-3q":
            closed = alpha_markov_1q if scenario == "markovian-1q" else alpha_nonmarkov_1q
            assert np.max(np.abs(data[:, 1] - closed(t, 1.0, r))) <= 4 * eps


def test_bad_config_file_returns_2(tmp_path, capsys):
    bad_version = tmp_path / "v9.json"
    bad_version.write_text(json.dumps({"schema_version": 9, "scenario": "markovian-1q"}))
    assert main(["simulate", "--config", str(bad_version)]) == 2

    unknown_field = tmp_path / "extra.json"
    unknown_field.write_text(json.dumps({"schema_version": 2, "turbo": True}))
    assert main(["simulate", "--config", str(unknown_field)]) == 2

    # version 1 had the integrator fields; its files are refused by their version
    version_1 = "unsupported schema_version 1 (expected 2)"
    for loaded, error in (
        ({"schema_version": 1}, version_1),
        ({"schema_version": 1, "method": "spectral"}, version_1),
        ({"schema_version": 2, "method": "spectral"}, "unknown config fields: ['method']"),
        ({"schema_version": 2, "rtol": 1e-9, "atol": 1e-12},
         "unknown config fields: ['atol', 'rtol']"),
    ):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"scenario": "markovian-1q", **loaded}))
        capsys.readouterr()
        assert main(["simulate", "--config", str(old)]) == 2
        assert f"config error: {error}" in capsys.readouterr().err

    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2

    # scan reads the scenario from the config file; a non-string one is unknown
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({"schema_version": 2, "scenario": ["x"]}))
    capsys.readouterr()
    assert main(["scan", "--config", str(listed), "--grid", "1,2,3,4"]) == 2
    assert "config error: unknown scenario ['x']" in capsys.readouterr().err


@pytest.mark.parametrize("loaded, flags, message", [
    ({"samples": 2.5}, [], "samples must be an integer, got 2.5"),
    ({"samples": 1}, [], "samples must be >= 2 when t_max > 0"),
    ({"seed": True}, [], "seed must be an integer, got True"),
    ({"seed": -1}, [], "seed must lie in [0, 2**64), got -1"),
    ({"seed": 2**64}, ["--engine", "monte-carlo"],
     "seed must lie in [0, 2**64), got 18446744073709551616"),
    ({"n_traj": "10"}, [], "n_traj must be an integer, got '10'"),
    ({"t_max": True}, [], "t_max must be a number, got True"),
    ({"t_max": "x"}, [], "t_max must be a number, got 'x'"),
    ({"kappa": None}, [], "kappa must be a number, got None"),
    ({"gamma": "x"}, ["--R", "2"], "gamma must be a number, got 'x'"),
    ({"scenario": ["hamiltonian-1q"]}, ["--R", "2"], "unknown scenario ['hamiltonian-1q']"),
    ({"n_traj": 2}, ["--engine", "monte-carlo", "--R", "1e15", "--t-max", "1"],
     "monte-carlo expects kappa t = 1e+15 jumps per trajectory, more than the 262144 array"),
    ({"gamma": -1}, ["--scenario", "markovian-1q"], "gamma must be >= 0"),
    # allocation fails (711 PiB) before any memory is touched
    ({"samples": 10**17}, [],
     "samples = 100000000000000000: the run does not fit in memory (Unable to allocate"),
    ({"samples": 2**62}, [], "samples must be <= 1152921504606846975, got 4611686018427387904"),
    ({"tau_c": 5e-324}, ["--engine", "weak-step", "--R", "1", "--t-max", "1"],
     "weak-step horizon 1 is inf cycles of tau_c = 4.94066e-324"),
], ids=["samples-float", "samples-1", "seed-bool", "seed-negative", "seed-2**64",
        "n_traj-str", "t_max-bool", "t_max-str", "kappa-null", "gamma-str-with-R",
        "scenario-list-with-R", "monte-carlo-jumps", "gamma-negative-markovian",
        "samples-1e17", "samples-2**62", "tau_c-subnormal"])
def test_config_file_field_types_exit_2(loaded, flags, message, tmp_path, capsys):
    """A config file value of the wrong type or out of range is a config
    error naming the field, also where --R reads it before the config is
    built: no traceback, and no bool taken for a number."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 2, "samples": 3, **loaded}))
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(path), *flags, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_monte_carlo_jumps_bound_is_one_chunk():
    """kappa t = MC_CHUNK_ENTRIES = 2**18 expected jumps per trajectory is
    accepted and the next float above it refused.  Only the configs are
    built; no run starts."""
    assert dynamics.MC_CHUNK_ENTRIES == 2**18
    ExperimentConfig(engine="monte-carlo", kappa=1.0, t_max=2.0**18)
    with pytest.raises(ConfigError, match="jumps per trajectory, more than the 262144"):
        ExperimentConfig(engine="monte-carlo", kappa=1.0, t_max=np.nextafter(2.0**18, np.inf))


@pytest.mark.parametrize("argv, path, reason", [
    (["simulate", "--t-max", "1", "--samples", "3", "--out"], "missing/x.csv",
     "No such file or directory"),
    (["eig", "--R", "100", "--out"], "missing/e.json", "No such file or directory"),
    (["scan", "--scenario", "markovian-1q", "--grid", "1,2,3,4", "--out"], "missing/s.csv",
     "No such file or directory"),
    (["graph", "--R", "100", "--out"], "missing/g.json", "No such file or directory"),
    (["fig", "4", "--out"], "a_file", "File exists"),
    (["fig", "1", "--out"], "a_file/figs", "Not a directory"),
], ids=["simulate", "eig", "scan", "graph", "fig-onto-a-file", "fig-through-a-file"])
def test_unusable_output_path_exits_2(argv, path, reason, tmp_path, capsys):
    """An output file that cannot be opened, or an output directory that
    cannot be made, is a config error naming the path: no traceback."""
    (tmp_path / "a_file").write_text("")
    out = str(tmp_path / path)
    assert main([*argv, out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and out in err and reason in err


@pytest.mark.parametrize("argv, message", [
    (["--t-max", "5e-324"], "3 sample times in [0, 4.94066e-324] are not distinct"),
    (["--scenario", "hamiltonian-3q", "--engine", "reduced", "--gamma", "5e-324", "--R", "0"],
     "3 sample times in [0, inf] are not distinct and finite"),
    (["--t-max", "1e308"], "trace deviates by nan"),
    (["--t-max", "1e308", "--engine", "monte-carlo", "--R", "0", "--n-traj", "2"],
     "trace deviates by"),
], ids=["full-subnormal-horizon", "reduced-infinite-horizon", "full-phase-overflow",
        "monte-carlo-phase-overflow"])
def test_horizons_beyond_double_precision_exit_3(argv, message, tmp_path, capsys):
    """A horizon that double precision cannot split into distinct, finite
    sample times, or whose phases w t overflow, is a numerical failure:
    exit 3 with no numpy warning and no CSV."""
    out = tmp_path / "run.csv"
    assert main(["simulate", "--samples", "3", *argv, "--out", str(out)]) == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err
    assert not out.exists()


# valid values of each config field, then values that may fail: edge numbers,
# the NaN and Infinity tokens that json.loads accepts, and wrong types
_FUZZ_VALID = {
    "scenario": sorted(SCENARIOS), "engine": ENGINES, "code": [""],
    "lam": [1, 0.5, 2.0], "gamma": [1, 0.5, 2.0], "kappa": [0, 1, 10.0],
    "t_max": [0, 0.5, 2], "tau_c": [1e-3], "samples": [2, 3, 11],
    "seed": [0, 7, 2**64 - 1], "n_traj": [1, 3],
}
_FUZZ_EDGES = [0, -1, 5e-324, 1e-300, 1e308, 2**64, float("nan"), float("inf"),
               float("-inf"), None, True, "x", [1.0]]
_FUZZ_ODD = {field: _FUZZ_EDGES for field in _FUZZ_VALID}
_FUZZ_ODD["samples"] = [1, 10**17, 2**62, 2**63, 2.5, *_FUZZ_EDGES]  # 10**17 and up fail fast
_FUZZ_ODD["tau_c"] = [0.5, 7e-4, *_FUZZ_EDGES]
_FUZZ_ODD["code"] = ["trivial", "bitflip3", "bogus", *_FUZZ_EDGES]
_FUZZ_ODD["scenario"] = ["bogus", *_FUZZ_EDGES]
_FUZZ_ODD["engine"] = ["rk4", *_FUZZ_EDGES]
_FUZZ_ODD["schema_version"] = [1, 2.0, None, "2"]
# a valid 2**64 trajectories would run for ages: run time grows with n_traj
_FUZZ_ODD["n_traj"] = [value for value in _FUZZ_EDGES if value != 2**64]


@st.composite
def _config_files(draw):
    """A config object of schema_version 2, each field valid or absent, then
    one or two fields set to an odd value, or (as one more odd field) a JSON
    document that is not an object."""
    loaded = {"schema_version": 2}
    for field, values in _FUZZ_VALID.items():
        value = draw(st.sampled_from([*values, "absent"]))
        if value != "absent":
            loaded[field] = value
    for field in draw(st.lists(st.sampled_from([*sorted(_FUZZ_ODD), "document"]), min_size=1,
                               max_size=2, unique=True)):
        if field == "document":
            return draw(st.sampled_from([[], None, 2, "x"]))
        loaded[field] = draw(st.sampled_from(_FUZZ_ODD[field]))
    return loaded


@given(command=st.sampled_from(["simulate", "scan"]), loaded=_config_files())
@settings(max_examples=300, deadline=None)
# kappa = 1e308 overflowed in the propagation of markovian-3q with numpy warnings
@example(command="simulate", loaded={"schema_version": 2, "scenario": "markovian-3q", "lam": 2,
                                     "kappa": 1e308})
def test_fuzzed_config_files_exit_0_2_3_or_4(command, loaded):
    """`simulate --config` and `scan --config` on a config file whose fields
    are drawn from valid values, wrong types (null, true, strings, lists),
    the NaN and Infinity tokens that json.loads accepts, and edge numbers
    (5e-324, 1e308, 2**64) exit 0, 2, 3 or 4: never 1, and never raise.
    The sample counts 1e17, 2**62 and 2**63 are drawn, because they fail
    fast (at allocation, before any memory is touched, or on the bound of
    samples); counts that would allocate gigabytes and then run are left
    out.  n_traj and the horizons stay
    small, because run time grows with them (that is not a fault)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(loaded))  # NaN, Infinity and -Infinity as tokens
        out = str(Path(tmp) / "run.csv")
        argv = ["--grid", "10,30,100,300"] if command == "scan" else []
        assert main([command, "--config", str(path), *argv, "--out", out]) in (0, 2, 3, 4)


# values of the numeric flags of eig, scan and graph: valid rates, edge
# numbers, the words float() reads as nan and inf, and text it refuses
_FLAG_NUMBERS = ["1", "100", "0.5", "0", "-1", "5e-324", "1e-300", "1e-102", "1e5", "1e16",
                 "1e154", "1e308", "1e400", "nan", "inf", "-inf", "x", "", "1,2"]


@st.composite
def _command_lines(draw):
    """An argument list of ``eig``, ``scan``, ``graph`` or ``fig``, each flag
    absent, valid or odd.  scan grids have at most 6 rates, so a run stays
    short; ``{cfg}`` stands for a config file naming a scenario and
    ``{missing}`` for a path that does not exist."""
    command = draw(st.sampled_from(["fig", "graph", "eig", "scan"]))
    # a valid rate half of the time, so that the other flags are reached too
    number = st.one_of(st.sampled_from(["3", "30", "100", "1000"]), st.sampled_from(_FLAG_NUMBERS))
    if command == "fig":
        return ["fig", draw(st.sampled_from(["1", "3", "4", "0", "2", "-1", "x", "1e0"]))]
    argv = [command]
    flags = {"eig": ["--R", "--kappa", "--gamma"], "graph": ["--R"], "scan": []}[command]
    for flag in flags:
        if draw(st.booleans()):
            argv += [flag, draw(number)]
    if command == "scan":
        scenario = draw(st.sampled_from([*sorted(SCENARIOS), "bogus", "absent", "{cfg}",
                                         "{missing}"]))
        if scenario in ("{cfg}", "{missing}"):
            argv += ["--config", scenario]
        elif scenario != "absent":
            argv += ["--scenario", scenario]
        argv += ["--grid", ",".join(draw(st.lists(number, min_size=3, max_size=6)))]
        if draw(st.booleans()):
            argv.append("--fit")
    return argv


@given(argv=_command_lines(), scenario=st.sampled_from([*sorted(SCENARIOS), "bogus", 5, None]))
@settings(max_examples=300, deadline=None)
# a grid of one distinct rate: the fit's standard error was nan, with a warning
@example(argv=["scan", "--scenario", "hamiltonian-1q", "--grid", "1000,1000,1000,1000,1000",
               "--fit"], scenario="hamiltonian-1q")
def test_fuzzed_command_flags_exit_0_2_3_or_4(argv, scenario):
    """The flags of eig, scan and graph, and the fig ids, drawn as in
    ``_command_lines``: every command line exits 0, 2 (argparse's usage
    errors included), 3 or 4, and none raises."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"schema_version": 2, "scenario": scenario}))
        paths = {"{cfg}": str(cfg), "{missing}": str(Path(tmp) / "missing.json")}
        argv = [paths.get(arg, arg) for arg in argv]
        out = Path(tmp) / ("figs" if argv[0] == "fig" else "out")
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        assert code in (0, 2, 3, 4)


def test_numerical_failure_returns_3(monkeypatch):
    def boom(*args, **kwargs):
        raise IntegrationError("synthetic blow-up")

    monkeypatch.setattr("cqec.cli.cmd_simulate", boom)
    rc = main(["simulate", "--scenario", "markovian-1q", "--kappa", "1"])
    assert rc == 3


@pytest.mark.parametrize("field, argv", [
    ("t_max", ["--t-max", "nan"]),
    ("gamma", ["--gamma", "nan", "--R", "1"]),
    ("lam", ["--scenario", "markovian-1q", "--lambda", "nan"]),
    ("kappa", ["--R", "nan"]),
    ("tau_c", ["--engine", "weak-step", "--tau-c", "inf"]),
])
def test_simulate_rejects_non_finite_values(field, argv, tmp_path, capsys):
    """A value that is not finite is a config error; none reaches the
    `# config:` line, where it would be invalid JSON."""
    out = tmp_path / "run.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    assert f"config error: {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("engine", ["weak-step", "monte-carlo"])
def test_discrete_engine_check_failure_returns_3(engine, monkeypatch, tmp_path, capsys):
    """A recovery that gains trace fails the sample check of the weak map and
    of Monte Carlo as it fails that of integrate: exit 3, no output."""
    monkeypatch.setattr("cqec.codes_and_maps.apply_recovery",
                        lambda code, rho, db: 1.01 * apply_recovery(code, rho, db))
    out = tmp_path / "run.csv"
    argv = ["simulate", "--engine", engine, "--R", "5", "--t-max", "1", "--samples", "11",
            "--n-traj", "50", "--out", str(out)]
    assert main(argv) == 3
    assert "numerical failure: trace deviates by" in capsys.readouterr().err
    assert not out.exists()


def _reduced_argv(big_r, t_max, out):
    return ["simulate", "--scenario", "hamiltonian-3q", "--engine", "reduced", "--R", big_r,
            "--t-max", t_max, "--samples", "11", "--out", str(out)]


@pytest.mark.parametrize("big_r, t_max, extra, f_cw", [
    # F_cw from a 60-digit mpmath.expm of build_reduced_matrix(3e4, 1)
    ("3e4", "1.18e8", [], 3.20999636438318e-4),
    ("3e4", "1.18e8", ["--engine", "full", "--cross-validate"], 3.20999636438318e-4),
    # 1 - F_cw ~ 6/R^2 at gamma t = 10
    ("1e50", "10", [], 1.0),
], ids=["slow-horizon", "slow-horizon-cross-validate", "R-1e50"])
def test_reduced_engine_resolves_slow_horizons_and_vast_R(big_r, t_max, extra, f_cw, tmp_path,
                                                          capsys):
    """The reduced engine is the full run on the class tables, on its
    slow/fast split: it exits 0 where the plain eig of M(R) refused (its
    trace drifted past 1e-8 at R = 3e4, gamma t = 1.18e8, and its eigenbasis
    was singular at R = 1e50), with F_cw within 1e-10 of the exact value,
    and under --cross-validate the Krylov run agrees with it within 1e-6
    (measured 6.6e-9)."""
    out = tmp_path / "run.csv"
    assert main(_reduced_argv(big_r, t_max, out) + extra) == 0
    err = capsys.readouterr().err.strip()
    if extra:
        dev = re.fullmatch(r"cross-validate: max coefficient deviation (\S+)", err)
        assert float(dev[1]) <= 1e-6
    else:
        assert err == ""
    assert abs(_read_csv(out)[2][-1, 1] - f_cw) <= 1e-10


def test_reduced_engine_runs_where_cross_validation_refuses(tmp_path):
    """At R = 1000 over t = 3000 (R t = 3e6) the reduced engine alone
    resolves the run and exits 0."""
    out = tmp_path / "run.csv"
    assert main(_reduced_argv("1000", "3000", out)) == 0
    assert out.exists()


def test_cross_validate_at_R_t_3e6_exits_0(tmp_path, capsys):
    """At R = 1000 over t = 3000 the Krylov run (k = 9, on the slow/fast
    split over the correction's kernel) agrees with the run on the class
    tables within 1e-6 (measured 5.5e-14), and the class coefficients of
    both pass the 1e-10 bound on their imaginary parts (a Krylov basis of
    one rate's generator passed it only up to R t ~ 3e6)."""
    out = tmp_path / "run.csv"
    assert main(_reduced_argv("1000", "3000", out) + ["--engine", "full", "--cross-validate"]) == 0
    dev = re.fullmatch(r"cross-validate: max coefficient deviation (\S+)",
                       capsys.readouterr().err.strip())
    assert float(dev[1]) <= 1e-6
    assert out.exists()


def test_cross_validate_catches_a_fault_in_the_tables(monkeypatch, tmp_path, capsys):
    """--cross-validate compares the run on the reduced model's tables with
    one that reads no table: a free table with one entry off (the rate
    from C000_000 into C100_000, which carries no trace, 1 -> 1.01) passes
    the run's own checks, and the comparison exits 3 with no CSV."""
    faulty = reduced_model._M_FREE.copy()
    faulty[1, 0] = 1.01
    monkeypatch.setattr("cqec.reduced_model._M_FREE", faulty)
    argv = ["simulate", "--scenario", "hamiltonian-3q", "--R", "10", "--out"]
    assert main(argv + [str(tmp_path / "run.csv")]) == 0
    out = tmp_path / "xval.csv"
    assert main(argv + [str(out), "--cross-validate"]) == 3
    assert re.search(r"\nnumerical failure: table/Krylov cross-validation failed: deviation "
                     r"\S+ > 1e-6\n$", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--engine", "full", "--cross-validate"]],
                         ids=["reduced", "cross-validate"])
def test_reduced_engine_rejects_non_finite_coefficients(extra, monkeypatch, tmp_path, capsys):
    """The class coefficients of the run on the tables are checked, under
    --cross-validate too: a non-finite one fails even where the weighted
    trace does not see it.  Only the run on the 13 class states is stubbed,
    not the Krylov run of --cross-validate."""
    shared = dynamics._propagate

    def propagate(g, slow, trace, y0, times):
        if len(y0) != 13:  # the Krylov run under --cross-validate
            return shared(g, slow, trace, y0, times)
        xs = np.tile(y0, (len(times), 1)).astype(complex)
        xs[3:, 1] = np.nan  # C100_000, which carries no trace
        return xs

    monkeypatch.setattr("cqec.dynamics._propagate", propagate)
    out = tmp_path / "run.csv"
    assert main(_reduced_argv("10", "10", out) + extra) == 3
    assert capsys.readouterr().err.strip() == (
        "numerical failure: trace deviates by nan at t=3")
    assert not out.exists()


def test_reduced_engine_passes_its_check_on_long_horizons(tmp_path):
    """R = 1000 at gamma t = 1e5 keeps the weighted trace within the
    check's 1e-8 (to rounding on the slow/fast split; the plain eig of M(R)
    drifted to ~2e-9)."""
    out = tmp_path / "run.csv"
    assert main(_reduced_argv("1000", "1e5", out)) == 0
    _, header, data = _read_csv(out)
    weights = reduced_model.TRACE_WEIGHTS
    cols = [header.index(LABELS[i]) for i in weights]
    assert np.max(np.abs(data[:, cols] @ list(weights.values()) - 1.0)) <= 1e-8


def _dipping_propagation(dip):
    """A stub of the class-state propagation of the reduced engine: the unit
    first class coefficient, with 8 dip moved from the C100_100 class to the
    C110_110 class from the fourth sample on (coordinates on the normalised
    class states, the coefficients times the class norms).  The trace, F_cw
    and P_cs stay 1, and the smallest eigenvalue of those states is -dip."""
    norms = reduced_model.CLASS_NORMS

    def propagate(g, slow, trace, y0, times):
        xs = np.tile(y0, (len(times), 1)).astype(complex)
        xs[3:, 4] -= 8.0 * dip * norms[4]
        xs[3:, 8] += 8.0 * dip * norms[8]
        return xs

    return propagate


def test_reduced_engine_warns_on_a_shallow_dip(monkeypatch, tmp_path):
    """The reduced engine checks positivity as every engine does: a dip
    below -1e-8 warns once per sample and the run still writes its CSV."""
    monkeypatch.setattr("cqec.dynamics._propagate", _dipping_propagation(1e-7))
    out = tmp_path / "run.csv"
    with pytest.warns(PositivityWarning) as record:
        assert main(_reduced_argv("10", "10", out)) == 0
    assert [str(w.message) for w in record] == [
        f"state eigenvalue -1.000e-07 below -1e-08 at t={t}" for t in range(3, 11)]
    assert out.exists()


def test_reduced_engine_dip_below_tolerance_exits_3(monkeypatch, tmp_path, capsys):
    """A dip below -1e-6 fails the reduced engine's sample check: exit 3 with
    that check's message and no output."""
    monkeypatch.setattr("cqec.dynamics._propagate", _dipping_propagation(1e-5))
    out = tmp_path / "run.csv"
    assert main(_reduced_argv("10", "10", out)) == 3
    assert capsys.readouterr().err.strip() == (
        "numerical failure: eigenvalue -1.000e-05 at t=3; integration diverged")
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["0", "1"])
def test_cross_validate_outside_hamiltonian_3q_exits_2(t_max, monkeypatch, tmp_path, capsys):
    """--cross-validate on another scenario is a config error before any
    engine runs, at --t-max 0 too."""
    def no_engine(config):
        raise AssertionError("the engine ran")

    monkeypatch.setattr("cqec.cli._run_trajectory", no_engine)
    out = tmp_path / "x.csv"
    argv = ["simulate", "--scenario", "markovian-1q", "--t-max", t_max, "--cross-validate",
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: --cross-validate compares the hamiltonian-3q engines")
    assert not out.exists()


# every (engine, scenario) pair that simulate runs
_ENGINE_RUNS = (
    [("full", scenario) for scenario in sorted(SCENARIOS)]
    + [("reduced", "hamiltonian-3q")]
    + [(engine, scenario) for engine in ("weak-step", "monte-carlo")
       for scenario in ("hamiltonian-1q", "hamiltonian-3q")]
)


@given(run=st.sampled_from(_ENGINE_RUNS), rate=st.floats(0.1, 1e3),
       cycles=st.integers(1, 5000), n_traj=st.integers(1, 50), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_every_engine_exits_0_or_3_with_valid_rows(run, rate, cycles, n_traj, seed):
    """A valid simulate run of any engine exits 0 or 3, never with a
    traceback, and every row it writes has 0 <= F_cw <= P_cs <= 1 within
    the tolerances of ObservableSample.  The horizon is a whole number of
    weak-map cycles tau_c = 1e-3 (at most 5)."""
    engine, scenario = run
    flag = "--kappa" if SCENARIOS[scenario].time_unit == "lambda" else "--R"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        rc = main(["simulate", "--scenario", scenario, "--engine", engine, flag, repr(rate),
                   "--t-max", repr(cycles * 1e-3), "--samples", "11", "--tau-c", "1e-3",
                   "--n-traj", str(n_traj), "--seed", str(seed), "--out", str(out)])
        assert rc in (0, 3)
        if rc == 0:
            _, _, data = _read_csv(out)
            f, p = data[:, 1], data[:, 2]
            assert np.all((f >= -1e-9) & (f <= p + 1e-9) & (p + 1e-9 <= 1.0 + 2e-9))


def test_fit_failure_returns_4(monkeypatch):
    def boom(*args, **kwargs):
        raise FitError("synthetic fit failure")

    monkeypatch.setattr("cqec.cli.cmd_scan", boom)
    rc = main(["scan", "--scenario", "markovian-1q", "--grid", "10,30,100,300"])
    assert rc == 4


def test_scan_fit_of_zero_infidelities_exits_4(tmp_path, capsys):
    """Where the infidelity 2/(4 + R^2) itself underflows, hamiltonian-1q
    scans to zeros: the CSV is written, then the fit fails with exit 4 and a
    one-line message instead of a ValueError traceback."""
    out = tmp_path / "scan.csv"
    argv = ["scan", "--scenario", "hamiltonian-1q", "--grid", "1e160,1e170,1e200,1e300",
            "--fit", "--out", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == "fit failed: power-law fit needs positive data\n"
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [float(r) for r, _ in rows] == [1e160, 1e170, 1e200, 1e300]
    assert [float(v) for _, v in rows][1:] == [0.0, 0.0, 0.0]
    assert not (tmp_path / "scan.csv.fit.json").exists()


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


@pytest.mark.parametrize("argv", [
    ["eig", "--R", "nan"],
    ["eig", "--R", "inf"],
    ["eig", "--kappa", "nan"],
    ["eig", "--R", "10", "--gamma", "0"],
    ["eig", "--R", "1e103"],
    ["eig", "--R", "1e-107"],
    ["eig", "--R", "1e-109"],
    ["eig", "--gamma", "1e300", "--R", "1e8"],  # finite slow pair, 3 R gamma overflows
    ["graph", "--R", "1e400"],
    ["graph", "--R", "nan"],
    ["graph", "--R", "1e308"],  # 3 R overflows
], ids=["eig-R-nan", "eig-R-inf", "eig-kappa-nan", "eig-gamma-0", "eig-R-1e103", "eig-R-1e-107",
        "eig-R-1e-109", "eig-gamma-1e300-R-1e8", "graph-R-1e400", "graph-R-nan", "graph-R-1e308"])
def test_eig_and_graph_need_finite_positive_rates(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("big_r", ["5e102", "1e-100", "1e-102"])
def test_eig_near_the_slow_pair_bounds_writes_finite_json(big_r, tmp_path):
    """Inside the range of R where 24/R^2 and -144/R^3 are finite and
    nonzero, eig exits 0 and its report holds no Infinity or NaN."""
    out = tmp_path / "eig.json"
    assert main(["eig", "--R", big_r, "--out", str(out)]) == 0

    def refuse(constant):
        raise AssertionError(f"non-finite number {constant} in eig.json")

    report = json.loads(out.read_text(), parse_constant=refuse)
    assert len(report["entries"]) == 13


@pytest.mark.parametrize("argv, big_r", [(["--kappa", "0"], "0.0"),
                                         (["--kappa", "-3", "--gamma", "2"], "-1.5")])
def test_eig_names_the_rate_it_was_given(argv, big_r, tmp_path, capsys):
    """A rate given as --kappa is named as R = kappa/gamma, with its value."""
    out = tmp_path / "eig.json"
    assert main(["eig", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"config error: eig needs a finite R = kappa/gamma > 0 (--R or --kappa), got {big_r}")
    assert not out.exists()


def test_eig_rejects_r_and_kappa_together(tmp_path, capsys):
    out = tmp_path / "eig.json"
    assert main(["eig", "--R", "100", "--kappa", "3", "--out", str(out)]) == 2
    assert "give either --R or --kappa, not both" in capsys.readouterr().err
    assert not out.exists()


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


def _readme_cli_commands():
    """The `cqec ...` lines of README's CLI block, `\\` continuations joined,
    as argument lists without the program name and comments."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("cqec ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    """Every command of README's CLI block exits 0."""
    commands = _readme_cli_commands()
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def _run_python(*args, timeout=120):
    """A fresh interpreter with this checkout's `src` first on its path and
    the suite's warning policy (a RuntimeWarning is an error)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_entry_point_runs_as_module():
    proc = _run_python("-m", "cqec.cli", "eig", "--R", "100", "--out", "-")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["all_bands_ok"] is True


def test_import_loads_no_scipy(tmp_path):
    """No command imports scipy, which is a test dependency only, nor
    numpy.ma, whose import costs peak memory.  One fresh interpreter imports
    cqec.cli, runs every command (fig 1, 3 and 4, scan --fit on each
    scenario, eig, graph, and simulate with each engine), then integrates
    each scenario at the benchmark's rates and horizons (block check
    included), and lists the loaded modules after each stage."""
    commands = [["fig", str(i), "--out", str(tmp_path / "figs")] for i in (1, 3, 4)]
    commands += [["scan", "--scenario", s, "--grid", "30,100,300,1000", "--fit",
                  "--out", str(tmp_path / f"scan-{s}.csv")] for s in sorted(SCENARIOS)]
    commands += [[cmd, "--R", "100", "--out", str(tmp_path / f"{cmd}.json")]
                 for cmd in ("eig", "graph")]
    commands += [["simulate", "--scenario", "hamiltonian-3q", "--engine", engine, "--R", "10",
                  "--t-max", "1", "--samples", "11", "--n-traj", "20", "--tau-c", "0.01",
                  "--out", str(tmp_path / f"sim-{engine}.csv")] for engine in ENGINES]
    proc = _run_python(
        "-c",
        "import json, sys, cqec.cli\n"
        "from cqec.codes_and_maps import ModelParams, scenario_rho0, total_generator\n"
        "def loaded():\n"
        "    print('loaded:', sorted(m for m in sys.modules\n"
        "          if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
        "loaded()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cqec.cli.main(argv) == 0, argv\n"
        "loaded()\n"
        "for scenario, unit, rate, t_max, n in [\n"
        "        ('hamiltonian-1q', 'gamma', 1.0, 10.0, 501),\n"
        "        ('hamiltonian-1q', 'gamma', 2.0, 10.0, 501),\n"
        "        ('hamiltonian-1q', 'gamma', 5.0, 10.0, 501),\n"
        "        ('markovian-1q', 'lam', 2.0, 5.0, 201),\n"
        "        ('markovian-3q', 'lam', 96.0, 1.0, 201),\n"
        "        ('hamiltonian-3q', 'gamma', 10.0, 5.0, 201),\n"
        "        ('hamiltonian-3q', 'gamma', 100.0, 0.5, 501)]:\n"
        "    gen = total_generator(scenario, ModelParams(kappa=rate, **{unit: 1.0}))\n"
        "    cqec.integrate(gen, scenario_rho0(scenario), t_max, n_samples=n)\n"
        "loaded()\n",
        json.dumps(commands),
    )
    assert proc.returncode == 0, proc.stderr
    stages = [line for line in proc.stdout.split("\n") if line.startswith("loaded:")]
    assert stages == ["loaded: []"] * 3
    assert len(list((tmp_path / "figs").iterdir())) == 5
