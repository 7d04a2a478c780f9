"""Config-driven command line runner.

Commands
--------
simulate   integrate one scenario and write a CSV trajectory
fig        canned demo datasets (1: single-qubit fidelity curves for
           R in {1,2,5}; 3: three-qubit slow fidelity at R=100;
           4: three-qubit short-time fidelity at R=100), one CSV per curve
eig        reduced-matrix spectrum vs predicted leading forms (JSON)
scan       equilibrium infidelity (or coupling reduction) over a rate
           grid, optionally with a power-law fit
graph      transition-graph JSON of the reduced model

Every CSV artifact embeds its resolved configuration as a leading
`# config: {...}` comment line; feeding that JSON back through
`--config` reproduces the artifact byte for byte (fixed seed, no
timestamps).  Output time is dimensionless (gamma*t for Hamiltonian
scenarios, lambda*t for Markovian ones), as are rates on scan grids
(R = kappa/gamma or r = kappa/lambda).

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 fit
non-convergence.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .codes_and_maps import (
    SCENARIOS,
    ModelParams,
    pair_hamiltonian,
    total_generator,
    scenario_rho0,
)
from .dynamics import (
    METHODS,
    IntegratorConfig,
    IntegrationError,
    Trajectory,
    integrate,
    propagate_linear,
    step_weak_map,
    jump_monte_carlo,
)
from .analysis import (
    FitError,
    PlateauError,
    observables,
    fidelity_weight_series,
    fit_power_law,
    match_spectrum,
    equilibrium_scan,
    coupling_reduction_scan,
)
from . import reduced_model

SCHEMA_VERSION = 1
ENGINES = ("full", "reduced", "weak-step", "monte-carlo")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    scenario: str = "hamiltonian-1q"
    code: str = ""  # defaults to the scenario's code
    engine: str = "full"
    lam: float = 0.0
    gamma: float = 1.0
    kappa: float = 0.0
    t_max: float = 10.0
    samples: int = 201
    seed: int = 0
    n_traj: int = 1000
    tau_c: float = 1e-3
    method: str = "adaptive-RK"
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        spec = SCENARIOS[self.scenario]
        expected_code = spec.code().name
        if not self.code:
            self.code = expected_code
        if self.code != expected_code:
            raise ConfigError(
                f"scenario {self.scenario} uses code {expected_code!r}, not {self.code!r}"
            )
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.engine == "reduced" and self.scenario != "hamiltonian-3q":
            raise ConfigError("the reduced engine exists only for hamiltonian-3q")
        if self.engine in ("weak-step", "monte-carlo") and spec.noise != "pair-bath":
            raise ConfigError(f"{self.engine} needs a Hamiltonian (pair-bath) scenario")
        if spec.time_unit == "lambda" and self.lam <= 0:
            raise ConfigError("Markovian scenarios need lambda > 0")
        if spec.time_unit == "gamma" and self.gamma <= 0:
            raise ConfigError("Hamiltonian scenarios need gamma > 0")
        if self.kappa < 0:
            raise ConfigError("kappa must be >= 0")
        if self.t_max < 0:
            raise ConfigError("t_max must be >= 0")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1")
        if self.tau_c <= 0:
            raise ConfigError("tau_c must be > 0")
        if self.engine == "weak-step" and self.kappa * self.tau_c > 1.0:
            raise ConfigError("weak-step needs eps = kappa * tau_c <= 1")
        if self.engine == "weak-step" and self.t_max > 0:
            self.weak_steps()
        try:
            IntegratorConfig(method=self.method, rtol=self.rtol, atol=self.atol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def weak_steps(self):
        """Number of weak-map cycles in the horizon, which must hold a whole
        number >= 1 of cycles tau_c (to 1e-9 relative)."""
        cycles = self.t_max / self.unit / self.tau_c
        n_steps = round(cycles)
        if n_steps < 1 or abs(cycles - n_steps) > 1e-9 * cycles:
            raise ConfigError(
                f"weak-step horizon {self.t_max:g} is {cycles:.6g} cycles of tau_c = "
                f"{self.tau_c:g}; it must be a whole number >= 1 of cycles"
            )
        return n_steps

    @property
    def unit(self):
        """Rate that makes output time dimensionless (gamma or lambda)."""
        return self.lam if SCENARIOS[self.scenario].time_unit == "lambda" else self.gamma

    def params(self):
        return ModelParams(lam=self.lam, gamma=self.gamma, kappa=self.kappa)

    def to_dict(self):
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d


_CONFIG_KEYS = set(ExperimentConfig.__dataclass_fields__)


def _load_config_file(path):
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    version = loaded.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    data = {k: v for k, v in loaded.items() if k != "schema_version"}
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return data


def _resolve_config(args):
    """Merge config file (if any) with explicit command-line flags."""
    data = _load_config_file(args.config) if args.config else {}

    for key in ("scenario", "engine", "t_max", "samples", "seed", "n_traj", "tau_c",
                "method", "rtol", "atol", "lam", "gamma", "kappa"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val

    scenario = data.get("scenario", ExperimentConfig.scenario)
    spec = SCENARIOS.get(scenario)
    if spec is None:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    if getattr(args, "big_r", None) is not None:
        if spec.time_unit != "gamma":
            raise ConfigError("--R applies to Hamiltonian scenarios only (use --kappa)")
        if getattr(args, "kappa", None) is not None:
            raise ConfigError("give either --R or --kappa, not both")
        gamma = data.get("gamma")
        if gamma is None:
            gamma = 1.0
            data["gamma"] = gamma
        data["kappa"] = args.big_r * gamma
    if spec.time_unit == "lambda":
        data.setdefault("lam", 1.0)
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _fmt(x):
    return f"{float(x):.17g}"


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, config_dict, header, rows):
    lines = ["# config: " + json.dumps(config_dict, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _run_trajectory(config):
    """Dispatch on engine; returns (trajectory, coeff matrix or None)."""
    spec = SCENARIOS[config.scenario]
    code = spec.code()
    t_phys = config.t_max / config.unit
    rho0 = scenario_rho0(config.scenario)

    if config.engine == "full":
        gen = total_generator(config.scenario, config.params())
        cfg = IntegratorConfig(method=config.method, rtol=config.rtol, atol=config.atol)
        return integrate(gen, rho0, t_phys, cfg, n_samples=config.samples), None

    if config.engine == "reduced":
        m = reduced_model.build_reduced_matrix(config.kappa / config.gamma, config.gamma)
        times = np.linspace(0.0, t_phys, config.samples)
        coeffs = propagate_linear(m, reduced_model.initial_reduced_state().coeffs, times).real
        return Trajectory(times, coeffs, kind="reduced"), coeffs

    h = pair_hamiltonian(code, config.gamma)
    if config.engine == "weak-step":
        eps = config.kappa * config.tau_c
        n_steps = config.weak_steps()
        # ceiling: at most `samples` rows, the last one on the horizon
        stride = -(-n_steps // max(config.samples - 1, 1))
        traj = step_weak_map(rho0, h, code, eps, config.tau_c, n_steps, sample_stride=stride)
        return traj, None

    traj = jump_monte_carlo(
        rho0, h, code, config.kappa, t_phys, config.n_traj, config.seed,
        n_samples=config.samples,
    )
    return traj, None


def cmd_simulate(config, out, cross_validate=False):
    code = SCENARIOS[config.scenario].code()
    header = ["t_dimensionless", "F_cw", "P_cs", "Lambda"]

    if config.t_max == 0:
        row = [0.0, 1.0, 1.0, 0.0]
        if config.engine == "reduced":
            header += reduced_model.LABELS
            row += list(reduced_model.initial_reduced_state().coeffs)
        _write_csv(out, config.to_dict(), header, [row])
        return 0

    traj, coeffs = _run_trajectory(config)
    times_out = traj.times * config.unit
    if len(traj) >= 3:
        obs = observables(traj, code)
        rows = [
            [t, o.f_cw, o.p_cs, o.error_rate / config.unit]
            for t, o in zip(times_out, obs)
        ]
    else:
        f, p = fidelity_weight_series(traj, code)
        rows = [[t, fi, pi, 0.0] for t, fi, pi in zip(times_out, f, p)]

    if config.engine == "reduced":
        header += reduced_model.LABELS
        for row, c in zip(rows, coeffs):
            row.extend(c)

    if cross_validate:
        dev = _cross_validate(config)
        print(f"cross-validate: max coefficient deviation {dev:.3e}", file=sys.stderr)
        if dev > 1e-6:
            raise IntegrationError(
                f"full/reduced cross-validation failed: deviation {dev:.3e} > 1e-6"
            )

    _write_csv(out, config.to_dict(), header, rows)
    return 0


def _cross_validate(config):
    """Max deviation between full 64-dim integration (class-extracted) and
    reduced propagation on a shared grid."""
    if config.scenario != "hamiltonian-3q":
        raise ConfigError("--cross-validate compares the hamiltonian-3q engines")
    t_phys = config.t_max / config.unit
    gen = total_generator(config.scenario, config.params())
    rho0 = scenario_rho0(config.scenario)
    cfg = IntegratorConfig(method=config.method, rtol=config.rtol, atol=config.atol)
    traj = integrate(gen, rho0, t_phys, cfg, n_samples=min(config.samples, 51))
    m = reduced_model.build_reduced_matrix(config.kappa / config.gamma, config.gamma)
    xs = propagate_linear(m, reduced_model.initial_reduced_state().coeffs, traj.times).real
    dev = 0.0
    for i in range(len(traj)):
        red = reduced_model.extract_reduced(traj.states[i])
        dev = max(dev, float(np.max(np.abs(red.coeffs - xs[i]))))
    return dev


# ---------------------------------------------------------------------------
# fig / eig / scan / graph
# ---------------------------------------------------------------------------


def cmd_fig(fig_id, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    if fig_id == 1:
        for big_r in (1, 2, 5):
            config = ExperimentConfig(
                scenario="hamiltonian-1q", engine="full", gamma=1.0,
                kappa=float(big_r), t_max=10.0, samples=501,
            )
            cmd_simulate(config, os.path.join(out_dir, f"fig1_R{big_r}.csv"))
    elif fig_id == 3:
        config = ExperimentConfig(
            scenario="hamiltonian-3q", engine="reduced", gamma=1.0,
            kappa=100.0, t_max=3000.0, samples=3001,
        )
        cmd_simulate(config, os.path.join(out_dir, "fig3_R100.csv"))
    elif fig_id == 4:
        config = ExperimentConfig(
            scenario="hamiltonian-3q", engine="full", gamma=1.0,
            kappa=100.0, t_max=0.5, samples=501,
        )
        cmd_simulate(config, os.path.join(out_dir, "fig4_R100.csv"))
    else:
        raise ConfigError(f"unknown figure id {fig_id}; choose 1, 3, or 4")
    return 0


def cmd_eig(big_r, gamma, out):
    if big_r is None or big_r <= 0:
        raise ConfigError("eig needs --R > 0")
    m = reduced_model.build_reduced_matrix(big_r, gamma)
    numerical = np.linalg.eigvals(m)
    matches = match_spectrum(numerical, big_r, gamma)
    conj_closed = bool(
        all(
            np.min(np.abs(numerical - np.conj(ev))) <= 1e-9 * max(1.0, abs(ev))
            for ev in numerical
        )
    )
    report = {
        "R": big_r,
        "gamma": gamma,
        "entries": [
            {
                "predicted": [ev.predicted.real, ev.predicted.imag],
                "numerical": [ev.numerical.real, ev.numerical.imag],
                "residual_over_gamma": ev.residual_over_gamma,
                "kind": ev.kind,
                "ok": ev.ok,
            }
            for ev in matches
        ],
        "all_bands_ok": all(ev.ok for ev in matches),
        "conjugation_closed": conj_closed,
    }
    _write_json(out, report)
    return 0


def _parse_grid(text):
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if len(grid) < 4:
        raise ConfigError("scan needs a grid of at least 4 rates")
    bad = [r for r in grid if not (np.isfinite(r) and r > 0)]
    if bad:
        raise ConfigError(f"scan rates must be finite and > 0, got {bad}")
    return grid


def cmd_scan(scenario, grid, fit, out):
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")

    if scenario == "hamiltonian-3q":
        # oscillatory case: report the effective coupling reduction 2g/omega
        value_col = "coupling_reduction"
        points = coupling_reduction_scan(grid)
    else:
        value_col = "equilibrium_infidelity"
        points = equilibrium_scan(scenario, grid)

    meta = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "scenario": scenario,
        "grid": list(grid),
        "quantity": value_col,
    }
    _write_csv(out, meta, ["rate", value_col], [[r, v] for r, v in points])

    if fit:
        result = fit_power_law(points)
        _write_json(out + ".fit.json" if out != "-" else "-", result.to_json())
        print(
            f"power-law slope {result.params['slope']:+.4f} "
            f"+- {result.stderr['slope']:.4f}"
        )
    return 0


def cmd_graph(big_r, out):
    if big_r is None or big_r < 0:
        raise ConfigError("graph needs --R >= 0")
    edges = reduced_model.graph_as_json(reduced_model.transition_graph(big_r))
    _write_json(out, {"R": big_r, "edges": edges})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cqec",
        description="Continuous quantum error correction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario, write CSV")
    p.add_argument("--config", help="JSON config file (schema_version 1)")
    p.add_argument("--scenario", choices=sorted(SCENARIOS))
    p.add_argument("--R", dest="big_r", type=float,
                   help="dimensionless correction rate kappa/gamma")
    p.add_argument("--kappa", type=float, help="correction rate")
    p.add_argument("--gamma", type=float, help="system-bath coupling")
    p.add_argument("--lambda", dest="lam", type=float, help="Markovian flip rate")
    p.add_argument("--engine", choices=ENGINES)
    p.add_argument("--t-max", dest="t_max", type=float,
                   help="horizon in dimensionless time")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-traj", dest="n_traj", type=int)
    p.add_argument("--tau-c", dest="tau_c", type=float)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--out", default="-", help="output path (default: stdout)")
    p.add_argument("--cross-validate", action="store_true",
                   help="also run the full/reduced cross-check (hamiltonian-3q)")

    p = sub.add_parser("fig", help="write canned demo datasets")
    p.add_argument("id", type=int, choices=(1, 3, 4))
    p.add_argument("--out", default="figs", help="output directory")

    p = sub.add_parser("eig", help="reduced-model spectrum report (JSON)")
    p.add_argument("--R", dest="big_r", type=float,
                   help="dimensionless correction rate kappa/gamma")
    p.add_argument("--kappa", type=float, help="correction rate")
    p.add_argument("--gamma", type=float, help="system-bath coupling")
    p.add_argument("--out", default="-", help="output path (default: stdout)")

    p = sub.add_parser("scan", help="equilibrium scan over a rate grid")
    p.add_argument("--config", help="JSON config file naming the scenario")
    p.add_argument("--scenario", choices=sorted(SCENARIOS))
    p.add_argument("--grid", required=True,
                   help="comma-separated dimensionless rates (>= 4)")
    p.add_argument("--fit", action="store_true", help="power-law fit of the points")
    p.add_argument("--out", default="-", help="output path (default: stdout)")

    p = sub.add_parser("graph", help="reduced-model transition graph (JSON)")
    p.add_argument("--R", dest="big_r", type=float,
                   help="dimensionless correction rate kappa/gamma")
    p.add_argument("--out", default="-", help="output path (default: stdout)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            config = _resolve_config(args)
            return cmd_simulate(config, args.out, cross_validate=args.cross_validate)
        if args.command == "fig":
            return cmd_fig(args.id, args.out)
        if args.command == "eig":
            gamma = args.gamma if args.gamma is not None else 1.0
            big_r = args.big_r
            if big_r is None and args.kappa is not None:
                big_r = args.kappa / gamma
            return cmd_eig(big_r, gamma, args.out)
        if args.command == "scan":
            scenario = args.scenario
            if scenario is None and args.config:
                scenario = _load_config_file(args.config).get("scenario")
            if scenario is None:
                raise ConfigError("scan needs --scenario (or a config file naming one)")
            return cmd_scan(scenario, _parse_grid(args.grid), args.fit, args.out)
        if args.command == "graph":
            return cmd_graph(args.big_r, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, PlateauError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
