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
import contextlib
import json
import os
import sys
from dataclasses import dataclass, asdict, replace

import numpy as np

from .codes_and_maps import (
    SCENARIOS,
    ModelParams,
    pair_hamiltonian,
    total_generator,
    scenario_rho0,
)
from .dynamics import (
    MC_CHUNK_ENTRIES,
    IntegrationError,
    integrate,
    integrate_reduced,
    step_weak_map,
    jump_monte_carlo,
)
from .analysis import (
    FitError,
    PlateauError,
    observables,
    fit_power_law,
    match_spectrum,
    equilibrium_scan,
    coupling_reduction_scan,
)
from .closed_forms import predicted_spectrum
from . import reduced_model

SCHEMA_VERSION = 2
ENGINES = ("full", "reduced", "weak-step", "monte-carlo")


class ConfigError(ValueError):
    pass


def _check_number(name, value):
    """A config number is an int or a float; a JSON true/false is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def _scenario_spec(name):
    """The scenario called `name`; any other value, a non-string too, is a config error."""
    spec = SCENARIOS.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ConfigError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return spec


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

    def __post_init__(self):
        spec = _scenario_spec(self.scenario)
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
        for name in ("samples", "seed", "n_traj"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("t_max", "gamma", "lam", "kappa", "tau_c"):
            value = getattr(self, name)
            _check_number(name, value)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if spec.time_unit == "lambda" and self.lam <= 0:
            raise ConfigError("Markovian scenarios need lambda > 0")
        if spec.time_unit == "gamma" and self.gamma <= 0:
            raise ConfigError("Hamiltonian scenarios need gamma > 0")
        for name in ("lam", "gamma", "kappa"):  # the other scenarios' rate too
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.t_max < 0:
            raise ConfigError("t_max must be >= 0")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        most = np.iinfo(np.intp).max // 8  # float64 times that fill numpy's largest array
        if self.samples > most:
            raise ConfigError(f"samples must be <= {most}, got {self.samples}")
        if self.t_max > 0 and self.samples < 2:
            raise ConfigError("samples must be >= 2 when t_max > 0 (the first and last times)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1")
        if self.tau_c <= 0:
            raise ConfigError("tau_c must be > 0")
        if self.engine == "weak-step" and self.kappa * self.tau_c > 1.0:
            raise ConfigError("weak-step needs eps = kappa * tau_c <= 1")
        if self.engine == "weak-step" and self.t_max > 0:
            self.weak_steps()
        jumps = self.kappa * self.t_max / self.unit  # expected per Monte Carlo trajectory
        # refused where its jump times alone outgrow a chunk
        if self.engine == "monte-carlo" and jumps > MC_CHUNK_ENTRIES:
            raise ConfigError(f"monte-carlo expects kappa t = {jumps:.6g} jumps per trajectory, "
                              f"more than the {MC_CHUNK_ENTRIES} array entries of one chunk")

    def weak_steps(self):
        """Number of weak-map cycles in the horizon, which must hold a whole
        number >= 1 of cycles tau_c (to 1e-9 relative)."""
        cycles = self.t_max / self.unit / self.tau_c
        n_steps = round(cycles) if np.isfinite(cycles) else 0
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
                "lam", "gamma", "kappa"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val

    spec = _scenario_spec(data.get("scenario", ExperimentConfig.scenario))
    if getattr(args, "big_r", None) is not None:
        if spec.time_unit != "gamma":
            raise ConfigError("--R applies to Hamiltonian scenarios only (use --kappa)")
        if getattr(args, "kappa", None) is not None:
            raise ConfigError("give either --R or --kappa, not both")
        gamma = data.setdefault("gamma", 1.0)
        _check_number("gamma", gamma)
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


def _open_out(path):
    """The file `path` opened for writing, or stdout (left open) for "-"; a
    path that cannot be opened is a config error."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path, config_dict, header, rows):
    """Write the `# config:` line, the header, then each row as it is formatted:
    one value per header column, each as %.17g, so that it reads back exactly."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with _open_out(path) as fh:
        fh.write("# config: " + json.dumps(config_dict, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _write_json(path, payload):
    with _open_out(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _run_trajectory(config):
    """Dispatch on engine; returns the trajectory (reduced: on the class states)."""
    code = SCENARIOS[config.scenario].code()
    t_phys = config.t_max / config.unit
    rho0 = scenario_rho0(config.scenario)

    if config.engine == "full":
        gen = total_generator(config.scenario, config.params())
        return integrate(gen, rho0, t_phys, n_samples=config.samples)

    if config.engine == "reduced":
        return integrate_reduced(config.kappa / config.gamma, config.gamma, t_phys,
                                 n_samples=config.samples)

    h = pair_hamiltonian(code, config.gamma)
    if config.engine == "weak-step":
        eps = config.kappa * config.tau_c
        n_steps = config.weak_steps()
        # ceiling: at most `samples` rows, the last one on the horizon
        stride = -(-n_steps // (config.samples - 1))
        return step_weak_map(rho0, h, code, eps, config.tau_c, n_steps, sample_stride=stride)

    return jump_monte_carlo(
        rho0, h, code, config.kappa, t_phys, config.n_traj, config.seed,
        n_samples=config.samples,
    )


def cmd_simulate(config, out, cross_validate=False):
    if cross_validate and config.scenario != "hamiltonian-3q":
        raise ConfigError("--cross-validate compares the hamiltonian-3q engines")
    code = SCENARIOS[config.scenario].code()
    reduced = config.engine == "reduced"
    labels = reduced_model.LABELS if reduced else []  # the 13 class coefficients
    header = ["t_dimensionless", "F_cw", "P_cs", "Lambda", *labels]

    if config.t_max == 0:
        c0 = np.eye(13)[0] if reduced else []
        _write_csv(out, config.to_dict(), header, [[0.0, 1.0, 1.0, 0.0, *c0]])
        return 0

    try:
        traj = _run_trajectory(config)
        coords = traj.coords if reduced else np.empty((len(traj), 0))
        try:
            samples = observables(traj, code)
        except ValueError as exc:  # F_cw > P_cs beyond rounding, in samples the check passed
            raise IntegrationError(str(exc)) from exc
        # built one at a time as `_write_csv` writes them, from Python floats,
        # which %.17g formats faster than numpy scalars (to the same text)
        unit = config.unit
        rows = ([o.time * unit, o.f_cw, o.p_cs, o.error_rate / unit, *c]
                for o, c in zip(samples, coords.tolist()))
        dev = _cross_validate(config, traj) if cross_validate else None
    except MemoryError as exc:  # the arrays of all samples are allocated up front
        msg = f"samples = {config.samples}: the run does not fit in memory ({exc})"
        raise ConfigError(msg) from exc

    if cross_validate:
        print(f"cross-validate: max coefficient deviation {dev:.3e}", file=sys.stderr)
        if dev > 1e-6:
            raise IntegrationError(
                f"full/reduced cross-validation failed: deviation {dev:.3e} > 1e-6"
            )

    _write_csv(out, config.to_dict(), header, rows)
    return 0


def _cross_validate(config, traj):
    """Max deviation between the class coefficients of the full 64-dim
    integration and those of the reduced engine, at every sample.  ``traj``
    is the trajectory of the config's own engine, which stands in for that
    engine's run."""
    def run(engine):
        return traj if config.engine == engine else _run_trajectory(replace(config, engine=engine))

    full = run("full")
    try:
        coeffs = reduced_model.class_coefficients(full.coords, full.basis)
    except ValueError as exc:  # a sample off the real symmetric manifold
        raise IntegrationError(f"full/reduced cross-validation failed: {exc}") from exc
    reduced = run("reduced")
    return float(np.max(np.abs(coeffs - reduced.coords)))


# ---------------------------------------------------------------------------
# fig / eig / scan / graph
# ---------------------------------------------------------------------------


def cmd_fig(fig_id, out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file in the way, or a path through one
        raise ConfigError(f"cannot make the output directory {out_dir}: {exc.strerror}") from exc
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
    if big_r is None or not (np.isfinite(big_r) and big_r > 0):
        raise ConfigError(f"eig needs a finite R = kappa/gamma > 0 (--R or --kappa), got {big_r}")
    with np.errstate(all="ignore"):  # an overflow or a division by zero reads inf or 0
        slow = predicted_spectrum(np.float64(big_r), gamma)[-2]
    if not (np.isfinite(slow) and slow.real and slow.imag):
        raise ConfigError(f"eig needs a finite, nonzero slow pair -144 gamma/R^3 + 24i gamma/R^2;"
                          f" R = {big_r:g} gives {slow:g}")
    m = reduced_model.build_reduced_matrix(big_r, gamma)
    if not np.isfinite(m).all():
        raise ConfigError(f"eig needs a finite gamma M(R); gamma = {gamma:g}, R = {big_r:g} overflows")
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
        "entries": matches,
        "all_bands_ok": all(ev["ok"] for ev in matches),
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
    _scenario_spec(scenario)

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
    _write_csv(out, meta, ["rate", value_col], points)

    if fit:
        try:
            result = fit_power_law(points)
        except ValueError as exc:  # e.g. an infidelity that reads 0
            raise FitError(str(exc)) from exc
        _write_json(out + ".fit.json" if out != "-" else "-", result)
        print(
            f"power-law slope {result['params']['slope']:+.4f} "
            f"+- {result['stderr']['slope']:.4f}"
        )
    return 0


def cmd_graph(big_r, out):
    if big_r is None or not (np.isfinite(big_r) and big_r >= 0):
        raise ConfigError("graph needs a finite --R >= 0")
    edges = reduced_model.transition_graph(big_r)
    if not np.isfinite([e["rate_over_gamma"] for e in edges]).all():
        raise ConfigError(f"graph needs finite rates R x table entry; R = {big_r:g} overflows")
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
    p.add_argument("--config", help="JSON config file (schema_version 2)")
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
    p.add_argument("--gamma", type=float, default=1.0, help="system-bath coupling")
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
            if not (np.isfinite(args.gamma) and args.gamma > 0):
                raise ConfigError("eig needs a finite --gamma > 0")
            if args.big_r is not None and args.kappa is not None:
                raise ConfigError("give either --R or --kappa, not both")
            big_r = args.big_r if args.kappa is None else args.kappa / args.gamma
            return cmd_eig(big_r, args.gamma, args.out)
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
