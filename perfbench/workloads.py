"""The three workloads of the cqec benchmark: their ops, how each op calls
cqec, and how its output is checked.

This module imports nothing heavy at the top: a set-up process times the
import of cqec (and with it numpy and scipy) from a clean start.

Time is dimensionless throughout (gamma = 1 or lambda = 1), so a rate
below is R = kappa/gamma or r = kappa/lambda.
"""

SMALL_REGISTER = [
    # the fig-1 curves
    {"name": "fig1-R1", "kind": "integrate", "scenario": "hamiltonian-1q", "rate": 1.0,
     "t_max": 10.0, "samples": 501},
    {"name": "fig1-R2", "kind": "integrate", "scenario": "hamiltonian-1q", "rate": 2.0,
     "t_max": 10.0, "samples": 501},
    {"name": "fig1-R5", "kind": "integrate", "scenario": "hamiltonian-1q", "rate": 5.0,
     "t_max": 10.0, "samples": 501},
    {"name": "markovian-1q-r2", "kind": "integrate", "scenario": "markovian-1q", "rate": 2.0,
     "t_max": 5.0, "samples": 201},
    {"name": "markovian-3q-r96", "kind": "integrate", "scenario": "markovian-3q",
     "rate": 96.0, "t_max": 1.0, "samples": 201},
    {"name": "weak-pair-R5", "kind": "weak_pair", "scenario": "hamiltonian-1q", "rate": 5.0,
     "t_max": 10.0, "tau_c": 1e-3, "samples": 201},
    {"name": "monte-carlo-R5", "kind": "monte_carlo", "scenario": "hamiltonian-1q",
     "rate": 5.0, "t_max": 2.0, "n_traj": 1000, "samples": 21},
]

_INTEGRATE_R10 = {"name": "integrate-R10", "kind": "integrate", "scenario": "hamiltonian-3q",
                  "rate": 10.0, "t_max": 5.0, "samples": 201}
_WEAK_R10 = {"name": "weak-pair-R10", "kind": "weak_pair", "scenario": "hamiltonian-3q",
             "rate": 10.0, "t_max": 1.0, "tau_c": 2e-3, "samples": 21}
# Each op below but fig-4 runs twice per pass (the Monte Carlo ensembles with
# different seeds): the three engines then take similar shares of a pass,
# and the median latency falls among many samples of similar ops.
SIX_QUBIT = [
    _INTEGRATE_R10,
    _INTEGRATE_R10,
    # the fig-4 case
    {"name": "fig4-R100", "kind": "integrate", "scenario": "hamiltonian-3q", "rate": 100.0,
     "t_max": 0.5, "samples": 501},
    _WEAK_R10,
    _WEAK_R10,
    {"name": "monte-carlo-R10-a", "kind": "monte_carlo", "scenario": "hamiltonian-3q",
     "rate": 10.0, "t_max": 1.0, "n_traj": 100, "samples": 21},
    {"name": "monte-carlo-R10-b", "kind": "monte_carlo", "scenario": "hamiltonian-3q",
     "rate": 10.0, "t_max": 1.0, "n_traj": 100, "samples": 21},
]

# `cqec` commands of the cli workload; {out} is the command's own output
# directory.  No --jobs: the default process pool is what users get.
CLI = [
    {"name": "scan-markovian-1q", "scenario": "markovian-1q", "grid": [10, 30, 100, 300, 1000]},
    {"name": "scan-hamiltonian-1q", "scenario": "hamiltonian-1q", "grid": [30, 100, 300, 1000]},
    {"name": "scan-markovian-3q", "scenario": "markovian-3q", "grid": [300, 1000, 3000, 10000]},
    {"name": "scan-hamiltonian-3q", "scenario": "hamiltonian-3q", "grid": [30, 50, 100, 200]},
    {"name": "fig-3", "argv": ["fig", "3", "--out", "{out}"], "file": "fig3_R100.csv"},
    {"name": "eig", "argv": ["eig", "--R", "100", "--out", "{out}/eig.json"], "file": "eig.json"},
    {"name": "graph", "argv": ["graph", "--R", "100", "--out", "{out}/graph.json"],
     "file": "graph.json"},
]
for _cmd in CLI:
    if "grid" in _cmd:
        _cmd["argv"] = ["scan", "--scenario", _cmd["scenario"], "--grid",
                        ",".join(str(r) for r in _cmd["grid"]), "--fit",
                        "--out", "{out}/scan.csv"]
        _cmd["file"] = "scan.csv"

WORKLOADS = {"small-register": SMALL_REGISTER, "six-qubit": SIX_QUBIT, "cli": CLI}


# ---------------------------------------------------------------------------
# register workloads: set-up, ops, references, checks
# ---------------------------------------------------------------------------


class Context:
    """What a register workload builds at set-up: generators, codes,
    initial states and pair Hamiltonians, keyed by scenario and rate."""

    def __init__(self, ops):
        import cqec.analysis  # noqa: F401  (imported at set-up, as a user script would)
        import cqec.codes_and_maps as cm

        self.generators = {}
        self.codes = {}
        self.rho0 = {}
        self.hamiltonians = {}
        for op in ops:
            scenario, rate = op["scenario"], op["rate"]
            if scenario not in self.codes:
                self.codes[scenario] = cm.SCENARIOS[scenario].code()
                self.rho0[scenario] = cm.scenario_rho0(scenario)
            if op["kind"] == "integrate":
                if scenario.startswith("markovian"):
                    params = cm.ModelParams(lam=1.0, kappa=rate)
                else:
                    params = cm.ModelParams(gamma=1.0, kappa=rate)
                self.generators[scenario, rate] = cm.total_generator(scenario, params)
            elif scenario not in self.hamiltonians:
                self.hamiltonians[scenario] = cm.pair_hamiltonian(self.codes[scenario], 1.0)


def mc_seed(ops, op, seed):
    """Monte Carlo seed of an op: derived from the workload seed and the
    op's first position in the list, so each ensemble of a pass differs."""
    return seed * len(ops) + ops.index(op)


def run_op(ctx, op, seed):
    """One op; returns its outputs as plain arrays.  `seed` is the op's
    Monte Carlo seed.  cqec functions are looked up on their modules at
    call time, where the tracer wraps them."""
    import numpy as np
    import cqec.analysis as analysis
    import cqec.dynamics as dynamics

    scenario = op["scenario"]
    code, rho0 = ctx.codes[scenario], ctx.rho0[scenario]
    if op["kind"] == "integrate":
        traj = dynamics.integrate(ctx.generators[scenario, op["rate"]], rho0, op["t_max"],
                                  n_samples=op["samples"])
        obs = analysis.observables(traj, code)
        return {"t": traj.times, "F": np.array([o.f_cw for o in obs]),
                "P": np.array([o.p_cs for o in obs])}
    h = ctx.hamiltonians[scenario]
    if op["kind"] == "weak_pair":
        out = {}
        for key, tau in (("coarse", op["tau_c"]), ("fine", op["tau_c"] / 2.0)):
            n_steps = int(round(op["t_max"] / tau))
            stride = n_steps // (op["samples"] - 1)
            traj = dynamics.step_weak_map(rho0, h, code, op["rate"] * tau, tau, n_steps,
                                          sample_stride=stride)
            f, p = analysis.fidelity_weight_series(traj, code)
            out[key] = {"t": traj.times, "F": f, "P": p}
        return out
    traj = dynamics.jump_monte_carlo(rho0, h, code, op["rate"], op["t_max"], op["n_traj"],
                                     seed, n_samples=op["samples"])
    f, p = analysis.fidelity_weight_series(traj, code)
    return {"t": traj.times, "F": f, "P": p, "mean": traj.observables["F_cw_mean"],
            "se": traj.observables["F_cw_se"]}


def references(ops):
    """{op name: {"t", "F", "P"}} from the benchmark's own references;
    None where the model gives no exact form for that observable."""
    import numpy as np
    import checks

    refs = {}
    six = {}
    for op in ops:
        t = np.linspace(0.0, op["t_max"], op["samples"])
        scenario, rate = op["scenario"], op["rate"]
        if scenario == "hamiltonian-1q":
            f = p = checks.alpha_nonmarkov(t, 1.0, rate)
        elif scenario == "markovian-1q":
            f = p = checks.fidelity_markov_1q(t, 1.0, rate)
        elif scenario == "markovian-3q":
            f, p = None, 1.0 - checks.leak_markov_3q(t, 1.0, rate)
        else:
            key = (rate, op["t_max"], op["samples"])
            if key not in six:
                six[key] = checks.six_qubit_reference(*key)[1:]
            f, p = six[key]
        refs[op["name"]] = {"t": t.tolist(), "F": None if f is None else np.asarray(f).tolist(),
                            "P": np.asarray(p).tolist()}
    return refs


def check_op(op, out, ref):
    """Failure messages of one op's outputs (empty: passed)."""
    import numpy as np
    import checks

    name = op["name"]
    t_ref = np.asarray(ref["t"])
    f_ref = None if ref["F"] is None else np.asarray(ref["F"])
    p_ref = np.asarray(ref["P"])
    fails = []
    if op["kind"] == "integrate":
        fails += checks.check_times(name, out["t"], t_ref)
        fails += checks.check_order(name, out["F"], out["P"])
        if f_ref is not None:
            fails += checks.check_close(name + " F_cw", out["F"], f_ref)
        fails += checks.check_close(name + " P_cs", out["P"], p_ref)
        return fails
    if op["kind"] == "weak_pair":
        devs = []
        for key in ("coarse", "fine"):
            part = out[key]
            fails += checks.check_times(f"{name} {key}", part["t"], t_ref)
            fails += checks.check_order(f"{name} {key}", part["F"], part["P"])
            if len(part["F"]) != len(f_ref):
                return fails + [f"{name} {key}: {len(part['F'])} samples"]
            devs.append(float(np.max(np.abs(part["F"] - f_ref))))
        return fails + checks.check_weak_pair(name, devs[0], devs[1], op["rate"] * op["tau_c"])
    fails += checks.check_times(name, out["t"], t_ref)
    fails += checks.check_order(name, out["F"], out["P"])
    fails += checks.check_close(name + " F_cw of the mean state", out["F"], out["mean"], 1e-9)
    fails += checks.check_monte_carlo(name, out["mean"], out["se"], f_ref)
    return fails
