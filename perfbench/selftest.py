"""Self-tests of the benchmark's checks: each check must pass a right
result and reject a deliberately wrong one.

    python3 perfbench/selftest.py

Kept out of the repository's test suite; exits 1 if any case misbehaves.
"""

import json
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def passes(fails):
    assert fails == [], fails


def rejects(fails):
    assert fails, "a wrong result passed"


T = np.linspace(0.0, 10.0, 501)


@case
def integrate_alpha():
    ref = checks.alpha_nonmarkov(T, 1.0, 5.0)
    passes(checks.check_close("alpha", ref + 1e-9, ref))
    rejects(checks.check_close("alpha, kappa 10% off", checks.alpha_nonmarkov(T, 1.0, 5.5), ref))


@case
def markovian_references():
    ref = checks.fidelity_markov_1q(T, 1.0, 2.0)
    rejects(checks.check_close("1q, kappa 10% off", checks.fidelity_markov_1q(T, 1.0, 2.2), ref))
    ref = 1.0 - checks.leak_markov_3q(T, 1.0, 96.0)
    rejects(checks.check_close("3q, rate 4+r -> 2+r", 1.0 - 3.0 / 98.0 * (1.0 - np.exp(-98.0 * T)),
                               ref))
    # the closed forms obey their own differential equations
    lam, kappa = 1.0, 2.0
    f = checks.fidelity_markov_1q(T, lam, kappa)
    rhs = (lam + kappa) - (2 * lam + kappa) * f
    assert np.max(np.abs(np.gradient(f, T)[5:-5] - rhs[5:-5])) < 1e-3


@case
def order():
    f = np.array([0.9, 0.8, 0.7])
    passes(checks.check_order("ok", f, f + 0.05))
    rejects(checks.check_order("F > P", f, f - 0.01))
    rejects(checks.check_order("P > 1", f, f + 0.11))
    rejects(checks.check_order("F < 0", f - 0.85, f))


@case
def sample_times():
    passes(checks.check_times("t", T.copy(), T))
    rejects(checks.check_times("t shifted", T + 1e-3, T))
    rejects(checks.check_times("t short", T[:-1], T))


@case
def weak_pair():
    passes(checks.check_weak_pair("ok", 4.7e-4, 2.35e-4, 5e-3))
    rejects(checks.check_weak_pair("tau-independent offset", 4.7e-4 + 1e-3, 2.35e-4 + 1e-3, 5e-3))
    rejects(checks.check_weak_pair("second order", 4.7e-4, 1.2e-4, 5e-3))
    rejects(checks.check_weak_pair("too large", 4.7e-2, 2.35e-2, 5e-3))


@case
def monte_carlo():
    t = np.linspace(0.0, 2.0, 21)
    ref = checks.alpha_nonmarkov(t, 1.0, 5.0)
    se = np.full(21, 3e-3)
    se[0] = 0.0
    mean = ref + 0.5 * se
    passes(checks.check_monte_carlo("ok", mean, se, ref))
    rejects(checks.check_monte_carlo("biased by 0.05", mean + np.r_[0.0, np.full(20, 0.05)], se,
                                     ref))
    # a bias below ~6 se is not detectable at Z_BOUND; kappa 50% off is
    rejects(checks.check_monte_carlo("kappa 50% off", checks.alpha_nonmarkov(t, 1.0, 7.5), se,
                                     ref))
    off = mean.copy()
    off[0] += 1e-6
    rejects(checks.check_monte_carlo("wrong at t = 0", off, se, ref))
    rejects(checks.check_monte_carlo("spread at t = 0", mean, se + 1e-3, ref))


def _scan_csv(rates, values):
    rows = "\n".join(f"{float(r)!r},{float(v)!r}" for r, v in zip(rates, values))
    return "# config: {}\nrate,value\n" + rows + "\n"


def _fit_json(rates, values):
    slope = np.polyfit(np.log(rates), np.log(values), 1)[0]
    return json.dumps({"params": {"slope": slope}})


@case
def scans():
    for cmd in workloads.CLI:
        if "grid" not in cmd:
            continue
        grid = np.array(cmd["grid"], dtype=float)
        if cmd["scenario"] == "hamiltonian-3q":
            right = np.array([checks.coupling_reduction(r) for r in grid]) * (1 + 7e-4)
        else:
            right = checks.SCAN_REFERENCES[cmd["scenario"]](grid) * (1 + 1e-8)
        passes(checks.check_scan("ok", cmd["scenario"], grid,
                                 _scan_csv(grid, right), _fit_json(grid, right)))
        wrong = right.copy()
        wrong[1] *= 2.0
        rejects(checks.check_scan("factor 2", cmd["scenario"], grid,
                                  _scan_csv(grid, wrong), _fit_json(grid, right)))
        rejects(checks.check_scan("wrong slope", cmd["scenario"], grid,
                                  _scan_csv(grid, right), _fit_json(grid, right ** 1.1)))
        rejects(checks.check_scan("missing row", cmd["scenario"], grid,
                                  _scan_csv(grid[:-1], right[:-1]), _fit_json(grid, right)))
    grid = np.array([30.0, 50.0, 100.0, 200.0])
    leading = grid**2 / 12.0  # the R^2/12 asymptote is not the exact value
    rejects(checks.check_scan("asymptote", "hamiltonian-3q", grid,
                              _scan_csv(grid, leading), _fit_json(grid, leading)))


def _fig3_csv(t, c000, extra=0.0):
    header = "t_dimensionless,F_cw,P_cs,Lambda," + ",".join(checks.REDUCED_LABELS)
    lines = ["# config: {}", header]
    for ti, ci in zip(t, c000):
        coeffs = np.zeros(13)
        coeffs[0] = ci
        coeffs[12] = 1.0 - ci + extra
        lines.append(",".join(repr(float(x)) for x in [ti, ci, 1.0, 0.0, *coeffs]))
    return "\n".join(lines) + "\n"


@case
def fig3():
    t = np.linspace(0.0, 3000.0, 301)
    c = checks.fig3_slow_fidelity(t, 100.0)
    passes(checks.check_fig3("ok", _fig3_csv(t, c + 0.005)))
    rejects(checks.check_fig3("shifted by 0.02", _fig3_csv(t, c + 0.02)))
    rejects(checks.check_fig3("trace broken", _fig3_csv(t, c, extra=1e-6)))
    rejects(checks.check_fig3("no rows", "t_dimensionless,C000_000\n"))


@case
def eig_graph_exit():
    passes(checks.check_eig("ok", json.dumps({"all_bands_ok": True, "conjugation_closed": True})))
    rejects(checks.check_eig("band", json.dumps({"all_bands_ok": False,
                                                 "conjugation_closed": True})))
    rejects(checks.check_eig("missing", "{}"))
    m = checks.reduced_matrix(100.0)
    edges = [{"from": checks.REDUCED_LABELS[j], "to": checks.REDUCED_LABELS[i],
              "rate_over_gamma": m[i, j]}
             for i in range(13) for j in range(13) if i != j and m[i, j] != 0.0]
    passes(checks.check_graph("ok", json.dumps({"edges": edges}), 100.0))
    rejects(checks.check_graph("edge dropped", json.dumps({"edges": edges[1:]}), 100.0))
    bad = [dict(e) for e in edges]
    bad[0]["rate_over_gamma"] *= -1.0
    rejects(checks.check_graph("sign flipped", json.dumps({"edges": bad}), 100.0))
    passes(checks.check_exit("ok", 0))
    rejects(checks.check_exit("non-zero exit", 1, "Traceback ...\nValueError: boom"))


@case
def reduced_copy_matches_sparse_reference():
    """The benchmark's 13x13 copy gives the same C000_000 = F_cw as its own
    sparse six-qubit generator, so the coupling-reduction reference does
    not rest on cqec."""
    times, f, p = checks.six_qubit_reference(10.0, 1.0, 11)
    m = checks.reduced_matrix(10.0)
    x0 = np.zeros(13)
    x0[0] = 1.0
    c = np.array([(scipy.linalg.expm(m * t) @ x0) for t in times])
    assert np.max(np.abs(c[:, 0] - f)) < 1e-10, np.max(np.abs(c[:, 0] - f))
    assert np.max(np.abs(c[:, 0] + c[:, 12] - p)) < 1e-10
    # the slow pair sits near +-24i/R^2 - 144/R^3
    w = 2.0 / checks.coupling_reduction(100.0)
    assert abs(w - 24.0 / 100.0**2) < 0.01 * 24.0 / 100.0**2


@case
def real_ops():
    """Real cqec outputs pass; the same outputs, perturbed, do not."""
    ops = [workloads.SMALL_REGISTER[2], workloads.SMALL_REGISTER[4],
           dict(workloads.SMALL_REGISTER[6], n_traj=200)]
    ctx = workloads.Context(ops)
    refs = json.loads(json.dumps(workloads.references(ops)))
    for op in ops:
        out = workloads.run_op(ctx, op, seed=3)
        passes(workloads.check_op(op, out, refs[op["name"]]))
        for key in ("F", "mean"):
            if key in out:
                out[key] = out[key] + np.r_[0.0, np.full(len(out[key]) - 1, 0.03)]
        rejects(workloads.check_op(op, out, refs[op["name"]]))


def main():
    bad = 0
    for fn in CASES:
        try:
            fn()
            print(f"ok    {fn.__name__}")
        except AssertionError as exc:
            bad += 1
            print(f"FAIL  {fn.__name__}: {exc}")
    print(f"{len(CASES) - bad}/{len(CASES)} self-tests passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
