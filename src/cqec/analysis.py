"""Observables and model checks: codeword fidelity, code-space weight,
instantaneous error rate, the power-law fit of a scan, predicted-spectrum
matching, and equilibrium scans.

The instantaneous error rate Lambda(t) = -dF_cw/dt is always computed
from the sampled fidelity by centered finite differences (one-sided at
the ends), never from the generator, so it means the same thing for
full, reduced, discrete-step, and Monte Carlo trajectories.  Keep the
sample spacing below ~0.1/max(kappa, gamma, lambda) if you care about
its accuracy.

The equilibrium infidelity of a scan is read from the stationary state of
the generator, found by one linear solve per rate; no time propagation
and no horizon are involved.
"""

from collections import namedtuple

import numpy as np

from .codes_and_maps import SCENARIOS, ModelParams, total_generator, scenario_rho0
from .dynamics import invariant_subspace
from .closed_forms import predicted_spectrum
from . import reduced_model


class FitError(RuntimeError):
    """The power-law fit of a scan failed; the message says why."""


class PlateauError(RuntimeError):
    """The restricted generator has no unique stationary state of unit
    trace, so the equilibrium is not defined."""


class ObservableSample(namedtuple("ObservableSample", "time f_cw p_cs error_rate")):
    """One sample of a trajectory's observables, a tuple record (time, f_cw,
    p_cs, error_rate) of Python floats: the codeword fidelity F_cw =
    <psi_bar| rho_S |psi_bar>, the code-space weight P_cs = Tr(P_code rho_S)
    and Lambda = -dF_cw/dt.  Construction checks 0 <= F_cw <= P_cs <= 1 to
    rounding and raises ValueError otherwise."""

    __slots__ = ()

    def __new__(cls, time, f_cw, p_cs, error_rate):
        if not (-1e-9 <= f_cw <= p_cs + 1e-9 <= 1.0 + 2e-9):
            raise ValueError(
                f"invalid sample: F_cw={f_cw}, P_cs={p_cs} "
                "(need 0 <= F_cw <= P_cs <= 1)"
            )
        return tuple.__new__(cls, (time, f_cw, p_cs, error_rate))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def fidelity_weight_series(traj, code):
    """(F_cw, P_cs) arrays of a trajectory without the differentiation step:
    F_cw = Tr[(|0_L><0_L| (x) I_bath) rho] and P_cs = Tr[(P_code (x) I_bath)
    rho], both sums over the diagonal of rho weighted by
    ``code.diagonal_weights``, taken for all samples at once from the
    coordinates (no d x d state is built).  On the 13 class states of the
    reduced model these are C000_000 and C000_000 + C111_111."""
    d = int(np.sqrt(len(traj.basis)))
    fp = (traj.coords @ (traj.basis[:: d + 1].T @ code.diagonal_weights(d))).real
    return fp[:, 0], fp[:, 1]


def error_rate_series(times, fidelity):
    """Lambda = -dF/dt by centered differences, one-sided at the ends."""
    if len(times) < 2:
        raise ValueError("need at least 2 samples to differentiate")
    lam = np.empty(len(times))
    lam[1:-1] = -(fidelity[2:] - fidelity[:-2]) / (times[2:] - times[:-2])
    lam[0] = -(fidelity[1] - fidelity[0]) / (times[1] - times[0])
    lam[-1] = -(fidelity[-1] - fidelity[-2]) / (times[-1] - times[-2])
    return lam


def observables(traj, code):
    """Per-sample (F_cw, P_cs, Lambda) of a trajectory, as a list of
    ``ObservableSample``.  A single sample (t_max = 0) has Lambda = 0."""
    f, p = fidelity_weight_series(traj, code)
    lam = error_rate_series(traj.times, f) if len(traj) > 1 else np.zeros(1)
    # .tolist() columns hold Python floats already
    return list(map(ObservableSample, traj.times.tolist(), f.tolist(), p.tolist(),
                    lam.tolist()))


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def fit_power_law(points):
    """Least-squares slope of log y vs log x.

    `points` is a sequence of (x, y) pairs, all positive, at least 4 of
    them.  Returns the JSON record of ``scan --fit``: {"model":
    "power-law", "params": {slope, prefactor} of y = prefactor * x**slope,
    "stderr": their standard errors from the linear regression, "residual":
    the rms of the log residuals, "window": [min x, max x]}, all Python
    floats.  Fewer than two distinct log x, where no slope is defined, or a
    residual that is not finite raises ValueError.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ValueError("need at least 4 (x, y) points")
    if np.any(pts <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    if np.all(lx == lx[0]):
        raise ValueError("power-law fit needs at least two distinct x")
    a = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, ly, rcond=None)
    fitted = a @ coef
    n = len(lx)
    dof = max(n - 2, 1)
    s2 = float(np.sum((ly - fitted) ** 2)) / dof
    cov = s2 * np.linalg.inv(a.T @ a)
    slope, intercept = coef
    residual = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    if not np.isfinite(residual):
        raise ValueError("residual norm must be finite")
    return {
        "model": "power-law",
        "params": {"slope": float(slope), "prefactor": float(np.exp(intercept))},
        "stderr": {
            "slope": float(np.sqrt(cov[0, 0])),
            "prefactor": float(np.exp(intercept) * np.sqrt(cov[1, 1])),
        },
        "residual": residual,
        "window": [float(pts[:, 0].min()), float(pts[:, 0].max())],
    }


# ---------------------------------------------------------------------------
# spectrum matching
# ---------------------------------------------------------------------------


def _band_ok(kind, predicted, numerical, big_r, gamma):
    if kind == "zero":
        return abs(numerical) <= 1e-10 * gamma
    if kind == "fast":
        return abs(numerical - predicted) <= 10.0 * gamma / big_r
    return (
        abs(numerical.imag - predicted.imag) <= 0.01 * abs(predicted.imag)
        and abs(numerical.real - predicted.real) <= 0.20 * abs(predicted.real)
    )


def match_spectrum(numerical, big_r, gamma=1.0):
    """Pair 13 numerical eigenvalues with the predicted leading forms.

    Greedy nearest-neighbor assignment followed by 2-opt swaps until the
    total distance is locally minimal (the spectrum is well-separated for
    R >= 10, so this settles immediately in practice).  Band tests: the
    zero mode at 1e-10, fast eigenvalues within 10 gamma / R, the slow
    pair within 1% (imaginary) / 20% (real) of its leading form.  Returns
    the 13 ``entries`` records of ``eig.json``, in predicted order:
    {"predicted": [re, im], "numerical": [re, im], "residual_over_gamma",
    "kind": "zero" | "fast" | "slow", "ok": whether it is in its band}.
    """
    numerical = np.asarray(numerical, dtype=complex)
    if numerical.shape != (13,):
        raise ValueError("expected 13 eigenvalues")
    predicted = predicted_spectrum(big_r, gamma)
    kinds = ["zero"] + ["fast"] * 10 + ["slow"] * 2
    order = []  # greedy: each predicted value takes its nearest unassigned eigenvalue
    for p in predicted:
        order.append(min((abs(p - numerical[j]), j) for j in range(13) if j not in order)[1])
    # 2-opt: swap assignments while it shrinks the total distance.  The sums
    # are of half distances (exact in binary), so that two distances near the
    # largest float do not overflow at R ~ 1e-102.
    improved = True
    while improved:
        improved = False
        for i in range(13):
            for k in range(i + 1, 13):
                now = 0.5 * abs(predicted[i] - numerical[order[i]]) + 0.5 * abs(
                    predicted[k] - numerical[order[k]]
                )
                swapped = 0.5 * abs(predicted[i] - numerical[order[k]]) + 0.5 * abs(
                    predicted[k] - numerical[order[i]]
                )
                if swapped < now - 0.5e-15:
                    order[i], order[k] = order[k], order[i]
                    improved = True
    return [{"predicted": [float(p.real), float(p.imag)],
             "numerical": [float(num.real), float(num.imag)],
             "residual_over_gamma": float(abs(num - p) / gamma),
             "kind": kind,
             "ok": bool(_band_ok(kind, p, num, big_r, gamma))}
            for p, kind, num in zip(predicted, kinds, numerical[order])]


# ---------------------------------------------------------------------------
# equilibrium scans
# ---------------------------------------------------------------------------


def _stationary_infidelities(scenario, rates):
    """1 - P_cs of the stationary state at each rate.  The noise n at unit
    rate and the correction c of the scenario's ``Generator`` are restricted
    once, to the Krylov coordinates of rho0 under both, so the subspace does
    not depend on the rate.  (n + rate c) x = 0 is solved with its equation
    of the largest trace coefficient (redundant: tr @ n = tr @ c = 0)
    replaced by tr(q x) = 1 (W. J. Stewart, Introduction to the Numerical
    Solution of Markov Chains, 1994).  1 - P_cs is summed over the diagonal
    outside the codewords, so it keeps its relative precision when small.
    No unique solution raises PlateauError."""
    spec = SCENARIOS[scenario]
    gen = total_generator(scenario, ModelParams(lam=1.0, gamma=1.0))  # the noise at unit rate
    rho0 = scenario_rho0(scenario)
    d = rho0.shape[0]
    q, (n, c) = invariant_subspace([gen.noise, gen.correction], rho0)
    tr = np.ones(d) @ q[:: d + 1]  # tr(q x) = tr @ x
    i = int(np.argmax(np.abs(tr)))
    leak = (1.0 - spec.code().diagonal_weights(d)[:, 1]) @ q[:: d + 1]  # 1 - P_cs = leak @ x
    out = []
    for rate in rates:
        a = n + rate * c
        a[i] = tr
        try:
            out.append(float((leak @ np.linalg.solve(a, np.eye(len(tr))[i])).real))
        except np.linalg.LinAlgError as exc:
            msg = f"no unique stationary state for {scenario} at rate {rate:g}"
            raise PlateauError(msg) from exc
    return out


def equilibrium_scan(scenario, rates):
    """Equilibrium infidelity 1 - P_cs for each rate in `rates`: one
    stationary solve per rate on one rate-free restriction
    (``_stationary_infidelities``).

    Rates are dimensionless (r = kappa/lambda or R = kappa/gamma depending
    on the scenario).  The pair-coupled three-qubit model is scanned by
    ``coupling_reduction_scan`` instead: its slow oscillation, not its
    t -> infinity limit, carries the paper's result.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == "hamiltonian-3q":
        raise ValueError("scan hamiltonian-3q with coupling_reduction_scan")
    rates = [float(rate) for rate in rates]
    if len(rates) < 4:
        raise ValueError("need a grid of at least 4 rate values")
    return list(zip(rates, _stationary_infidelities(scenario, rates)))


def coupling_reduction_scan(big_rs):
    """Effective coupling-reduction factor 2 gamma / omega_slow vs R.

    omega_slow is the imaginary part of the slow eigenvalue of the reduced
    13x13 generator (``reduced_model.slow_eigenvalue``); an uncorrected
    logical qubit oscillates at 2 gamma, so 2 gamma / omega_slow is the
    factor by which correction slows the loss (expected to grow like
    R^2 / 12).
    """
    big_rs = list(big_rs)
    if len(big_rs) < 4:
        raise ValueError("need a grid of at least 4 R values")
    return [
        (r, 2.0 / reduced_model.slow_eigenvalue(reduced_model.build_reduced_matrix(r)).imag)
        for r in big_rs
    ]
