"""Observables and model checks: codeword fidelity, code-space weight,
instantaneous error rate, power-law / damped-cosine / quadratic fits,
predicted-spectrum matching, and equilibrium scans.

The instantaneous error rate Lambda(t) = -dF_cw/dt is always computed
from the sampled fidelity by centered finite differences (one-sided at
the ends), never from the generator, so it means the same thing for
full, reduced, discrete-step, and Monte Carlo trajectories.  Keep the
sample spacing below ~0.1/max(kappa, gamma, lambda) if you care about
its accuracy.
"""

from dataclasses import dataclass

import numpy as np

from .tensor_core import basis_ket, partial_trace_bath
from .codes_and_maps import SCENARIOS, ModelParams, total_generator, scenario_rho0
from .dynamics import propagate_linear, restrict_generator
from .closed_forms import predicted_spectrum
from . import reduced_model


class FitError(RuntimeError):
    """Nonlinear fit failed to converge; message carries diagnostics."""


class PlateauError(RuntimeError):
    """Equilibrium detection ran out of horizon without converging."""


@dataclass(frozen=True)
class ObservableSample:
    time: float
    f_cw: float  # codeword fidelity <psi_bar| rho_S |psi_bar>
    p_cs: float  # code-space weight Tr(P_code rho_S)
    error_rate: float  # Lambda = -dF_cw/dt

    def __post_init__(self):
        if not (-1e-9 <= self.f_cw <= self.p_cs + 1e-9 <= 1.0 + 2e-9):
            raise ValueError(
                f"invalid sample: F_cw={self.f_cw}, P_cs={self.p_cs} "
                "(need 0 <= F_cw <= P_cs <= 1)"
            )


@dataclass
class FitResult:
    model: str  # "power-law" | "damped-cosine" | "quadratic"
    params: dict
    stderr: dict
    residual: float
    window: tuple

    def __post_init__(self):
        if self.model not in ("power-law", "damped-cosine", "quadratic"):
            raise ValueError(f"unknown fit model {self.model!r}")
        if not np.isfinite(self.residual):
            raise ValueError("residual norm must be finite")

    def to_json(self):
        return {
            "model": self.model,
            "params": {k: float(v) for k, v in self.params.items()},
            "stderr": {k: float(v) for k, v in self.stderr.items()},
            "residual": float(self.residual),
            "window": [float(self.window[0]), float(self.window[1])],
        }


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def fidelity_weight_series(traj, code=None, logical_state=None):
    """(F_cw, P_cs) arrays of a trajectory without the differentiation step."""
    if traj.kind == "reduced":
        f = traj.states[:, 0].astype(float)
        p = (traj.states[:, 0] + traj.states[:, 12]).astype(float)
        return f, p
    assert code is not None, "density trajectories need the code for observables"
    if logical_state is None:
        logical_state = basis_ket(code.logical_zero, code.system_count)
    logical = np.asarray(logical_state, dtype=complex).reshape(-1)
    proj = code.code_projector()
    nb = traj.register.bath_count if traj.register is not None else 0
    f = np.empty(len(traj))
    p = np.empty(len(traj))
    for i, rho in enumerate(traj.states):
        sys = partial_trace_bath(rho, code.system_count, nb) if nb else rho
        f[i] = np.real(logical.conj() @ sys @ logical)
        p[i] = np.real(np.trace(proj @ sys))
    return f, p


def error_rate_series(times, fidelity):
    """Lambda = -dF/dt by centered differences, one-sided at the ends."""
    if len(times) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    lam = np.empty(len(times))
    lam[1:-1] = -(fidelity[2:] - fidelity[:-2]) / (times[2:] - times[:-2])
    lam[0] = -(fidelity[1] - fidelity[0]) / (times[1] - times[0])
    lam[-1] = -(fidelity[-1] - fidelity[-2]) / (times[-1] - times[-2])
    return lam


def observables(traj, code=None, logical_state=None):
    """Per-sample (F_cw, P_cs, Lambda) for any trajectory kind."""
    f, p = fidelity_weight_series(traj, code, logical_state)
    lam = error_rate_series(traj.times, f)
    return [
        ObservableSample(float(t), float(fi), float(pi), float(li))
        for t, fi, pi, li in zip(traj.times, f, p, lam)
    ]


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def fit_power_law(points):
    """Least-squares slope of log y vs log x.

    `points` is a sequence of (x, y) pairs, all positive, at least 4 of
    them.  Returns slope and prefactor of y = prefactor * x**slope with
    standard errors from the linear regression.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ValueError("need at least 4 (x, y) points")
    if np.any(pts <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    a = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, ly, rcond=None)
    fitted = a @ coef
    n = len(lx)
    dof = max(n - 2, 1)
    s2 = float(np.sum((ly - fitted) ** 2)) / dof
    cov = s2 * np.linalg.inv(a.T @ a)
    slope, intercept = coef
    return FitResult(
        model="power-law",
        params={"slope": slope, "prefactor": np.exp(intercept)},
        stderr={
            "slope": np.sqrt(cov[0, 0]),
            "prefactor": np.exp(intercept) * np.sqrt(cov[1, 1]),
        },
        residual=float(np.sqrt(np.mean((ly - fitted) ** 2))),
        window=(float(pts[:, 0].min()), float(pts[:, 0].max())),
    )


def _damped_cosine(t, offset, amplitude, decay, omega):
    return offset + amplitude * np.exp(-decay * t) * np.cos(omega * t)


def fit_damped_cosine(times, values):
    """Fit offset + amplitude * exp(-decay t) * cos(omega t).

    Initial guesses: omega from the FFT peak of the detrended series,
    decay from the amplitude drop between the two halves of the window.
    Raises FitError when the optimizer does not converge or the window
    is shorter than one fitted period.
    """
    import scipy.optimize  # only here: keeps scipy out of `import cqec`

    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 8:
        raise FitError("too few samples for a damped-cosine fit")
    offset0 = 0.5 * (v.max() + v.min())
    amp0 = 0.5 * (v.max() - v.min())
    dt = t[1] - t[0]
    spectrum = np.abs(np.fft.rfft(v - v.mean()))
    freqs = np.fft.rfftfreq(len(v), dt)
    omega0 = 2 * np.pi * freqs[np.argmax(spectrum[1:]) + 1]
    half = len(v) // 2
    a1 = np.std(v[:half]) + 1e-30
    a2 = np.std(v[half:]) + 1e-30
    span = t[-1] - t[0]
    decay0 = max(2.0 * np.log(a1 / a2) / span, 1e-12)
    p0 = [offset0, amp0, decay0, omega0]
    try:
        popt, pcov = scipy.optimize.curve_fit(
            _damped_cosine, t, v, p0=p0, maxfev=20000
        )
    except RuntimeError as exc:
        raise FitError(f"damped-cosine fit did not converge (p0={p0}): {exc}") from exc
    offset, amplitude, decay, omega = popt
    omega = abs(omega)
    if span * omega < 2 * np.pi:
        raise FitError(
            f"window ({span:g}) shorter than one fitted period ({2 * np.pi / omega:g})"
        )
    err = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    resid = float(np.sqrt(np.mean((v - _damped_cosine(t, *popt)) ** 2)))
    return FitResult(
        model="damped-cosine",
        params={"offset": offset, "amplitude": amplitude, "decay": decay, "omega": omega},
        stderr={"offset": err[0], "amplitude": err[1], "decay": err[2], "omega": err[3]},
        residual=resid,
        window=(float(t[0]), float(t[-1])),
    )


def fit_quadratic(times, values):
    """Fit values = c2 * t^2 (short-time fidelity loss); returns c2."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least 3 samples")
    t2 = t * t
    c2 = float(np.dot(t2, v) / np.dot(t2, t2))
    resid = v - c2 * t2
    dof = max(len(t) - 1, 1)
    stderr = float(np.sqrt(np.sum(resid**2) / dof / np.dot(t2, t2)))
    return FitResult(
        model="quadratic",
        params={"c2": c2},
        stderr={"c2": stderr},
        residual=float(np.sqrt(np.mean(resid**2))),
        window=(float(t[0]), float(t[-1])),
    )


# ---------------------------------------------------------------------------
# spectrum matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchedEigenvalue:
    predicted: complex
    numerical: complex
    residual_over_gamma: float
    kind: str  # "zero" | "fast" | "slow"
    ok: bool


def _band_ok(kind, predicted, numerical, big_r, gamma):
    if kind == "zero":
        return abs(numerical) <= 1e-10 * gamma
    if kind == "fast":
        return abs(numerical - predicted) <= 10.0 * gamma / big_r
    im_ref = 24.0 * gamma / big_r**2 * np.sign(predicted.imag)
    re_ref = -144.0 * gamma / big_r**3
    return (
        abs(numerical.imag - im_ref) <= 0.01 * abs(im_ref)
        and abs(numerical.real - re_ref) <= 0.20 * abs(re_ref)
    )


def match_spectrum(numerical, big_r, gamma=1.0):
    """Pair 13 numerical eigenvalues with the predicted leading forms.

    Greedy nearest-neighbor assignment followed by 2-opt swaps until the
    total distance is locally minimal (the spectrum is well-separated for
    R >= 10, so this settles immediately in practice).  Band tests: the
    zero mode at 1e-10, fast eigenvalues within 10 gamma / R, the slow
    pair within 1% (imaginary) / 20% (real) of its leading form.
    """
    numerical = np.asarray(numerical, dtype=complex)
    if numerical.shape != (13,):
        raise ValueError("expected 13 eigenvalues")
    predicted = predicted_spectrum(big_r, gamma)
    kinds = ["zero"] + ["fast"] * 10 + ["slow"] * 2
    order = []
    used = set()
    for p in predicted:
        dists = [
            (abs(p - numerical[j]), j) for j in range(13) if j not in used
        ]
        _, j = min(dists)
        used.add(j)
        order.append(j)
    # 2-opt: swap assignments while it shrinks the total distance
    improved = True
    while improved:
        improved = False
        for i in range(13):
            for k in range(i + 1, 13):
                now = abs(predicted[i] - numerical[order[i]]) + abs(
                    predicted[k] - numerical[order[k]]
                )
                swapped = abs(predicted[i] - numerical[order[k]]) + abs(
                    predicted[k] - numerical[order[i]]
                )
                if swapped < now - 1e-15:
                    order[i], order[k] = order[k], order[i]
                    improved = True
    out = []
    for i, (p, kind) in enumerate(zip(predicted, kinds)):
        num = numerical[order[i]]
        out.append(
            MatchedEigenvalue(
                predicted=complex(p),
                numerical=complex(num),
                residual_over_gamma=float(abs(num - p) / gamma),
                kind=kind,
                ok=bool(_band_ok(kind, p, num, big_r, gamma)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# equilibrium scans
# ---------------------------------------------------------------------------


def _plateau_infidelity(scenario, rate):
    """1 - P_cs once its relative change over the last decade of time
    drops below 1e-4 (noise rate normalized to 1), propagated exactly in
    the Krylov space of rho0.  1 - P_cs is summed directly over the
    diagonal outside the codewords, so it keeps its relative precision
    when it is small."""
    spec = SCENARIOS[scenario]
    if spec.time_unit == "lambda":
        params = ModelParams(lam=1.0, kappa=rate)
    else:
        params = ModelParams(gamma=1.0, kappa=rate)
    rho0 = scenario_rho0(scenario)
    basis, gen = restrict_generator(total_generator(scenario, params), rho0)
    c0 = basis.conj().T @ rho0.ravel()
    # 1 - P_cs = leak @ coordinates: the diagonal entries of rho whose
    # system index is not a codeword
    code = spec.code()
    d, db = rho0.shape[0], 2**spec.register.bath_count
    outside = 1.0 - np.kron(np.diag(code.code_projector()).real, np.ones(db))
    leak = outside @ basis[:: d + 1]
    horizon = 1.0
    for _ in range(20):
        q_prev, q = (propagate_linear(gen, c0, [horizon / 10.0, horizon]) @ leak).real
        if abs(q - q_prev) <= 1e-4 * max(abs(q), 1e-300):
            return q
        horizon *= 10.0
    raise PlateauError(f"no plateau for {scenario} at rate {rate:g}")


def _period_average_infidelity(big_r):
    """Quasi-stationary 1 - P_cs of the pair-coupled three-qubit model:
    average over one period of the slow mode of the reduced model."""
    m = reduced_model.build_reduced_matrix(big_r, 1.0)
    period = 2 * np.pi / reduced_model.slow_eigenvalue(m).imag
    # 1.6 leading-order periods 2 pi R^2 / 24, or the true period where that
    # is longer (R below ~10)
    times = np.linspace(0.0, max(1.6 * 2 * np.pi * big_r**2 / 24.0, period), 2001)
    xs = propagate_linear(m, reduced_model.initial_reduced_state().coeffs, times).real
    mask = times <= period
    p_cs = xs[mask, 0] + xs[mask, 12]
    return float(np.mean(1.0 - p_cs))


def equilibrium_point(scenario, rate):
    """Equilibrium infidelity of one scenario at one dimensionless rate."""
    if scenario == "hamiltonian-3q":
        return _period_average_infidelity(rate)
    return _plateau_infidelity(scenario, rate)


def equilibrium_scan(scenario, rates):
    """Equilibrium infidelity 1 - P_cs for each rate in `rates`.

    Rates are dimensionless (r = kappa/lambda or R = kappa/gamma depending
    on the scenario).  Plateau detection integrates by decades until the
    infidelity settles; the oscillatory pair-coupled three-qubit case is
    averaged over one slow period instead.  A point without a plateau
    raises PlateauError.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    rates = list(rates)
    if len(rates) < 4:
        raise ValueError("need a grid of at least 4 rate values")
    return [(rate, equilibrium_point(scenario, float(rate))) for rate in rates]


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
