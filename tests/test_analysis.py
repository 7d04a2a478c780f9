import numpy as np
import pytest

from cqec.codes_and_maps import SCENARIOS, ModelParams, total_generator, scenario_rho0
from cqec.dynamics import integrate, propagate_linear
from cqec.reduced_model import build_reduced_matrix, initial_reduced_state
from cqec.analysis import (
    FitError,
    ObservableSample,
    coupling_reduction_scan,
    equilibrium_point,
    equilibrium_scan,
    error_rate_series,
    fit_damped_cosine,
    fit_power_law,
    fit_quadratic,
    match_spectrum,
    observables,
)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def _markov_traj(lam, kappa, t_max, n):
    gen = total_generator("markovian-1q", ModelParams(lam=lam, kappa=kappa))
    return integrate(gen, scenario_rho0("markovian-1q"), t_max, n_samples=n)


def test_observable_sample_invariant():
    ObservableSample(0.0, 0.5, 0.7, 0.1)
    with pytest.raises(ValueError):
        ObservableSample(0.0, 0.8, 0.7, 0.1)  # F_cw above P_cs
    with pytest.raises(ValueError):
        ObservableSample(0.0, 0.5, 1.2, 0.1)  # weight above 1


def test_error_rate_needs_three_samples():
    with pytest.raises(ValueError):
        error_rate_series(np.array([0.0, 1.0]), np.array([1.0, 0.9]))


def test_error_rate_initial_value():
    # F = (1 + exp(-2t))/2 without correction, so Lambda(0) = lambda;
    # the one-sided difference is first-order accurate in the spacing
    traj = _markov_traj(1.0, 0.0, 0.01, 11)
    obs = observables(traj, SCENARIOS["markovian-1q"].code())
    assert obs[0].error_rate == pytest.approx(1.0, abs=0.01)


def test_error_rate_vanishes_at_equilibrium():
    traj = _markov_traj(1.0, 2.0, 10.0, 101)
    obs = observables(traj, SCENARIOS["markovian-1q"].code())
    assert abs(obs[-1].error_rate) < 1e-8


def test_error_rate_integrates_back_to_fidelity_drop():
    traj = _markov_traj(1.0, 2.0, 2.0, 401)
    obs = observables(traj, SCENARIOS["markovian-1q"].code())
    lam = np.array([o.error_rate for o in obs])
    f = np.array([o.f_cw for o in obs])
    recovered = np.trapezoid(lam, traj.times)
    assert recovered == pytest.approx(f[0] - f[-1], abs=1e-4)


def test_fidelity_below_weight_along_trajectory():
    gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=5.0))
    traj = integrate(gen, scenario_rho0("markovian-3q"), 2.0, n_samples=41)
    for o in observables(traj, SCENARIOS["markovian-3q"].code()):
        assert o.f_cw <= o.p_cs + 1e-9


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def test_power_law_exact_data():
    xs = np.array([1.0, 3.0, 10.0, 30.0, 100.0])
    fit = fit_power_law(list(zip(xs, 7.0 / xs)))
    assert fit.params["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert fit.params["prefactor"] == pytest.approx(7.0, rel=1e-12)
    assert fit.stderr["slope"] < 1e-12
    assert fit.model == "power-law"
    assert fit.window == (1.0, 100.0)


def test_power_law_scale_invariance():
    xs = np.array([2.0, 5.0, 11.0, 23.0])
    ys = 0.3 * xs**-1.7
    s1 = fit_power_law(list(zip(xs, ys))).params["slope"]
    s2 = fit_power_law(list(zip(100.0 * xs, ys))).params["slope"]
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_power_law_input_guards():
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, 0.5), (3.0, 0.3)])  # too few
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, -0.5), (3.0, 0.3), (4.0, 0.2)])


def test_damped_cosine_exact_data():
    t = np.linspace(0.0, 40.0, 600)
    v = 0.45 + 0.55 * np.exp(-0.03 * t) * np.cos(0.9 * t)
    fit = fit_damped_cosine(t, v)
    assert fit.params["offset"] == pytest.approx(0.45, rel=1e-3)
    assert fit.params["amplitude"] == pytest.approx(0.55, rel=1e-3)
    assert fit.params["decay"] == pytest.approx(0.03, rel=1e-3)
    assert fit.params["omega"] == pytest.approx(0.9, rel=1e-3)


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
def test_damped_cosine_guards():
    with pytest.raises(FitError):
        fit_damped_cosine([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
    # converges, but the window holds less than one period
    t = np.linspace(0.0, 50.0, 200)
    with pytest.raises(FitError):
        fit_damped_cosine(t, 0.5 + 0.1 * np.cos(0.05 * t))


def test_quadratic_fit():
    t = np.linspace(0.0, 1e-2, 50)
    fit = fit_quadratic(t, 3.0 * t * t)
    assert fit.params["c2"] == pytest.approx(3.0, rel=1e-12)
    assert fit.model == "quadratic"


# ---------------------------------------------------------------------------
# spectrum matching
# ---------------------------------------------------------------------------


def test_match_spectrum_reduced_model_r100():
    vals = np.linalg.eigvals(build_reduced_matrix(100.0))
    matches = match_spectrum(vals, 100.0)
    assert len(matches) == 13
    assert all(m.ok for m in matches)
    kinds = [m.kind for m in matches]
    assert kinds.count("zero") == 1
    assert kinds.count("fast") == 10
    assert kinds.count("slow") == 2
    # assignment is a bijection
    assert len({m.numerical for m in matches}) == 13


def test_match_spectrum_needs_13_values():
    with pytest.raises(ValueError):
        match_spectrum(np.zeros(12), 100.0)


def test_match_spectrum_flags_wrong_input():
    vals = np.linalg.eigvals(build_reduced_matrix(100.0)) + 0.5
    matches = match_spectrum(vals, 100.0)
    assert not all(m.ok for m in matches)


# ---------------------------------------------------------------------------
# equilibrium scans
# ---------------------------------------------------------------------------


def test_equilibrium_point_markovian():
    # exact equilibrium infidelity is 1/(2 + r)
    assert equilibrium_point("markovian-1q", 98.0) == pytest.approx(0.01, rel=1e-6)


def test_equilibrium_point_pair_coupled():
    # exact equilibrium infidelity is 2/(4 + R^2)
    assert equilibrium_point("hamiltonian-1q", 14.0) == pytest.approx(0.01, rel=1e-6)


def test_equilibrium_scan_guards():
    with pytest.raises(ValueError):
        equilibrium_scan("markovian-1q", [10.0, 30.0, 100.0])
    with pytest.raises(ValueError):
        equilibrium_scan("no-such-scenario", [10.0, 30.0, 100.0, 300.0])


def test_markovian_scan_points_match_closed_form():
    rates = [10.0, 30.0, 100.0, 300.0, 1000.0]
    for r, q in equilibrium_scan("markovian-1q", rates):
        assert q == pytest.approx(1.0 / (2.0 + r), rel=1e-6)


def test_markovian_scan_slope():
    # the infidelity is exactly 1/(2 + r); on this grid its log-log slope is
    # -0.964 (the -1 asymptote needs r >> 2, see test_acceptance criterion 7)
    grid = np.array([10.0, 30.0, 100.0, 300.0, 1000.0])
    fit = fit_power_law(equilibrium_scan("markovian-1q", grid))
    ref = fit_power_law(zip(grid, 1.0 / (2.0 + grid)))
    assert fit.params["slope"] == pytest.approx(ref.params["slope"], abs=1e-6)


def test_pair_coupled_scan_points_and_slope():
    rates = [10.0, 30.0, 100.0, 300.0, 1000.0]
    points = equilibrium_scan("hamiltonian-1q", rates)
    for big_r, q in points:
        assert q == pytest.approx(2.0 / (4.0 + big_r**2), rel=1e-6)
    fit = fit_power_law(points)
    assert fit.params["slope"] == pytest.approx(-2.0, abs=0.02)


def test_coupling_reduction_factor():
    pairs = coupling_reduction_scan([30.0, 50.0, 100.0, 200.0])
    factors = dict(pairs)
    # correction slows the coherent rotation by about R^2 / 12
    assert factors[100.0] == pytest.approx(100.0**2 / 12.0, rel=0.02)
    fit = fit_power_law(pairs)
    assert fit.params["slope"] == pytest.approx(2.0, abs=0.1)


def _slow_eigenvalue_near_prediction(big_r):
    """The eigenvalue of the reduced matrix nearest the leading slow form
    24 i / R^2 - 144 / R^3, picked without reduced_model.slow_eigenvalue."""
    w = np.linalg.eigvals(build_reduced_matrix(big_r))
    return w[np.argmin(np.abs(w - (24j / big_r**2 - 144.0 / big_r**3)))]


def test_coupling_reduction_is_twice_inverse_slow_frequency():
    rates = [30.0, 50.0, 100.0, 200.0]
    for big_r, factor in coupling_reduction_scan(rates):
        omega = abs(_slow_eigenvalue_near_prediction(big_r).imag)
        assert factor == pytest.approx(2.0 / omega, rel=1e-12)


def test_coupling_reduction_resolves_large_r():
    # at R = 3e4 the slow frequency 24/R^2 = 2.7e-8 is a few 1e-13 of
    # max|lambda| = 3e4, and still resolved to 1e-6
    for big_r, factor in coupling_reduction_scan([1e3, 3e3, 1e4, 3e4]):
        assert factor == pytest.approx(big_r**2 / 12.0, rel=1e-4)


def test_coupling_reduction_scan_guard():
    with pytest.raises(ValueError):
        coupling_reduction_scan([30.0, 50.0, 100.0])


# ---------------------------------------------------------------------------
# slow-mode fits on the reduced model
# ---------------------------------------------------------------------------


def _slow_fit(big_r):
    m = build_reduced_matrix(big_r)
    x0 = initial_reduced_state().coeffs
    period = 2 * np.pi * big_r**2 / 24.0
    times = np.linspace(0.0, 2.0 * period, 3001)
    xs = propagate_linear(m, x0, times).real
    return fit_damped_cosine(times, xs[:, 0])


def test_slow_mode_fit_r100():
    fit = _slow_fit(100.0)
    assert fit.params["omega"] == pytest.approx(24.0 / 100.0**2, rel=0.01)
    assert fit.params["decay"] == pytest.approx(144.0 / 100.0**3, rel=0.2)


@pytest.mark.parametrize("big_r", [30.0, 50.0, 100.0, 200.0])
def test_slow_mode_fit_matches_eigenvalue(big_r):
    """The damped-cosine fit stays an independent check of the eigenvalue
    that the scans use."""
    omega = abs(_slow_eigenvalue_near_prediction(big_r).imag)
    assert _slow_fit(big_r).params["omega"] == pytest.approx(omega, rel=1e-3)


def test_slow_mode_fit_r50():
    fit = _slow_fit(50.0)
    assert fit.params["omega"] == pytest.approx(24.0 / 50.0**2, rel=0.02)
