import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cqec.codes_and_maps import SCENARIOS, ModelParams, total_generator, scenario_rho0
from cqec.dynamics import Trajectory, integrate
from cqec.tensor_core import basis_ket
from cqec.reduced_model import TRACE_WEIGHTS, build_reduced_matrix, slow_eigenvalue
from cqec.analysis import (
    ObservableSample,
    coupling_reduction_scan,
    equilibrium_scan,
    error_rate_series,
    fidelity_weight_series,
    fit_power_law,
    match_spectrum,
    observables,
)
from reference import code_projector, partial_trace_bath


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


def test_error_rate_needs_two_samples():
    """Two samples give the one-sided difference at both ends; one is too few."""
    lam = error_rate_series(np.array([0.0, 0.5]), np.array([1.0, 0.75]))
    assert np.array_equal(lam, [0.5, 0.5])
    with pytest.raises(ValueError, match="need at least 2 samples"):
        error_rate_series(np.array([0.0]), np.array([1.0]))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_observables_of_a_single_sample(scenario):
    """t_max = 0 gives the one sample rho0: F_cw = P_cs = 1 and Lambda = 0,
    the row that `simulate --t-max 0` writes."""
    spec = SCENARIOS[scenario]
    unit = {"lam": 1.0} if spec.time_unit == "lambda" else {"gamma": 1.0}
    gen = total_generator(scenario, ModelParams(kappa=3.0, **unit))
    traj = integrate(gen, scenario_rho0(scenario), 0.0)
    assert observables(traj, spec.code()) == [(0.0, 1.0, 1.0, 0.0)]


def test_observables_raise_on_an_invalid_sample():
    """A trajectory whose third sample has F_cw = 1 above P_cs = 0.5 (the
    weight -0.5 on |111><111|) raises the ObservableSample error for it."""
    rho0 = scenario_rho0("markovian-3q")
    bad = rho0.copy()
    bad[7, 7] = -0.5
    coords = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    traj = Trajectory(np.arange(4) * 0.1, coords, np.stack([rho0.ravel(), bad.ravel()], axis=1))
    with pytest.raises(ValueError, match=r"^invalid sample: F_cw=1\.0, P_cs=0\.5 \(need"):
        observables(traj, SCENARIOS["markovian-3q"].code())


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


@given(
    st.sampled_from(sorted(SCENARIOS)),
    st.floats(min_value=-6.0, max_value=5.0).map(lambda e: 10.0**e),
)
@settings(max_examples=30, deadline=None)
def test_stacked_fidelity_weight_matches_partial_trace(scenario, rate):
    """F_cw and P_cs from one product with the stacked states equal the
    per-sample partial trace over the bath, for the code's logical zero."""
    spec = SCENARIOS[scenario]
    code = spec.code()
    unit = {"lam": 1.0} if spec.time_unit == "lambda" else {"gamma": 1.0}
    gen = total_generator(scenario, ModelParams(kappa=rate, **unit))
    traj = integrate(gen, scenario_rho0(scenario), 1.0, n_samples=11)
    logical = basis_ket(code.logical_zero, code.system_count)[:, 0]
    f, p = fidelity_weight_series(traj, code)
    for i, rho in enumerate(traj.states):
        sys = partial_trace_bath(rho, code.system_count, spec.register.bath_count)
        assert abs(f[i] - np.real(logical.conj() @ sys @ logical)) <= 1e-14
        assert abs(p[i] - np.real(np.trace(code_projector(code) @ sys))) <= 1e-14


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def test_power_law_exact_data():
    xs = np.array([1.0, 3.0, 10.0, 30.0, 100.0])
    fit = fit_power_law(list(zip(xs, 7.0 / xs)))
    assert fit["params"]["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert fit["params"]["prefactor"] == pytest.approx(7.0, rel=1e-12)
    assert fit["stderr"]["slope"] < 1e-12
    assert fit["model"] == "power-law"
    assert fit["window"] == [1.0, 100.0]


def test_power_law_scale_invariance():
    xs = np.array([2.0, 5.0, 11.0, 23.0])
    ys = 0.3 * xs**-1.7
    s1 = fit_power_law(list(zip(xs, ys)))["params"]["slope"]
    s2 = fit_power_law(list(zip(100.0 * xs, ys)))["params"]["slope"]
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_power_law_input_guards():
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, 0.5), (3.0, 0.3)])  # too few
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, -0.5), (3.0, 0.3), (4.0, 0.2)])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_power_law_refuses_repeated_x(n):
    """A single distinct x defines no slope: with 4 equal points the normal
    matrix was singular, with 5 its inverse had a negative diagonal (a
    standard error of nan), so every count raises ValueError.  Two
    distinct x still fit."""
    ys = np.linspace(1.0, 2.0, n)
    with pytest.raises(ValueError, match="at least two distinct x"):
        fit_power_law([(1000.0, y) for y in ys])
    fit = fit_power_law([(10.0 if i % 2 else 1000.0, y) for i, y in enumerate(ys)])
    assert np.isfinite(fit["stderr"]["slope"])


# ---------------------------------------------------------------------------
# spectrum matching
# ---------------------------------------------------------------------------


def test_match_spectrum_reduced_model_r100():
    vals = np.linalg.eigvals(build_reduced_matrix(100.0))
    matches = match_spectrum(vals, 100.0)
    assert len(matches) == 13
    assert all(m["ok"] for m in matches)
    kinds = [m["kind"] for m in matches]
    assert kinds.count("zero") == 1
    assert kinds.count("fast") == 10
    assert kinds.count("slow") == 2
    # assignment is a bijection
    assert len({tuple(m["numerical"]) for m in matches}) == 13


def test_match_spectrum_needs_13_values():
    with pytest.raises(ValueError):
        match_spectrum(np.zeros(12), 100.0)


def test_match_spectrum_flags_wrong_input():
    vals = np.linalg.eigvals(build_reduced_matrix(100.0)) + 0.5
    matches = match_spectrum(vals, 100.0)
    assert not all(m["ok"] for m in matches)


# ---------------------------------------------------------------------------
# equilibrium scans
# ---------------------------------------------------------------------------


def test_equilibrium_point_markovian():
    # exact equilibrium infidelity is 1/(2 + r)
    points = dict(equilibrium_scan("markovian-1q", [98.0, 198.0, 398.0, 998.0]))
    assert points[98.0] == pytest.approx(0.01, rel=1e-6)


def test_equilibrium_point_pair_coupled():
    # exact equilibrium infidelity is 2/(4 + R^2)
    points = dict(equilibrium_scan("hamiltonian-1q", [14.0, 30.0, 100.0, 300.0]))
    assert points[14.0] == pytest.approx(0.01, rel=1e-6)


def test_equilibrium_scan_guards():
    with pytest.raises(ValueError):
        equilibrium_scan("markovian-1q", [10.0, 30.0, 100.0])
    with pytest.raises(ValueError):
        equilibrium_scan("no-such-scenario", [10.0, 30.0, 100.0, 300.0])
    with pytest.raises(ValueError, match="coupling_reduction_scan"):
        equilibrium_scan("hamiltonian-3q", [10.0, 30.0, 100.0, 300.0])


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
    assert fit["params"]["slope"] == pytest.approx(ref["params"]["slope"], abs=1e-6)


def test_pair_coupled_scan_points_and_slope():
    rates = [10.0, 30.0, 100.0, 300.0, 1000.0]
    points = equilibrium_scan("hamiltonian-1q", rates)
    for big_r, q in points:
        assert q == pytest.approx(2.0 / (4.0 + big_r**2), rel=1e-6)
    fit = fit_power_law(points)
    assert fit["params"]["slope"] == pytest.approx(-2.0, abs=0.02)


def test_coupling_reduction_factor():
    pairs = coupling_reduction_scan([30.0, 50.0, 100.0, 200.0])
    factors = dict(pairs)
    # correction slows the coherent rotation by about R^2 / 12
    assert factors[100.0] == pytest.approx(100.0**2 / 12.0, rel=0.02)
    fit = fit_power_law(pairs)
    assert fit["params"]["slope"] == pytest.approx(2.0, abs=0.1)


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
# the slow mode of the reduced model
# ---------------------------------------------------------------------------


def _slow_period_residual(big_r):
    """How far exp(M t) e0 is from one damped slow mode over one slow period.

    lambda = slow_eigenvalue(M), T = 2 pi / Im lambda, and x(t) = exp(M t) e0
    by scipy's expm, apart from propagate_linear.  After t0 = 60/R the fast
    modes have decayed by e^-60 or more, so x(t0 + T) - x_inf equals
    e^{Re lambda T} (x(t0) - x_inf), x_inf the null vector of M with unit
    weighted trace.  Returns the relative norm of the difference; T off by
    1e-3 makes it read ~1e-3."""
    m = build_reduced_matrix(big_r)
    lam = slow_eigenvalue(m)
    period = 2.0 * np.pi / lam.imag
    t0 = 60.0 / big_r
    x0, x1 = (scipy.linalg.expm(m * t)[:, 0] for t in (t0, t0 + period))
    null = np.linalg.svd(m)[2][-1]
    x_inf = null / (null[list(TRACE_WEIGHTS)] @ list(TRACE_WEIGHTS.values()))
    gap = (x1 - x_inf) - np.exp(lam.real * period) * (x0 - x_inf)
    return np.linalg.norm(gap) / np.linalg.norm(x0 - x_inf)


def test_slow_mode_fit_r100():
    """The propagated slow mode is the eigenvalue near its leading form
    24 i / R^2 - 144 / R^3."""
    lam = slow_eigenvalue(build_reduced_matrix(100.0))
    assert _slow_period_residual(100.0) <= 1e-8
    assert lam.imag == pytest.approx(24.0 / 100.0**2, rel=0.01)
    assert -lam.real == pytest.approx(144.0 / 100.0**3, rel=0.2)


@pytest.mark.parametrize("big_r", [30.0, 50.0, 100.0, 200.0])
def test_slow_mode_fit_matches_eigenvalue(big_r):
    """The slow eigenvalue that the scans use is the mode of the propagated
    state, and the one nearest its leading form."""
    assert _slow_period_residual(big_r) <= 1e-8
    lam = slow_eigenvalue(build_reduced_matrix(big_r))
    assert lam == _slow_eigenvalue_near_prediction(big_r)


def test_slow_mode_fit_r50():
    assert _slow_period_residual(50.0) <= 1e-8
    lam = slow_eigenvalue(build_reduced_matrix(50.0))
    assert lam.imag == pytest.approx(24.0 / 50.0**2, rel=0.02)
