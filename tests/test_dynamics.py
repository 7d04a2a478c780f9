import numpy as np
import pytest
import scipy.linalg

from cqec.codes_and_maps import (
    SCENARIOS,
    ModelParams,
    apply_kraus,
    apply_recovery,
    bitflip3_code,
    lifted_kraus,
    pair_hamiltonian,
    scenario_rho0,
    total_generator,
    trivial_code,
)
from cqec.dynamics import (
    IntegratorConfig,
    Trajectory,
    integrate,
    jump_monte_carlo,
    propagate_linear,
    restrict_generator,
    step_weak_map,
)
from cqec.analysis import fidelity_weight_series, fit_power_law, fit_quadratic
from cqec.tensor_core import QubitRegister, basis_ket, partial_trace_bath
from cqec.closed_forms import (
    alpha_nonmarkov_1q,
    markov3q_exact_leak,
    zeno_coefficient,
)
from cqec import reduced_model


def _fidelity(traj, scenario):
    f, _ = fidelity_weight_series(traj, SCENARIOS[scenario].code())
    return f


def test_integrator_config_validation():
    IntegratorConfig()
    with pytest.raises(ValueError):
        IntegratorConfig(method="leapfrog")
    with pytest.raises(ValueError):
        IntegratorConfig(method="fixed-RK4")
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)


def test_trajectory_requires_increasing_times():
    states = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), states)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_markovian_point_value_both_methods():
    """lambda=1, kappa=2, t=1: fidelity = 0.75 + 0.25 e^-4, reproduced by
    the adaptive integrator and the independent spectral propagation."""
    gen = total_generator("markovian-1q", ModelParams(lam=1.0, kappa=2.0))
    rho0 = scenario_rho0("markovian-1q")
    expected = 0.75 + 0.25 * np.exp(-4.0)
    for method in ("adaptive-RK", "spectral"):
        traj = integrate(gen, rho0, 1.0, IntegratorConfig(method=method), n_samples=11)
        f = _fidelity(traj, "markovian-1q")
        assert f[-1] == pytest.approx(expected, abs=1e-8)


def test_spectral_matches_adaptive():
    gen = total_generator("markovian-1q", ModelParams(lam=1.0, kappa=2.0))
    rho0 = scenario_rho0("markovian-1q")
    t1 = integrate(gen, rho0, 2.0, IntegratorConfig(method="adaptive-RK"), n_samples=21)
    t2 = integrate(gen, rho0, 2.0, IntegratorConfig(method="spectral"), n_samples=21)
    assert np.max(np.abs(t1.states - t2.states)) < 1e-8


def test_uncorrected_pair_is_cosine_squared():
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=0.0))
    traj = integrate(gen, scenario_rho0("hamiltonian-1q"), np.pi / 2, n_samples=51)
    f = _fidelity(traj, "hamiltonian-1q")
    assert np.max(np.abs(f - np.cos(traj.times) ** 2)) < 1e-9
    assert f[-1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "method,big_r",
    [
        pytest.param("spectral", 30.0, id="30.0"),
        pytest.param("spectral", 100.0, id="100.0"),
        pytest.param("adaptive-RK", 30.0, id="adaptive-RK-30.0"),
    ],
)
def test_spectral_six_qubit_model_over_a_slow_period(method, big_r):
    """The full 64x64 model, propagated exactly (or by DP5(4)) over one
    slow period 2 pi / Im lambda_slow, stays on the symmetric manifold and
    matches the 13x13 reduced model; the restricted generator's
    eigenvalues are eigenvalues of the reduced model, the slow one
    included."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    rho0 = scenario_rho0("hamiltonian-3q")
    m = reduced_model.build_reduced_matrix(big_r)
    slow = reduced_model.slow_eigenvalue(m)
    cfg = IntegratorConfig(method=method)
    traj = integrate(gen, rho0, 2 * np.pi / slow.imag, cfg, n_samples=301)
    xs = propagate_linear(m, reduced_model.initial_reduced_state().coeffs, traj.times).real
    coeffs = np.array([reduced_model.extract_reduced(s).coeffs for s in traj.states])
    assert np.max(np.abs(coeffs - xs)) <= 1e-9
    assert max(reduced_model.class_spread(s) for s in traj.states) <= 1e-9
    _, g = restrict_generator(gen, rho0)
    assert g.shape == (9, 9)
    spectrum = np.linalg.eigvals(m)
    gap = max(np.min(np.abs(spectrum - w)) for w in np.linalg.eigvals(g))
    assert gap <= 1e-12 * np.max(np.abs(spectrum))
    assert abs(reduced_model.slow_eigenvalue(g) - slow) <= 1e-9 * abs(slow)


def test_zero_horizon_returns_initial_state():
    gen = total_generator("markovian-1q", ModelParams(lam=1.0))
    rho0 = scenario_rho0("markovian-1q")
    traj = integrate(gen, rho0, 0.0)
    assert len(traj) == 1
    assert np.array_equal(traj.states[0], rho0)


def test_trace_conserved_along_trajectories():
    for scenario, params in (
        ("markovian-3q", ModelParams(lam=1.0, kappa=5.0)),
        ("hamiltonian-1q", ModelParams(gamma=1.0, kappa=3.0)),
    ):
        gen = total_generator(scenario, params)
        traj = integrate(gen, scenario_rho0(scenario), 3.0, n_samples=31)
        traces = np.einsum("tii->t", traj.states)
        assert np.max(np.abs(traces - 1.0)) < 1e-8


def test_integrate_rejects_negative_horizon():
    gen = total_generator("markovian-1q", ModelParams(lam=1.0))
    with pytest.raises(ValueError):
        integrate(gen, scenario_rho0("markovian-1q"), -1.0)


# ---------------------------------------------------------------------------
# propagate_linear
# ---------------------------------------------------------------------------


def test_propagate_zero_matrix():
    x0 = np.array([1.0, 2.0, 3.0])
    xs = propagate_linear(np.zeros((3, 3)), x0, [0.0, 1.0, 10.0])
    assert np.allclose(xs, np.tile(x0, (3, 1)))


def test_propagate_many_times_matches_expm():
    """The all-times eigenbasis product equals exp(M t) x0 taken one time at
    a time, for a non-normal M with complex eigenvalues and unsorted times."""
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 6)) - 3.0 * np.eye(6)
    x0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    times = np.array([2.0, 0.0, 0.3, 1.7, 0.3])
    xs = propagate_linear(m, x0, times)
    ref = np.array([scipy.linalg.expm(m * t) @ x0 for t in times])
    assert xs.shape == (5, 6)
    assert np.max(np.abs(xs - ref)) < 1e-12


def test_propagate_reduced_slow_mode_value():
    """13-dim propagation at R=100 evaluated at gamma t = pi R^2 / 24."""
    m = reduced_model.build_reduced_matrix(100.0, 1.0)
    x0 = reduced_model.initial_reduced_state().coeffs
    t_star = np.pi * 100.0**2 / 24.0
    xs = propagate_linear(m, x0, [t_star])
    assert xs[0][0].real == pytest.approx(0.0859, abs=1e-3)
    assert xs[0][0].real == pytest.approx(0.08547354809622165, abs=1e-9)


def test_propagate_matches_markovian_leak():
    """Propagation of the generator restricted to the Krylov space of rho0
    reproduces the exact 4-level leak formula at r = 96."""
    gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=96.0))
    rho0 = scenario_rho0("markovian-3q")
    q, g = restrict_generator(gen, rho0)
    xs = propagate_linear(g, q.conj().T @ rho0.ravel(), [1.0])
    rho = (q @ xs[0]).reshape(8, 8)
    code = SCENARIOS["markovian-3q"].code()
    p_cs = np.real(np.trace(code.code_projector() @ rho))
    assert 1.0 - p_cs == pytest.approx(markov3q_exact_leak(1.0, 1.0, 96.0), abs=1e-10)
    assert 1.0 - p_cs == pytest.approx(0.03, abs=1e-6)


def test_propagate_defective_matrix_falls_back():
    # Jordan block: eigenbasis is singular, expm fallback must kick in
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    xs = propagate_linear(m, np.array([0.0, 1.0]), [0.0, 2.0])
    assert np.allclose(xs[1], [2.0, 1.0])


# ---------------------------------------------------------------------------
# vectorized engines against sequential Kraus-product reference loops
# ---------------------------------------------------------------------------


def _random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _pair_setup(scenario, start="scenario"):
    """Code, register, H and rho0: the scenario state, a random state of the
    whole register ("random"), or a random system state (x) I/d_bath
    ("random-system")."""
    code = SCENARIOS[scenario].code()
    register = SCENARIOS[scenario].register
    rng = np.random.default_rng(5)
    if start == "scenario":
        rho0 = scenario_rho0(scenario)
    elif start == "random":
        rho0 = _random_state(rng, register.dim)
    else:
        db = 2**register.bath_count
        rho0 = np.kron(_random_state(rng, register.system_dim), np.eye(db) / db)
    return code, register, pair_hamiltonian(code, 1.0), rho0


def _propagator(h):
    w, v = np.linalg.eigh(h)
    return lambda dt: v @ (np.exp(-1j * w * dt)[:, None] * v.conj().T)


def _weak_map_reference(rho, h, code, register, eps, tau_c, n_steps, stride):
    kraus = lifted_kraus(code, register)
    u = _propagator(h)(tau_c)
    times, states = [0.0], [rho.copy()]
    for step in range(1, n_steps + 1):
        rho = u @ rho @ u.conj().T
        rho = (1.0 - eps) * rho + eps * apply_kraus(kraus, rho)
        if step % stride == 0 or step == n_steps:
            times.append(step * tau_c)
            states.append(rho.copy())
    return np.array(times), np.array(states)


def _monte_carlo_reference(rho0, h, code, register, kappa, t_max, n_traj, seed, n_samples):
    """One trajectory at a time, jump by jump, with the engine's Philox streams."""
    kraus = lifted_kraus(code, register)
    unitary = _propagator(h)
    logical = basis_ket(code.logical_zero, code.system_count)[:, 0]
    times = np.linspace(0.0, t_max, n_samples)
    mean = np.zeros((n_samples,) + rho0.shape, dtype=complex)
    fids = np.zeros((n_traj, n_samples))
    for idx in range(n_traj):
        rng = np.random.Generator(np.random.Philox(key=[seed, idx]))
        jump_times = np.sort(rng.uniform(0.0, t_max, rng.poisson(kappa * t_max)))
        rho, t, j = rho0.copy(), 0.0, 0
        for k, ts in enumerate(times):
            while j < len(jump_times) and jump_times[j] <= ts:
                u = unitary(jump_times[j] - t)
                rho = apply_kraus(kraus, u @ rho @ u.conj().T)
                t = jump_times[j]
                j += 1
            u = unitary(ts - t)
            rho = u @ rho @ u.conj().T
            t = ts
            mean[k] += rho
            sys = partial_trace_bath(rho, register.system_count, register.bath_count)
            fids[idx, k] = np.real(logical.conj() @ sys @ logical)
    return times, mean / n_traj, fids.mean(axis=0), fids.std(axis=0, ddof=1) / np.sqrt(n_traj)


def test_recovery_gather_matches_kraus_on_batched_stack():
    """apply_recovery on a (3, 4, d, d) stack of non-Hermitian matrices equals
    the lifted Kraus channel applied to each matrix."""
    rng = np.random.default_rng(3)
    for code, register in (
        (trivial_code(), QubitRegister(1, 1)),
        (bitflip3_code(), QubitRegister(3, 0)),
        (bitflip3_code(), QubitRegister(3, 3)),
    ):
        d = register.dim
        stack = rng.normal(size=(3, 4, d, d)) + 1j * rng.normal(size=(3, 4, d, d))
        kraus = lifted_kraus(code, register)
        ref = np.array([[apply_kraus(kraus, m) for m in row] for row in stack])
        out = apply_recovery(code, stack, 2**register.bath_count)
        assert out.shape == stack.shape
        assert np.max(np.abs(out - ref)) < 1e-11


@pytest.mark.parametrize("scenario, n_steps, stride, eps, start", [
    pytest.param("hamiltonian-1q", 1000, 7, 0.02, "scenario", id="hamiltonian-1q-1000-7"),
    pytest.param("hamiltonian-3q", 60, 7, 0.02, "scenario", id="hamiltonian-3q-60-7"),
    pytest.param("hamiltonian-1q", 100, 7, 0.9, "scenario", id="hamiltonian-1q-eps0.9"),
    pytest.param("hamiltonian-1q", 100, 7, 1.0, "scenario", id="hamiltonian-1q-eps1"),
    pytest.param("hamiltonian-3q", 30, 7, 0.9, "scenario", id="hamiltonian-3q-eps0.9"),
    pytest.param("hamiltonian-3q", 30, 7, 1.0, "scenario", id="hamiltonian-3q-eps1"),
    pytest.param("hamiltonian-1q", 1000, 7, 0.02, "random", id="hamiltonian-1q-random"),
    pytest.param("hamiltonian-3q", 60, 7, 0.02, "random-system",
                 id="hamiltonian-3q-random-system"),
])
def test_weak_map_matches_sequential_reference(scenario, n_steps, stride, eps, start):
    code, register, h, rho0 = _pair_setup(scenario, start)
    tau_c = 4e-3
    traj = step_weak_map(rho0, h, code, eps, tau_c, n_steps, sample_stride=stride)
    times, states = _weak_map_reference(rho0, h, code, register, eps, tau_c, n_steps, stride)
    assert n_steps % stride != 0
    assert traj.times[-1] == n_steps * tau_c
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.states - states)) < 1e-11


@pytest.mark.parametrize("scenario, n_traj, start", [
    pytest.param("hamiltonian-1q", 50, "scenario", id="hamiltonian-1q-50"),
    pytest.param("hamiltonian-3q", 70, "scenario", id="hamiltonian-3q-70"),
    pytest.param("hamiltonian-1q", 50, "random", id="hamiltonian-1q-random"),
    pytest.param("hamiltonian-3q", 30, "random-system", id="hamiltonian-3q-random-system"),
])
def test_monte_carlo_matches_sequential_reference(scenario, n_traj, start):
    code, register, h, rho0 = _pair_setup(scenario, start)
    kappa, t_max, seed, n_samples = 4.0, 1.0, 11, 6
    traj = jump_monte_carlo(rho0, h, code, kappa, t_max, n_traj, seed, n_samples=n_samples)
    times, mean, f_mean, f_se = _monte_carlo_reference(
        rho0, h, code, register, kappa, t_max, n_traj, seed, n_samples
    )
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.states - mean)) < 1e-11
    assert np.max(np.abs(traj.observables["F_cw_mean"] - f_mean)) < 1e-11
    assert np.max(np.abs(traj.observables["F_cw_se"] - f_se)) < 1e-11
    assert np.all(f_se[1:] > 0)


# ---------------------------------------------------------------------------
# weak-map stepping
# ---------------------------------------------------------------------------


def test_weak_map_eps_zero_is_unitary():
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    traj = step_weak_map(rho0, h, code, 0.0, 1e-2, 300, sample_stride=10)
    f, _ = fidelity_weight_series(traj, code)
    assert np.max(np.abs(f - np.cos(traj.times) ** 2)) < 1e-10


def test_weak_map_tracks_continuous_solution():
    """kappa = eps/tau_c = 5: discrete stepping within 5e-3 of the closed
    form over gamma t in [0, 10], halving tau_c halves the error."""
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    devs = []
    for tau in (1e-3, 5e-4):
        n = int(round(10.0 / tau))
        traj = step_weak_map(rho0, h, code, 5.0 * tau, tau, n, sample_stride=n // 200)
        f, _ = fidelity_weight_series(traj, code)
        ref = alpha_nonmarkov_1q(traj.times, 1.0, 5.0)
        devs.append(np.max(np.abs(f - ref)))
    assert devs[0] < 5e-3
    assert 1.5 < devs[0] / devs[1] < 2.5


def test_weak_map_validates_eps():
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    with pytest.raises(ValueError):
        step_weak_map(scenario_rho0("hamiltonian-1q"), h, code, 1.5, 1e-3, 10)
    with pytest.raises(ValueError):
        step_weak_map(scenario_rho0("hamiltonian-1q"), h, code, 0.5, 1e-3, 10, sample_stride=0)


# ---------------------------------------------------------------------------
# jump Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_no_jumps_is_deterministic():
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    t1 = jump_monte_carlo(rho0, h, code, 0.0, 1.0, 3, seed=1, n_samples=5)
    t2 = jump_monte_carlo(rho0, h, code, 0.0, 1.0, 3, seed=99, n_samples=5)
    assert np.allclose(t1.states, t2.states)
    f, _ = fidelity_weight_series(t1, code)
    assert np.max(np.abs(f - np.cos(t1.times) ** 2)) < 1e-10


def test_monte_carlo_seed_determinism():
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    t1 = jump_monte_carlo(rho0, h, code, 5.0, 1.0, 50, seed=42, n_samples=5)
    t2 = jump_monte_carlo(rho0, h, code, 5.0, 1.0, 50, seed=42, n_samples=5)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.observables["F_cw_mean"], t2.observables["F_cw_mean"])


def test_monte_carlo_mean_within_errors():
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    traj = jump_monte_carlo(rho0, h, code, 5.0, 2.0, 2000, seed=0, n_samples=9)
    mean = traj.observables["F_cw_mean"]
    se = traj.observables["F_cw_se"]
    ref = alpha_nonmarkov_1q(traj.times, 1.0, 5.0)
    z = np.abs(mean - ref)[1:] / se[1:]
    assert np.max(z) < 4.0  # 9 samples; 4 sigma keeps the false-alarm rate tiny


# ---------------------------------------------------------------------------
# short-time structure
# ---------------------------------------------------------------------------


def test_zeno_quadratic_coefficient_single_qubit():
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=0.0))
    traj = integrate(gen, scenario_rho0("hamiltonian-1q"), 1e-2, n_samples=101)
    f = _fidelity(traj, "hamiltonian-1q")
    fit = fit_quadratic(traj.times, 1.0 - f)
    c_ref = zeno_coefficient(
        pair_hamiltonian(trivial_code(), 1.0), np.diag([1.0, 0.0]), np.eye(2) / 2
    )
    assert fit.params["c2"] == pytest.approx(c_ref, rel=0.01)


def test_markovian_short_time_exponents():
    """Single-error weight grows linearly, three-error weight cubically."""
    gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=0.0))
    cfg = IntegratorConfig(method="spectral")
    traj = integrate(gen, scenario_rho0("markovian-3q"), 1e-2, cfg, n_samples=41)
    diag = np.real(np.einsum("tii->ti", traj.states))
    weight = np.array([bin(s).count("1") for s in range(8)])
    b = diag[:, weight == 1].sum(axis=1)
    d = diag[:, weight == 3].sum(axis=1)
    mask = traj.times >= 1e-4
    slope_b = fit_power_law(list(zip(traj.times[mask], b[mask]))).params["slope"]
    slope_d = fit_power_law(list(zip(traj.times[mask], d[mask]))).params["slope"]
    assert slope_b == pytest.approx(1.0, abs=0.02)
    assert slope_d >= 2.9
