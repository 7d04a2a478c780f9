import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cqec.codes_and_maps import (
    SCENARIOS,
    Generator,
    ModelParams,
    apply_recovery,
    bitflip3_code,
    pair_hamiltonian,
    scenario_rho0,
    total_generator,
    trivial_code,
)
from cqec.dynamics import (
    SUBSPACE_TOL,
    IntegrationError,
    PositivityWarning,
    Trajectory,
    _check_samples,
    _class_blocks,
    _diagonal_blocks,
    _distinct_blocks,
    _min_eigenvalues,
    _pair_subspace,
    _slow_fast_split,
    _states_at_samples,
    integrate,
    integrate_reduced,
    invariant_subspace,
    jump_monte_carlo,
    mc_trajectory_entries,
    propagate_linear,
    step_weak_map,
)
from cqec.analysis import fidelity_weight_series, fit_power_law, observables
from cqec.tensor_core import QubitRegister, basis_ket
from cqec.closed_forms import (
    alpha_markov_1q,
    alpha_nonmarkov_1q,
    markov3q_exact_leak,
    zeno_coefficient,
)
from cqec import reduced_model
from reference import (
    apply_kraus,
    class_spread,
    code_projector,
    kron_pair_hamiltonian,
    lifted_kraus,
    partial_trace_bath,
    system_dim,
)


def _fidelity(traj, scenario):
    f, _ = fidelity_weight_series(traj, SCENARIOS[scenario].code())
    return f


def test_trajectory_requires_increasing_times():
    coords, basis = np.ones((2, 1)), np.eye(4)[:, :1]
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.array([0.0, 0.0]), coords, basis)
    assert len(Trajectory(np.array([0.0, 1.0]), coords, basis)) == 2


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_markovian_point_value_both_methods():
    """lambda=1, kappa=2: the fidelity is the closed form 3/4 + e^-4t / 4 to
    1e-13 on every sample, 0.75 + 0.25 e^-4 at t = 1."""
    gen = total_generator("markovian-1q", ModelParams(lam=1.0, kappa=2.0))
    traj = integrate(gen, scenario_rho0("markovian-1q"), 1.0, n_samples=11)
    f = _fidelity(traj, "markovian-1q")
    assert np.max(np.abs(f - alpha_markov_1q(traj.times, 1.0, 2.0))) <= 1e-13
    assert f[-1] == pytest.approx(0.75 + 0.25 * np.exp(-4.0), abs=1e-13)


def test_spectral_matches_adaptive():
    """The propagated pair-coupled qubit follows the closed-form fidelity
    to 1e-13 over gamma t in [0, 10], from R = 5 down to R = 1e-12."""
    for big_r in (5.0, 1.0, 1e-12):
        gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=big_r))
        traj = integrate(gen, scenario_rho0("hamiltonian-1q"), 10.0, n_samples=501)
        f = _fidelity(traj, "hamiltonian-1q")
        assert np.max(np.abs(f - alpha_nonmarkov_1q(traj.times, 1.0, big_r))) <= 1e-13


def test_uncorrected_pair_is_cosine_squared():
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=0.0))
    traj = integrate(gen, scenario_rho0("hamiltonian-1q"), np.pi / 2, n_samples=51)
    f = _fidelity(traj, "hamiltonian-1q")
    assert np.max(np.abs(f - np.cos(traj.times) ** 2)) < 1e-9
    assert f[-1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("big_r", [30.0, 100.0])
def test_spectral_six_qubit_model_over_a_slow_period(big_r):
    """The full 64x64 model, propagated exactly over one slow period
    2 pi / Im lambda_slow, stays on the symmetric manifold and
    matches the 13x13 reduced model; the restricted generator's
    eigenvalues are eigenvalues of the reduced model, the slow one
    included."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    rho0 = scenario_rho0("hamiltonian-3q")
    m = reduced_model.build_reduced_matrix(big_r)
    slow = reduced_model.slow_eigenvalue(m)
    traj = integrate(gen, rho0, 2 * np.pi / slow.imag, n_samples=301)
    xs = propagate_linear(m, np.eye(13)[0], traj.times).real
    coeffs = reduced_model.class_coefficients(traj.coords, traj.basis)
    assert np.max(np.abs(coeffs - xs)) <= 1e-9
    assert max(class_spread(s) for s in traj.states) <= 1e-9
    _, (g,) = invariant_subspace([gen.apply], rho0)
    assert g.shape == (9, 9)
    spectrum = np.linalg.eigvals(m)
    gap = max(np.min(np.abs(spectrum - w)) for w in np.linalg.eigvals(g))
    assert gap <= 1e-12 * np.max(np.abs(spectrum))
    assert abs(reduced_model.slow_eigenvalue(g) - slow) <= 1e-9 * abs(slow)


def test_trace_held_over_long_horizons():
    """At R = 1000 the slow period is ~2.6e5; up to t = 1e5 the trace stays
    within 1e-12 of 1 (it drifted by ~1e-8 with the eigenvalue eig puts
    ~1e-16 |G| off zero)."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=1000.0))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), 1e5, n_samples=301)
    assert np.max(np.abs(np.einsum("tii->t", traj.states) - 1.0)) <= 1e-12


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


def _leak(traj, scenario):
    _, p = fidelity_weight_series(traj, SCENARIOS[scenario].code())
    return 1.0 - p


# (scenario, value read from the trajectory, closed form of (t, unit rate, kappa))
_CLOSED_FORM_CASES = [
    ("hamiltonian-1q", _fidelity, alpha_nonmarkov_1q),
    ("markovian-1q", _fidelity, alpha_markov_1q),
    ("markovian-3q", _leak, markov3q_exact_leak),
]


@given(st.sampled_from(_CLOSED_FORM_CASES), st.floats(0.1, 1e3), st.floats(0.01, 100.0))
@settings(max_examples=60, deadline=None)
def test_full_engine_matches_the_closed_forms(case, rate, t_max):
    """The full engine follows the closed forms to 1e-12 at every sample,
    for rates R or r in [0.1, 1e3] and dimensionless horizons in [0.01,
    100]: F_cw of hamiltonian-1q and markovian-1q, and 1 - P_cs of
    markovian-3q.  Over 10000 draws run apart from the suite (half of them
    log-uniform), the largest deviations were 1.0e-15, 4.4e-16 and
    1.6e-15."""
    scenario, value, closed_form = case
    gen = total_generator(scenario, _params(scenario, rate))
    traj = integrate(gen, scenario_rho0(scenario), t_max, n_samples=11)
    assert np.max(np.abs(value(traj, scenario) - closed_form(traj.times, 1.0, rate))) <= 1e-12


def test_integrate_rejects_negative_horizon():
    gen = total_generator("markovian-1q", ModelParams(lam=1.0))
    with pytest.raises(ValueError):
        integrate(gen, scenario_rho0("markovian-1q"), -1.0)


# ---------------------------------------------------------------------------
# sample checks of integrate
# ---------------------------------------------------------------------------


class _StubGenerator:
    """A one-qubit generator with the interface ``integrate`` reads."""

    def __init__(self, apply):
        self.apply = apply


Z1 = np.diag([1.0, -1.0])


def _dip(eps):
    """G(rho) = eps tr(Z rho) Z, diagonalisable with eigenvalues 0 (on I)
    and 2 eps (on Z): from |0><0|, rho(t) = diag(1 + s, -s) with
    s = (e^(2 eps t) - 1)/2 = eps t (1 + eps t + ...) keeps its trace, and its
    smallest eigenvalue is -s."""
    return _StubGenerator(lambda rho: eps * np.trace(Z1 @ rho) * Z1)


KET0 = np.diag([1.0, 0.0]).astype(complex)


def test_integrate_raises_on_trace_loss():
    """G = -id loses trace as e^-t; the first sample (t = 0.025, off by
    1 - e^-0.025) raises."""
    gen = _StubGenerator(lambda rho: -rho)
    with pytest.raises(IntegrationError, match=r"^trace deviates by 2\.469e-02 at t=0\.025$"):
        integrate(gen, KET0, 5.0)


def test_integrate_warns_on_small_positivity_dip():
    """eps = 8e-9: the samples from t = 1.5 on dip below -1e-8 and warn, in
    time order and at the caller's line; none reaches -1e-6."""
    with pytest.warns(PositivityWarning) as record:
        traj = integrate(_dip(8e-9), KET0, 5.0, n_samples=11)
    assert len(traj) == 11
    expected = [f"state eigenvalue {-8e-9 * t:.3e} below -1e-08 at t={t:g}"
                for t in np.arange(1.5, 5.01, 0.5)]
    assert [str(w.message) for w in record] == expected
    assert {w.filename for w in record} == {__file__}


def test_integrate_raises_on_large_positivity_dip():
    """eps = 8e-7: t = 0.5 and 1 warn, then t = 1.5 (-1.2e-6) raises."""
    error = r"^eigenvalue -1\.200e-06 at t=1\.5; integration diverged$"
    with pytest.warns(PositivityWarning) as record:
        with pytest.raises(IntegrationError, match=error):
            integrate(_dip(8e-7), KET0, 5.0, n_samples=11)
    assert [str(w.message) for w in record] == [
        "state eigenvalue -4.000e-07 below -1e-08 at t=0.5",
        "state eigenvalue -8.000e-07 below -1e-08 at t=1",
    ]


# Z (x) I / 2 on one system and one bath qubit: traceless
Z_HALF = np.diag([1.0, 1.0, -1.0, -1.0]) / 2.0


def _stub_recovery(monkeypatch, dip=0.0, gain=1.0):
    """Replace Phi (x) id_bath by rho -> gain rho + dip tr(rho) Z (x) I/2.
    With H = 0, each recovery moves the smallest eigenvalue of
    |0><0| (x) I/2 down by dip/2, and multiplies the trace by gain."""
    monkeypatch.setattr(
        "cqec.codes_and_maps.apply_recovery",
        lambda code, rho, db: gain * rho + dip * np.trace(rho) * Z_HALF,
    )


def _weak_stub_run():
    """Ten weak cycles of eps = 0.5 and tau_c = 0.1 with H = 0, sampled
    after each: the sample at t = 0.1 n has seen n half recoveries."""
    return step_weak_map(scenario_rho0("hamiltonian-1q"), np.zeros((4, 4)), trivial_code(),
                         0.5, 0.1, 10)


def _mc_stub_run():
    """Monte Carlo with H = 0 and kappa t_max = 10 jumps per trajectory on
    average: the mean state at t has seen the ensemble's mean jump count."""
    return jump_monte_carlo(scenario_rho0("hamiltonian-1q"), np.zeros((4, 4)), trivial_code(),
                            5.0, 2.0, 200, 7, n_samples=21)


def test_weak_map_warns_on_small_positivity_dip(monkeypatch):
    """dip = 3.2e-8: the sample at t = 0.1 n has eigenvalue -8e-9 n, so the
    samples from t = 0.2 on warn, in time order and at the caller's line."""
    _stub_recovery(monkeypatch, dip=3.2e-8)
    with pytest.warns(PositivityWarning) as record:
        traj = _weak_stub_run()
    assert len(traj) == 11
    assert [str(w.message) for w in record] == [
        f"state eigenvalue {-8e-9 * n:.3e} below -1e-08 at t={0.1 * n:g}" for n in range(2, 11)
    ]
    assert {w.filename for w in record} == {__file__}


def test_weak_map_raises_on_large_positivity_dip(monkeypatch):
    """dip = 3.2e-6: t = 0.1 (-8e-7) warns, then t = 0.2 (-1.6e-6) raises."""
    _stub_recovery(monkeypatch, dip=3.2e-6)
    error = r"^eigenvalue -1\.600e-06 at t=0\.2; integration diverged$"
    with pytest.warns(PositivityWarning) as record:
        with pytest.raises(IntegrationError, match=error):
            _weak_stub_run()
    assert [str(w.message) for w in record] == [
        "state eigenvalue -8.000e-07 below -1e-08 at t=0.1"
    ]


def test_weak_map_raises_on_trace_gain(monkeypatch):
    """gain = 1.01: one cycle multiplies the trace by 1.005."""
    _stub_recovery(monkeypatch, gain=1.01)
    with pytest.raises(IntegrationError, match=r"^trace deviates by 5\.000e-03 at t=0\.1$"):
        _weak_stub_run()


def _expected_dips(traj):
    """The warnings that the check of ``integrate`` gives for these states."""
    lo = np.linalg.eigvalsh(traj.states).min(axis=1)
    return [f"state eigenvalue {v:.3e} below -1e-08 at t={t:g}"
            for t, v in zip(traj.times, lo) if v < -1e-8]


def test_monte_carlo_warns_on_small_positivity_dip(monkeypatch):
    """dip = 4e-8: the mean state sinks to about -2e-7 (10 jumps) by t = 2;
    the samples below -1e-8 warn, in time order and at the caller's line."""
    _stub_recovery(monkeypatch, dip=4e-8)
    with pytest.warns(PositivityWarning) as record:
        traj = _mc_stub_run()
    expected = _expected_dips(traj)
    assert len(expected) >= 15
    assert [str(w.message) for w in record] == expected
    assert {w.filename for w in record} == {__file__}


def test_monte_carlo_raises_on_large_positivity_dip(monkeypatch):
    """dip = 4e-7: the mean state passes -1e-6 after about five jumps, near
    t = 1; the samples from t = 0.1 to the failing one warn, and it raises."""
    _stub_recovery(monkeypatch, dip=4e-7)
    error = r"^eigenvalue -\S+ at t=\S+; integration diverged$"
    with pytest.warns(PositivityWarning) as record:
        with pytest.raises(IntegrationError, match=error) as failure:
            _mc_stub_run()
    n_fail = round(float(str(failure.value).split("t=")[1].split(";")[0]) / 0.1)
    assert 8 <= n_fail <= 12
    assert [float(str(w.message).split("t=")[1]) for w in record] == pytest.approx(
        [0.1 * n for n in range(1, n_fail)]
    )


def test_monte_carlo_raises_on_trace_gain(monkeypatch):
    """gain = 1.01: the mean trace is the mean of 1.01^jumps, off by about
    5e-3 at t = 0.1 (half a jump on average)."""
    _stub_recovery(monkeypatch, gain=1.01)
    with pytest.raises(IntegrationError, match=r"^trace deviates by \S+ at t=0\.1$"):
        _mc_stub_run()


def test_non_finite_samples_raise():
    """A sample with every coordinate, or only a traceless one, nan or inf
    raises at its time; the samples before it pass."""
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=2.0))
    rho0 = scenario_rho0("hamiltonian-1q")
    q, (g,) = invariant_subspace([gen.apply], rho0)
    times = np.linspace(0.0, 1.0, 6)
    coords = propagate_linear(g, q.conj().T @ rho0.ravel(), times)
    _check_samples(times, coords, q)
    traceless = int(np.argmin(np.abs(q[::5].sum(axis=0))))
    for bad in (np.nan, np.inf):
        for cols in (slice(None), traceless):
            broken = coords.copy()
            broken[3, cols] = bad
            with pytest.raises(IntegrationError, match=r"^trace deviates by nan at t=0\.6$"):
                _check_samples(times, broken, q)


def _params(scenario, rate):
    if SCENARIOS[scenario].time_unit == "lambda":
        return ModelParams(lam=1.0, kappa=rate)
    return ModelParams(gamma=1.0, kappa=rate)


RATES = st.floats(min_value=-6.0, max_value=5.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("rate", [1e-6, 1e-2, 1.0, 100.0, 1e5, 1e7])
@pytest.mark.parametrize("scenario, shapes", [
    ("markovian-1q", [(2, 1)]),
    ("markovian-3q", [(8, 1)]),
    ("hamiltonian-1q", [(2, 2)]),
    ("hamiltonian-3q", [(8, 8)]),
])
def test_diagonal_blocks_of_the_scenarios(scenario, shapes, rate):
    """(blocks, block size) of the Krylov basis of each scenario state, and
    (distinct blocks, block size) of what the check reads: hamiltonian-3q's
    8 x 8 blocks are all equal and read once."""
    distinct = {"markovian-1q": [(2, 1)], "markovian-3q": [(4, 1)],
                "hamiltonian-1q": [(1, 2)], "hamiltonian-3q": [(1, 8)]}[scenario]
    rho0 = scenario_rho0(scenario)
    gen = total_generator(scenario, _params(scenario, rate))
    q, _ = invariant_subspace([gen.apply], rho0)
    blocks = _diagonal_blocks(q, len(rho0))
    assert [b.shape for b in blocks] == shapes
    assert sorted(np.concatenate([b.ravel() for b in blocks])) == list(range(len(rho0)))
    assert [(qt.shape[1] // s**2, s) for qt, s in _distinct_blocks(q)] == distinct


def _dense_minimum(coords, q):
    """Smallest eigenvalue of the Hermitian part of each state coords[i] @ q.T
    by dense eigvalsh of the whole d x d state."""
    d = int(np.sqrt(len(q)))
    states = (coords @ q.T).reshape(-1, d, d)
    return np.linalg.eigvalsh((states + states.conj().swapaxes(1, 2)) / 2.0).min(axis=1)


def _assert_block_minimum_matches_eigvalsh(gen, rho0):
    q, (g,) = invariant_subspace([gen.apply], rho0)
    coords = propagate_linear(g, q.conj().T @ rho0.ravel(), np.linspace(0.0, 1.0, 6))
    assert np.max(np.abs(_min_eigenvalues(coords, q) - _dense_minimum(coords, q))) <= 1e-12


@given(st.sampled_from(sorted(SCENARIOS)), RATES)
@settings(max_examples=30, deadline=None)
def test_block_minimum_eigenvalue_matches_full_eigvalsh(scenario, rate):
    _assert_block_minimum_matches_eigvalsh(
        total_generator(scenario, _params(scenario, rate)), scenario_rho0(scenario)
    )


@given(st.integers(0, 2**32 - 1), st.floats(min_value=-6.0, max_value=7.0).map(lambda e: 10.0**e))
@settings(max_examples=20, deadline=None)
def test_block_minimum_on_compressed_and_class_blocks(seed, rate):
    """The minimum from hamiltonian-3q's 8 x 8 Krylov blocks and from the
    class states' 4 x 4 and 2 x 2 ones against dense eigvalsh of the 64 x 64 states,
    within 1e-12: the Krylov basis at R in [1e-6, 1e7] with its samples
    (states of rank below 8 per block, whose basis matrices and their
    adjoints span 4 of the 8 directions) and with random complex
    coordinates, and both forms of the class states with random real
    class coefficients (of whose two 2 x 2 blocks the check reads one)."""
    rng = np.random.default_rng(seed)
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=rate))
    rho0 = scenario_rho0("hamiltonian-3q")
    _assert_block_minimum_matches_eigvalsh(gen, rho0)
    q, _ = invariant_subspace([gen.apply], rho0)
    coords = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    assert np.max(np.abs(_min_eigenvalues(coords, q) - _dense_minimum(coords, q))) <= 1e-12
    for normalised in (False, True):
        basis = reduced_model.class_basis(normalised)
        coords = rng.normal(size=(6, 13))
        lo = _min_eigenvalues(coords, basis, _class_blocks(normalised))
        assert np.max(np.abs(lo - _dense_minimum(coords, basis))) <= 1e-12


@given(st.integers(0, 2**32 - 1), RATES)
@settings(max_examples=15, deadline=None)
def test_block_minimum_eigenvalue_of_a_generic_state(seed, rate):
    """A random two-qubit rho0 on hamiltonian-1q fills one 4 x 4 block."""
    rho0 = _random_state(np.random.default_rng(seed), 4)
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=rate))
    q, _ = invariant_subspace([gen.apply], rho0)
    assert [b.shape for b in _diagonal_blocks(q, 4)] == [(1, 4)]
    _assert_block_minimum_matches_eigvalsh(gen, rho0)


def test_block_minimum_eigenvalue_with_distinct_blocks():
    """Diagonal blocks of sizes 2, 2 and 4 whose rows of q all differ: none is
    skipped as a duplicate, and the minimum equals full eigvalsh."""
    rng = np.random.default_rng(11)
    sizes = (2, 2, 4)
    a = scipy.linalg.block_diag(*(rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
                                  for s in sizes))
    rho0 = scipy.linalg.block_diag(*(_random_state(rng, s) / len(sizes) for s in sizes))
    q, _ = invariant_subspace([lambda r: a @ r @ a.conj().T], rho0)
    pairs, quad = _diagonal_blocks(q, 8)
    assert (pairs.shape, quad.shape) == ((2, 2), (1, 4))
    first, second = (np.add.outer(8 * b, b).ravel() for b in pairs)
    assert q[first].tobytes() != q[second].tobytes()
    coords = rng.normal(size=(7, q.shape[1])) + 1j * rng.normal(size=(7, q.shape[1]))
    states = (coords @ q.T).reshape(-1, 8, 8)
    full = np.linalg.eigvalsh((states + states.conj().swapaxes(1, 2)) / 2.0).min(axis=1)
    assert np.max(np.abs(_min_eigenvalues(coords, q) - full)) <= 1e-12


@pytest.mark.parametrize("s", [1, 2])
def test_block_minimum_closed_forms_match_eigvalsh(s):
    """1 x 1 and 2 x 2 blocks, read in closed form, against eigvalsh of their
    Hermitian part, within 1e-15: U diag(lo, hi) U^dag with random lo in
    [-0.01, 1], lo = 0 (pure states for s = 2), and lo near -1e-8 and -1e-6,
    each plus a random anti-Hermitian part that the check must ignore."""
    rng = np.random.default_rng(20 + s)
    n = 100
    lo = np.concatenate([rng.uniform(-0.01, 1.0, n), np.zeros(n),
                         -1e-8 * rng.uniform(0.5, 1.5, n), -1e-6 * rng.uniform(0.5, 1.5, n)])
    hi = np.where(lo == 0.0, 1.0, rng.uniform(0.0, 1.0, len(lo)))
    u = np.linalg.qr(rng.normal(size=(len(lo), s, s)) + 1j * rng.normal(size=(len(lo), s, s)))[0]
    herm = (u * np.stack([lo, hi], axis=1)[:, None, :s]) @ u.conj().swapaxes(1, 2)
    a = rng.normal(size=herm.shape) + 1j * rng.normal(size=herm.shape)
    states = herm + (a - a.conj().swapaxes(1, 2)) / 2.0
    full = np.linalg.eigvalsh((states + states.conj().swapaxes(1, 2)) / 2.0).min(axis=1)
    # on the basis of all s^2 entries the state is one s x s block
    lo_blocks = _min_eigenvalues(states.reshape(-1, s * s), np.eye(s * s))
    assert np.max(np.abs(lo_blocks - full)) <= 1e-15


def _pair_dip_samples(step):
    """Samples at t = 0.1 n, n = 0..10, on the Krylov basis q of hamiltonian-1q
    (two equal 2 x 2 blocks): I/4 + (1/4 + step n) X, with X the basis state
    without diagonal entries scaled to eigenvalues +-1, so that the smallest
    eigenvalue of sample n is -step n.  Returns (times, coords, q)."""
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=2.0))
    q, _ = invariant_subspace([gen.apply], scenario_rho0("hamiltonian-1q"))
    assert [b.shape for b in _diagonal_blocks(q, 4)] == [(2, 2)]
    (col,) = np.flatnonzero(~q[::5].any(axis=0))
    x = q[:, col].reshape(4, 4)
    x = x / np.linalg.eigvalsh(x).max()
    n = np.arange(11)
    states = np.eye(4) / 4.0 + (0.25 + step * n)[:, None, None] * x
    coords = states.reshape(11, 16) @ q.conj()
    assert np.max(np.abs(coords @ q.T - states.reshape(11, 16))) <= 1e-15
    return 0.1 * n, coords, q


def test_check_warns_on_small_dip_in_2x2_blocks():
    """step = 4e-9: the samples from t = 0.3 (-1.2e-8) on warn, in time order;
    none reaches -1e-6."""
    times, coords, q = _pair_dip_samples(4e-9)
    with pytest.warns(PositivityWarning) as record:
        _check_samples(times, coords, q)
    assert [str(w.message) for w in record] == [
        f"state eigenvalue {-4e-9 * n:.3e} below -1e-08 at t={0.1 * n:g}" for n in range(3, 11)
    ]


def test_check_raises_on_large_dip_in_2x2_blocks():
    """step = 4e-7: t = 0.1 and 0.2 warn, then t = 0.3 (-1.2e-6) raises."""
    times, coords, q = _pair_dip_samples(4e-7)
    error = r"^eigenvalue -1\.200e-06 at t=0\.3; integration diverged$"
    with pytest.warns(PositivityWarning) as record:
        with pytest.raises(IntegrationError, match=error):
            _check_samples(times, coords, q)
    assert [str(w.message) for w in record] == [
        "state eigenvalue -4.000e-07 below -1e-08 at t=0.1",
        "state eigenvalue -8.000e-07 below -1e-08 at t=0.2",
    ]


def _krylov_8x8_dip_samples(step):
    """Samples at t = 0.1 n, n = 0..10, on the Krylov basis q of
    hamiltonian-3q at R = 10, whose 8 x 8 blocks its basis matrices span in
    4 directions: (1 + step n) rho0 - step n rho(1), of trace 1.  On those
    directions rho0 is zero but for one and rho(1) is positive, so the
    smallest eigenvalue falls about linearly in n.  Returns (times, coords,
    q, the smallest eigenvalue of each sample by dense eigvalsh)."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=10.0))
    rho0 = scenario_rho0("hamiltonian-3q")
    q, (g,) = invariant_subspace([gen.apply], rho0)
    y0 = q.conj().T @ rho0.ravel()
    y1 = propagate_linear(g, y0, [1.0])[0]
    n = np.arange(11)[:, None]
    coords = (1.0 + step * n) * y0 - step * n * y1
    return 0.1 * n.ravel(), coords, q, _dense_minimum(coords, q)


def _assert_warned(record, samples, times, dense):
    """The PositivityWarnings in ``record`` are one per sample in ``samples``,
    in order, in today's message format, each with its dense minimum."""
    pattern = r"state eigenvalue (-\d\.\d{3}e-\d\d) below -1e-08 at t=(\S+)"
    got = [re.fullmatch(pattern, str(w.message)).groups() for w in record]
    assert [(float(lo), t) for lo, t in got] == [
        (pytest.approx(dense[i], rel=1e-3), f"{times[i]:g}") for i in samples
    ]


def test_check_warns_on_small_dip_in_compressed_blocks():
    """step = 4e-6: every sample from t = 0.1 on dips below -1e-8 (to
    -2.6e-7 at t = 1) and warns, in time order, with the dense minimum."""
    times, coords, q, dense = _krylov_8x8_dip_samples(4e-6)
    assert dense[0] > -1e-8 and np.all(dense[1:] < -1e-8) and dense.min() > -1e-6
    with pytest.warns(PositivityWarning) as record:
        _check_samples(times, coords, q)
    _assert_warned(record, range(1, 11), times, dense)


def test_check_raises_on_large_dip_in_compressed_blocks():
    """step = 2e-5: t = 0.1 to 0.7 warn, then t = 0.8 (-1.04e-6) raises."""
    times, coords, q, dense = _krylov_8x8_dip_samples(2e-5)
    assert np.all(dense[1:8] < -1e-8) and dense[7] > -1e-6 > dense[8]
    with pytest.warns(PositivityWarning) as record:
        with pytest.raises(IntegrationError, match=r"^eigenvalue -1\.0\d\de-06 at t=0\.8; "
                                                   r"integration diverged$") as failure:
            _check_samples(times, coords, q)
    assert float(str(failure.value).split()[1]) == pytest.approx(dense[8], rel=1e-3)
    _assert_warned(record, range(1, 8), times, dense)


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
    x0 = np.eye(13)[0]
    t_star = np.pi * 100.0**2 / 24.0
    xs = propagate_linear(m, x0, [t_star])
    assert xs[0][0].real == pytest.approx(0.0859, abs=1e-3)
    assert xs[0][0].real == pytest.approx(0.08547354809622165, abs=1e-9)


def test_propagate_matches_markovian_leak():
    """Propagation of the generator restricted to the Krylov space of rho0
    reproduces the exact 4-level leak formula at r = 96."""
    gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=96.0))
    rho0 = scenario_rho0("markovian-3q")
    q, (g,) = invariant_subspace([gen.apply], rho0)
    xs = propagate_linear(g, q.conj().T @ rho0.ravel(), [1.0])
    rho = (q @ xs[0]).reshape(8, 8)
    code = SCENARIOS["markovian-3q"].code()
    p_cs = np.real(np.trace(code_projector(code) @ rho))
    assert 1.0 - p_cs == pytest.approx(markov3q_exact_leak(1.0, 1.0, 96.0), abs=1e-10)
    assert 1.0 - p_cs == pytest.approx(0.03, abs=1e-6)


def test_propagate_defective_matrix_raises():
    """A Jordan block has no eigenbasis (cond(V) ~ 1e16): propagate_linear
    refuses it, and so does ``integrate`` of the nilpotent one-qubit
    generator G(rho) = 1e-3 tr(rho) Z, whose restriction is one."""
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(IntegrationError, match=r"^eigenbasis condition number \S+ >= 1e8"):
        propagate_linear(m, np.array([0.0, 1.0]), [0.0, 2.0])
    nilpotent = _StubGenerator(lambda rho: 1e-3 * np.trace(rho) * Z1)
    with pytest.raises(IntegrationError, match="condition number"):
        integrate(nilpotent, KET0, 5.0, n_samples=11)


# ---------------------------------------------------------------------------
# vectorized engines against sequential Kraus-product reference loops
# ---------------------------------------------------------------------------


def _random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _pair_setup(scenario, start="scenario"):
    """Code, register, H and rho0: the scenario state, a random state of the
    whole register ("random"), a random system state (x) I/d_bath
    ("random-system"), or the scenario state under pair strengths 1, 1 and
    1.1 in place of the equal ones ("unequal-pairs", three qubits)."""
    code = SCENARIOS[scenario].code()
    register = SCENARIOS[scenario].register
    h = pair_hamiltonian(code, 1.0)
    rng = np.random.default_rng(5)
    if start in ("scenario", "unequal-pairs"):
        rho0 = scenario_rho0(scenario)
    elif start == "random":
        rho0 = _random_state(rng, register.dim)
    else:
        db = 2**register.bath_count
        rho0 = np.kron(_random_state(rng, system_dim(register)), np.eye(db) / db)
    if start == "unequal-pairs":
        h = kron_pair_hamiltonian(code, 1.0, strengths=[1.0, 1.0, 1.1])
    return code, register, h, rho0


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
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, idx], dtype=np.uint64)))
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
    pytest.param("hamiltonian-3q", 60, 7, 0.02, "unequal-pairs",
                 id="hamiltonian-3q-unequal-pairs"),
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


# (kappa, t_max, samples): ~0.8 jumps per sample interval, and 40 or 20 per interval
FEW_JUMPS, MANY_JUMPS, LONG_RUN = (4.0, 1.0, 6), (40.0, 2.0, 3), (4.0, 25.0, 6)


@pytest.mark.parametrize("scenario, n_traj, start, seed, chunk, jumps", [
    pytest.param("hamiltonian-1q", 50, "scenario", 11, None, FEW_JUMPS, id="hamiltonian-1q-50"),
    pytest.param("hamiltonian-3q", 70, "scenario", 11, None, FEW_JUMPS, id="hamiltonian-3q-70"),
    pytest.param("hamiltonian-1q", 50, "random", 11, None, FEW_JUMPS, id="hamiltonian-1q-random"),
    pytest.param("hamiltonian-3q", 30, "random-system", 11, None, FEW_JUMPS,
                 id="hamiltonian-3q-random-system"),
    pytest.param("hamiltonian-3q", 30, "unequal-pairs", 11, None, FEW_JUMPS,
                 id="hamiltonian-3q-unequal-pairs"),
    pytest.param("hamiltonian-1q", 50, "scenario", 2**64 - 5, None, FEW_JUMPS,
                 id="hamiltonian-1q-seed-2**64-5"),
    pytest.param("hamiltonian-3q", 30, "scenario", 2**63 + 1, None, FEW_JUMPS,
                 id="hamiltonian-3q-seed-2**63+1"),
    pytest.param("hamiltonian-1q", 50, "scenario", 11, 16, FEW_JUMPS,
                 id="hamiltonian-1q-chunks-of-16"),
    pytest.param("hamiltonian-3q", 70, "scenario", 11, 16, FEW_JUMPS,
                 id="hamiltonian-3q-chunks-of-16"),
    pytest.param("hamiltonian-1q", 50, "scenario", 11, None, MANY_JUMPS,
                 id="hamiltonian-1q-kappa40-t2"),
    pytest.param("hamiltonian-3q", 12, "scenario", 11, None, MANY_JUMPS,
                 id="hamiltonian-3q-kappa40-t2"),
    pytest.param("hamiltonian-1q", 50, "scenario", 11, None, LONG_RUN,
                 id="hamiltonian-1q-kappa4-t25"),
    pytest.param("hamiltonian-3q", 12, "scenario", 11, None, LONG_RUN,
                 id="hamiltonian-3q-kappa4-t25"),
])
def test_monte_carlo_matches_sequential_reference(monkeypatch, scenario, n_traj, start, seed,
                                                  chunk, jumps):
    """The engine against the one-trajectory-at-a-time reference.  With
    ``chunk`` set, MC_CHUNK_ENTRIES holds that many trajectories: the
    engine runs 3 or 4 full chunks and a short last one, so the streams and
    the sums carried from chunk to chunk are checked across chunk
    boundaries.  The MANY_JUMPS and LONG_RUN rows take many recoveries
    between two samples, up to gamma t = 25."""
    code, register, h, rho0 = _pair_setup(scenario, start)
    kappa, t_max, n_samples = jumps
    if chunk is not None:
        k = len(_pair_subspace(rho0, h, code)[1])
        monkeypatch.setattr("cqec.dynamics.MC_CHUNK_ENTRIES",
                            chunk * mc_trajectory_entries(kappa * t_max, k, n_samples))
    sizes = []  # the trajectories of each chunk, as the engine runs them

    def counted(pending, *args):
        sizes.append(len(pending))
        return _states_at_samples(pending, *args)

    monkeypatch.setattr("cqec.dynamics._states_at_samples", counted)
    traj = jump_monte_carlo(rho0, h, code, kappa, t_max, n_traj, seed, n_samples=n_samples)
    if chunk is None:
        assert sizes == [n_traj]
    else:
        assert 3 <= n_traj // chunk <= 4 and n_traj % chunk != 0
        assert sizes == [chunk] * (n_traj // chunk) + [n_traj % chunk]
    times, mean, f_mean, f_se = _monte_carlo_reference(
        rho0, h, code, register, kappa, t_max, n_traj, seed, n_samples
    )
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.states - mean)) < 1e-11
    assert np.max(np.abs(traj.observables["F_cw_mean"] - f_mean)) < 1e-11
    assert np.max(np.abs(traj.observables["F_cw_se"] - f_se)) < 1e-11
    assert np.all(f_se[1:] > 0)


def test_jumps_count_at_the_first_sample_at_or_after_them():
    """Hand-made jump times through the rounds: with no free evolution and
    a recovery that adds one to the second coordinate, a trajectory's
    state at a sample counts its jumps at or before that time.  A jump at a
    sample's time counts before it, jumps between two samples all count at
    the later one, the +inf padding never counts (a jump after the last
    sample counts at none), and a trajectory without jumps reads y0 at every
    sample.  The trajectories come back in the returned order."""
    times = np.array([0.0, 1.0, 2.0, 3.0])
    inf = np.inf
    pending = np.array([
        [1.0, inf, inf, inf],  # at a sample time
        [inf, inf, inf, inf],  # no jumps
        [2.5, 0.5, 0.0, inf],  # unsorted, one at t = 0
        [1.2, 1.5, 1.7, 3.0],  # three in one interval, one at the last sample
        [3.5, inf, inf, inf],  # after the last sample
    ])
    expected = np.array([
        [0, 1, 1, 1],
        [0, 0, 0, 0],
        [1, 2, 2, 3],
        [0, 0, 3, 4],
        [0, 0, 0, 0],
    ])
    y0 = np.array([1.0, 0.0], dtype=complex)
    add_one = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # z -> z @ add_one
    states, order = _states_at_samples(pending, times, y0, add_one, np.zeros(2, dtype=complex))
    assert states.shape == (4, 5, 2)
    assert sorted(order) == list(range(5))
    by_trajectory = np.empty_like(states)
    by_trajectory[:, order] = states
    assert np.array_equal(by_trajectory[:, :, 0], np.ones((4, 5)))
    assert np.array_equal(by_trajectory[:, :, 1], expected.T)
    assert np.array_equal(by_trajectory[:, 1], np.broadcast_to(y0, (4, 2)))


def test_monte_carlo_returns_the_shared_basis():
    """Monte Carlo's trajectory holds coordinates on the basis of
    ``_pair_subspace``: the shared normalised class states themselves for
    hamiltonian-3q (no copy per call), the Krylov basis for hamiltonian-1q."""
    code, _, h, rho0 = _pair_setup("hamiltonian-3q")
    traj = jump_monte_carlo(rho0, h, code, 10.0, 1.0, 20, 7, n_samples=5)
    assert traj.basis is reduced_model.class_basis(normalised=True)
    assert traj.coords.shape == (5, 13)
    code, _, h, rho0 = _pair_setup("hamiltonian-1q")
    traj = jump_monte_carlo(rho0, h, code, 10.0, 1.0, 20, 7, n_samples=5)
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1.0))
    q_krylov, _ = invariant_subspace([gen.noise, gen.correction], rho0)
    assert np.array_equal(traj.basis, q_krylov)
    assert traj.coords.shape == (5, 3)


def test_pair_subspace_takes_the_class_states_where_the_tables_apply():
    """On the scenario state of hamiltonian-3q the weak map and Monte Carlo
    run on the 13 normalised class states; on a random system state, which
    is off their span, on the Krylov basis of ``invariant_subspace``."""
    code, _, h, rho0 = _pair_setup("hamiltonian-3q")
    q, w, _, _, blocks, _ = _pair_subspace(rho0, h, code)
    basis = reduced_model.class_basis()
    assert len(w) == 13
    assert np.array_equal(q, basis / np.linalg.norm(basis, axis=0))
    assert blocks is _class_blocks(True)

    code, _, h, rho0 = _pair_setup("hamiltonian-3q", "random-system")
    q, w, _, _, blocks, _ = _pair_subspace(rho0, h, code)
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0))
    q_krylov, _ = invariant_subspace([gen.noise, gen.correction], rho0)
    assert len(w) == q_krylov.shape[1] != 13
    assert np.array_equal(q, q_krylov)
    assert blocks is None


def test_class_states_are_shared_and_read_only():
    """The class states are built once per process: every reduced
    trajectory holds the one class basis, and every weak map on the class
    states the one normalised form, with the check's blocks derived once
    (the one distinct 8 x 8 block, split by the pair permutations into one
    4 x 4 and two 2 x 2 blocks, of which the check reads the 4 x 4 and the
    first 2 x 2).  Writing to either form raises."""
    first, second = integrate_reduced(10.0, 1.0, 1.0, 5), integrate_reduced(100.0, 1.0, 2.0, 7)
    assert first.basis is second.basis is reduced_model.class_basis()
    code, _, h, rho0 = _pair_setup("hamiltonian-3q")
    weak = [step_weak_map(rho0, h, code, 0.02, 2e-3, 10) for _ in range(2)]
    assert weak[0].basis is weak[1].basis is reduced_model.class_basis(normalised=True)
    assert _class_blocks(True) is _class_blocks(True)
    for normalised in (False, True):
        assert [(qt.shape, s) for qt, s in _class_blocks(normalised)] == [((13, 16), 4),
                                                                          ((13, 4), 2)]
    for basis in (reduced_model.class_basis(), reduced_model.class_basis(True)):
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1.0


def test_class_states_give_the_krylov_trajectories(monkeypatch):
    """The weak map and Monte Carlo of hamiltonian-3q at R = 10 on the class
    states against the same runs on the Krylov basis of the scenario state
    (the fallback, forced): states within 1e-12, and Monte Carlo's F_cw
    mean and standard error within 1e-13 from the same jumps."""
    code, _, h, rho0 = _pair_setup("hamiltonian-3q")

    def run():
        weak = step_weak_map(rho0, h, code, 10.0 * 2e-3, 2e-3, 500, sample_stride=25)
        return weak, jump_monte_carlo(rho0, h, code, 10.0, 1.0, 1000, 7, n_samples=21)

    weak, mc = run()
    assert len(weak.basis.T) == len(mc.basis.T) == 13
    monkeypatch.setattr("cqec.reduced_model.class_restriction", lambda *args: None)
    weak_krylov, mc_krylov = run()
    assert len(weak_krylov.basis.T) == len(mc_krylov.basis.T) == 9
    assert np.max(np.abs(weak.states - weak_krylov.states)) <= 1e-12
    assert np.max(np.abs(mc.states - mc_krylov.states)) <= 1e-12
    for key in ("F_cw_mean", "F_cw_se"):
        assert np.max(np.abs(mc.observables[key] - mc_krylov.observables[key])) <= 1e-13


# ---------------------------------------------------------------------------
# the full engine on the class states
# ---------------------------------------------------------------------------


def _six_qubit_run(big_r, t_max, n_samples=2):
    """integrate of hamiltonian-3q at gamma = 1 and R = big_r, with its F_cw."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), t_max, n_samples=n_samples)
    return traj, _fidelity(traj, "hamiltonian-3q")


# F_cw of exp(gamma t M(R)) applied to the unit first class coefficient, with
# M(R) = build_reduced_matrix(R, 1) in double precision, from a 60-digit
# mpmath.expm, to 6 digits.  A Krylov basis of the 64-dim model gave 0.683267,
# 0.640692, 0.228365, 0.305463 and 0.239894 here; the plain eig of M(R) refused
# from R = 1e3 on, its trace off by more than 1e-8.
_SLOW_PAIR_REFERENCE = [
    (1e3, 1e6, 0.683266),
    (1e4, 1e9, 0.641084),
    (1e4, 3e9, 0.227593),
    (3e4, 3e10, 0.309079),
    (3e4, 1e11, 0.249265),
]


@pytest.mark.parametrize("big_r, t_max, f_exact, engine", [
    *[pytest.param(*row, "full", id="-".join(map(str, row))) for row in _SLOW_PAIR_REFERENCE],
    *[pytest.param(*row, "reduced", id="-".join(map(str, ("reduced", *row))))
      for row in _SLOW_PAIR_REFERENCE],
])
def test_full_engine_resolves_the_slow_pair_at_large_R(big_r, t_max, f_exact, engine):
    """On the slow time scale, where the slow pair ~24i/R^2 has turned many
    times, the full engine's F_cw, and the reduced engine's, is within 1e-5
    of the exact value: their slow block carries no error of the size of the
    fast rates ~R."""
    if engine == "full":
        _, f = _six_qubit_run(big_r, t_max)
    else:
        f = integrate_reduced(big_r, 1.0, t_max, n_samples=2).coords[:, 0]
    assert abs(f[-1] - f_exact) <= 1e-5


@pytest.mark.parametrize("big_r", [1e10, 1e11])
def test_full_engine_keeps_unit_fidelity_at_vast_rates(big_r):
    """At R = 1e10 and 1e11 the encoded qubit has not moved by gamma t = 1
    (1 - F_cw ~ 1/R^2): F_cw is 1 to within 1e-12."""
    _, f = _six_qubit_run(big_r, 1.0)
    assert abs(1.0 - f[-1]) <= 1e-12


# at R = 9.03e-143 the fast block D is singular to rounding, and the
# iteration overflows at its second step
@pytest.mark.parametrize("big_r, split", [(9.031624397423422e-143, False), (1.0, False),
                                          (3.0, False), (10.0, True), (100.0, True),
                                          (1e4, True)])
def test_class_path_agrees_with_the_reduced_and_krylov_engines(big_r, split, monkeypatch):
    """The full engine of hamiltonian-3q runs on the shared normalised class
    states, split into slow and fast blocks where the split converges (from
    R ~ 3.9) and in one block below; either way its states match the Krylov
    basis of the 64-dim model (the fallback, forced), and its class
    coefficients the reduced engine's (the same split on the unnormalised
    class states) and the unsplit reference (propagate_linear of M(R)),
    within 1e-12 over gamma t = 1."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    code, rho0 = gen.code, scenario_rho0("hamiltonian-3q")
    q, n_k, c_k, _ = reduced_model.class_restriction(rho0, gen.hamiltonian, code)
    assert (_slow_fast_split(n_k + big_r * c_k, ~c_k.any(axis=0)) is not None) == split
    traj = integrate(gen, rho0, 1.0, n_samples=11)
    assert traj.basis is reduced_model.class_basis(normalised=True)
    reduced = integrate_reduced(big_r, 1.0, 1.0, n_samples=11)
    unsplit = propagate_linear(reduced_model.build_reduced_matrix(big_r, 1.0), np.eye(13)[0],
                               traj.times).real
    coeffs = reduced_model.class_coefficients(traj.coords, traj.basis)
    for split_coeffs in (coeffs, reduced.coords):
        assert np.max(np.abs(split_coeffs - unsplit)) <= 1e-12
    assert np.max(np.abs(coeffs - reduced.coords)) <= 1e-12
    monkeypatch.setattr("cqec.reduced_model.class_restriction", lambda *args: None)
    krylov = integrate(gen, rho0, 1.0, n_samples=11)
    assert krylov.basis.shape[1] < 13
    assert np.max(np.abs(traj.states - krylov.states)) <= 1e-12


def test_integrate_off_the_class_span_takes_the_krylov_basis():
    """A random system state (x) I/8 lies off the class span: integrate runs on
    the Krylov basis of the generator, as for the other scenarios."""
    code, _, h, rho0 = _pair_setup("hamiltonian-3q", "random-system")
    gen = Generator(code, h, 0.0, 10.0)
    traj = integrate(gen, rho0, 0.5, n_samples=5)
    q, _ = invariant_subspace([gen.apply], rho0)
    assert q.shape[1] != 13
    assert np.array_equal(traj.basis, q)


def test_class_path_holds_the_trace_at_vast_horizons():
    """At R = 1e6 out to gamma t = 1e15, about 2e4 slow periods and 7e-4 of
    a damping time, every sample's trace is 1 within 1e-12: it is an exact
    coordinate of the slow block (taken from the slow block's rounded trace
    row it drifted by 5e-7)."""
    traj, _ = _six_qubit_run(1e6, 1e15, n_samples=11)
    assert np.max(np.abs(np.einsum("tii->t", traj.states) - 1.0)) <= 1e-12


@pytest.mark.parametrize("big_r", [100.0, 1e3, 1e4, 1e5])
def test_reduced_engine_holds_the_trace_over_half_a_slow_period(big_r):
    """The reduced engine's weighted trace C000_000 + 3 C100_100 + 3 C110_110
    + C111_111 stays within 1e-14 of 1 over half a slow period, gamma t =
    pi R^2 / 24: it is an exact coordinate of the slow block (the plain eig
    of M(R) drifted by 2.7e-12 at R = 100 and 2.8e-9 at 1e3, and refused from
    R ~ 3e3)."""
    traj = integrate_reduced(big_r, 1.0, np.pi * big_r**2 / 24, n_samples=2001)
    weights = reduced_model.TRACE_WEIGHTS
    trace = traj.coords[:, list(weights)] @ list(weights.values())
    assert np.max(np.abs(trace - 1.0)) <= 1e-14


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


@pytest.mark.parametrize("scenario", ["hamiltonian-1q", "hamiltonian-3q"])
@pytest.mark.parametrize("t_max", [1.0, 1e2, 1e3])
def test_monte_carlo_without_jumps_matches_integrate(scenario, t_max):
    """kappa = 0: every trajectory evolves freely, and the mean state
    matches the exact propagation of the kappa = 0 generator to 1e-12 up
    to gamma t = 1e3."""
    code, rho0 = SCENARIOS[scenario].code(), scenario_rho0(scenario)
    traj = jump_monte_carlo(rho0, pair_hamiltonian(code, 1.0), code, 0.0, t_max, 2, 0,
                            n_samples=11)
    gen = total_generator(scenario, ModelParams(gamma=1.0, kappa=0.0))
    ref = integrate(gen, rho0, t_max, n_samples=11)
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.states - ref.states)) < 1e-12


def test_monte_carlo_seed_determinism():
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    t1 = jump_monte_carlo(rho0, h, code, 5.0, 1.0, 50, seed=42, n_samples=5)
    t2 = jump_monte_carlo(rho0, h, code, 5.0, 1.0, 50, seed=42, n_samples=5)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.observables["F_cw_mean"], t2.observables["F_cw_mean"])


def test_monte_carlo_seeds_above_2_63_have_their_own_streams():
    """The key (seed, i) is two uint64 words, so 2**63 and 2**63 + 1 draw
    different jumps, and 2**64 - 1 draws its own (not seed 0's) with no
    cast warning (the suite turns RuntimeWarning into an error)."""
    code = trivial_code()
    h = pair_hamiltonian(code, 1.0)
    rho0 = scenario_rho0("hamiltonian-1q")
    f = {
        seed: jump_monte_carlo(rho0, h, code, 5.0, 1.0, 50, seed, n_samples=5)
        .observables["F_cw_mean"]
        for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)
    }
    assert not np.array_equal(f[2**63], f[2**63 + 1])
    assert not np.array_equal(f[2**64 - 1], f[0])


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
    c_ref = zeno_coefficient(
        pair_hamiltonian(trivial_code(), 1.0), np.diag([1.0, 0.0]), np.eye(2) / 2
    )
    # the fidelity loss itself over t^2, at every sample past t = 0
    c = (1.0 - f[1:]) / traj.times[1:] ** 2
    assert np.max(np.abs(c - c_ref)) <= 0.01 * c_ref


def test_markovian_short_time_exponents():
    """Single-error weight grows linearly, three-error weight cubically."""
    gen = total_generator("markovian-3q", ModelParams(lam=1.0, kappa=0.0))
    traj = integrate(gen, scenario_rho0("markovian-3q"), 1e-2, n_samples=41)
    diag = np.real(np.einsum("tii->ti", traj.states))
    weight = np.array([bin(s).count("1") for s in range(8)])
    b = diag[:, weight == 1].sum(axis=1)
    d = diag[:, weight == 3].sum(axis=1)
    mask = traj.times >= 1e-4
    slope_b = fit_power_law(list(zip(traj.times[mask], b[mask])))["params"]["slope"]
    slope_d = fit_power_law(list(zip(traj.times[mask], d[mask])))["params"]["slope"]
    assert slope_b == pytest.approx(1.0, abs=0.02)
    assert slope_d >= 2.9


# ---------------------------------------------------------------------------
# coordinate-native trajectories and the Krylov basis
# ---------------------------------------------------------------------------


COORDINATE_CASES = [("integrate", s) for s in sorted(SCENARIOS)] + [
    (engine, s) for engine in ("weak-map", "monte-carlo")
    for s in ("hamiltonian-1q", "hamiltonian-3q")
]


def _coordinate_trajectory(engine, scenario):
    code, rho0 = SCENARIOS[scenario].code(), scenario_rho0(scenario)
    if engine == "integrate":
        gen = total_generator(scenario, _params(scenario, 3.0))
        return integrate(gen, rho0, 1.0, n_samples=11), code
    h = pair_hamiltonian(code, 1.0)
    if engine == "weak-map":
        return step_weak_map(rho0, h, code, 0.02, 4e-3, 250, sample_stride=25), code
    return jump_monte_carlo(rho0, h, code, 3.0, 1.0, 40, 5, n_samples=11), code


def _fidelity_weight_from_states(traj, code, reg):
    """F_cw and P_cs of the expanded states on the register `reg`, through
    the partial trace over the bath."""
    rho_s = [partial_trace_bath(s, reg.system_count, reg.bath_count) for s in traj.states]
    f = np.array([r[code.logical_zero, code.logical_zero].real for r in rho_s])
    p = np.array([np.trace(code_projector(code) @ r).real for r in rho_s])
    return f, p


@pytest.mark.parametrize("engine, scenario", COORDINATE_CASES)
def test_states_expand_from_coordinates_on_demand(engine, scenario):
    """Observables are read from the coordinates without building the state
    stack; `states` is coords @ basis.T, built once, and gives the same F_cw
    and P_cs through the partial trace."""
    traj, code = _coordinate_trajectory(engine, scenario)
    f, p = fidelity_weight_series(traj, code)
    observables(traj, code)
    assert "states" not in vars(traj)
    reg = SCENARIOS[scenario].register
    d = reg.dim
    assert np.array_equal(traj.states, (traj.coords @ traj.basis.T).reshape(len(traj), d, d))
    assert traj.states is traj.states
    f_s, p_s = _fidelity_weight_from_states(traj, code, reg)
    assert np.max(np.abs(f - f_s)) <= 1e-15
    assert np.max(np.abs(p - p_s)) <= 1e-15


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_integrate_at_zero_horizon_is_rho0_on_one_column(scenario):
    """t_max = 0 gives the single sample rho0: the coordinate 1 on the basis
    column rho0, with F_cw = P_cs = 1."""
    rho0, code = scenario_rho0(scenario), SCENARIOS[scenario].code()
    traj = integrate(total_generator(scenario, _params(scenario, 3.0)), rho0, 0.0)
    assert np.array_equal(traj.times, [0.0])
    assert np.array_equal(traj.coords, [[1.0]])
    assert np.array_equal(traj.basis, rho0.reshape(-1, 1))
    assert np.array_equal(traj.states[0], rho0)
    f, p = fidelity_weight_series(traj, code)
    assert (f[0], p[0]) == (1.0, 1.0)


def test_fig4_case_peaks_under_8_mb():
    """integrate of hamiltonian-3q at R = 100 to t = 0.5 with 501 samples, then
    its observables, never hold the (501, 64, 64) state stack (33 MB)."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=100.0))
    rho0, code = scenario_rho0("hamiltonian-3q"), SCENARIOS["hamiltonian-3q"].code()
    tracemalloc.start()
    try:
        observables(integrate(gen, rho0, 0.5, n_samples=501), code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_integrate_of_the_six_qubit_state_peaks_under_2_mb():
    """integrate of hamiltonian-3q at R = 10 to t = 5 with 201 samples holds
    the samples' coordinates on the 13 class states, which are built once
    per process (0.85 MB, here or before), and no image of them: the
    restriction is read from the reduced model's tables."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=10.0))
    rho0 = scenario_rho0("hamiltonian-3q")
    tracemalloc.start()
    try:
        integrate(gen, rho0, 5.0, n_samples=201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _vstack_subspace(ops, rho0):
    """``invariant_subspace`` as it was written before its arrays were
    preallocated: the basis regrown by one row per new vector."""
    d = rho0.shape[0]
    q = (rho0 / np.linalg.norm(rho0)).reshape(1, d * d)
    images = [[] for _ in ops]
    scale = np.zeros(len(ops))
    j = 0
    while j < len(q):
        for i, op in enumerate(ops):
            w = np.asarray(op(q[j].reshape(d, d)), dtype=complex).ravel()
            images[i].append(w)
            scale[i] = max(scale[i], np.linalg.norm(w))
            r = w - (q.conj() @ w) @ q
            r = r - (q.conj() @ r) @ q
            if np.linalg.norm(r) > SUBSPACE_TOL * scale[i]:
                q = np.vstack([q, r / np.linalg.norm(r)])
        j += 1
    return q.T, [q.conj() @ np.array(img).T for img in images]


def _assert_subspace_matches_vstack(ops, rho0):
    q, blocks = invariant_subspace(ops, rho0)
    q_ref, blocks_ref = _vstack_subspace(ops, rho0)
    assert q.shape == q_ref.shape
    assert np.max(np.abs(q @ q.conj().T - q_ref @ q_ref.conj().T)) <= 1e-12
    for b, b_ref in zip(blocks, blocks_ref):
        assert np.max(np.abs(b - b_ref)) <= 1e-12 * np.max(np.abs(b_ref))
    return q.shape[1]


@pytest.mark.parametrize("rate", [1e-10, 1.0, 1e3, 1e7])
@pytest.mark.parametrize("scenario, k", [
    ("markovian-1q", 2), ("hamiltonian-1q", 3), ("markovian-3q", 4), ("hamiltonian-3q", 9),
])
def test_invariant_subspace_of_the_scenario_states(scenario, k, rate):
    gen = total_generator(scenario, _params(scenario, rate))
    assert _assert_subspace_matches_vstack([gen.apply], scenario_rho0(scenario)) == k
    # the Arnoldi form: the block is the op's Gram-Schmidt coefficients, upper
    # Hessenberg with each new direction's norm on the subdiagonal
    (g,) = invariant_subspace([gen.apply], scenario_rho0(scenario))[1]
    assert np.all(np.tril(g, -2) == 0)
    sub = np.diagonal(g, -1)
    assert np.all(sub.imag == 0) and np.all(sub.real > 0)


@pytest.mark.parametrize("rate", [1e-6, 1.0, 1e3, 1e7])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_apply_is_noise_plus_kappa_correction_on_their_subspace(scenario, rate):
    """On the Krylov basis q of rho0 under the generator's two rate-free maps,
    q^dag apply(q) is the restricted noise plus kappa times the restricted
    correction: the engines restrict one definition of each map."""
    gen = total_generator(scenario, _params(scenario, rate))
    rho0 = scenario_rho0(scenario)
    d = len(rho0)
    q, (n, c) = invariant_subspace([gen.noise, gen.correction], rho0)
    g = q.conj().T @ gen.apply(q.T.reshape(-1, d, d)).reshape(len(q.T), -1).T
    expected = n + gen.kappa * c
    assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_invariant_subspace_of_the_pair_operators():
    code, register, h, rho0 = _pair_setup("hamiltonian-3q")
    ops = [lambda r: -1j * (h @ r - r @ h), lambda r: apply_recovery(code, r, 8)]
    assert _assert_subspace_matches_vstack(ops, rho0) == 9


def test_invariant_subspace_grows_past_its_first_rows():
    """A random state of two qubits and a bath qubit under -i[H, .] and
    r -> a r a^dag, both random, spans all k = 64 directions, so the
    preallocated rows double twice (16 -> 32 -> 64)."""
    rng = np.random.default_rng(7)
    h, a = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) for _ in range(2))
    h = h + h.conj().T
    ops = [lambda r: -1j * (h @ r - r @ h), lambda r: a @ r @ a.conj().T]
    assert _assert_subspace_matches_vstack(ops, _random_state(rng, 8)) == 64


def test_invariant_subspace_stops_at_d_squared_directions(monkeypatch):
    """With the underflow check off, hamiltonian-1q's maps at gamma = 1e-160
    have image norms from subnormal squares: Gram-Schmidt stops removing the
    span, and every image adds a direction.  The one past d^2 = 16 raises
    IntegrationError, where the loop would otherwise never end."""
    monkeypatch.setattr("cqec.dynamics.UNDERFLOW_NORM", 0.0)
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=1e-160, kappa=1e-160))
    with pytest.raises(IntegrationError, match="Gram-Schmidt broke down"):
        invariant_subspace([gen.noise, gen.correction], scenario_rho0("hamiltonian-1q"))
