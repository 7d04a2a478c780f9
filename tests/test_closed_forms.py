import numpy as np
import pytest

from cqec.cli import _class_columns
from cqec.codes_and_maps import (
    ModelParams,
    bitflip3_code,
    pair_hamiltonian,
    scenario_rho0,
    total_generator,
    trivial_code,
)
from cqec.dynamics import integrate
from cqec.closed_forms import (
    alpha_markov_1q,
    alpha_nonmarkov_1q,
    alpha_star_markov,
    alpha_star_nonmarkov,
    beta_nonmarkov_1q,
    fidelity_approx_damped,
    fidelity_approx_lowest,
    markov3q_approx_a,
    markov3q_exact_leak,
    predicted_spectrum,
    zeno_coefficient,
    zeno_equilibrium,
)


# ---------------------------------------------------------------------------
# single qubit
# ---------------------------------------------------------------------------


def test_alpha_markov_basics():
    assert alpha_markov_1q(0.0, 1.0, 3.0) == pytest.approx(1.0)
    # kappa = 0: plain bit-flip decay to the unbiased mixture
    assert alpha_markov_1q(1e3, 1.0, 0.0) == pytest.approx(0.5)
    assert alpha_markov_1q(1.0, 1.0, 2.0) == pytest.approx(0.75 + 0.25 * np.exp(-4.0))
    with pytest.raises(ValueError):
        alpha_markov_1q(1.0, 0.0, 0.0)


def test_alpha_star_values():
    assert alpha_star_markov(0.0) == pytest.approx(0.5)
    assert alpha_star_nonmarkov(0.0) == pytest.approx(0.5)
    assert alpha_star_nonmarkov(5.0) == pytest.approx(27.0 / 29.0)
    assert alpha_star_markov(1e12) == pytest.approx(1.0)


def test_alpha_star_exact_identities():
    # "exact" up to the cancellation in 1 - (1 - 1/(2+r)): one ulp of 1
    # amplified by the denominator
    for r in (0.0, 1.0, 17.3, 400.0):
        assert (1.0 - alpha_star_markov(r)) * (2.0 + r) == pytest.approx(
            1.0, abs=(2.0 + r) * 5e-16
        )
    for big_r in (0.0, 2.0, 31.0, 999.0):
        assert (1.0 - alpha_star_nonmarkov(big_r)) * (4.0 + big_r**2) == pytest.approx(
            2.0, abs=(4.0 + big_r**2) * 5e-16
        )


def test_alpha_nonmarkov_basics():
    assert alpha_nonmarkov_1q(0.0, 1.0, 3.0) == pytest.approx(1.0)
    ts = np.linspace(0.0, 7.0, 101)
    assert np.allclose(alpha_nonmarkov_1q(ts, 1.0, 0.0), np.cos(ts) ** 2)
    assert alpha_nonmarkov_1q(1e3, 1.0, 5.0) == pytest.approx(27.0 / 29.0)
    with pytest.raises(ValueError):
        alpha_nonmarkov_1q(1.0, 0.0, 1.0)


def _nonmarkov_rhs(alpha, beta, gamma, kappa):
    return (
        -2.0 * gamma * beta + kappa * (1.0 - alpha),
        gamma * (2.0 * alpha - 1.0) - kappa * beta,
    )


def test_nonmarkov_closed_form_satisfies_ode():
    """alpha and its beta partner solve dalpha/dt = -2 gamma beta + kappa(1-alpha),
    dbeta/dt = gamma(2 alpha - 1) - kappa beta (derivatives taken analytically)."""
    gamma, kappa = 1.0, 3.0
    d = 4 * gamma**2 + kappa**2
    p, q = kappa * gamma / d, 2 * gamma**2 / d
    for t in np.linspace(0.0, 5.0, 41):
        alpha = alpha_nonmarkov_1q(t, gamma, kappa)
        beta = beta_nonmarkov_1q(t, gamma, kappa)
        e, s, c = np.exp(-kappa * t), np.sin(2 * gamma * t), np.cos(2 * gamma * t)
        dalpha = e * ((-kappa * p - 2 * gamma * q) * s + (2 * gamma * p - kappa * q) * c)
        dbeta = e * (kappa * (p * c - q * s) + 2 * gamma * (p * s + q * c))
        ra, rb = _nonmarkov_rhs(alpha, beta, gamma, kappa)
        assert abs(dalpha - ra) < 1e-10
        assert abs(dbeta - rb) < 1e-10


def test_markov_closed_form_satisfies_ode():
    lam, kappa = 0.7, 2.2
    star = (kappa + lam) / (kappa + 2 * lam)
    for t in np.linspace(0.0, 4.0, 33):
        alpha = alpha_markov_1q(t, lam, kappa)
        dalpha = -(kappa + 2 * lam) * (1 - star) * np.exp(-(kappa + 2 * lam) * t)
        assert abs(dalpha - (-lam * (2 * alpha - 1) + kappa * (1 - alpha))) < 1e-10


def test_stationary_points():
    gamma, kappa = 1.0, 4.0
    a_star = alpha_star_nonmarkov(kappa / gamma)
    b_star = gamma * (2 * a_star - 1) / kappa
    ra, rb = _nonmarkov_rhs(a_star, b_star, gamma, kappa)
    assert abs(ra) < 1e-12 and abs(rb) < 1e-12
    lam = 1.0
    a_star_m = alpha_star_markov(kappa / lam)
    assert abs(-lam * (2 * a_star_m - 1) + kappa * (1 - a_star_m)) < 1e-12


def test_beta_partner_limits():
    # at kappa=0 the coherence is sin(2 gamma t)/2
    ts = np.linspace(0.0, 3.0, 50)
    assert np.allclose(beta_nonmarkov_1q(ts, 1.0, 0.0), np.sin(2 * ts) / 2)
    assert beta_nonmarkov_1q(0.0, 1.0, 7.0) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# three qubits, Markovian
# ---------------------------------------------------------------------------


def test_markov3q_leak():
    assert markov3q_exact_leak(0.0, 1.0, 7.0) == pytest.approx(0.0)
    assert markov3q_exact_leak(1e3, 1.0, 0.0) == pytest.approx(0.75)
    assert markov3q_exact_leak(1.0, 1.0, 96.0) == pytest.approx(
        0.03 * (1.0 - np.exp(-100.0))
    )
    with pytest.raises(ValueError):
        markov3q_exact_leak(1.0, 0.0, 1.0)


def test_markov3q_approx_a():
    assert markov3q_approx_a(0.0, 1.0, 96.0) == pytest.approx(1.0)
    assert markov3q_approx_a(8.0, 1.0, 96.0) == pytest.approx((1 + np.exp(-1.0)) / 2)
    with pytest.raises(ValueError):
        markov3q_approx_a(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# slow-timescale fidelity forms
# ---------------------------------------------------------------------------


def test_fidelity_approx_values():
    assert fidelity_approx_lowest(0.0, 1.0, 100.0) == pytest.approx(1.0)
    t_half = np.pi * 100.0**2 / 24.0
    assert fidelity_approx_lowest(t_half, 1.0, 100.0) == pytest.approx(0.0, abs=1e-12)
    damped = fidelity_approx_damped(t_half, 1.0, 100.0)
    assert damped == pytest.approx((1.0 - np.exp(-6 * np.pi / 100.0)) / 2.0)
    assert damped == pytest.approx(0.0859, abs=5e-5)
    t_env = 100.0**3 / 144.0
    assert fidelity_approx_damped(t_env, 1.0, 100.0) == pytest.approx(
        (1.0 + np.exp(-1.0) * np.cos(100.0 / 6.0)) / 2.0
    )


@pytest.mark.parametrize("form, big_r, window, bound", [
    *[pytest.param(fidelity_approx_lowest, r, r**2 / 72, 1.0, id=f"lowest-R{r}")
      for r in (10, 30, 100, 300, 1000, 10000, 100000)],
    *[pytest.param(fidelity_approx_damped, r, 10 * r**3 / 144, 1.5, id=f"damped-R{r}")
      for r in (10, 30, 100, 300, 1000, 10000, 100000)],
])
def test_slow_forms_hold_in_their_windows(form, big_r, window, bound):
    """Each slow form is within bound/R of the reduced model's F_cw (its
    first class coordinate) for gamma t in [10/R, window], after the fast
    transient: the undamped form up to the oscillation scale R^2/72, the
    damped one up to the damping scale 10 R^3/144, for R = 10 ... 1e5 (the
    reduced engine's slow/fast split resolves the slow pair at every R)."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), window, n_samples=2001)
    f = _class_columns(traj)[:, 0]
    after = traj.times >= 10.0 / big_r
    err = np.max(np.abs(f[after] - form(traj.times[after], 1.0, big_r)))
    assert err <= bound / big_r


# ---------------------------------------------------------------------------
# spectrum predictions
# ---------------------------------------------------------------------------


def test_predicted_spectrum_structure():
    vals = predicted_spectrum(100.0, 1.0)
    assert len(vals) == 13
    assert vals[0] == 0.0
    # slow pair at +-i 24/R^2 - 144/R^3
    slow = vals[np.argsort(np.abs(vals))[:3]]
    slow = slow[np.abs(slow) > 0]
    assert np.allclose(sorted(s.imag for s in slow), [-0.0024, 0.0024])
    assert np.allclose([s.real for s in slow], -0.000144)
    # fast eigenvalues sit at Re = -kappa
    fast = [v for v in vals if abs(v.real + 100.0) < 1e-9]
    assert len(fast) == 10
    # closed under conjugation
    for v in vals:
        assert np.min(np.abs(vals - np.conj(v))) < 1e-12
    with pytest.raises(ValueError):
        predicted_spectrum(0.0)


# ---------------------------------------------------------------------------
# Zeno regime
# ---------------------------------------------------------------------------


def test_zeno_coefficient_values():
    assert zeno_coefficient(np.zeros((4, 4)), np.diag([1.0, 0.0]), np.eye(2) / 2) == 0.0
    gamma = 1.7
    h1 = pair_hamiltonian(trivial_code(), gamma)
    c1 = zeno_coefficient(h1, np.diag([1.0, 0.0]), np.eye(2) / 2)
    assert c1 == pytest.approx(gamma**2)
    h3 = pair_hamiltonian(bitflip3_code(), gamma)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    c3 = zeno_coefficient(h3, rho0, np.eye(8) / 8)
    assert c3 == pytest.approx(3 * gamma**2)
    with pytest.raises(ValueError):
        zeno_coefficient(np.array([[0, 1], [0, 0]]), np.diag([1.0, 0.0]), np.eye(1))


def test_zeno_coefficient_refuses_a_bath_state_that_is_not_hermitian():
    """A bath state that is not Hermitian would make C complex: ValueError,
    which ``python -O`` keeps, for a random Hermitian H on a system and a
    bath qubit."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    with pytest.raises(ValueError, match="bath state must be Hermitian"):
        zeno_coefficient(h, np.diag([1.0, 0.0]), np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_zeno_equilibrium():
    assert zeno_equilibrium(1.0, 5.0) == pytest.approx(0.92)
    assert zeno_equilibrium(0.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        zeno_equilibrium(1.0, 0.0)
