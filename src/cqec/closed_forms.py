"""Closed-form solutions and analytic predictions for the continuously
corrected bit-flip models.

Everything here is a pure function of dimensionless products (lambda*t,
gamma*t, r = kappa/lambda, R = kappa/gamma); there is no global unit
system.  Functions accept scalars or numpy arrays for the time argument.

Naming: "markov" refers to the single-qubit trivial code under Lindblad
bit-flip noise, "nonmarkov" to the same code coupled to a bath qubit via
gamma * X (x) X, "markov3q" to the three-qubit repetition code under
independent Lindblad flips, and the "approx" fidelity forms are the
large-R slow-timescale approximations for the pair-coupled three-qubit
model (exact model is in :mod:`cqec.reduced_model`).  Their two windows
are tested against the reduced model for R from 10 to 1000, from
gamma t = 10/R (after the fast transient): the undamped form is within 1/R
up to the oscillation scale gamma t = R^2/72, the damped one within 1.5/R
up to the damping scale gamma t = 10 R^3/144.
"""

import numpy as np


# ---------------------------------------------------------------------------
# single qubit
# ---------------------------------------------------------------------------


def alpha_markov_1q(t, lam, kappa):
    """Fidelity of the continuously reset qubit under bit-flip noise.

    alpha(t) = (1 - alpha*) e^{-(kappa+2 lambda) t} + alpha*   with
    alpha* = 1 - 1/(2+r), r = kappa/lambda (alpha(0) = 1).
    """
    if lam < 0 or kappa < 0 or (lam == 0 and kappa == 0):
        raise ValueError("need lambda, kappa >= 0 and not both zero")
    star = (kappa + lam) / (kappa + 2.0 * lam)
    return (1.0 - star) * np.exp(-(kappa + 2.0 * lam) * np.asarray(t)) + star


def alpha_star_markov(r):
    """Equilibrium fidelity 1 - 1/(2+r) of the Markovian single-qubit model."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return 1.0 - 1.0 / (2.0 + r)


def alpha_star_nonmarkov(big_r):
    """Equilibrium fidelity 1 - 2/(4+R^2) of the pair-coupled single qubit."""
    if big_r < 0:
        raise ValueError("R must be >= 0")
    return 1.0 - 2.0 / (4.0 + big_r**2)


def alpha_nonmarkov_1q(t, gamma, kappa):
    """Fidelity of the continuously reset qubit coupled to one bath qubit.

    With D = 4 gamma^2 + kappa^2:

    alpha(t) = (2 gamma^2 + kappa^2)/D
               + e^{-kappa t} [ (kappa gamma / D) sin(2 gamma t)
                                + (2 gamma^2 / D) cos(2 gamma t) ]

    Reduces to cos^2(gamma t) at kappa = 0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    t = np.asarray(t)
    d = 4.0 * gamma**2 + kappa**2
    osc = (kappa * gamma / d) * np.sin(2 * gamma * t) + (2 * gamma**2 / d) * np.cos(
        2 * gamma * t
    )
    return (2.0 * gamma**2 + kappa**2) / d + np.exp(-kappa * t) * osc


def beta_nonmarkov_1q(t, gamma, kappa):
    """Hidden-coherence partner of :func:`alpha_nonmarkov_1q`.

    Obtained from beta = (kappa (1-alpha) - dalpha/dt) / (2 gamma):

    beta(t) = (kappa gamma / D)(1 - e^{-kappa t} cos 2 gamma t)
              + (2 gamma^2 / D) e^{-kappa t} sin 2 gamma t
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    t = np.asarray(t)
    d = 4.0 * gamma**2 + kappa**2
    e = np.exp(-kappa * t)
    return (kappa * gamma / d) * (1.0 - e * np.cos(2 * gamma * t)) + (
        2.0 * gamma**2 / d
    ) * e * np.sin(2 * gamma * t)


# ---------------------------------------------------------------------------
# three qubits, Markovian
# ---------------------------------------------------------------------------


def markov3q_exact_leak(t, lam, kappa):
    """Exact weight outside the code space, b(t) + c(t), for the repetition
    code under independent bit flips:

    b + c = (3/(4+r)) (1 - e^{-(4+r) lambda t}),  r = kappa/lambda.
    """
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    rate = 4.0 * lam + kappa
    return (3.0 * lam / rate) * (1.0 - np.exp(-rate * np.asarray(t)))


def markov3q_approx_a(t, lam, r):
    """Large-r approximation of the codeword weight: a ~ (1 + e^{-12 lambda t / r})/2.

    The encoded qubit decays roughly like a bare qubit with flip rate
    6 lambda / r; only meaningful for r >> 1.
    """
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if r <= 0:
        raise ValueError("approximate form needs r > 0")
    return (1.0 + np.exp(-12.0 * lam * np.asarray(t) / r)) / 2.0


# ---------------------------------------------------------------------------
# three qubits, pair-coupled: slow-timescale fidelity forms and spectrum
# ---------------------------------------------------------------------------


def fidelity_approx_lowest(t, gamma, big_r):
    """Lowest-order slow fidelity (1 + cos(Im lambda t))/2, lambda the slow
    eigenvalue of :func:`predicted_spectrum` (Im lambda = 24 gamma / R^2).

    It leaves out the damping, so it holds only on the oscillation scale:
    within 1/R of the reduced model for gamma t in [10/R, R^2/72].
    """
    lam = predicted_spectrum(big_r, gamma)[-2]
    return (1.0 + np.cos(lam.imag * np.asarray(t))) / 2.0


def fidelity_approx_damped(t, gamma, big_r):
    """Slow fidelity with the envelope from the induced bit-flip channel,
    (1 + e^{Re lambda t} cos(Im lambda t))/2 with lambda the slow eigenvalue
    of :func:`predicted_spectrum` (-144 gamma / R^3 + 24i gamma / R^2).

    It holds on the damping scale: within 1.5/R of the reduced model for
    gamma t in [10/R, 10 R^3/144].
    """
    lam = predicted_spectrum(big_r, gamma)[-2]
    t = np.asarray(t)
    return (1.0 + np.exp(lam.real * t) * np.cos(lam.imag * t)) / 2.0


def predicted_spectrum(big_r, gamma=1.0):
    """The 13 predicted eigenvalues of the reduced coefficient matrix.

    Leading forms for large R (kappa = R gamma): one exact zero, two at
    -kappa, fast pairs -kappa +- 2i gamma, -kappa +- 4i gamma,
    -kappa +- i(sqrt(13)+3) gamma, -kappa +- i(sqrt(13)-3) gamma, and the
    slow conjugate pair +-i (24/R^2) gamma - (144/R^3) gamma.
    """
    if big_r <= 0:
        raise ValueError("R must be > 0")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    kappa = big_r * gamma
    s13 = np.sqrt(13.0)
    vals = [0.0, -kappa, -kappa]
    for w in (2.0, 4.0, s13 + 3.0, s13 - 3.0):
        vals.append(-kappa + 1j * w * gamma)
        vals.append(-kappa - 1j * w * gamma)
    slow_re = -144.0 * gamma / big_r**3
    slow_im = 24.0 * gamma / big_r**2
    vals.append(slow_re + 1j * slow_im)
    vals.append(slow_re - 1j * slow_im)
    return np.array(vals, dtype=complex)


# ---------------------------------------------------------------------------
# Zeno regime
# ---------------------------------------------------------------------------


def zeno_coefficient(h, rho_system0, rho_bath0):
    """Quadratic decay coefficient C of the uncorrected fidelity.

    For a system+bath Hamiltonian H and initial state P0 (x) rho_B with
    P0 a pure system projector,

        1 - F(t) = C t^2 + O(t^3),
        C = Tr{H^2 (P0 (x) rho_B)} - Tr{H (P0 (x) 1) H (P0 (x) rho_B)}.
    """
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("Hamiltonian must be Hermitian")
    p0 = np.asarray(rho_system0, dtype=complex)
    if np.max(np.abs(p0 @ p0 - p0)) > 1e-10:
        raise ValueError("initial system state must be a pure projector")
    rho_b = np.asarray(rho_bath0, dtype=complex)
    if np.max(np.abs(rho_b - rho_b.conj().T)) > 1e-12:
        raise ValueError("bath state must be Hermitian")
    db = rho_b.shape[0]
    full0 = np.kron(p0, rho_b)
    p0_lift = np.kron(p0, np.eye(db, dtype=complex))
    if full0.shape != h.shape:
        raise ValueError("system (x) bath dimensions do not match H")
    # both traces are of products of two Hermitian matrices, so C is real
    c = np.trace(h @ h @ full0) - np.trace(h @ p0_lift @ h @ full0)
    return float(c.real)


def zeno_equilibrium(c, kappa):
    """Large-kappa equilibrium fidelity estimate 1 - 2C/kappa^2.

    Recoveries arrive at rate kappa, so in equilibrium the time s since the
    last one is exponentially distributed with E[s^2] = 2/kappa^2; the
    fidelity lost over s is C s^2.  For the pair-coupled qubit (C = gamma^2)
    this is the leading order of the exact 1 - 2 gamma^2/(4 gamma^2 + kappa^2).
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    return 1.0 - 2.0 * c / kappa**2

