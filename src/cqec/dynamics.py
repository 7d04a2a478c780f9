"""Time-evolution engines for master equations and their discretizations.

Four routes to a trajectory:

* ``integrate`` -- adaptive Dormand-Prince 5(4) (default) on the master
  equation ``drho/dt = G(rho)``, where G is a dense superoperator or a
  matrix-free generator with an ``apply`` method.  G is a constant,
  smooth linear generator (kappa (Phi - id) is a rate, not a train of
  discrete events), so the step is limited only by the error control.
* ``integrate`` with method="spectral" / ``propagate_linear`` -- exact
  propagation of a constant linear system by eigendecomposition, with a
  scaling-and-squaring fallback when the eigenbasis is ill-conditioned;
  the independent cross-check of DP5(4) on dense generators.
* ``step_weak_map`` -- discrete cycles of unitary evolution over tau_c
  followed by the weak recovery channel (1-eps) id + eps Phi; converges
  first-order in tau_c to the continuous dynamics at kappa = eps/tau_c.
  On registers of up to ``DENSE_MAX_QUBITS`` qubits the one-cycle
  superoperator S is built once and the samples are reached by the
  powers S^stride (and S^remainder for the last one); larger registers
  step cycle by cycle.
* ``jump_monte_carlo`` -- the jump-process reading of the same model:
  full recoveries applied at Poisson(kappa) random times, averaged over
  trajectories.  All trajectories of a chunk evolve together as one
  (B, d, d) stack in the eigenbasis of H, where free evolution is an
  elementwise phase; a recovery hits only the trajectories whose next
  jump comes before the next sample.

Recoveries use the syndrome-block gather ``apply_recovery`` of
:mod:`cqec.codes_and_maps`, never Kraus products.

States along trajectories are checked, never repaired: the trace must
stay within 1e-8 of 1, and an eigenvalue below -1e-8 triggers a
PositivityWarning (below -1e-6, an IntegrationError).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import (
    DensityMatrix,
    QubitRegister,
    TOL_POS,
    vectorize,
    devectorize,
)
from .codes_and_maps import DENSE_MAX_QUBITS, apply_recovery

TRACE_TOL = 1e-8
METHODS = ("adaptive-RK", "spectral")
# Largest number of complex state entries in one Monte Carlo chunk
# (64 trajectories at d = 64), which bounds its memory.
MC_CHUNK_ENTRIES = 2**18


class IntegrationError(RuntimeError):
    """Step-size underflow, positivity blowup, or trace loss."""


class PositivityWarning(UserWarning):
    """A sampled state dipped below -1e-8 in its smallest eigenvalue."""


@dataclass
class IntegratorConfig:
    method: str = "adaptive-RK"  # "adaptive-RK" | "spectral"
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be > 0")


@dataclass
class Trajectory:
    """Sampled evolution: `states` is (n, d, d) complex for kind="density"
    or (n, 13) float for kind="reduced"; observables are filled in by
    cqec.analysis (Monte Carlo adds its own mean/stderr entries)."""

    times: np.ndarray
    states: np.ndarray
    kind: str = "density"
    register: QubitRegister | None = None
    observables: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self):
        return len(self.times)


def _check_sample(rho, t):
    tr = abs(np.trace(rho).real - 1.0)
    if tr > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise IntegrationError(f"trace deviates by {tr:.3e} at t={t:g}")
    lo = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)))
    if lo < -100.0 * TOL_POS:
        raise IntegrationError(f"eigenvalue {lo:.3e} at t={t:g}; integration diverged")
    if lo < -TOL_POS:
        warnings.warn(
            f"state eigenvalue {lo:.3e} below -{TOL_POS:g} at t={t:g}",
            PositivityWarning,
            stacklevel=3,
        )


# Dormand-Prince 5(4) tableau (FSAL: last stage is the next first stage)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _initial_step(f, y0, span, rtol, atol):
    f0 = f(y0)
    scale = atol + rtol * np.max(np.abs(y0))
    d1 = np.max(np.abs(f0)) / scale
    h = 0.01 / d1 if d1 > 0 else span / 100.0
    return min(h, span / 10.0)


def _advance_dopri(f, y, t, t_target, h, rtol, atol):
    """Adaptive steps from t to t_target; returns (y, suggested h)."""
    k1 = f(y)
    tiny = 1e-12 * max(1.0, abs(t_target))
    while t_target - t > tiny:
        remaining = t_target - t
        clipped = min(h, remaining)
        if clipped < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t:g}")
        ks = [k1]
        for i in range(1, 7):
            yi = y + clipped * sum(a * k for a, k in zip(_DP_A[i], ks))
            ks.append(f(yi))
        y5 = y + clipped * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        # FSAL: stage 7 was evaluated at y5 already
        err = clipped * sum(e * k for e, k in zip(_DP_ERR, ks) if e != 0.0)
        norm = _error_norm(err, y, y5, rtol, atol)
        factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
        if norm <= 1.0:
            t = t_target if clipped >= remaining - tiny else t + clipped
            y = y5
            k1 = ks[6]
            if clipped >= h or factor < 1.0:
                h = clipped * factor
        else:
            h = clipped * factor
    return y, h


def integrate(generator, rho0, t_max, cfg=None, n_samples=201):
    """Integrate drho/dt = G(rho) and sample on a uniform grid.

    "adaptive-RK" chooses its steps by error control alone; "spectral"
    propagates a dense generator exactly.  The generator exposes
    ``apply(rho)`` (and ``matrix`` for "spectral").
    t_max = 0 returns the single-sample trajectory.
    """
    cfg = cfg or IntegratorConfig()
    rho0 = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    d = rho0.shape[0]
    register = getattr(generator, "register", None)
    if register is None and hasattr(generator, "hilbert_dim"):
        n_qubits = int(round(np.log2(generator.hilbert_dim)))
        register = QubitRegister(n_qubits, 0)

    if t_max == 0:
        return Trajectory(np.zeros(1), rho0[None, :, :].copy(), "density", register)

    times = np.linspace(0.0, t_max, n_samples)
    if times[-1] != t_max:
        times = np.append(times, t_max)

    if cfg.method == "spectral":
        if not hasattr(generator, "matrix"):
            raise ValueError("spectral method needs a dense superoperator")
        xs = propagate_linear(generator.matrix, vectorize(rho0), times)
        states = np.array([devectorize(x) for x in xs])
    else:
        f = generator.apply
        states = np.empty((len(times), d, d), dtype=complex)
        states[0] = rho0
        y = rho0.copy()
        h = _initial_step(f, y, t_max, cfg.rtol, cfg.atol)
        for i in range(1, len(times)):
            y, h = _advance_dopri(f, y, times[i - 1], times[i], h, cfg.rtol, cfg.atol)
            states[i] = y

    for t, rho in zip(times, states):
        _check_sample(rho, t)
    return Trajectory(times, states, "density", register)


def propagate_linear(system_matrix, x0, times):
    """x(t) = exp(M t) x0 for each requested time, by eigendecomposition.

    Falls back to incremental scaling-and-squaring exponentials when the
    eigenbasis condition number exceeds 1e8 (defective or near-defective M).
    """
    m = np.asarray(system_matrix)
    x0 = np.asarray(x0, dtype=complex)
    times = np.asarray(times, dtype=float)
    w, v = np.linalg.eig(m)
    if np.linalg.cond(v) < 1e8:
        c = np.linalg.solve(v, x0)
        return (np.exp(np.outer(times, w)) * c) @ v.T
    order = np.argsort(times)
    out = np.empty((len(times), len(x0)), dtype=complex)
    x = x0
    t_prev = 0.0
    cache = {}
    for idx in order:
        dt = times[idx] - t_prev
        if dt != 0.0:
            if dt not in cache:
                import scipy.linalg  # only here: keeps scipy out of `import cqec`

                cache[dt] = scipy.linalg.expm(m * dt)
            x = cache[dt] @ x
            t_prev = times[idx]
        out[idx] = x
    return out


def _pair_register(hamiltonian, code):
    d = np.asarray(hamiltonian).shape[0]
    return QubitRegister(code.system_count, int(round(np.log2(d))) - code.system_count)


def step_weak_map(rho0, hamiltonian, code, eps, tau_c, n_steps, sample_stride=1):
    """Discrete recovery cycles: exp(-iH tau_c) conjugation, then the weak
    channel (1-eps) rho + eps Phi(rho), repeated n_steps times; sampled
    after every ``sample_stride`` cycles and after the last one.

    Equivalent continuous correction rate: kappa = eps / tau_c.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if tau_c <= 0 or n_steps < 1 or sample_stride < 1:
        raise ValueError("need tau_c > 0, n_steps >= 1 and sample_stride >= 1")
    rho = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    register = _pair_register(hamiltonian, code)
    d, db = register.dim, 2**register.bath_count

    w, v = np.linalg.eigh(np.asarray(hamiltonian, dtype=complex))
    u = v @ (np.exp(-1j * w * tau_c)[:, None] * v.conj().T)

    def cycle(r):
        r = u @ r @ u.conj().T
        return (1.0 - eps) * r + eps * apply_recovery(code, r, db)

    steps = list(range(sample_stride, n_steps + 1, sample_stride))
    if steps[-1:] != [n_steps]:
        steps.append(n_steps)
    if register.total <= DENSE_MAX_QUBITS:
        # one-cycle superoperator on row-major flattened states: S[:, k] = cycle(E_k)
        s = cycle(np.eye(d * d, dtype=complex).reshape(d * d, d, d)).reshape(d * d, d * d).T
        powers = {}

        def advance(r, k):
            if k not in powers:
                powers[k] = np.linalg.matrix_power(s, k)
            return (powers[k] @ r.ravel()).reshape(d, d)

    else:

        def advance(r, k):
            for _ in range(k):
                r = cycle(r)
            return r

    recorded = [rho.copy()]
    prev = 0
    for step in steps:
        rho = advance(rho, step - prev)
        recorded.append(rho)
        prev = step
    times = np.array([0.0] + [k * tau_c for k in steps])
    return Trajectory(times, np.array(recorded), "density", register)


def jump_monte_carlo(rho0, hamiltonian, code, kappa, t_max, n_traj, seed, n_samples=21):
    """Ensemble average of the jump-process unraveling.

    Each trajectory evolves unitarily under H and suffers instantaneous
    full recoveries Phi at Poisson(kappa) random times.  Per-trajectory
    randomness comes from an independent counter-based stream keyed by
    (seed, trajectory index), so results are reproducible and independent
    of execution order.  Returns the mean state per sample time, with the
    ensemble mean/stderr of the codeword fidelity in `observables`.

    Trajectories run in chunks of at most ``MC_CHUNK_ENTRIES`` state
    entries, as one (B, d, d) stack in the eigenbasis of H.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if kappa < 0 or t_max <= 0:
        raise ValueError("need kappa >= 0 and t_max > 0")
    rho0 = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    register = _pair_register(hamiltonian, code)
    d, db = register.dim, 2**register.bath_count

    w, v = np.linalg.eigh(np.asarray(hamiltonian, dtype=complex))
    vh = v.conj().T
    # F_cw = Tr[(|L><L| (x) id_bath) rho] = sum((V^dag P V)^T * rho~) in the eigenbasis
    p_code = np.zeros(d)
    p_code[code.logical_zero * db : (code.logical_zero + 1) * db] = 1.0
    p_eig_t = ((vh * p_code) @ v).T
    rho0_eig = vh @ rho0 @ v

    def evolve(r, dt):
        """Free evolution of r[b] by dt[b]: elementwise phases in the eigenbasis."""
        e = np.exp(-1j * np.outer(dt, w))
        return r * (e[:, :, None] * e.conj()[:, None, :])

    def recover(r):
        return vh @ apply_recovery(code, v @ r @ vh, db) @ v

    times = np.linspace(0.0, t_max, n_samples)
    mean_eig = np.zeros((n_samples, d, d), dtype=complex)
    # sums of f - shift, with the first trajectory's f as shift: the variance
    # of nearly equal values then suffers no cancellation (and is 0 if equal)
    shift = None
    dev_sum = np.zeros(n_samples)
    dev_sqsum = np.zeros(n_samples)
    chunk = max(1, MC_CHUNK_ENTRIES // (d * d))

    for first in range(0, n_traj, chunk):
        idx = np.arange(first, min(first + chunk, n_traj))
        jumps = []
        for i in idx:
            rng = np.random.Generator(np.random.Philox(key=[seed, i]))
            n_jump = rng.poisson(kappa * t_max)
            jumps.append(np.sort(rng.uniform(0.0, t_max, n_jump)))
        # jump times padded with +inf; one extra column so every row ends in inf
        pending = np.full((len(idx), 1 + max(len(j) for j in jumps)), np.inf)
        for row, j in zip(pending, jumps):
            row[: len(j)] = j
        rows = np.arange(len(idx))
        nxt = np.zeros(len(idx), dtype=int)
        t_now = np.zeros(len(idx))
        rho = np.broadcast_to(rho0_eig, (len(idx), d, d)).copy()
        fids = np.empty((n_samples, len(idx)))
        for k, ts in enumerate(times):
            while True:
                t_jump = pending[rows, nxt]
                hit = np.flatnonzero(t_jump <= ts)
                if hit.size == 0:
                    break
                rho[hit] = recover(evolve(rho[hit], t_jump[hit] - t_now[hit]))
                t_now[hit] = t_jump[hit]
                nxt[hit] += 1
            rho = evolve(rho, ts - t_now)
            t_now[:] = ts
            mean_eig[k] += rho.sum(axis=0)
            fids[k] = np.einsum("ij,bij->b", p_eig_t, rho).real
        if shift is None:
            shift = fids[:, 0].copy()
        dev = fids - shift[:, None]
        dev_sum += dev.sum(axis=1)
        dev_sqsum += (dev * dev).sum(axis=1)

    mean = v @ (mean_eig / n_traj) @ vh
    f_mean = shift + dev_sum / n_traj
    if n_traj > 1:
        var = (dev_sqsum - dev_sum**2 / n_traj) / (n_traj - 1)
        f_se = np.sqrt(np.maximum(var, 0.0) / n_traj)
    else:
        f_se = np.zeros(n_samples)
    return Trajectory(
        times,
        mean,
        "density",
        register,
        observables={"F_cw_mean": f_mean, "F_cw_se": f_se},
    )
