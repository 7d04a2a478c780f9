"""Time-evolution engines for master equations and their discretizations.

* ``integrate`` -- adaptive Dormand-Prince 5(4) (default) on the master
  equation ``drho/dt = G(rho)``.  G is a constant, smooth linear
  generator (kappa (Phi - id) is a rate, not a train of discrete
  events), so the step is limited only by the error control.
  method="spectral" propagates the same restriction exactly
  (``propagate_linear``); it is the cross-check of DP5(4).
* ``step_weak_map`` -- discrete cycles of unitary evolution over tau_c
  followed by the weak recovery channel (1-eps) id + eps Phi; converges
  first-order in tau_c to the continuous dynamics at kappa = eps/tau_c.
* ``jump_monte_carlo`` -- the jump-process reading of the same model:
  full recoveries applied at Poisson(kappa) random times, averaged over
  trajectories.

Every engine runs on the k coordinates of the smallest subspace that
holds rho0 and is mapped into itself by the model's operators
(``invariant_subspace``; Saad, SIAM J. Numer. Anal. 29, 209 (1992), with
several operators in place of one): k = 3 for ``hamiltonian-1q`` and 9
for ``hamiltonian-3q`` from the scenario states.  ``integrate`` takes
the generator's ``apply`` (``restrict_generator``); the weak map and
Monte Carlo take the rate-free operators -i[H, .] and Phi (x) id_bath,
the latter applied by ``apply_recovery`` of :mod:`cqec.codes_and_maps`.
Samples are expanded back to d x d states.

States along trajectories are checked, never repaired: the trace must
stay within 1e-8 of 1, and an eigenvalue below -1e-8 triggers a
PositivityWarning (below -1e-6, an IntegrationError).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import DensityMatrix, QubitRegister, TOL_POS
from .codes_and_maps import apply_recovery

TRACE_TOL = 1e-8
METHODS = ("adaptive-RK", "spectral")
# Largest number of array entries in one Monte Carlo chunk, which bounds its memory.
MC_CHUNK_ENTRIES = 2**18
# Smallest new direction in ``invariant_subspace``, relative to the largest image;
# rounding leaves ~1e-16.  hamiltonian-3q keeps all k = 9 for R in [1e-10, 3e7].
SUBSPACE_TOL = 1e-12


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

    Both methods run on the k coordinates of the Krylov space of rho0
    (``restrict_generator``) and expand each sample to a d x d state:
    "adaptive-RK" steps c -> g c by DP5(4) with error control alone,
    "spectral" propagates g exactly.  The generator exposes ``apply(rho)``
    and ``register``.  t_max = 0 returns the single-sample trajectory.

    The scenario states give k <= 9.  A generic six-qubit rho0 gives
    k = 1287, whose restriction takes tens of seconds to build.
    """
    cfg = cfg or IntegratorConfig()
    rho0 = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    d = rho0.shape[0]
    if t_max == 0:
        return Trajectory(np.zeros(1), rho0[None, :, :].copy(), "density", generator.register)

    times = np.linspace(0.0, t_max, n_samples)
    if times[-1] != t_max:
        times = np.append(times, t_max)

    q, g = restrict_generator(generator, rho0)
    c0 = q.conj().T @ rho0.ravel()
    if cfg.method == "spectral":
        coords = propagate_linear(g, c0, times)
    else:
        f = lambda c: g @ c
        coords = np.empty((len(times), len(c0)), dtype=complex)
        coords[0] = c = c0
        h = _initial_step(f, c, t_max, cfg.rtol, cfg.atol)
        for i in range(1, len(times)):
            c, h = _advance_dopri(f, c, times[i - 1], times[i], h, cfg.rtol, cfg.atol)
            coords[i] = c
    states = (coords @ q.T).reshape(len(times), d, d)

    for t, rho in zip(times, states):
        _check_sample(rho, t)
    return Trajectory(times, states, "density", generator.register)


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


def invariant_subspace(ops, rho0):
    """(q, blocks): orthonormal columns q (row-major flattened d x d
    states) spanning the smallest subspace that holds rho0 and is mapped
    into itself by every op in ``ops`` (linear maps of d x d matrices),
    and blocks[i] = q^dag ops[i](q), the k x k restriction of ops[i].

    An image of a basis vector, orthogonalised twice against the basis,
    adds a vector when its norm exceeds ``SUBSPACE_TOL`` times the largest
    image of the same op.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    q = (rho0 / np.linalg.norm(rho0)).reshape(1, d * d)  # basis vectors as rows
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


def restrict_generator(generator, rho0):
    """(q, g) with exp(G t) rho0 = q exp(g t) q^dag rho0: the basis q of the
    Krylov space of ``generator.apply`` from rho0 and the restriction g,
    less its rounding-level part along the trace functional tr(q c), which
    would otherwise make the trace drift by ~1e-16 |G| t."""
    rho0 = np.asarray(rho0, dtype=complex)
    q, (g,) = invariant_subspace([generator.apply], rho0)
    tr = np.eye(rho0.shape[0]).ravel() @ q  # tr(state) = tr @ coordinates
    return q, g - np.outer(tr.conj(), tr @ g) / np.vdot(tr, tr).real


def _pair_subspace(rho0, hamiltonian, code):
    """(register, q, w, v, phi_k): q spans the subspace of rho0 invariant
    under -i[H, .] and Phi (x) id_bath, whose restrictions are -i v w v^dag
    (so exp(-i[H, .] t) becomes v exp(-i w t) v^dag) and phi_k."""
    h = np.asarray(hamiltonian, dtype=complex)
    register = QubitRegister(code.system_count, int(np.log2(len(h))) - code.system_count)
    db = 2**register.bath_count
    ops = [lambda r: -1j * (h @ r - r @ h), lambda r: apply_recovery(code, r, db)]
    q, (n_k, phi_k) = invariant_subspace(ops, rho0)
    w, v = np.linalg.eigh(1j * n_k)
    return register, q, w, v, phi_k


def step_weak_map(rho0, hamiltonian, code, eps, tau_c, n_steps, sample_stride=1):
    """Discrete recovery cycles: exp(-iH tau_c) conjugation, then the weak
    channel (1-eps) rho + eps Phi(rho), repeated n_steps times; sampled
    after every ``sample_stride`` cycles and after the last one.

    Samples are reached by powers of the one-cycle map ((1-eps) I + eps
    phi_k) exp(tau_c N_k) on the coordinates of ``_pair_subspace``, where
    N_k and phi_k restrict -i[H, .] and Phi (x) id_bath.
    Equivalent continuous correction rate: kappa = eps / tau_c.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if tau_c <= 0 or n_steps < 1 or sample_stride < 1:
        raise ValueError("need tau_c > 0, n_steps >= 1 and sample_stride >= 1")
    rho = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    register, q, w, v, phi_k = _pair_subspace(rho, hamiltonian, code)
    unitary = (v * np.exp(-1j * w * tau_c)) @ v.conj().T
    s = ((1.0 - eps) * np.eye(len(w)) + eps * phi_k) @ unitary

    steps = list(range(sample_stride, n_steps + 1, sample_stride))
    if steps[-1:] != [n_steps]:
        steps.append(n_steps)
    gaps = np.diff([0] + steps)  # the stride, and a shorter last gap
    powers = {n: np.linalg.matrix_power(s, n) for n in set(gaps)}
    coords = [q.conj().T @ rho.ravel()]
    for n in gaps:
        coords.append(powers[n] @ coords[-1])
    times = np.array([0.0] + [k * tau_c for k in steps])
    states = (np.array(coords) @ q.T).reshape(len(times), register.dim, register.dim)
    return Trajectory(times, states, "density", register)


def jump_monte_carlo(rho0, hamiltonian, code, kappa, t_max, n_traj, seed, n_samples=21):
    """Ensemble average of the jump-process unraveling.

    Each trajectory evolves unitarily under H and suffers instantaneous
    full recoveries Phi at Poisson(kappa) random times.  Per-trajectory
    randomness comes from an independent counter-based stream keyed by
    (seed, trajectory index), so results are reproducible and independent
    of execution order.  Returns the mean state per sample time, with the
    ensemble mean/stderr of the codeword fidelity in `observables`.

    A chunk of trajectories evolves together, each as its k coordinates on
    ``_pair_subspace`` in the eigenbasis v: free evolution is a phase per
    coordinate, a recovery one k x k product (for the trajectories whose
    next jump precedes the next sample) and F_cw a dot product.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if kappa < 0 or t_max <= 0:
        raise ValueError("need kappa >= 0 and t_max > 0")
    rho0 = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    register, q, w, v, phi_k = _pair_subspace(rho0, hamiltonian, code)
    d, db = register.dim, 2**register.bath_count
    qv = q @ v  # eigen-coordinates -> row-major flattened states
    recover_t = (v.conj().T @ phi_k @ v).T  # y -> y @ recover_t is one recovery
    # F_cw = Tr[(|L><L| (x) id_bath) rho] = p_eig @ y, summed over diagonal entries
    diagonal = np.arange(code.logical_zero * db, (code.logical_zero + 1) * db) * (d + 1)
    p_eig = qv[diagonal].sum(axis=0)
    y0 = qv.conj().T @ rho0.ravel()

    times = np.linspace(0.0, t_max, n_samples)
    mean_y = np.zeros((n_samples, len(w)), dtype=complex)
    # sums of f - shift, with the first trajectory's f as shift: the variance
    # of nearly equal values then suffers no cancellation (and is 0 if equal)
    shift = None
    dev_sum = np.zeros(n_samples)
    dev_sqsum = np.zeros(n_samples)
    # per trajectory: coordinates, fidelity samples and the padded jump
    # times, with the mean jump count standing in for the chunk's largest
    chunk = max(1, MC_CHUNK_ENTRIES // (len(w) + n_samples + 2 + int(kappa * t_max)))

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
        y = np.broadcast_to(y0, (len(idx), len(w))).copy()
        fids = np.empty((n_samples, len(idx)))
        for k, ts in enumerate(times):
            while True:
                t_jump = pending[rows, nxt]
                hit = np.flatnonzero(t_jump <= ts)
                if hit.size == 0:
                    break
                phases = np.exp(-1j * np.outer(t_jump[hit] - t_now[hit], w))
                y[hit] = (y[hit] * phases) @ recover_t
                t_now[hit] = t_jump[hit]
                nxt[hit] += 1
            y = y * np.exp(-1j * np.outer(ts - t_now, w))  # free evolution
            t_now[:] = ts
            mean_y[k] += y.sum(axis=0)
            fids[k] = (y @ p_eig).real
        if shift is None:
            shift = fids[:, 0].copy()
        dev = fids - shift[:, None]
        dev_sum += dev.sum(axis=1)
        dev_sqsum += (dev * dev).sum(axis=1)

    mean = ((mean_y / n_traj) @ qv.T).reshape(n_samples, d, d)
    f_mean = shift + dev_sum / n_traj
    if n_traj > 1:
        var = (dev_sqsum - dev_sum**2 / n_traj) / (n_traj - 1)
        f_se = np.sqrt(np.maximum(var, 0.0) / n_traj)
    else:
        f_se = np.zeros(n_samples)
    observables = {"F_cw_mean": f_mean, "F_cw_se": f_se}
    return Trajectory(times, mean, "density", register, observables=observables)
