"""Time-evolution engines for master equations and their discretizations.

* ``integrate`` -- the master equation ``drho/dt = G(rho)`` solved
  exactly.  G = noise + kappa correction is a constant linear generator
  (kappa (Phi - id) is a rate, not a train of discrete events), so
  rho(t) = exp(G t) rho0, taken on the restriction of the rate-free noise
  and correction (``_restriction``) by ``_propagate``: an exact split
  into a slow block on the kernel of the correction and a fast block
  (``_slow_fast_split``), so that no slow rate (the slow pair ~24 gamma /
  R^2 of ``hamiltonian-3q``, the logical rate ~12 lambda / r of
  ``markovian-3q``) carries an error of the size of the fast rates ~kappa,
  each block by eigendecomposition (Moler & Van Loan, SIAM Rev. 45, 3
  (2003), method 14), refused with IntegrationError where its eigenbasis
  has condition number 1e8 or more.  The trace is the slow block's first
  coordinate, with its rate set to exactly zero (``_trace_first``), so it
  does not drift with t.
* ``step_weak_map`` -- discrete cycles of unitary evolution over tau_c
  followed by the weak recovery channel (1-eps) id + eps Phi; converges
  first-order in tau_c to the continuous dynamics at kappa = eps/tau_c.
* ``jump_monte_carlo`` -- the jump-process reading of the same model:
  full recoveries applied at Poisson(kappa) random times, averaged over
  trajectories.  Trajectories are stepped in the interaction picture of
  the free evolution, so only a recovery changes their coordinates, and
  a chunk of them in rounds by jump index: round r applies the r-th
  recovery of every trajectory that has one.  Each round writes its
  coordinates into a table of the states at the samples, which the
  sample sums then read in a few vectorized steps.
* ``integrate_krylov`` -- ``integrate`` on the Krylov space of rho0 alone:
  for ``hamiltonian-3q`` a second propagation that reads no table.

The engines run on the k coordinates of a subspace that holds rho0 and
is mapped into itself by the rate-free noise and correction
(Phi (x) id_bath - id), from one function, ``_restriction``.  For
``hamiltonian-3q`` from states in the class span, that is the 13 class
states, with both restrictions read from the reduced model's tables
(``reduced_model.class_restriction``).  Otherwise it is the smallest
one, the Krylov space of rho0 under both maps (``_krylov_restriction``,
``invariant_subspace``; Saad, SIAM J. Numer. Anal. 29, 209 (1992), with
several operators in place of one): k = 3 for ``hamiltonian-1q`` from the
scenario state.  It comes in
Arnoldi form (the restriction of each map is the Gram-Schmidt
coefficients that built the basis, equal to q^dag op(q) to rounding, so
no image of the basis is kept), rotated onto the kernel of the
restricted correction and its complement.  The weak map and Monte Carlo
restrict Phi as I plus the restricted correction.  A trajectory keeps
only its coordinates and the basis (d is read from it; on the class
states it holds the shared class states themselves, not a copy); the
d x d states are built only when ``Trajectory.states`` is read.

Every engine checks its samples, never repairs them (``_check_samples``):
the trace must stay within TRACE_TOL = 1e-8 of 1, and an eigenvalue below
-TOL_POS = -1e-8 triggers a PositivityWarning (below -100 TOL_POS, or a
non-finite trace or eigenvalue, an IntegrationError).  ``integrate`` and
the weak map check every sample, Monte Carlo its mean state.  The check
runs on the coordinates of the whole trajectory at once: the trace is one
product with the traces of the basis states, and the eigenvalues come
from the distinct diagonal blocks that every state in span(q) is
confined to, which the restriction hands over with q.  For a Krylov
basis they are ``_distinct_blocks(q)`` (one 8 x 8 block for
``hamiltonian-3q``, one 2 x 2 for ``hamiltonian-1q``, 1 x 1 blocks for
the Markovian scenarios), derived where q is built; for the class states
they are ``_class_blocks()``, their one 8 x 8 block split by the
permutations of the qubit pairs into one 4 x 4 and two equal 2 x 2
blocks, derived once per process.
"""

import warnings
from functools import cache, cached_property

import numpy as np

from . import reduced_model
from .codes_and_maps import Generator

# A sample is a density matrix while its trace is within TRACE_TOL of 1 and no
# eigenvalue is below -TOL_POS (``_check_samples``, which never renormalizes).
TRACE_TOL = 1e-8
TOL_POS = 1e-8
# Largest number of array entries in one Monte Carlo chunk (``mc_trajectory_entries``
# per trajectory), which bounds its memory.
MC_CHUNK_ENTRIES = 2**18
# Smallest new direction in ``invariant_subspace``, relative to the largest image of
# the same map; rounding leaves ~1e-16.  Also the smallest singular value of the
# restricted correction, relative to its largest, outside its kernel
# (``_krylov_restriction``), and the largest trace row of the restricted noise or
# correction, relative to its scale, that ``integrate`` accepts as rounding.
SUBSPACE_TOL = 1e-12
# An op whose nonzero images all have norms below this one is refused by
# ``invariant_subspace``: it is the norm whose square is the smallest normal double.
# Below it the squares of the entries lose digits (all of them from ~1e-162), and
# Gram-Schmidt on such norms no longer removes the span.  Without the check, the
# full engine's F_cw at gamma t = 1 on the Krylov basis of hamiltonian-3q (R = 1) is
# off the unit-rate curve by 7e-16 at gamma = 1e-154, 5e-14 at 1e-155 and 1e-4 at 1e-160.
UNDERFLOW_NORM = np.sqrt(np.finfo(float).tiny)


class IntegrationError(RuntimeError):
    """A sample that lost trace, dipped below -1e-6 or is not finite, a
    generator whose eigenbasis is too ill-conditioned to propagate, or one
    whose restriction is not resolved in double precision."""


class PositivityWarning(UserWarning):
    """A sampled state dipped below -1e-8 in its smallest eigenvalue."""


class Trajectory:
    """Sampled evolution: the samples at `times` as coordinates `coords`
    (n, k) on the basis columns `basis` (d^2, k, the row-major flattened
    d x d basis states).  `states` (n, d, d) complex is coords @ basis.T,
    built on first access and kept.  `observables` is empty except for
    Monte Carlo, whose ensemble mean and standard error of F_cw it holds
    (``F_cw_mean``, ``F_cw_se``)."""

    def __init__(self, times, coords, basis, observables=None):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.coords = coords
        self.basis = basis
        self.observables = {} if observables is None else observables

    @cached_property
    def states(self):
        d = int(np.sqrt(len(self.basis)))
        return (self.coords @ self.basis.T).reshape(len(self.times), d, d)

    def __len__(self):
        return len(self.times)


def _diagonal_blocks(q, d):
    """The diagonal blocks that every state in span(q) is confined to, as one
    (m, s) array of indices per block size s (m blocks of that size).

    The blocks are the connected components of the graph on the d basis
    indices that links i and j when some basis state has a nonzero (i, j)
    entry; a state in span(q) has exact zeros between two components."""
    linked = (q != 0).any(axis=1).reshape(d, d)
    reach = (linked | linked.T | np.eye(d, dtype=bool)).astype(float)
    while True:  # transitive closure by repeated squaring
        grown = ((reach @ reach) > 0).astype(float)
        if np.array_equal(grown, reach):
            break
        reach = grown
    # a row of reach is its index's component; keep the row of each smallest index
    members = reach[reach.argmax(axis=1) == np.arange(d)] > 0
    sizes = members.sum(axis=1)
    return [np.nonzero(members[sizes == s])[1].reshape(-1, s) for s in sorted(set(sizes))]


def _distinct_blocks(q):
    """What ``_min_eigenvalues`` reads of the basis q (d^2, k): one pair
    (qt, s) per size s of the diagonal blocks (``_diagonal_blocks``), where
    coords @ qt holds the distinct s x s blocks of the state with those
    coordinates side by side, row-major.  Blocks whose rows of q are equal
    bit for bit hold equal entries in every state, so only the first of each
    such group is kept."""
    d = int(np.sqrt(len(q)))
    blocks = []
    for idx in _diagonal_blocks(q, d):
        distinct = {}
        for rows in idx[:, :, None] * d + idx[:, None, :]:
            distinct.setdefault(q[rows.ravel()].tobytes(), rows.ravel())
        blocks.append((q[np.concatenate(list(distinct.values()))].T, idx.shape[1]))
    return blocks


def _block_minima(blocks):
    """Smallest eigenvalue of the Hermitian part of each s x s block of the
    stack ``blocks`` (..., s, s), over the last two axes.  Blocks of size 1
    and 2 are read in closed form: the real part of the entry, and
    (a + d)/2 - hypot((a - d)/2, |b|) for the Hermitian part [[a, b], [b*, d]].
    Larger blocks go to ``np.linalg.eigvalsh``."""
    s = blocks.shape[-1]
    if s == 1:
        return blocks[..., 0, 0].real
    if s == 2:
        a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
        b = (blocks[..., 0, 1] + blocks[..., 1, 0].conj()) / 2.0
        return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(b))
    return np.linalg.eigvalsh((blocks + blocks.conj().swapaxes(-1, -2)) / 2.0).min(axis=-1)


def _min_eigenvalues(coords, blocks):
    """Smallest eigenvalue of the Hermitian part of each state coords[i] @ q.T,
    from its distinct diagonal blocks ``blocks`` (``_distinct_blocks(q)`` or
    ``_class_blocks()``; ``_block_minima``)."""
    lo = np.full(len(coords), np.inf)
    for qt, s in blocks:
        for i in range(0, len(coords), 256):  # 256 samples at a time bound the memory
            part = slice(i, i + 256)
            minima = _block_minima((coords[part] @ qt).reshape(-1, qt.shape[1] // (s * s), s, s))
            lo[part] = np.minimum(lo[part], minima.min(axis=1))
    return lo


def _check_samples(times, coords, q, blocks):
    """Check the states coords[i] @ q.T sampled at ``times`` in time order:
    every sample before the first failing one that dips below -TOL_POS
    warns, and the first failing sample (trace off by more than TRACE_TOL,
    an eigenvalue below -100 TOL_POS, or either non-finite) raises.
    ``blocks`` is what ``_restriction`` hands over with q."""
    d = int(np.sqrt(len(q)))
    finite = np.isfinite(coords).all(axis=1)
    coords = np.where(finite[:, None], coords, 0.0)  # such a sample reads nan below
    trace = np.where(finite, coords @ q[:: d + 1].sum(axis=0), np.nan)  # tr of basis states
    tr_dev = np.abs(trace.real - 1.0)
    lo = np.where(finite, _min_eigenvalues(coords, blocks), np.nan)
    trace_ok = (tr_dev <= TRACE_TOL) & (np.abs(trace.imag) <= TRACE_TOL)
    fails = ~(trace_ok & (lo >= -100.0 * TOL_POS))
    stop = int(np.argmax(fails)) if fails.any() else len(times)
    for i in np.flatnonzero(lo[:stop] < -TOL_POS):
        warnings.warn(
            f"state eigenvalue {lo[i]:.3e} below -{TOL_POS:g} at t={times[i]:g}",
            PositivityWarning,
            stacklevel=3,
        )
    if stop < len(times):
        t = times[stop]
        if not trace_ok[stop]:
            raise IntegrationError(f"trace deviates by {tr_dev[stop]:.3e} at t={t:g}")
        raise IntegrationError(f"eigenvalue {lo[stop]:.3e} at t={t:g}; integration diverged")


@cache
def _class_blocks():
    """What ``_min_eigenvalues`` reads of ``reduced_model.class_basis()``,
    derived once per process, as the class states are built.  A class state
    repeats one 8 x 8 diagonal block B, on rows and columns s (x) (s xor c)
    for each c (``_diagonal_blocks``), indexed by the system part s = lmn.
    A permutation of the qubit pairs permutes the bits of s and leaves every
    class state as it is, so the real orthogonal W below takes B to W^T B W,
    block diagonal with blocks of sizes 4, 2 and 2 and the eigenvalues of B:

    * columns 0-3, the normalised sums over the s with 0, 1, 2 and 3 ones,
      which every permutation keeps;
    * columns 4-5, e_100 - e_010 and e_101 - e_011 over sqrt 2, which the
      swap of pairs 0 and 1 negates;
    * columns 6-7, e_100 + e_010 - 2 e_001 and e_101 + e_011 - 2 e_110 over
      sqrt 6, which that swap keeps, orthogonal to the sums.

    The last two pairs carry the two-dimensional representation of the
    pair permutations twice over, so their 2 x 2 blocks have the same
    eigenvalues, and only the first is read."""
    ones = np.array([bin(s).count("1") for s in range(8)])
    w = np.zeros((8, 8))
    w[np.arange(8), ones] = 1.0 / np.sqrt(np.bincount(ones)[ones])
    for col, (a, b, c) in ((4, (0b100, 0b010, 0b001)), (5, (0b101, 0b011, 0b110))):
        w[[a, b], col] = np.array([1.0, -1.0]) / np.sqrt(2.0)
        w[[a, b, c], col + 2] = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    diag = 9 * np.arange(8)  # s (x) s: the block of c = 0
    q = reduced_model.class_basis()
    mats = w.T @ q[diag[:, None] * 64 + diag].transpose(2, 0, 1) @ w
    return [(mats[:, :4, :4].reshape(13, 16), 4), (mats[:, 4:6, 4:6].reshape(13, 4), 2)]


def _sample_times(t_max, n_samples):
    """n_samples uniform times in [0, t_max]; a horizon that double precision
    cannot split into that many distinct, finite times raises
    IntegrationError."""
    if np.isfinite(t_max):
        times = np.linspace(0.0, t_max, n_samples)
        if np.all(times[1:] > times[:-1]):
            return times
    raise IntegrationError(f"{n_samples} sample times in [0, {t_max:g}] are not distinct and "
                           "finite in double precision")


def integrate(generator, rho0, t_max, n_samples=201):
    """Propagate drho/dt = G(rho) exactly and sample on a uniform grid.

    G = noise + kappa correction: the generator exposes the rate-free maps
    ``noise`` and ``correction`` and the rate ``kappa``.  Both maps are
    restricted to the k coordinates of ``_restriction`` (the 13 normalised
    class states for ``hamiltonian-3q`` from states in the class span,
    otherwise the Krylov space of rho0 under both maps, rotated onto the
    kernel of the correction and its complement), and g = n_k + kappa c_k
    is propagated by ``_propagate`` with that kernel as its slow set, so
    that no slow rate carries an error of the size of kappa.  A restricted
    noise or correction that changes the trace, by a trace row t . op
    above ``SUBSPACE_TOL`` sum |t| max |op| (t the traces of the basis
    states), is refused with IntegrationError before it is propagated:
    the trace is held as an exact coordinate, and these rows, unlike g's,
    do not grow with kappa.  All samples are checked on their coordinates
    (``_check_samples``) and kept as coordinates on q.  t_max = 0 returns
    the single sample rho0, as the coordinate 1 on the basis column rho0.

    The scenario states give k <= 9, a generic six-qubit rho0 k = 93 in
    ~0.1 s (one rate's generator, noise + kappa correction, gave ~1290
    Krylov directions in ~10 s, all but at most 93 of them rounding).
    """
    rho0 = np.array(rho0, dtype=complex)
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max == 0:
        return Trajectory(np.zeros(1), np.ones((1, 1)), rho0.reshape(-1, 1))

    times = _sample_times(t_max, n_samples)
    q, coords, blocks = _propagate_restricted(_restriction(generator, rho0), generator.kappa,
                                              times)
    _check_samples(times, coords, q, blocks)
    return Trajectory(times, coords, q)


def integrate_krylov(generator, rho0, t_max, n_samples=201):
    """``integrate`` (t_max > 0) on ``_krylov_restriction``, also where
    ``_restriction`` reads the tables (k = 9 for ``hamiltonian-3q``)."""
    if not t_max > 0:
        raise ValueError("t_max must be > 0")
    times = _sample_times(t_max, n_samples)
    restriction = _krylov_restriction(generator, np.array(rho0, dtype=complex))
    q, coords, blocks = _propagate_restricted(restriction, generator.kappa, times)
    _check_samples(times, coords, q, blocks)
    return Trajectory(times, coords, q)


def _propagate_restricted(restriction, kappa, times):
    """(q, coords, blocks): ``integrate`` after the restriction, but the
    sample check.  An overflow or invalid value in g or in its propagation
    (before the phases w t), or a non-finite eigenbasis or coefficient that
    a solve of ``numpy.linalg`` returned unraised, raises IntegrationError."""
    q, n_k, c_k, slow, y0, blocks = restriction
    trace = q[:: int(np.sqrt(len(q))) + 1].sum(axis=0)  # the traces of the basis states
    for name, op in (("noise", n_k), ("correction", c_k)):
        lost = np.abs(trace @ op).max()
        if lost > SUBSPACE_TOL * np.abs(trace).sum() * np.abs(op).max():
            raise IntegrationError(f"the {name} does not keep the trace: its restriction "
                                   f"changes it at rate {lost:.3e}")
    coords = _in_double_precision(lambda: _propagate(n_k + kappa * c_k, slow, trace, y0, times),
                                  message="rates beyond double precision in the propagation")
    return q, coords, blocks


def _propagate(g, slow, trace, y0, times):
    """Rows exp(g t) y0 for each t, for a generator g that keeps the trace
    trace . y exactly, split over the coordinates ``slow`` (a boolean mask:
    the kernel of the correction) and the rest, ``fast``, by
    ``_slow_fast_split``: with g in blocks [[A, B], [C, D]] over (slow,
    fast), T = [[I, Y], [X, XY + I]] takes g to diag(S, F).  The slow block
    S carries the slow rates with no error of the size of the fast ones,
    and is taken in the coordinates of ``_trace_first``, with the trace's
    rate set to exactly zero.  With S = V_s W_s V_s^-1 and F = V_f W_f
    V_f^-1 (``_eigenbasis``, of F less the mean of its diagonal times I),
    Y = V_s Y' V_f^-1 solves S Y - Y F = -B with
    Y'_ij = -(V_s^-1 B V_f)_ij / (w_s,i - w_f,j), and g = V W V^-1 with
    V = T diag(V_s, V_f) = [[V_s, V_s Y'], [X V_s, X V_s Y' + V_f]], so
    all k coordinates are propagated in one product.  With fewer than two
    slow coordinates, no fast one, or a split that does not converge, g is
    propagated in one block, its trace coordinate the same way."""
    split = _slow_fast_split(g, slow) if 1 < np.count_nonzero(slow) < len(g) else None
    if split is None:
        slow = np.ones(len(g), dtype=bool)
        x, s = np.zeros((0, len(g))), g
    else:
        x, s, f = split
    fast = ~slow
    # the trace of T z is u^dag z_slow, u = conj(trace_slow + X^T trace_fast)
    h, s = _trace_first((trace[slow] + x.T @ trace[fast]).conj(), s)
    w, v_s = _eigenbasis(s)
    v_s = h @ v_s
    if split is None:
        v, c = v_s, np.linalg.solve(v_s, y0)
    else:
        # F ~ c I + slow-sized rates, c the mean of its diagonal (divided first, which
        # cannot overflow): eig reads F - c I, whose eigenvectors its rounding of c would set
        shift = np.sum(np.diag(f) / len(f))
        w_f, v_f = _eigenbasis(f - shift * np.eye(len(f)))
        w_f = w_f + shift
        y = np.linalg.solve(v_s, g[slow][:, fast] @ v_f) / (w_f - w[:, None])
        # V^-1 y0 = diag(V_s^-1, V_f^-1) T^-1 y0, with T^-1 = [[I + YX, -Y], [-X, I]]
        c_f = np.linalg.solve(v_f, y0[fast] - x @ y0[slow])
        c = np.concatenate([np.linalg.solve(v_s, y0[slow]) - y @ c_f, c_f])
        top = np.hstack([v_s, v_s @ y])
        v = np.empty((len(g), len(g)), dtype=complex)
        v[slow] = top
        v[fast] = x @ top
        v[fast, len(w):] += v_f
        w = np.concatenate([w, w_f])
    # numpy.linalg keeps its own errstate: a solve that overflows returns inf unraised
    if not all(np.isfinite(a).all() for a in (w, v, c)):
        raise FloatingPointError("overflow in the eigenbasis or its coefficients")
    # a phase w t beyond double precision reads nan, which the sample checks refuse
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.exp(np.outer(times, w)) * c) @ v.T


def _slow_fast_split(g, slow):
    """(X, S, F) that block-diagonalise g = [[A, B], [C, D]] over the
    coordinates ``slow`` and the rest (adiabatic elimination done exactly;
    Reiter & Sorensen, PRA 85, 032111 (2012)): X solves the Riccati equation
    C + D X - X (A + B X) = 0 by the iteration X <- D^-1 (X (A + B X) - C)
    from X = 0, S = A + B X and F = D - X B (Stewart & Sun, Matrix
    Perturbation Theory (1990), chapter V).  None where the iteration stops
    short of a change of 4 eps relative to its first step: at a step that
    does not shrink, after 100 steps, or where D is singular.  It converges
    for hamiltonian-3q from R ~ 3.9 on (75 steps at R = 4, 14 at 10, 5 at
    100, 1 from 1e6) and for markovian-3q from r ~ 1.7 (15 steps at r =
    10, 9 at 96, 2 at 1e6); below, the fast rates do not dominate the slow
    block's."""
    fast = ~slow
    (a, b), (c, d) = ((rows[:, slow], rows[:, fast]) for rows in (g[slow], g[fast]))
    try:
        d_inv = np.linalg.inv(d)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging X reads inf or nan
        p = d_inv @ c
        x, step = -p, np.inf  # the first step from X = 0
        tol = 4.0 * np.finfo(float).eps * np.abs(p).max()
        for _ in range(100):
            new = d_inv @ (x @ (a + b @ x)) - p
            change = np.abs(new - x).max()
            if not change < step:
                return None
            if change <= tol:
                return new, a + b @ new, d - new @ b
            x, step = new, change
    return None


def _eigenbasis(m):
    """(w, V), the eigenvalues and eigenvectors of m.  Raises
    IntegrationError where the condition number of V reaches 1e8 (m
    defective or nearly so): exp(m t) = V exp(w t) V^-1 is not resolved."""
    w, v = np.linalg.eig(m)
    cond = np.linalg.cond(v)
    if not cond < 1e8:
        raise IntegrationError(f"eigenbasis condition number {cond:.3e} >= 1e8; "
                               "exp(M t) is not resolved")
    return w, v


def propagate_linear(system_matrix, x0, times):
    """x(t) = exp(M t) x0 for each requested time, by eigendecomposition
    (``_eigenbasis``), in one block: the unsplit reference of the tests."""
    w, v = _eigenbasis(np.asarray(system_matrix))
    c = np.linalg.solve(v, np.asarray(x0, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.exp(np.outer(np.asarray(times, dtype=float), w)) * c) @ v.T


def invariant_subspace(ops, rho0):
    """(q, blocks): orthonormal columns q (row-major flattened d x d
    states) spanning the smallest subspace that holds rho0 and is mapped
    into itself by every op in ``ops`` (linear maps of d x d matrices),
    and blocks (len(ops), k, k), the restrictions of the ops in Arnoldi form.

    An image of a basis vector, orthogonalised twice against the basis,
    adds a vector when its norm exceeds ``SUBSPACE_TOL`` times the largest
    image of the same op.  Column j of blocks[i] holds the coefficients of
    ops[i](q_j): the sum of the two passes' projections and, where the rest
    added q_m, its norm at row m (one op's block is upper Hessenberg).  It
    equals q^dag ops[i](q) to rounding, and q_0 is rho0 / |rho0|.  An
    overflow on the way, in an image or its norm (rates whose square
    exceeds the largest float, from ~1e154), raises IntegrationError: a
    norm read as inf would stop the subspace at k = 1, a state that never
    moves.
    So does a nonzero image while the op's largest image norm is below
    ``UNDERFLOW_NORM`` (rates below ~1e-154), whose norms read 0 or lose
    digits, and a direction past the d^2 that the states hold, which only a
    Gram-Schmidt that lost orthogonality adds.
    """
    q, blocks = _in_double_precision(_krylov_rows, ops, np.asarray(rho0, dtype=complex))
    return q.T, blocks


def _in_double_precision(compute, *args, message="rates beyond double precision in the "
                                                "restriction of the generator"):
    """compute(*args), with an overflow or invalid value in it raised as
    IntegrationError "<message>: <the numpy error>"."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return compute(*args)
    except FloatingPointError as exc:
        raise IntegrationError(f"{message}: {exc}") from exc


def _krylov_rows(ops, rho0):
    """(q, blocks) of ``invariant_subspace``, with the basis as rows q (k, d^2)."""
    d = rho0.shape[0]
    # basis vectors (rows of q) and the coefficients, in arrays that double when full
    q = np.empty((16, d * d), dtype=complex)
    blocks = np.zeros((len(ops), 16, 16), dtype=complex)
    q[0] = rho0.ravel() / np.linalg.norm(rho0)
    scale = np.zeros(len(ops))
    k = 1
    j = 0
    while j < k:
        for i, op in enumerate(ops):
            w = np.asarray(op(q[j].reshape(d, d)), dtype=complex).ravel()
            scale[i] = max(scale[i], np.linalg.norm(w))
            if scale[i] < UNDERFLOW_NORM and w.any():
                raise IntegrationError(f"rates below double precision: image norm "
                                       f"{scale[i]:.3e} in the restriction of the generator")
            # conj(b @ conj(w)) = b.conj() @ w without a conjugate copy of b
            c = np.conj(q[:k] @ np.conj(w))
            r = w - c @ q[:k]
            c2 = np.conj(q[:k] @ np.conj(r))  # the second pass
            r -= c2 @ q[:k]
            blocks[i, :k, j] = c + c2
            norm = np.sqrt(np.vdot(r, r).real)  # at most |w|, whose norm did not overflow
            if norm > SUBSPACE_TOL * scale[i]:
                if k == d * d:
                    raise IntegrationError(f"Gram-Schmidt broke down: more than d^2 = {k} "
                                           "directions in the restriction of the generator")
                if k == len(q):
                    q = np.concatenate([q, np.empty_like(q)])
                    blocks = np.pad(blocks, ((0, 0), (0, k), (0, k)))
                q[k] = r / norm
                blocks[i, k, j] = norm
                k += 1
        j += 1
    return q[:k], blocks[:, :k, :k]


def _trace_first(v, g):
    """(h, g'): the Householder reflection h (h = h^dag = h^-1) whose
    coordinates c' = h c carry the trace v^dag c in c'_0 alone, and
    g' = h g h with its first row, the trace's rate of change, set to zero:
    for a g that keeps the trace it is rounding, and zeroed, LAPACK's
    balancing isolates an exact zero eigenvalue (with g kept as it is, eig
    puts it ~1e-16 |g| off zero and the trace drifts by that rate times t).
    v, complex, is overwritten."""
    # the reflection along v - beta e_0 maps v to beta e_0; this beta avoids cancellation
    v[0] += np.exp(1j * np.angle(v[0])) * np.linalg.norm(v)
    h = np.eye(len(v)) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    g = h @ g @ h
    g[0] = 0.0
    return h, g


def _restriction(generator, rho0):
    """(q, n_k, c_k, slow, y0, blocks): q spans a subspace that holds rho0
    and is invariant under the rate-free ``noise`` and ``correction`` of
    ``generator``, whose restrictions are n_k and c_k; ``slow`` marks the
    coordinates that span the kernel of c_k, whose columns of c_k are exact
    zeros; y0 = q^dag rho0, and ``blocks`` is what the sample check reads of q.

    Where the reduced model's tables describe the model (a ``Generator``
    without Lindblad flips for the pair-coupled bitflip3 code with rho0 in
    the class span, as ``hamiltonian-3q``), q is the 13 normalised class
    states ``reduced_model.class_basis()``, the restrictions and y0 are read
    from the tables and the class projection
    (``reduced_model.class_restriction``), and ``blocks`` is derived for
    those states once per process (61 us at R = 10, one OpenBLAS thread,
    against 2.5 ms for ``_krylov_restriction``, which is taken otherwise)."""
    if isinstance(generator, Generator) and not generator.lam:
        restriction = _in_double_precision(reduced_model.class_restriction, rho0,
                                           generator.hamiltonian, generator.code)
        if restriction is not None:
            q, n_k, c_k, y0 = restriction
            return q, n_k, c_k, ~c_k.any(axis=0), y0, _class_blocks()
    return _krylov_restriction(generator, rho0)


def _krylov_restriction(generator, rho0):
    """``_restriction`` on the Krylov basis of both maps (no table), rotated
    by the right singular vectors of its c_k: those of singular values at
    most ``SUBSPACE_TOL`` of the largest span the kernel, whose columns of
    c_k are set to zero; ``blocks`` is ``_distinct_blocks`` of the rotated q."""
    q, (n_k, c_k) = invariant_subspace([generator.noise, generator.correction], rho0)
    _, sv, vh = np.linalg.svd(c_k)
    slow = sv <= SUBSPACE_TOL * sv[0]
    n_k, c_k = vh @ np.stack([n_k, c_k]) @ vh.conj().T
    c_k[:, slow] = 0.0
    q = q @ vh.conj().T
    return q, n_k, c_k, slow, vh[:, 0] * np.linalg.norm(rho0), _distinct_blocks(q)


def step_weak_map(rho0, hamiltonian, code, eps, tau_c, n_steps, sample_stride=1):
    """Discrete recovery cycles: exp(-iH tau_c) conjugation, then the weak
    channel (1-eps) rho + eps Phi(rho), repeated n_steps times; sampled
    after every ``sample_stride`` cycles and after the last one.

    Samples are reached by powers of the one-cycle map (I + eps c_k)
    exp(tau_c N_k) on the coordinates of ``_restriction`` (the 13 class
    states for ``hamiltonian-3q``), where N_k restricts -i[H, .] and c_k
    the correction Phi (x) id_bath - id.
    Equivalent continuous correction rate: kappa = eps / tau_c.  The
    samples are checked as those of ``integrate`` (``_check_samples``); a
    power or sample that overflows (rounding compounded over 1e18 cycles at
    hamiltonian-3q's R = 10) raises IntegrationError.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if tau_c <= 0 or n_steps < 1 or sample_stride < 1:
        raise ValueError("need tau_c > 0, n_steps >= 1 and sample_stride >= 1")
    rho = np.asarray(rho0, dtype=complex)
    q, n_k, c_k, _, y0, blocks = _restriction(Generator(code, hamiltonian, 0.0, 0.0), rho)
    w, v = np.linalg.eigh(1j * n_k)
    unitary = (v * np.exp(-1j * w * tau_c)) @ v.conj().T
    s = (np.eye(len(w)) + eps * c_k) @ unitary

    steps = list(range(sample_stride, n_steps + 1, sample_stride))
    if steps[-1:] != [n_steps]:
        steps.append(n_steps)
    # the stride, and a shorter last gap; Python ints, which past 2**63 cycles
    # numpy would hold as floats
    gaps = [b - a for a, b in zip([0] + steps, steps)]

    def samples():
        powers = {n: np.linalg.matrix_power(s, n) for n in set(gaps)}
        coords = [y0]
        for n in gaps:
            coords.append(powers[n] @ coords[-1])
        return np.array(coords)

    coords = _in_double_precision(samples, message=f"{n_steps:.3g} cycles of the one-cycle "
                                                   "map are beyond double precision")
    times = np.array([0.0] + [k * tau_c for k in steps])
    _check_samples(times, coords, q, blocks)
    return Trajectory(times, coords, q)


def mc_trajectory_entries(kappa_t, k, n_samples):
    """Array entries that one Monte Carlo trajectory takes in a chunk, on k
    coordinates with n_samples samples: (n_samples + 2) k coordinates (a
    row of the state table per sample, one for the jumps after the last
    sample, and its current coordinates), 3 (n_samples + 1) more (its
    fidelity samples, their deviations, the table's written flags and its
    jump count), and its jump times, kappa t of them on average.  A chunk
    holds as many trajectories as ``MC_CHUNK_ENTRIES`` entries take, and at
    least one."""
    return k * (n_samples + 2) + 3 * (n_samples + 1) + kappa_t


def _states_at_samples(pending, times, y0, recover_t, rate):
    """(states, order): the interaction-picture coordinates of a chunk of
    trajectories at each sample, (n_samples, n, k), with the trajectories
    in the order ``order`` of their rows in ``pending``.

    Row i of ``pending`` holds trajectory i's jump times, in any order,
    padded with +inf.  Every trajectory starts at y0 and its r-th jump at t
    maps z to ((z b) @ recover_t) conj(b), b = e^{rate t} for the imaginary
    rates ``rate``.  The trajectories are ordered by jump count, most
    first, so that round r applies the r-th jump of a prefix of them; a
    chunk takes as many rounds as its largest jump count.  Each round
    writes the new coordinates into the row of the first sample at or after
    the jump (a jump at a sample's time counts before it), and a later jump
    before the same sample overwrites them.  A sample row that no jump
    wrote holds the row before it."""
    n, n_samples, k = len(pending), len(times), len(y0)
    counts = np.count_nonzero(pending < np.inf, axis=1)
    order = np.argsort(counts)[::-1]
    active = np.bincount(counts)[:0:-1].cumsum()[::-1]  # rows with more than r jumps
    jumps = np.sort(pending[order], axis=1).T
    jumps = jumps[jumps < np.inf]  # the r-th jumps of those rows, for r = 1, 2, ...
    # the state table: one element per row of k coordinates, so that a
    # scatter or a masked copy moves a trajectory's coordinates at once
    table = np.empty((n_samples + 1, n, k), dtype=complex)
    table[0] = y0
    row = np.dtype((np.void, table.itemsize * k))
    entries = table.view(row).reshape(n_samples + 1, n)
    written = np.zeros((n_samples + 1, n), dtype=bool)
    z = table[0].copy()
    trajectories = np.arange(n)
    for a, end in zip(active, active.cumsum()):
        t = jumps[end - a:end]
        back = np.exp(t[:, None] * rate)
        z_r = (z[:a] * back) @ recover_t
        z_r *= back.conj()
        z[:a] = z_r
        at = np.searchsorted(times, t) * n + trajectories[:a]
        entries.ravel()[at] = z_r.view(row)[:, 0]
        written.ravel()[at] = True
    for s in range(1, n_samples):
        np.copyto(entries[s], entries[s - 1], where=~written[s])
    return table[:n_samples], order


def jump_monte_carlo(rho0, hamiltonian, code, kappa, t_max, n_traj, seed, n_samples=21):
    """Ensemble average of the jump-process unraveling.

    Each trajectory evolves unitarily under H and suffers instantaneous
    full recoveries Phi at Poisson(kappa) random times.  Trajectory i draws
    its jump count and times from Generator(Philox(key=(seed, i))), the
    key taken as two uint64 words, so its draws do not depend on execution
    order or chunking, and every seed in [0, 2**64) has its own streams.
    The results are byte-reproducible at a fixed BLAS thread count; between
    1 and 2 OpenBLAS threads they differ by rounding (up to 2.2e-15 in
    F_cw at seed 7).  Returns the mean state per sample time as
    coordinates on the basis q of ``_restriction`` (the shared class
    states for ``hamiltonian-3q``), with the ensemble mean/stderr of the
    codeword fidelity in `observables`.

    A chunk of trajectories (``mc_trajectory_entries``) evolves together,
    each as its k coordinates on q in the eigenbasis v of the restricted
    -i[H, .] = -i v w v^dag, taken in the interaction picture
    z = y e^{iwt}: free evolution leaves z as it is, and a recovery at t
    is z -> ((z e^{-iwt}) @ R) e^{iwt}, R = I + v^dag c_k v.  The recoveries
    are applied in rounds by jump index, and each trajectory's z at a
    sample is the one after its last jump at or before that time
    (``_states_at_samples``).  The sample sums, F_cw and its standard error
    then take a few vectorized steps per chunk: F_cw is a dot product with
    the phases e^{-iw t_s} of the samples, formed once per call, folded
    into its weights.  The mean state is checked as the samples of
    ``integrate`` (``_check_samples``).
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if kappa < 0 or t_max <= 0:
        raise ValueError("need kappa >= 0 and t_max > 0")
    rho0 = np.asarray(rho0, dtype=complex)
    q, n_k, c_k, _, y0, blocks = _restriction(Generator(code, hamiltonian, 0.0, 0.0), rho0)
    w, v = np.linalg.eigh(1j * n_k)
    d = len(rho0)
    recover_t = (np.eye(len(w)) + v.conj().T @ c_k @ v).T  # y -> y @ recover_t is one recovery
    p_eig = code.diagonal_weights(d)[:, 0] @ q[:: d + 1] @ v  # F_cw = p_eig @ y
    y0 = v.conj().T @ y0

    times = _sample_times(t_max, n_samples)
    rate = -1j * w  # y(t) = y(0) * e^{rate t} between jumps
    # a phase beyond double precision reads nan, as in propagate_linear
    with np.errstate(over="ignore", invalid="ignore"):
        to_y = np.exp(np.outer(times, rate))  # y = z * to_y[s] at sample s
    p_z = (to_y * p_eig)[:, :, None]  # F_cw = z @ p_z[s] at sample s
    sum_z = np.zeros((n_samples, len(w)), dtype=complex)
    # sums of f - shift, with the first trajectory's f as shift: the variance
    # of nearly equal values then suffers no cancellation (and is 0 if equal)
    shift = None
    dev_sum = np.zeros(n_samples)
    dev_sqsum = np.zeros(n_samples)
    chunk = max(1, int(MC_CHUNK_ENTRIES // mc_trajectory_entries(kappa * t_max, len(w),
                                                                   n_samples)))

    # one generator, reset to counter 0 and key (seed, i) before trajectory i's
    # draws: the stream of Generator(Philox(key=(seed, i))) without building
    # one.  The state holds Python lists, which the setter reads faster than
    # arrays.
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    start = bits.state  # counter 0 and an empty buffer
    key = [int(seed), 0]
    start["state"] = {"counter": [0, 0, 0, 0], "key": key}
    start["buffer"] = [0, 0, 0, 0]

    for first in range(0, n_traj, chunk):
        counts, draws = [], []
        for i in range(first, min(first + chunk, n_traj)):
            key[1] = i
            bits.state = start
            counts.append(rng.poisson(kappa * t_max))
            draws.append(rng.random(counts[-1]))
        counts = np.array(counts)
        # jump times padded with +inf.  u * t_max is rng.uniform(0.0, t_max)'s
        # 0.0 + t_max * u bit for bit.
        pending = np.full((len(counts), counts.max()), np.inf)
        pending[np.arange(pending.shape[1]) < counts[:, None]] = np.concatenate(draws) * t_max
        # the draws and the padded times are dropped once read, which keeps them
        # out of the chunk's peak memory, the state table and its sums
        del draws
        states, order = _states_at_samples(pending, times, y0, recover_t, rate)
        del pending
        ones = np.ones(len(counts))  # ones @ sums over the trajectories
        sum_z += ones @ states
        fids = (states @ p_z)[:, :, 0].real.copy()  # frees the complex products
        if shift is None:
            shift = fids[:, np.argmax(order == 0)].copy()
        dev = fids - shift[:, None]
        dev_sum += dev @ ones
        dev_sqsum += (dev * dev) @ ones

    mean_y = sum_z * to_y / n_traj
    coords = mean_y @ v.T  # the mean states' coordinates on q
    _check_samples(times, coords, q, blocks)
    f_mean = shift + dev_sum / n_traj
    if n_traj > 1:
        var = (dev_sqsum - dev_sum**2 / n_traj) / (n_traj - 1)
        f_se = np.sqrt(np.maximum(var, 0.0) / n_traj)
    else:
        f_se = np.zeros(n_samples)
    observables = {"F_cw_mean": f_mean, "F_cw_se": f_se}
    return Trajectory(times, coords, q, observables)
