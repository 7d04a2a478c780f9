"""Time-evolution engines for master equations and their discretizations.

* ``integrate`` -- the master equation ``drho/dt = G(rho)`` solved
  exactly.  G is a constant linear generator (kappa (Phi - id) is a
  rate, not a train of discrete events), so rho(t) = exp(G t) rho0, taken
  by eigendecomposition of its restriction to the Krylov coordinates
  (``propagate_linear``; Moler & Van Loan, SIAM Rev. 45, 3 (2003),
  method 14), which refuses an eigenbasis whose condition number reaches
  1e8 with IntegrationError.  A generator that keeps the trace is
  propagated in coordinates whose first one is the trace, with that
  coordinate's rate set to exactly zero (``_trace_first``), so the trace
  does not drift with t.  ``hamiltonian-3q`` runs on the 13 class states
  instead, split into exact slow and fast blocks (``_slow_fast_split``),
  so that the slow pair ~24 gamma / R^2 carries no error of the size of
  the fast rates ~R gamma.
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
* ``integrate_reduced`` -- the 13 class coefficients of the reduced model
  (:mod:`cqec.reduced_model`, ``hamiltonian-3q``) on the 13 class states,
  propagated through the same split (``_propagate_classes``).

The other engines run on the k coordinates of a subspace that holds rho0
and is mapped into itself by the model's operators.  For
``hamiltonian-3q`` from states in the class span, that is the 13 class
states, with the restrictions of the noise and the correction
(Phi (x) id_bath - id) read from the reduced model's tables
(``reduced_model.class_restriction``), for every engine.  Otherwise
``integrate`` takes the smallest one, the Krylov space of rho0 under the
``Generator``'s ``apply`` (``invariant_subspace``; Saad, SIAM J. Numer.
Anal. 29, 209 (1992), with several operators in place of one): k = 3 for
``hamiltonian-1q`` from the scenario state.  The subspace comes in
Arnoldi form: the restriction of each operator is the Gram-Schmidt
coefficients that built the basis, equal to q^dag op(q) to rounding, and
rho0 is |rho0| q_0, so no image of the basis is kept.  The weak map and
Monte Carlo take the Krylov space of rho0 under the rate-free ``noise``
and ``correction``, with Phi restricted as I plus the restricted
correction.  A trajectory keeps only its coordinates and the basis (d is
read from it; on the class states it holds the shared class states
themselves, not a copy); the d x d states are built only when
``Trajectory.states`` is read.

Every engine checks its samples, never repairs them: the trace must stay
within 1e-8 of 1, and an eigenvalue below -1e-8 triggers a
PositivityWarning (below -1e-6, or a non-finite trace or eigenvalue, an
IntegrationError).  ``integrate``, the reduced engine and the weak map
check every sample, Monte Carlo its mean state.  The check runs on the
coordinates of the whole trajectory at once: the trace is one product
with the traces of the basis states, and the eigenvalues come from the
distinct diagonal blocks that every state in span(q) is confined to
(``_distinct_blocks``: one 8 x 8 block for the Krylov basis of
``hamiltonian-3q``, one 2 x 2 for ``hamiltonian-1q``, 1 x 1 blocks for
the Markovian scenarios).  The class states' one 8 x 8 block is split by
the permutations of the qubit pairs into one 4 x 4 and two 2 x 2 blocks
with the same eigenvalues, of which the check reads the 4 x 4 and one
2 x 2 (``_class_blocks``); they are derived once per process, and a
Krylov basis is read anew on each call.
"""

import warnings
from functools import cache, cached_property

import numpy as np

from . import reduced_model
from .tensor_core import TOL_POS
from .codes_and_maps import Generator

TRACE_TOL = 1e-8
# Largest number of array entries in one Monte Carlo chunk (``mc_trajectory_entries``
# per trajectory), which bounds its memory.
MC_CHUNK_ENTRIES = 2**18
# Smallest new direction in ``invariant_subspace``, relative to the largest image;
# rounding leaves ~1e-16.  hamiltonian-3q keeps all k = 9 for R in [1e-10, 3e7].
# Beyond, the restriction of one rate's ``apply`` finds k = 8 at R = 1e8,
# 15 at 1e10 and 2 from 1e13 on, where the noise's images sink to the rounding of the
# kappa-sized correction; the rate-free noise and correction of the weak map, Monte
# Carlo and the scan keep k = 9.
# Also the largest trace row of the reflected generator, relative to its norm, that
# ``_trace_first`` zeroes as rounding: the scenario generators leave ~1e-16, and up
# to 1e-12 at rates above ~1e12, where a Krylov direction falls below the tolerance.
# On the class states (``_propagate_classes``) the trace row is zeroed at any size.
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


def _min_eigenvalues(coords, q, blocks=None):
    """Smallest eigenvalue of the Hermitian part of each state coords[i] @ q.T,
    from its distinct diagonal blocks ``blocks`` (``_distinct_blocks(q)``,
    derived here if not given; ``_block_minima``)."""
    if blocks is None:
        blocks = _distinct_blocks(q)
    lo = np.full(len(coords), np.inf)
    for qt, s in blocks:
        for i in range(0, len(coords), 256):  # 256 samples at a time bound the memory
            part = slice(i, i + 256)
            minima = _block_minima((coords[part] @ qt).reshape(-1, qt.shape[1] // (s * s), s, s))
            lo[part] = np.minimum(lo[part], minima.min(axis=1))
    return lo


def _check_samples(times, coords, q, blocks=None):
    """Check the states coords[i] @ q.T sampled at ``times`` in time order:
    every sample before the first failing one that dips below -TOL_POS
    warns, and the first failing sample (trace off by more than TRACE_TOL,
    an eigenvalue below -100 TOL_POS, or either non-finite) raises.
    ``blocks`` is ``_distinct_blocks(q)``, derived here if not given."""
    d = int(np.sqrt(len(q)))
    finite = np.isfinite(coords).all(axis=1)
    coords = np.where(finite[:, None], coords, 0.0)  # such a sample reads nan below
    trace = np.where(finite, coords @ q[:: d + 1].sum(axis=0), np.nan)  # tr of basis states
    tr_dev = np.abs(trace.real - 1.0)
    lo = np.where(finite, _min_eigenvalues(coords, q, blocks), np.nan)
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
def _class_blocks(normalised):
    """What ``_min_eigenvalues`` reads of ``reduced_model.class_basis(normalised)``,
    derived once per process, as the class states are built.  A class state
    repeats one 8 x 8 diagonal block, on rows and columns s (x) (s xor c)
    for each c (``_diagonal_blocks``); in the basis
    ``reduced_model.pair_swap_basis()`` that block splits into one 4 x 4 and
    two 2 x 2 blocks, an orthogonal change of basis that keeps the
    eigenvalues.  The two 2 x 2 blocks carry the same representation of the
    pair permutations and have the same eigenvalues, so only the first is
    read."""
    diag = 9 * np.arange(8)  # s (x) s: the block of c = 0
    q = reduced_model.class_basis(normalised)
    w = reduced_model.pair_swap_basis()
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

    The generator exposes ``apply(rho)``.  It is restricted to the k
    coordinates of the Krylov space of rho0 (``invariant_subspace``), where
    rho0 is |rho0| times the first basis state, |rho0| e_0, and exp(g t) is
    taken by ``propagate_linear``.  If g keeps the trace
    to rounding, it is propagated in the reflected coordinates of
    ``_trace_first``, so that the trace is one coordinate held constant
    exactly.  All samples are checked on their coordinates
    (``_check_samples``) and kept as coordinates on q.  t_max = 0 returns
    the single sample rho0, as the coordinate 1 on the basis column rho0.

    A ``Generator`` without Lindblad flips whose model the reduced model's
    tables describe (``reduced_model.class_restriction``: ``hamiltonian-3q``
    from states in the class span) is restricted to the 13 normalised class
    states instead, g = n_k + kappa c_k read from the tables, and propagated
    by ``_propagate_classes``.

    The scenario states give k <= 9.  A generic six-qubit rho0 gives
    k = 1287, whose restriction takes tens of seconds to build.
    """
    rho0 = np.array(rho0, dtype=complex)
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max == 0:
        return Trajectory(np.zeros(1), np.ones((1, 1)), rho0.reshape(-1, 1))

    times = _sample_times(t_max, n_samples)
    restriction = None
    if isinstance(generator, Generator) and not generator.lam:
        restriction = _in_double_precision(reduced_model.class_restriction, rho0,
                                           generator.hamiltonian, generator.code)
    if restriction is not None:
        q, n_k, c_k, y0 = restriction
        g = _in_double_precision(lambda: n_k + generator.kappa * c_k)
        coords = _propagate_classes(g, ~c_k.any(axis=0), q[:: len(rho0) + 1].sum(axis=0),
                                    y0, times)
        _check_samples(times, coords, q, _class_blocks(True))
        return Trajectory(times, coords, q)
    q, (g,) = invariant_subspace([generator.apply], rho0)
    h, g = _trace_first((np.eye(len(rho0)).ravel() @ q).conj(), g)
    coords = propagate_linear(g, h[:, 0] * np.linalg.norm(rho0), times) @ h.T
    _check_samples(times, coords, q)
    return Trajectory(times, coords, q)


def _propagate_classes(g, slow, trace, y0, times):
    """Rows exp(g t) y0 for each t, for a generator g on the class states
    that keeps the trace trace^dag y exactly, split over the classes
    ``slow`` (a boolean mask; those that the correction leaves alone) and
    the rest, ``fast``, by ``_slow_fast_split``: with g in blocks
    [[A, B], [C, D]] over (slow, fast), T = [[I, Y], [X, XY + I]] takes
    g to diag(S, F), so that exp(g t) = T diag(exp(S t), exp(F t)) T^-1.
    The slow block S carries the slow pair (~24 gamma / R^2) with no error
    of the size of the fast rates (~R gamma), and is propagated with the
    trace as its first coordinate, whose rate is set to exactly zero (the
    trace's rate in S is zero but for rounding that grows with R).  Where
    the split does not converge (R below ~3.9), g is propagated in one
    block, with its trace coordinate the same way."""
    split = _slow_fast_split(g, slow)
    if split is None:
        return _propagate_keeping_trace(g, trace.conj(), y0, times)
    x, y, s, f = split
    fast = ~slow
    # z = T^-1 y0, with T^-1 = [[I + YX, -Y], [-X, I]]
    z_fast = y0[fast] - x @ y0[slow]
    z_slow = y0[slow] - y @ z_fast
    # the trace of T z is u^dag z_slow, u = conj(trace_slow + X^T trace_fast)
    u = (trace[slow] + x.T @ trace[fast]).conj()
    e_fast = propagate_linear(f, z_fast, times)
    top = _propagate_keeping_trace(s, u, z_slow, times) + e_fast @ y.T
    coords = np.empty((len(times), len(g)), dtype=complex)
    coords[:, slow] = top
    coords[:, fast] = top @ x.T + e_fast
    return coords


def _propagate_keeping_trace(g, v, x0, times):
    """Rows exp(g t) x0 for a g that keeps the trace v^dag x exactly,
    propagated in the coordinates of ``_trace_first`` with the trace's rate
    set to zero."""
    h, g = _trace_first(v, g, exact=True)
    return propagate_linear(g, h @ x0, times) @ h.T


def _slow_fast_split(g, slow):
    """(X, Y, S, F) that block-diagonalise g = [[A, B], [C, D]] over the
    coordinates ``slow`` and the rest (adiabatic elimination done exactly;
    Reiter & Sorensen, PRA 85, 032111 (2012)): X solves the Riccati equation
    C + D X - X (A + B X) = 0 by the iteration X <- D^-1 (X (A + B X) - C)
    from X = 0, S = A + B X and F = D - X B, and Y solves the Sylvester
    equation S Y - Y F = -B (Stewart & Sun, Matrix Perturbation Theory
    (1990), chapter V).  None where the iteration stops short of a relative
    change of 4 eps: at a step that does not shrink, after 100 steps, or
    where D is singular.  For hamiltonian-3q it converges from R ~ 3.9 on
    (75 steps at R = 4, 15 at 10, 6 at 100, 2 from 1e6); below, the fast
    rates do not dominate the slow block's."""
    fast = ~slow
    a, b = g[np.ix_(slow, slow)], g[np.ix_(slow, fast)]
    c, d = g[np.ix_(fast, slow)], g[np.ix_(fast, fast)]
    try:
        d_inv = np.linalg.inv(d)
    except np.linalg.LinAlgError:
        return None
    x = np.zeros_like(c)
    step = np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging X reads inf or nan
        for _ in range(100):
            new = d_inv @ (x @ (a + b @ x) - c)
            change = np.abs(new - x).max()
            if not change < step:
                return None
            if change <= 4.0 * np.finfo(float).eps * np.abs(new).max():
                break
            x, step = new, change
        else:
            return None
    s, f = a + b @ new, d - new @ b
    k, m = len(s), len(f)
    # S Y - Y F = -B, row-major: (S (x) I - I (x) F^T) vec(Y) = -vec(B)
    y = np.linalg.solve(np.kron(s, np.eye(m)) - np.kron(np.eye(k), f.T), -b.ravel())
    return new, y.reshape(k, m), s, f


def integrate_reduced(big_r, gamma, t_max, n_samples=201):
    """The 13 class coefficients of the reduced model, exp(gamma M(R) t)
    applied to the unit first one on a uniform grid of t in [0, t_max],
    t_max > 0, propagated by ``_propagate_classes`` as the full engine's
    class coordinates are: real coordinates on the class states
    ``reduced_model.class_basis()``, checked as every engine's samples
    (``_check_samples``).  Rates with an entry of gamma M(R) beyond double
    precision raise IntegrationError."""
    times = _sample_times(t_max, n_samples)
    m = reduced_model.build_reduced_matrix(big_r, gamma)
    if not np.isfinite(m).all():
        raise IntegrationError(f"rates beyond double precision: gamma M(R) is not finite "
                               f"at R = {big_r:g}, gamma = {gamma:g}")
    basis = reduced_model.class_basis()
    slow = ~reduced_model._M_CORR.any(axis=0)  # the classes the correction leaves alone
    trace = basis[:: 64 + 1].sum(axis=0)  # the traces of the class states
    # a copy of the real part, so that the complex result is freed
    coords = _propagate_classes(m, slow, trace, np.eye(13)[0], times).real.copy()
    _check_samples(times, coords, basis, _class_blocks(False))
    return Trajectory(times, coords, basis)


def propagate_linear(system_matrix, x0, times):
    """x(t) = exp(M t) x0 for each requested time, by eigendecomposition.

    Raises IntegrationError when the eigenbasis condition number reaches
    1e8 (M defective or nearly so), where the product is not resolved.
    """
    m = np.asarray(system_matrix)
    x0 = np.asarray(x0, dtype=complex)
    times = np.asarray(times, dtype=float)
    w, v = np.linalg.eig(m)
    cond = np.linalg.cond(v)
    if not cond < 1e8:
        raise IntegrationError(f"eigenbasis condition number {cond:.3e} >= 1e8; "
                               "exp(M t) is not resolved")
    c = np.linalg.solve(v, x0)
    # a phase w t beyond double precision reads nan, which the sample checks refuse
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.exp(np.outer(times, w)) * c) @ v.T


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
    overflow on the way, in an image, its norm or the norm of the blocks
    that ``_trace_first`` takes (rates whose square exceeds the largest
    float, from ~4e153 for hamiltonian-1q), raises IntegrationError: a norm
    read as inf would stop the subspace at k = 1, a state that never moves.
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
            r = w
            for _ in range(2):  # conj(b @ conj(r)) = b.conj() @ r without a conjugate copy of b
                c = np.conj(q[:k] @ np.conj(r))
                r = r - c @ q[:k]
                blocks[i, :k, j] += c
            norm = np.linalg.norm(r)
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
    np.linalg.norm(blocks)  # an overflow in the blocks, which _trace_first takes the norm of
    return q[:k], blocks[:, :k, :k]


def _trace_first(v, g, exact=False):
    """(h, g'): the Householder reflection h (h = h^dag = h^-1) whose
    coordinates c' = h c carry the trace v^dag c in c'_0 alone, and
    g' = h g h.  The first row of g' is the trace's rate of change; below
    ``SUBSPACE_TOL`` |g|, or at any size for a g that keeps the trace
    exactly (``exact``), it is rounding and is set to zero, so that LAPACK's
    balancing isolates an exact zero eigenvalue (with g kept as it is, eig
    puts it ~1e-16 |g| off zero and the trace drifts by that rate times t).
    v, complex, is overwritten."""
    # the reflection along v - beta e_0 maps v to beta e_0; this beta avoids cancellation
    v[0] += np.exp(1j * np.angle(v[0])) * np.linalg.norm(v)
    h = np.eye(len(v)) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
    g = h @ g @ h
    if exact or np.linalg.norm(g[0]) <= SUBSPACE_TOL * np.linalg.norm(g):
        g[0] = 0.0
    return h, g


def _pair_subspace(rho0, hamiltonian, code):
    """(q, w, v, phi_k, blocks, y0): q spans a subspace that holds rho0 and
    is invariant under the noise -i[H, .] and the correction
    c = Phi (x) id_bath - id of ``Generator``, whose restrictions are
    -i v w v^dag (so exp(-i[H, .] t) becomes v exp(-i w t) v^dag) and c_k,
    with phi_k = I + c_k; ``blocks`` is what the sample check reads of q,
    and y0 = q^dag rho0.

    Where the reduced model's tables describe the model (the pair-coupled
    bitflip3 code with rho0 in the class span, as ``hamiltonian-3q``), q is
    the 13 normalised class states, the restrictions and y0 are read from
    the tables and the class projection (``reduced_model.class_restriction``)
    and ``blocks`` is the one derived for those states once per process;
    otherwise q is the Krylov basis of ``invariant_subspace``, y0 is
    conj(conj(rho0) @ q) (q^dag rho0 without a conjugate copy of q), and
    ``blocks`` is None, derived by the check itself."""
    restriction = _in_double_precision(reduced_model.class_restriction, rho0, hamiltonian, code)
    if restriction is None:
        gen = Generator(code, hamiltonian, 0.0, 0.0)
        q, (n_k, c_k) = invariant_subspace([gen.noise, gen.correction], rho0)
        blocks = None
        y0 = np.conj(np.conj(rho0.ravel()) @ q)
    else:
        q, n_k, c_k, y0 = restriction
        blocks = _class_blocks(True)
    w, v = np.linalg.eigh(1j * n_k)
    return q, w, v, np.eye(len(w)) + c_k, blocks, y0


def step_weak_map(rho0, hamiltonian, code, eps, tau_c, n_steps, sample_stride=1):
    """Discrete recovery cycles: exp(-iH tau_c) conjugation, then the weak
    channel (1-eps) rho + eps Phi(rho), repeated n_steps times; sampled
    after every ``sample_stride`` cycles and after the last one.

    Samples are reached by powers of the one-cycle map ((1-eps) I + eps
    phi_k) exp(tau_c N_k) on the coordinates of ``_pair_subspace`` (the 13
    class states for ``hamiltonian-3q``), where N_k restricts -i[H, .] and
    phi_k = I + c_k, c_k the restriction of the correction
    Phi (x) id_bath - id.
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
    q, w, v, phi_k, blocks, y0 = _pair_subspace(rho, hamiltonian, code)
    unitary = (v * np.exp(-1j * w * tau_c)) @ v.conj().T
    s = ((1.0 - eps) * np.eye(len(w)) + eps * phi_k) @ unitary

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
    coordinates on the basis q of ``_pair_subspace`` (the shared class
    states for ``hamiltonian-3q``), with the ensemble mean/stderr of the
    codeword fidelity in `observables`.

    A chunk of trajectories (``mc_trajectory_entries``) evolves together,
    each as its k coordinates on q in the eigenbasis v, taken in the
    interaction picture z = y e^{iwt}: free evolution leaves z as it is,
    and a recovery at t is z -> ((z e^{-iwt}) @ R) e^{iwt}.  The recoveries
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
    q, w, v, phi_k, blocks, y0 = _pair_subspace(rho0, hamiltonian, code)
    d = len(rho0)
    recover_t = (v.conj().T @ phi_k @ v).T  # y -> y @ recover_t is one recovery
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
