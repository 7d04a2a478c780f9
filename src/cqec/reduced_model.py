"""Symmetry-reduced model of the pair-coupled three-qubit code.

Starting from rho(0) = |000><000| (x) (I/2)^3, the full 64-dimensional
state stays inside a 64-term manifold spanned by

    rho_{lmn,pqr} = |lmn><pqr| (x) X^(l xor p)/2 (x) X^(m xor q)/2 (x) X^(n xor r)/2

with real coefficients C_{lmn,pqr} once the phase convention
(-i)^(l+m+n) (i)^(p+q+r) is peeled off.  Permutation symmetry of the
three qubit pairs glues the 64 coefficients into 13 classes labelled by
(number of 1s on the left, number on the right, overlap); the class
representatives evolve under a fixed 13x13 real matrix, gamma * M(R),
encoded below.

Vector ordering of the 13 representatives (rows and columns of M, CSV
column order, JSON array order):

    C000_000, C100_000, C110_000, C100_010, C100_100, C110_001,
    C111_000, C110_100, C110_110, C110_011, C111_100, C111_110, C111_111

The codeword fidelity is C000_000 and the code-space weight is
C000_000 + C111_111; the physical trace is the weighted sum
1*C000_000 + 3*C100_100 + 3*C110_110 + 1*C111_111 = 1, conserved by M
for every R.

The normalised class states (``class_basis``) span a subspace that the
model's noise and correction maps send into itself, and the two tables
below are those maps restricted to it, exactly.  ``class_restriction``
hands them, on those states, to every engine.  Every class state is left
as it is by the permutations of the three (system, bath) qubit pairs,
which split its diagonal blocks for the sample check
(``cqec.dynamics._class_blocks``).
"""

from functools import cache

import numpy as np

from .codes_and_maps import bitflip3_code, pair_hamiltonian

# class representatives (lmn, pqr) as 3-bit integers, in vector order
ORDER = [
    (0b000, 0b000),
    (0b100, 0b000),
    (0b110, 0b000),
    (0b100, 0b010),
    (0b100, 0b100),
    (0b110, 0b001),
    (0b111, 0b000),
    (0b110, 0b100),
    (0b110, 0b110),
    (0b110, 0b011),
    (0b111, 0b100),
    (0b111, 0b110),
    (0b111, 0b111),
]

LABELS = [f"C{l:03b}_{p:03b}" for l, p in ORDER]

# trace weights: multiplicities of the diagonal classes
TRACE_WEIGHTS = {0: 1.0, 4: 3.0, 8: 3.0, 12: 1.0}

# R-independent part of M (decoherence flows), in units of gamma
_M_FREE = np.array(
    [
        [0, -6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, -2, -2, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, -1, -1, -2, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, -2, 0, -2, 0, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, 0, 0, -4, 0, 0, 0, 0, 0],
        [0, 0, 1, 2, 0, 0, 0, 0, 0, -2, -1, 0, 0],
        [0, 0, 3, 0, 0, 0, 0, 0, 0, 0, -3, 0, 0],
        [0, 0, 1, 1, 1, 0, 0, 0, -1, -1, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 0, -1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0],
    ],
    dtype=float,
)

# part proportional to R (correction flows), in units of gamma; its zero
# columns are the classes the correction leaves alone
_M_CORR = np.array(
    [
        [0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -3, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0],
    ],
    dtype=float,
)


def build_reduced_matrix(big_r, gamma=1.0):
    """The 13x13 generator gamma*M(R) of the reduced coefficient vector,
    gamma (M_FREE + R M_CORR).  Entries beyond double precision read inf
    (nan at R = inf), without a warning."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if big_r < 0:
        raise ValueError("R must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        return gamma * (_M_FREE + big_r * _M_CORR)


def slow_eigenvalue(matrix):
    """The slow oscillating mode of a reduced generator (the 13x13 one, or
    any restriction of the full generator): among the eigenvalues with
    Im > 1e-14 max|lambda|, the one with the largest real part.

    For R >> 1 this is the pair 24 i gamma / R^2 - 144 gamma / R^3 of
    ``predicted_spectrum``; at R = 0 it is the bare oscillation 2 i gamma.
    Near R ~ 1e5, where 24 / R^2 meets 1e-14 R, rounding errors in that
    frequency reach ~1e-3 relative.  Beyond, the pair is not taken; the
    mode picked instead has slower modes than itself besides the zero
    mode, and FloatingPointError is raised.  It is raised too where no
    eigenvalue has Im above the threshold (from R ~ 1e16), or where an
    entry has overflowed (R ~ 6e307).
    """
    matrix = np.asarray(matrix)
    if not np.isfinite(matrix).all():
        raise FloatingPointError("slow mode not resolved: the matrix is not finite")
    w = np.linalg.eigvals(matrix)
    tol = 1e-14 * np.max(np.abs(w))
    osc = w[w.imag > tol]
    if not osc.size or np.count_nonzero(w.real > osc.real.max() + tol) > 1:
        raise FloatingPointError("slow mode not resolved in double precision")
    return complex(osc[np.argmax(osc.real)])


# ---------------------------------------------------------------------------
# coefficient classes
# ---------------------------------------------------------------------------


def _signature(lmn, pqr):
    nl = bin(lmn).count("1")
    nr = bin(pqr).count("1")
    ov = bin(lmn & pqr).count("1")
    return (max(nl, nr), min(nl, nr), ov)


_SIG_TO_INDEX = {_signature(l, p): i for i, (l, p) in enumerate(ORDER)}

# class of each C_{lmn,pqr}, (lmn, pqr) in the order (0, 0), (0, 1), ..., (7, 7)
_CLASS_OF = np.array([_SIG_TO_INDEX[_signature(l, p)] for l in range(8) for p in range(8)])


def _members():
    """The 64 members rho_{lmn,pqr}, in the order of ``_CLASS_OF``: the
    row-major flat indices (64, 8) of each member's 8 nonzero entries, all
    1/8 (row lmn (x) b, column pqr (x) (b xor lmn xor pqr) for the 8 bath
    indices b), and each member's phase."""
    lmn, pqr = np.divmod(np.arange(64), 8)
    bath = np.arange(8)
    index = (lmn[:, None] * 8 + bath) * 64 + pqr[:, None] * 8 + (bath ^ (lmn ^ pqr)[:, None])
    ones = np.array([bin(v).count("1") for v in range(8)])
    # (-i)^ones(lmn) i^ones(pqr) = i^(ones(pqr) - ones(lmn))
    return index, np.array([1, 1j, -1, -1j])[(ones[pqr] - ones[lmn]) % 4]


_MEMBER_INDEX, _MEMBER_PHASE = _members()
# norm |b_i| of each class state: the members are orthogonal with norm^2 1/8
CLASS_NORMS = np.sqrt(np.bincount(_CLASS_OF, minlength=13) / 8.0)


# ---------------------------------------------------------------------------
# class states and extraction
# ---------------------------------------------------------------------------


@cache
def class_basis():
    """The 13 class states as orthonormal columns (4096, 13): column i is the
    row-major flattened sum b_i of the members of class i, each times its
    phase, over its norm |b_i| = ``CLASS_NORMS[i]``, so that coordinates y
    on it are the class coefficients y / CLASS_NORMS.  Built once per
    process, on first use, from the 512 nonzero entries, and read-only."""
    basis = np.zeros((64 * 64, 13), dtype=complex)
    entries = _MEMBER_PHASE / (8.0 * CLASS_NORMS[_CLASS_OF])
    basis[_MEMBER_INDEX, _CLASS_OF[:, None]] = entries[:, None]
    basis.setflags(write=False)
    return basis


# what ``class_restriction`` compares a model with, built once: bitflip3's
# syndrome tables, and the 192 flat indices of the unit pair Hamiltonian's
# nonzero entries (the ones that ``pair_hamiltonian(code, g)`` sets to g)
_BITFLIP3 = bitflip3_code()
_BITFLIP3_TABLES = (_BITFLIP3.syndrome_of, _BITFLIP3.corrected)
_PAIR_INDEX = np.flatnonzero(pair_hamiltonian(_BITFLIP3, 1.0))


def class_restriction(rho0, hamiltonian, code):
    """(q, n_k, c_k, y0): the class states as orthonormal columns q (4096,
    13), q_i = b_i / |b_i| (the shared ``class_basis()``), the
    restrictions n_k = q^dag noise(q) and c_k = q^dag correction(q) of
    ``Generator(code, hamiltonian, 0, 0)``'s maps, read from the tables:
    n_k = g N M_FREE N^-1 and c_k = N M_CORR N^-1 with N = diag(|b_i|), and
    rho0's coordinates y0 = q^dag rho0 (13,), complex.
    None unless the tables describe the model: the code has bitflip3's
    syndrome tables, the Hamiltonian is ``pair_hamiltonian(code, g)`` bit
    for bit, g read from its first pair's entry (g is finite, each of the
    192 pair entries equals it and every other entry is 0), and rho0 lies
    in the class span (``_class_projection``'s residual at most
    1e-13 |rho0|).

    At a g whose table entries overflow, n_k holds inf (FloatingPointError
    under ``np.errstate(over="raise")``)."""
    hamiltonian, rho = np.asarray(hamiltonian), np.asarray(rho0)
    if ((code.syndrome_of, code.corrected) != _BITFLIP3_TABLES
            or hamiltonian.shape != (64, 64) or rho.shape != (64, 64)):
        return None
    g = hamiltonian[0, 0b100100].real  # X on system qubit 0 and bath qubit 0
    flat = hamiltonian.ravel()
    pairs = flat[_PAIR_INDEX]
    if not (np.isfinite(g) and (pairs == g).all()
            and np.count_nonzero(flat) == np.count_nonzero(pairs)):
        return None
    _, coeffs, gram = _class_projection(rho.reshape(-1, 1))
    if np.sqrt(gram[0, 0].real) > 1e-13 * np.linalg.norm(rho):
        return None
    n_k = g * (CLASS_NORMS[:, None] * _M_FREE / CLASS_NORMS)
    c_k = CLASS_NORMS[:, None] * _M_CORR / CLASS_NORMS
    return class_basis(), n_k, c_k, coeffs[:, 0] * CLASS_NORMS


def _class_projection(basis):
    """(raw, coeffs, gram): the coefficients C_{lmn,pqr} (64, k) of the basis
    columns (row-major flattened 64 x 64 states, (4096, k)), their class
    coefficients (13, k) and the Gram matrix (k, k) of the columns' part
    outside the class span.  The members are orthogonal with norm^2 = 1/8,
    so a member's coefficient is the sum of its 8 entries of the state,
    phase peeled off, and a class coefficient, the mean of its members'
    ones, is the orthogonal projection onto that class state."""
    raw = np.conj(_MEMBER_PHASE)[:, None] * basis[_MEMBER_INDEX].sum(axis=1)
    counts = np.bincount(_CLASS_OF, minlength=13)
    coeffs = (_CLASS_OF == np.arange(13)[:, None]) @ raw / counts[:, None]
    off = np.array(basis, dtype=complex)
    off[_MEMBER_INDEX] -= (_MEMBER_PHASE[:, None] * coeffs[_CLASS_OF] / 8.0)[:, None, :]
    return raw, coeffs, off.conj().T @ off


def class_coefficients(coords, basis):
    """The 13 class coefficients (n, 13) of the states coords[i] @ basis.T,
    taken on the k basis columns (``_class_projection``).  Raises
    ValueError at the first state whose raw coefficients are complex
    (imaginary part > 1e-10), that has left the real symmetric manifold
    (residual > 1e-8: its distance from the class span, which counts the
    spread of the raw coefficients inside a class as well as a part off
    the 64 members) or whose weighted trace is off 1 by > 1e-10."""
    basis_raw, basis_coeffs, gram = _class_projection(basis)
    coeffs = coords @ basis_coeffs.T
    imags = np.abs((coords @ basis_raw.T).imag).max(axis=1)
    residual = np.sqrt(np.abs(np.einsum("ni,ij,nj->n", coords.conj(), gram, coords)))
    traces = coeffs.real[:, list(TRACE_WEIGHTS)] @ list(TRACE_WEIGHTS.values())
    for n, (imag, res, wt) in enumerate(zip(imags, residual, traces)):
        if imag > 1e-10:
            raise ValueError(f"coefficients not real: max imaginary part {imag:.3e} (state {n})")
        if res > 1e-8:
            raise ValueError(f"state left the symmetric manifold: residual {res:.3e} (state {n})")
        if abs(wt - 1.0) > 1e-10:
            raise ValueError(f"weighted trace {wt} deviates from 1 (state {n})")
    return coeffs.real


# ---------------------------------------------------------------------------
# transition graph
# ---------------------------------------------------------------------------


def transition_graph(big_r):
    """Off-diagonal flows of the reduced matrix as JSON records
    {"from", "to", "rate_over_gamma", "source"}.

    Edges run from the column class to the row class it feeds; rates are
    the signed matrix entries in units of gamma, "decoherence" from the
    free table and, for R > 0, "correction" from R times the correction
    table.  A rate that overflows reads inf.
    """
    if big_r < 0:
        raise ValueError("R must be >= 0")
    tables = [(_M_FREE, 1.0, "decoherence"), (_M_CORR, big_r, "correction")]
    return [
        {"from": LABELS[j], "to": LABELS[i], "rate_over_gamma": float(m[i, j]) * scale,
         "source": source}
        for i, j in np.argwhere(~np.eye(13, dtype=bool))
        for m, scale, source in tables
        if m[i, j] and scale
    ]
