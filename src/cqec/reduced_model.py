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

The class states (``class_basis``) span a subspace that the model's noise
and correction maps send into itself, and the two tables below are those
maps restricted to it, exactly.  ``class_restriction`` hands them, on the
normalised class states, to the weak map and Monte Carlo.
"""

from dataclasses import dataclass

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

# entries proportional to R (correction flows): (row, col, coefficient)
_M_CORR = [
    (0, 4, 3.0),
    (1, 1, -1.0),
    (2, 2, -1.0),
    (3, 3, -1.0),
    (4, 4, -1.0),
    (5, 5, -1.0),
    (6, 5, -3.0),
    (7, 7, -1.0),
    (8, 8, -1.0),
    (9, 9, -1.0),
    (10, 10, -1.0),
    (11, 11, -1.0),
    (12, 8, 3.0),
]


def build_reduced_matrix(big_r, gamma=1.0):
    """The 13x13 generator gamma*M(R) of the reduced coefficient vector."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if big_r < 0:
        raise ValueError("R must be >= 0")
    m = _M_FREE.copy()
    for i, j, coeff in _M_CORR:
        m[i, j] += coeff * big_r
    return gamma * m


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
assert len(_SIG_TO_INDEX) == 13

# class of each C_{lmn,pqr}, (lmn, pqr) in the order (0, 0), (0, 1), ..., (7, 7)
_CLASS_OF = np.array([_SIG_TO_INDEX[_signature(l, p)] for l in range(8) for p in range(8)])


# ---------------------------------------------------------------------------
# class states and extraction
# ---------------------------------------------------------------------------


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


def class_basis():
    """The 13 class states as columns (4096, 13): column i is the row-major
    flattened sum of the members of class i, each times its phase, so the
    state with class coefficients c is class_basis() @ c.  Built from the
    512 nonzero entries alone."""
    return _class_columns(np.ones(13))


def _class_columns(norms):
    """The class states as columns (4096, 13), column i divided by norms[i]."""
    index, phases = _members()
    basis = np.zeros((64 * 64, 13), dtype=complex)
    basis[index, _CLASS_OF[:, None]] = (phases / (8.0 * norms[_CLASS_OF]))[:, None]
    return basis


def class_restriction(rho0, hamiltonian, code):
    """(q, n_k, c_k): the class states as orthonormal columns q (4096, 13),
    q_i = b_i / |b_i| with b = class_basis() and |b_i|^2 the multiplicity of
    class i over 8, and the restrictions n_k = q^dag noise(q) and
    c_k = q^dag correction(q) of ``Generator(code, hamiltonian, 0, 0)``'s
    maps, read from the tables: n_k = g N M_FREE N^-1 and c_k = N M_CORR N^-1
    with N = diag(|b_i|).  None unless the tables describe the model: the
    code has bitflip3's syndrome tables, the Hamiltonian is
    ``pair_hamiltonian(code, g)`` bit for bit (g read from its first pair's
    entry), and rho0 lies in the class span (residual at most 1e-13 |rho0|,
    taken on the 512 entries the class states cover and the norm of the
    rest).

    At a g whose table entries overflow, n_k holds inf (FloatingPointError
    under ``np.errstate(over="raise")``)."""
    bitflip3 = bitflip3_code()
    hamiltonian, rho = np.asarray(hamiltonian), np.asarray(rho0)
    if ((code.syndrome_of, code.corrected) != (bitflip3.syndrome_of, bitflip3.corrected)
            or hamiltonian.shape != (64, 64) or rho.shape != (64, 64)):
        return None
    g = hamiltonian[0, 0b100100].real  # X on system qubit 0 and bath qubit 0
    if not np.array_equal(hamiltonian, pair_hamiltonian(code, g)):
        return None
    index, phases = _members()
    flat = rho.ravel()
    on = flat[index]
    raw = np.conj(phases) * on.sum(axis=1)  # as ``_raw_and_off``
    counts = np.bincount(_CLASS_OF, minlength=13)
    coeffs = np.bincount(_CLASS_OF, raw.real, 13) + 1j * np.bincount(_CLASS_OF, raw.imag, 13)
    rest = on - (phases * coeffs[_CLASS_OF] / counts[_CLASS_OF] / 8.0)[:, None]
    off = flat.copy()
    off[index] = 0.0
    if np.hypot(np.linalg.norm(off), np.linalg.norm(rest)) > 1e-13 * np.linalg.norm(flat):
        return None
    norms = np.sqrt(counts / 8.0)
    m_corr = np.zeros((13, 13))
    rows, cols, values = zip(*_M_CORR)
    m_corr[rows, cols] = values
    n_k = g * (norms[:, None] * _M_FREE / norms)
    c_k = norms[:, None] * m_corr / norms
    return _class_columns(norms), n_k, c_k


def _raw_and_off(basis):
    """The coefficients C_{lmn,pqr} (64, k) of the basis columns (row-major
    flattened 64 x 64 states) and the columns' part off the members' span
    (4096, k).  The members are orthogonal with norm^2 = 1/8, so a coefficient
    is the sum of its member's 8 entries of the state, phase peeled off."""
    index, phases = _members()
    raw = np.conj(phases)[:, None] * basis[index].sum(axis=1)
    off = np.array(basis, dtype=complex)
    off[index] -= (phases[:, None] * raw / 8.0)[:, None, :]
    return raw, off


def class_coefficients(coords, basis):
    """The 13 class coefficients (n, 13) of the states coords[i] @ basis.T,
    each the mean of its class's raw coefficients, taken on the k basis
    columns (the residuals from the Gram matrix of their part off the
    manifold).  Raises ValueError at the first state whose raw coefficients
    are complex (imaginary part > 1e-10), that has left the symmetric
    manifold (residual > 1e-8) or whose weighted trace is off 1 by > 1e-10."""
    basis_raw, off = _raw_and_off(basis)
    raw = coords @ basis_raw.T
    gram = off.conj().T @ off
    residual = np.sqrt(np.abs(np.einsum("ni,ij,nj->n", coords.conj(), gram, coords)))
    coeffs = np.stack([raw.real[:, _CLASS_OF == i].mean(axis=1) for i in range(13)], axis=1)
    traces = coeffs[:, list(TRACE_WEIGHTS)] @ list(TRACE_WEIGHTS.values())
    for n, (imag, res, wt) in enumerate(zip(np.abs(raw.imag).max(axis=1), residual, traces)):
        if imag > 1e-10:
            raise ValueError(f"coefficients not real: max imaginary part {imag:.3e} (state {n})")
        if res > 1e-8:
            raise ValueError(f"state left the symmetric manifold: residual {res:.3e} (state {n})")
        if abs(wt - 1.0) > 1e-10:
            raise ValueError(f"weighted trace {wt} deviates from 1 (state {n})")
    return coeffs


# ---------------------------------------------------------------------------
# transition graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    rate_over_gamma: float
    source: str  # "decoherence" or "correction"


def transition_graph(big_r):
    """Off-diagonal flows of the reduced matrix as provenance-tagged edges.

    Edges run from the column class to the row class it feeds; rates are
    the signed matrix entries in units of gamma.  Entries proportional to
    R come from the correction channel, the rest from the pair coupling.
    """
    if big_r < 0:
        raise ValueError("R must be >= 0")
    edges = []
    corr = {(i, j): c for i, j, c in _M_CORR}
    for i in range(13):
        for j in range(13):
            if i == j:
                continue
            if _M_FREE[i, j] != 0.0:
                edges.append(Edge(LABELS[j], LABELS[i], float(_M_FREE[i, j]), "decoherence"))
            if (i, j) in corr and big_r > 0:
                edges.append(Edge(LABELS[j], LABELS[i], corr[(i, j)] * big_r, "correction"))
    return edges


def graph_as_json(edges):
    return [
        {"from": e.src, "to": e.dst, "rate_over_gamma": e.rate_over_gamma, "source": e.source}
        for e in edges
    ]
