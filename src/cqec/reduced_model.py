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
"""

from dataclasses import dataclass

import numpy as np

from .tensor_core import DensityMatrix, QubitRegister, kron_all, I2, X

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
    mode, and FloatingPointError is raised.
    """
    w = np.linalg.eigvals(np.asarray(matrix))
    tol = 1e-14 * np.max(np.abs(w))
    osc = w[w.imag > tol]
    slow = osc[np.argmax(osc.real)]
    if np.count_nonzero(w.real > slow.real + tol) > 1:
        raise FloatingPointError("slow mode not resolved in double precision")
    return complex(slow)


# ---------------------------------------------------------------------------
# coefficient classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffClass:
    rep: tuple  # representative (lmn, pqr) as integers
    signature: tuple  # (max ones, min ones, overlap) - transpose-invariant
    multiplicity: int
    index: int  # position in ORDER

    @property
    def label(self):
        return LABELS[self.index]


def _as_bits(v):
    if isinstance(v, str):
        v = int(v, 2)
    elif isinstance(v, (tuple, list)):
        v = (v[0] << 2) | (v[1] << 1) | v[2]
    v = int(v)
    if not 0 <= v <= 7:
        raise ValueError(f"not a bit triple: {v}")
    return v


def _signature(lmn, pqr):
    nl = bin(lmn).count("1")
    nr = bin(pqr).count("1")
    ov = bin(lmn & pqr).count("1")
    return (max(nl, nr), min(nl, nr), ov)


_SIG_TO_INDEX = {_signature(l, p): i for i, (l, p) in enumerate(ORDER)}
assert len(_SIG_TO_INDEX) == 13

_MULTIPLICITY = [0] * 13
for _l in range(8):
    for _p in range(8):
        _MULTIPLICITY[_SIG_TO_INDEX[_signature(_l, _p)]] += 1
assert sum(_MULTIPLICITY) == 64


def coeff_class(lmn, pqr):
    """Class of the coefficient C_{lmn,pqr}; accepts ints, "110"-style
    strings, or bit tuples."""
    lmn, pqr = _as_bits(lmn), _as_bits(pqr)
    sig = _signature(lmn, pqr)
    idx = _SIG_TO_INDEX[sig]
    return CoeffClass(rep=ORDER[idx], signature=sig, multiplicity=_MULTIPLICITY[idx], index=idx)


# ---------------------------------------------------------------------------
# reduced state and extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedState:
    """The 13 class coefficients, ordered as in ORDER/LABELS."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (13,):
            raise ValueError(f"expected 13 coefficients, got shape {c.shape}")
        wt = self.weighted_trace
        if abs(wt - 1.0) > 1e-10:
            raise ValueError(f"weighted trace {wt} deviates from 1")

    @property
    def weighted_trace(self):
        return float(sum(w * self.coeffs[i] for i, w in TRACE_WEIGHTS.items()))

    @property
    def fidelity(self):
        return float(self.coeffs[0])

    @property
    def code_space_weight(self):
        return float(self.coeffs[0] + self.coeffs[12])


def initial_reduced_state():
    c = np.zeros(13)
    c[0] = 1.0
    return ReducedState(c)


def _phase(lmn, pqr):
    return (-1j) ** bin(lmn).count("1") * (1j) ** bin(pqr).count("1")


def _basis_element(lmn, pqr):
    sys = np.zeros((8, 8), dtype=complex)
    sys[lmn, pqr] = 1.0
    flips = lmn ^ pqr
    bath = [(X if (flips >> k) & 1 else I2) / 2.0 for k in (2, 1, 0)]
    return np.kron(sys, kron_all(*bath))


_CACHE = None


def _basis_stack():
    """All 64 basis elements flattened row-major to (64, 4096), their
    phases and class indices, and the extraction matrix whose rows map a
    flattened state to the coefficients C_{lmn,pqr} (cached)."""
    global _CACHE
    if _CACHE is None:
        pairs = [(l, p) for l in range(8) for p in range(8)]
        flat = np.array([_basis_element(l, p).ravel() for l, p in pairs])
        phases = np.array([_phase(l, p) for l, p in pairs])
        classes = np.array([_SIG_TO_INDEX[_signature(l, p)] for l, p in pairs])
        extract = 8.0 * np.conj(phases)[:, None] * flat.conj()
        _CACHE = (flat, phases, classes, extract)
    return _CACHE


REGISTER = QubitRegister(3, 3)


def raw_coefficients(rho):
    """The 64 coefficients C_{lmn,pqr} of a state on the symmetric manifold.

    Returns (coeffs[64], max imaginary part, expansion residual); the basis
    is Hilbert-Schmidt orthogonal with norm^2 = 1/8, so extraction is the
    inner product scaled by 8 with the phase peeled off.
    """
    rho = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    flat, phases, _, extract = _basis_stack()
    raw = extract @ rho.ravel()
    max_imag = float(np.max(np.abs(raw.imag)))
    recon = (phases * raw.real) @ flat
    residual = float(np.linalg.norm(rho.ravel() - recon))
    return raw, max_imag, residual


def extract_reduced(rho):
    """Project a 6-qubit state, evolved from |000><000| (x) (I/2)^3, onto
    the 13 class coefficients.

    Raises if the state has left the symmetric manifold (expansion residual
    > 1e-8) or if coefficients come out complex (imaginary part > 1e-10).
    """
    raw, max_imag, residual = raw_coefficients(rho)
    if max_imag > 1e-10:
        raise ValueError(f"coefficients not real: max imaginary part {max_imag:.3e}")
    if residual > 1e-8:
        raise ValueError(f"state left the symmetric manifold: residual {residual:.3e}")
    classes = _basis_stack()[2]
    coeffs = np.zeros(13)
    for i in range(13):
        coeffs[i] = raw.real[classes == i].mean()
    return ReducedState(coeffs)


def class_spread(rho):
    """Largest within-class spread of the 64 raw coefficients (symmetry check)."""
    raw, _, _ = raw_coefficients(rho)
    classes = _basis_stack()[2]
    return float(
        max(np.ptp(raw.real[classes == i]) for i in range(13))
    )


def expand_reduced(state):
    """Rebuild the full 64x64 density matrix from class coefficients.

    Inverse of :func:`extract_reduced`: every member of a class gets the
    class coefficient, multiplied back by its phase.
    """
    coeffs = state.coeffs if isinstance(state, ReducedState) else np.asarray(state, float)
    flat, phases, classes, _ = _basis_stack()
    full = ((phases * coeffs[classes]) @ flat).reshape(REGISTER.dim, REGISTER.dim)
    return DensityMatrix(REGISTER, full)


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
