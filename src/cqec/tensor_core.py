"""Qubit-register linear algebra: Pauli strings, registers, density matrices.

Conventions used throughout the package
---------------------------------------

* Basis ordering is big-endian over the register: qubit 0 is the most
  significant bit, so ``|lmn>`` on three qubits sits at index
  ``4*l + 2*m + n``.  When a register carries both system and bath
  qubits the system qubits come first (most significant).

* Maps of density matrices act on d x d arrays (or stacks of them).
  Where the engines need coordinates, ``cqec.dynamics.invariant_subspace``
  flattens states row-major, ``rho.ravel()``; there is no other
  vectorization.

* Tolerances: a density matrix is accepted as Hermitian / normalized
  when the corresponding deviation is below 1e-10, and as positive
  when its smallest eigenvalue is above -1e-8.  Validation raises;
  it never renormalizes silently.
"""

from dataclasses import dataclass

import numpy as np

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_POS = 1e-8

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_all(*ops):
    """Kronecker product of any number of operators, left factor most significant."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def pauli_string(spec):
    """Dense operator for a Pauli string such as ``"XIZ"`` (one letter per qubit).

    Raises ValueError on letters outside I/X/Y/Z.  The string length fixes
    the number of qubits; ``pauli_string("X")`` is just the Pauli X.
    """
    if not spec:
        raise ValueError("empty Pauli string")
    mats = []
    for ch in spec:
        if ch not in PAULI:
            raise ValueError(f"unknown Pauli letter {ch!r} in {spec!r}")
        mats.append(PAULI[ch])
    return kron_all(*mats)


def pauli_on(letter, pos, n):
    """Pauli `letter` acting on qubit `pos` of an n-qubit register."""
    assert 0 <= pos < n
    return pauli_string("I" * pos + letter + "I" * (n - pos - 1))


def basis_ket(bits, n=None):
    """Computational basis column vector.

    `bits` may be an int index or a bit string like "011"; `n` (qubit count)
    is required for the int form.
    """
    if isinstance(bits, str):
        n = len(bits)
        idx = int(bits, 2)
    else:
        assert n is not None, "qubit count required for integer basis index"
        idx = int(bits)
    ket = np.zeros((2**n, 1), dtype=complex)
    ket[idx, 0] = 1.0
    return ket


def projector(ket):
    ket = np.asarray(ket, dtype=complex).reshape(-1, 1)
    return ket @ ket.conj().T


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return np.trace(np.asarray(a).conj().T @ np.asarray(b))


def partial_trace_bath(rho, system_count, bath_count):
    """Trace out the trailing bath qubits of a system+bath density matrix."""
    ds, db = 2**system_count, 2**bath_count
    rho = np.asarray(rho, dtype=complex)
    assert rho.shape == (ds * db, ds * db)
    return np.trace(rho.reshape(ds, db, ds, db), axis1=1, axis2=3)


@dataclass(frozen=True)
class QubitRegister:
    """A register of `system_count` system qubits followed by `bath_count` bath qubits."""

    system_count: int
    bath_count: int = 0

    def __post_init__(self):
        if self.system_count < 1 or self.bath_count < 0:
            raise ValueError("register needs >= 1 system qubit and >= 0 bath qubits")

    @property
    def total(self):
        return self.system_count + self.bath_count

    @property
    def dim(self):
        return 2**self.total

    @property
    def system_dim(self):
        return 2**self.system_count


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix living on a :class:`QubitRegister`.

    Validation policy: Hermiticity and unit trace are hard (1e-10);
    eigenvalues may dip to -1e-8 to leave room for round-off from
    integrators.  Anything worse raises ValueError.
    """

    register: QubitRegister
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        d = self.register.dim
        if entries.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {entries.shape}")
        herm = np.max(np.abs(entries - entries.conj().T))
        if herm > TOL_HERM:
            raise ValueError(f"not Hermitian: max |rho - rho^dagger| = {herm:.3e}")
        tr = abs(np.trace(entries) - 1.0)
        if tr > TOL_TRACE:
            raise ValueError(f"trace deviates from 1 by {tr:.3e}")
        lo = float(np.min(np.linalg.eigvalsh((entries + entries.conj().T) / 2)))
        if lo < -TOL_POS:
            raise ValueError(f"negative eigenvalue {lo:.3e} below tolerance")

    def system_state(self):
        """Reduced state of the system qubits (bath traced out)."""
        if self.register.bath_count == 0:
            return self.entries
        return partial_trace_bath(
            self.entries, self.register.system_count, self.register.bath_count
        )

    def expectation(self, op):
        return float(np.real(np.trace(np.asarray(op) @ self.entries)))
