"""Qubit-register basics: basis kets, projectors, registers.

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
"""

from dataclasses import dataclass

import numpy as np


def basis_ket(bits, n=None):
    """Computational basis column vector.

    `bits` may be an int index or a bit string like "011"; `n` (qubit count)
    is required for the int form.
    """
    if isinstance(bits, str):
        n = len(bits)
        idx = int(bits, 2)
    else:
        if n is None:
            raise ValueError("qubit count required for integer basis index")
        idx = int(bits)
    ket = np.zeros((2**n, 1), dtype=complex)
    ket[idx, 0] = 1.0
    return ket


def projector(ket):
    ket = np.asarray(ket, dtype=complex).reshape(-1, 1)
    return ket @ ket.conj().T


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
