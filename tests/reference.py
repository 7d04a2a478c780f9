"""Reference implementations that the tests compare the package against.

Each one is the textbook form of something the package computes another
way: Pauli strings as Kronecker products and the pair Hamiltonian summed
from them (``pair_hamiltonian`` sets the flipped entries instead), the
Kraus form of the recovery channel (``apply_recovery`` gathers
syndrome blocks instead), the code-space projector and the partial trace
over the bath (``CodeSpec.diagonal_weights`` reads F_cw and P_cs from the
diagonal instead), and the 64 raw coefficients of the reduced model with
their spread inside each class (``class_coefficients`` takes the class
means on a whole trajectory instead).  No command runs them.
"""

import numpy as np

from cqec.reduced_model import _CLASS_OF, _raw_and_off
from cqec.tensor_core import basis_ket, projector

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


def kron_pair_hamiltonian(code, gamma, strengths=None):
    """H = gamma * sum_j s_j X_(system j) X_(bath j) on the doubled register,
    summed from Kronecker products; s_j = 1 unless ``strengths`` gives them."""
    n = code.system_count
    d = 2 ** (2 * n)
    strengths = [1.0] * n if strengths is None else strengths
    h = np.zeros((d, d), dtype=complex)
    for j in range(n):
        h += strengths[j] * (pauli_on("X", j, 2 * n) @ pauli_on("X", n + j, 2 * n))
    return gamma * h


def kraus(code):
    """Kraus operators K_v = sum_{s: syndrome_of[s] = v} |c(s)><s| of the
    recovery Phi of ``code``, one per syndrome class."""
    d = 2**code.system_count
    ops = []
    for v in sorted(set(code.syndrome_of)):
        k = np.zeros((d, d), dtype=complex)
        for s in range(d):
            if code.syndrome_of[s] == v:
                k[code.corrected[s], s] = 1.0
        ops.append(k)
    return ops


def lifted_kraus(code, register):
    """Kraus operators of Phi (x) id_bath on a system+bath register."""
    assert register.system_count == code.system_count
    eye_bath = np.eye(2**register.bath_count, dtype=complex)
    return [np.kron(k, eye_bath) for k in kraus(code)]


def apply_kraus(ops, rho):
    """sum_k K rho K^dag."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def code_projector(code):
    """P_code on the system qubits: |0_L><0_L| (+ |1_L><1_L|)."""
    p = projector(basis_ket(code.logical_zero, code.system_count))
    if code.logical_one is not None:
        p = p + projector(basis_ket(code.logical_one, code.system_count))
    return p


def partial_trace_bath(rho, system_count, bath_count):
    """Trace out the trailing bath qubits of a system+bath density matrix."""
    ds, db = 2**system_count, 2**bath_count
    rho = np.asarray(rho, dtype=complex)
    assert rho.shape == (ds * db, ds * db)
    return np.trace(rho.reshape(ds, db, ds, db), axis1=1, axis2=3)


def system_dim(register):
    """Dimension 2**system_count of a register's system qubits."""
    return 2**register.system_count


def raw_coefficients(rho):
    """The 64 coefficients C_{lmn,pqr} of a 64 x 64 state on the symmetric
    manifold: (coeffs[64], max imaginary part, expansion residual)."""
    raw, off = _raw_and_off(np.asarray(rho, dtype=complex).reshape(-1, 1))
    return raw[:, 0], float(np.max(np.abs(raw.imag))), float(np.linalg.norm(off))


def class_spread(rho):
    """Largest within-class spread of the 64 raw coefficients (symmetry check)."""
    raw, _, _ = raw_coefficients(rho)
    return float(max(np.ptp(raw.real[_CLASS_OF == i]) for i in range(13)))
