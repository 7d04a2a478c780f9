"""Reference implementations that the tests compare the package against.

Each one is the textbook form of something the package computes another
way: Pauli strings as Kronecker products and the pair Hamiltonian summed
from them (``pair_hamiltonian`` sets the flipped entries instead), the
Kraus form of the recovery channel (``apply_recovery`` gathers
syndrome blocks instead), the code-space projector and the partial trace
over the bath (``CodeSpec.diagonal_weights`` reads F_cw and P_cs from the
diagonal instead), and the 64 raw coefficients of the reduced model,
projected onto its members built as Kronecker products, with their
spread inside each class (``class_coefficients`` reads the class means
from the members' nonzero entries on a whole trajectory instead).  No
command runs them.
"""

import numpy as np

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


def manifold_members():
    """The 64 members rho_{lmn,pqr} = |lmn><pqr| (x) X^(l xor p)/2 (x)
    X^(m xor q)/2 (x) X^(n xor r)/2 of the symmetric manifold as row-major
    flattened rows (64, 4096), (lmn, pqr) in the order (0, 0), (0, 1), ...,
    (7, 7), and the phase
    (-i)^(l+m+n) i^(p+q+r) of each, with which the state is
    sum C_{lmn,pqr} phase rho_{lmn,pqr}."""
    members, phases = [], []
    for lmn in range(8):
        for pqr in range(8):
            bits = [(lmn >> s & 1, pqr >> s & 1) for s in (2, 1, 0)]
            flips = [np.linalg.matrix_power(X, a ^ b) / 2.0 for a, b in bits]
            members.append(kron_all(np.outer(basis_ket(lmn, 3), basis_ket(pqr, 3)), *flips))
            phases.append((-1j) ** bin(lmn).count("1") * 1j ** bin(pqr).count("1"))
    return np.array(members).reshape(64, -1), np.array(phases)


MEMBERS, PHASES = manifold_members()


def raw_coefficients(rho):
    """The 64 coefficients C_{lmn,pqr} of a 64 x 64 state on the symmetric
    manifold, projected onto the members (orthogonal, each of norm^2 1/8):
    (coeffs[64], max imaginary part, expansion residual)."""
    rho = np.asarray(rho, dtype=complex).ravel()
    coeffs = 8.0 * (MEMBERS.conj() @ rho) / PHASES
    residual = rho - (coeffs * PHASES) @ MEMBERS
    return coeffs, float(np.max(np.abs(coeffs.imag))), float(np.linalg.norm(residual))


def class_spread(rho):
    """Largest spread of the 64 raw coefficients inside a symmetry class, the
    coefficients of (lmn, pqr) with the same numbers of 1s on the left and
    right (unordered) and of 1s in common (symmetry check)."""
    raw, _, _ = raw_coefficients(rho)
    classes = {}
    for index, c in enumerate(raw.real):
        lmn, pqr = divmod(index, 8)
        ones = sorted([bin(lmn).count("1"), bin(pqr).count("1")])
        classes.setdefault((*ones, bin(lmn & pqr).count("1")), []).append(c)
    assert len(classes) == 13
    return float(max(np.ptp(values) for values in classes.values()))
