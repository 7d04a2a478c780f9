import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqec.tensor_core import QubitRegister, basis_ket, projector
from reference import I2, X, Z, kron_all, partial_trace_bath, pauli_string, system_dim


def test_kron_identity():
    assert np.array_equal(kron_all(I2, I2), np.eye(4))


def test_kron_double_flip():
    ket00 = basis_ket("00")
    ket11 = basis_ket("11")
    assert np.allclose(kron_all(X, X) @ ket00, ket11)


def test_kron_z_on_first_qubit_diagonal():
    assert np.allclose(np.diag(kron_all(Z, I2)), [1, 1, -1, -1])


def test_pauli_string_matches_kron():
    assert np.array_equal(pauli_string("XX"), kron_all(X, X))


def test_pauli_string_squares_to_identity():
    zzi = pauli_string("ZZI")
    assert np.allclose(zzi @ zzi, np.eye(8))


def test_pauli_string_flips_first_qubit():
    assert np.allclose(pauli_string("XII") @ basis_ket("000"), basis_ket("100"))


def test_pauli_string_rejects_bad_letter():
    with pytest.raises(ValueError):
        pauli_string("XQZ")


def test_hs_inner_paulis():
    """np.vdot(a, b) is the Hilbert-Schmidt inner product Tr(a^dagger b)."""
    assert np.vdot(I2, I2) == pytest.approx(2)
    assert np.vdot(X, Z) == pytest.approx(0)
    assert np.vdot(X, X) == pytest.approx(2)
    a = np.array([[1.0, 2j], [0.5, -1.0]])
    assert np.vdot(a, Z) == pytest.approx(np.trace(a.conj().T @ Z))


def test_partial_trace_bath_splits_product():
    rho_s = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    rho_b = np.array([[0.5, 0.2j], [-0.2j, 0.5]], dtype=complex)
    assert np.allclose(partial_trace_bath(np.kron(rho_s, rho_b), 1, 1), rho_s)


@given(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=4))
def test_pauli_strings_are_involutions(letters):
    op = pauli_string("".join(letters))
    assert np.max(np.abs(op @ op - np.eye(2 ** len(letters)))) < 1e-15


@given(
    st.lists(st.sampled_from("IXYZ"), min_size=2, max_size=3),
    st.lists(st.sampled_from("IXYZ"), min_size=2, max_size=3),
)
def test_pauli_orthogonality(s1, s2):
    n = min(len(s1), len(s2))
    a, b = "".join(s1[:n]), "".join(s2[:n])
    inner = np.vdot(pauli_string(a), pauli_string(b))
    expected = 2**n if a == b else 0.0
    assert abs(inner - expected) < 1e-12


def test_register_dimensions():
    reg = QubitRegister(3, 3)
    assert reg.total == 6 and reg.dim == 64 and system_dim(reg) == 8
    with pytest.raises(ValueError):
        QubitRegister(0, 1)


def test_density_matrix_system_state():
    rho_s = np.diag([0.9, 0.1]).astype(complex)
    rho = np.kron(rho_s, I2 / 2)
    assert np.allclose(partial_trace_bath(rho, 1, 1), rho_s)
    p0_lifted = np.kron(projector(basis_ket("0")), I2)
    assert np.trace(p0_lifted @ rho).real == pytest.approx(0.9)


def test_basis_ket_forms():
    assert np.array_equal(basis_ket("011"), basis_ket(3, 3))
    assert basis_ket("011")[3, 0] == 1.0


def test_basis_ket_integer_index_needs_qubit_count():
    """A ValueError, also under python -O."""
    with pytest.raises(ValueError, match="qubit count required"):
        basis_ket(3)
