import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqec.tensor_core import QubitRegister, basis_ket, projector
from cqec.codes_and_maps import (
    SCENARIOS,
    CodeSpec,
    ModelParams,
    apply_recovery,
    bitflip3_code,
    pair_hamiltonian,
    scenario_rho0,
    total_generator,
    trivial_code,
)
from cqec.dynamics import step_weak_map
from reference import (
    apply_kraus,
    code_projector,
    kraus,
    kron_pair_hamiltonian,
    lifted_kraus,
    pauli_on,
    pauli_string,
    raw_coefficients,
)


def _random_hermitian(rng, d, unit_trace=False):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    if unit_trace:
        h = h / np.trace(h).real
    return h


def _random_density(rng, d):
    """A A^dag / tr(A A^dag): a random density matrix, its trace >= its norm."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# code tables
# ---------------------------------------------------------------------------


def test_trivial_code_resets_excited_state():
    code = trivial_code()
    assert len(set(code.syndrome_of)) == 2
    out = apply_recovery(code, np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_bitflip3_syndrome_structure():
    code = bitflip3_code()
    ops = kraus(code)
    assert len(ops) == 4
    for k in ops:
        assert np.linalg.matrix_rank(k) == 2
    total = sum(k.conj().T @ k for k in ops)
    assert np.allclose(total, np.eye(8))


@pytest.mark.parametrize("syndrome_of, corrected", [((0,) * 7, (0,) * 8), ((0,) * 8, (0,) * 9)],
                         ids=["short-syndrome-table", "long-correction-table"])
def test_code_tables_need_one_entry_per_basis_state(syndrome_of, corrected):
    """A table of the wrong length is a ValueError, also under python -O."""
    with pytest.raises(ValueError, match="need 8 entries"):
        CodeSpec("bad", 3, 0, 7, syndrome_of, corrected)


@pytest.mark.parametrize("code_factory", [trivial_code, bitflip3_code])
@pytest.mark.parametrize("bath_count", [0, 1, 2, 3])
def test_diagonal_weights_are_the_lifted_projector_diagonals(code_factory, bath_count):
    """Column 0 is the diagonal of |0_L><0_L| (x) I_bath, column 1 that of
    P_code (x) I_bath, with the system qubits first."""
    code = code_factory()
    eye = np.eye(2**bath_count)
    d = 2 ** (code.system_count + bath_count)
    logical = projector(basis_ket(code.logical_zero, code.system_count))
    w = code.diagonal_weights(d)
    assert w.shape == (d, 2)
    assert np.array_equal(w[:, 0], np.diag(np.kron(logical, eye)).real)
    assert np.array_equal(w[:, 1], np.diag(np.kron(code_projector(code), eye)).real)


def test_bitflip3_strong_map_action():
    code = bitflip3_code()

    def take(bits):
        return apply_recovery(code, projector(basis_ket(bits)))

    assert np.allclose(take("000"), projector(basis_ket("000")))
    assert np.allclose(take("100"), projector(basis_ket("000")))
    # a two-qubit error is misread as its complementary single flip
    assert np.allclose(take("110"), projector(basis_ket("111")))


def test_correction_generator_fixes_code_space():
    # Phi - id annihilates a codeword
    codeword = projector(basis_ket("000"))
    assert np.max(np.abs(apply_recovery(bitflip3_code(), codeword) - codeword)) < 1e-12


def test_correction_generator_trivial_refill_rate():
    # Gamma(diag(alpha, 1-alpha)) feeds the |0><0| population at 1-alpha
    alpha = 0.3
    rho = np.diag([alpha, 1 - alpha]).astype(complex)
    out = apply_recovery(trivial_code(), rho) - rho
    assert out[0, 0] == pytest.approx(1 - alpha)
    assert out[1, 1] == pytest.approx(-(1 - alpha))
    assert abs(np.trace(out)) < 1e-14


def test_lindblad_single_x_jump():
    # dalpha/dt = -lambda (2 alpha - 1) for a bare qubit under bit flips
    lam = 0.7
    gen = total_generator("markovian-1q", ModelParams(lam=lam))
    alpha = 0.9
    out = gen.apply(np.diag([alpha, 1 - alpha]).astype(complex))
    assert out[0, 0] == pytest.approx(-lam * (2 * alpha - 1))


def test_lindblad_three_qubit_form():
    # sum_j lambda (X_j rho X_j - rho) written out with explicit Paulis
    lam = 0.31
    gen = total_generator("markovian-3q", ModelParams(lam=lam))
    rng = np.random.default_rng(11)
    rho = _random_hermitian(rng, 8, unit_trace=True)
    expected = sum(
        lam * (pauli_on("X", j, 3) @ rho @ pauli_on("X", j, 3) - rho) for j in range(3)
    )
    assert np.max(np.abs(gen.apply(rho) - expected)) < 1e-12


def test_lindblad_zero_is_zero():
    gen = total_generator("markovian-1q", ModelParams())
    rho = _random_hermitian(np.random.default_rng(2), 2)
    assert np.max(np.abs(gen.apply(rho))) == 0.0


@pytest.mark.parametrize("gamma", [0.0, 1.0, 0.37])
@pytest.mark.parametrize("code_factory", [trivial_code, bitflip3_code])
def test_pair_hamiltonian_is_the_kronecker_sum(code_factory, gamma):
    """The flip-index pair Hamiltonian equals gamma * sum_j X_j X_(n+j)
    summed from Kronecker products, exactly."""
    code = code_factory()
    assert np.array_equal(pair_hamiltonian(code, gamma), kron_pair_hamiltonian(code, gamma))


def test_hamiltonian_generator_single_pair_ode():
    """-i[H, .] with H = gamma X(x)X closes on (alpha, beta):
    dalpha/dt = -2 gamma beta, dbeta/dt = gamma (2 alpha - 1)."""
    gamma = 1.3
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=gamma))
    p0 = np.kron(projector(basis_ket("0")), np.eye(2) / 2)
    p1 = np.kron(projector(basis_ket("1")), np.eye(2) / 2)
    b_op = -np.kron(pauli_string("Y"), pauli_string("X")) / 2  # beta observable
    alpha_op = np.kron(projector(basis_ket("0")), np.eye(2))
    for alpha, beta in ((1.0, 0.0), (0.7, 0.3), (0.5, -0.5)):
        rho = alpha * p0 + (1 - alpha) * p1 + beta * b_op
        out = gen.apply(rho)
        assert np.real(np.vdot(alpha_op, out)) == pytest.approx(-2 * gamma * beta)
        assert np.real(np.vdot(b_op, out)) == pytest.approx(gamma * (2 * alpha - 1))


def test_three_qubit_hamiltonian_feeds_single_error_classes():
    """[H, .] applied to the initial product state only populates the
    single-error coefficient class."""
    from cqec.reduced_model import _CLASS_OF, LABELS

    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0))
    deriv = gen.apply(scenario_rho0("hamiltonian-3q"))
    raw, _, residual = raw_coefficients(deriv)
    assert residual < 1e-12
    fed = _CLASS_OF[np.abs(raw.real) > 1e-12]
    assert fed.size and set(fed) == {LABELS.index("C100_000")}


def test_weak_map_limits():
    """One weak-map cycle without a Hamiltonian is (1 - eps) id + eps Phi:
    the identity at eps = 0, the strong map at eps = 1; eps > 1 is rejected."""
    code = trivial_code()
    h = np.zeros((2, 2))
    rho = np.array([[0.4, 0.3], [0.3, 0.6]], dtype=complex)
    for eps, expected in ((0.0, rho), (1.0, apply_recovery(code, rho))):
        traj = step_weak_map(rho, h, code, eps, 1e-3, 1)
        assert np.max(np.abs(traj.states[-1] - expected)) < 1e-15
    with pytest.raises(ValueError):
        step_weak_map(rho, h, code, 1.5, 1e-3, 1)


def test_weak_map_partial_transfer():
    traj = step_weak_map(projector(basis_ket("100")), np.zeros((8, 8)), bitflip3_code(),
                         0.01, 1e-3, 1)
    expected = 0.99 * projector(basis_ket("100")) + 0.01 * projector(basis_ket("000"))
    assert np.max(np.abs(traj.states[-1] - expected)) < 1e-15


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def test_total_generator_markovian_reduces_to_lindblad():
    """Without correction the generator is the Lindblad form with L = X at
    rate 0.8, written out."""
    gen = total_generator("markovian-1q", ModelParams(lam=0.8, kappa=0.0))
    rho = _random_hermitian(np.random.default_rng(3), 2, unit_trace=True)
    x = pauli_string("X")
    ldl = x.conj().T @ x
    expected = 0.8 * (x @ rho @ x.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    assert np.max(np.abs(gen.apply(rho) - expected)) < 1e-15


def test_total_generator_hamiltonian_1q_ode():
    """With correction on, dalpha/dt = -2 gamma beta + kappa (1 - alpha)
    and dbeta/dt = gamma (2 alpha - 1) - kappa beta."""
    gamma, kappa = 1.0, 2.5
    gen = total_generator("hamiltonian-1q", ModelParams(gamma=gamma, kappa=kappa))
    p0 = np.kron(projector(basis_ket("0")), np.eye(2) / 2)
    p1 = np.kron(projector(basis_ket("1")), np.eye(2) / 2)
    b_op = -np.kron(pauli_string("Y"), pauli_string("X")) / 2
    alpha_op = np.kron(projector(basis_ket("0")), np.eye(2))
    alpha, beta = 0.6, 0.2
    rho = alpha * p0 + (1 - alpha) * p1 + beta * b_op
    out = gen.apply(rho)
    assert np.real(np.vdot(alpha_op, out)) == pytest.approx(
        -2 * gamma * beta + kappa * (1 - alpha)
    )
    assert np.real(np.vdot(b_op, out)) == pytest.approx(
        gamma * (2 * alpha - 1) - kappa * beta
    )


def test_total_generator_3q_is_matrix_free_and_trace_annihilating():
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=3.0))
    assert gen.hamiltonian.shape == (64, 64)
    assert not hasattr(gen, "matrix")
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = _random_hermitian(rng, 64)
        out = gen.apply(rho)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_pair_generator_correction_matches_kraus():
    """The block-copy recovery equals the lifted Kraus channel."""
    code = bitflip3_code()
    kraus = lifted_kraus(code, QubitRegister(3, 3))
    rng = np.random.default_rng(17)
    rho = _random_hermitian(rng, 64, unit_trace=True)
    assert np.max(np.abs(apply_recovery(code, rho, 8) - apply_kraus(kraus, rho))) < 1e-12


def test_total_generator_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        total_generator("markovian-5q", ModelParams(lam=1.0))


def test_scenario_rho0_shapes():
    assert scenario_rho0("markovian-1q").shape == (2, 2)
    assert scenario_rho0("hamiltonian-1q").shape == (4, 4)
    assert scenario_rho0("markovian-3q").shape == (8, 8)
    rho = scenario_rho0("hamiltonian-3q")
    assert rho.shape == (64, 64)
    assert np.trace(rho) == pytest.approx(1.0)


def test_model_params_rejects_negative_rates():
    assert ModelParams(lam=0.5, gamma=2.0, kappa=10.0).kappa == 10.0
    for name in ("lam", "gamma", "kappa"):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            ModelParams(**{name: -1.0})


# ---------------------------------------------------------------------------
# channel and generator properties
# ---------------------------------------------------------------------------

# factories of (dimension, map): Phi on one and three qubits, the weak map at eps = 0.37
_CHANNELS = [
    lambda: (2, lambda r: apply_recovery(trivial_code(), r)),
    lambda: (8, lambda r: apply_recovery(bitflip3_code(), r)),
    lambda: (8, lambda r: 0.63 * r + 0.37 * apply_recovery(bitflip3_code(), r)),
]

# factories of (dimension, map): Phi - id with a bath qubit and without, and
# two scenario generators
_GENERATORS = [
    lambda: (4, lambda r: apply_recovery(trivial_code(), r, 2) - r),
    lambda: (8, lambda r: apply_recovery(bitflip3_code(), r) - r),
    lambda: (8, total_generator("markovian-3q", ModelParams(lam=1.0, kappa=4.0)).apply),
    lambda: (4, total_generator("hamiltonian-1q", ModelParams(gamma=1.0, kappa=2.0)).apply),
]


def _trace_defect(dim, op, target):
    """Max deviation of tr(op(|i><j|)) from target * delta_ij over all
    matrix units |i><j|."""
    units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    traces = np.trace(op(units), axis1=1, axis2=2)
    return float(np.max(np.abs(traces - target * np.eye(dim).ravel())))


@pytest.mark.parametrize("make", _CHANNELS)
def test_channels_trace_defect_zero(make):
    assert _trace_defect(*make(), 1.0) < 1e-12


@pytest.mark.parametrize("make", _GENERATORS)
def test_generators_trace_defect_zero(make):
    assert _trace_defect(*make(), 0.0) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_channels_preserve_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    for make in _CHANNELS:
        dim, op = make()
        rho = _random_density(rng, dim)
        out = op(rho)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_generators_annihilate_trace(seed):
    """The generators above, and the generator of every scenario at random
    rates, map Hermitian matrices to traceless Hermitian ones."""
    rng = np.random.default_rng(seed)
    ops = [make() for make in _GENERATORS]
    for name, spec in SCENARIOS.items():
        lam, gamma, kappa = rng.uniform(0.0, 10.0, size=3)
        gen = total_generator(name, ModelParams(lam=lam, gamma=gamma, kappa=kappa))
        ops.append((spec.register.dim, gen.apply))
    for dim, op in ops:
        rho = _random_hermitian(rng, dim)
        out = op(rho)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


@pytest.mark.parametrize("code_factory", [trivial_code, bitflip3_code])
def test_strong_map_idempotent(code_factory):
    """Phi o Phi = Phi on every matrix unit."""
    code = code_factory()
    d = 2**code.system_count
    once = apply_recovery(code, np.eye(d * d).reshape(d * d, d, d))
    assert np.max(np.abs(apply_recovery(code, once) - once)) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_correction_generator_kills_code_space_with_any_bath(seed):
    """Phi - id annihilates (any code-space state) (x) (any bath state)."""
    rng = np.random.default_rng(seed)
    code = bitflip3_code()
    # random state in span{|000>, |111>}
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    ket = amps[0] * basis_ket("000") + amps[1] * basis_ket("111")
    ket /= np.linalg.norm(ket)
    bath = _random_hermitian(rng, 2, unit_trace=True)
    # make the bath positive
    bath = bath @ bath.conj().T
    bath /= np.trace(bath).real
    rho = np.kron(projector(ket), bath)
    assert np.max(np.abs(apply_recovery(code, rho, 2) - rho)) < 1e-12
