"""Error-correcting codes, recovery channels, and noise generators.

The recovery operation is a syndrome-controlled channel Phi built from
Kraus operators: measure which error class a basis state belongs to,
then flip it back to the nearest codeword.  Acting with Phi at Poisson
rate kappa gives the correction generator kappa * (Phi - id), which is
combined with either

* a Markovian bit-flip Lindbladian (rate lambda per qubit), or
* a Hamiltonian pair coupling gamma * X_system x X_bath per qubit,
  with the bath qubits kept in the register (non-Markovian case).

``total_generator`` returns one matrix-free ``Generator`` for every
scenario; the engines of :mod:`cqec.dynamics` use only its ``apply`` on
d x d matrices, and no d^2 x d^2 superoperator matrix is built.

``apply_recovery`` is the one fast implementation of Phi (x) id_bath: a
gather and sum of syndrome blocks on ``(..., d, d)`` stacks.  The Kraus
form (``apply_kraus`` with ``lifted_kraus``) is kept as its reference.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor_core import (
    QubitRegister,
    basis_ket,
    pauli_on,
    projector,
)

@dataclass(frozen=True)
class CodeSpec:
    """A bit-flip stabilizer code described by its syndrome lookup tables.

    `syndrome_of[s]` labels the error class of computational basis state s,
    `corrected[s]` is the basis state the recovery maps s to.  The recovery
    channel acts on matrix units as

        Phi(|s><s'|) = delta(syndrome_of[s], syndrome_of[s']) |c(s)><c(s')|

    so its Kraus operators are K_v = sum_{s: syndrome_of[s]=v} |c(s)><s|.
    """

    name: str
    system_count: int
    logical_zero: int
    logical_one: int | None
    syndrome_of: tuple
    corrected: tuple

    def __post_init__(self):
        d = 2**self.system_count
        assert len(self.syndrome_of) == d and len(self.corrected) == d

    def kraus(self):
        d = 2**self.system_count
        ops = []
        for v in sorted(set(self.syndrome_of)):
            k = np.zeros((d, d), dtype=complex)
            for s in range(d):
                if self.syndrome_of[s] == v:
                    k[self.corrected[s], s] = 1.0
            ops.append(k)
        return ops

    @cached_property
    def recovery_gather(self):
        """Index arrays of Phi on matrix units, grouped by target block.

        Returns (target_row, target_col, source_row, source_col, starts):
        block (target_row[g], target_col[g]) of Phi(rho) is the sum of the
        blocks (source_row[q], source_col[q]) of rho for q in the g-th
        segment, which begins at starts[g].
        """
        d = 2**self.system_count
        quads = sorted(
            (self.corrected[s], self.corrected[sp], s, sp)
            for s in range(d)
            for sp in range(d)
            if self.syndrome_of[s] == self.syndrome_of[sp]
        )
        tr, tc, sr, sc = np.array(quads).T
        starts = np.flatnonzero(np.r_[True, (np.diff(tr) != 0) | (np.diff(tc) != 0)])
        return tr[starts], tc[starts], sr, sc, starts

    def code_projector(self):
        d = 2**self.system_count
        p = projector(basis_ket(self.logical_zero, self.system_count))
        if self.logical_one is not None:
            p = p + projector(basis_ket(self.logical_one, self.system_count))
        return p


def trivial_code():
    """Single-qubit 'code' whose recovery resets everything to |0>."""
    return CodeSpec(
        name="trivial",
        system_count=1,
        logical_zero=0,
        logical_one=None,
        syndrome_of=(0, 1),
        corrected=(0, 0),
    )


def bitflip3_code():
    """Three-qubit repetition code against bit flips (codewords |000>, |111>).

    Syndrome classes pair each single-flip state with the codeword reached
    by flipping the complementary two qubits: {100, 011}, {010, 101},
    {001, 110}; majority vote sends each class member to its nearest
    codeword.
    """
    syndrome = [0] * 8
    corrected = [0] * 8
    for s in range(8):
        w = bin(s).count("1")
        if w <= 1:
            corrected[s] = 0b000
        else:
            corrected[s] = 0b111
        # class label: which qubit the majority vote flips (0 = none)
        flip = s ^ corrected[s]
        syndrome[s] = {0b000: 0, 0b100: 1, 0b010: 2, 0b001: 3}[flip]
    return CodeSpec(
        name="bitflip3",
        system_count=3,
        logical_zero=0b000,
        logical_one=0b111,
        syndrome_of=tuple(syndrome),
        corrected=tuple(corrected),
    )


# ---------------------------------------------------------------------------
# recovery channel
# ---------------------------------------------------------------------------


def apply_kraus(kraus, rho):
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def apply_recovery(code, rho, bath_dim=1):
    """(Phi (x) id_bath)(rho) for a stack ``rho`` of shape (..., d, d) with
    d = 2**code.system_count * bath_dim, by gathering and summing the
    syndrome blocks of ``code.recovery_gather``; no Kraus products."""
    tr, tc, sr, sc, starts = code.recovery_gather
    ds = 2**code.system_count
    rho = np.asarray(rho, dtype=complex)
    r = rho.reshape(rho.shape[:-2] + (ds, bath_dim, ds, bath_dim))
    # source blocks, quadruple axis first: (n_quads, ..., bath_dim, bath_dim)
    sums = np.add.reduceat(r[..., sr, :, sc, :], starts, axis=0)
    out = np.zeros_like(r)
    out[..., tr, :, tc, :] = sums
    return out.reshape(rho.shape)


def lifted_kraus(code, register):
    """Kraus operators of Phi (x) id_bath on a system+bath register."""
    assert register.system_count == code.system_count
    eye_bath = np.eye(2**register.bath_count, dtype=complex)
    return [np.kron(k, eye_bath) for k in code.kraus()]


# ---------------------------------------------------------------------------
# model parameters and named scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Rates of the model: lambda (Markovian flip rate per qubit), gamma
    (system-bath coupling per qubit pair), kappa (correction rate)."""

    lam: float = 0.0
    gamma: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("lam", "gamma", "kappa"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def r(self):
        """kappa / lambda, the dimensionless correction rate (Markovian)."""
        if self.lam <= 0:
            raise ValueError("r undefined: lambda is zero")
        return self.kappa / self.lam

    @property
    def R(self):
        """kappa / gamma, the dimensionless correction rate (Hamiltonian)."""
        if self.gamma <= 0:
            raise ValueError("R undefined: gamma is zero")
        return self.kappa / self.gamma


def pair_hamiltonian(code, gamma):
    """H = gamma * sum_j X_(system j) X_(bath j) on the doubled register."""
    n = code.system_count
    d = 2 ** (2 * n)
    h = np.zeros((d, d), dtype=complex)
    for j in range(n):
        h += pauli_on("X", j, 2 * n) @ pauli_on("X", n + j, 2 * n)
    return gamma * h


class Generator:
    """The model's generator on a scenario register, applied matrix-free:

        rho -> -i[H, rho] + lam sum_j (X_j rho X_j - rho)
               + kappa ((Phi (x) id_bath)(rho) - rho)

    with X_j the flip of system qubit j, a permutation of rows and columns,
    and the recovery applied by ``apply_recovery``.  ``apply`` takes stacks
    of shape (..., d, d).  The engines of :mod:`cqec.dynamics` call it only
    on the basis of the Krylov space of rho0.
    """

    def __init__(self, code, register, hamiltonian, lam, kappa):
        self.code = code
        self.register = register
        self.hamiltonian = np.asarray(hamiltonian, dtype=complex)
        self.lam = float(lam)
        self.kappa = float(kappa)
        d = register.dim
        # qubit j is bit d >> (j + 1) of a basis index (qubit 0 most significant)
        self.flips = [np.arange(d) ^ (d >> (j + 1)) for j in range(register.system_count)]

    def apply(self, rho):
        rho = np.asarray(rho, dtype=complex)
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        if self.lam:
            for p in self.flips:
                out += self.lam * (rho[..., p, :][..., p] - rho)
        if self.kappa:
            bath_dim = 2**self.register.bath_count
            out += self.kappa * (apply_recovery(self.code, rho, bath_dim) - rho)
        return out


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    register: QubitRegister
    noise: str  # "lindblad" or "pair-bath"
    time_unit: str  # "lambda" or "gamma"
    code_factory: object = field(repr=False, default=None)

    def code(self):
        return self.code_factory()


SCENARIOS = {
    "markovian-1q": ScenarioSpec(
        "markovian-1q", QubitRegister(1, 0), "lindblad", "lambda", trivial_code
    ),
    "hamiltonian-1q": ScenarioSpec(
        "hamiltonian-1q", QubitRegister(1, 1), "pair-bath", "gamma", trivial_code
    ),
    "markovian-3q": ScenarioSpec(
        "markovian-3q", QubitRegister(3, 0), "lindblad", "lambda", bitflip3_code
    ),
    "hamiltonian-3q": ScenarioSpec(
        "hamiltonian-3q", QubitRegister(3, 3), "pair-bath", "gamma", bitflip3_code
    ),
}


def scenario_rho0(name):
    """Initial state: logical zero, with any bath qubits maximally mixed."""
    spec = SCENARIOS[name]
    code = spec.code()
    sys0 = projector(basis_ket(code.logical_zero, code.system_count))
    nb = spec.register.bath_count
    if nb == 0:
        return sys0
    return np.kron(sys0, np.eye(2**nb, dtype=complex) / 2**nb)


def total_generator(name, params):
    """Full evolution generator (noise + correction) for a named scenario:
    Lindblad bit flips at rate ``params.lam`` or the pair coupling of
    strength ``params.gamma``, plus correction at rate ``params.kappa``."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    spec = SCENARIOS[name]
    code = spec.code()
    reg = spec.register
    if spec.noise == "lindblad":
        h = np.zeros((reg.dim, reg.dim), dtype=complex)
        return Generator(code, reg, h, params.lam, params.kappa)
    return Generator(code, reg, pair_hamiltonian(code, params.gamma), 0.0, params.kappa)
