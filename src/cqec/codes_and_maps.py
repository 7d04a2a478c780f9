"""Error-correcting codes, recovery channels, and noise generators.

The recovery operation is a syndrome-controlled channel Phi built from
Kraus operators: measure which error class a basis state belongs to,
then flip it back to the nearest codeword.  Acting with Phi at Poisson
rate kappa gives the correction generator kappa * (Phi - id), which is
combined with either

* a Markovian bit-flip Lindbladian (rate lambda per qubit), or
* a Hamiltonian pair coupling gamma * X_system x X_bath per qubit,
  with the bath qubits kept in the register (non-Markovian case).

``total_generator`` returns one matrix-free ``Generator`` per scenario,
the one definition of the noise and correction maps that the engines and
scans restrict; no d^2 x d^2 superoperator matrix is built.

``apply_recovery`` is the one implementation of Phi (x) id_bath: a gather
and sum of syndrome blocks on ``(..., d, d)`` stacks, with no Kraus
products.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor_core import QubitRegister, basis_ket, projector

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
        if len(self.syndrome_of) != d or len(self.corrected) != d:
            raise ValueError(f"syndrome_of and corrected need {d} entries, one per basis state")

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

    def diagonal_weights(self, d):
        """(d, 2) diagonals of |L><L| (x) I_bath and P_code (x) I_bath on a
        register of d states, system qubits first, with L the logical zero:
        F_cw = w[:, 0] @ diag(rho) and P_cs = w[:, 1] @ diag(rho)."""
        w = np.zeros((2**self.system_count, 2))
        w[self.logical_zero] = 1.0
        if self.logical_one is not None:
            w[self.logical_one, 1] = 1.0
        return np.repeat(w, d >> self.system_count, axis=0)


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


def pair_hamiltonian(code, gamma):
    """H = gamma * sum_j X_(system j) X_(bath j) on the doubled register.
    X_(system j) X_(bath j) flips bits d >> (j + 1) and d >> (n + j + 1) of a
    basis index (qubit 0 most significant, as ``Generator.flips``), so it is
    the permutation matrix with a 1 at (i, i ^ mask_j) for every index i."""
    n = code.system_count
    d = 2 ** (2 * n)
    i = np.arange(d)
    h = np.zeros((d, d), dtype=complex)
    for j in range(n):
        h[i, i ^ (d >> (j + 1)) ^ (d >> (n + j + 1))] = 1.0
    return gamma * h


class Generator:
    """The model's generator, matrix-free on stacks (..., d, d) with d the
    dimension of H: apply = noise + kappa correction, with the maps

        noise(rho)      = -i[H, rho] + lam sum_j (X_j rho X_j - rho)
        correction(rho) = (Phi (x) id_bath)(rho) - rho

    X_j flips system qubit j (a permutation of rows and columns), and
    ``apply_recovery`` applies Phi.  Phi - id is taken on d x d matrices,
    so that a restriction of it does not carry the rounding of Phi_k - I.
    """

    def __init__(self, code, hamiltonian, lam, kappa):
        self.code = code
        self.hamiltonian = np.asarray(hamiltonian, dtype=complex)
        self.lam = float(lam)
        self.kappa = float(kappa)
        d = len(self.hamiltonian)
        self.bath_dim = d >> code.system_count
        # qubit j is bit d >> (j + 1) of a basis index (qubit 0 most significant)
        self.flips = [np.arange(d) ^ (d >> (j + 1)) for j in range(code.system_count)]

    def noise(self, rho):
        rho = np.asarray(rho, dtype=complex)
        out = -1j * (self.hamiltonian @ rho - rho @ self.hamiltonian)
        if self.lam:
            for p in self.flips:
                out += self.lam * (rho[..., p, :][..., p] - rho)
        return out

    def correction(self, rho):
        return apply_recovery(self.code, rho, self.bath_dim) - rho

    def apply(self, rho):
        out = self.noise(rho)
        if self.kappa:
            out += self.kappa * self.correction(rho)
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
    if spec.noise == "lindblad":
        d = spec.register.dim
        return Generator(code, np.zeros((d, d)), params.lam, params.kappa)
    return Generator(code, pair_hamiltonian(code, params.gamma), 0.0, params.kappa)
