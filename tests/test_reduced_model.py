import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqec.tensor_core import basis_ket, projector
from cqec.codes_and_maps import (
    Generator,
    ModelParams,
    bitflip3_code,
    pair_hamiltonian,
    scenario_rho0,
    total_generator,
    trivial_code,
)
from cqec.cli import _class_columns, main
from cqec.dynamics import _class_blocks, integrate, integrate_krylov, propagate_linear
from cqec.reduced_model import (
    _CLASS_OF,
    _SIG_TO_INDEX,
    _M_CORR,
    _M_FREE,
    _signature,
    CLASS_NORMS,
    LABELS,
    ORDER,
    TRACE_WEIGHTS,
    build_reduced_matrix,
    class_basis,
    class_coefficients,
    class_restriction,
    transition_graph,
)
from reference import class_spread, kron_all, partial_trace_bath


# ---------------------------------------------------------------------------
# class bookkeeping
# ---------------------------------------------------------------------------


def _class(lmn, pqr):
    """Class index of C_{lmn,pqr}, bit strings such as "110"."""
    return _CLASS_OF[int(lmn, 2) * 8 + int(pqr, 2)]


def test_coeff_class_examples():
    multiplicity = np.bincount(_CLASS_OF, minlength=13)
    c = _class("110", "011")
    assert _signature(0b110, 0b011) == (2, 2, 1)
    assert LABELS[c] == "C110_011"
    assert multiplicity[c] == 6
    assert multiplicity[_class("000", "000")] == 1
    # same unordered signature -> same class
    assert _class("101", "110") == c


def test_classes_partition_all_64_pairs():
    """The 13 representatives have 13 distinct signatures, _CLASS_OF puts
    each of the 64 (lmn, pqr) in one of 13 classes, each representative in
    its own, and the diagonal classes' sizes are the trace weights."""
    assert len(_SIG_TO_INDEX) == 13
    multiplicity = np.bincount(_CLASS_OF, minlength=13)
    assert len(_CLASS_OF) == 64 and set(_CLASS_OF) == set(range(13))
    for idx, (l, p) in enumerate(ORDER):
        assert _CLASS_OF[l * 8 + p] == idx
    assert multiplicity.sum() == 64
    assert {i: float(multiplicity[i]) for i in TRACE_WEIGHTS} == TRACE_WEIGHTS
    diagonal = {_CLASS_OF[l * 8 + l] for l in range(8)}
    assert diagonal == set(TRACE_WEIGHTS)


def test_labels_follow_order():
    assert LABELS[0] == "C000_000"
    assert len(LABELS) == 13
    for label, (l, r) in zip(LABELS, ORDER):
        assert label == f"C{l:03b}_{r:03b}"


# ---------------------------------------------------------------------------
# the 13x13 generator
# ---------------------------------------------------------------------------


def test_matrix_entries_top_row():
    m = build_reduced_matrix(100.0, 1.0)
    i_leak = LABELS.index("C100_000")
    i_corr = LABELS.index("C100_100")
    assert m[0, i_leak] == pytest.approx(-6.0)
    assert m[0, i_corr] == pytest.approx(3.0 * 100.0)


def test_correction_entries_scale_with_big_r():
    m0 = build_reduced_matrix(0.0)
    m1 = build_reduced_matrix(1.0)
    m7 = build_reduced_matrix(7.0)
    assert np.allclose(m7 - m0, 7.0 * (m1 - m0))


@given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_weighted_trace_is_conserved(big_r):
    """The (1,3,3,1)-weighted sum of the trace-carrying classes is a left
    null vector of the generator for every correction rate."""
    m = build_reduced_matrix(big_r)
    w = np.zeros(13)
    w[0], w[4], w[8], w[12] = 1.0, 3.0, 3.0, 1.0
    assert np.max(np.abs(w @ m)) == 0.0


def test_tables_are_the_restriction_of_the_maps():
    """The model's noise and correction maps (``Generator``, gamma = 1) send
    each class state b_j to b @ column j of the free and the correction
    table, exactly: the 13x13 tables are the restriction of the two maps,
    "decoherence" edges of the noise and "correction" edges of the
    correction.  The class states b_j are built from the shared normalised
    ones and the class norms (bit for bit the phased sums of the members)."""
    code = bitflip3_code()
    gen = Generator(code, pair_hamiltonian(code, 1.0), 0.0, 0.0)
    basis = class_basis() * CLASS_NORMS
    for j, b in enumerate(basis.T):
        state = b.reshape(64, 64)
        assert np.array_equal(gen.noise(state).ravel(), basis @ _M_FREE[:, j])
        assert np.array_equal(gen.correction(state).ravel(), basis @ _M_CORR[:, j])


def _near_misses():
    """(name, rho0, H, code, accepted) of inputs on and around the scenario
    model."""
    code, rho0 = bitflip3_code(), scenario_rho0("hamiltonian-3q")
    h = pair_hamiltonian(code, 1.3)
    ulp = h.copy()
    ulp[5, 5 ^ 0b010010] = np.nextafter(1.3, 2.0)  # one pair entry one ulp off
    extra = h.copy()
    extra[0, 1] = 1e-300  # one nonzero entry off the pairs
    imaginary = h.copy()
    imaginary[0, 0b100100] += 1e-300j  # the first pair entry, where g is read
    infinite = np.where(h != 0, np.inf, 0.0)
    off_span = rho0 + 1e-3 * (projector(basis_ket(8, 6)) - np.eye(64) / 64.0)
    cases = [("scenario", rho0, h, code, True), ("gamma-0", rho0, np.zeros((64, 64)), code, True),
             ("pair-entry-one-ulp-off", rho0, ulp, code, False),
             ("extra-nonzero-entry", rho0, extra, code, False),
             ("imaginary-g", rho0, imaginary, code, False), ("infinite-g", rho0, infinite, code, False),
             ("trivial-code", rho0, h, trivial_code(), False),
             ("rho0-off-the-span", off_span, h, code, False)]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, rho0, h, code, accepted", _near_misses())
def test_class_restriction_accepts_the_pair_model_bit_for_bit(name, rho0, h, code, accepted):
    """``class_restriction`` accepts a model exactly where the code has
    bitflip3's tables, H equals pair_hamiltonian(code, g) bit for bit, g its
    first pair entry (H = 0 is g = 0), and rho0 lies in the class span; y0
    is then q^dag rho0."""
    with np.errstate(invalid="ignore"):  # pair_hamiltonian(code, inf) holds nan
        same = np.array_equal(h, pair_hamiltonian(code, h[0, 0b100100].real))
    assert same == (accepted or name == "rho0-off-the-span")
    restriction = class_restriction(rho0, h, code)
    assert (restriction is not None) == accepted
    if accepted:
        q, _, _, y0 = restriction
        assert np.max(np.abs(y0 - q.conj().T @ rho0.ravel())) <= 1e-16


def test_pair_swap_basis_splits_the_class_blocks():
    """The sample check reads of each class state the 4 x 4 block and the
    first 2 x 2 block of its 8 x 8 diagonal block in the pair-swap basis
    (``_class_blocks``): their eigenvalues, the 2 x 2 block's counted twice
    for the second, equal one, are those of the 8 x 8 block within 1e-15."""
    (quad, _), (pair, _) = _class_blocks()
    diag = 9 * np.arange(8)
    for b, q4, q2 in zip(class_basis().T, quad, pair):
        split = np.concatenate([np.linalg.eigvalsh(q4.reshape(4, 4)),
                                np.repeat(np.linalg.eigvalsh(q2.reshape(2, 2)), 2)])
        whole = np.linalg.eigvalsh(b.reshape(64, 64)[np.ix_(diag, diag)])
        assert np.max(np.abs(np.sort(split) - whole)) <= 1e-15


def test_spectrum_contains_zero_for_any_rate():
    for big_r in (0.0, 1.0, 100.0):
        vals = np.linalg.eigvals(build_reduced_matrix(big_r))
        assert np.min(np.abs(vals)) < 1e-10


def test_free_spectrum_purely_imaginary():
    vals = np.linalg.eigvals(build_reduced_matrix(0.0))
    assert np.max(np.abs(vals.real)) < 1e-10


# ---------------------------------------------------------------------------
# extraction / expansion round trips
# ---------------------------------------------------------------------------


def _coefficients(rho):
    """The 13 class coefficients of one 64 x 64 state."""
    return class_coefficients(np.ones((1, 1)), np.asarray(rho).reshape(-1, 1))[0]


def test_initial_state_is_unit_first_coefficient(tmp_path):
    """The reduced engine starts from the unit first coefficient (fidelity
    C000_000 = 1, weighted trace 1): its `--t-max 0` row is that vector,
    and its propagation returns it at t = 0 to rounding."""
    argv = ["simulate", "--scenario", "hamiltonian-3q", "--engine", "reduced", "--R", "10"]
    out = tmp_path / "zero.csv"
    assert main(argv + ["--t-max", "0", "--samples", "1", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()[1:]
    coeffs = np.array([float(x) for x in row.split(",")[4:]])
    assert header.split(",")[4:] == LABELS
    assert np.array_equal(coeffs, np.eye(13)[0])
    assert coeffs[list(TRACE_WEIGHTS)] @ list(TRACE_WEIGHTS.values()) == 1.0
    out = tmp_path / "one.csv"
    assert main(argv + ["--t-max", "1", "--samples", "2", "--out", str(out)]) == 0
    first = np.array([float(x) for x in out.read_text().splitlines()[2].split(",")[4:]])
    assert np.max(np.abs(first - coeffs)) < 1e-15


def test_extract_from_initial_product_state():
    c = _coefficients(scenario_rho0("hamiltonian-3q"))
    assert np.allclose(c, np.eye(13)[0])


def test_expand_initial_state():
    rho = (class_basis() @ (CLASS_NORMS * np.eye(13)[0])).reshape(64, 64)
    expected = kron_all(projector(basis_ket("000")), np.eye(8) / 8.0)
    assert np.allclose(rho, expected)
    assert partial_trace_bath(rho, 3, 3)[0, 0] == pytest.approx(1.0)


def test_extract_expand_round_trip_after_evolution():
    """Evolve the full 64-dim model a short while, extract, expand, and
    extract again: the coefficients must survive the round trip."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=3.0))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), 0.3, n_samples=4)
    c1 = _coefficients(traj.states[-1])
    c2 = _coefficients(class_basis() @ (CLASS_NORMS * c1))
    assert np.max(np.abs(c1 - c2)) < 1e-12


def test_reduced_propagation_matches_full_dynamics():
    """The 13-dim linear model reproduces the 64-dim integration."""
    big_r = 4.0
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), 0.5, n_samples=6)
    m = build_reduced_matrix(big_r)
    xs = propagate_linear(m, np.eye(13)[0], traj.times)
    for rho, x in zip(traj.states, xs):
        assert np.max(np.abs(_coefficients(rho) - x)) < 1e-8


@given(st.floats(0.0, 1e3), st.floats(1e-2, 1e2))
@settings(max_examples=25, deadline=None)
def test_full_engine_matches_reduced_engine(big_r, t_max):
    """At random R and gamma t, the class coefficients of the full engine's
    samples (``integrate`` of the 64-dim model, restricted to the class
    states) match those of the Krylov run (``integrate_krylov``, which reads
    no table) to --cross-validate's 1e-6, and both, and the reduced
    engine's columns (the full run's coordinates over the class norms),
    match the unsplit reference (propagate_linear of M(R)) as closely."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    rho0 = scenario_rho0("hamiltonian-3q")
    full = integrate(gen, rho0, t_max, n_samples=11)
    krylov = integrate_krylov(gen, rho0, t_max, n_samples=11)
    unsplit = propagate_linear(build_reduced_matrix(big_r, 1.0), np.eye(13)[0], full.times).real
    coeffs = class_coefficients(full.coords, full.basis)
    krylov_coeffs = class_coefficients(krylov.coords, krylov.basis)
    assert np.max(np.abs(coeffs - krylov_coeffs)) <= 1e-6
    for split in (coeffs, krylov_coeffs, _class_columns(full)):
        assert np.max(np.abs(split - unsplit)) <= 1e-6


def test_class_spread_stays_small_under_evolution():
    """All 64 raw coefficients inside each symmetry class stay equal while
    the full model evolves, so the 13-number description is lossless."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=2.0))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), 0.4, n_samples=5)
    for rho in traj.states:
        assert class_spread(rho) < 1e-9


@pytest.mark.parametrize("extra, message", [
    # |000><000| bath: outside the span of the 64 basis elements
    (kron_all(projector(basis_ket("000")), projector(basis_ket("000")) - np.eye(8) / 8.0),
     "left the symmetric manifold"),
    # the basis element of C100_000 without its phase -i: an imaginary coefficient
    (0.01 * kron_all(np.outer(basis_ket("100"), basis_ket("000")),
                     np.array([[0.0, 0.5], [0.5, 0.0]]), np.eye(2) / 2.0, np.eye(2) / 2.0),
     "not real"),
    # two members of C100_000 without their phase -i, at opposite signs: raw
    # coefficients +-1e-9 i whose class mean is 0 (residual 5e-10)
    (1e-9 * kron_all(np.outer(basis_ket("100"), basis_ket("000")),
                     np.array([[0.0, 0.5], [0.5, 0.0]]), np.eye(2) / 2.0, np.eye(2) / 2.0)
     - 1e-9 * kron_all(np.outer(basis_ket("010"), basis_ket("000")),
                       np.eye(2) / 2.0, np.array([[0.0, 0.5], [0.5, 0.0]]), np.eye(2) / 2.0),
     "not real"),
])
def test_extract_rejects_states_off_the_manifold(extra, message):
    with pytest.raises(ValueError, match=message):
        _coefficients(scenario_rho0("hamiltonian-3q") + extra)


# ---------------------------------------------------------------------------
# transition graph
# ---------------------------------------------------------------------------


def test_graph_correction_edge():
    edges = transition_graph(100.0)
    hit = [
        e
        for e in edges
        if e["from"] == "C100_100" and e["to"] == "C000_000" and e["source"] == "correction"
    ]
    assert len(hit) == 1
    assert hit[0]["rate_over_gamma"] == pytest.approx(3.0 * 100.0)


def test_graph_decoherence_edge():
    edges = transition_graph(100.0)
    hit = [
        e
        for e in edges
        if e["from"] == "C000_000" and e["to"] == "C100_000" and e["source"] == "decoherence"
    ]
    assert len(hit) == 1


def test_graph_without_correction():
    edges = transition_graph(0.0)
    assert all(e["source"] == "decoherence" for e in edges)


def test_graph_json_shape():
    payload = transition_graph(10.0)
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert all(
        set(item) == {"from", "to", "rate_over_gamma", "source"} for item in parsed
    )
    assert any(item["source"] == "correction" for item in parsed)
