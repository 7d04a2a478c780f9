import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqec.tensor_core import basis_ket, projector, kron_all, partial_trace_bath
from cqec.codes_and_maps import ModelParams, scenario_rho0, total_generator
from cqec.dynamics import integrate, propagate_linear
from cqec.reduced_model import (
    LABELS,
    ORDER,
    build_reduced_matrix,
    class_spread,
    coeff_class,
    expand_reduced,
    extract_reduced,
    graph_as_json,
    initial_reduced_state,
    transition_graph,
)


# ---------------------------------------------------------------------------
# class bookkeeping
# ---------------------------------------------------------------------------


def test_coeff_class_examples():
    c = coeff_class("110", "011")
    assert c.signature == (2, 2, 1)
    assert c.multiplicity == 6
    assert coeff_class("000", "000").multiplicity == 1
    # same unordered signature -> same class
    assert coeff_class("101", "110") == coeff_class("110", "011")


def test_classes_partition_all_64_pairs():
    seen = {}
    for l in range(8):
        for r in range(8):
            c = coeff_class(l, r)
            seen[c.index] = seen.get(c.index, 0) + 1
    assert len(seen) == 13
    assert sum(seen.values()) == 64
    for idx, count in seen.items():
        rep = ORDER[idx]
        assert coeff_class(*rep).multiplicity == count


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


def test_initial_state_is_unit_first_coefficient():
    s = initial_reduced_state()
    assert s.coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(s.coeffs[1:])) == 0.0
    assert s.fidelity == pytest.approx(1.0)


def test_extract_from_initial_product_state():
    s = extract_reduced(scenario_rho0("hamiltonian-3q"))
    assert np.allclose(s.coeffs, initial_reduced_state().coeffs)


def test_expand_initial_state():
    dm = expand_reduced(initial_reduced_state())
    expected = kron_all(projector(basis_ket("000")), np.eye(8) / 8.0)
    assert np.allclose(dm.entries, expected)
    assert partial_trace_bath(dm.entries, 3, 3)[0, 0] == pytest.approx(1.0)


def test_extract_expand_round_trip_after_evolution():
    """Evolve the full 64-dim model a short while, extract, expand, and
    extract again: the coefficients must survive the round trip."""
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=3.0))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), 0.3, n_samples=4)
    s1 = extract_reduced(traj.states[-1])
    dm = expand_reduced(s1)
    s2 = extract_reduced(dm.entries)
    assert np.max(np.abs(s1.coeffs - s2.coeffs)) < 1e-12


def test_reduced_propagation_matches_full_dynamics():
    """The 13-dim linear model reproduces the 64-dim integration."""
    big_r = 4.0
    gen = total_generator("hamiltonian-3q", ModelParams(gamma=1.0, kappa=big_r))
    traj = integrate(gen, scenario_rho0("hamiltonian-3q"), 0.5, n_samples=6)
    m = build_reduced_matrix(big_r)
    xs = propagate_linear(m, initial_reduced_state().coeffs, traj.times)
    for rho, x in zip(traj.states, xs):
        s = extract_reduced(rho)
        assert np.max(np.abs(s.coeffs - x)) < 1e-8


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
])
def test_extract_rejects_states_off_the_manifold(extra, message):
    with pytest.raises(ValueError, match=message):
        extract_reduced(scenario_rho0("hamiltonian-3q") + extra)


# ---------------------------------------------------------------------------
# transition graph
# ---------------------------------------------------------------------------


def test_graph_correction_edge():
    edges = transition_graph(100.0)
    hit = [
        e
        for e in edges
        if e.src == "C100_100" and e.dst == "C000_000" and e.source == "correction"
    ]
    assert len(hit) == 1
    assert hit[0].rate_over_gamma == pytest.approx(3.0 * 100.0)


def test_graph_decoherence_edge():
    edges = transition_graph(100.0)
    hit = [
        e
        for e in edges
        if e.src == "C000_000" and e.dst == "C100_000" and e.source == "decoherence"
    ]
    assert len(hit) == 1


def test_graph_without_correction():
    edges = transition_graph(0.0)
    assert all(e.source == "decoherence" for e in edges)


def test_graph_json_shape():
    payload = graph_as_json(transition_graph(10.0))
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert all(
        set(item) == {"from", "to", "rate_over_gamma", "source"} for item in parsed
    )
    assert any(item["source"] == "correction" for item in parsed)
