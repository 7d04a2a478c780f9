"""Continuous quantum error correction simulator.

Jump-type correction (strong, weak, and continuous limits) applied to a
single qubit or the three-qubit bit-flip code, under Markovian bit-flip
noise or a non-Markovian system-bath pair coupling.
"""

__version__ = "0.1.0"

from .codes_and_maps import (
    SCENARIOS,
    ModelParams,
    bitflip3_code,
    total_generator,
    trivial_code,
    scenario_rho0,
)
from .dynamics import integrate, jump_monte_carlo, step_weak_map
from .closed_forms import (
    alpha_markov_1q,
    alpha_nonmarkov_1q,
    alpha_star_markov,
    alpha_star_nonmarkov,
    predicted_spectrum,
)
from .reduced_model import build_reduced_matrix, extract_reduced, initial_reduced_state

__all__ = [
    "SCENARIOS",
    "ModelParams",
    "alpha_markov_1q",
    "alpha_nonmarkov_1q",
    "alpha_star_markov",
    "alpha_star_nonmarkov",
    "bitflip3_code",
    "build_reduced_matrix",
    "extract_reduced",
    "initial_reduced_state",
    "integrate",
    "jump_monte_carlo",
    "predicted_spectrum",
    "scenario_rho0",
    "step_weak_map",
    "total_generator",
    "trivial_code",
]
