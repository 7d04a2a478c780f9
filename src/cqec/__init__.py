"""Continuous quantum error correction simulator.

Jump-type correction (strong, weak, and continuous limits) applied to a
single qubit or the three-qubit bit-flip code, under Markovian bit-flip
noise or a non-Markovian system-bath pair coupling.
"""

__version__ = "0.1.0"

import gc

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
from .reduced_model import build_reduced_matrix

__all__ = [
    "SCENARIOS",
    "ModelParams",
    "alpha_markov_1q",
    "alpha_nonmarkov_1q",
    "alpha_star_markov",
    "alpha_star_nonmarkov",
    "bitflip3_code",
    "build_reduced_matrix",
    "integrate",
    "jump_monte_carlo",
    "predicted_spectrum",
    "scenario_rho0",
    "step_weak_map",
    "total_generator",
    "trivial_code",
]

# The import leaves thousands of objects (numpy's and cqec's) in the young
# garbage-collector generations; the generation-1 collection that moves them
# to the old one takes 1-2 ms.  Take it here, so that it does not fall inside
# a caller's first call.
gc.collect(1)
