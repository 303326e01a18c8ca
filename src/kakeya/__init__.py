"""Randomized tube families over Cantor sets of directions.

Construction of generalized Cantor direction sets, sticky random slope
assignments on M-adic trees, tube geometry and union measures, Bernoulli
percolation with resistance bounds, closed-form slope probabilities with
exhaustive-enumeration oracles, and a seeded experiment harness that
checks the measure estimates at desk scale.
"""

__version__ = "0.1.0"

from .cantor import (
    CantorSpec,
    DirectionCurve,
    DirectionSet,
    affine_curve,
    binary_address,
    build_level,
    direction_set,
    interval_digits,
    middle_spec,
    moment_curve,
    phi_map,
)
from .configs import ConfigClass, classify3, classify4, cond_prob_general, cond_prob_pair
from .percolation import lyons_bounds, resistance, shorted_resistance, survival_exact
from .sticky import SlopeAssignment, StickyField, make_assignment, sticky_admissible
from .trees import FiniteTree, Vertex, encode_cube, yca
from .tubes import kakeya_measures, kappa, pair_measure, poss_set, union_volume

__all__ = [
    "CantorSpec",
    "ConfigClass",
    "DirectionCurve",
    "DirectionSet",
    "FiniteTree",
    "SlopeAssignment",
    "StickyField",
    "Vertex",
    "affine_curve",
    "binary_address",
    "build_level",
    "classify3",
    "classify4",
    "cond_prob_general",
    "cond_prob_pair",
    "direction_set",
    "encode_cube",
    "interval_digits",
    "kakeya_measures",
    "kappa",
    "lyons_bounds",
    "make_assignment",
    "middle_spec",
    "moment_curve",
    "pair_measure",
    "phi_map",
    "poss_set",
    "resistance",
    "shorted_resistance",
    "sticky_admissible",
    "survival_exact",
    "union_volume",
    "yca",
]
