"""Randomized tube families over Cantor sets of directions.

Construction of generalized Cantor direction sets, sticky random slope
assignments on M-adic trees, tube geometry and union measures, Bernoulli
percolation with resistance bounds, closed-form slope probabilities with
exhaustive-enumeration oracles, and a seeded experiment harness that
checks the measure estimates at desk scale.
"""

__version__ = "0.1.0"
