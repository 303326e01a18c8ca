"""Far points aimed through a chosen tube, for the Poss-set tests."""

from __future__ import annotations

import numpy as np

from kakeya.cantor import DirectionSet
from kakeya.tubes import cross_section_side


def aimed_point(rng: np.random.Generator, dirset: DirectionSet) -> tuple[float, ...]:
    """A point of the far window on a chosen tube: x1 uniform on
    [C0, C0+1], a random root cube, an offset uniform in its shrunk
    cross-section and a random direction, so the point's Poss set holds
    that cube."""
    M, N, d = dirset.spec.M, dirset.spec.N, dirset.d
    half = cross_section_side(M, N, d) / 2.0
    x1 = rng.uniform(dirset.c0, dirset.c0 + 1.0)
    root = (rng.integers(0, M**N, size=d) + 0.5) / M**N + rng.uniform(-half, half, size=d)
    slope = dirset.slope_floats()[rng.integers(dirset.n)]
    return (x1, *(root + x1 * slope))
