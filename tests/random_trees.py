"""Random trees for the percolation tests."""

from __future__ import annotations

import numpy as np

from kakeya.trees import FiniteTree, Vertex


def random_leaf_subtree(
    rng: np.random.Generator, base: int, depth: int, keep: float = 0.5
) -> FiniteTree:
    """Random subtree of the full base-adic tree with all leaves at full
    depth: at every vertex each child survives independently, forcing at
    least one survivor so rays never die early."""
    leaves: list[Vertex] = []

    def grow(v: Vertex):
        if len(v) == depth:
            leaves.append(v)
            return
        kept = [j for j in range(base) if rng.random() < keep]
        if not kept:
            kept = [int(rng.integers(base))]
        for j in kept:
            grow(v + (j,))

    grow(())
    return FiniteTree.from_leaves(leaves)
