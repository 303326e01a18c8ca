from fractions import Fraction

import numpy as np
import pytest

from kakeya.percolation import (
    lyons_bounds,
    resistance,
    shorted_resistance,
    survival_enumerate,
    survival_exact,
    survival_mc,
)
from kakeya.trees import FiniteTree
from random_trees import random_leaf_subtree

F = Fraction


def test_full_binary_height1_resistance():
    assert resistance(FiniteTree.full(2, 1)) == F(1, 2)


def test_full_binary_height2_resistance():
    # each branch is 1 + (2 parallel 2) = 2; two in parallel
    assert resistance(FiniteTree.full(2, 2)) == 1


def test_single_ray_resistance_series():
    # the edge into height h carries 2^(h-1): 1 + 2 + ... + 2^(k-1)
    for k in range(1, 9):
        assert resistance(FiniteTree.from_leaves([(0,) * k])) == 2**k - 1


def test_edge_resistance_fair_coins():
    # the ray to v is the ray to its parent plus the edge into v, in series
    tree = FiniteTree.full(2, 3)
    for v in tree.edges():
        ray = resistance(FiniteTree.from_leaves([v]))
        parent_ray = resistance(FiniteTree.from_leaves([v[:-1]])) if len(v) > 1 else 0
        assert ray - parent_ray == 2 ** (len(v) - 1)


def test_shorted_full_binary_closed_form():
    for n in (1, 2, 5, 8):
        assert shorted_resistance(FiniteTree.full(2, n)) == F(n, 2)


def test_shorted_equals_resistance_on_symmetric_tree():
    assert shorted_resistance(FiniteTree.full(2, 2)) == resistance(FiniteTree.full(2, 2))


def test_shorted_single_ray_vacuous():
    assert shorted_resistance(FiniteTree.from_leaves([(0,) * 3])) == 7


def test_survival_closed_forms():
    assert survival_exact(FiniteTree.full(2, 1)) == F(3, 4)
    assert survival_exact(FiniteTree.full(2, 2)) == F(39, 64)
    for k in (1, 2, 5):
        assert survival_exact(FiniteTree.from_leaves([(0,) * k])) == F(1, 2**k)


def test_survival_recursion_vs_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(30):
        tree = random_leaf_subtree(rng, 3, int(rng.integers(1, 4)))
        if len(tree.edges()) > 18:
            continue
        assert survival_enumerate(tree) == survival_exact(tree)
    # a 2^20-outcome instance, at the enumeration's edge cap
    big = FiniteTree.from_leaves(
        [(0, 0, 0, 0, 0), (0, 0, 1, 1, 0), (0, 1, 0, 1, 1), (1, 0, 0, 0, 1), (1, 0, 1, 0, 0)]
    )
    assert len(big.edges()) == 20
    assert survival_enumerate(big) == survival_exact(big)


def test_survival_mc_within_ci():
    tree = FiniteTree.full(2, 2)
    est, half = survival_mc(tree, seed=7, samples=1_000_000)
    assert half < 0.002
    assert abs(est - 39 / 64) <= half


def test_mc_within_ci_for_random_trees():
    rng = np.random.default_rng(3)
    misses = 0
    for i in range(50):
        tree = random_leaf_subtree(rng, 3, int(rng.integers(2, 5)))
        exact = float(survival_exact(tree))
        est, half = survival_mc(tree, seed=1000 + i, samples=40_000)
        if abs(est - exact) > half:
            misses += 1
    assert misses == 0  # fixed seeds; verified deterministic


def test_lyons_bounds_values():
    assert lyons_bounds(1) == (F(1, 2), F(1))
    assert lyons_bounds(0) == (F(1), F(2))
    with pytest.raises(ValueError):
        lyons_bounds(-1)


def test_survival_within_lyons_bounds_full_binary():
    s = survival_exact(FiniteTree.full(2, 2))
    lo, hi = lyons_bounds(resistance(FiniteTree.full(2, 2)))
    assert lo <= s <= hi


def test_random_subtrees_lyons_and_shorting():
    rng = np.random.default_rng(5)
    for _ in range(60):
        tree = random_leaf_subtree(rng, 3, int(rng.integers(2, 7)))
        r = resistance(tree)
        s = survival_exact(tree)
        lo, hi = lyons_bounds(r)
        assert lo <= s <= hi
        assert shorted_resistance(tree) <= r


def test_monotonicity_under_subtree_removal():
    full = FiniteTree.full(2, 3)
    pruned = FiniteTree.from_leaves([l for l in full.leaves() if l[:1] == (0,)])
    assert survival_exact(pruned) <= survival_exact(full)
    more = FiniteTree.from_leaves(full.leaves() + [(0, 0, 0)])
    assert survival_exact(more) == survival_exact(full)
