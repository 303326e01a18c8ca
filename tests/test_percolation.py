import itertools
from fractions import Fraction

import numpy as np
import pytest

from kakeya import percolation
from kakeya.cantor import CantorSpec, affine_curve, direction_set, moment_curve
from kakeya.harness import ExperimentConfig, _strip_draws
from kakeya.percolation import (
    lyons_bounds,
    resistance,
    shorted_resistance,
    survival_exact,
    survival_mc,
)
from kakeya.trees import FiniteTree
from kakeya.tubes import poss_set
from far_points import aimed_point
from oracles import (
    level_counts_by_vertices,
    resistance_by_groups,
    survival_by_groups,
    survival_enumerate,
)
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
    for v in tree.vertices - {()}:
        ray = resistance(FiniteTree.from_leaves([v]))
        parent_ray = resistance(FiniteTree.from_leaves([v[:-1]])) if len(v) > 1 else 0
        assert ray - parent_ray == 2 ** (len(v) - 1)


def _children(tree: FiniteTree) -> dict:
    """Each vertex's children, in sorted order, built from the vertex set."""
    children = {v: [] for v in tree.vertices}
    for v in sorted(tree.vertices - {()}):
        children[v[:-1]].append(v)
    return children


def _survival_by_children(tree: FiniteTree) -> Fraction:
    """Survival by the vertex recursion Pr(w) = 1 - prod over children c of
    (1 - Pr(c)/2), childless vertices surviving with probability 1, in
    Fractions over a child map: an oracle independent of the leaf walk."""
    children = _children(tree)

    def sub(v):
        miss = F(1)
        for c in children[v]:
            miss *= 1 - sub(c) / 2
        return 1 - miss if children[v] else F(1)

    return sub(())


def _kirchhoff_resistance(tree: FiniteTree) -> Fraction:
    """Resistance by nodal analysis, independent of the series/parallel
    reduction: the root held at potential 1 and every childless vertex at
    0, the edge into a vertex at height h a conductance 2^-(h-1).  The
    interior potentials solve the grounded tree Laplacian by Gaussian
    elimination in Fractions (deepest vertices first, which only keeps the
    rows sparse), and the resistance is 1 over the current out of the root."""
    children = _children(tree)
    cond = {v: F(1, 2 ** (len(v) - 1)) for v in tree.vertices if v}
    inner = sorted((v for v in tree.vertices if v and children[v]), key=len, reverse=True)
    pos = {v: i for i, v in enumerate(inner)}
    rows = []  # Kirchhoff's current law at each interior vertex: {column: coefficient}, rhs
    for v in inner:
        row, rhs = {}, F(0)
        for u, g in [(v[:-1], cond[v])] + [(c, cond[c]) for c in children[v]]:
            row[pos[v]] = row.get(pos[v], 0) + g
            if u in pos:
                row[pos[u]] = row.get(pos[u], 0) - g
            elif u == ():
                rhs += g  # the root's potential 1; childless vertices add 0
        rows.append((row, rhs))
    for i, (pivot, pivot_rhs) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            row, rhs = rows[j]
            if row.get(i):
                m = row[i] / pivot[i]
                for col, val in pivot.items():
                    row[col] = row.get(col, 0) - m * val
                rows[j] = (row, rhs - m * pivot_rhs)
    potential = [F(0)] * len(rows)
    for i in reversed(range(len(rows))):
        row, rhs = rows[i]
        rest = sum((val * potential[col] for col, val in row.items() if col > i), F(0))
        potential[i] = (rhs - rest) / row[i]
    current = sum(
        (cond[c] * (1 - (potential[pos[c]] if c in pos else 0)) for c in children[()]), F(0)
    )
    return 1 / current


def test_resistance_equals_kirchhoff_solve():
    """The exact series/parallel reduction equals the nodal solve on random
    subtrees of full trees, leaf sets of mixed depth and Poss trees of far
    points at d=1, N=9, both aimed and drawn from the reachable strip as
    the experiments draw them."""
    trees = [FiniteTree.full(2, 5), FiniteTree.full(3, 3)]
    rng = np.random.default_rng(17)
    for base, keep in ((2, 0.5), (3, 0.5), (9, 0.2)):
        for depth in range(1, 7):
            trees += [random_leaf_subtree(rng, base, depth, keep) for _ in range(3)]
    for _ in range(20):
        leaves = [
            tuple(rng.integers(0, 3, size=rng.integers(1, 7)).tolist())
            for _ in range(rng.integers(1, 9))
        ]
        trees.append(FiniteTree.from_leaves(leaves))
    ds = direction_set(CantorSpec(3, 9), affine_curve(1))
    sizes = []
    for _ in range(40):
        poss = poss_set(aimed_point(rng, ds), ds)
        sizes.append(len(poss))
        trees.append(poss.tree)
    assert min(sizes) >= 1 and sum(s >= 10 for s in sizes) >= 10
    cfg = ExperimentConfig(M=3, N=9, d=1, seed=3)
    drawn = [p.tree for _, p in itertools.islice(_strip_draws(cfg, 9, 1), 200) if len(p)]
    assert len(drawn) >= 40
    trees += drawn
    for tree in trees:
        r = resistance(tree)
        assert type(r) is Fraction and r == _kirchhoff_resistance(tree)


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


def test_survival_equals_child_map_recursion():
    """The leaf walk equals the vertex recursion over a child map on Poss
    trees of aimed far points (d=1 N=4..12, d=2 moment N=3..8), on random
    subtrees of full trees, on leaf sets of mixed depth and on the root
    alone."""
    rng = np.random.default_rng(23)
    trees = [FiniteTree.from_leaves([]), FiniteTree.full(2, 6), FiniteTree.full(3, 4)]
    sets = [(1, affine_curve(1), N, 20) for N in range(4, 13)]
    sets += [(2, moment_curve(2), N, 40) for N in range(3, 9)]
    big = 0
    for d, curve, N, points in sets:
        ds = direction_set(CantorSpec(3, N), curve)
        for _ in range(points):
            poss = poss_set(aimed_point(rng, ds), ds)
            big += len(poss) >= 100
            trees.append(poss.tree)
    assert big >= 10
    for base, keep in ((2, 0.5), (3, 0.5), (9, 0.2)):
        for depth in range(1, 7):
            trees += [random_leaf_subtree(rng, base, depth, keep) for _ in range(3)]
    for _ in range(40):
        leaves = [
            tuple(rng.integers(0, 3, size=rng.integers(0, 8)).tolist())
            for _ in range(rng.integers(1, 12))
        ]
        trees.append(FiniteTree.from_leaves(leaves))
    for tree in trees:
        s = survival_exact(tree)
        assert type(s) is Fraction and s == _survival_by_children(tree)


def _walk_cases():
    """Trees of every shape the walk meets: the root alone, single rays,
    full trees, random subtrees and mixed-depth leaf sets, and Poss trees
    at d=1 N=2..9 and d=2 moment N=2..4, strip-drawn as the experiments
    draw them and aimed, each built both from its int leaves and from its
    leaf tuples."""
    rng = np.random.default_rng(31)
    trees = [FiniteTree.from_leaves([]), FiniteTree.from_leaves([(1, 2, 0)])]
    trees += [FiniteTree.from_leaves([(0,) * k]) for k in range(1, 7)]
    trees += [FiniteTree.full(b, h) for b, h in ((2, 1), (2, 5), (3, 3), (9, 2))]
    for base, keep in ((2, 0.5), (3, 0.5), (9, 0.2)):
        trees += [random_leaf_subtree(rng, base, depth, keep) for depth in range(1, 6)]
    for _ in range(30):
        sizes = rng.integers(0, 7, size=rng.integers(1, 10))
        trees.append(FiniteTree.from_leaves([tuple(rng.integers(0, 3, size=s).tolist()) for s in sizes]))
    poss = []
    for d, curve, ns in ((1, "affine", range(2, 10)), (2, "moment", range(2, 5))):
        for N in ns:
            cfg = ExperimentConfig(M=3, N=N, d=d, curve=curve, seed=5)
            ds = direction_set(CantorSpec(3, N), affine_curve(1) if d == 1 else moment_curve(2))
            drawn = [p for _, p in itertools.islice(_strip_draws(cfg, N, 2), 300) if len(p)][:15]
            poss += drawn + [poss_set(aimed_point(rng, ds), ds) for _ in range(15)]
    for p in poss:
        tuples = FiniteTree.from_leaves(p.tree.sorted_leaves)
        assert (p.tree.depths, p.tree.lcps) == (tuples.depths, tuples.lcps)
        trees += [p.tree, tuples]
    assert sum(len(p) >= 20 for p in poss) >= 20
    return trees


def test_walk_equals_leaf_grouping_recursions():
    """Resistance, survival, level counts and the shorted resistance read
    from (depths, LCPs) equal the recursions over the sorted leaf tuples
    that they replace and the vertex-set level counts, on every tree of
    ``_walk_cases``."""
    for tree in _walk_cases():
        if tree.height:
            assert resistance(tree) == resistance_by_groups(tree)
        else:
            with pytest.raises(ValueError, match="height >= 1"):
                resistance(tree)
        assert survival_exact(tree) == survival_by_groups(tree)
        counts = level_counts_by_vertices(tree)
        assert tree.level_counts() == counts
        assert shorted_resistance(tree) == sum((F(2 ** (k - 1), counts[k]) for k in range(1, len(counts))), F(0))


def test_survival_mc_on_root_only_tree():
    """The root alone has no edge to cut, so every sample survives, as in
    the exact and enumerated survival."""
    tree = FiniteTree.from_leaves([])
    assert survival_exact(tree) == survival_enumerate(tree) == 1
    est, half = survival_mc(tree, 0, 10)
    assert est == 1.0 and half < 1e-6


def test_survival_recursion_vs_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(30):
        tree = random_leaf_subtree(rng, 3, int(rng.integers(1, 4)))
        if len(tree.vertices) - 1 > 18:
            continue
        assert survival_enumerate(tree) == survival_exact(tree)
    # a 2^20-outcome instance, at the enumeration's edge cap
    big = FiniteTree.from_leaves(
        [(0, 0, 0, 0, 0), (0, 0, 1, 1, 0), (0, 1, 0, 1, 1), (1, 0, 0, 0, 1), (1, 0, 1, 0, 0)]
    )
    assert len(big.vertices) - 1 == 20
    assert survival_enumerate(big) == survival_exact(big)


def test_survival_mc_within_ci():
    tree = FiniteTree.full(2, 2)
    est, half = survival_mc(tree, seed=7, samples=1_000_000)
    assert half < 0.002
    assert abs(est - 39 / 64) <= half


def test_survival_mc_memory_is_bounded_and_draws_unchanged(monkeypatch):
    """Each batch draws at most _MC_CELLS edge bits, however large the tree,
    and the estimate equals the one drawn in a single batch."""
    tree = FiniteTree.full(2, 8)  # 510 edges
    shapes = []

    class Recording:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def random(self, shape):
            shapes.append(shape)
            return self.rng.random(shape)

    monkeypatch.setattr(percolation.np.random, "default_rng", Recording)
    capped = survival_mc(tree, seed=5, samples=20_000)
    assert len(shapes) > 1 and all(b * e <= 1 << 20 for b, e in shapes)
    monkeypatch.setattr(percolation, "_MC_CELLS", 1 << 40)
    shapes.clear()
    assert survival_mc(tree, seed=5, samples=20_000) == capped
    assert shapes == [(20_000, 510)]


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
    pruned = FiniteTree.from_leaves([l for l in full.sorted_leaves if l[:1] == (0,)])
    assert survival_exact(pruned) <= survival_exact(full)
    more = FiniteTree.from_leaves([*full.sorted_leaves, (0, 0, 0)])
    assert survival_exact(more) == survival_exact(full)
