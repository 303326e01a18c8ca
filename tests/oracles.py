"""Oracles the package is held against, each the same result by an
independent, slower route: the leaf-grouping recursions that resistance
and survival used before the LCP walk, the vertex-set level counts, the
affine scan of Poss sets, the edge-at-a-time field bits, the 2^E edge
enumerations and the quadruple-loop slab expectation."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from kakeya.cantor import DirectionSet
from kakeya.configs import cond_prob_pair
from kakeya.harness import ExperimentConfig, _slab_range, build_dirset
from kakeya.kernels import _GOLDEN
from kakeya.sticky import MASK64, StickyField, mix64, node_id
from kakeya.trees import (
    FiniteTree,
    Vertex,
    address_bits,
    common_prefix,
    cube_from_axis_indices,
    leaf_from_index,
    ray_addresses,
)
from kakeya.tubes import PossSet, _pullbacks, cross_section_side, leaf_centers, pair_measure


def _sub_resistance(leaves: tuple[Vertex, ...], lo: int, hi: int, depth: int) -> tuple[int, int]:
    """Resistance (p, q), meaning p/q, from the vertex at ``depth`` that the
    sorted, prefix-free leaves[lo:hi] share down to those leaves.

    One leaf at height b is a chain whose edges into heights depth+1..b
    sum to 2^b - 2^depth.  Several leaves first share a chain down to
    their branching vertex, the longest common prefix c of the first and
    last leaf, and then split into one branch per digit at c, combined in
    parallel: the conductances q/p add by cross-multiplication and the
    gcd divides out, so the pair stays in lowest terms."""
    first = leaves[lo]
    if hi - lo == 1:
        return (1 << len(first)) - (1 << depth), 1
    last = leaves[hi - 1]
    c = depth
    while first[c] == last[c]:
        c += 1
    num, den = 0, 1  # conductance num/den of the branches so far
    start, digit = lo, first[c]
    for k in range(lo + 1, hi + 1):  # a branch ends where the digit at c changes
        if k == hi or leaves[k][c] != digit:
            p, q = _sub_resistance(leaves, start, k, c)
            num, den = num * p + q * den, den * p
            if k < hi:
                start, digit = k, leaves[k][c]
    g = math.gcd(num, den)
    p, q = den // g, num // g
    return p + q * ((1 << c) - (1 << depth)), q


def resistance_by_groups(tree: FiniteTree) -> Fraction:
    """Resistance by recursive grouping of the sorted leaf tuples, each
    group split where the digit after its first and last leaf's common
    prefix changes."""
    leaves = tree.sorted_leaves
    return Fraction(*_sub_resistance(leaves, 0, len(leaves), 0))


def _sub_survival(leaves: tuple[Vertex, ...], lo: int, hi: int, depth: int) -> tuple[int, int]:
    """Survival (a, e), meaning a/2^e, from the vertex at ``depth`` down to
    the sorted, prefix-free leaves[lo:hi], grouped as ``_sub_resistance``
    groups them.  A chain of b edges survives with 1/2^b; the branches at
    c all die with the product of their 1 - a/2^f."""
    first = leaves[lo]
    if hi - lo == 1:
        return 1, len(first) - depth
    last = leaves[hi - 1]
    c = depth
    while first[c] == last[c]:
        c += 1
    miss, e = 1, 0  # the branches so far all die with probability miss/2^e
    start, digit = lo, first[c]
    for k in range(lo + 1, hi + 1):
        if k == hi or leaves[k][c] != digit:
            a, f = _sub_survival(leaves, start, k, c)
            miss, e = miss * ((1 << f) - a), e + f
            if k < hi:
                start, digit = k, leaves[k][c]
    return (1 << e) - miss, e + c - depth


def survival_by_groups(tree: FiniteTree) -> Fraction:
    """Survival in dyadic integers by the same grouping of leaf tuples."""
    leaves = tree.sorted_leaves
    a, e = _sub_survival(leaves, 0, len(leaves), 0)
    return Fraction(a, 1 << e)


def level_counts_by_vertices(tree: FiniteTree) -> list[int]:
    """Vertices per height, counted over the vertex set."""
    counts = [0] * (tree.height + 1)
    for v in tree.vertices:
        counts[len(v)] += 1
    return counts


_AFFINE_CELLS = 1 << 16  # cube-direction pairs compared at once


def poss_set_affine(p: Sequence[float], dirset: DirectionSet) -> PossSet:
    """Same set as ``tubes.poss_set``, computed through the affine copy of
    the direction set: enumerate candidate cubes around the pulled-back
    copy, in lexicographic order of their axis indices, and keep those
    whose shrunk cube meets it.  Centres are those of ``poss_sets``; each
    chunk of cubes is compared with every direction at once.  The roots'
    tree comes from their tuples."""
    M, N, d = dirset.spec.M, dirset.spec.N, dirset.d
    half = cross_section_side(M, N, d) / 2.0
    copy_pts = _pullbacks([p], dirset)[0]  # the affine image of the directions
    witnesses: dict[Vertex, list[int]] = {}
    lo_idx = np.floor((copy_pts.min(axis=0) - half) * M**N).astype(int)
    hi_idx = np.floor((copy_pts.max(axis=0) + half) * M**N).astype(int)
    lo_idx = np.maximum(lo_idx, 0)
    hi_idx = np.minimum(hi_idx, M**N - 1)
    shape = tuple(np.maximum(hi_idx - lo_idx + 1, 0).tolist())
    total = math.prod(shape)
    step = max(1, _AFFINE_CELLS // copy_pts.shape[0])
    for s in range(0, total, step):
        flat = np.arange(s, min(s + step, total))
        cubes = np.stack(np.unravel_index(flat, shape), axis=1) + lo_idx
        center = (cubes + 0.5) / M**N
        inside = np.all(np.abs(copy_pts[None, :, :] - center[:, None, :]) <= half, axis=2)
        for row in np.flatnonzero(inside.any(axis=1)).tolist():
            t = cube_from_axis_indices(cubes[row].tolist(), N, M)
            witnesses[t] = np.flatnonzero(inside[row]).tolist()
    roots = sorted(witnesses)
    lcps = [common_prefix(u, v) for u, v in zip(roots, roots[1:])]
    tree = FiniteTree([N] * len(roots), lcps, np.array(roots, dtype=np.int64).reshape(-1, N))
    starts = [0, *itertools.accumulate(len(witnesses[t]) for t in roots)]
    dirs = np.array([k for t in roots for k in witnesses[t]], dtype=np.int64)
    return PossSet(tuple(float(x) for x in p), tree, starts, dirs)


def field_bit(field: StickyField, digits: Vertex) -> int:
    """The field's bit on the edge terminating at ``digits`` (height >= 1),
    by the scalar splitmix arithmetic on python ints."""
    if not digits:
        raise ValueError("the root has no incoming edge")
    return mix64((field.key + node_id(digits, field.base) * _GOLDEN) & MASK64) & 1


def ray_bits(field: StickyField, leaf: Vertex) -> Vertex:
    """The bits along the leaf's ray, one edge at a time: the oracle of
    ``kernels.node_bits`` and ``kernels.leaf_slope_indices``."""
    return tuple(field_bit(field, leaf[: k + 1]) for k in range(len(leaf)))


def survival_enumerate(tree: FiniteTree) -> Fraction:
    """Brute-force survival: the share of all 2^E edge labellings in which
    some leaf's ray is all ones; edge count is capped at 20."""
    leaves = tree.sorted_leaves
    all_ones = np.array([(1 << len(t)) - 1 for t in leaves], dtype=np.uint64)
    hits = total = 0
    for rows in ray_addresses(leaves, budget=20):
        hits += int((rows == all_ones).any(axis=1).sum())
        total += rows.shape[0]
    return Fraction(hits, total)


def enumerate_joint_addresses(leaves: Sequence[Vertex]) -> dict[tuple[int, ...], int]:
    """Counts, over all edge-bit assignments on the union of rays, of every
    combination of binary addresses the given leaves can receive.

    Keys are tuples of address integers (first bit most significant),
    aligned with ``leaves``.  Together the counts describe the exact joint
    distribution, from which any conditional probability is a ratio.
    """
    counts: dict[tuple[int, ...], int] = {}
    for rows in ray_addresses(leaves):
        keys, kcounts = np.unique(rows, axis=0, return_counts=True)
        for row, c in zip(keys, kcounts):
            key = tuple(int(x) for x in row)
            counts[key] = counts.get(key, 0) + int(c)
    return counts


def slab_sum_expectation_exact(cfg: ExperimentConfig, N: int, R: int) -> float:
    """Exact expectation of the pairwise slab intersection sum, from the
    closed-form pair probabilities (independent of any sampling): a loop
    over ordered root pairs and slope pairs."""
    dirset = build_dirset(cfg, N)
    n_slopes = dirset.n
    side = cross_section_side(cfg.M, N, cfg.d)
    lo, hi = _slab_range(cfg.M, N, R)
    B = cfg.M**cfg.d
    leaves = [leaf_from_index(i, B, N) for i in range(B**N)]
    centers = leaf_centers(cfg.M, N, cfg.d)
    slope_table = dirset.slope_floats()
    addr = [address_bits(k, N) for k in range(n_slopes)]
    total = 0.0
    for i1, t1 in enumerate(leaves):
        for i2, t2 in enumerate(leaves):
            if i1 == i2:
                continue
            for k1 in range(n_slopes):
                p_first = Fraction(1, 2**N)
                for k2 in range(n_slopes):
                    p_cond = cond_prob_pair(t1, t2, addr[k1], addr[k2])
                    if p_cond == 0:
                        continue
                    m = pair_measure(
                        centers[i1],
                        slope_table[k1],
                        centers[i2],
                        slope_table[k2],
                        lo,
                        hi,
                        side,
                    )
                    if m:
                        total += float(p_first * p_cond) * m
    return total
