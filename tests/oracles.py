"""The leaf-grouping recursions that resistance and survival used before
the LCP walk, and the vertex-set level counts: oracles the walk is held
against, each the same result by an independent, slower route."""

from __future__ import annotations

import math
from fractions import Fraction

from kakeya.trees import FiniteTree, Vertex


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
