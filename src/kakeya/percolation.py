"""Fair-coin bond percolation on finite trees and the associated resistor
networks.

Every edge is kept independently with probability 1/2, the paper's random
edge field.  The battery sits between the root and all maximal-ray
endpoints; the edge into a vertex at height h carries resistance
(1 - 1/2) / 2^(-h) = 2^(h-1): its chance of being cut over the chance that
the ray up to it survives (Lyons, Random walks and percolation on trees,
Ann. Probab. 1990).  Survival and resistance are exact: both walk the
sorted leaves in integers, branching where a group's first and last leaf
part, and turn into one ``Fraction`` at the root.  The Monte Carlo
estimator is a cross-check, not the source of truth.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .trees import FiniteTree, Vertex, ray_addresses, ray_positions

_MC_CELLS = 1 << 20  # random edge bits drawn per Monte Carlo batch, at most


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


def resistance(tree: FiniteTree) -> Fraction:
    """Total network resistance by bottom-up series/parallel reduction.

    The edge into a vertex at height h carries 2^(h-1); a subtree's
    resistance is the parallel combination over its branches of each
    branch's series chain plus the subtree below it.  Computed from the
    sorted leaves in integers (``_sub_resistance``), with one ``Fraction``
    built at the root.
    """
    if tree.height < 1:
        raise ValueError("tree must have height >= 1")
    leaves = tree.sorted_leaves
    return Fraction(*_sub_resistance(leaves, 0, len(leaves), 0))


def shorted_resistance(tree: FiniteTree) -> Fraction:
    """Lower bound from shorting every level into a single node: the level
    resistors 2^(k-1)/N_k then sit in series."""
    counts = tree.level_counts()
    return sum((Fraction(2 ** (k - 1), counts[k]) for k in range(1, tree.height + 1)), Fraction(0))


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


def survival_exact(tree: FiniteTree) -> Fraction:
    """Probability that some maximal ray is fully retained: Pr(w) = 1 -
    prod over children c of (1 - Pr(c)/2), a childless vertex surviving
    with probability 1, taken in dyadic integers from the sorted leaves."""
    leaves = tree.sorted_leaves
    a, e = _sub_survival(leaves, 0, len(leaves), 0)
    return Fraction(a, 1 << e)


def survival_enumerate(tree: FiniteTree) -> Fraction:
    """Brute-force survival: the share of all 2^E edge labellings in which
    some leaf's ray is all ones.

    Independent oracle for the recursion; edge count is capped at 20.
    """
    leaves = tree.sorted_leaves
    all_ones = np.array([(1 << len(t)) - 1 for t in leaves], dtype=np.uint64)
    hits = total = 0
    for rows in ray_addresses(leaves, budget=20):
        hits += int((rows == all_ones).any(axis=1).sum())
        total += rows.shape[0]
    return Fraction(hits, total)


def survival_mc(tree: FiniteTree, seed: int, samples: int) -> tuple[float, float]:
    """Monte Carlo survival estimate with a 99% normal-approximation
    confidence half-width."""
    if samples < 1:
        raise ValueError("need at least one sample")
    n_edges, rays = ray_positions(tree.sorted_leaves)
    leaf_edges = [np.array(ray, dtype=np.intp) for ray in rays]
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    # Generator.random fills rows from one stream: the batch size never changes the draws
    batch = max(1, min(samples, _MC_CELLS // (n_edges or 1)))
    while done < samples:
        b = min(batch, samples - done)
        bits = rng.random((b, n_edges)) < 0.5
        alive = np.zeros(b, dtype=bool)
        for le in leaf_edges:
            alive |= bits[:, le].all(axis=1)
        hits += int(alive.sum())
        done += b
    est = hits / samples
    half = 2.5758293035489004 * math.sqrt(max(est * (1 - est), 1e-12) / samples)
    return est, half


def lyons_bounds(r) -> tuple[Fraction, Fraction]:
    """Survival bounds (1/(1+R), 2/(1+R)) in terms of total resistance."""
    rq = Fraction(r)
    if rq < 0:
        raise ValueError("resistance must be nonnegative")
    return Fraction(1, 1) / (1 + rq), Fraction(2, 1) / (1 + rq)
