"""Fair-coin bond percolation on finite trees and the associated resistor
networks.

Every edge is kept independently with probability 1/2, the paper's random
edge field.  The battery sits between the root and all maximal-ray
endpoints; the edge into a vertex at height h carries resistance
(1 - 1/2) / 2^(-h) = 2^(h-1): its chance of being cut over the chance that
the ray up to it survives (Lyons, Random walks and percolation on trees,
Ann. Probab. 1990).  Survival and resistance are evaluated with exact
rational arithmetic; resistance is reduced in integers, each subtree a
numerator and denominator normalised at branching vertices and turned
into one ``Fraction`` at the root.  The Monte Carlo estimator is a
cross-check, not the source of truth.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .trees import FiniteTree, Vertex, ray_addresses

_MC_CELLS = 1 << 20  # random edge bits drawn per Monte Carlo batch, at most


def resistance(tree: FiniteTree) -> Fraction:
    """Total network resistance by bottom-up series/parallel reduction.

    Subtree resistance at w is the parallel combination over children c of
    2^(h(c)-1) + (subtree resistance at c); childless vertices contribute
    zero.  Each subtree's resistance is a pair of ints (p, q) meaning p/q:
    the series step keeps q, and the parallel sum adds the conductances
    q/p by cross-multiplication and divides by their gcd at every vertex
    with two or more children, so the pair stays in lowest terms, as
    ``Fraction`` would keep it; one ``Fraction`` is built at the root.
    """
    if tree.height < 1:
        raise ValueError("tree must have height >= 1")
    children = tree.children

    def sub(v: Vertex) -> tuple[int, int]:
        kids = children[v]
        if not kids:
            return 0, 1
        edge = 1 << len(v)  # 2^(h-1) into a child at height h = len(v) + 1
        if len(kids) == 1:
            p, q = sub(kids[0])
            return p + q * edge, q
        num, den = 0, 1  # conductance num/den of the branches so far
        for c in kids:
            p, q = sub(c)
            p += q * edge
            num, den = num * p + q * den, den * p
        g = math.gcd(num, den)
        return den // g, num // g

    return Fraction(*sub(()))


def shorted_resistance(tree: FiniteTree) -> Fraction:
    """Lower bound from shorting every level into a single node: the level
    resistors 2^(k-1)/N_k then sit in series."""
    counts = tree.level_counts()
    total = Fraction(0)
    for k in range(1, tree.height + 1):
        n_k = counts[k] if k < len(counts) else 0
        if n_k == 0:
            continue
        total += Fraction(2 ** (k - 1), n_k)
    return total


def survival_exact(tree: FiniteTree) -> Fraction:
    """Probability that some maximal ray is fully retained.

    Recursion: Pr(w) = 1 - prod over children c of (1 - Pr(c)/2),
    childless vertices surviving with probability 1.
    """

    def sub(v: Vertex) -> Fraction:
        kids = tree.children[v]
        if not kids:
            return Fraction(1)
        miss = Fraction(1)
        for c in kids:
            miss *= 1 - sub(c) / 2
        return 1 - miss

    return sub(())


def survival_enumerate(tree: FiniteTree) -> Fraction:
    """Brute-force survival: the share of all 2^E edge labellings in which
    some leaf's ray is all ones.

    Independent oracle for the recursion; edge count is capped at 20.
    """
    leaves = tree.leaves()
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
    edges = tree.edges()
    pos = {e: i for i, e in enumerate(edges)}
    leaves = tree.leaves()
    leaf_edges = [
        np.array([pos[leaf[: k + 1]] for k in range(len(leaf))]) for leaf in leaves
    ]
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    # Generator.random fills rows from one stream: the batch size never changes the draws
    batch = max(1, min(samples, _MC_CELLS // (len(edges) or 1)))
    while done < samples:
        b = min(batch, samples - done)
        bits = rng.random((b, len(edges))) < 0.5
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
