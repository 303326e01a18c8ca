"""Fair-coin bond percolation on finite trees and the associated resistor
networks.

Every edge is kept independently with probability 1/2, the paper's random
edge field.  The battery sits between the root and all maximal-ray
endpoints; the edge into a vertex at height h carries resistance
(1 - 1/2) / 2^(-h) = 2^(h-1): its chance of being cut over the chance that
the ray up to it survives (Lyons, Random walks and percolation on trees,
Ann. Probab. 1990).  Survival and resistance are exact: one stack walk
over the heights of the tree's sorted leaves and the LCPs of neighbours
(``FiniteTree.reduce``) reduces either in integers, and one ``Fraction``
is built at the root.  The Monte Carlo estimator is a cross-check, not
the source of truth.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .trees import FiniteTree, ray_positions

_MC_CELLS = 1 << 20  # random edge bits drawn per Monte Carlo batch, at most


def _parallel(c: int, branches) -> tuple[int, int]:
    """Resistance (p, q), meaning p/q in lowest terms, of a vertex at
    height c: its branches in parallel, each a chain from c to height h,
    2^c + ... + 2^(h-1) = 2^h - 2^c, in series with p/q below it.  Their
    conductances num/den add by cross-multiplication."""
    num, den, top = 0, 1, 1 << c
    for h, (p, q) in branches:
        p += ((1 << h) - top) * q
        num, den = num * p + q * den, den * p
    g = math.gcd(num, den)
    return den // g, num // g


def resistance(tree: FiniteTree) -> Fraction:
    """Total network resistance by bottom-up series/parallel reduction.

    The edge into a vertex at height h carries 2^(h-1); a subtree's
    resistance is the parallel combination over its branches of each
    branch's series chain plus the subtree below it.  Computed in one
    ``FiniteTree.reduce`` walk as integer pairs (p, q), a leaf (0, 1),
    with one ``Fraction`` built at the root.
    """
    if tree.depths[0] < 1:  # the root is a sorted leaf only as the tree's one leaf
        raise ValueError("tree must have height >= 1")
    h, (p, q) = tree.reduce((0, 1), _parallel)
    return Fraction(p + ((1 << h) - 1) * q, q)


def shorted_resistance(tree: FiniteTree) -> Fraction:
    """Lower bound from shorting every level into a single node: the level
    resistors 2^(k-1)/N_k then sit in series."""
    counts = tree.level_counts()
    return sum((Fraction(2 ** (k - 1), counts[k]) for k in range(1, tree.height + 1)), Fraction(0))


def _any_survives(c: int, branches) -> tuple[int, int]:
    """Survival (a, e), meaning a/2^e, of a vertex at height c: 1 less the
    chance that every branch dies, a branch surviving when its chain of
    h - c edges does, with 1/2^(h - c), and then the vertex below, a/2^f."""
    miss, e = 1, 0
    for h, (a, f) in branches:
        f += h - c
        miss, e = miss * ((1 << f) - a), e + f
    return (1 << e) - miss, e


def survival_exact(tree: FiniteTree) -> Fraction:
    """Probability that some maximal ray is fully retained: Pr(w) = 1 -
    prod over children c of (1 - Pr(c)/2), a childless vertex surviving
    with probability 1, taken as dyadic integers a/2^e, a leaf (1, 0), in
    the ``FiniteTree.reduce`` walk of ``resistance``."""
    h, (a, e) = tree.reduce((1, 0), _any_survives)
    return Fraction(a, 1 << (e + h))


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
