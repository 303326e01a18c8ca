"""Bernoulli bond percolation on finite trees and the associated
resistor networks.

The battery sits between the root and all maximal-ray endpoints.  An edge
terminating at height h carries resistance 2^(h-1) under fair coins; the
general per-edge formula divides out the path survival probability.
Survival and resistance are evaluated with exact rational arithmetic; the
Monte Carlo estimator is a cross-check, not the source of truth.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .trees import FiniteTree, Vertex

EdgeProb = Callable[[Vertex], Fraction]

_HALF = Fraction(1, 2)


def _prob_fn(p) -> EdgeProb:
    if callable(p):
        return p
    q = Fraction(p)
    if not 0 <= q < 1:
        raise ValueError(f"edge survival probability {q} outside [0, 1)")
    return lambda v: q


def edge_resistance(tree: FiniteTree, v: Vertex, p=_HALF) -> Fraction:
    """Resistance of the edge terminating at v:
    1/R = (path survival up to v) / (1 - p_v)."""
    if not v:
        raise ValueError("the root has no incoming edge")
    pf = _prob_fn(p)
    path = Fraction(1)
    for k in range(1, len(v) + 1):
        path *= pf(v[:k])
    return (Fraction(1) - pf(v)) / path


def resistance(tree: FiniteTree, p=_HALF) -> Fraction:
    """Total network resistance by bottom-up series/parallel reduction.

    Subtree resistance at w is the parallel combination over children c of
    (edge resistance of c) + (subtree resistance at c); childless vertices
    contribute zero.
    """
    if tree.height < 1:
        raise ValueError("tree must have height >= 1")
    pf = _prob_fn(p)

    def sub(v: Vertex, path: Fraction) -> Fraction:
        kids = tree.children[v]
        if not kids:
            return Fraction(0)
        inv = Fraction(0)
        for c in kids:
            pc = pf(c)
            r_edge = (Fraction(1) - pc) / (path * pc)
            inv += 1 / (r_edge + sub(c, path * pc))
        return 1 / inv

    return sub((), Fraction(1))


def shorted_resistance(tree: FiniteTree) -> Fraction:
    """Lower bound from shorting every level into a single node: the level
    resistors 2^(k-1)/N_k then sit in series.  Fair coins only."""
    counts = tree.level_counts()
    total = Fraction(0)
    for k in range(1, tree.height + 1):
        n_k = counts[k] if k < len(counts) else 0
        if n_k == 0:
            continue
        total += Fraction(2 ** (k - 1), n_k)
    return total


def survival_exact(tree: FiniteTree, p=_HALF) -> Fraction:
    """Probability that some maximal ray is fully retained.

    Recursion: Pr(w) = 1 - prod over children c of (1 - p_c * Pr(c)),
    childless vertices surviving with probability 1.
    """
    pf = _prob_fn(p)

    def sub(v: Vertex) -> Fraction:
        kids = tree.children[v]
        if not kids:
            return Fraction(1)
        miss = Fraction(1)
        for c in kids:
            miss *= Fraction(1) - pf(c) * sub(c)
        return Fraction(1) - miss

    return sub(())


def survival_enumerate(tree: FiniteTree, p=_HALF) -> Fraction:
    """Brute-force survival by summing over all 2^E edge outcome vectors.

    Independent oracle for the recursion; edge count is capped at 20.
    """
    edges = tree.edges()
    E = len(edges)
    if E > 20:
        raise ValueError(f"{E} edges is too many to enumerate")
    pf = _prob_fn(p)
    pos = {e: i for i, e in enumerate(edges)}
    leaves = tree.leaves()
    total = Fraction(0)
    for m in range(1 << E):
        prob = Fraction(1)
        for e in edges:
            pe = pf(e)
            prob *= pe if (m >> pos[e]) & 1 else Fraction(1) - pe
        alive = False
        for leaf in leaves:
            if all((m >> pos[leaf[: k + 1]]) & 1 for k in range(len(leaf))):
                alive = True
                break
        if alive:
            total += prob
    return total


def survival_mc(
    tree: FiniteTree, seed: int, samples: int, p: float = 0.5
) -> tuple[float, float]:
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
    batch = max(1, min(samples, 1 << 16))
    while done < samples:
        b = min(batch, samples - done)
        bits = rng.random((b, len(edges))) < p
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
