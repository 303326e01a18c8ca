"""Rooted labelled trees over digit sequences.

A vertex is a tuple of digits; the empty tuple is the root.  The same
representation encodes M-adic intervals of [0,1), M-adic cubes of [0,1)^d
(one packed digit per level, lexicographic within a level), the kept
intervals of a Cantor construction, and binary addresses.  A finite tree
is held as the heights of its sorted leaves and the longest common prefix
(LCP) of each consecutive pair, which one stack walk reduces; Poss trees
hold their leaves as the rows of a sorted digit array.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

Vertex = tuple[int, ...]
ROOT: Vertex = ()


def height(v: Vertex) -> int:
    return len(v)


def is_ancestor(u: Vertex, v: Vertex) -> bool:
    """True when u is a (non-strict) ancestor of v, i.e. a prefix."""
    return len(u) <= len(v) and v[: len(u)] == u


def common_prefix(u: Vertex, v: Vertex) -> int:
    """Length of the longest common prefix of u and v."""
    n = min(len(u), len(v))
    k = 0
    while k < n and u[k] == v[k]:
        k += 1
    return k


def yca(u: Vertex, v: Vertex) -> Vertex:
    """Youngest common ancestor: the longest common prefix.

    Total on all pairs: for an ancestor/descendant pair this returns the
    ancestor, and yca(v, v) = v.
    """
    return u[: common_prefix(u, v)]


def ray_edges(v: Vertex) -> list[Vertex]:
    """Edges on the ray to v, each identified by its terminating vertex."""
    return [v[:k] for k in range(1, len(v) + 1)]


# ---------------------------------------------------------------------------
# every 0/1 edge labelling of a set of rays
# ---------------------------------------------------------------------------

_CHUNK = 1 << 20  # labellings decoded per array
_EDGE_BUDGET = 30  # edges enumerated by default, at most: 2^30 labellings


class EdgeBudgetError(RuntimeError):
    """Enumeration would exceed the edge budget."""


def ray_positions(leaves: Sequence[Vertex]) -> tuple[int, list[list[int]]]:
    """The number of edges on the leaves' rays and, for each leaf, the
    positions of its ray's edges (root edge first) in sorted edge order."""
    edges = sorted({e for t in leaves for e in ray_edges(t)})
    pos = {e: i for i, e in enumerate(edges)}
    return len(edges), [[pos[e] for e in ray_edges(t)] for t in leaves]


def ray_addresses(leaves: Sequence[Vertex], budget: int = _EDGE_BUDGET) -> Iterator[np.ndarray]:
    """Every 0/1 labelling of the edges on the leaves' rays, read as the
    binary address each leaf's ray carries (root edge most significant).

    Edge i of ``ray_positions`` is bit i of a mask; yields
    (labellings, len(leaves)) uint64 arrays in mask order, ``_CHUNK``
    labellings at a time.
    """
    n_edges, rays = ray_positions(leaves)
    if n_edges > budget:
        raise EdgeBudgetError(f"{n_edges} edges exceeds the budget of {budget}")
    one = np.uint64(1)
    total = 1 << n_edges
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        rows = np.empty((masks.size, len(leaves)), dtype=np.uint64)
        for j, ray in enumerate(rays):
            addr = np.zeros_like(masks)
            for i in ray:
                addr = (addr << one) | ((masks >> np.uint64(i)) & one)
            rows[:, j] = addr
        yield rows


# ---------------------------------------------------------------------------
# digit packing for cubes of [0,1)^d
# ---------------------------------------------------------------------------


def decode_cube(v: Vertex, M: int, d: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Lower corner and side length of the cube a vertex represents."""
    k = len(v)
    corner = [Fraction(0)] * d
    for lvl, digit in enumerate(v, start=1):
        axes = leaf_from_index(digit, M, d)
        for a in range(d):
            corner[a] += Fraction(axes[a], M**lvl)
    return tuple(corner), Fraction(1, M**k)


def cube_from_axis_indices(axis_indices: Sequence[int], k: int, M: int) -> Vertex:
    """Vertex of the level-k cube with the given integer grid index per axis."""
    digs = []
    for lvl in range(k):
        axes = [i // M ** (k - 1 - lvl) % M for i in axis_indices]
        digs.append(index_from_leaf(axes, M))
    return tuple(digs)


def leaf_from_index(i: int, base: int, depth: int) -> Vertex:
    digs = []
    for j in range(depth):
        digs.append(i // base ** (depth - 1 - j) % base)
    return tuple(digs)


def index_from_leaf(v: Vertex, base: int) -> int:
    out = 0
    for dig in v:
        out = out * base + dig
    return out


def address_bits(index: int, N: int) -> Vertex:
    """Binary address of direction ``index`` of 2^N, first bit most significant."""
    return leaf_from_index(index, 2, N)


# ---------------------------------------------------------------------------
# explicit finite trees (percolation networks, Poss trees)
# ---------------------------------------------------------------------------


class FiniteTree:
    """A finite rooted tree, held as the heights of its sorted leaves,
    ``depths``, and the LCP of each consecutive pair, ``lcps``.  No leaf is
    a prefix of another; the root alone is the one leaf of the one-vertex
    tree.  A tree of depth-N leaves may hold them as the rows of a sorted
    (leaves, N) int array, ``digits``; the leaves as tuples and the vertex
    set are built on first use."""

    def __init__(self, depths: list[int], lcps: list[int], digits: np.ndarray | None = None):
        self.depths, self.lcps, self.digits = depths, lcps, digits

    @classmethod
    def from_leaves(cls, leaves: Iterable[Vertex]) -> "FiniteTree":
        """The tree spanned by the rays to ``leaves``: duplicates, and
        leaves that are inner vertices of another's ray, are dropped."""
        ordered = sorted({ROOT, *leaves})
        # in sorted order a vertex is inner exactly when the next one extends it
        kept = [v for v, w in zip(ordered, ordered[1:]) if common_prefix(v, w) < len(v)]
        kept.append(ordered[-1])
        tree = cls([len(v) for v in kept], [common_prefix(v, w) for v, w in zip(kept, kept[1:])])
        tree.sorted_leaves = tuple(kept)
        return tree

    @classmethod
    def full(cls, base: int, depth: int) -> "FiniteTree":
        leaves = (leaf_from_index(i, base, depth) for i in range(base**depth))
        return cls.from_leaves(leaves)

    @cached_property
    def sorted_leaves(self) -> tuple[Vertex, ...]:
        return tuple(map(tuple, self.digits.tolist()))

    @cached_property
    def vertices(self) -> set[Vertex]:
        return {leaf[:k] for leaf in self.sorted_leaves for k in range(len(leaf) + 1)}

    @cached_property
    def height(self) -> int:
        return max(self.depths)

    def level_counts(self) -> list[int]:
        """Vertices per height: leaf i adds one at each height past its LCP
        with leaf i - 1 down to its own, the first leaf one at every height."""
        steps = [0] * (self.height + 2)
        for lcp, depth in zip([-1, *self.lcps], self.depths):
            steps[lcp + 1] += 1
            steps[depth + 1] -= 1
        return list(itertools.accumulate(steps[:-1]))

    def reduce(self, leaf, close):
        """Fold the tree bottom-up in one stack walk of the sorted leaves.

        A leaf has the value ``leaf``; a branching vertex at height c has
        ``close(c, branches)``, each branch a pair (h, value): a chain of
        single children from c down to a vertex at height h of that value.
        Leaf i leaves leaf i - 1's ray at their LCP, so every open vertex
        deeper than that is complete.  Returns (h, value) of the first leaf
        or branching vertex on the root's chain of single children."""
        stack, c, branches = [], -1, []  # c: the deepest open branching vertex
        h, value = self.depths[0], leaf
        for lcp, depth in zip(self.lcps, self.depths[1:]):
            while c > lcp:
                branches.append((h, value))
                h, value = c, close(c, branches)
                c, branches = stack.pop()
            if c < lcp:
                stack.append((c, branches))
                c, branches = lcp, []
            branches.append((h, value))
            h, value = depth, leaf
        while c >= 0:
            branches.append((h, value))
            h, value = c, close(c, branches)
            c, branches = stack.pop()
        return h, value
