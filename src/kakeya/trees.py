"""Rooted labelled trees over digit sequences.

Vertices are plain tuples of digits; the empty tuple is the root.  The
same representation encodes M-adic intervals of [0,1), M-adic cubes of
[0,1)^d (one packed digit per level, lexicographic within a level), the
kept intervals of a Cantor construction, and binary addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

Vertex = tuple[int, ...]
ROOT: Vertex = ()


def height(v: Vertex) -> int:
    return len(v)


def is_ancestor(u: Vertex, v: Vertex) -> bool:
    """True when u is a (non-strict) ancestor of v, i.e. a prefix."""
    return len(u) <= len(v) and v[: len(u)] == u


def yca(u: Vertex, v: Vertex) -> Vertex:
    """Youngest common ancestor: the longest common prefix.

    Total on all pairs: for an ancestor/descendant pair this returns the
    ancestor, and yca(v, v) = v.
    """
    n = min(len(u), len(v))
    k = 0
    while k < n and u[k] == v[k]:
        k += 1
    return u[:k]


def ray_edges(v: Vertex) -> list[Vertex]:
    """Edges on the ray to v, each identified by its terminating vertex."""
    return [v[:k] for k in range(1, len(v) + 1)]


# ---------------------------------------------------------------------------
# every 0/1 edge labelling of a set of rays
# ---------------------------------------------------------------------------

_CHUNK = 1 << 20  # labellings decoded per array


class EdgeBudgetError(RuntimeError):
    """Enumeration would exceed the edge budget."""


def ray_addresses(leaves: Sequence[Vertex], budget: int) -> Iterator[np.ndarray]:
    """Every 0/1 labelling of the edges on the leaves' rays, read as the
    binary address each leaf's ray carries (root edge most significant).

    The sorted edges are the bits of a mask, the first edge bit 0; yields
    (labellings, len(leaves)) uint64 arrays in mask order, ``_CHUNK``
    labellings at a time.
    """
    edges = sorted({e for t in leaves for e in ray_edges(t)})
    if len(edges) > budget:
        raise EdgeBudgetError(f"{len(edges)} edges exceeds the budget of {budget}")
    bit = {e: np.uint64(i) for i, e in enumerate(edges)}
    one = np.uint64(1)
    total = 1 << len(edges)
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        rows = np.empty((masks.size, len(leaves)), dtype=np.uint64)
        for j, t in enumerate(leaves):
            addr = np.zeros_like(masks)
            for e in ray_edges(t):
                addr = (addr << one) | ((masks >> bit[e]) & one)
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


@dataclass
class FiniteTree:
    """A finite prefix-closed vertex set with a child map."""

    vertices: set[Vertex]
    children: dict[Vertex, list[Vertex]]
    height: int

    @classmethod
    def from_leaves(cls, leaves: Iterable[Vertex]) -> "FiniteTree":
        vertices: set[Vertex] = {ROOT}
        for leaf in leaves:
            for k in range(1, len(leaf) + 1):
                vertices.add(leaf[:k])
        children: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
        for v in vertices:
            if v:
                children[v[:-1]].append(v)
        for v in children:
            children[v].sort()
        h = max((len(v) for v in vertices), default=0)
        return cls(vertices=vertices, children=children, height=h)

    @classmethod
    def full(cls, base: int, depth: int) -> "FiniteTree":
        leaves = (leaf_from_index(i, base, depth) for i in range(base**depth))
        return cls.from_leaves(leaves)

    def level_counts(self) -> list[int]:
        counts = [0] * (self.height + 1)
        for v in self.vertices:
            counts[len(v)] += 1
        return counts

    def leaves(self) -> list[Vertex]:
        return sorted(v for v in self.vertices if not self.children[v])

    def edges(self) -> list[Vertex]:
        """Every non-root vertex, i.e. the edge terminating there."""
        return sorted(v for v in self.vertices if v)
