"""Random slope assignments driven by a keyed Bernoulli(1/2) edge field.

Every edge of the root-cube tree carries an independent fair bit.  Reading
the bits along a leaf's ray yields a binary address; stickiness (shared
prefixes share bits) is automatic.  Composing with the binary structure of
the Cantor tree and the curve turns the address into a direction.

Bits are generated statelessly from (seed, base, vertex) by a 64-bit
mixing function, so fields need O(1) memory, replay exactly, and can be
evaluated in bulk by the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import kernels
from .cantor import DirectionSet
from .kernels import _GOLDEN, _MIX1, _MIX2
from .trees import Vertex, height, index_from_leaf, leaf_from_index, ray_addresses, yca

MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer on python ints (matches the kernel arithmetic)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def field_key(seed: int, base: int) -> int:
    """Whitened per-field key folding in the branching base."""
    return mix64(mix64(seed & MASK64) ^ (base * _MIX1 & MASK64))


def node_id(digits: Vertex, base: int) -> int:
    """Level-major index of a vertex in the full base-adic tree (root = 0)."""
    k = len(digits)
    offset = (base**k - 1) // (base - 1)
    value = 0
    for d in digits:
        value = value * base + d
    return offset + value


def derive_seed(seed: int, stream: int) -> int:
    """Disjoint deterministic seed stream for worker/sample ``stream``."""
    return mix64((seed & MASK64) ^ ((stream + 1) * _GOLDEN & MASK64))


@dataclass(frozen=True)
class StickyField:
    """Keyed Bernoulli(1/2) bits on the edges of the full base-adic tree."""

    seed: int
    base: int

    @cached_property
    def key(self) -> int:
        return field_key(self.seed, self.base)

    def bit(self, digits: Vertex) -> int:
        """The bit on the edge terminating at ``digits`` (height >= 1)."""
        if not digits:
            raise ValueError("the root has no incoming edge")
        return mix64((self.key + node_id(digits, self.base) * _GOLDEN) & MASK64) & 1

    def ray_bits(self, leaf: Vertex) -> Vertex:
        return tuple(self.bit(leaf[: k + 1]) for k in range(len(leaf)))


@dataclass(frozen=True)
class SlopeAssignment:
    """Composite map root cube -> direction for one field realization, whose
    M, N and d are the direction set's; the field branches M^d ways."""

    field: StickyField
    dirset: DirectionSet

    def __post_init__(self):
        if self.field.base != self.M**self.d:
            raise ValueError("field base must equal M^d")

    @property
    def N(self) -> int:
        return self.dirset.spec.N

    @property
    def M(self) -> int:
        return self.dirset.spec.M

    @property
    def d(self) -> int:
        return self.dirset.d

    def tau(self, t: Vertex) -> Vertex:
        return self.field.ray_bits(t)

    def slope_index(self, t: Vertex) -> int:
        """Index into the sorted direction list (binary address as integer)."""
        if height(t) != self.N:
            raise ValueError(f"need a height-{self.N} leaf, got height {height(t)}")
        return index_from_leaf(self.tau(t), 2)

    def sigma(self, t: Vertex) -> tuple[Fraction, ...]:
        return self.dirset.slopes[self.slope_index(t)]

    def all_slope_indices(self) -> np.ndarray:
        """Slope index of every leaf, leaves in lexicographic order."""
        return kernels.leaf_slope_indices(self.field.key, self.field.base, self.N)


def assignment_from_dirset(dirset: DirectionSet, seed: int) -> SlopeAssignment:
    field = StickyField(seed=seed, base=dirset.spec.M**dirset.d)
    return SlopeAssignment(field=field, dirset=dirset)


# ---------------------------------------------------------------------------
# admissibility and the exhaustive-enumeration oracle
# ---------------------------------------------------------------------------


def sticky_admissible(pairs: Sequence[tuple[Vertex, Vertex]]) -> bool:
    """Whether a (leaf, binary address) collection is realizable by some
    sticky map: shared leaf prefixes must force shared address prefixes.

    Checked on every pair, which covers every subset: the longest common
    prefix of a set is the shortest over its pairs.  A leaf listed twice
    with different addresses is inadmissible.
    """
    if not pairs:
        return True
    seen: dict[Vertex, Vertex] = {}
    for t, b in pairs:
        if height(t) != height(b):
            raise ValueError("leaf and address heights differ")
        if t in seen:
            if seen[t] != b:
                return False
        seen[t] = b
    items = list(seen.items())
    for i, (t1, b1) in enumerate(items):
        for t2, b2 in items[i + 1 :]:
            if height(yca(b1, b2)) < height(yca(t1, t2)):
                return False
    return True


def enumerate_realizations(
    pairs: Sequence[tuple[Vertex, Vertex]], budget: int = 30
) -> Fraction:
    """Exact probability that a uniform edge field realizes all the given
    (leaf, binary address) pairs, by literal enumeration of all 2^E bit
    assignments on the union of the leaves' rays.
    """
    if any(height(t) != height(b) for t, b in pairs):
        raise ValueError("leaf and address heights differ")
    targets = np.array([index_from_leaf(b, 2) for _, b in pairs], dtype=np.uint64)
    hits = total = 0
    for rows in ray_addresses([t for t, _ in pairs], budget):
        hits += int((rows == targets).all(axis=1).sum())
        total += rows.shape[0]
    return Fraction(hits, total)


def enumerate_conditional(
    condition: Sequence[tuple[Vertex, Vertex]],
    query: Sequence[tuple[Vertex, Vertex]],
    budget: int = 30,
) -> Fraction:
    """Exact conditional probability Pr(query | condition) by enumeration."""
    joint = enumerate_realizations(list(condition) + list(query), budget=budget)
    denom = enumerate_realizations(condition, budget=budget)
    if denom == 0:
        raise ZeroDivisionError("conditioning event has probability zero")
    return joint / denom


def enumerate_joint_addresses(
    leaves: Sequence[Vertex], budget: int = 30
) -> dict[tuple[int, ...], int]:
    """Counts, over all edge-bit assignments on the union of rays, of every
    combination of binary addresses the given leaves can receive.

    Keys are tuples of address integers (first bit most significant),
    aligned with ``leaves``.  Together the counts describe the exact joint
    distribution, from which any conditional probability is a ratio.
    """
    counts: dict[tuple[int, ...], int] = {}
    for rows in ray_addresses(leaves, budget):
        keys, kcounts = np.unique(rows, axis=0, return_counts=True)
        for row, c in zip(keys, kcounts):
            key = tuple(int(x) for x in row)
            counts[key] = counts.get(key, 0) + int(c)
    return counts


def all_fields_exhaustive(base: int, depth: int, budget: int = 30):
    """Iterate every sticky map on the full base-adic tree of the given
    depth, yielding the leaf slope-index array of each.

    The edge count is base + base^2 + ... + base^depth and must stay within
    ``budget``; used by the tiny-scale exhaustive experiments.
    """
    leaves = [leaf_from_index(i, base, depth) for i in range(base**depth)]
    for rows in ray_addresses(leaves, budget):
        yield from rows.astype(np.int64)
