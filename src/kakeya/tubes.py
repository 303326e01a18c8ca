"""Tubes rooted on the grid hyperplane, slabs, intersection measures,
possible-root sets, and union volumes.

A tube is the set {r + s*v : r in shrunk root cube, 0 <= s <= 10*C0} for a
direction v = (1, vbar).  Its cross-section at abscissa x1 is an axis-
aligned cube of side kappa * M^-N whose centre drifts linearly with x1,
which is what makes pairwise intersection measures piecewise polynomial
and exactly integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import kernels
from .cantor import DirectionSet
from .sticky import SlopeAssignment
from .trees import FiniteTree, Vertex, address_bits


@lru_cache(maxsize=None)
def kappa(d: int) -> Fraction:
    """Cross-section shrink factor.

    min(d^-d, 1/ceil(2 + 4*sqrt(d))): the second term is rationalized by
    rounding the denominator up, which only shrinks the tube and keeps
    every separation inequality valid while the arithmetic stays exact.
    """
    return min(Fraction(1, d**d), Fraction(1, math.ceil(2 + 4 * math.sqrt(d))))


def cross_section_side(M: int, N: int, d: int) -> float:
    """Float side kappa * M^-N of every tube cross-section at depth N."""
    return float(kappa(d)) * float(M) ** (-N)


def leaf_grid(M: int, N: int, d: int) -> np.ndarray:
    """(M^(N*d), d) integer axis indices of the root cubes, leaves in
    lexicographic order.  A leaf index has N*d base-M digits, level major
    and axis minor, so axis a's index is the number formed by the digits
    at positions a, d + a, ...: one broadcast of arange(M^N) per axis."""
    out = np.empty((M ** (N * d), d), dtype=np.int64)
    for a in range(d):
        shape = [M if pos % d == a else 1 for pos in range(N * d)]
        out[:, a] = np.broadcast_to(np.arange(M**N).reshape(shape), (M,) * (N * d)).reshape(-1)
    return out


def leaf_centers(M: int, N: int, d: int) -> np.ndarray:
    """(M^(N*d), d) array of root-cube centres, leaves in lexicographic order."""
    return (leaf_grid(M, N, d) + 0.5) / M**N


# ---------------------------------------------------------------------------
# pairwise intersection
# ---------------------------------------------------------------------------


def intersection_necessary(
    c1: Sequence[float],
    v1: Sequence[float],
    c2: Sequence[float],
    v2: Sequence[float],
    lo: float,
    hi: float,
    threshold: float,
) -> bool:
    """Necessary condition for two tubes to meet at some x1 in [lo, hi]:
    each coordinate of the centre offset must admit |a_i + x1*b_i| <=
    threshold somewhere in the range.  Equal axis-aligned cross-sections
    of side s meet only where every offset is at most s, so with
    threshold = s a False here guarantees empty intersection.  The scalar
    oracle of the overlap range that ``pair_measure`` narrows to.
    """
    xlo, xhi = float(lo), float(hi)
    for ai, bi in zip(
        (float(x2) - float(x1) for x1, x2 in zip(c1, c2)),
        (float(y2) - float(y1) for y1, y2 in zip(v1, v2)),
    ):
        if bi == 0.0:
            if abs(ai) > threshold:
                return False
            continue
        r0 = (-threshold - ai) / bi
        r1 = (threshold - ai) / bi
        if r0 > r1:
            r0, r1 = r1, r0
        xlo = max(xlo, r0)
        xhi = min(xhi, r1)
        if xlo > xhi:
            return False
    return True


@lru_cache(maxsize=8)
def _gl_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(m)


def _reduce_columns(ufunc, arr: np.ndarray, initial) -> np.ndarray:
    """``ufunc.reduce(arr, axis=1, initial=initial)`` for an (n, d) array
    with few columns, one elementwise call per column: numpy reduces
    along a short last axis row by row, over 20 times as slowly."""
    out = np.full(arr.shape[0], initial, dtype=arr.dtype)
    for col in arr.T:
        ufunc(out, col, out=out)
    return out


def pair_measure(
    c1: Sequence,
    v1: Sequence,
    c2: Sequence,
    v2: Sequence,
    lo: float,
    hi: float,
    side: float,
) -> float | np.ndarray:
    """Exact Lebesgue measure of the intersection of two tubes over
    x1 in [lo, hi]: a float for one pair of (d,) vectors, an (n,) array
    for (n, d) arrays of n pairs.

    With a = c2 - c1 and b = v2 - v1, [lo, hi] first narrows to the
    overlap range, where |a_i + b_i*x1| <= side on every axis (an axis
    with b_i = 0 keeps or drops the pair by |a_i| <= side), in the float
    operations of ``intersection_necessary``.  There every factor
    side - |a_i + b_i*x1| is non-negative and linear but at its zero, so
    the range ends and the at most d kinks cut the integrand into d + 1
    polynomials of degree <= d, each integrated exactly by Gauss-Legendre
    quadrature of sufficient order.
    """
    a = np.asarray(c2, dtype=np.float64) - np.asarray(c1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64) - np.asarray(v1, dtype=np.float64)
    single = a.ndim == 1
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    lo, hi, side = float(lo), float(hi), float(side)
    flat = b == 0.0
    b_div = np.where(flat, 1.0, b)
    r0 = (-side - a) / b_div
    r1 = (side - a) / b_div
    xlo = _reduce_columns(np.maximum, np.where(flat, lo, np.minimum(r0, r1)), lo)
    xhi = _reduce_columns(np.minimum, np.where(flat, hi, np.maximum(r0, r1)), hi)
    inside = (xlo < xhi) & _reduce_columns(np.logical_and, ~flat | (np.abs(a) <= side), True)
    a, b, flat, xlo, xhi = a[inside], b[inside], flat[inside], xlo[inside, None], xhi[inside, None]
    kinks = (0.0 - a) / b_div[inside]
    kinks = np.where(~flat & (xlo < kinks) & (kinks < xhi), kinks, xlo)
    cuts = np.sort(np.hstack([xlo, kinks, xhi]), axis=1)
    mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    halfw = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    nodes, weights = _gl_nodes(max(1, (a.shape[1] + 2) // 2))
    xs = (mid[..., None] + halfw[..., None] * nodes)[..., None]  # pair, piece, node, axis
    factors = side - np.abs(a[:, None, None] + xs * b[:, None, None])
    vals = np.maximum(factors, 0.0).prod(axis=-1)
    total = np.zeros(a.shape[0])
    for piece in (halfw * (vals @ weights)).T:  # the pieces in x1 order
        total += piece
    measure = np.zeros(inside.size)
    measure[inside] = total
    return float(measure[0]) if single else measure


def grid_offsets(
    slope_table: np.ndarray, lo: float, hi: float, M: int, N: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (k, l, delta) for which a tube of slope class k and a tube of
    class l whose root cube lies delta in Z^d grid steps further can meet
    over x1 in [lo, hi]: some x in [lo, hi] has
    |delta_a * M^-N + x * (v_l - v_k)_a| <= side on every axis a.  Three
    arrays, k and l (m,) and delta (m, d), ordered by k, l and then delta.

    The offsets of one class pair form a thin tube around a segment.  They
    are walked one axis at a time for all class pairs at once: the x range
    left by the earlier axes bounds the next axis's offsets, each of which
    meets that range and narrows it in turn, so every offset returned has
    a common x on every axis.  An axis with v_l = v_k admits only offset
    0.  The side is widened by a relative ``kernels._HULL_SLACK``, far
    above float rounding, so no pair whose float overlap range in
    ``pair_measure`` is not empty is left out."""
    table = np.asarray(slope_table, dtype=np.float64)
    K, d = table.shape
    step = float(M) ** (-N)
    k, l = np.divmod(np.arange(K * K), K)
    b = table[l] - table[k]
    xlo, xhi = np.full(K * K, float(lo)), np.full(K * K, float(hi))
    scale = 1.0 + max(abs(float(lo)), abs(float(hi))) * float(np.abs(b).max())
    reach = cross_section_side(M, N, d) + kernels._HULL_SLACK * scale  # offsets <= 1 + |x b|
    delta = np.empty((K * K, 0), dtype=np.int64)
    for axis in range(d):
        ba = b[:, axis]
        first = np.ceil((-reach - np.maximum(xlo * ba, xhi * ba)) / step)
        last = np.floor((reach - np.minimum(xlo * ba, xhi * ba)) / step)
        counts = np.maximum(last - first + 1.0, 0.0).astype(np.int64)
        rows = np.repeat(np.arange(counts.size), counts)
        offset = first[rows] + np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        ba = ba[rows]
        flat = ba == 0.0
        r0 = (-reach - offset * step) / np.where(flat, 1.0, ba)
        r1 = (reach - offset * step) / np.where(flat, 1.0, ba)
        xlo = np.where(flat, xlo[rows], np.maximum(xlo[rows], np.minimum(r0, r1)))
        xhi = np.where(flat, xhi[rows], np.minimum(xhi[rows], np.maximum(r0, r1)))
        k, l, b = k[rows], l[rows], b[rows]
        delta = np.column_stack([delta[rows], offset.astype(np.int64)])
    return k, l, delta


_PROBE_CELLS = 1 << 16  # (tube, offset) probes looked up at once


def _family_pairs(
    M: int, N: int, slope_idx: np.ndarray, slope_table: np.ndarray, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the pairs i < j of the depth-N grid family
    (tube i rooted at leaf i with slope ``slope_table[slope_idx[i]]``)
    whose tubes can meet over [lo, hi], in key order i * n + j.

    The offsets of ``grid_offsets`` are symmetric, (k, l, delta) with
    (l, k, -delta), and offset 0 meets the tube itself, so only the delta
    whose first non-zero axis is positive are probed, grouped by (k, delta)
    with the classes l each admits: a group probes every tube of class k
    for the tube delta further along the grid, kept when that tube's class
    is one the group admits.  The probes go ``_PROBE_CELLS`` at a time."""
    K, d = slope_table.shape
    axes = leaf_grid(M, N, d).T.copy()  # (d, n): one row of axis indices per axis
    n, G = axes.shape[1], M**N
    tube_at = np.empty(n, dtype=np.int64)  # the tube at each grid cell, axis 0 most significant
    tube_at[(axes.T * G ** np.arange(d - 1, -1, -1)).sum(axis=1)] = np.arange(n)
    k, l, delta = grid_offsets(slope_table, lo, hi, M, N)
    up = np.sign(delta) @ (1 << np.arange(d - 1, -1, -1)) > 0  # the first non-zero axis rules
    groups, at = np.unique(np.column_stack([k, delta])[up], axis=0, return_inverse=True)
    admits = np.zeros((groups.shape[0], K), dtype=bool)
    admits[at.reshape(-1), l[up]] = True
    k, delta, admits, class_at = groups[:, 0], groups[:, 1:], admits.reshape(-1), slope_idx.take(tube_at)
    members = np.argsort(slope_idx, kind="stable")
    sizes = np.bincount(slope_idx, minlength=K)
    starts = np.cumsum(sizes) - sizes
    keys = [np.empty(0, dtype=np.int64)]
    batch = max(1, _PROBE_CELLS // max(1, int(sizes.max())))  # groups probed at once
    for s in range(0, k.size, batch):
        counts = sizes[k[s : s + batch]]
        rows = np.repeat(np.arange(counts.size), counts)
        i = members.take((starts[k[s : s + batch]] - np.cumsum(counts) + counts)[rows] + np.arange(rows.size))
        cell, on_grid = np.zeros(rows.size, dtype=np.int64), np.ones(rows.size, dtype=bool)
        for a in range(d):
            g = axes[a].take(i) + delta[s : s + batch, a].take(rows)
            on_grid &= g.view(np.uint64) < G  # a negative index wraps far above G
            cell = cell * G + g
        cell = cell[on_grid]
        kept = admits.take((rows[on_grid] + s) * K + class_at.take(cell))
        i, j = i[on_grid][kept], tube_at.take(cell[kept])
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    return np.divmod(np.sort(np.concatenate(keys)), n)


def pair_sum_over_range(
    M: int,
    N: int,
    slope_idx: np.ndarray,
    slope_table: np.ndarray,
    lo: float,
    hi: float,
) -> float:
    """Sum over ordered pairs of pairwise intersection measures over
    x1 in [lo, hi], for the realized depth-N family: tube i rooted at
    leaf i's centre with slope ``slope_table[slope_idx[i]]``.

    d = 1 goes through the kernels.  Higher dimensions measure only the
    pairs ``_family_pairs`` finds from the grid offsets of each slope-class
    pair, ``_PAIR_CHUNK // d`` at a time so that each (pairs, d) array
    stays as small as a d = 1 chunk's, in ``pair_measure`` calls.  The
    non-zero measures are added in key order i * n + j, which gives the
    full i < j loop's sum bit for bit."""
    table = np.asarray(slope_table, dtype=np.float64)
    d = table.shape[1]
    side = cross_section_side(M, N, d)
    if d == 1:
        return kernels.pair_sum_1d(leaf_centers(M, N, 1)[:, 0], table[slope_idx, 0], lo, hi, side)
    centers = leaf_centers(M, N, d)
    i, j = _family_pairs(M, N, slope_idx, table, lo, hi)
    total, chunk = 0.0, kernels._PAIR_CHUNK // d
    for s in range(0, i.size, chunk):
        a, b = i[s : s + chunk], j[s : s + chunk]
        measure = pair_measure(
            centers.take(a, axis=0), table.take(slope_idx[a], axis=0),
            centers.take(b, axis=0), table.take(slope_idx[b], axis=0), lo, hi, side,
        )
        for m in measure[measure > 0.0].tolist():
            total += m
    return 2.0 * total


# ---------------------------------------------------------------------------
# union volumes
# ---------------------------------------------------------------------------


def slab_indices(M: int, N: int, lo: float, hi: float) -> range:
    """Indices k of the M^-N slabs [k*M^-N, (k+1)*M^-N] that overlap [lo, hi];
    an endpoint within 1e-12 of a slab boundary counts as on it."""
    width = float(M) ** (-N)
    return range(math.floor(lo / width + 1e-12), math.ceil(hi / width - 1e-12))


def _slab_sample_points(M: int, N: int, lo: float, hi: float, samples: int):
    """Midpoint quadrature nodes per M^-N slab of [lo, hi]: (xs, weight)."""
    if samples < 1:
        raise ValueError("need at least one quadrature sample per slab")
    width = float(M) ** (-N)
    xs = []
    weights = []
    for k in slab_indices(M, N, lo, hi):
        s0 = max(lo, k * width)
        s1 = min(hi, (k + 1) * width)
        if s1 <= s0:
            continue
        step = (s1 - s0) / samples
        for j in range(samples):
            xs.append(s0 + (j + 0.5) * step)
            weights.append(step)
    return np.asarray(xs), np.asarray(weights)


def _union_measures(
    centers: np.ndarray, slopes: np.ndarray, side: float, xs: np.ndarray
) -> np.ndarray:
    """Exact measure of the union of the tubes' cross-sections at each node
    of ``xs``, each node on its own: sorted gaps for d = 1, cube slicing
    for d >= 2."""
    if centers.shape[1] == 1:
        return kernels.union_lengths_1d(centers[:, 0], slopes[:, 0], side, xs)
    return kernels.union_areas_2d(centers - side / 2.0, slopes, side, xs)


def union_volume(
    centers: np.ndarray,
    slopes: np.ndarray,
    lo: float,
    hi: float,
    M: int,
    N: int,
    samples: int,
) -> float:
    """Volume of the union of tubes over x1 in [lo, hi]: midpoint
    quadrature per slab of the cross-section union, which is exact at each
    node in every dimension."""
    side = cross_section_side(M, N, centers.shape[1])
    xs, weights = _slab_sample_points(M, N, lo, hi, samples)
    if xs.size == 0:
        return 0.0
    return float(np.dot(weights, _union_measures(centers, slopes, side, xs)))


def slab_volumes(
    centers: np.ndarray,
    slopes: np.ndarray,
    lo: float,
    hi: float,
    M: int,
    N: int,
    samples: int,
) -> list[tuple[int, float]]:
    """(k, volume) of each M^-N slab [k*M^-N, (k+1)*M^-N] that overlaps
    [lo, hi], each volume equal to ``union_volume`` over its slab: the
    nodes of every slab are measured in one union call, and each slab
    takes its own weighted sum of its own nodes."""
    width = float(M) ** (-N)
    ks = slab_indices(M, N, lo, hi)
    nodes = [_slab_sample_points(M, N, k * width, (k + 1) * width, samples) for k in ks]
    if not nodes:
        return []
    side = cross_section_side(M, N, centers.shape[1])
    measures = _union_measures(centers, slopes, side, np.concatenate([xs for xs, _ in nodes]))
    out, start = [], 0
    for k, (xs, weights) in zip(ks, nodes):
        out.append((k, float(np.dot(weights, measures[start : start + xs.size]))))
        start += xs.size
    return out


# ---------------------------------------------------------------------------
# possible roots of a point
# ---------------------------------------------------------------------------


@dataclass
class PossSet:
    """Root cubes from which some direction's tube can reach the point.

    ``tree`` holds the roots as the sorted rows of ``tree.digits``, each
    root's N digits in base M^d, with their branching structure; it has
    no leaf when the set is empty.  Root i has the witness directions
    ``directions[starts[i]:starts[i + 1]]``, in increasing order; the sets
    of one ``poss_sets`` batch share one ``directions`` array."""

    point: tuple[float, ...]
    tree: FiniteTree
    starts: list[int]
    directions: np.ndarray

    @property
    def witnesses(self) -> dict[Vertex, list[int]]:
        """Root leaf -> its witness directions, the roots as digit tuples in
        sorted order."""
        dirs, bounds = self.directions.tolist(), self.starts
        return {t: dirs[a:b] for t, a, b in zip(self.tree.sorted_leaves, bounds, bounds[1:])}

    def __len__(self) -> int:
        return len(self.tree.depths)


def _pullbacks(points, dirset: DirectionSet) -> np.ndarray:
    """Each point pulled back along every direction to the root hyperplane,
    a (points, directions, d) array: pbar - p1 * slopes."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != dirset.d + 1:
        raise ValueError("point dimension mismatch")
    return pts[:, None, 1:] - pts[:, :1, None] * dirset.slope_floats()


def poss_sets(points, dirset: DirectionSet) -> list[PossSet]:
    """Poss(p) of each row p of a (points, 1 + d) array, in one pass:
    pull the points back along every direction to the root hyperplane and
    keep the root cubes whose shrunk cube contains the pullback; M, N and
    d are the direction set's.  The roots' digit rows are sorted, and
    their LCPs taken, for the whole batch at once.

    A pullback's cube comes from the integer grid, floor(base * M^N), and
    its centre is (index + 1/2) / M^N, dividing by the exact integer M^N.
    A float floor can differ from the exact one only within rounding of a
    grid line, about M^-N/2 from either centre, far outside the shrunk
    half-width kappa*M^-N/2, so the set is the exact floor's."""
    M, N, d = dirset.spec.M, dirset.spec.N, dirset.d
    half = cross_section_side(M, N, d) / 2.0
    pts = np.asarray(points, dtype=np.float64)
    base = _pullbacks(pts, dirset)
    idx = np.floor(base * M**N)
    center = (idx + 0.5) / M**N
    keep = np.all((base >= 0.0) & (base < 1.0) & (np.abs(base - center) <= half), axis=2)
    which, dirs = np.nonzero(keep)  # by point, then by direction
    # each kept cube's N level digits, the axes' digits of a level packed as
    # index_from_leaf packs them, sorted by point and then by the digits,
    # read c at a time as base-M^d numbers, c as many as an int64 holds
    levels = M ** np.arange(N - 1, -1, -1)[:, None]
    digits = (idx[which, dirs].astype(np.int64)[:, None, :] // levels % M) @ M ** np.arange(d - 1, -1, -1)
    c = max(1, int(62 / math.log2(M**d)))
    keys = [digits[:, a : a + c] @ (M**d) ** np.arange(min(c, N - a) - 1, -1, -1) for a in range(0, N, c)]
    order = np.lexsort((*keys[::-1], which))  # stable: each root's directions stay increasing
    which, digits, dirs = which[order], digits[order], dirs[order]
    lcps = np.logical_and.accumulate(digits[1:] == digits[:-1], axis=1).sum(axis=1)
    first = np.ones(which.size, dtype=bool)  # a root starts where fewer than N digits
    first[1:] = (lcps < N) | (which[1:] != which[:-1])  # are shared or the point changes
    first = np.flatnonzero(first)
    roots, lcps = digits[first], lcps[first[1:] - 1].tolist()  # lcps across two points go unread
    bounds = np.searchsorted(which[first], np.arange(pts.shape[0] + 1)).tolist()
    starts, empty = [*first.tolist(), which.size], FiniteTree([], [], roots[:0])
    out = []
    for p, lo, hi in zip(pts.tolist(), bounds, bounds[1:]):
        tree = FiniteTree([N] * (hi - lo), lcps[lo : hi - 1], roots[lo:hi]) if hi > lo else empty
        out.append(PossSet(tuple(p), tree, starts[lo : hi + 1], dirs))
    return out


def poss_set(p: Sequence[float], dirset: DirectionSet) -> PossSet:
    """Poss(p): the root cubes from which some direction's tube can reach
    the point, as ``poss_sets`` finds them for a batch of one."""
    return poss_sets([p], dirset)[0]


class WitnessError(RuntimeError):
    """A possible root had zero or multiple witness directions."""


def unique_far_slope(poss: PossSet, dirset: DirectionSet) -> dict[Vertex, tuple[int, Vertex]]:
    """For the Poss set of a point with first coordinate in [C0, C0+1]
    (``dirset.c0``), the unique witness direction of every possible root,
    plus its binary address.

    Raises WitnessError on duplicate witnesses; points violating the
    abscissa precondition are still accepted, so a too-small offset
    constant surfaces as that error rather than silently losing data.
    """
    out: dict[Vertex, tuple[int, Vertex]] = {}
    for t, wit in poss.witnesses.items():
        if len(wit) != 1:
            raise WitnessError(
                f"root {t} has {len(wit)} witness directions; "
                "offset constant too small for uniqueness"
            )
        out[t] = (wit[0], address_bits(wit[0], dirset.spec.N))
    return out


# ---------------------------------------------------------------------------
# measures of one realized tube family
# ---------------------------------------------------------------------------


def assignment_arrays(assignment: SlopeAssignment) -> tuple[np.ndarray, np.ndarray]:
    """(centers, slopes) float arrays of the realized family, leaf order."""
    centers = leaf_centers(assignment.M, assignment.N, assignment.d)
    slopes = assignment.dirset.slope_floats()[assignment.all_slope_indices()]
    return centers, slopes


def kakeya_measures(assignment: SlopeAssignment, samples: int) -> dict:
    """Volume of the realized union near the root hyperplane ([0,1]) and in
    the far window ([C0, C0+1]), with the implied dilate-ratio bound.  Both
    volumes come from ``union_volume``, exact at every quadrature node in
    every dimension, so no field carries a sampling error.

    The length-dilated tubes contain both the far window piece and (after
    translation by 2C0+1 lengths) the near piece, so the dilate ratio is
    at least max(1, near/(4*far)).
    """
    centers, slopes = assignment_arrays(assignment)
    M, N = assignment.M, assignment.N
    c0 = assignment.dirset.c0
    near = union_volume(centers, slopes, 0.0, 1.0, M, N, samples=samples)
    far = union_volume(
        centers, slopes, float(c0), float(c0) + 1.0, M, N, samples=samples
    )
    return {
        "near": near,
        "far": far,
        "ratio": near / far if far > 0 else math.inf,
        "dilate_ratio_bound": max(1.0, near / (4.0 * far)) if far > 0 else math.inf,
        "c0": c0,
    }

