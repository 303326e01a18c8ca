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
from .trees import Vertex, address_bits, cube_from_axis_indices


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


def leaf_centers(M: int, N: int, d: int) -> np.ndarray:
    """(M^(N*d), d) array of root-cube centres, leaves in lexicographic order."""
    B = M**d
    n = B**N
    idx = np.arange(n, dtype=np.int64)
    axis_idx = np.zeros((n, d), dtype=np.int64)
    for lvl in range(N):
        packed = idx // B ** (N - 1 - lvl) % B
        for a in range(d):
            dig = packed // M ** (d - 1 - a) % M
            axis_idx[:, a] = axis_idx[:, a] * M + dig
    return (axis_idx + 0.5) / M**N


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


def pair_sum_over_range(
    centers: np.ndarray,
    slopes: np.ndarray,
    lo: float,
    hi: float,
    side: float,
) -> float:
    """Sum over ordered pairs of pairwise intersection measures.

    d = 1 goes through the kernels.  Higher dimensions take the candidate
    pairs of the first axis from the same enumerator, ``_PAIR_CHUNK // d``
    at a time so that each (pairs, d) array stays as small as a d = 1
    chunk's, as (i < j) and measured in one ``pair_measure`` call, which
    integrates only the pairs whose overlap range is not empty.  The
    non-zero measures, sorted by key i * n + j and added in that order,
    give the full i < j loop's sum bit for bit."""
    d = centers.shape[1]
    if d == 1:
        return kernels.pair_sum_1d(centers[:, 0], slopes[:, 0], lo, hi, side)
    n = centers.shape[0]
    keys, measures = [np.empty(0, np.int64)], [np.empty(0)]
    chunk = kernels._PAIR_CHUNK // d
    for i, j in kernels._candidate_pairs(centers[:, 0], slopes[:, 0], lo, hi, side, chunk):
        i, j = np.minimum(i, j), np.maximum(i, j)
        c1, v1 = centers.take(i, axis=0), slopes.take(i, axis=0)
        c2, v2 = centers.take(j, axis=0), slopes.take(j, axis=0)
        measure = pair_measure(c1, v1, c2, v2, lo, hi, side)
        kept = measure > 0.0
        keys.append(i[kept] * n + j[kept])
        measures.append(measure[kept])
    order = np.argsort(np.concatenate(keys))
    total = 0.0
    for m in np.concatenate(measures)[order].tolist():
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
    """Root cubes from which some direction's tube can reach the point."""

    point: tuple[float, ...]
    witnesses: dict[Vertex, list[int]]  # root leaf -> direction indices

    def roots(self) -> list[Vertex]:
        return sorted(self.witnesses)

    def __len__(self) -> int:
        return len(self.witnesses)


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
    d are the direction set's.  Each witness list holds its directions in
    increasing order, and the roots enter in the order of their first
    witness.

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
    # level digits idx // M^(N-1-lvl) % M per axis, packed as index_from_leaf packs them
    levels = M ** np.arange(N - 1, -1, -1)[:, None]
    cells = idx[which, dirs].astype(np.int64)[:, None, :] // levels % M
    packed = (cells * M ** np.arange(d - 1, -1, -1)).sum(axis=2)
    witnesses: list[dict[Vertex, list[int]]] = [{} for _ in range(keep.shape[0])]
    for i, k, t in zip(which.tolist(), dirs.tolist(), map(tuple, packed.tolist())):
        witnesses[i].setdefault(t, []).append(k)
    return [PossSet(point=tuple(p), witnesses=w) for p, w in zip(pts.tolist(), witnesses)]


def poss_set(p: Sequence[float], dirset: DirectionSet) -> PossSet:
    """Poss(p): the root cubes from which some direction's tube can reach
    the point, as ``poss_sets`` finds them for a batch of one."""
    return poss_sets([p], dirset)[0]


_AFFINE_CELLS = 1 << 16  # cube-direction pairs compared at once


def poss_set_affine(p: Sequence[float], dirset: DirectionSet) -> PossSet:
    """Same set computed through the affine copy of the direction set:
    enumerate candidate cubes around the pulled-back copy, in lexicographic
    order of their axis indices, and keep those whose shrunk cube meets it.
    Centres are those of ``poss_sets``; each chunk of cubes is compared with
    every direction at once."""
    M, N, d = dirset.spec.M, dirset.spec.N, dirset.d
    half = cross_section_side(M, N, d) / 2.0
    copy_pts = _pullbacks([p], dirset)[0]  # the affine image of the directions
    witnesses: dict[Vertex, list[int]] = {}
    lo_idx = np.floor((copy_pts.min(axis=0) - half) * M**N).astype(int)
    hi_idx = np.floor((copy_pts.max(axis=0) + half) * M**N).astype(int)
    lo_idx = np.maximum(lo_idx, 0)
    hi_idx = np.minimum(hi_idx, M**N - 1)
    if np.any(lo_idx > hi_idx):
        return PossSet(point=tuple(float(x) for x in p), witnesses={})
    shape = tuple((hi_idx - lo_idx + 1).tolist())
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
    return PossSet(point=tuple(float(x) for x in p), witnesses=witnesses)


class WitnessError(RuntimeError):
    """A possible root had zero or multiple witness directions."""


def unique_far_slope(
    p: Sequence[float], dirset: DirectionSet
) -> dict[Vertex, tuple[int, Vertex]]:
    """For a point with first coordinate in [C0, C0+1] (``dirset.c0``), the
    unique witness direction of every possible root, plus its binary address.

    Raises WitnessError on duplicate witnesses; points violating the
    abscissa precondition are still scanned, so a too-small offset
    constant surfaces as that error rather than silently losing data.
    """
    poss = poss_set(p, dirset)
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

