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
from .trees import (
    Vertex,
    cube_center,
    cube_from_axis_indices,
    encode_cube,
    height,
    leaf_from_index,
    yca,
)

LENGTH_FACTOR = 10  # tube length in units of C0


def kappa(d: int) -> Fraction:
    """Cross-section shrink factor.

    min(d^-d, 1/ceil(2 + 4*sqrt(d))): the second term is rationalized by
    rounding the denominator up, which only shrinks the tube and keeps
    every separation inequality valid while the arithmetic stays exact.
    """
    return min(Fraction(1, d**d), Fraction(1, math.ceil(2 + 4 * math.sqrt(d))))


def offset_constant(d: int, lip_lo: float) -> int:
    """Distance C0 beyond which a root cube sees at most one direction."""
    return math.ceil(max(d**d / lip_lo, 2 * math.sqrt(d) / lip_lo))


@dataclass(frozen=True)
class TubeGeometry:
    """Shared geometric parameters of one tube family."""

    M: int
    N: int
    d: int

    @property
    def kappa(self) -> Fraction:
        return kappa(self.d)

    @property
    def side(self) -> Fraction:
        """Cross-section side length kappa * M^-N."""
        return self.kappa * Fraction(1, self.M**self.N)

    @property
    def n_tubes(self) -> int:
        return self.M ** (self.N * self.d)

    def root_center(self, t: Vertex) -> tuple[Fraction, ...]:
        if height(t) != self.N:
            raise ValueError(f"root vertex must have height {self.N}")
        return cube_center(t, self.M, self.d)


@dataclass(frozen=True)
class Tube:
    """One tube: root cube leaf, direction, and family geometry."""

    root: Vertex
    slope: tuple[Fraction, ...]  # (1, vbar)
    geom: TubeGeometry
    length: Fraction

    def center_at(self, x1: Fraction) -> tuple[Fraction, ...]:
        c = self.geom.root_center(self.root)
        return tuple(ci + x1 * vi for ci, vi in zip(c, self.slope[1:]))

    def contains(self, p: Sequence[float]) -> bool:
        x1 = p[0]
        if not 0 <= x1 <= float(self.length):
            return False
        half = float(self.geom.side) / 2
        c = self.center_at(Fraction(0))
        for i in range(self.geom.d):
            drift = float(c[i]) + x1 * float(self.slope[i + 1])
            if abs(p[i + 1] - drift) > half:
                return False
        return True


@dataclass(frozen=True)
class Slab:
    """Vertical slice [k*M^-N, (k+1)*M^-N] on the first axis."""

    k: int
    M: int
    N: int

    @property
    def lo(self) -> Fraction:
        return Fraction(self.k, self.M**self.N)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.k + 1, self.M**self.N)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def leaf_centers(M: int, N: int, d: int) -> np.ndarray:
    """(M^(N*d), d) array of root-cube centres, leaves in lexicographic order."""
    B = M**d
    n = B**N
    idx = np.arange(n, dtype=np.int64)
    centers = np.zeros((n, d), dtype=np.float64)
    axis_idx = np.zeros((n, d), dtype=np.int64)
    for lvl in range(N):
        packed = idx // B ** (N - 1 - lvl) % B
        for a in range(d):
            dig = packed // M ** (d - 1 - a) % M
            axis_idx[:, a] = axis_idx[:, a] * M + dig
    scale = float(M) ** (-N)
    for a in range(d):
        centers[:, a] = (axis_idx[:, a] + 0.5) * scale
    return centers


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
    threshold somewhere in the range (threshold = 2*kappa*sqrt(d)*M^-N).

    The per-coordinate box test is implied by the Euclidean criterion, so
    a False here guarantees empty intersection.
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


def pair_measure(
    c1: Sequence,
    v1: Sequence,
    c2: Sequence,
    v2: Sequence,
    lo: float,
    hi: float,
    side: float,
) -> float:
    """Exact Lebesgue measure of the intersection of two tubes over
    x1 in [lo, hi].

    The integrand is the product over coordinates of
    max(0, side - |a_i + b_i*x1|); between breakpoints (where a factor
    kinks or vanishes) it is a polynomial of degree <= d, integrated
    exactly by Gauss-Legendre quadrature of sufficient order.
    """
    a = np.array([float(y) - float(x) for x, y in zip(c1, c2)])
    b = np.array([float(y) - float(x) for x, y in zip(v1, v2)])
    d = a.shape[0]
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        return 0.0
    cuts = [lo, hi]
    for i in range(d):
        if b[i] != 0.0:
            for target in (-side, 0.0, side):
                x = (target - a[i]) / b[i]
                if lo < x < hi:
                    cuts.append(x)
        else:
            if abs(a[i]) >= side:
                return 0.0  # this factor vanishes identically
    cuts = sorted(set(cuts))
    nodes, weights = _gl_nodes(max(1, (d + 2) // 2))
    total = 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (x0 + x1)
        f_mid = side - np.abs(a + b * mid)
        if np.any(f_mid <= 0.0):
            continue
        halfw = 0.5 * (x1 - x0)
        xs = mid + halfw * nodes
        vals = np.prod(
            np.maximum(side - np.abs(a[None, :] + np.outer(xs, b)), 0.0), axis=1
        )
        total += halfw * float(np.dot(weights, vals))
    return total


def pair_sum_over_range(
    centers: np.ndarray,
    slopes: np.ndarray,
    lo: float,
    hi: float,
    side: float,
) -> float:
    """Sum over ordered pairs of pairwise intersection measures.

    d = 1 goes through the kernels.  Higher dimensions take the candidate
    pairs of the first axis from the same enumerator, in (i < j) order, and
    sum the exact scalar measure over those that pass the prefilter; the
    pairs left out measure exactly 0, so the sum is the full pair loop's."""
    d = centers.shape[1]
    if d == 1:
        return kernels.pair_sum_1d(centers[:, 0], slopes[:, 0], lo, hi, side)
    n = centers.shape[0]
    chunks = [
        np.minimum(i, j) * n + np.maximum(i, j)
        for i, j in kernels._candidate_pairs(
            centers[:, 0], slopes[:, 0], float(lo), float(hi), float(side)
        )
    ]
    keys = np.sort(np.concatenate(chunks)) if chunks else []  # i < j, row-major
    total = 0.0
    for key in keys:
        i, j = divmod(int(key), n)
        # equal axis-aligned cubes overlap iff every centre offset is <= side,
        # so this prefilter is exact for the measure computation
        if not intersection_necessary(
            centers[i], slopes[i], centers[j], slopes[j], lo, hi, side
        ):
            continue
        total += pair_measure(
            centers[i], slopes[i], centers[j], slopes[j], lo, hi, side
        )
    return 2.0 * total


# ---------------------------------------------------------------------------
# union volumes
# ---------------------------------------------------------------------------


def _slab_sample_points(M: int, N: int, lo: float, hi: float, samples: int):
    """Midpoint quadrature nodes per M^-N slab of [lo, hi]: (xs, weight)."""
    width = float(M) ** (-N)
    k0 = math.floor(lo / width + 1e-12)
    k1 = math.ceil(hi / width - 1e-12)
    xs = []
    weights = []
    for k in range(k0, k1):
        s0 = max(lo, k * width)
        s1 = min(hi, (k + 1) * width)
        if s1 <= s0:
            continue
        step = (s1 - s0) / samples
        for j in range(samples):
            xs.append(s0 + (j + 0.5) * step)
            weights.append(step)
    return np.asarray(xs), np.asarray(weights)


def union_volume(
    centers: np.ndarray,
    slopes: np.ndarray,
    lo: float,
    hi: float,
    M: int,
    N: int,
    samples: int = 4,
    mc_points: int = 4096,
    seed: int = 0,
) -> tuple[float, float]:
    """Volume of the union of tubes over x1 in [lo, hi], with the
    cross-section union at each quadrature node computed exactly for
    d <= 2 and by Monte Carlo (99% Hoeffding half-width) for d >= 3.

    Returns (volume, confidence half-width); the half-width is 0 for the
    exact dimensions.
    """
    if samples < 1:
        raise ValueError("need at least one quadrature sample per slab")
    d = centers.shape[1]
    side = float(kappa(d)) * float(M) ** (-N)
    xs, weights = _slab_sample_points(M, N, lo, hi, samples)
    if xs.size == 0:
        return 0.0, 0.0
    if d == 1:
        lengths = kernels.union_lengths_1d(centers[:, 0], slopes[:, 0], side, xs)
        return float(np.dot(weights, lengths)), 0.0
    if d == 2:
        corners = centers - side / 2.0
        areas = kernels.union_areas_2d(corners, slopes, side, xs)
        return float(np.dot(weights, areas)), 0.0
    rng = np.random.default_rng(seed)
    total = 0.0
    var_sum = 0.0
    half = side / 2.0
    for x, w in zip(xs, weights):
        pos = centers + x * slopes
        box_lo = pos.min(axis=0) - half
        box_hi = pos.max(axis=0) + half
        box_vol = float(np.prod(box_hi - box_lo))
        pts = rng.uniform(box_lo, box_hi, size=(mc_points, d))
        covered = np.zeros(mc_points, dtype=bool)
        for i in range(pos.shape[0]):
            covered |= (np.abs(pts - pos[i]) <= half).all(axis=1)
        total += w * box_vol * covered.mean()
        var_sum += (w * box_vol) ** 2 / mc_points
    hoeffding = math.sqrt(0.5 * math.log(2.0 / 0.01) * var_sum)
    return total, hoeffding


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


def poss_set(
    p: Sequence[float], dirset: DirectionSet, N: int, d: int
) -> PossSet:
    """Scan every direction, pull the point back to the root hyperplane,
    and keep the root cubes whose shrunk cube contains the pullback."""
    p1 = float(p[0])
    pbar = np.asarray(p[1:], dtype=np.float64)
    if len(pbar) != d:
        raise ValueError("point dimension mismatch")
    M = dirset.spec.M
    side = float(kappa(d)) * float(M) ** (-N)
    half = side / 2.0
    slopes = dirset.slope_floats()
    witnesses: dict[Vertex, list[int]] = {}
    for k in range(slopes.shape[0]):
        base_pt = pbar - p1 * slopes[k]
        if np.any(base_pt < 0.0) or np.any(base_pt >= 1.0):
            continue
        t = encode_cube([float(x) for x in base_pt], N, M, d)
        center = np.array([float(c) for c in cube_center(t, M, d)])
        if np.all(np.abs(base_pt - center) <= half):
            witnesses.setdefault(t, []).append(k)
    return PossSet(point=tuple(float(x) for x in p), witnesses=witnesses)


def poss_set_affine(
    p: Sequence[float], dirset: DirectionSet, N: int, d: int
) -> PossSet:
    """Same set computed through the affine copy of the direction set:
    enumerate candidate cubes around the pulled-back copy and keep those
    whose shrunk cube meets it."""
    p1 = float(p[0])
    pbar = np.asarray(p[1:], dtype=np.float64)
    M = dirset.spec.M
    scale = float(M) ** (-N)
    side = float(kappa(d)) * scale
    half = side / 2.0
    slopes = dirset.slope_floats()
    copy_pts = pbar[None, :] - p1 * slopes  # the affine image of the directions
    witnesses: dict[Vertex, list[int]] = {}
    lo_idx = np.floor((copy_pts.min(axis=0) - half) / scale).astype(int)
    hi_idx = np.floor((copy_pts.max(axis=0) + half) / scale).astype(int)
    lo_idx = np.maximum(lo_idx, 0)
    hi_idx = np.minimum(hi_idx, M**N - 1)
    if np.any(lo_idx > hi_idx):
        return PossSet(point=tuple(float(x) for x in p), witnesses={})
    ranges = [range(lo_idx[a], hi_idx[a] + 1) for a in range(d)]
    for axis_indices in _product_ranges(ranges):
        center = (np.asarray(axis_indices) + 0.5) * scale
        inside = np.all(np.abs(copy_pts - center[None, :]) <= half, axis=1)
        if np.any(inside):
            t = cube_from_axis_indices(axis_indices, N, M, d)
            witnesses[t] = [int(k) for k in np.nonzero(inside)[0]]
    return PossSet(point=tuple(float(x) for x in p), witnesses=witnesses)


def _product_ranges(ranges):
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for rest in _product_ranges(ranges[1:]):
            yield (head,) + rest


class WitnessError(RuntimeError):
    """A possible root had zero or multiple witness directions."""


def unique_far_slope(
    p: Sequence[float], dirset: DirectionSet, N: int, d: int, c0: int
) -> dict[Vertex, tuple[int, Vertex]]:
    """For a point with first coordinate in [C0, C0+1], the unique witness
    direction of every possible root, plus its binary address.

    Raises WitnessError on duplicate witnesses; points violating the
    abscissa precondition are still scanned, so a too-small offset
    constant surfaces as that error rather than silently losing data.
    """
    poss = poss_set(p, dirset, N, d)
    out: dict[Vertex, tuple[int, Vertex]] = {}
    for t, wit in poss.witnesses.items():
        if len(wit) != 1:
            raise WitnessError(
                f"root {t} has {len(wit)} witness directions; "
                "offset constant too small for uniqueness"
            )
        idx = wit[0]
        beta = tuple((idx >> (N - 1 - j)) & 1 for j in range(N))
        out[t] = (idx, beta)
    return out


def sticky_beta_audit(addresses: dict[Vertex, tuple[int, Vertex]]) -> bool:
    """Whether the root -> binary-address map extends as a sticky map:
    roots sharing a level-k cube must share the first k address bits."""
    items = list(addresses.items())
    for i, (t1, (_, b1)) in enumerate(items):
        for t2, (_, b2) in items[i + 1 :]:
            if height(yca(b1, b2)) < height(yca(t1, t2)):
                return False
    return True


# ---------------------------------------------------------------------------
# measures of one realized tube family
# ---------------------------------------------------------------------------


def assignment_arrays(assignment: SlopeAssignment) -> tuple[np.ndarray, np.ndarray]:
    """(centers, slopes) float arrays of the realized family, leaf order."""
    geom = TubeGeometry(M=assignment.M, N=assignment.N, d=assignment.d)
    centers = leaf_centers(geom.M, geom.N, geom.d)
    idx = assignment.all_slope_indices()
    slopes = assignment.dirset.slope_floats()[idx]
    return centers, slopes


def kakeya_measures(
    assignment: SlopeAssignment, samples: int = 4, c0: int | None = None
) -> dict:
    """Volume of the realized union near the root hyperplane ([0,1]) and in
    the far window ([C0, C0+1]), with the implied dilate-ratio bound.

    The length-dilated tubes contain both the far window piece and (after
    translation by 2C0+1 lengths) the near piece, so the dilate ratio is
    at least max(1, near/(4*far)).
    """
    centers, slopes = assignment_arrays(assignment)
    M, N = assignment.M, assignment.N
    if c0 is None:
        c0 = offset_constant(assignment.d, assignment.dirset.lip_lo)
    near, near_ci = union_volume(centers, slopes, 0.0, 1.0, M, N, samples=samples)
    far, far_ci = union_volume(
        centers, slopes, float(c0), float(c0) + 1.0, M, N, samples=samples
    )
    return {
        "near": near,
        "near_ci": near_ci,
        "far": far,
        "far_ci": far_ci,
        "ratio": near / far if far > 0 else math.inf,
        "dilate_ratio_bound": max(1.0, near / (4.0 * far)) if far > 0 else math.inf,
        "c0": c0,
    }


def tube_family(
    dirset: DirectionSet, assignment: SlopeAssignment, c0: int | None = None
) -> list[Tube]:
    """Explicit Tube objects of one realization (small families only)."""
    geom = TubeGeometry(M=assignment.M, N=assignment.N, d=assignment.d)
    if c0 is None:
        c0 = offset_constant(assignment.d, dirset.lip_lo)
    length = Fraction(LENGTH_FACTOR * c0)
    out = []
    for i in range(geom.n_tubes):
        leaf = leaf_from_index(i, geom.M**geom.d, geom.N)
        out.append(
            Tube(
                root=leaf,
                slope=assignment.sigma(leaf),
                geom=geom,
                length=length,
            )
        )
    return out
