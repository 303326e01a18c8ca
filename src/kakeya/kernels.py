"""Hot numeric kernels, vectorized in numpy.

Pair sums and union lengths for d = 1, exact union areas for d = 2, and
bulk edge bits of the sticky fields.  Every kernel has an oracle test in
``tests/test_kernels.py``; ``python3 perfbench/run.py`` times them inside
the experiments that use them.
"""

from __future__ import annotations

import numpy as np

# splitmix64 constants; kakeya.sticky applies the same arithmetic to python ints
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# ---------------------------------------------------------------------------
# keyed pseudorandom bits
#
# bit(node) = lowest bit of splitmix64(key + node_id * GOLDEN), where
# node_id enumerates tree vertices level by level.  The same arithmetic is
# implemented on python ints in kakeya.sticky; the two must agree exactly.
# ---------------------------------------------------------------------------


def node_bits(key: int, node_ids: np.ndarray) -> np.ndarray:
    """Bernoulli(1/2) bits for an array of uint64 tree-node indices."""
    ids = np.ascontiguousarray(node_ids, dtype=np.uint64)
    z = (np.uint64(key) + ids * np.uint64(_GOLDEN)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z & np.uint64(1)).astype(np.uint8)


def leaf_slope_indices(key: int, base: int, depth: int) -> np.ndarray:
    """Binary address (as an integer, first bit most significant) assigned
    to every depth-``depth`` leaf of the full ``base``-adic tree, leaves in
    lexicographic order.

    The address of a leaf is the sequence of edge bits along its ray, so
    the result encodes the full sticky map restricted to the leaves.
    """
    idx = np.zeros(1, dtype=np.uint32)
    offset = np.uint64(0)
    count = 1
    for _ in range(depth):
        offset += np.uint64(count)  # nodes above this level
        count *= base
        ids = offset + np.arange(count, dtype=np.uint64)
        bits = node_bits(key, ids)
        idx = np.repeat(idx, base) * np.uint32(2) + bits.astype(np.uint32)
    return idx


# ---------------------------------------------------------------------------
# pairwise tube-intersection measure, d = 1
#
# Cross-sections are intervals of full width `width` centred at
# c_i + x1 * v_i.  The intersection length of a pair at abscissa x1 is
# max(0, width - |a + b*x1|) with a = c_j - c_i, b = v_j - v_i, and its
# integral over [lo, hi] has the closed form used below (substitute
# u = a + b*x1 and integrate the hat function).
# ---------------------------------------------------------------------------


def pair_sum_1d(
    centers: np.ndarray, slopes: np.ndarray, lo: float, hi: float, width: float
) -> float:
    """Sum over ordered pairs t1 != t2 of |tube(t1) ∩ tube(t2) ∩ slab|,
    for d = 1 tubes with cross-section width ``width`` over x1 in [lo, hi]."""
    c = np.ascontiguousarray(centers, dtype=np.float64)
    v = np.ascontiguousarray(slopes, dtype=np.float64)
    lo, hi, width = float(lo), float(hi), float(width)
    n = c.shape[0]
    chunk = 512
    total = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        a = c[start:stop, None] - c[None, :]
        b = v[start:stop, None] - v[None, :]
        tri = np.tri(stop - start, n, k=start, dtype=bool)  # j <= i mask
        u0 = a + b * lo
        u1 = a + b * hi
        ulo = np.minimum(u0, u1)
        uhi = np.maximum(u0, u1)
        c0 = np.maximum(ulo, -width)
        c1 = np.minimum(uhi, width)
        good = (c1 > c0) & ~tri
        bz = b == 0.0
        g1 = width * c1 - 0.5 * c1 * np.abs(c1)
        g0 = width * c0 - 0.5 * c0 * np.abs(c0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(good & ~bz, (g1 - g0) / np.abs(b), 0.0)
        flat = np.where(
            bz & ~tri, np.maximum(width - np.abs(a), 0.0) * (hi - lo), 0.0
        )
        total += float(vals.sum() + flat.sum())
    return float(2.0 * total)


# ---------------------------------------------------------------------------
# cross-section union lengths, d = 1
#
# For each abscissa in `xs` the cross-sections are n equal-width intervals
# centred at centers + x*slopes; the union length is width + sum of
# min(width, gap) over consecutive sorted centres.
# ---------------------------------------------------------------------------


def union_lengths_1d(
    centers: np.ndarray, slopes: np.ndarray, width: float, xs: np.ndarray
) -> np.ndarray:
    """Length of the union of the n cross-section intervals at each x in xs."""
    c = np.ascontiguousarray(centers, dtype=np.float64)
    v = np.ascontiguousarray(slopes, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    width = float(width)
    out = np.empty(x.shape[0], dtype=np.float64)
    chunk = 64
    for start in range(0, x.shape[0], chunk):
        stop = min(start + chunk, x.shape[0])
        pos = c[None, :] + x[start:stop, None] * v[None, :]
        pos.sort(axis=1)
        gaps = np.minimum(np.diff(pos, axis=1), width)
        out[start:stop] = width + gaps.sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# cross-section union areas, d = 2 (exact sweep over equal squares)
# ---------------------------------------------------------------------------


def _np_union_area_squares(ys, zs, width):
    events = np.sort(np.concatenate([ys, ys + width]))
    area = 0.0
    for y0, y1 in zip(events[:-1], events[1:]):
        if y1 <= y0:
            continue
        act = zs[(ys <= y0) & (y0 < ys + width)]
        if act.size == 0:
            continue
        act = np.sort(act)
        gaps = np.minimum(np.diff(act), width)
        area += (width + gaps.sum()) * (y1 - y0)
    return float(area)


def union_areas_2d(
    centers: np.ndarray, slopes: np.ndarray, width: float, xs: np.ndarray
) -> np.ndarray:
    """Exact union area of the n square cross-sections at each x in xs.

    ``centers`` and ``slopes`` are (n, 2) arrays holding the lower corner
    drift; squares have side ``width``.
    """
    c = np.ascontiguousarray(centers, dtype=np.float64)
    v = np.ascontiguousarray(slopes, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    out = np.empty(x.shape[0], dtype=np.float64)
    for s in range(x.shape[0]):
        ys = c[:, 0] + x[s] * v[:, 0]
        zs = c[:, 1] + x[s] * v[:, 1]
        out[s] = _np_union_area_squares(ys, zs, float(width))
    return out
