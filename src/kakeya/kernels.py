"""Hot numeric kernels, vectorized in numpy.

Pair sums and union lengths for d = 1, exact union measures of equal
cubes for every d >= 2, and bulk edge bits of the sticky fields.  The
d = 1 pair sum scores only the candidate pairs, whose centre hulls over
the slab come within one cross-section width, found by one sort:
O(n log n + K') for K' candidates, not O(n^2).  The d = 1 union sorts one
row of centres per quadrature node and splits the nodes across CPU
threads, one contiguous block each; every row is measured on its own, so
the lengths are byte-identical whatever the split.  Cube unions slice
along the first axes and measure the last two as arrays: every slab's
active cubes form one contiguous slice of the sorted cubes, and one sort
of (slab, corner rank) keys puts every slice's corners in order, with no
padding, at most ``_SLICE_CELLS`` keys at a time.
Every kernel has an oracle test in ``tests/test_kernels.py``;
``python3 perfbench/run.py`` times them inside the experiments that use
them.
"""

from __future__ import annotations

import os
import threading

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
# candidate pairs of one axis
#
# At abscissa x the centre of tube i on one axis is c_i + x * v_i, which
# stays inside the hull [min(c_i + v_i lo, c_i + v_i hi), max(...)] over
# [lo, hi].  Two tubes whose hulls are further apart than `side` have
# |offset| > side on the whole range, so they cannot meet.  Sorting the
# hulls by left end, the partners of the k-th hull are the later hulls whose
# left end is at most its right end + side: one searchsorted per hull, and
# O(n log n + K') for the K' candidate pairs.
# ---------------------------------------------------------------------------

_PAIR_CHUNK = 1 << 12  # candidate pairs handed out at once: 32 KiB per float array
_HULL_SLACK = 1e-9  # relative widening of the reach, above float rounding


def _candidate_pairs(centers, slopes, lo, hi, side):
    """Yield (i, j) index arrays, at most ``_PAIR_CHUNK`` pairs at a time,
    covering every unordered pair of tubes whose centre hulls over
    [lo, hi] come within ``side`` of each other (each pair once, i != j).
    Every pair left out is further than ``side`` apart on all of
    [lo, hi]."""
    chunk = _PAIR_CHUNK
    c = np.asarray(centers, dtype=np.float64)
    v = np.asarray(slopes, dtype=np.float64)
    n = c.shape[0]
    if n < 2:
        return
    p0 = c + v * lo
    p1 = c + v * hi
    left = np.minimum(p0, p1)
    right = np.maximum(p0, p1)
    order = np.argsort(left, kind="stable")
    left = left[order]
    scale = side + max(np.abs(left).max(), np.abs(right).max())
    reach = right[order] + side + _HULL_SLACK * scale
    # partners of sorted hull k: the later hulls whose left end is <= reach[k]
    ks = np.arange(n)
    counts = np.searchsorted(left, reach, side="right") - ks - 1
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1])
    for s in range(0, total, chunk):
        e = min(s + chunk, total)
        k0 = int(np.searchsorted(ends, s, side="right"))
        k1 = int(np.searchsorted(ends, e - 1, side="right")) + 1
        rows = ks[k0:k1]
        take = np.minimum(ends[k0:k1], e) - np.maximum(starts[k0:k1], s)
        first = np.repeat(rows, take)
        second = np.arange(s, e) - np.repeat(starts[k0:k1] - rows - 1, take)
        yield order[first], order[second]


# ---------------------------------------------------------------------------
# pairwise tube-intersection measure, d = 1
#
# Cross-sections are intervals of full width `width` centred at
# c_i + x1 * v_i.  The intersection length of a pair at abscissa x1 is
# max(0, width - |a + b*x1|) with a = c_j - c_i, b = v_j - v_i, and its
# integral over [lo, hi] has the closed form used below (substitute
# u = a + b*x1 and integrate the hat function).  Only the candidate pairs
# are scored; every other pair contributes exactly 0.
# ---------------------------------------------------------------------------


def pair_sum_1d(
    centers: np.ndarray, slopes: np.ndarray, lo: float, hi: float, width: float
) -> float:
    """Sum over ordered pairs t1 != t2 of |tube(t1) ∩ tube(t2) ∩ slab|,
    for d = 1 tubes with cross-section width ``width`` over x1 in [lo, hi].

    Costs O(n log n + K') for the K' pairs whose centre hulls over the
    slab come within ``width``, rather than O(n^2)."""
    c = np.ascontiguousarray(centers, dtype=np.float64)
    v = np.ascontiguousarray(slopes, dtype=np.float64)
    lo, hi, width = float(lo), float(hi), float(width)
    total = 0.0
    for i, j in _candidate_pairs(c, v, lo, hi, width):
        a = c[i] - c[j]
        b = v[i] - v[j]
        u0 = a + b * lo
        u1 = a + b * hi
        c0 = np.maximum(np.minimum(u0, u1), -width)
        c1 = np.minimum(np.maximum(u0, u1), width)
        bz = b == 0.0
        g1 = width * c1 - 0.5 * c1 * np.abs(c1)
        g0 = width * c0 - 0.5 * c0 * np.abs(c0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where((c1 > c0) & ~bz, (g1 - g0) / np.abs(b), 0.0)
        flat = np.where(bz, np.maximum(width - np.abs(a), 0.0) * (hi - lo), 0.0)
        total += float(vals.sum() + flat.sum())
    return float(2.0 * total)


# ---------------------------------------------------------------------------
# cross-section union lengths, d = 1
#
# For each abscissa in `xs` the cross-sections are n equal-width intervals
# centred at centers + x*slopes; the union length is width + sum of
# min(width, gap) over consecutive sorted centres.  Each node's row is
# sorted, differenced and summed on its own, so the nodes are split into
# one contiguous block per CPU, each measured in its own thread (numpy
# releases the GIL in sort and in the ufuncs), and every output is
# byte-identical whatever the split.  A block's position and gap buffers
# are allocated once and filled in place, so its speed does not depend on
# the state of the heap; the rows per thread are cut so that all blocks
# together hold at most _UNION_ROWS rows at once.
# ---------------------------------------------------------------------------

_UNION_ROWS = 64  # abscissae sorted at once, over all threads
_UNION_THREAD_ROWS = 16  # abscissae sorted at once by one thread, at most
_UNION_THREADS = len(os.sched_getaffinity(0))  # CPUs this process may run on


def _union_block(c, v, width, x, out, rows):
    """Fill ``out`` with the union length at each abscissa of ``x``,
    ``rows`` abscissae at a time."""
    pos_buf = np.empty((rows, c.shape[0]), dtype=np.float64)
    gap_buf = np.empty((rows, max(c.shape[0] - 1, 0)), dtype=np.float64)
    for start in range(0, x.shape[0], rows):
        stop = min(start + rows, x.shape[0])
        pos, gaps = pos_buf[: stop - start], gap_buf[: stop - start]
        np.multiply(x[start:stop, None], v[None, :], out=pos)
        pos += c[None, :]
        pos.sort(axis=1)
        np.subtract(pos[:, 1:], pos[:, :-1], out=gaps)
        np.minimum(gaps, width, out=gaps)
        out[start:stop] = width + gaps.sum(axis=1)


def union_lengths_1d(
    centers: np.ndarray, slopes: np.ndarray, width: float, xs: np.ndarray
) -> np.ndarray:
    """Length of the union of the n cross-section intervals at each x in xs.

    The nodes are split into at most ``_UNION_THREADS`` contiguous blocks,
    one per full chunk of rows; the caller's thread measures the first and
    a helper thread each of the others.  An exception in a helper is
    raised here once every block has ended."""
    c = np.ascontiguousarray(centers, dtype=np.float64)
    v = np.ascontiguousarray(slopes, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    width = float(width)
    nodes = x.shape[0]
    out = np.empty(nodes, dtype=np.float64)
    rows = max(1, min(_UNION_THREAD_ROWS, _UNION_ROWS // _UNION_THREADS))
    blocks = max(1, min(_UNION_THREADS, nodes // rows))
    cuts = [nodes * k // blocks for k in range(blocks + 1)]
    errors: list[BaseException] = []

    def helper(lo: int, hi: int) -> None:
        try:
            _union_block(c, v, width, x[lo:hi], out[lo:hi], rows)
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=helper, args=(cuts[k], cuts[k + 1]))
        for k in range(1, blocks)
    ]
    for t in threads:
        t.start()
    try:
        _union_block(c, v, width, x[: cuts[1]], out[: cuts[1]], rows)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return out


# ---------------------------------------------------------------------------
# cross-section union measures, d >= 2: Klee's measure problem by slicing
# (Bentley 1977; Chan, FOCS 2013).  Between consecutive events on the first
# axis the active cubes are fixed, so the measure is the sum of each gap
# times the (k-1)-dimensional union of the active cubes.  On the last two
# axes every gap is measured at once: the active cubes of a gap are one
# contiguous slice of the cubes sorted by corner, each slice's cubes are
# keyed (gap, rank of the last corner) and all keys are sorted together,
# so every gap's corners come out in order, and each gap takes the d = 1
# sorted-gap formula over its own run of corners.
# ---------------------------------------------------------------------------

_SLICE_CELLS = 1 << 16  # (gap, cube) keys sorted at once, unless one gap holds more


def _union_measure_cubes(lo, side):
    """Exact measure of the union of equal axis-aligned cubes of side
    ``side`` with (n, k) lower corners ``lo``, k >= 2.  Small inputs are
    the common case in the recursion, so array methods stand in for the
    slower numpy functions of the same name."""
    n = lo.shape[0]
    lo = lo.take(lo[:, 0].argsort(), axis=0)  # ties leave the measure as it is
    events = np.concatenate([lo[:, 0], lo[:, 0] + side])
    order = events.argsort(kind="stable")  # a merge of two sorted runs
    events = events.take(order)
    gaps = events[1:] - events[:-1]
    stop = (order < n).cumsum()[:-1]  # cubes started by each gap's left event
    first = np.arange(1, 2 * n) - stop  # cubes ended by then
    live = np.flatnonzero((gaps > 0) & (first < stop))
    gaps, first, stop = gaps.take(live), first.take(live), stop.take(live)
    measure = 0.0
    if lo.shape[1] > 2:
        for g, i, j in zip(gaps.tolist(), first.tolist(), stop.tolist()):
            measure += _union_measure_cubes(lo[i:j, 1:], side) * g
        return measure
    by_corner = lo[:, 1].argsort()
    corners = lo[:, 1].take(by_corner)
    rank = np.empty(n, dtype=np.int64)
    rank[by_corner] = np.arange(n)
    counts = stop - first
    ends = counts.cumsum()
    cut = 0
    while cut < gaps.size:  # gaps [cut, nxt) hold at most _SLICE_CELLS cubes, or one gap
        begin = ends[cut] - counts[cut]
        nxt = max(cut + 1, int(ends.searchsorted(begin + _SLICE_CELLS, side="right")))
        size = counts[cut:nxt]
        starts = ends[cut:nxt] - size - begin  # of each gap's run of keys
        base = (np.arange(nxt - cut) * n).repeat(size)
        keys = base + rank.take(np.arange(base.size) + (first[cut:nxt] - starts).repeat(size))
        keys.sort()
        z = corners.take(keys - base)
        steps = np.minimum(z[1:] - z[:-1], side)
        steps[starts[1:] - 1] = 0.0  # no step across two gaps
        lengths = side + np.add.reduceat(np.concatenate([[0.0], steps]), starts)
        measure += float(np.dot(gaps[cut:nxt], lengths))
        cut = nxt
    return measure


def union_areas_2d(
    centers: np.ndarray, slopes: np.ndarray, width: float, xs: np.ndarray
) -> np.ndarray:
    """Exact union measure of the n cube cross-sections at each x in xs.

    ``centers`` and ``slopes`` are (n, d) arrays, d >= 2, holding the lower
    corner drift; cubes have side ``width``.  Each node slices the cubes
    along the first axis.  With one side for all, the upper corners
    lo + side keep the order of the lower ones, so the cubes active at an
    event y0 (lo <= y0 < lo + side) are one contiguous slice of the cubes
    sorted by lo.  Its ends are the counts of upper and lower corners
    among the events up to y0, read from one stable argsort of the lower
    corners followed by the upper ones: a merge of two sorted runs.
    """
    c = np.ascontiguousarray(centers, dtype=np.float64)
    v = np.ascontiguousarray(slopes, dtype=np.float64)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    out = np.empty(x.shape[0], dtype=np.float64)
    for s in range(x.shape[0]):
        out[s] = _union_measure_cubes(c + x[s] * v, float(width))
    return out
