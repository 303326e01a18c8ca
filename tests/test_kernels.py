import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kakeya import kernels
from kakeya.cantor import CantorSpec, builtin_curve, direction_set
from kakeya.harness import ExperimentConfig, canonical_json, volume_sweep
from kakeya.sticky import MASK64, SlopeAssignment, field_key, mix64
from kakeya.trees import leaf_from_index
from kakeya.tubes import _slab_sample_points, assignment_arrays, cross_section_side, pair_measure
from oracles import ray_bits


@pytest.fixture(scope="module")
def family():
    rng = np.random.default_rng(42)
    n = 400
    centers = rng.uniform(0.0, 1.0, n)
    slopes = rng.uniform(-1.0, 1.0, n)
    width = 1.0 / (6.0 * n)
    return centers, slopes, width


def _pair_sum_oracle(c, v, lo, hi, w):
    """Ordered double loop of the exact scalar pair measure."""
    total = 0.0
    for i in range(len(c)):
        for j in range(len(c)):
            if i != j:
                total += pair_measure([c[i]], [v[i]], [c[j]], [v[j]], lo, hi, w)
    return total


def test_pair_sum_matches_scalar_measure(family):
    c, v, w = family
    c, v = c[:60], v[:60]
    total = _pair_sum_oracle(c, v, 0.1, 0.5, w)
    assert kernels.pair_sum_1d(c, v, 0.1, 0.5, w) == pytest.approx(total, rel=1e-9)


# coarse grids, so that coincident centres and equal slopes (b = 0) are common
_grid_centers = st.integers(0, 32).map(lambda k: k / 32)
_grid_slopes = st.integers(-8, 8).map(lambda k: k / 8)


@settings(max_examples=60, deadline=None)
@given(
    tubes=st.lists(st.tuples(_grid_centers, _grid_slopes), min_size=2, max_size=40),
    lo=st.integers(-16, 16).map(lambda k: k / 8),
    span=st.integers(0, 8).map(lambda k: k / 8),
    width=st.sampled_from([1 / 96, 1 / 16, 0.25, 10.0]),
)
def test_pair_sum_candidates_match_scalar_measure(tubes, lo, span, width):
    """Equal slopes, coincident centres, negative slopes, lo = hi, and with
    width 10 every pair is a candidate."""
    c = np.array([t[0] for t in tubes])
    v = np.array([t[1] for t in tubes])
    hi = lo + span
    expect = _pair_sum_oracle(c, v, lo, hi, width)
    assert kernels.pair_sum_1d(c, v, lo, hi, width) == pytest.approx(
        expect, rel=1e-10, abs=0.0
    )


def test_candidate_pairs_across_chunk_boundaries(family, monkeypatch):
    c, v, w = family
    c, v, w = c[:80], v[:80], 8 * w
    lo, hi = 0.2, 0.35
    full = kernels.pair_sum_1d(c, v, lo, hi, w)
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", 3)
    chunks = list(kernels._candidate_pairs(c, v, lo, hi, w))
    assert len(chunks) > 10 and all(len(i) == len(j) <= 3 for i, j in chunks)
    got = {frozenset((int(a), int(b))) for i, j in chunks for a, b in zip(i, j)}
    assert sum(len(i) for i, _ in chunks) == len(got)  # each pair once, i != j
    assert all(len(pair) == 2 for pair in got)
    # brute force: every pair whose centre hulls come within w is a candidate
    p0, p1 = c + v * lo, c + v * hi
    left, right = np.minimum(p0, p1), np.maximum(p0, p1)
    near = {
        frozenset((i, j))
        for i in range(len(c))
        for j in range(i + 1, len(c))
        if max(left[i], left[j]) - min(right[i], right[j]) <= w
    }
    assert near <= got
    assert len(got) < len(c) * (len(c) - 1) // 2  # the family is pruned
    assert kernels.pair_sum_1d(c, v, lo, hi, w) == pytest.approx(full, rel=1e-12)
    assert full == pytest.approx(_pair_sum_oracle(c, v, lo, hi, w), rel=1e-10)


def test_pair_sum_across_default_chunks(family):
    """With every pair a candidate, 130 tubes give 8,385 pairs: three
    chunks of the default size, summed chunk by chunk."""
    c, v, _ = family
    c, v = c[:130], v[:130]
    chunks = list(kernels._candidate_pairs(c, v, 0.1, 0.4, 10.0))
    assert [len(i) for i, _ in chunks] == [kernels._PAIR_CHUNK] * 2 + [8385 - 2 * kernels._PAIR_CHUNK]
    expect = _pair_sum_oracle(c, v, 0.1, 0.4, 10.0)
    assert kernels.pair_sum_1d(c, v, 0.1, 0.4, 10.0) == pytest.approx(expect, rel=1e-12, abs=0.0)


def _union_lengths_per_chunk(centers, slopes, width, xs):
    """The d = 1 union kernel with fresh arrays for every chunk of 64
    abscissae, as it was before its buffers."""
    out = np.empty(xs.shape[0], dtype=np.float64)
    for start in range(0, xs.shape[0], 64):
        stop = min(start + 64, xs.shape[0])
        pos = centers[None, :] + xs[start:stop, None] * slopes[None, :]
        pos.sort(axis=1)
        gaps = np.minimum(np.diff(pos, axis=1), width)
        out[start:stop] = width + gaps.sum(axis=1)
    return out


@pytest.mark.parametrize("n", [1, 2, 3**5])
@pytest.mark.parametrize("nodes", [0, 1, 63, 64, 65, 129])
def test_union_lengths_buffers_match_per_chunk_arrays(n, nodes):
    """Filling the buffers in place, in blocks of rows split across
    threads, changes no bit: same operations, same contiguous rows to sum."""
    rng = np.random.default_rng(1000 * n + nodes)
    c, v = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    xs = rng.uniform(0.0, 3.0, nodes)
    width = 1.0 / (6.0 * n)
    got = kernels.union_lengths_1d(c, v, width, xs)
    expect = _union_lengths_per_chunk(c, v, width, xs)
    assert got.shape == (nodes,) and np.array_equal(got, expect)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_union_lengths_split_equals_one_node_calls(monkeypatch, threads):
    """A d=1 N=7 family, near and far windows: the whole array of nodes,
    split into blocks across threads, gives byte for byte the lengths of
    one-node calls, which start no thread."""
    monkeypatch.setattr(kernels, "_UNION_THREADS", threads)
    dirset = direction_set(CantorSpec(3, 7), builtin_curve("affine", 1))
    centers, slopes = assignment_arrays(SlopeAssignment(dirset, 3))
    c, v, side = centers[:, 0], slopes[:, 0], cross_section_side(3, 7, 1)
    for lo in (0.0, float(dirset.c0)):
        xs, _ = _slab_sample_points(3, 7, lo, lo + 1.0, 2)
        whole = kernels.union_lengths_1d(c, v, side, xs)
        single = [kernels.union_lengths_1d(c, v, side, xs[k : k + 1]) for k in range(xs.size)]
        assert whole.tobytes() == np.concatenate(single).tobytes()


def test_union_lengths_helper_threads_run(monkeypatch):
    """Wrap ``threading.Thread`` so that every helper records the thread it
    ran in."""
    threads = max(kernels._UNION_THREADS, 2)
    monkeypatch.setattr(kernels, "_UNION_THREADS", threads)
    ran = []
    plain = threading.Thread

    def wrapped(target, args):
        def record(*a):
            ran.append(threading.current_thread())
            target(*a)

        return plain(target=record, args=args)

    monkeypatch.setattr(threading, "Thread", wrapped)
    rng = np.random.default_rng(5)
    c, v = rng.uniform(0.0, 1.0, 50), rng.uniform(-1.0, 1.0, 50)
    xs = rng.uniform(0.0, 3.0, 64 * threads)
    got = kernels.union_lengths_1d(c, v, 0.01, xs)
    assert len(ran) == threads - 1
    assert threading.current_thread() not in ran and len(set(ran)) == threads - 1
    assert np.array_equal(got, _union_lengths_per_chunk(c, v, 0.01, xs))
    ran.clear()
    kernels.union_lengths_1d(c, v, 0.01, xs[:1])
    assert ran == []


def test_union_lengths_helper_exception_reaches_caller(monkeypatch):
    monkeypatch.setattr(kernels, "_UNION_THREADS", 2)
    plain = kernels._union_block
    caller = threading.get_ident()

    def failing(*args):
        if threading.get_ident() != caller:
            raise FloatingPointError("helper block failed")
        plain(*args)

    monkeypatch.setattr(kernels, "_union_block", failing)
    rng = np.random.default_rng(6)
    with pytest.raises(FloatingPointError, match="helper block failed"):
        kernels.union_lengths_1d(rng.uniform(size=20), rng.uniform(size=20), 0.01, rng.uniform(size=200))


def test_volume_sweep_same_at_one_and_two_threads(monkeypatch):
    cfg = ExperimentConfig(M=3, d=1, n_values=(6, 7), samples=2, quadrature=4, seed=0)
    records = []
    for threads in (1, 2):
        monkeypatch.setattr(kernels, "_UNION_THREADS", threads)
        records.append(canonical_json(volume_sweep(cfg)))
    assert records[0] == records[1]


def test_union_lengths_against_merge_oracle(family):
    c, v, w = family
    xs = np.array([0.0, 0.3, 1.7])
    got = kernels.union_lengths_1d(c, v, w, xs)
    for k, x in enumerate(xs):
        intervals = sorted((ci + x * vi, ci + x * vi + w) for ci, vi in zip(c, v))
        total = 0.0
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        total += cur_hi - cur_lo
        assert got[k] == pytest.approx(total, rel=1e-12)


def test_union_area_disjoint_squares_exact():
    ys = np.array([0.0, 1.0, 2.5])
    zs = np.array([0.0, 0.0, 1.0])
    got = kernels._union_measure_cubes(np.column_stack([ys, zs]), 0.5)
    assert got == pytest.approx(3 * 0.25)


def test_union_area_nested_overlap():
    ys = np.array([0.0, 0.1])
    zs = np.array([0.0, 0.1])
    # two unit squares offset by 0.1: union = 2 - (0.9)^2... side 1 squares
    got = kernels._union_measure_cubes(np.column_stack([ys, zs]), 1.0)
    assert got == pytest.approx(2.0 - 0.9 * 0.9)


def _cell_union_oracle(lo, side):
    """Coordinate-compressed cells: the unique cube edges on each axis cut
    space into boxes, and a box counts when its midpoint lies in a cube."""
    hi = lo + side
    edges = [np.unique(np.concatenate([lo[:, a], hi[:, a]])) for a in range(lo.shape[1])]
    mids = np.meshgrid(*[(e[:-1] + e[1:]) / 2 for e in edges], indexing="ij")
    sizes = np.meshgrid(*[np.diff(e) for e in edges], indexing="ij")
    pts = np.stack([m.ravel() for m in mids], axis=1)
    covered = ((pts[:, None, :] >= lo[None]) & (pts[:, None, :] < hi[None])).all(axis=2).any(axis=1)
    return float(np.prod([s.ravel() for s in sizes], axis=0)[covered].sum())


# corners on a coarse grid, so that shared edges, coincident and disjoint
# cubes all occur
_grid_corner = st.integers(0, 12).map(lambda k: k / 8)
_grid_drift = st.integers(-2, 2).map(lambda k: k / 4)


def _grid_rows(values, n, d):
    return st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n)


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    data=st.data(),
    side=st.sampled_from([1 / 8, 1 / 4, 0.3, 1.0]),
    x=st.sampled_from([0.0, 0.5, 1.25]),
)
def test_union_areas_match_cell_oracle(d, data, side, x):
    """Exact union of equal cubes in d = 2 and 3, drifted to abscissa x."""
    n = data.draw(st.integers(1, 8))
    c = np.array(data.draw(_grid_rows(_grid_corner, n, d)))
    v = np.array(data.draw(_grid_rows(_grid_drift, n, d)))
    got = kernels.union_areas_2d(c, v, side, np.array([x]))
    expect = _cell_union_oracle(c + x * v, side)
    assert got[0] == pytest.approx(expect, rel=1e-12, abs=0.0)


def _slicing_union_oracle(lo, side):
    """Per-event slicing recursion, one Python step per event: the union
    measure of equal cubes of side ``side`` with (n, k) lower corners."""
    if lo.shape[1] == 1:
        return float(side + np.minimum(np.diff(np.sort(lo[:, 0])), side).sum())
    lo = lo[np.argsort(lo[:, 0], kind="stable")]
    starts = lo[:, 0]
    ends = starts + side
    events = np.sort(np.concatenate([starts, ends]))
    first = np.searchsorted(ends, events, side="right").tolist()
    stop = np.searchsorted(starts, events, side="right").tolist()
    ys = events.tolist()
    measure = 0.0
    for y0, y1, i, j in zip(ys, ys[1:], first, stop):
        if y1 > y0 and i < j:
            measure += _slicing_union_oracle(lo[i:j, 1:], side) * (y1 - y0)
    return measure


def _union_against_slicing_oracle(corners, slopes, side, xs):
    """``union_areas_2d`` with every float warning an error, against the
    per-event recursion at each node."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = kernels.union_areas_2d(corners, slopes, side, xs)
    expect = [_slicing_union_oracle(corners + x * slopes, side) for x in xs]
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d, N", [(2, 3), (3, 2)])
def test_union_areas_of_realized_family_match_slicing_oracle(d, N):
    """The 729 cubes of a sampled moment-curve family, near the root
    hyperplane and in the far window."""
    dirset = direction_set(CantorSpec(3, N), builtin_curve("moment", d))
    centers, slopes = assignment_arrays(SlopeAssignment(dirset, 5))
    assert centers.shape == (729, d)
    side = cross_section_side(3, N, d)
    c0 = dirset.c0
    xs = np.array([0.0, 0.3, 0.8, c0 + 0.1, c0 + 0.55, c0 + 1.0])
    _union_against_slicing_oracle(centers - side / 2, slopes, side, xs)


@pytest.mark.parametrize("cells", [kernels._SLICE_CELLS, 100, 7])
def test_union_areas_with_uneven_slices(monkeypatch, cells):
    """A cluster of 300 cubes that overlap on the first axis beside 300
    cubes spread one by one: slices of one cube next to slices of up to
    300, measured in one sort of keys, in chunks of the cell cap, or one
    gap at a time where a gap holds more cubes than the cap."""
    monkeypatch.setattr(kernels, "_SLICE_CELLS", cells)
    rng = np.random.default_rng(12)
    side = 0.01
    first = np.concatenate([rng.uniform(0.0, side, 300), rng.uniform(0.1, 9.0, 300)])
    corners = np.column_stack([first, rng.uniform(0.0, 0.5, 600)])
    slopes = np.column_stack([np.zeros(600), rng.uniform(-0.1, 0.1, 600)])
    _union_against_slicing_oracle(corners, slopes, side, np.array([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("cells", [kernels._SLICE_CELLS, 100])
def test_union_areas_with_every_cube_active(monkeypatch, cells):
    """All n cubes overlap on the first axis, so one slab's slice holds
    every cube (L = n): the slabs come in chunks of the cell cap, and with
    a cap below n one slab at a time."""
    monkeypatch.setattr(kernels, "_SLICE_CELLS", cells)
    rng = np.random.default_rng(11)
    n, side = 729, 0.01
    corners = np.column_stack([rng.uniform(0.0, side / 2, n), rng.uniform(0.0, 3.0, n)])
    assert corners[:, 0].max() < corners[:, 0].min() + side  # a common slab
    slopes = np.zeros_like(corners)
    _union_against_slicing_oracle(corners, slopes, side, np.array([0.0]))


def test_node_bits_match_python_int_mix64():
    """uint64 arithmetic against python ints, with ids large enough that
    key + id * GOLDEN wraps around 2^64."""
    key = field_key(999, 9)
    ids = np.random.default_rng(3).integers(0, 1 << 50, 10_000).astype(np.uint64)
    expect = [mix64((key + int(i) * kernels._GOLDEN) & MASK64) & 1 for i in ids]
    assert np.array_equal(kernels.node_bits(key, ids), np.array(expect, dtype=np.uint8))


def test_leaf_slope_indices_match_field():
    key = field_key(31, 9)
    idx = kernels.leaf_slope_indices(key, 9, 3)
    assert idx.shape == (729,)
    for i in range(0, 729, 37):
        leaf = leaf_from_index(i, 9, 3)
        bits = ray_bits(key, 9, leaf)
        expect = (bits[0] << 2) | (bits[1] << 1) | bits[2]
        assert idx[i] == expect
