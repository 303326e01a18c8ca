import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kakeya import kernels
from kakeya.sticky import MASK64, StickyField, mix64
from kakeya.trees import leaf_from_index
from kakeya.tubes import pair_measure


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
    assert kernels._np_union_area_squares(ys, zs, 0.5) == pytest.approx(3 * 0.25)


def test_union_area_nested_overlap():
    ys = np.array([0.0, 0.1])
    zs = np.array([0.0, 0.1])
    # two unit squares offset by 0.1: union = 2 - (0.9)^2... side 1 squares
    got = kernels._np_union_area_squares(ys, zs, 1.0)
    assert got == pytest.approx(2.0 - 0.9 * 0.9)


def test_node_bits_match_python_int_mix64():
    """uint64 arithmetic against python ints, with ids large enough that
    key + id * GOLDEN wraps around 2^64."""
    key = StickyField(seed=999, base=9).key
    ids = np.random.default_rng(3).integers(0, 1 << 50, 10_000).astype(np.uint64)
    expect = [mix64((key + int(i) * kernels._GOLDEN) & MASK64) & 1 for i in ids]
    assert np.array_equal(kernels.node_bits(key, ids), np.array(expect, dtype=np.uint8))


def test_leaf_slope_indices_match_field():
    f = StickyField(seed=31, base=9)
    idx = kernels.leaf_slope_indices(f.key, 9, 3)
    assert idx.shape == (729,)
    for i in range(0, 729, 37):
        leaf = leaf_from_index(i, 9, 3)
        bits = f.ray_bits(leaf)
        expect = (bits[0] << 2) | (bits[1] << 1) | bits[2]
        assert idx[i] == expect
