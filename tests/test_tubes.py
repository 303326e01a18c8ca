import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from kakeya import kernels, tubes
from kakeya.cantor import CantorSpec, affine_curve, builtin_curve, direction_set, moment_curve
from kakeya.sticky import SlopeAssignment, sticky_admissible
from kakeya.trees import FiniteTree, cube_from_axis_indices, decode_cube, height, leaf_from_index, yca
from kakeya.tubes import (
    WitnessError,
    assignment_arrays,
    cross_section_side,
    grid_offsets,
    intersection_necessary,
    kakeya_measures,
    kappa,
    leaf_centers,
    pair_measure,
    pair_sum_over_range,
    poss_set,
    poss_sets,
    union_volume,
    unique_far_slope,
)
from far_points import aimed_point
from oracles import poss_set_affine

F = Fraction


def _quad_oracle(a, b, lo, hi, side):
    """Adaptive quadrature of the cross-section overlap, kinks supplied."""
    d = len(a)

    def f(x):
        out = 1.0
        for i in range(d):
            out *= max(0.0, side - abs(a[i] + b[i] * x))
        return out

    pts = sorted(
        {
            (t - a[i]) / b[i]
            for i in range(d)
            if b[i]
            for t in (-side, 0.0, side)
            if lo < (t - a[i]) / b[i] < hi
        }
    )
    val, _ = quad(f, lo, hi, points=pts or None, limit=200)
    return val


def test_kappa_values():
    assert kappa(1) == F(1, 6)
    assert kappa(2) == F(1, 8)
    assert kappa(3) == F(1, 27)
    # separation inequality (1 - 2*kappa*sqrt(d)) >= kappa
    for d in range(1, 5):
        k = float(kappa(d))
        assert 1 - 2 * k * math.sqrt(d) >= k


def test_parallel_distinct_roots_never_necessary():
    side = float(kappa(1)) / 9
    thresh = 2 * float(kappa(1)) * math.sqrt(1) / 9
    assert not intersection_necessary([0.5 / 9], [0.3], [1.5 / 9], [0.3], 0, 20, thresh)


def test_drift_cancel_is_necessary():
    # offset one cube, slopes chosen so the offset cancels at x = 1/2
    side = float(kappa(1)) / 9
    thresh = 2 * float(kappa(1)) / 9
    c1, c2 = 0.5 / 9, 1.5 / 9
    v1, v2 = 0.5, 0.5 - 2 * (c2 - c1)
    assert intersection_necessary([c1], [v1], [c2], [v2], 0, 1, thresh)
    assert pair_measure([c1], [v1], [c2], [v2], 0, 1, side) > 0


def test_no_false_negatives_random():
    rng = random.Random(5)
    side = float(kappa(1)) / 81
    thresh = 2 * float(kappa(1)) / 81
    for _ in range(10_000):
        c1, c2 = rng.random(), rng.random()
        v1, v2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        m = pair_measure([c1], [v1], [c2], [v2], 0.0, 2.0, side)
        if m > 0:
            assert intersection_necessary([c1], [v1], [c2], [v2], 0.0, 2.0, thresh)


def test_identical_tubes_slab_measure():
    # cross-section area times slab width
    M, N, d = 3, 2, 1
    side = float(kappa(d)) * 3.0**-N
    m = pair_measure([0.5], [0.2], [0.5], [0.2], 0.0, 1 / 9, side)
    assert m == pytest.approx(side * (1 / 9), rel=1e-12)


def test_disjoint_parallel_zero():
    side = float(kappa(1)) / 9
    assert pair_measure([0.1], [0.5], [0.9], [0.5], 0.0, 20.0, side) == 0.0


def test_pair_measure_quadrature_oracle_d1():
    rng = random.Random(6)
    side = float(kappa(1)) / 81
    for _ in range(300):
        a = [rng.uniform(-0.05, 0.05)]
        b = [rng.uniform(-0.5, 0.5)]
        closed = pair_measure([0.0], [0.0], a, b, 0.0, 2.0, side)
        ref = _quad_oracle(a, b, 0.0, 2.0, side)
        if ref > 1e-15:
            assert closed == pytest.approx(ref, rel=1e-12)


def test_pair_measure_quadrature_oracle_d2():
    rng = random.Random(7)
    side = float(kappa(2)) / 81
    for _ in range(150):
        a = [rng.uniform(-0.02, 0.02) for _ in range(2)]
        b = [rng.uniform(-0.3, 0.3) for _ in range(2)]
        closed = pair_measure([0.0, 0.0], [0.0, 0.0], a, b, 0.0, 1.5, side)
        ref = _quad_oracle(a, b, 0.0, 1.5, side)
        if ref > 1e-16:
            assert closed == pytest.approx(ref, rel=1e-11)


def test_pair_measure_symmetric_and_capped():
    rng = random.Random(8)
    side = float(kappa(1)) / 27
    for _ in range(500):
        c1, c2 = rng.random(), rng.random()
        v1, v2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        m12 = pair_measure([c1], [v1], [c2], [v2], 0.0, 2.0, side)
        m21 = pair_measure([c2], [v2], [c1], [v1], 0.0, 2.0, side)
        assert m12 == pytest.approx(m21, abs=1e-18)
        assert m12 <= side * 2.0 + 1e-12
        if m12 > 0 and abs(c1 - c2) >= side:
            # tubes whose root cross-sections are disjoint meet only by drift
            assert 2.0 * abs(v2 - v1) >= side - 1e-12


def test_pair_sum_matches_pairwise_loop_d2():
    """Every tube of a depth-1 grid family in its own slope class."""
    centers = leaf_centers(3, 1, 2)
    rng = np.random.default_rng(9)
    slopes = rng.uniform(-0.5, 0.5, centers.shape)
    side = cross_section_side(3, 1, 2)
    total = 0.0
    n = centers.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                total += pair_measure(
                    centers[i], slopes[i], centers[j], slopes[j], 0.0, 1.0, side
                )
    got = pair_sum_over_range(3, 1, np.arange(9), slopes, 0.0, 1.0)
    assert got == pytest.approx(total, rel=1e-9)


def test_pair_sum_d2_equals_pair_loop_exactly(monkeypatch):
    """The grid-offset candidates prune pairs but the survivors are added
    in the order of the full i < j loop, so the sum is bit-identical, also
    when the candidates come in many chunks of _PAIR_CHUNK // d pairs."""
    rng = np.random.default_rng(17)
    M, N, n = 4, 2, 256
    table = rng.uniform(-1.0, 1.0, (16, 2))
    idx = rng.integers(0, 16, n)
    lo, hi = 0.1, 0.5
    expect = _pair_loop_oracle(leaf_centers(M, N, 2), table[idx], lo, hi, cross_section_side(M, N, 2))
    candidates = tubes._family_pairs(M, N, idx, table, lo, hi)[0].size
    assert expect > 0.0
    assert candidates < n * (n - 1) // 40  # most pairs are pruned
    assert pair_sum_over_range(M, N, idx, table, lo, hi) == expect
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", 32)  # 16 pairs a chunk at d = 2
    assert candidates > 10 * 16
    assert pair_sum_over_range(M, N, idx, table, lo, hi) == expect


def _pair_loop_oracle(centers, slopes, lo, hi, side):
    """The scalar i < j loop: prefilter, then exact measure."""
    total = 0.0
    n = centers.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if intersection_necessary(
                centers[i], slopes[i], centers[j], slopes[j], lo, hi, side
            ):
                total += pair_measure(
                    centers[i], slopes[i], centers[j], slopes[j], lo, hi, side
                )
    return 2.0 * total


def _pair_sum_sweep(centers, slopes, lo, hi, side):
    """Oracle of the d >= 2 pair sum for arbitrary centres and slopes: the
    candidate pairs of the first axis from the d = 1 sweep, measured by
    ``pair_measure``, the non-zero measures added in key order i * n + j
    (i < j) as the full loop adds them.  Returns the sum over ordered
    pairs and the keys of the pairs with a non-zero measure, in order."""
    n = centers.shape[0]
    keys, measures = [np.empty(0, np.int64)], [np.empty(0)]
    for i, j in kernels._candidate_pairs(centers[:, 0], slopes[:, 0], lo, hi, side):
        i, j = np.minimum(i, j), np.maximum(i, j)
        measure = pair_measure(centers[i], slopes[i], centers[j], slopes[j], lo, hi, side)
        kept = measure > 0.0
        keys.append(i[kept] * n + j[kept])
        measures.append(measure[kept])
    order = np.argsort(np.concatenate(keys))
    total = 0.0
    for m in np.concatenate(measures)[order].tolist():
        total += m
    return 2.0 * total, np.concatenate(keys)[order]


@pytest.mark.parametrize(
    "curve, d, N, R",
    [
        ("moment", 2, 2, 0),
        ("moment", 2, 3, 0),
        ("moment", 2, 3, 1),
        ("moment", 2, 4, 2),
        ("affine", 2, 2, 1),
        ("affine", 2, 3, 0),
        ("affine", 2, 4, 1),
        ("moment", 3, 2, 0),
        ("moment", 3, 3, 1),
    ],
)
def test_grid_offset_pairs_equal_first_axis_sweep(curve, d, N, R):
    """A sampled realized family: the grid-offset candidates are exactly
    the pairs the first-axis sweep keeps, and the sums are ==.  R = 0 is
    the slab nearest the root.  A class paired with itself (b = 0 on every
    axis) admits only offset 0, its own tube, which i < j drops."""
    dirset = direction_set(CantorSpec(3, N), builtin_curve(curve, d))
    idx = SlopeAssignment(dirset, 5).all_slope_indices()
    table = dirset.slope_floats()
    lo, hi = 3.0 ** (R - N), 3.0 ** (R + 1 - N)
    centers, side = leaf_centers(3, N, d), cross_section_side(3, N, d)
    k, l, delta = grid_offsets(table, lo, hi, 3, N)
    assert sorted(k[k == l].tolist()) == list(range(dirset.n))
    assert not delta[k == l].any()
    i, j = tubes._family_pairs(3, N, idx, table, lo, hi)
    expect, keys = _pair_sum_sweep(centers, table[idx], lo, hi, side)
    assert np.array_equal(i * centers.shape[0] + j, keys)
    assert pair_sum_over_range(3, N, idx, table, lo, hi) == expect


def _quarter_rows(d):
    """One to four slope rows of d components on a 1/4 grid."""
    component = st.integers(-4, 4).map(lambda k: k / 4)
    return st.lists(st.lists(component, min_size=d, max_size=d), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3)]),
    data=st.data(),
    lo=st.integers(-4, 4).map(lambda k: k / 4),
    span=st.integers(0, 4).map(lambda k: k / 4),
)
def test_grid_family_pair_sum_equals_scalar_pair_loop(shape, data, lo, span):
    """Slope tables on a 1/4 grid, so that classes sharing a slope
    component (b = 0 on an axis) and offsets of exactly one side are
    common: the grid-offset sum is == to the scalar i < j loop's, and the
    offsets of every class pair hold every offset a brute-force scan of a
    box finds."""
    M, N, d = shape
    table, n = np.array(data.draw(_quarter_rows(d))), M ** (N * d)
    idx = np.array(data.draw(st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n)))
    hi, side, step = lo + span, cross_section_side(M, N, d), float(M) ** -N
    expect = _pair_loop_oracle(leaf_centers(M, N, d), table[idx], lo, hi, side)
    assert pair_sum_over_range(M, N, idx, table, lo, hi) == expect
    k, l, delta = grid_offsets(table, lo, hi, M, N)
    got = set(zip(k.tolist(), l.tolist(), map(tuple, delta.tolist())))
    reach = math.ceil((side + max(abs(lo), abs(hi)) * np.ptp(table, axis=0).max()) / step)
    box = range(-reach - 1, reach + 2)
    for a, b in itertools.product(range(len(table)), repeat=2):
        for offset in itertools.product(box, repeat=d):
            meets = intersection_necessary(
                [0.0] * d, table[a], [o * step for o in offset], table[b], lo, hi, side
            )
            assert not meets or (a, b, offset) in got


def _grid_tubes(d, n):
    """Centres on a 1/8 grid and slopes on a 1/4 grid: equal slope
    components (b = 0 on an axis) and offsets of exactly one side are
    common."""
    row = lambda values: st.lists(values, min_size=d, max_size=d)
    centre = st.integers(0, 8).map(lambda k: k / 8)
    slope = st.integers(-4, 4).map(lambda k: k / 4)
    return st.lists(st.tuples(row(centre), row(slope)), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@example(
    # b = 0 on the first axis with offsets +side (tubes 0, 1), -side
    # (1, 2) and below side (0, 3); tubes 0 and 2 come within side only at hi
    family=[
        ([0.0, 0.5], [0.5, 0.25]),
        ([0.125, 0.25], [0.5, 0.5]),
        ([0.0, 0.75], [0.5, 0.125]),
        ([0.0625, 0.5], [0.5, 0.25]),
    ],
    lo=0.0,
    span=1.0,
    side=0.125,
)
@given(
    family=st.sampled_from([2, 3]).flatmap(
        lambda d: st.integers(2, 12).flatmap(lambda n: _grid_tubes(d, n))
    ),
    lo=st.integers(-4, 4).map(lambda k: k / 4),
    span=st.integers(0, 4).map(lambda k: k / 4),
    side=st.sampled_from([0.125, 0.25, 0.3]),
)
def test_pair_sum_equals_scalar_pair_loop(family, lo, span, side):
    """d = 2 and 3, arbitrary centres: the first-axis sweep oracle, whose
    array prefilter in ``pair_measure`` keeps exactly the pairs the scalar
    test keeps, by the same float operations, and adds the survivors in
    the loop's order, so the sums are ==."""
    centers = np.array([t[0] for t in family], dtype=np.float64)
    slopes = np.array([t[1] for t in family], dtype=np.float64)
    hi = lo + span
    expect = _pair_loop_oracle(centers, slopes, lo, hi, side)
    assert _pair_sum_sweep(centers, slopes, lo, hi, side)[0] == expect


@settings(max_examples=60, deadline=None)
@example(
    # b = 0 with an offset of exactly side (pair 0), and a pair whose
    # overlap range [0.5, 1.5] meets [lo, hi] = [0, 0.5] only at hi (pair 1)
    family=[
        ([0.0, 0.5], [0.25, 0.5]),
        ([0.125, 0.5], [0.25, 0.0]),
        ([0.0, 0.5], [0.25, 0.5]),
        ([0.25, 0.5], [0.0, 0.5]),
    ],
    lo=0.0,
    span=0.5,
    side=0.125,
)
@example(family=[([0.5], [0.25]), ([0.5], [0.25])], lo=0.25, span=0.0, side=0.25)
@example(family=[([0.5], [0.25]), ([0.5], [0.25])], lo=0.25, span=-0.25, side=0.25)
@given(
    family=st.sampled_from([1, 2, 3]).flatmap(
        lambda d: st.integers(1, 8).flatmap(lambda n: _grid_tubes(d, 2 * n))
    ),
    lo=st.integers(-4, 4).map(lambda k: k / 4),
    span=st.integers(-1, 4).map(lambda k: k / 4),
    side=st.sampled_from([0.125, 0.25, 0.3]),
)
def test_pair_measure_of_a_batch_equals_single_pairs(family, lo, span, side):
    """d = 1, 2 and 3: on (n, d) arrays of n pairs (tubes 2k and 2k + 1),
    the measures are == to n single-pair calls, each a Python float; the
    range may be empty or a single point."""
    c1, v1, c2, v2 = (
        np.array([t[part] for t in family[first::2]], dtype=np.float64)
        for first, part in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    hi = lo + span
    singles = [pair_measure(c1[k], v1[k], c2[k], v2[k], lo, hi, side) for k in range(len(c1))]
    assert all(type(m) is float for m in singles)
    batch = pair_measure(c1, v1, c2, v2, lo, hi, side)
    assert batch.shape == (len(c1),)
    assert batch.tolist() == singles


# ---------------------------------------------------------------------------
# union volumes
# ---------------------------------------------------------------------------


def test_single_tube_volume_any_sampling():
    centers = np.array([[0.4]])
    slopes = np.array([[0.7]])
    side = float(kappa(1)) / 9
    for s in (1, 3, 8):
        v = union_volume(centers, slopes, 0.0, 1.0, 3, 2, samples=s)
        assert isinstance(v, float)
        assert v == pytest.approx(side, rel=1e-12)


def test_parallel_family_tiles_shrunk_cube():
    for d in (1, 2, 3):
        centers = leaf_centers(3, 2, d)
        slopes = np.full_like(centers, 0.37)
        v = union_volume(centers, slopes, 0.0, 1.0, 3, 2, samples=2)
        assert v == pytest.approx(float(kappa(d)) ** d, rel=1e-10)
    # each centre is the exact centre of its root cube, rounded once, as in poss_set
    for N, d in ((4, 1), (5, 1), (9, 1), (3, 2)):
        exact = [
            [float(c + side / 2) for c in corner]
            for corner, side in (decode_cube(leaf_from_index(i, 3**d, N), 3, d) for i in range(3 ** (N * d)))
        ]
        assert leaf_centers(3, N, d).tolist() == exact


def test_union_refinement_converges():
    ds = direction_set(CantorSpec(3, 5), affine_curve(1))
    assignment = SlopeAssignment(ds, seed=21)
    centers, slopes = assignment_arrays(assignment)
    v1 = union_volume(centers, slopes, 0.0, 1.0, 3, 5, samples=4)
    v2 = union_volume(centers, slopes, 0.0, 1.0, 3, 5, samples=8)
    v3 = union_volume(centers, slopes, 0.0, 1.0, 3, 5, samples=16)
    assert abs(v2 - v1) < 5e-3 * v1
    assert abs(v3 - v2) < abs(v2 - v1) + 1e-12


def test_union_volume_d3_single_tube_exact():
    centers = np.array([[0.5, 0.5, 0.5]])
    slopes = np.array([[0.1, -0.1, 0.2]])
    side = float(kappa(3)) / 3
    v = union_volume(centers, slopes, 0.0, 1.0, 3, 1, samples=1)
    assert v == pytest.approx(side**3, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "offset, exact_over_cube",
    [((0.5, 0.5, 0.0), 1.75), ((3.0, 0.0, 0.0), 2.0)],  # half-overlapping, disjoint
)
def test_union_volume_d3_two_tubes_exact(offset, exact_over_cube):
    """Two parallel d=3 tubes: offset by half a side on two axes their
    union is 7/4 side^3 per unit length, apart it is 2 side^3."""
    side = float(kappa(3)) / 3
    centers = np.array([[0.5, 0.5, 0.5], [0.5 + offset[0] * side, 0.5 + offset[1] * side, 0.5]])
    slopes = np.array([[0.1, -0.1, 0.2], [0.1, -0.1, 0.2]])
    v = union_volume(centers, slopes, 0.0, 1.0, 3, 1, samples=2)
    assert v == pytest.approx(exact_over_cube * side**3, rel=1e-12, abs=0.0)


def test_union_upper_bounded_by_sum():
    ds = direction_set(CantorSpec(3, 4), affine_curve(1))
    assignment = SlopeAssignment(ds, seed=5)
    centers, slopes = assignment_arrays(assignment)
    side = float(kappa(1)) * 3.0**-4
    v = union_volume(centers, slopes, 0.0, 1.0, 3, 4, samples=4)
    assert v <= centers.shape[0] * side + 1e-12


# ---------------------------------------------------------------------------
# possible roots
# ---------------------------------------------------------------------------


def test_poss_degenerate_at_root_hyperplane(ds_affine_n5):
    # p1 = 0: every direction pulls back to the same point
    center = 0.5 / 243 * 3  # centre of some root cube? use exact centre below
    t = leaf_from_index(10, 3, 5)
    corner, side = decode_cube(t, 3, 1)
    c = float(corner[0] + side / 2)
    poss = poss_set((0.0, c), ds_affine_n5)
    assert poss.tree.sorted_leaves == (t,)
    assert len(poss.witnesses[t]) == ds_affine_n5.n


def test_poss_far_outside_cone_empty(ds_affine_n5):
    poss = poss_set((2.0, -3.5), ds_affine_n5)
    assert len(poss) == 0


@pytest.mark.parametrize("possible_roots", [poss_set, poss_set_affine])
def test_poss_refuses_wrong_point_dimension(ds_affine_n5, possible_roots):
    with pytest.raises(ValueError, match="point dimension mismatch"):
        possible_roots((2.5, 0.5, 0.5), ds_affine_n5)


def _dual_sizes(ds, points) -> list[int]:
    """Poss-set sizes of ``points``, after checking that the integer-grid
    scan and the affine-copy enumeration find the same witnesses."""
    sizes = []
    for p in points:
        a, want = poss_set(p, ds), poss_set_affine(p, ds).witnesses
        # the roots are sorted rows of N digits, their witnesses aligned to them
        assert a.tree.digits.shape == (len(want), ds.spec.N)
        assert list(a.witnesses.items()) == sorted(want.items())
        sizes.append(len(a))
    return sizes


def test_poss_dual_computation_agrees(ds_affine_n5):
    rng = random.Random(11)
    box = [(rng.uniform(2.0, 3.0), rng.uniform(-2.0, 3.5)) for _ in range(100)]
    aim = np.random.default_rng(11)
    aimed = [aimed_point(aim, ds_affine_n5) for _ in range(100)]
    sizes = _dual_sizes(ds_affine_n5, box + aimed)
    assert min(sizes[100:]) >= 1
    assert sum(s >= 2 for s in sizes) >= 100


def test_poss_dual_computation_agrees_d2(ds_moment_n4_d2):
    """Box draws at N=4 all miss every tube, and few aimed ones meet two:
    besides 20 aimed draws, those of 1,480 more to which the exact floor
    gives two or more roots."""
    rng = random.Random(12)
    box = [
        (rng.uniform(4.0, 5.0), rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 4.0))
        for _ in range(50)
    ]
    aim = np.random.default_rng(12)
    aimed = [aimed_point(aim, ds_moment_n4_d2) for _ in range(1500)]
    multi = [p for p in aimed[20:] if len(_poss_by_exact_floor(p, ds_moment_n4_d2, 4, 2)) >= 2]
    sizes = _dual_sizes(ds_moment_n4_d2, box + aimed[:20] + multi)
    assert min(sizes[50:]) >= 1
    assert sum(s >= 2 for s in sizes) >= 25


def test_poss_dual_computation_agrees_d3():
    """d=3 moment curve, N=3: every aimed draw meets its one tube, and at
    C0 = 27 no other root's shrunk cube catches a pull-back."""
    ds = direction_set(CantorSpec(3, 3), moment_curve(3))
    aim = np.random.default_rng(13)
    sizes = _dual_sizes(ds, [aimed_point(aim, ds) for _ in range(12)])
    assert min(sizes) >= 1


def _poss_by_exact_floor(p, dirset, N, d):
    """Witnesses of ``p``: float pull-backs as in ``poss_set``, each placed
    in its root cube by an exact Fraction floor, then the float face test."""
    M = dirset.spec.M
    half = float(kappa(d)) * float(M) ** (-N) / 2.0
    base = np.asarray(p[1:], dtype=np.float64) - float(p[0]) * dirset.slope_floats()
    witnesses = {}
    for k, row in enumerate(base):
        exact = [Fraction(float(x)) for x in row]
        if not all(0 <= x < 1 for x in exact):
            continue
        idx = [math.floor(x * M**N) for x in exact]
        center = np.array([float(Fraction(2 * i + 1, 2 * M**N)) for i in idx])
        if np.all(np.abs(row - center) <= half):
            witnesses.setdefault(cube_from_axis_indices(idx, N, M), []).append(k)
    return witnesses


@pytest.mark.parametrize("M, N, d, least", [(3, 14, 3, 1), (5, 14, 2, 20)])
def test_poss_roots_with_more_cubes_than_an_int64_holds(M, N, d, least):
    """At M^(dN) > 2^63 a root's leaf index overflows an int64: the batch
    still sorts the roots digit by digit into the exact floor's tuples in
    tuple order, each with its witnesses, and their LCPs are the tuples'."""
    assert M ** (d * N) > 2**63
    ds = direction_set(CantorSpec(M, N), moment_curve(d))
    aim = np.random.default_rng(14)
    points = [aimed_point(aim, ds) for _ in range(4)]
    for p, poss in zip(points, poss_sets(points, ds), strict=True):
        want = _poss_by_exact_floor(p, ds, N, d)
        assert len(poss) >= least
        assert list(poss.witnesses.items()) == sorted(want.items())
        tuples = FiniteTree.from_leaves(want)
        assert (poss.tree.depths, poss.tree.lcps) == (tuples.depths, tuples.lcps)


@pytest.mark.parametrize("fixture, N, d", [("ds_affine_n5", 5, 1), ("ds_moment_n4_d2", 4, 2)])
def test_poss_on_grid_lines_and_shrunk_faces(request, fixture, N, d):
    """Points whose pull-back along a chosen direction lies on an M^-N grid
    line or on a face of a shrunk root cube, and an ulp either side:
    the integer-grid floor of ``poss_set`` gives the exact floor's set,
    and so does ``poss_sets`` for all of them in one batch."""
    ds = request.getfixturevalue(fixture)
    M = ds.spec.M
    half = float(kappa(d)) * float(M) ** (-N) / 2.0
    slopes = ds.slope_floats()
    # grid lines whose float the float floor puts in the cube above the
    # exact one, and one that it does not
    lines = [g for g in range(1, M**N) if g / M**N * M**N == g > Fraction(g / M**N) * M**N]
    targets = []  # per-axis pull-back targets: grid lines and both faces
    for g in lines[:3] + [1]:
        center = (g + 0.5) / M**N
        targets += [g / M**N, center - half, center + half]
    # a target on the first axis with the others mid-cell, or on every axis
    mid = (M**N // 3 + 0.5) / M**N
    combos = sorted({(t,) + (mid,) * (d - 1) for t in targets} | {(t,) * d for t in targets})
    floor_differs = face_in = face_out = 0
    points, wants = [], []
    for p1 in (0.0, 2.0 * d):  # the root hyperplane and the far window's C0
        for k in (0, ds.n - 1):
            for combo in combos:
                for step in (-math.inf, None, math.inf):  # an ulp either side
                    pbar = np.asarray(combo) + p1 * slopes[k]
                    if step:
                        pbar = np.nextafter(pbar, step)
                    p = (p1, *pbar)
                    want = _poss_by_exact_floor(p, ds, N, d)
                    assert poss_set(p, ds).witnesses == want
                    assert poss_set_affine(p, ds).witnesses == want
                    points.append(p)
                    wants.append(want)
                    row = pbar - p1 * slopes[k]
                    exact_idx = [math.floor(Fraction(float(x)) * M**N) for x in row]
                    floor_differs += list(np.floor(row * M**N)) != exact_idx
                    center = (np.floor(row * M**N) + 0.5) / M**N
                    off = np.abs(row - center) - half
                    if np.any(np.abs(off) <= np.spacing(center)) and np.all(off <= np.spacing(center)):
                        face_in += bool(np.all(off <= 0.0))
                        face_out += bool(np.any(off > 0.0))
    # one batch finds each point's witnesses, roots in sorted order
    for p, want, row in zip(points, wants, poss_sets(points, ds), strict=True):
        single = poss_set(p, ds)
        assert row.point == single.point
        assert list(row.witnesses.items()) == list(single.witnesses.items()) == sorted(want.items())
    # the float floor does cross grid lines here, and pull-backs within an
    # ulp of a face fall on both sides of it
    assert floor_differs > 0
    assert face_in > 0
    assert face_out > 0


def test_unique_far_witness_and_prefix_property(ds_affine_n8):
    ds = ds_affine_n8
    rng = random.Random(13)
    checked_pairs = 0
    for _ in range(200):
        p = (rng.uniform(2.0, 3.0), rng.uniform(-0.5, 3.5))
        out = unique_far_slope(poss_set(p, ds), ds)  # raises on duplicates
        assert sticky_admissible([(t, bits) for t, (_, bits) in out.items()])
        roots = sorted(out)
        for i, t1 in enumerate(roots):
            for t2 in roots[i + 1 :]:
                k = height(yca(t1, t2))
                b1, b2 = out[t1][1], out[t2][1]
                assert b1[:k] == b2[:k]
                checked_pairs += 1
    assert checked_pairs > 50


def test_duplicate_witnesses_near_root_hyperplane(ds_affine_n5):
    # close to the root hyperplane one cube can see many directions
    t = leaf_from_index(7, 3, 5)
    corner, side = decode_cube(t, 3, 1)
    c = float(corner[0] + side / 2)
    with pytest.raises(WitnessError):
        unique_far_slope(poss_set((1e-6, c), ds_affine_n5), ds_affine_n5)


# ---------------------------------------------------------------------------
# realized family measures
# ---------------------------------------------------------------------------


def test_kakeya_measures_n1_against_direct_union():
    ds = direction_set(CantorSpec(3, 1), affine_curve(1))
    assignment = SlopeAssignment(ds, seed=17)
    m = kakeya_measures(assignment, samples=4)
    centers, slopes = assignment_arrays(assignment)
    side = float(kappa(1)) / 3

    def brute(lo, hi, steps=2000):
        total = 0.0
        dx = (hi - lo) / steps
        for i in range(steps):
            x = lo + (i + 0.5) * dx
            ivs = sorted(
                (c + x * v - side / 2, c + x * v + side / 2)
                for c, v in zip(centers[:, 0], slopes[:, 0])
            )
            length = 0.0
            cur = ivs[0]
            for lo2, hi2 in ivs[1:]:
                if lo2 > cur[1]:
                    length += cur[1] - cur[0]
                    cur = (lo2, hi2)
                else:
                    cur = (cur[0], max(cur[1], hi2))
            length += cur[1] - cur[0]
            total += length * dx
        return total

    assert m["near"] == pytest.approx(brute(0.0, 1.0), rel=2e-3)
    assert m["far"] == pytest.approx(brute(2.0, 3.0), rel=2e-3)


def test_all_zero_field_measures_exact():
    # kernels are bypassed: build arrays by hand for the constant field
    centers = leaf_centers(3, 3, 1)
    slopes = np.zeros_like(centers)
    near = union_volume(centers, slopes, 0.0, 1.0, 3, 3, samples=2)
    far = union_volume(centers, slopes, 2.0, 3.0, 3, 3, samples=2)
    assert near == pytest.approx(float(kappa(1)), rel=1e-12)
    assert far == pytest.approx(float(kappa(1)), rel=1e-12)
    assert near == pytest.approx(far, rel=1e-12)


def test_dilate_ratio_bound_at_least_one():
    ds = direction_set(CantorSpec(3, 3), affine_curve(1))
    for seed in range(5):
        m = kakeya_measures(SlopeAssignment(ds, seed=seed), samples=2)
        assert m["dilate_ratio_bound"] >= 1.0


# ---------------------------------------------------------------------------
# counting invariants
# ---------------------------------------------------------------------------


def test_separated_drift_on_positive_measure():
    # realized intersections of distinct roots keep x1*|dv| above kappa*M^-N
    ds = direction_set(CantorSpec(3, 4), affine_curve(1))
    assignment = SlopeAssignment(ds, seed=3)
    centers, slopes = assignment_arrays(assignment)
    side = float(kappa(1)) * 3.0**-4
    rng = random.Random(14)
    hits = 0
    for _ in range(3000):
        i, j = rng.randrange(81), rng.randrange(81)
        if i == j:
            continue
        m = pair_measure(centers[i], slopes[i], centers[j], slopes[j], 0.0, 20.0, side)
        if m > 0:
            hits += 1
            dv = abs(slopes[i][0] - slopes[j][0])
            # at every intersection abscissa x1: x1 * dv >= kappa * M^-N
            # check at the earliest possible abscissa of overlap
            a = centers[j][0] - centers[i][0]
            b = slopes[j][0] - slopes[i][0]
            xs = sorted(
                (t - a) / b for t in (-side, side) if b != 0
            )
            x_first = max(0.0, xs[0]) if xs else 0.0
            assert x_first * dv >= side - 1e-12 or abs(a) < side
    assert hits > 20


def test_triple_intersection_root_count_bounded():
    # fixed (t1, v1, v2) and a cube of side M^-N: few roots t2 can make
    # both tubes pass through the cube
    ds = direction_set(CantorSpec(3, 4), affine_curve(1))
    slopes = ds.slope_floats()[:, 0]
    centers = leaf_centers(3, 4, 1)[:, 0]
    side = float(kappa(1)) * 3.0**-4
    q_half = 0.5 * 3.0**-4  # C1 = 1
    rng = random.Random(16)
    worst = 0
    for _ in range(200):
        i1 = rng.randrange(81)
        v1 = slopes[rng.randrange(16)]
        v2 = slopes[rng.randrange(16)]
        qx = rng.uniform(0.1, 2.0)
        qy = centers[i1] + qx * v1  # cube centred on the first tube
        count = 0
        for i2 in range(81):
            if i2 == i1:
                continue
            # does tube (t2, v2) meet the cube's window over its x-range?
            lo_x, hi_x = qx - q_half, qx + q_half
            y0 = centers[i2] + lo_x * v2
            y1 = centers[i2] + hi_x * v2
            y_min, y_max = min(y0, y1) - side / 2, max(y0, y1) + side / 2
            if y_max >= qy - q_half and y_min <= qy + q_half:
                count += 1
        worst = max(worst, count)
    assert 0 < worst <= 8


def test_slope_multiplicity_through_far_cube(ds_affine_n8):
    # directions reaching one small cube far from the roots are few
    ds = ds_affine_n8
    slopes = ds.slope_floats()[:, 0]
    side = float(kappa(1)) * 3.0**-8
    rng = random.Random(15)
    for _ in range(50):
        x1 = rng.uniform(2.0, 3.0)
        y = rng.uniform(0.0, 1.0 + 2 * x1 * 8 / 9)
        t_root = rng.uniform(0.0, 1.0)
        count = sum(
            1
            for v in slopes
            if abs(t_root + x1 * v - y) <= side
        )
        assert count <= 4  # ~ C * 2^0 at unit distance
