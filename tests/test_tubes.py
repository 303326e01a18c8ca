import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from kakeya import kernels
from kakeya.cantor import affine_curve, direction_set, middle_spec
from kakeya.sticky import SlopeAssignment, StickyField, assignment_from_dirset, sticky_admissible
from kakeya.trees import cube_from_axis_indices, decode_cube, height, leaf_from_index, yca
from kakeya.tubes import (
    WitnessError,
    assignment_arrays,
    intersection_necessary,
    kakeya_measures,
    kappa,
    leaf_centers,
    offset_constant,
    pair_measure,
    pair_sum_over_range,
    poss_set,
    poss_set_affine,
    union_volume,
    unique_far_slope,
)

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


def test_offset_constant():
    assert offset_constant(1, 1.0) == 2
    assert offset_constant(2, 1.0) == 4


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
    centers = leaf_centers(3, 1, 2)
    rng = np.random.default_rng(9)
    slopes = rng.uniform(-0.5, 0.5, centers.shape)
    side = float(kappa(2)) / 3
    total = 0.0
    n = centers.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                total += pair_measure(
                    centers[i], slopes[i], centers[j], slopes[j], 0.0, 1.0, side
                )
    got = pair_sum_over_range(centers, slopes, 0.0, 1.0, side)
    assert got == pytest.approx(total, rel=1e-9)


def test_pair_sum_d2_equals_pair_loop_exactly():
    """The candidate enumeration prunes pairs but adds the survivors in the
    order of the full i < j loop, so the sum is bit-identical."""
    rng = np.random.default_rng(17)
    n = 120
    centers = rng.uniform(0.0, 1.0, (n, 2))
    slopes = rng.uniform(-1.0, 1.0, (n, 2))
    side, lo, hi = 0.06, 0.1, 0.3
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if intersection_necessary(
                centers[i], slopes[i], centers[j], slopes[j], lo, hi, side
            ):
                total += pair_measure(
                    centers[i], slopes[i], centers[j], slopes[j], lo, hi, side
                )
    candidates = sum(
        len(i)
        for i, _ in kernels._candidate_pairs(
            centers[:, 0], slopes[:, 0], lo, hi, side
        )
    )
    assert total > 0.0
    assert candidates < n * (n - 1) // 4  # most pairs are pruned
    assert pair_sum_over_range(centers, slopes, lo, hi, side) == 2.0 * total


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


def test_union_refinement_converges():
    ds = direction_set(middle_spec(3, 5), affine_curve(1))
    assignment = assignment_from_dirset(ds, 1, seed=21)
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
    ds = direction_set(middle_spec(3, 4), affine_curve(1))
    assignment = assignment_from_dirset(ds, 1, seed=5)
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
    poss = poss_set((0.0, c), ds_affine_n5, 5, 1)
    assert poss.roots() == [t]
    assert len(poss.witnesses[t]) == ds_affine_n5.n


def test_poss_far_outside_cone_empty(ds_affine_n5):
    poss = poss_set((2.0, -3.5), ds_affine_n5, 5, 1)
    assert len(poss) == 0


def test_poss_dual_computation_agrees(ds_affine_n5):
    rng = random.Random(11)
    for _ in range(100):
        p = (rng.uniform(2.0, 3.0), rng.uniform(-2.0, 3.5))
        a = poss_set(p, ds_affine_n5, 5, 1)
        b = poss_set_affine(p, ds_affine_n5, 5, 1)
        assert a.witnesses == b.witnesses


def test_poss_dual_computation_agrees_d2(ds_moment_n4_d2):
    rng = random.Random(12)
    for _ in range(50):
        p = (
            rng.uniform(4.0, 5.0),
            rng.uniform(-1.0, 4.0),
            rng.uniform(-1.0, 4.0),
        )
        a = poss_set(p, ds_moment_n4_d2, 4, 2)
        b = poss_set_affine(p, ds_moment_n4_d2, 4, 2)
        assert a.witnesses == b.witnesses


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
            witnesses.setdefault(cube_from_axis_indices(idx, N, M, d), []).append(k)
    return witnesses


@pytest.mark.parametrize("fixture, N, d", [("ds_affine_n5", 5, 1), ("ds_moment_n4_d2", 4, 2)])
def test_poss_on_grid_lines_and_shrunk_faces(request, fixture, N, d):
    """Points whose pull-back along a chosen direction lies on an M^-N grid
    line or on a face of a shrunk root cube, and an ulp either side:
    the integer-grid floor of ``poss_set`` gives the exact floor's set."""
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
    for p1 in (0.0, 2.0 * d):  # the root hyperplane and the far window's C0
        for k in (0, ds.n - 1):
            for combo in combos:
                for step in (-math.inf, None, math.inf):  # an ulp either side
                    pbar = np.asarray(combo) + p1 * slopes[k]
                    if step:
                        pbar = np.nextafter(pbar, step)
                    p = (p1, *pbar)
                    want = _poss_by_exact_floor(p, ds, N, d)
                    assert poss_set(p, ds, N, d).witnesses == want
                    assert poss_set_affine(p, ds, N, d).witnesses == want
                    row = pbar - p1 * slopes[k]
                    exact_idx = [math.floor(Fraction(float(x)) * M**N) for x in row]
                    floor_differs += list(np.floor(row * M**N)) != exact_idx
                    center = (np.floor(row * M**N) + 0.5) / M**N
                    off = np.abs(row - center) - half
                    if np.any(np.abs(off) <= np.spacing(center)) and np.all(off <= np.spacing(center)):
                        face_in += bool(np.all(off <= 0.0))
                        face_out += bool(np.any(off > 0.0))
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
        out = unique_far_slope(p, ds, 8, 1)  # raises on duplicates
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
        unique_far_slope((1e-6, c), ds_affine_n5, 5, 1)


# ---------------------------------------------------------------------------
# realized family measures
# ---------------------------------------------------------------------------


def test_kakeya_measures_n1_against_direct_union():
    ds = direction_set(middle_spec(3, 1), affine_curve(1))
    assignment = assignment_from_dirset(ds, 1, seed=17)
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
    ds = direction_set(middle_spec(3, 3), affine_curve(1))

    class _Zero(StickyField):
        def ray_bits(self, leaf):
            return tuple(0 for _ in leaf)

    # kernels are bypassed: build arrays by hand for the constant field
    assignment = SlopeAssignment(field=_Zero(seed=0, base=3), dirset=ds, d=1)
    centers = leaf_centers(3, 3, 1)
    slopes = np.zeros_like(centers)
    near = union_volume(centers, slopes, 0.0, 1.0, 3, 3, samples=2)
    far = union_volume(centers, slopes, 2.0, 3.0, 3, 3, samples=2)
    assert near == pytest.approx(float(kappa(1)), rel=1e-12)
    assert far == pytest.approx(float(kappa(1)), rel=1e-12)
    assert near == pytest.approx(far, rel=1e-12)


def test_dilate_ratio_bound_at_least_one():
    ds = direction_set(middle_spec(3, 3), affine_curve(1))
    for seed in range(5):
        m = kakeya_measures(assignment_from_dirset(ds, 1, seed=seed), samples=2)
        assert m["dilate_ratio_bound"] >= 1.0


# ---------------------------------------------------------------------------
# counting invariants
# ---------------------------------------------------------------------------


def test_separated_drift_on_positive_measure():
    # realized intersections of distinct roots keep x1*|dv| above kappa*M^-N
    ds = direction_set(middle_spec(3, 4), affine_curve(1))
    assignment = assignment_from_dirset(ds, 1, seed=3)
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
    ds = direction_set(middle_spec(3, 4), affine_curve(1))
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
