import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kakeya.cantor import (
    CantorSpec,
    CurveDomainError,
    SelectorError,
    affine_curve,
    build_level,
    curve_from_rows,
    direction_set,
    estimate_bilipschitz,
    make_table_selector,
    middle_spec,
    moment_curve,
    representative_points,
)

F = Fraction


def test_middle_thirds_level1():
    ivs = build_level(middle_spec(3, 2), 1)
    assert [(iv.left, iv.right) for iv in ivs] == [(F(0), F(1, 3)), (F(2, 3), F(1))]


def test_middle_thirds_level2_digits():
    ivs = build_level(middle_spec(3, 2), 2)
    assert [iv.digits for iv in ivs] == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert [iv.left for iv in ivs] == [F(0), F(2, 9), F(2, 3), F(8, 9)]


def test_level_zero_is_unit_interval():
    (iv,) = build_level(middle_spec(5, 3), 0)
    assert iv.left == 0 and iv.right == 1 and iv.digits == ()


def test_representatives_left_endpoints():
    assert representative_points(middle_spec(3, 2)) == [F(0), F(2, 9), F(2, 3), F(8, 9)]
    assert representative_points(middle_spec(3, 1)) == [F(0), F(2, 3)]


def _varying_selector(M):
    # non-self-similar: choice depends on the prefix parity
    def select(digits):
        if sum(digits) % 2:
            return (1, M - 1) if M >= 4 else (0, 2)
        return (0, M - 2) if M >= 4 else (0, 2)

    return select


def test_generic_selector_depth3_separation():
    spec = CantorSpec(M=5, N=3, selector=_varying_selector(5), name="varying")
    reps = representative_points(spec)
    assert len(reps) == 8
    # distinct level-3 intervals keep distance >= 5^-3 (oracle: the level list)
    ivs = build_level(spec, 3)
    for a, b in itertools.combinations(range(8), 2):
        assert abs(reps[a] - reps[b]) >= F(1, 125)
        assert ivs[a].left == reps[a]


@pytest.mark.parametrize("k", range(0, 7))
def test_level_counts_and_prefix_closure(k):
    spec = middle_spec(3, 6)
    ivs = build_level(spec, k)
    assert len(ivs) == 2**k
    if k:
        parents = {iv.digits for iv in build_level(spec, k - 1)}
        assert all(iv.digits[:-1] in parents for iv in ivs)


def test_non_adjacency_gap():
    spec = CantorSpec(M=5, N=4, selector=_varying_selector(5), name="varying")
    for k in range(1, 5):
        ivs = build_level(spec, k)
        for a, b in zip(ivs, ivs[1:]):
            assert b.left - a.right >= 0
            assert b.left - a.left >= F(1, 5**k)


def test_adjacent_selector_rejected():
    bad = CantorSpec(M=3, N=2, selector=lambda digs: (0, 1), name="bad")
    with pytest.raises(SelectorError) as err:
        build_level(bad, 1)
    assert "()" in str(err.value)  # names the offending interval


def test_equal_digits_rejected():
    bad = CantorSpec(M=3, N=1, selector=lambda digs: (2, 2), name="bad")
    with pytest.raises(SelectorError):
        build_level(bad, 1)


def test_table_selector():
    sel = make_table_selector(5, {(): (0, 3), (0,): (1, 4)}, default=(0, 2))
    spec = CantorSpec(M=5, N=2, selector=sel, name="table")
    assert [iv.digits for iv in build_level(spec, 2)] == [
        (0, 1),
        (0, 4),
        (3, 0),
        (3, 2),
    ]


def test_direction_set_affine_n1():
    ds = direction_set(middle_spec(3, 1), affine_curve(1))
    assert ds.slopes == ((F(1), F(0)), (F(1), F(2, 3)))


def test_direction_set_moment_n2():
    ds = direction_set(middle_spec(3, 2), moment_curve(2))
    assert ds.slopes == (
        (F(1), F(0), F(0)),
        (F(1), F(2, 9), F(4, 81)),
        (F(1), F(2, 3), F(4, 9)),
        (F(1), F(8, 9), F(64, 81)),
    )


def test_slope_floats_built_once_and_read_only():
    ds = direction_set(middle_spec(3, 3), moment_curve(2))
    arr = ds.slope_floats()
    expect = np.array([[float(c) for c in s[1:]] for s in ds.slopes])
    assert arr.shape == (8, 2) and np.array_equal(arr, expect)
    assert ds.slope_floats() is arr
    with pytest.raises(ValueError):
        arr[0, 0] = 0.5
    assert np.array_equal(ds.slope_floats(), expect)


def test_affine_isometry_distances():
    ds = direction_set(middle_spec(3, 3), affine_curve(1))
    for i, j in itertools.combinations(range(ds.n), 2):
        dp = abs(ds.params[i] - ds.params[j])
        dv = abs(ds.slopes[i][1] - ds.slopes[j][1])
        assert dv == dp  # c = C = 1


def test_first_coordinate_always_one():
    ds = direction_set(middle_spec(3, 3), moment_curve(3))
    assert all(s[0] == 1 for s in ds.slopes)


def test_curve_domain_error():
    stretched = curve_from_rows([[0, 2]])  # 2t leaves [-1,1] at t = 8/9
    with pytest.raises(CurveDomainError):
        direction_set(middle_spec(3, 2), stretched)


def test_bilipschitz_sandwich_all_pairs_n8(ds_affine_n8):
    ds = ds_affine_n8
    for i, j in itertools.combinations(range(ds.n), 2):
        dp = float(abs(ds.params[i] - ds.params[j]))
        dv = abs(float(ds.slopes[i][1]) - float(ds.slopes[j][1]))
        assert ds.lip_lo * dp - 1e-12 <= dv <= ds.lip_hi * dp + 1e-12


def test_bilipschitz_estimate_moment_curve():
    curve = moment_curve(2)
    params = [F(0), F(2, 9), F(2, 3), F(8, 9)]
    c_lo, c_hi = estimate_bilipschitz(curve, params, grid=512)
    assert 0 < c_lo <= c_hi
    # moment curve derivative norm is at least 1 (first component is t)
    assert c_lo >= 0.99
    assert c_hi <= math.sqrt(1 + 4 + 9)


def test_constant_curve_rejected():
    flat = curve_from_rows([[0, 0]])
    with pytest.raises(CurveDomainError):
        direction_set(middle_spec(3, 2), flat)
