import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import kakeya
from kakeya import trees
from kakeya.cantor import binary_address, interval_digits, middle_spec, phi_map
from kakeya.sticky import sticky_admissible
from kakeya.trees import (
    FiniteTree,
    cube_from_axis_indices,
    decode_cube,
    height,
    leaf_from_index,
    ray_addresses,
    yca,
)

F = Fraction

vertices = st.lists(st.integers(0, 2), max_size=8).map(tuple)


def test_yca_shared_first_digit():
    assert yca((0, 1), (0, 2)) == (0,)


def test_yca_distinct_first_digit_is_root():
    assert yca((1, 0), (2, 0)) == ()


def test_yca_ancestor_returns_ancestor():
    assert yca((0,), (0, 1, 2)) == (0,)
    assert yca((0, 1, 2), (0,)) == (0,)


@given(vertices, vertices)
def test_yca_symmetric_and_bounded(u, v):
    assert yca(u, v) == yca(v, u)
    assert height(yca(u, v)) <= min(height(u), height(v))
    assert yca(u, u) == u


def _level_cubes(points, k: int, M: int) -> set:
    """The level-k cubes of [0,1)^d that meet the points, found on the
    integer grid as ``poss_set`` finds root cubes."""
    return {
        cube_from_axis_indices([math.floor(x * M**k) for x in p], k, M)
        for p in points
        if all(0 <= x < 1 for x in p)
    }


def test_encode_cube_base3():
    # 2/9 sits in grid cell 2 of 9 at level 2
    assert cube_from_axis_indices([2], 2, 3) == (0, 2)


def test_encode_cube_d2_lexicographic():
    # (1/3, 0) at level 1: per-axis digits (1, 0) pack to rank 3
    assert cube_from_axis_indices([1, 0], 1, 3) == (3,)


def test_encode_decode_roundtrip_random():
    rng = random.Random(0)
    for _ in range(10_000):
        d = rng.choice([1, 2])
        x = [F(rng.randrange(10**6), 10**6) for _ in range(d)]
        k = rng.randrange(1, 5)
        for point in (x, [float(xi) for xi in x]):
            idx = [math.floor(xi * 3**k) for xi in point]
            corner, side = decode_cube(cube_from_axis_indices(idx, k, 3), 3, d)
            assert all(c <= xi < c + side for c, xi in zip(corner, point))


def test_cube_from_axis_indices_matches_encode():
    rng = random.Random(1)
    for _ in range(500):
        d, k, M = rng.choice([1, 2]), rng.randrange(1, 4), 3
        idx = [rng.randrange(M**k) for _ in range(d)]
        v = cube_from_axis_indices(idx, k, M)
        corner, side = decode_cube(v, M, d)
        assert corner == tuple(F(i, M**k) for i in idx)
        assert side == F(1, M**k)
        assert [c * M**k for c in corner] == idx


def test_psi_middle_thirds():
    spec = middle_spec(3, 2)
    assert binary_address(spec, (0, 2)) == (0, 1)
    assert binary_address(spec, ()) == ()
    assert interval_digits(spec, (0, 1)) == (0, 2)


def test_psi_roundtrip_depth10():
    spec = middle_spec(3, 10)
    seen = set()
    for i in range(1 << 10):
        bits = tuple((i >> (9 - j)) & 1 for j in range(10))
        v = interval_digits(spec, bits)
        assert binary_address(spec, v) == bits
        seen.add(v)
    assert len(seen) == 1 << 10


def test_psi_is_sticky_both_ways():
    spec = middle_spec(3, 6)
    rng = random.Random(2)
    cantor_vs = []
    for _ in range(80):
        bits = tuple(rng.randrange(2) for _ in range(rng.randrange(7)))
        cantor_vs.append(interval_digits(spec, bits))
    assert sticky_admissible([(v, binary_address(spec, v)) for v in cantor_vs])
    assert sticky_admissible([(binary_address(spec, v), v) for v in cantor_vs])


def test_psi_rejects_vertices_off_the_tree():
    spec = middle_spec(3, 2)
    with pytest.raises(KeyError):
        binary_address(spec, (0, 1))
    with pytest.raises(KeyError):
        interval_digits(spec, (0, 2))


def test_non_sticky_map_fails_audit():
    flip = lambda v: tuple(reversed(v))
    assert not sticky_admissible([(v, flip(v)) for v in [(0, 1), (0, 2), (1, 0)]])


def test_phi_left_endpoint():
    assert phi_map(middle_spec(3, 2), (2,)) == F(2, 3)


def test_phi_consistent_with_representatives():
    spec = middle_spec(3, 4)
    from kakeya.cantor import build_level

    for iv in build_level(spec, spec.N):
        assert phi_map(spec, iv.digits) == iv.left


def test_phi_containment_sweep():
    spec = middle_spec(3, 8)
    for k in range(0, 9):
        for i in range(1 << k):
            bits = tuple((i >> (k - 1 - j)) & 1 for j in range(k))
            v = interval_digits(spec, bits)
            x = phi_map(spec, v)
            lo = sum(F(dig, 3**j) for j, dig in enumerate(v, start=1))
            assert lo <= x < lo + F(1, 3**k)


def test_phi_rejects_unselected():
    with pytest.raises(KeyError):
        phi_map(middle_spec(3, 2), (1,))
    with pytest.raises(KeyError):  # below the truncation depth
        phi_map(middle_spec(3, 2), (0, 0, 0))


def test_count_level_vertices_parameter_tree():
    spec = middle_spec(3, 6)
    from kakeya.cantor import build_level

    pts = [[iv.left] for iv in build_level(spec, spec.N)]
    for k in range(0, 7):
        assert len(_level_cubes(pts, k, 3)) == 2**k
    assert len(_level_cubes(pts, 0, 3)) == 1


def test_count_level_vertices_affine_copies():
    # pullbacks of the direction set stay within C * 2^k cubes per level
    from kakeya.cantor import affine_curve, direction_set

    ds = direction_set(middle_spec(3, 6), affine_curve(1))
    slopes = [float(s[1]) for s in ds.slopes]
    rng = random.Random(3)
    worst = 0.0
    for _ in range(100):
        x1 = rng.uniform(2.0, 3.0)
        x2 = rng.uniform(-4.0, 4.0)
        pts = [[x2 - x1 * v] for v in slopes if 0 <= x2 - x1 * v < 1]
        if not pts:
            continue
        for k in range(1, 7):
            c = len(_level_cubes(pts, k, 3)) / 2**k
            worst = max(worst, c)
    assert 0 < worst <= 4.0  # fitted constant stays small


def _prefix_closed(tree):
    return all(v[:-1] in tree.vertices for v in tree.vertices if v)


def test_finite_tree_structure():
    tree = FiniteTree.from_leaves([(0, 1), (0, 2), (1, 0)])
    assert _prefix_closed(tree)
    assert tree.level_counts() == [1, 2, 3]
    assert tree.leaves() == [(0, 1), (0, 2), (1, 0)]
    assert tree.edges() == [(0,), (0, 1), (0, 2), (1,), (1, 0)]
    rng = random.Random(4)
    leaves = [tuple(rng.randrange(3) for _ in range(5)) for _ in range(40)]
    assert _prefix_closed(FiniteTree.from_leaves(leaves))


def test_full_tree_counts():
    tree = FiniteTree.full(3, 3)
    assert tree.level_counts() == [1, 3, 9, 27]
    assert len(tree.leaves()) == 27


def test_leaf_from_index_lexicographic():
    leaves = [leaf_from_index(i, 3, 2) for i in range(9)]
    assert leaves == sorted(leaves)
    assert leaves[5] == (1, 2)


def test_cube_center():
    corner, side = decode_cube((0, 2), 3, 1)
    assert (corner[0] + side / 2,) == (F(5, 18),)


def _decode_oracle(leaves, masks):
    """Per-mask Python decoding: edge i of the sorted ray edges is bit i of
    the mask, and each leaf reads its ray's bits root first."""
    edges = sorted({t[:k] for t in leaves for k in range(1, len(t) + 1)})
    edge_pos = {e: i for i, e in enumerate(edges)}
    rays = [[edge_pos[t[:k]] for k in range(1, len(t) + 1)] for t in leaves]
    out = []
    for m in masks:
        row = []
        for ray in rays:
            v = 0
            for p in ray:
                v = v * 2 + ((m >> p) & 1)
            row.append(v)
        out.append(row)
    return out


def _decoded(leaves, stride=1):
    """The decoder's rows at every ``stride``-th mask, with their masks."""
    masks, rows, start = [], [], 0
    for chunk in ray_addresses(leaves, budget=30):
        assert chunk.dtype == np.uint64 and chunk.shape[1] == len(leaves)
        first = -start % stride
        masks.extend(range(start + first, start + len(chunk), stride))
        rows.extend(chunk[first::stride].tolist())
        start += len(chunk)
    return masks, rows, start


@pytest.mark.parametrize("base, depth", [(b, k) for b in (2, 3, 4) for k in (1, 2)])
def test_ray_addresses_match_per_mask_decoding_on_full_trees(base, depth):
    leaves = [leaf_from_index(i, base, depth) for i in range(base**depth)]
    edges = sum(base**k for k in range(1, depth + 1))
    stride = max(1, (1 << edges) >> 12)  # at most 4,096 masks for the Python oracle
    masks, rows, total = _decoded(leaves, stride)
    assert total == 1 << edges
    assert rows == _decode_oracle(leaves, masks)


RAGGED = [(0,), (1, 2), (2, 0, 1), (1, 2), (1,), ()]


def test_ray_addresses_match_per_mask_decoding_on_ragged_leaves():
    masks, rows, total = _decoded(RAGGED)
    assert total == 1 << 6
    assert rows == _decode_oracle(RAGGED, range(total))


def test_ray_addresses_rows_cross_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(trees, "_CHUNK", 5)
    chunks = list(ray_addresses(RAGGED, budget=6))
    assert [len(c) for c in chunks] == [5] * 12 + [4]
    rows = np.concatenate(chunks).tolist()
    assert rows == _decode_oracle(RAGGED, range(1 << 6))


def test_ray_addresses_refuse_over_budget():
    with pytest.raises(trees.EdgeBudgetError, match="6 edges exceeds the budget of 5"):
        next(ray_addresses(RAGGED, budget=5))


def _kakeya_imports(path: Path) -> set[str]:
    """The kakeya modules a source file imports, relative imports resolved."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            out.add(f"kakeya.{node.module or ''}".rstrip(".") if node.level else node.module)
        elif isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
    return {m for m in out if m.split(".")[0] == "kakeya"}


def test_trees_and_cantor_import_no_kakeya_module():
    """The two base layers stand alone; every other module builds on them."""
    graph = {p.stem: _kakeya_imports(p) for p in Path(kakeya.__file__).parent.glob("*.py")}
    assert graph["trees"] == set()
    assert graph["cantor"] == set()
    assert {"kakeya", "kakeya.cantor", "kakeya.trees"} <= graph["tubes"]  # the scan sees relative imports
