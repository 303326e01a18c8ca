import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kakeya import kernels
from kakeya.cantor import CantorSpec, affine_curve, direction_set
from kakeya.sticky import (
    SlopeAssignment,
    StickyField,
    all_fields_exhaustive,
    assignment_from_dirset,
    derive_seed,
    enumerate_conditional,
    enumerate_realizations,
    node_id,
    sticky_admissible,
)
from kakeya.trees import EdgeBudgetError, height, index_from_leaf, leaf_from_index, yca
import oracles
from oracles import enumerate_joint_addresses, field_bit, ray_bits

F = Fraction


def _slope_index(a: SlopeAssignment, t) -> int:
    """The direction a leaf's ray addresses, tau(t) read as a binary index."""
    return index_from_leaf(ray_bits(a.field, t), 2)


def _sigma(a: SlopeAssignment, t):
    """The paper's sigma = phi o tau: the slope of the direction tau(t) addresses."""
    return a.dirset.slopes[_slope_index(a, t)]


def test_tau_root_is_root():
    f = StickyField(seed=5, base=3)
    assert ray_bits(f, ()) == ()


def test_tau_siblings_share_prefix():
    f = StickyField(seed=5, base=9)
    rng = random.Random(0)
    for _ in range(200):
        prefix = tuple(rng.randrange(9) for _ in range(3))
        t1 = prefix + (rng.randrange(9),)
        t2 = prefix + (rng.randrange(9),)
        assert ray_bits(f, t1)[:3] == ray_bits(f, t2)[:3]


def test_tau_stickiness_audit_10k_pairs():
    f = StickyField(seed=11, base=3)
    rng = random.Random(1)
    for _ in range(10_000):
        t1 = tuple(rng.randrange(3) for _ in range(8))
        t2 = tuple(rng.randrange(3) for _ in range(8))
        assert height(yca(ray_bits(f, t1), ray_bits(f, t2))) >= height(yca(t1, t2))


def test_sigma_depth1_composition():
    a = assignment_from_dirset(direction_set(CantorSpec(3, 1), affine_curve(1)), 3)
    for j in range(3):
        bit = field_bit(a.field, (j,))
        expected = (F(1), F(0)) if bit == 0 else (F(1), F(2, 3))
        assert _sigma(a, (j,)) == expected


def test_all_zero_field_maps_to_leftmost(monkeypatch):
    monkeypatch.setattr(oracles, "field_bit", lambda field, digits: 0)  # every edge bit 0
    ds_spec = CantorSpec(3, 3)
    zero = assignment_from_dirset(direction_set(ds_spec, affine_curve(1)), 0)
    for i in range(27):
        leaf = leaf_from_index(i, 3, 3)
        assert _sigma(zero, leaf) == (F(1), F(0))


def test_sigma_lipschitz_audit():
    a = assignment_from_dirset(direction_set(CantorSpec(3, 8), affine_curve(1)), 7)
    rng = random.Random(2)
    C = a.dirset.lip_hi
    for _ in range(10_000):
        t1 = tuple(rng.randrange(3) for _ in range(8))
        t2 = tuple(rng.randrange(3) for _ in range(8))
        p1, p2 = (a.dirset.params[_slope_index(a, t)] for t in (t1, t2))
        dv = abs(float(p1) - float(p2))
        assert dv <= C * 3.0 ** -height(yca(ray_bits(a.field, t1), ray_bits(a.field, t2))) + 1e-12


def test_sigma_deterministic():
    a1 = assignment_from_dirset(direction_set(CantorSpec(3, 4), affine_curve(1)), 99)
    a2 = assignment_from_dirset(direction_set(CantorSpec(3, 4), affine_curve(1)), 99)
    for i in range(0, 81, 7):
        leaf = leaf_from_index(i, 3, 4)
        assert _sigma(a1, leaf) == _sigma(a2, leaf)
    assert np.array_equal(a1.all_slope_indices(), a2.all_slope_indices())


def test_all_slope_indices_matches_scalar():
    a = assignment_from_dirset(direction_set(CantorSpec(3, 5), affine_curve(1)), 13)
    idx = a.all_slope_indices()
    for i in range(0, 243, 11):
        leaf = leaf_from_index(i, 3, 5)
        assert _slope_index(a, leaf) == idx[i]


def test_bit_balance_and_correlation():
    f = StickyField(seed=123, base=9)
    ids = np.arange(1, 1_000_001, dtype=np.uint64)
    bits = kernels.node_bits(f.key, ids).astype(np.float64)
    assert abs(bits.mean() - 0.5) < 0.002
    corr = np.corrcoef(bits[:-1], bits[1:])[0, 1]
    assert abs(corr) < 0.01


def test_seed_streams_disjoint():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_node_id_unique_across_levels():
    ids = set()
    for k in range(0, 5):
        for i in range(3**k):
            ids.add(node_id(leaf_from_index(i, 3, k), 3))
    assert len(ids) == 1 + 3 + 9 + 27 + 81


def test_mix64_matches_kernel():
    f = StickyField(seed=77, base=3)
    vs = [leaf_from_index(i, 3, 3) for i in range(27)]
    scalar = np.array([field_bit(f, v) for v in vs], dtype=np.uint8)
    vector = kernels.node_bits(f.key, np.array([node_id(v, 3) for v in vs], dtype=np.uint64))
    assert np.array_equal(scalar, vector)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_single_pair_always_admissible():
    assert sticky_admissible([((0, 1), (1, 0))])


def test_conflicting_duplicate_inadmissible():
    assert not sticky_admissible([((0, 1), (0, 0)), ((0, 1), (0, 1))])


def test_sibling_leaves_need_shared_address_prefix():
    # leaves sharing a height-1 ancestor, addresses split at the root
    t1, t2 = (0, 0), (0, 1)
    assert not sticky_admissible([(t1, (0, 0)), (t2, (1, 0))])
    assert sticky_admissible([(t1, (0, 0)), (t2, (0, 1))])


@given(
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[st.integers(0, 1)] * 3)
        ),
        min_size=3,
        max_size=6,
    )
)
def test_admissible_sets_keep_their_common_prefix(pairs):
    """The pairwise check covers the whole set: the longest common prefix
    of a set is the shortest over its pairs, so an admissible set's
    addresses share at least as long a prefix as its leaves."""
    leaves = {t for t, _ in pairs}
    assert height(functools.reduce(yca, leaves)) == min(
        (height(yca(u, v)) for u, v in itertools.combinations(leaves, 2)), default=3
    )
    if sticky_admissible(pairs):
        addresses = [b for _, b in pairs]
        assert height(functools.reduce(yca, addresses)) >= height(functools.reduce(yca, leaves))


def test_admissible_iff_some_field_realizes_n2():
    leaves = [leaf_from_index(i, 3, 2) for i in range(9)]
    for t1, t2 in itertools.combinations(leaves, 2):
        for b1 in range(4):
            for b2 in range(4):
                a1 = tuple((b1 >> (1 - j)) & 1 for j in range(2))
                a2 = tuple((b2 >> (1 - j)) & 1 for j in range(2))
                pairs = [(t1, a1), (t2, a2)]
                realizable = enumerate_realizations(pairs) > 0
                assert realizable == sticky_admissible(pairs)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def test_one_leaf_probability():
    assert enumerate_realizations([((0, 1), (0, 0))]) == F(1, 4)


def test_realization_needs_address_of_leaf_height():
    # a 1-bit address for a height-2 leaf is refused, as sticky_admissible refuses it
    with pytest.raises(ValueError, match="leaf and address heights differ"):
        enumerate_realizations([((0, 1), (1,))])
    with pytest.raises(ValueError, match="leaf and address heights differ"):
        sticky_admissible([((0, 1), (1,))])


def test_conditional_probability_shared_parent():
    # h(u) = 1 at N = 2: one free edge left
    t1, t2 = (0, 0), (0, 1)
    p = enumerate_conditional([(t1, (0, 0))], [(t2, (0, 1))])
    assert p == F(1, 2)


def test_inadmissible_target_zero():
    assert enumerate_realizations([((0, 0), (0, 0)), ((0, 1), (1, 0))]) == 0


def test_budget_error():
    leaves = [(i % 3, (i // 3) % 3, i % 2, 0, 1, 2, 0, 1) for i in range(12)]
    pairs = [(t, tuple(0 for _ in t)) for t in leaves]
    with pytest.raises(EdgeBudgetError):
        enumerate_realizations(pairs)


def test_exhaustive_fields_distinct_and_complete():
    arrays = list(all_fields_exhaustive(3, 2))
    assert len(arrays) == 1 << 12
    as_tuples = {tuple(a) for a in arrays}
    assert len(as_tuples) == 1 << 12  # distinct assignments give distinct maps


def test_joint_counts_match_realizations():
    t1, t2 = (0, 0), (1, 1)
    counts = enumerate_joint_addresses([t1, t2])
    for b1 in range(4):
        for b2 in range(4):
            a1 = tuple((b1 >> (1 - j)) & 1 for j in range(2))
            a2 = tuple((b2 >> (1 - j)) & 1 for j in range(2))
            expect = enumerate_realizations([(t1, a1), (t2, a2)])
            total = sum(counts.values())
            assert F(counts.get((b1, b2), 0), total) == expect
