import itertools
import random
from fractions import Fraction

import pytest

from kakeya.configs import (
    class_probability,
    classify3,
    classify4,
    cond_prob_pair,
    oracle_check,
)
from kakeya.trees import leaf_from_index, ray_edges
from oracles import enumerate_joint_addresses

F = Fraction


def _addr(v: int, N: int):
    return tuple((v >> (N - 1 - j)) & 1 for j in range(N))


def k_edges(A, B):
    """Number of distinct edges on B's rays that are not on A's rays."""
    a_edges = {e for t in A for e in ray_edges(t)}
    b_edges = {e for t in B for e in ray_edges(t)}
    return len(b_edges - a_edges)


def _verify_tuple_against_enumeration(cc, N):
    """Check the closed form against the full joint law of the addresses."""
    order = list(cc.cond) + list(cc.query)
    counts = enumerate_joint_addresses(order)
    n_cond = len(cc.cond)
    marginals = {}
    for key, c in counts.items():
        marginals[key[:n_cond]] = marginals.get(key[:n_cond], 0) + c
    for combo in itertools.product(range(1 << N), repeat=len(order)):
        key = tuple(combo)
        assign = {t: _addr(v, N) for t, v in zip(order, combo)}
        if len(assign) < len(order):  # duplicate leaves cannot occur here
            continue
        closed = class_probability(cc, assign)
        marg = marginals.get(key[:n_cond], 0)
        joint = counts.get(key, 0)
        if marg == 0:
            assert joint == 0 and closed == 0
        else:
            assert closed == F(joint, marg), (cc.label, key)


# canonical instances of every case, base 4 so each one is realizable
CASES_4PT = {
    "1a": ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)),
    "1b": ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)),
    "1c": ((1, 0, 0), (2, 0, 0), (0, 0, 0), (0, 0, 1)),
    "1d": ((0, 1, 0), (1, 0, 0), (0, 0, 0), (0, 0, 1)),
    "1e": ((0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 0, 2)),
    "1f": ((0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0)),
    "2a": ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)),
    "2b": ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 0)),
    "2c": ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 0, 0)),
}

CASES_3PT = {
    "1a": ((0, 0, 0), (1, 0, 0), (0, 0, 1)),
    "1b": ((0, 0, 0), (1, 0, 0), (2, 0, 0)),
    "2a": ((0, 0, 0), (1, 0, 0), (1, 1, 0)),
}


@pytest.mark.parametrize("case,leaves", sorted(CASES_4PT.items()))
def test_four_point_cases_classified_and_exact(case, leaves):
    cc = classify4(*leaves)
    assert cc.type_tag == int(case[0])
    assert cc.case == case[1]
    _verify_tuple_against_enumeration(cc, 3)


@pytest.mark.parametrize("case,leaves", sorted(CASES_3PT.items()))
def test_three_point_cases_classified_and_exact(case, leaves):
    cc = classify3(*leaves)
    assert cc.type_tag == int(case[0])
    _verify_tuple_against_enumeration(cc, 3)


def test_type1_exponent_formula():
    for case, leaves in CASES_4PT.items():
        cc = classify4(*leaves)
        if cc.type_tag == 1:
            assert cc.exponent == 2 * 3 - cc.h_u - cc.h_uprime
        else:
            assert cc.exponent == 2 * 3 - cc.h_u - cc.h_u1
            assert cc.h_u <= cc.h_u1 <= cc.h_u2


def test_type2_requires_shared_yca():
    for case, leaves in CASES_4PT.items():
        cc = classify4(*leaves)
        if cc.type_tag == 2:
            assert cc.h_u == cc.h_uprime


def test_classification_is_total_and_unique():
    leaves = [leaf_from_index(i, 3, 3) for i in range(27)]
    rng = random.Random(0)
    seen = set()
    for _ in range(2000):
        t = rng.sample(leaves, 4)
        cc = classify4(*t)
        assert cc.type_tag in (1, 2)
        assert cc.exponent == k_edges(cc.cond, cc.query)
        c3 = classify3(*t[:3])
        assert c3.exponent == k_edges(c3.cond, c3.query)
        seen.add(cc.label)
    # base 3 cannot realize case 1b; everything else appears
    assert seen >= {
        "4pt-type1a",
        "4pt-type1c",
        "4pt-type1d",
        "4pt-type1e",
        "4pt-type1f",
        "4pt-type2a",
        "4pt-type2b",
        "4pt-type2c",
    }


def test_swapped_normalization():
    # same tuple with pairs exchanged classifies identically up to the flag
    t = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    cc = classify4(*t)
    flipped = classify4(t[2], t[3], t[0], t[1])
    assert cc.type_tag == flipped.type_tag
    assert cc.exponent == flipped.exponent
    assert set(cc.cond + cc.query) == set(flipped.cond + flipped.query)


def test_random_scan_exhaustive_verification():
    leaves = [leaf_from_index(i, 3, 3) for i in range(27)]
    rng = random.Random(1)
    for _ in range(25):
        t = rng.sample(leaves, 4)
        _verify_tuple_against_enumeration(classify4(*t), 3)
    for _ in range(25):
        t = rng.sample(leaves, 3)
        _verify_tuple_against_enumeration(classify3(*t), 3)


# ---------------------------------------------------------------------------
# pair and general conditional probabilities
# ---------------------------------------------------------------------------


def test_pair_probability_examples():
    # depth 2: root-split pair, admissible addresses
    assert cond_prob_pair((0, 0), (1, 0), _addr(0, 2), _addr(3, 2)) == F(1, 4)
    # siblings at height 1: one free level
    assert cond_prob_pair((0, 0), (0, 1), _addr(0, 2), _addr(1, 2)) == F(1, 2)
    # inadmissible: leaves deeper than addresses
    assert cond_prob_pair((0, 0), (0, 1), _addr(0, 2), _addr(2, 2)) == 0


def test_pair_probability_exhaustive_n2():
    leaves = [leaf_from_index(i, 3, 2) for i in range(9)]
    for t1, t2 in itertools.permutations(leaves, 2):
        counts = enumerate_joint_addresses([t1, t2])
        total = sum(counts.values())
        for b1 in range(4):
            marg = sum(c for k, c in counts.items() if k[0] == b1)
            for b2 in range(4):
                closed = cond_prob_pair(t1, t2, _addr(b1, 2), _addr(b2, 2))
                assert closed == F(counts.get((b1, b2), 0), marg)


def test_oracle_check_on_admissible_assignment():
    cc = classify4(*CASES_4PT["2b"])
    assign = {t: _addr(0, 3) for t in cc.cond + cc.query}
    closed, enumerated = oracle_check(cc, assign)
    assert closed == enumerated == F(1, 2**cc.exponent)


def test_normalization_over_query_choices():
    # summing the conditional law over all admissible query addresses gives 1
    t1, t2 = (0, 0), (2, 1)
    for b1 in range(4):
        total = sum(
            cond_prob_pair(t1, t2, _addr(b1, 2), _addr(b2, 2)) for b2 in range(4)
        )
        assert total == 1
