"""Fast invariant suite behind the ``verify`` CLI subcommand.

Each check returns (name, passed, detail); the CLI prints one line per
check and exits nonzero if any fails.  These are quick smoke versions of
the module invariants; the pytest suite runs the full-depth variants.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .cantor import affine_curve, build_level, direction_set, middle_spec
from .configs import classify3, classify4, cond_prob_pair, k_edges
from .percolation import (
    lyons_bounds,
    random_leaf_subtree,
    resistance,
    shorted_resistance,
    survival_enumerate,
    survival_exact,
)
from .sticky import StickyField, enumerate_joint_addresses, make_assignment
from .trees import (
    FiniteTree,
    address_bits,
    build_psi,
    count_level_vertices,
    encode_cube,
    decode_cube,
    height,
    leaf_from_index,
    phi_map,
    yca,
)
from .tubes import cross_section_side, pair_measure, poss_set, poss_set_affine

Check = tuple[str, bool, str]


def check_tree_invariants(seed: int = 0) -> list[Check]:
    out = []
    rng = random.Random(seed)
    vs = [tuple(rng.randrange(3) for _ in range(rng.randrange(0, 7))) for _ in range(200)]
    ok = all(yca(u, v) == yca(v, u) for u in vs[:40] for v in vs[:40])
    ok &= all(yca(u, u) == u for u in vs)
    ok &= all(height(yca(u, v)) <= min(height(u), height(v)) for u in vs[:40] for v in vs[:40])
    out.append(("tree.yca-properties", ok, "symmetry, idempotence, height bound"))

    tree = FiniteTree.from_leaves(
        [tuple(rng.randrange(3) for _ in range(5)) for _ in range(40)]
    )
    out.append(("tree.prefix-closure", tree.is_prefix_closed(), f"{len(tree.vertices)} vertices"))

    spec = middle_spec(3, 6)
    psi = build_psi(spec)
    leaves = [psi.backward(tuple((i >> (5 - j)) & 1 for j in range(6))) for i in range(64)]
    ok = all(psi.backward(psi.forward(v)) == v for v in leaves)
    ok &= len(set(psi.forward(v) for v in leaves)) == 64
    out.append(("tree.psi-bijection", ok, "64 leaves at depth 6"))

    ok = True
    for k in range(0, 7):
        for v in [leaves[i][:k] for i in (0, 17, 63)]:
            x = phi_map(spec, v)
            lo = sum(Fraction(dig, 3**j) for j, dig in enumerate(v, start=1))
            ok &= lo <= x < lo + Fraction(1, 3 ** len(v)) if v else 0 <= x < 1
    out.append(("tree.phi-containment", ok, "representative lies in its interval"))

    params = [iv.left for iv in build_level(spec, 6)]
    counts_ok = all(
        count_level_vertices([[p] for p in params], k, 3, 1) == 2**k for k in range(0, 7)
    )
    out.append(("tree.level-counts", counts_ok, "2^k cubes meet the parameter set"))

    pts = [[rng.random(), rng.random()] for _ in range(200)]
    ok = True
    for p in pts:
        v = encode_cube(p, 3, 3, 2)
        corner, side = decode_cube(v, 3, 2)
        ok &= all(float(c) <= x < float(c + side) for c, x in zip(corner, p))
    out.append(("tree.encode-roundtrip", ok, "decode contains the encoded point"))
    return out


def check_cantor_invariants(seed: int = 0) -> list[Check]:
    out = []
    spec = middle_spec(3, 6)
    ok = True
    for k in range(0, 7):
        ivs = build_level(spec, k)
        ok &= len(ivs) == 2**k
        gaps_ok = all(
            b.left - a.right >= 0 and (b.left - a.left) >= Fraction(1, 3**k)
            for a, b in zip(ivs, ivs[1:])
        )
        ok &= gaps_ok
    out.append(("cantor.level-structure", ok, "counts and separation at all levels"))

    ds = direction_set(middle_spec(3, 5), affine_curve(1))
    ok = True
    for i, j in itertools.combinations(range(ds.n), 2):
        dp = abs(float(ds.params[i] - ds.params[j]))
        dv = math.dist(
            [float(c) for c in ds.slopes[i][1:]], [float(c) for c in ds.slopes[j][1:]]
        )
        ok &= ds.lip_lo * dp - 1e-12 <= dv <= ds.lip_hi * dp + 1e-12
    out.append(("cantor.bilipschitz-sandwich", ok, f"all pairs, n={ds.n}"))
    return out


def check_sticky_invariants(seed: int = 0) -> list[Check]:
    out = []
    rng = random.Random(seed)
    spec = middle_spec(3, 6)
    a = make_assignment(spec, affine_curve(1), 1, seed=seed)
    ok = True
    for _ in range(500):
        t1 = tuple(rng.randrange(3) for _ in range(6))
        t2 = tuple(rng.randrange(3) for _ in range(6))
        b1, b2 = a.tau(t1), a.tau(t2)
        ok &= height(yca(b1, b2)) >= height(yca(t1, t2))
    out.append(("sticky.tau-lineage", ok, "500 random leaf pairs at depth 6"))

    ok = True
    for _ in range(500):
        t1 = tuple(rng.randrange(3) for _ in range(6))
        t2 = tuple(rng.randrange(3) for _ in range(6))
        dv = abs(float(a.sigma_param(t1)) - float(a.sigma_param(t2)))
        bound = a.dirset.lip_hi * 3.0 ** -height(yca(a.tau(t1), a.tau(t2)))
        ok &= dv <= bound + 1e-12
    out.append(("sticky.sigma-lipschitz", ok, "address distance controls slope distance"))

    field = StickyField(seed=seed, base=9)
    ids = np.arange(1, 100_001, dtype=np.uint64)
    from . import kernels

    bits = kernels.node_bits(field.key, ids)
    freq = float(bits.mean())
    corr = float(np.corrcoef(bits[:-1], bits[1:])[0, 1])
    ok = abs(freq - 0.5) < 0.005 and abs(corr) < 0.02
    out.append(("sticky.bit-balance", ok, f"freq={freq:.4f} corr={corr:.4f}"))
    return out


def check_geometry_invariants(seed: int = 0) -> list[Check]:
    out = []
    rng = random.Random(seed)
    M, N, d = 3, 4, 1
    side = cross_section_side(M, N, d)
    ok = True
    sym_ok = True
    for _ in range(300):
        c1, c2 = rng.random(), rng.random()
        v1, v2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        m12 = pair_measure([c1], [v1], [c2], [v2], 0.0, 2.0, side)
        m21 = pair_measure([c2], [v2], [c1], [v1], 0.0, 2.0, side)
        sym_ok &= abs(m12 - m21) < 1e-15
        ok &= m12 <= side * 2.0 + 1e-12
        if m12 > 0 and abs(c1 - c2) >= side:
            # realized intersections of distinct roots need enough drift
            ok &= 2.0 * abs(v2 - v1) >= side - 1e-12
    out.append(("tubes.pair-measure-basics", ok and sym_ok, "symmetry, caps, drift"))

    spec = middle_spec(3, 5)
    ds = direction_set(spec, affine_curve(1))
    agree = True
    for _ in range(25):
        p = (rng.uniform(2.0, 3.0), rng.uniform(-2.0, 3.0))
        a = poss_set(p, ds, 5, 1)
        b = poss_set_affine(p, ds, 5, 1)
        agree &= a.witnesses == b.witnesses
    out.append(("tubes.poss-dual", agree, "direct scan equals affine-copy scan"))
    return out


def check_percolation_invariants(seed: int = 0) -> list[Check]:
    out = []
    rng = np.random.default_rng(seed)
    ok_bounds = True
    ok_short = True
    for _ in range(25):
        tree = random_leaf_subtree(rng, 3, int(rng.integers(2, 6)))
        r = resistance(tree)
        s = survival_exact(tree)
        lo, hi = lyons_bounds(r)
        ok_bounds &= lo <= s <= hi
        ok_short &= shorted_resistance(tree) <= r
    out.append(("percolation.lyons-bounds", ok_bounds, "25 random subtrees"))
    out.append(("percolation.shorting", ok_short, "shorted resistance is a lower bound"))

    tree = random_leaf_subtree(np.random.default_rng(seed + 1), 2, 4)
    ok = survival_enumerate(tree) == survival_exact(tree)
    out.append(("percolation.recursion-vs-enumeration", ok, f"{len(tree.edges())} edges"))

    big = FiniteTree.full(2, 3)
    small = FiniteTree.from_leaves([l for l in big.leaves() if l[0] == 0])
    ok = survival_exact(small) <= survival_exact(big)
    out.append(("percolation.monotone", ok, "removing a subtree lowers survival"))
    return out


def check_config_invariants(seed: int = 0) -> list[Check]:
    out = []
    rng = random.Random(seed)
    N = 3
    leaves = [leaf_from_index(i, 3, N) for i in range(27)]
    ok = True
    for _ in range(300):
        t = rng.sample(leaves, 4)
        cc = classify4(*t)
        ok &= cc.type_tag in (1, 2)
        ok &= cc.exponent == k_edges(cc.cond, cc.query)
        c3 = classify3(t[0], t[1], t[2])
        ok &= c3.exponent == k_edges(c3.cond, c3.query)
    out.append(("config.partition-and-edges", ok, "type assigned, exponent = new edges"))

    # probability normalization at N=2: for fixed conditioning, admissible
    # query probabilities sum to 1
    N2 = 2
    l2 = [leaf_from_index(i, 3, N2) for i in range(9)]
    t1, t2 = l2[0], l2[4]
    counts = enumerate_joint_addresses([t1, t2], N2)
    ok = True
    for b1 in range(4):
        tot = Fraction(0)
        for b2 in range(4):
            tot += cond_prob_pair(t1, t2, address_bits(b1, N2), address_bits(b2, N2))
        ok &= tot == 1
    out.append(("config.normalization", ok, "conditional law sums to 1"))
    return out


GROUPS = {
    "tree": check_tree_invariants,
    "cantor": check_cantor_invariants,
    "sticky": check_sticky_invariants,
    "geometry": check_geometry_invariants,
    "percolation": check_percolation_invariants,
    "config": check_config_invariants,
}


def run_checks(groups: list[str] | None = None, seed: int = 0) -> list[Check]:
    names = groups or list(GROUPS)
    results: list[Check] = []
    for name in names:
        if name not in GROUPS:
            raise ValueError(f"unknown verify group {name!r}; have {sorted(GROUPS)}")
        results.extend(GROUPS[name](seed=seed))
    return results
