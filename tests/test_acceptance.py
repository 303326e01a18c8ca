"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (run pytest -s or -rA to see them).

Exact criteria are asserted with rational equality; scaling criteria pin
the spreads stated below under the fixed seeds, with all randomness
derived deterministically from those seeds.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from kakeya.cantor import affine_curve, direction_set, middle_spec, moment_curve
from kakeya.configs import class_probability, classify3, classify4, cond_prob_pair
from kakeya.harness import (
    ExperimentConfig,
    lower_bound_experiment,
    percolation_iid_audit,
    resistance_growth,
    save_result,
    slab_first_moment,
    slab_moments,
    upper_bound_experiment,
    volume_sweep,
    _exhaustive_pair_sums,
    _sample_pair_sums,
)
from kakeya.percolation import (
    lyons_bounds,
    random_leaf_subtree,
    resistance,
    shorted_resistance,
    survival_exact,
)
from kakeya.sticky import all_fields_exhaustive, enumerate_joint_addresses, sticky_admissible
from kakeya.trees import FiniteTree, leaf_from_index
from kakeya.tubes import (
    intersection_necessary,
    kappa,
    pair_measure,
    poss_set,
    poss_set_affine,
    unique_far_slope,
)

F = Fraction


def _addr(v: int, N: int):
    return tuple((v >> (N - 1 - j)) & 1 for j in range(N))


@pytest.fixture(scope="module")
def sweep_200():
    cfg = ExperimentConfig(
        M=3, d=1, n_values=(4, 5, 6, 7, 8), samples=200, quadrature=2, seed=0
    )
    t0 = time.perf_counter()
    sweep = volume_sweep(cfg)
    sweep["elapsed"] = time.perf_counter() - t0
    return cfg, sweep


def test_criterion_01_exact_pair_oracle():
    """All 2^12 sticky maps reproduce the pair conditional probabilities."""
    t0 = time.perf_counter()
    N = 2
    arrays = np.stack(list(all_fields_exhaustive(3, N)))  # (4096, 9)
    assert arrays.shape == (4096, 9)
    leaves = [leaf_from_index(i, 3, N) for i in range(9)]
    checked = 0
    for i1, i2 in itertools.permutations(range(9), 2):
        joint = np.bincount(arrays[:, i1] * 4 + arrays[:, i2], minlength=16)
        marginal = np.bincount(arrays[:, i1], minlength=4)
        for a1 in range(4):
            for a2 in range(4):
                enumerated = F(int(joint[a1 * 4 + a2]), int(marginal[a1]))
                closed = cond_prob_pair(
                    leaves[i1], leaves[i2], _addr(a1, N), _addr(a2, N)
                )
                assert enumerated == closed
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 1152
    assert elapsed < 10.0
    print(f"ACCEPTANCE 01 PASS exact pair oracle: {checked} cases, {elapsed:.2f}s")


def _verify_full_joint(cc, N):
    order = list(cc.cond) + list(cc.query)
    counts = enumerate_joint_addresses(order, N)
    n_cond = len(cc.cond)
    marginals = {}
    for key, c in counts.items():
        marginals[key[:n_cond]] = marginals.get(key[:n_cond], 0) + c
    for combo in itertools.product(range(1 << N), repeat=len(order)):
        assign = {t: _addr(v, N) for t, v in zip(order, combo)}
        closed = class_probability(cc, assign)
        marg = marginals.get(tuple(combo)[:n_cond], 0)
        joint = counts.get(tuple(combo), 0)
        if marg == 0:
            assert joint == 0 and closed == 0
        else:
            assert closed == F(joint, marg)


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


def test_criterion_02_configuration_formulas():
    """Every configuration class matches the enumeration oracle exactly."""
    t0 = time.perf_counter()
    N = 3
    # canonical instance of every class (branching 4 realizes them all)
    for case, leaves in sorted(CASES_4PT.items()):
        cc = classify4(*leaves)
        assert (str(cc.type_tag), cc.case) == (case[0], case[1])
        _verify_full_joint(cc, N)
    for case, leaves in sorted(CASES_3PT.items()):
        cc = classify3(*leaves)
        assert str(cc.type_tag) == case[0]
        _verify_full_joint(cc, N)
    # random scan over the base-3 tree
    rng = random.Random(0)
    leaves3 = [leaf_from_index(i, 3, N) for i in range(27)]
    seen = set()
    for _ in range(120):
        t = rng.sample(leaves3, 4)
        cc = classify4(*t)
        seen.add(cc.label)
        _verify_full_joint(cc, N)
    for _ in range(60):
        t = rng.sample(leaves3, 3)
        cc = classify3(*t)
        seen.add(cc.label)
        _verify_full_joint(cc, N)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 02 PASS configuration formulas: 12 canonical cases + "
        f"180 random tuples ({len(seen)} classes), {elapsed:.1f}s"
    )


def test_criterion_03_percolation_resistance():
    """Exact survival sits in the Lyons window on 200 random subtrees."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    for i in range(200):
        h = int(rng.integers(2, 9))
        tree = random_leaf_subtree(rng, 3, h)
        r = resistance(tree)
        s = survival_exact(tree)
        lo, hi = lyons_bounds(r)
        assert lo <= s <= hi
        assert shorted_resistance(tree) <= r
    assert resistance(FiniteTree.full(2, 2)) == 1
    assert survival_exact(FiniteTree.full(2, 2)) == F(39, 64)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 03 PASS percolation bounds: 200 subtrees, {elapsed:.1f}s")


@pytest.mark.parametrize("d", [1, 2])
def test_criterion_04_far_slab_uniqueness(d):
    """Unique witness direction per possible root; the address map is sticky."""
    N, M = 8, 3
    curve = affine_curve(1) if d == 1 else moment_curve(2)
    ds = direction_set(middle_spec(M, N), curve)
    c0 = 2 if d == 1 else 4
    rng = np.random.default_rng(44 + d)
    lo = np.array([float(c0)] + [-2.0 * c0] * d)
    hi = np.array([float(c0) + 1.0] + [2.0 * c0] * d)
    nonempty = 0
    roots_seen = 0
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        out = unique_far_slope(x, ds, N, d)  # raises on duplicate witnesses
        assert sticky_admissible([(t, bits) for t, (_, bits) in out.items()])
        if out:
            nonempty += 1
            roots_seen += len(out)
    assert nonempty > 10
    # extra points aimed through shrunk root cubes, so every point lies in
    # at least one tube and uniqueness is exercised densely
    slopes = ds.slope_floats()
    side = float(kappa(d)) * float(M) ** (-N)
    scale = float(M) ** (-N)
    targeted_roots = 0
    for _ in range(200):
        x1 = rng.uniform(c0, c0 + 1.0)
        cell = rng.integers(0, M**N, size=d)
        center = (cell + 0.5) * scale
        u = center + rng.uniform(-side / 2, side / 2, size=d)
        v = slopes[rng.integers(len(slopes))]
        x = (x1, *(u + x1 * v))
        out = unique_far_slope(x, ds, N, d)
        assert sticky_admissible([(t, bits) for t, (_, bits) in out.items()])
        assert len(out) >= 1
        targeted_roots += len(out)
    assert targeted_roots >= 200
    print(
        f"ACCEPTANCE 04 PASS far-slab uniqueness d={d}: 1000 box points "
        f"({nonempty} nonempty, {roots_seen} roots) + 200 cone points "
        f"({targeted_roots} roots), zero violations"
    )


def test_criterion_05_resistance_growth():
    """R(Poss(x)) grows linearly in N; fitted beta positive, trend stable."""
    cfg = ExperimentConfig(M=3, d=1, n_values=(4, 5, 6, 7, 8, 9), seed=0)
    res = resistance_growth(cfg, points=100)
    beta = res["fitted_beta"]
    assert beta > 0
    ns = np.array([r["N"] for r in res["rows"]], dtype=float)
    means = np.array([r["beta_mean"] for r in res["rows"]])
    slope = np.polyfit(ns, means, 1)[0]
    assert slope >= 0.0  # non-decreasing trend of the mean ratio
    mins = [r["beta_min"] for r in res["rows"]]
    assert mins[-1] >= 0.3 * mins[0]  # endpoints agree within noise
    print(
        f"ACCEPTANCE 05 PASS resistance growth: fitted beta={beta:.3f}, "
        f"mean-ratio trend slope={slope:.3f}, mins={[round(m, 2) for m in mins]}"
    )


def test_criterion_06_upper_bound_decay(sweep_200):
    """N * mean far volume stays within a factor 3 across N=4..8."""
    cfg, sweep = sweep_200
    res = upper_bound_experiment(cfg, sweep=sweep)
    vals = [r["n_times_mean"] for r in res["rows"]]
    spread = max(vals) / min(vals)
    assert spread <= 3.0
    assert sweep["elapsed"] < 600.0
    print(
        f"ACCEPTANCE 06 PASS upper-bound decay: N*mean_far="
        f"{[round(v, 3) for v in vals]}, spread={spread:.2f}, "
        f"sweep {sweep['elapsed']:.0f}s"
    )


def test_criterion_07_slab_moment_scaling():
    """Slab moments scale like N*M^(2R-2N) within factor 4; N=2 exact."""
    cfg7 = ExperimentConfig(
        M=3, N=7, d=1, samples=200, slab_offsets=(2, 3, 4, 5), seed=0
    )
    moments = slab_moments(cfg7)
    first, second = moments["rows"], moments["second_rows"]
    r1 = [r["ratio"] for r in first]
    r2 = [r["ratio"] for r in second]
    s1, s2 = max(r1) / min(r1), max(r2) / min(r2)
    assert s1 <= 4.0 and s2 <= 4.0
    # exhaustive tiny scale pins the Monte Carlo statistic
    cfg2 = ExperimentConfig(M=3, N=2, d=1, samples=300, slab_offsets=(2,), seed=1)
    exhaustive = _exhaustive_pair_sums(cfg2, 2, 0)
    sampled = _sample_pair_sums(cfg2, 2, 0)
    half = 2.5758 * sampled.std(ddof=1) / math.sqrt(sampled.size)
    assert abs(sampled.mean() - exhaustive.mean()) <= half
    print(
        f"ACCEPTANCE 07 PASS slab moments: first spread={s1:.2f}, "
        f"second spread={s2:.2f}, N=2 exhaustive within CI"
    )


def test_criterion_08_lower_bound_quantile(sweep_200):
    """The volume exceeded by 3/4 of realizations scales like c/N, c stable
    within factor 2 (the sqrt(log N) refinement is reported, not asserted)."""
    cfg, sweep = sweep_200
    res = lower_bound_experiment(cfg, sweep=sweep)
    cs = [r["c_over_n"] for r in res["rows"]]
    spread = max(cs) / min(cs)
    assert min(cs) > 0
    assert spread <= 2.0
    logs = [r["c_sqrtlog"] for r in res["rows"]]
    print(
        f"ACCEPTANCE 08 PASS lower-bound quantile: c*N="
        f"{[round(c, 3) for c in cs]}, spread={spread:.2f} "
        f"(sqrt-log-normalized: {[round(c, 3) for c in logs]})"
    )


def test_criterion_09_geometry_oracles():
    """Closed-form pair measures match adaptive quadrature to 1e-9."""
    rng = random.Random(99)
    side = float(kappa(1)) * 3.0**-6
    thresh = 2.0 * float(kappa(1)) * 3.0**-6
    worst = 0.0
    false_neg = 0
    for _ in range(10_000):
        c1, c2 = rng.random(), rng.random()
        v1, v2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        closed = pair_measure([c1], [v1], [c2], [v2], 0.0, 2.0, side)
        if closed > 0 and not intersection_necessary(
            [c1], [v1], [c2], [v2], 0.0, 2.0, thresh
        ):
            false_neg += 1
        a, b = c2 - c1, v2 - v1
        if closed > 1e-18:
            pts = sorted(
                x
                for t in (-side, 0.0, side)
                if b and 0.0 < (x := (t - a) / b) < 2.0
            )
            ref = quad(
                lambda x: max(0.0, side - abs(a + b * x)),
                0.0,
                2.0,
                points=pts or None,
                limit=200,
            )[0]
            worst = max(worst, abs(closed - ref) / ref)
    assert worst < 1e-9
    assert false_neg == 0
    # dual possible-root computations agree exactly
    ds = direction_set(middle_spec(3, 6), affine_curve(1))
    rng2 = random.Random(7)
    agree = 0
    for _ in range(100):
        p = (rng2.uniform(2.0, 3.0), rng2.uniform(-4.0, 4.0))
        assert poss_set(p, ds, 6, 1).witnesses == poss_set_affine(p, ds, 6, 1).witnesses
        agree += 1
    print(
        f"ACCEPTANCE 09 PASS geometry oracles: worst quad error={worst:.2e}, "
        f"0 false negatives, {agree} dual agreements"
    )


def test_criterion_10_iid_audit():
    """Induced edge bits: consistent across leaves, uniform, independent."""
    cfg = ExperimentConfig(M=3, N=8, d=1, seed=0)
    res = percolation_iid_audit(cfg, N=8, fields=10_000)
    assert res["consistency_violations"] == 0
    assert res["chi2_edges"] <= res["chi2_edges_threshold"]
    assert res["chi2_pairs"] <= res["chi2_pairs_threshold"]
    assert res["pass"]
    print(
        f"ACCEPTANCE 10 PASS iid audit: {res['edges']} edges x "
        f"{res['fields']} fields, chi2={res['chi2_edges']:.1f}"
        f"<={res['chi2_edges_threshold']:.1f}, pairs chi2="
        f"{res['chi2_pairs']:.1f}<={res['chi2_pairs_threshold']:.1f}"
    )


def test_criterion_11_replay(tmp_path):
    """Identical config and seed give byte-identical result records."""
    cfg = ExperimentConfig(M=3, N=3, d=1, samples=40, quadrature=2, seed=123)
    p1 = save_result(volume_sweep(cfg), tmp_path / "run1")
    p2 = save_result(volume_sweep(cfg), tmp_path / "run2")
    assert p1.read_bytes() == p2.read_bytes()
    m1 = save_result(slab_first_moment(cfg), tmp_path / "run1")
    m2 = save_result(slab_first_moment(cfg), tmp_path / "run2")
    assert m1.read_bytes() == m2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["config"]["backend"] == "numpy"
    print("ACCEPTANCE 11 PASS replay: byte-identical records for two experiments")
