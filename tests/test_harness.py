import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kakeya.harness import (
    ExperimentConfig,
    block_hash,
    build_dirset,
    canonical_json,
    lower_bound_experiment,
    percolation_iid_audit,
    pointwise_percolation_bound,
    resistance_growth,
    save_result,
    slab_first_moment,
    slab_second_moment,
    upper_bound_experiment,
    volume_sweep,
    _pair_sums,
    _STRIP_CELLS,
    _strip_draws,
)
from kakeya.sticky import derive_seed, sticky_admissible
from kakeya.trees import address_bits, height, index_from_leaf, leaf_from_index, yca
from kakeya.tubes import cross_section_side, leaf_centers, pair_measure, poss_set
from oracles import slab_sum_expectation_exact


def test_exhaustive_slab_sum_equals_exact_expectation():
    cfg = ExperimentConfig(M=3, N=2, d=1, slab_offsets=(2,), seed=0)
    sums = _pair_sums(cfg, 2, [0], True)[:, 0]
    assert sums.size == 1 << 12
    exact = slab_sum_expectation_exact(cfg, 2, 0)
    assert sums.mean() == pytest.approx(exact, rel=1e-9)


def test_sampled_slab_sum_within_ci_of_exhaustive():
    cfg = ExperimentConfig(M=3, N=2, d=1, samples=400, slab_offsets=(2,), seed=1)
    sampled = _pair_sums(cfg, 2, [0], False)[:, 0]
    exhaustive = _pair_sums(cfg, 2, [0], True)[:, 0]
    half = 2.5758 * sampled.std(ddof=1) / math.sqrt(sampled.size)
    assert abs(sampled.mean() - exhaustive.mean()) <= half


def test_single_slope_family_zero_sum():
    # a deterministic one-direction family has parallel disjoint tubes
    from kakeya.tubes import pair_sum_over_range

    assert pair_sum_over_range(3, 3, np.zeros(27, dtype=np.int64), np.zeros((1, 1)), 1 / 9, 1 / 3) == 0


def test_slab_first_moment_rows():
    cfg = ExperimentConfig(M=3, N=4, d=1, samples=30, slab_offsets=(2, 3), seed=2)
    res = slab_first_moment(cfg)
    assert {r["R"] for r in res["rows"]} == {1, 2}
    for row in res["rows"]:
        assert row["mean_sum"] >= 0
        assert math.isfinite(row["ratio"]) and row["ratio"] >= 0


@pytest.mark.parametrize("offsets", [(0,), (2, 0, -1), (-3,)])
def test_slab_offsets_below_one_refused(offsets):
    """S_R lives for R = 0..N-1, so an offset N - R below 1 is no slab of
    the near window and is refused, as an N below 1 is."""
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(slab_offsets=offsets)
    assert str(exc.value) == f"slab_offsets must be at least 1, got {list(offsets)}"


def test_slab_offsets_above_n_skipped_per_n():
    cfg = ExperimentConfig(M=3, d=1, n_values=(2, 3), samples=2, slab_offsets=(3, 9), seed=2)
    assert [(r["N"], r["R"]) for r in slab_first_moment(cfg)["rows"]] == [(3, 0)]


def test_slab_second_moment_scales_like_square():
    cfg = ExperimentConfig(M=3, N=4, d=1, samples=30, slab_offsets=(2,), seed=3)
    first = slab_first_moment(cfg)["rows"][0]
    second = slab_second_moment(cfg)["rows"][0]
    assert second["mean_square"] >= first["mean_sum"] ** 2 * 0.999  # Jensen


def test_second_moment_controls_three_quarter_event():
    # the threshold 2*sqrt(mean square) is exceeded by at most 1/4 of the
    # realizations (Markov on the squared sums), checked empirically
    cfg = ExperimentConfig(M=3, N=6, d=1, samples=150, slab_offsets=(3,), seed=12)
    sums = _pair_sums(cfg, 6, [3], False)[:, 0]
    threshold = 2.0 * math.sqrt((sums**2).mean())
    assert (sums < threshold).mean() >= 0.75


def test_n1_exhaustive_near_volume_quantile():
    # at depth 1 every edge field can be enumerated: 2^3 assignments
    from kakeya.harness import build_dirset
    from kakeya.sticky import all_fields_exhaustive
    from kakeya.tubes import kappa, leaf_centers, union_volume

    dirset = build_dirset(ExperimentConfig(M=3, N=1, d=1), 1)
    centers = leaf_centers(3, 1, 1)
    slope_table = dirset.slope_floats()
    vols = []
    for idx in all_fields_exhaustive(3, 1):
        v = union_volume(centers, slope_table[idx], 0.0, 1.0, 3, 1, samples=8)
        vols.append(v)
    assert len(vols) == 8
    q25 = float(np.quantile(vols, 0.25))
    assert 0 < q25 <= float(kappa(1))  # never exceeds the full tiling volume
    assert max(vols) <= float(kappa(1)) + 1e-12


def test_volume_sweep_and_bounds():
    cfg = ExperimentConfig(M=3, N=4, d=1, samples=120, quadrature=2, seed=4)
    sweep = volume_sweep(cfg)
    row = sweep["rows"][0]
    assert 0 < row["near_q25"] <= row["near_mean"]
    assert 0 < row["far_mean"] < 1.0
    lower = lower_bound_experiment(cfg, sweep=sweep)
    assert lower["fitted_c"] > 0
    upper = upper_bound_experiment(cfg, sweep=sweep)
    assert upper["rows"][0]["n_times_mean"] == pytest.approx(4 * row["far_mean"])
    assert lower["config"] == upper["config"] == sweep["config"] == cfg.to_dict("seed", "samples", "quadrature")


def test_volume_sweep_offset_constant_per_n(monkeypatch):
    """With a lower Lipschitz constant that depends on N, each row's far
    window starts at that N's own offset constant."""
    from dataclasses import replace

    from kakeya import harness

    real = harness.build_dirset
    monkeypatch.setattr(
        harness, "build_dirset", lambda cfg, N: replace(real(cfg, N), lip2_lo=Fraction(1, N * N))
    )
    cfg = ExperimentConfig(M=3, d=1, n_values=(2, 3, 4), samples=2, quadrature=1)
    rows = volume_sweep(cfg)["rows"]
    assert [r["c0"] for r in rows] == [harness.build_dirset(cfg, N).c0 for N in (2, 3, 4)]
    assert [r["c0"] for r in rows] == [4, 6, 8]


def test_pointwise_bound_dominates_mean_far_volume():
    cfg = ExperimentConfig(M=3, N=5, d=1, samples=60, quadrature=2, seed=5)
    sweep = volume_sweep(cfg)
    far_mean = sweep["rows"][0]["far_mean"]
    far_ci = sweep["rows"][0]["far_ci99"]
    bound = pointwise_percolation_bound(cfg, 5, grid=400)
    assert far_mean - far_ci <= bound["bound_integral"] + bound["ci99"]


def test_resistance_growth_positive():
    cfg = ExperimentConfig(M=3, d=1, n_values=(4, 5), seed=6)
    res = resistance_growth(cfg, points=40)
    assert res["fitted_beta"] > 0
    assert all(r["points"] == 40 for r in res["rows"])


# ---------------------------------------------------------------------------
# candidate sets, audit, persistence
# ---------------------------------------------------------------------------


def estar_diagnostic(cfg: ExperimentConfig, N: int) -> list[dict]:
    """Cardinality of the four-point candidate sets behind the second
    moment estimate, stratified by the cross-ancestor height (d=1, by
    exhaustive scan over the M^N root cubes).

    For a fixed pair (t2, v2), (t2', v2') in type-2 position under an
    ancestor u, counts the admissible (t1, v1), (t1', v1') whose tubes
    meet the fixed ones inside a thin slab; the count at cross height
    h(u1) is checked against its predicted ceiling 2^(2N-h(u)-h(u1)).
    """
    dirset = build_dirset(cfg, N)
    M = cfg.M
    leaves = [leaf_from_index(i, M, N) for i in range(M**N)]
    centers = leaf_centers(M, N, 1)
    slope_table = dirset.slope_floats()
    n_slopes = dirset.n
    side = cross_section_side(M, N, 1)
    # slab at x1 ~ 1: far enough that candidates on the left can drift in
    k = M**N
    lo_x, hi_x = k * float(M) ** (-N), (k + 1) * float(M) ** (-N)

    rows = []
    for hu in range(0, N - 1):
        u = leaves[0][:hu]
        # fixed deep pair: rightmost siblings inside u, slopes near zero,
        # so left-of-u candidates with larger slopes can reach them
        prefix = u + (M - 1,) * (N - hu - 1)
        t2 = prefix + (0,)
        t2p = prefix + (M - 1,)
        v2, v2p = 0, 1  # addresses sharing N-1 levels, matching h(D(t2, t2'))
        fixed = [(t2, address_bits(v2, N)), (t2p, address_bits(v2p, N))]

        def reach(t_fix, v_fix):
            out = []
            i_fix = index_from_leaf(t_fix, M)
            for i, t1 in enumerate(leaves):
                if height(yca(t1, t_fix)) != hu:
                    continue
                for k1 in range(n_slopes):
                    if N - (k1 ^ v_fix).bit_length() < hu and k1 != v_fix:
                        continue
                    m = pair_measure(
                        centers[i],
                        slope_table[k1],
                        centers[i_fix],
                        slope_table[v_fix],
                        lo_x,
                        hi_x,
                        side,
                    )
                    if m > 0:
                        out.append((t1, k1))
            return out

        e1 = reach(t2, v2)
        e2 = reach(t2p, v2p)
        by_height: dict[int, int] = {}
        for t1, k1 in e1:
            for t1p, k1p in e2:
                if t1 == t1p:
                    continue  # four distinct roots required
                pairs = fixed + [(t1, address_bits(k1, N)), (t1p, address_bits(k1p, N))]
                if not sticky_admissible(pairs):
                    continue
                h_u1 = height(yca(t1, t1p))
                by_height[h_u1] = by_height.get(h_u1, 0) + 1
        for h_u1, count in sorted(by_height.items()):
            bound = 2.0 ** (2 * N - hu - h_u1)
            rows.append(
                {
                    "h_u": hu,
                    "h_u1": h_u1,
                    "count": count,
                    "bound": bound,
                    "constant": count / bound,
                }
            )
    return rows


def test_candidate_sets_track_predicted_ceiling():
    for N in (4, 5):
        cfg = ExperimentConfig(M=3, N=N, d=1)
        rows = estar_diagnostic(cfg, N=N)
        assert rows, "diagnostic found no candidate pairs"
        constants = [r["constant"] for r in rows]
        assert all(0 < c <= 1.0 for c in constants)
        # stable across the ancestor heights at fixed depth
        assert max(constants) / min(constants) < 16


def test_iid_audit_quick():
    cfg = ExperimentConfig(M=3, N=6, d=1, seed=8)
    res = percolation_iid_audit(cfg, N=6, fields=1500)
    assert res["consistency_violations"] == 0
    assert res["pass"]


def test_replay_byte_identical(tmp_path):
    cfg = ExperimentConfig(M=3, N=3, d=1, samples=25, quadrature=2, seed=11)
    r1 = volume_sweep(cfg)
    p1 = save_result(r1, tmp_path / "a")
    r2 = volume_sweep(cfg)
    p2 = save_result(r2, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["seed"] == 11


def test_canonical_json_sorted():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'


def test_guard_rejects_oversized():
    cfg = ExperimentConfig(M=3, N=20, d=2)
    with pytest.raises(ResourceWarning):
        cfg.guard(20)


def test_config_hash_changes_with_seed():
    a = block_hash(ExperimentConfig(seed=1).to_dict("seed"))
    b = block_hash(ExperimentConfig(seed=2).to_dict("seed"))
    assert a != b


@pytest.mark.parametrize(
    "d, curve, run",
    [
        (1, "affine", lambda cfg: pointwise_percolation_bound(cfg, cfg.N, grid=60)),
        (2, "moment", lambda cfg: pointwise_percolation_bound(cfg, cfg.N, grid=30)),
        (1, "affine", lambda cfg: resistance_growth(cfg, points=20)),
        (1, "affine", lambda cfg: percolation_iid_audit(cfg, 5, fields=10)),
    ],
)
def test_far_points_lie_in_reachable_strip(monkeypatch, d, curve, run):
    """Every point that an experiment drawing far points hands to poss_sets,
    each row of each batch, has x1 in [c0, c0+1] and, on each axis, x-bar
    within [-2c0, 2c0] and where some tube of the direction set it is
    pulled back along can be at x1."""
    from kakeya import harness

    cfg = ExperimentConfig(M=3, N=3 if d == 1 else 2, d=d, curve=curve, seed=1)
    calls = []
    real = harness.poss_sets

    def spy(points, ds):
        calls.extend((tuple(x), ds) for x in points)
        return real(points, ds)

    monkeypatch.setattr(harness, "poss_sets", spy)
    run(cfg)
    assert calls
    for (x1, *xbar), dirset in calls:
        c0 = dirset.c0
        slopes = dirset.slope_floats()
        assert c0 <= x1 <= c0 + 1
        lo = np.maximum(x1 * slopes.min(axis=0), -2.0 * c0)
        hi = np.minimum(1.0 + x1 * slopes.max(axis=0), 2.0 * c0)
        assert np.all(lo <= xbar) and np.all(np.asarray(xbar) <= hi)


@pytest.mark.parametrize("d, curve, N", [(1, "affine", 6), (2, "moment", 4), (3, "moment", 3)])
def test_strip_draws_equal_the_per_draw_formula(d, curve, N):
    """The batched far-point stream is the one a ``Generator.uniform`` call
    per coordinate draws, point by point across batch boundaries: the same
    point, the same strip section and the same Poss set, witness order
    included."""
    cfg = ExperimentConfig(M=3, N=N, d=d, curve=curve, seed=2)
    ds = build_dirset(cfg, N)
    draws = 800
    assert draws > _STRIP_CELLS // ds.n  # the stream crosses a batch boundary
    c0, slopes = ds.c0, ds.slope_floats()
    rng = np.random.default_rng(derive_seed(cfg.seed, 7))
    reached = 0
    for section, poss in itertools.islice(_strip_draws(cfg, N, 7), draws):
        x1 = rng.uniform(c0, c0 + 1.0)
        lo = np.maximum(x1 * slopes.min(axis=0), -2.0 * c0)
        hi = np.minimum(1.0 + x1 * slopes.max(axis=0), 2.0 * c0)
        point = (x1, *rng.uniform(lo, hi))
        assert section == float(np.prod(hi - lo))
        assert poss.point == point
        assert list(poss.witnesses.items()) == list(poss_set(point, ds).witnesses.items())
        reached += len(poss) > 0
    assert reached > 0 or d == 3  # d=3 draws meet no tube at N=3: points and sections are checked


def test_result_identity_ignores_out_dir(tmp_path):
    cfg = ExperimentConfig(seed=5)
    moved = replace(cfg, out_dir=str(tmp_path))
    reads = ("seed", "samples", "quadrature")
    assert block_hash(moved.to_dict(*reads)) == block_hash(cfg.to_dict(*reads))
    rows = [{"x": 1.5}]
    a = save_result({"experiment": "identity", "config": cfg.to_dict(*reads), "rows": rows}, tmp_path / "a")
    b = save_result({"experiment": "identity", "config": moved.to_dict(*reads), "rows": rows}, tmp_path / "b")
    assert a.name == b.name
    assert a.read_bytes() == b.read_bytes()


def test_iid_audit_point_search_is_bounded():
    # N=1 has only M^d = 3 root cubes, so no point has 4 possible roots
    with pytest.raises(ValueError, match="4 or more possible roots"):
        percolation_iid_audit(ExperimentConfig(M=3, N=1, d=1), N=1, fields=10)


def test_harness_import_does_not_load_configs():
    """The experiments read none of the configuration classes, so a fresh
    ``import kakeya.harness`` leaves ``kakeya.configs`` unloaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, kakeya.harness; print('kakeya.configs' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
