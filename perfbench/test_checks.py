"""Tests of the benchmark's own checks and tracer.

Each check must accept the program's output and reject it once one
compared quantity is perturbed by a small factor, so that no check can
pass vacuously.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from kakeya import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

EXACT = 1 + 1e-6  # above RTOL_EXACT
COVER = 1.01  # above RTOL_COVER


def experiment_config(cfg):
    return harness.ExperimentConfig(**{k: v for k, v in cfg.items() if k != "points"})


def failures(check, *outputs, cfg):
    report = checks.Report()
    check(report, *outputs, cfg)
    assert report.items
    return report.failures()


def perturbed(result, index, key, factor):
    out = copy.deepcopy(result)
    out["rows"][index][key] *= factor
    return out


VOLUME_KEYS = ["near_mean", "near_q25", "far_mean", "far_mean_times_n", "far_ci99", "ratio_mean"]


@pytest.mark.parametrize(
    "cfg",
    [
        dict(M=3, d=1, curve="affine", n_values=(3, 4), samples=3, quadrature=2, seed=7),
        dict(M=3, d=2, curve="moment", n_values=(3,), samples=2, quadrature=1, seed=7),
    ],
    ids=["d1", "d2"],
)
def test_volume_check_rejects_perturbed_rows(cfg):
    result = harness.volume_sweep(experiment_config(cfg))
    assert failures(checks.check_volume_sweep, result, cfg=cfg) == []
    last = len(result["rows"]) - 1
    for key in VOLUME_KEYS:
        factor = COVER if key == "far_ci99" else EXACT  # far_ci99 has a rounding allowance
        bad = failures(checks.check_volume_sweep, perturbed(result, last, key, factor), cfg=cfg)
        assert any(key in f for f in bad), key
    wrong_c0 = copy.deepcopy(result)
    wrong_c0["rows"][0]["c0"] += 1
    assert any("c0" in f for f in failures(checks.check_volume_sweep, wrong_c0, cfg=cfg))


@pytest.mark.parametrize(
    "cfg, factor",
    [
        (dict(M=3, N=4, d=1, curve="affine", samples=3, slab_offsets=(2, 3), seed=5), COVER),
        (dict(M=3, N=2, d=2, curve="moment", samples=2, slab_offsets=(1,), seed=5), EXACT),
    ],
    ids=["d1", "d2"],
)
def test_slab_check_rejects_perturbed_rows(cfg, factor):
    c = experiment_config(cfg)
    first, second = harness.slab_first_moment(c), harness.slab_second_moment(c)
    assert failures(checks.check_slab_moments, first, second, cfg=cfg) == []
    for key in ("mean_sum", "ratio", "ci99"):
        bad = failures(checks.check_slab_moments, perturbed(first, 0, key, factor), second, cfg=cfg)
        assert any(key in f for f in bad), key
    for key, label in (("mean_square", "mean_square"), ("ratio", "second ratio"), ("ci99", "second ci99")):
        bad = failures(checks.check_slab_moments, first, perturbed(second, 0, key, factor), cfg=cfg)
        assert any(label in f for f in bad), key


def test_resistance_check_rejects_perturbed_rows():
    cfg = dict(M=3, d=1, curve="affine", n_values=(4, 5), seed=3, points=10)
    result = harness.resistance_growth(experiment_config(cfg), points=cfg["points"])
    assert failures(checks.check_resistance_growth, result, cfg=cfg) == []
    for key in ("beta_min", "beta_mean"):
        bad = failures(checks.check_resistance_growth, perturbed(result, 1, key, EXACT), cfg=cfg)
        assert any(key in f for f in bad), key
    for key in ("points", "attempts"):
        bad = failures(checks.check_resistance_growth, perturbed(result, 0, key, 2), cfg=cfg)
        assert any(key in f for f in bad), key
    high = dict(result, fitted_beta=result["fitted_beta"] * EXACT)
    assert any("fitted_beta" in f for f in failures(checks.check_resistance_growth, high, cfg=cfg))


def test_property_checks_reject_boundary_violations():
    def fails(check, *args):
        report = checks.Report()
        check(report, *args, "tag")
        return bool(report.failures())

    row = {"near_q25": 1.0, "near_mean": 1.0}
    assert not fails(checks.check_volume_properties, row)
    assert fails(checks.check_volume_properties, dict(row, near_q25=EXACT))
    assert fails(checks.check_volume_properties, dict(row, near_q25=0.0))

    assert not fails(checks.check_slab_properties, {"mean_sum": 2.0}, {"mean_square": 4.0})
    assert fails(checks.check_slab_properties, {"mean_sum": 2.0}, {"mean_square": 4.0 / EXACT})

    row = {"N": 4, "beta_min": 1.0, "beta_mean": 1.0}
    assert not fails(checks.check_resistance_properties, row, [4.0, 4.0])
    assert fails(checks.check_resistance_properties, row, [4.0 * EXACT, 4.0 * EXACT])
    assert fails(checks.check_resistance_properties, row, [3.0, 5.0 * EXACT])


def test_references_on_hand_computed_cases():
    w = 0.1
    # two squares overlapping in a 0.05 x 0.1 strip, a third one apart
    ys, zs = np.array([0.0, 0.05, 0.5]), np.array([0.0, 0.0, 0.5])
    assert checks.union_area_cover(ys, zs, w) == pytest.approx(3 * w * w - 0.05 * w)
    # a single ray of height N: resistors 1, 2, ..., 2^(N-1) in series
    assert checks.kirchhoff_resistance([(0, 1, 2)]) == pytest.approx(7.0)
    # two leaves under one root child: 1 + (2+4)/2 = 4; shorting gives 1 + 2/1 + 4/2
    leaves = [(0, 0, 0), (0, 1, 0)]
    assert checks.kirchhoff_resistance(leaves) == pytest.approx(1 + 6 / 2)
    assert checks.shorted_resistance(leaves) == pytest.approx(1 + 2 / 2 + 4 / 2)


def test_tracer_counts_and_leaves_outputs_unchanged():
    cfg = dict(M=3, N=4, d=1, curve="affine", samples=2, slab_offsets=(2, 3), seed=1)
    c = experiment_config(cfg)
    plain = [harness.slab_first_moment(c), harness.slab_second_moment(c)]
    import kakeya.kernels as kernels

    original = kernels.pair_sum_1d
    tracer = Tracer()
    tracer.install()
    try:
        traced = [harness.slab_first_moment(c), harness.slab_second_moment(c)]
    finally:
        tracer.uninstall()
    tracer.finish()
    assert kernels.pair_sum_1d is original
    assert [harness.canonical_json(r) for r in traced] == [
        harness.canonical_json(r) for r in plain
    ]
    over_range = tracer.stats["tubes.pair_sum_over_range"]
    assert over_range.calls == 8 and over_range.counts["distinct_calls"] == 4
    kernel = tracer.stats["kernels.pair_sum_1d"]
    assert kernel.counts["pairs_evaluated"] == 8 * (81 * 80 // 2)
    assert 0 < kernel.counts["pairs_contributing"] < kernel.counts["pairs_evaluated"]
