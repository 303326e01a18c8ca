"""The four workloads: the experiment config (its N values name the
direction sets built in set-up), the experiment calls that make one
round, and how their outputs are checked.

Sizes follow the acceptance criteria each workload stands for, cut to a
few seconds per round (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Plan:
    cfg: dict  # ExperimentConfig fields, plus "points" for resistance_growth
    ops: tuple  # (name, fn(harness, ExperimentConfig)) in call order
    check: Callable  # (Report, results in op order, cfg) -> None

    def experiment_config(self, harness):
        return harness.ExperimentConfig(**{k: v for k, v in self.cfg.items() if k != "points"})


def _check_volume(report, results, cfg):
    checks.check_volume_sweep(report, results[0], cfg)


def _check_slab(report, results, cfg):
    checks.check_slab_moments(report, results[0], results[1], cfg)


def _check_resistance(report, results, cfg):
    checks.check_resistance_growth(report, results[0], cfg)


def _check_moment(report, results, cfg):
    checks.check_volume_sweep(report, results[0], cfg)
    checks.check_slab_moments(report, results[1], results[2], cfg)


VOLUME = ("volume_sweep", lambda h, c: h.volume_sweep(c))
FIRST = ("slab_first_moment", lambda h, c: h.slab_first_moment(c))
SECOND = ("slab_second_moment", lambda h, c: h.slab_second_moment(c))
RESISTANCE_POINTS = 100  # far points per N, as in criterion 05
RESISTANCE = ("resistance_growth", lambda h, c: h.resistance_growth(c, points=RESISTANCE_POINTS))


def volume_d1(seed: int) -> Plan:
    cfg = dict(M=3, d=1, curve="affine", n_values=(6, 7, 8), samples=2, quadrature=4, seed=seed)
    return Plan(cfg, (VOLUME,), _check_volume)


def slab_d1(seed: int) -> Plan:
    cfg = dict(M=3, N=7, d=1, curve="affine", samples=2, slab_offsets=(2, 3, 4, 5), seed=seed)
    return Plan(cfg, (FIRST, SECOND), _check_slab)


def resistance_d1(seed: int) -> Plan:
    cfg = dict(M=3, d=1, curve="affine", n_values=(4, 5, 6, 7, 8, 9), seed=seed)
    cfg["points"] = RESISTANCE_POINTS
    return Plan(cfg, (RESISTANCE,), _check_resistance)


def moment_d2(seed: int) -> Plan:
    cfg = dict(
        M=3,
        N=3,
        n_values=(3,),
        d=2,
        curve="moment",
        samples=2,
        quadrature=4,
        slab_offsets=(2,),
        seed=seed,
    )
    return Plan(cfg, (VOLUME, FIRST, SECOND), _check_moment)


WORKLOADS = {
    "volume_d1": volume_d1,
    "slab_d1": slab_d1,
    "resistance_d1": resistance_d1,
    "moment_d2": moment_d2,
}
