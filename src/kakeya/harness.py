"""Seeded, persisted Monte Carlo experiments over random slope assignments.

Each experiment sweeps directions over random edge fields and tabulates a
measure statistic against its predicted scaling: pairwise slab
intersections against N*M^(2R-2N), far-window volume against 1/N, the
near-window lower quantile against c/N.  Tiny instances are also evaluated
by exhaustive enumeration over all edge fields, which pins the Monte Carlo
statistics to exact values.  Every far point, of the resistance growth,
the pointwise percolation bound and the i.i.d. audit, comes from one
sampler of the strip that the tubes can reach.

Each experiment returns, under ``"config"``, the block of inputs it read
(``ExperimentConfig.to_dict``), and that block alone is the result's
identity: result files are canonical JSON named by its hash, and
rerunning a block reproduces them byte for byte.  The write time goes to
a ``.meta.json`` sidecar, with the kernel backend, so the records stay
deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import kernels
from .cantor import BUILTIN_CURVES, builtin_curve, direction_set, middle_spec
from .configs import cond_prob_pair
from .percolation import lyons_bounds, resistance
from .sticky import (
    StickyField,
    SlopeAssignment,
    all_fields_exhaustive,
    assignment_from_dirset,
    derive_seed,
    node_id,
)
from .trees import FiniteTree, address_bits, leaf_from_index
from .tubes import (
    PossSet,
    cross_section_side,
    kakeya_measures,
    leaf_centers,
    pair_measure,
    pair_sum_over_range,
    poss_set,
    unique_far_slope,
)

SCHEMA_VERSION = 1
BACKEND = "numpy"  # the kernel implementation, recorded with every result


@dataclass(frozen=True)
class ExperimentConfig:
    M: int = 3
    N: int = 6
    d: int = 1
    curve: str = "affine"
    samples: int = 200
    slab_offsets: tuple[int, ...] = (2, 3, 4, 5)  # values of N - R to sweep
    quadrature: int = 4  # midpoint samples per M^-N slab
    seed: int = 0
    n_values: tuple[int, ...] | None = None  # overrides N for sweeps
    leaf_budget: int = 10**7
    out_dir: str | None = None

    def __post_init__(self):
        for name in ("M", "N", "d", "samples", "quadrature", "seed", "leaf_budget"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        lists = (("n_values", self.n_values or []), ("slab_offsets", self.slab_offsets))
        for name, values in lists:
            if not isinstance(values, (list, tuple)) or any(type(n) is not int for n in values):
                raise ValueError(f"{name} must be a list of integers, got {getattr(self, name)!r}")
        for name, low in (("M", 3), ("N", 1), ("d", 1), ("samples", 1), ("quadrature", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if any(n < 1 for n in self.n_values or ()):
            raise ValueError(f"n_values must be at least 1, got {list(self.n_values)}")
        if not isinstance(self.out_dir, (str, Path, type(None))):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        if type(self.curve) is not str or self.curve not in BUILTIN_CURVES:
            raise ValueError(f"curve must be one of {list(BUILTIN_CURVES)}, got {self.curve!r}")

    def ns(self) -> tuple[int, ...]:
        return self.n_values if self.n_values else (self.N,)

    def to_dict(self, *reads: str, **counts) -> dict:
        """The config block of a run, which names the result: the geometry,
        the depth (``n_values`` for a sweep, else ``N``; naming ``"N"`` in
        ``reads`` asks for N whatever is swept), the fields the run
        ``reads``, its own ``counts`` and the backend.  Nothing else enters,
        so a field the run does not read cannot change its identity."""
        depth = "n_values" if self.n_values and "N" not in reads else "N"
        block = {"M": self.M, "d": self.d, "curve": self.curve, depth: getattr(self, depth)}
        block.update((name, getattr(self, name)) for name in reads)
        return {**block, **counts, "backend": BACKEND}

    def guard(self, N: int) -> None:
        leaves = self.M ** (N * self.d)
        if leaves > self.leaf_budget:
            raise ResourceWarning(
                f"M^(N*d) = {leaves} exceeds the leaf budget {self.leaf_budget}"
            )


def block_hash(config: dict) -> str:
    """The identity of a config block: the head of its sorted-key sha256."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


_DIRSET_CACHE: dict = {}


def build_dirset(cfg: ExperimentConfig, N: int):
    """The middle-digit Cantor direction set of depth N on the config's curve."""
    key = (cfg.M, N, cfg.d, cfg.curve)
    if key not in _DIRSET_CACHE:
        spec = middle_spec(cfg.M, N)
        _DIRSET_CACHE[key] = direction_set(spec, builtin_curve(cfg.curve, cfg.d))
    return _DIRSET_CACHE[key]


def sampled_assignments(cfg: ExperimentConfig, N: int) -> Iterator[SlopeAssignment]:
    """The config's sampled realizations of depth N, in index order: sample
    i is the field seeded by ``derive_seed(cfg.seed, i)``.  The leaf budget
    is checked here, before any sample is drawn."""
    cfg.guard(N)
    dirset = build_dirset(cfg, N)
    return (assignment_from_dirset(dirset, derive_seed(cfg.seed, i)) for i in range(cfg.samples))


def sampled_measures(cfg: ExperimentConfig, N: int) -> list[dict]:
    """``kakeya_measures`` of every sampled realization of depth N, in
    index order."""
    return [kakeya_measures(a, samples=cfg.quadrature) for a in sampled_assignments(cfg, N)]


def ci99(values: np.ndarray) -> float:
    """Normal 99% half-width of the mean of ``values``; 0.0 for fewer than
    two values, whose spread is unknown."""
    if values.size < 2:
        return 0.0
    return float(2.5758 * values.std(ddof=1) / math.sqrt(values.size))


# ---------------------------------------------------------------------------
# slab moments
# ---------------------------------------------------------------------------


def _slab_range(M: int, N: int, R: int) -> tuple[float, float]:
    return float(M) ** (R - N), float(M) ** (R + 1 - N)


def _pair_sums(cfg: ExperimentConfig, N: int, R: int, slope_indices) -> np.ndarray:
    """Slab pair sum of the family each leaf slope-index array realizes."""
    centers = leaf_centers(cfg.M, N, cfg.d)
    slope_table = build_dirset(cfg, N).slope_floats()
    side = cross_section_side(cfg.M, N, cfg.d)
    lo, hi = _slab_range(cfg.M, N, R)
    return np.asarray(
        [
            pair_sum_over_range(centers, slope_table[idx], lo, hi, side)
            for idx in slope_indices
        ],
        dtype=np.float64,
    )


def _sample_pair_sums(cfg: ExperimentConfig, N: int, R: int) -> np.ndarray:
    samples = sampled_assignments(cfg, N)
    return _pair_sums(cfg, N, R, (a.all_slope_indices() for a in samples))


def _exhaustive_pair_sums(cfg: ExperimentConfig, N: int, R: int) -> np.ndarray:
    return _pair_sums(cfg, N, R, all_fields_exhaustive(cfg.M**cfg.d, N))


def slab_sum_expectation_exact(cfg: ExperimentConfig, N: int, R: int) -> float:
    """Exact expectation of the pairwise slab intersection sum, from the
    closed-form pair probabilities (independent of any sampling)."""
    dirset = build_dirset(cfg, N)
    n_slopes = dirset.n
    side = cross_section_side(cfg.M, N, cfg.d)
    lo, hi = _slab_range(cfg.M, N, R)
    B = cfg.M**cfg.d
    leaves = [leaf_from_index(i, B, N) for i in range(B**N)]
    centers = leaf_centers(cfg.M, N, cfg.d)
    slope_table = dirset.slope_floats()
    addr = [address_bits(k, N) for k in range(n_slopes)]
    total = 0.0
    for i1, t1 in enumerate(leaves):
        for i2, t2 in enumerate(leaves):
            if i1 == i2:
                continue
            for k1 in range(n_slopes):
                p_first = Fraction(1, 2**N)
                for k2 in range(n_slopes):
                    p_cond = cond_prob_pair(t1, t2, addr[k1], addr[k2])
                    if p_cond == 0:
                        continue
                    m = pair_measure(
                        centers[i1],
                        slope_table[k1],
                        centers[i2],
                        slope_table[k2],
                        lo,
                        hi,
                        side,
                    )
                    if m:
                        total += float(p_first * p_cond) * m
    return total


def _moment_rows(
    M: int, N: int, R: int, sums: np.ndarray, exhaustive: bool
) -> list[dict]:
    """First- and second-moment rows of the pair sums, against the
    predicted scale N*M^(2R-2N) and its square.  A mean over every edge
    field has no sampling error, so exhaustive rows carry ci99 0.0."""
    scale = N * float(M) ** (2 * R - 2 * N)
    return [
        {
            "N": N,
            "R": R,
            "samples": int(sums.size),
            key: float(values.mean()),
            "scale": s,
            "ratio": float(values.mean() / s),
            "ci99": 0.0 if exhaustive else ci99(values),
        }
        for key, values, s in (
            ("mean_sum", sums, scale),
            ("mean_square", sums**2, scale**2),
        )
    ]


def slab_moments(cfg: ExperimentConfig, exhaustive: bool = False) -> dict:
    """First- and second-moment rows from one pass over the pair sums of
    every swept N and slab offset."""
    pair_sums = _exhaustive_pair_sums if exhaustive else _sample_pair_sums
    reads = ("slab_offsets",) if exhaustive else ("seed", "samples", "slab_offsets")
    rows, second_rows = [], []
    for N in cfg.ns():
        for off in cfg.slab_offsets:
            R = N - off
            if R < 0:
                continue
            first, second = _moment_rows(cfg.M, N, R, pair_sums(cfg, N, R), exhaustive)
            rows.append(first)
            second_rows.append(second)
    return {
        "experiment": "slab-moments",
        "config": cfg.to_dict(*reads),
        "rows": rows,
        "second_rows": second_rows,
    }


def slab_first_moment(cfg: ExperimentConfig, exhaustive: bool = False) -> dict:
    moments = slab_moments(cfg, exhaustive)
    rows = moments["rows"]
    return {"experiment": "slab-first-moment", "config": moments["config"], "rows": rows}


def slab_second_moment(cfg: ExperimentConfig, exhaustive: bool = False) -> dict:
    moments = slab_moments(cfg, exhaustive)
    rows = moments["second_rows"]
    return {"experiment": "slab-second-moment", "config": moments["config"], "rows": rows}


# ---------------------------------------------------------------------------
# volume sweeps (lower and upper bound surrogates)
# ---------------------------------------------------------------------------


def volume_sweep(cfg: ExperimentConfig) -> dict:
    """Near- and far-window volumes of every sampled realization; the far
    window starts at the offset constant of each N's direction set."""
    rows = []
    for N in cfg.ns():
        measures = sampled_measures(cfg, N)
        near = np.array([m["near"] for m in measures])
        far = np.array([m["far"] for m in measures])
        rows.append(
            {
                "N": N,
                "c0": measures[0]["c0"],
                "samples": cfg.samples,
                "near_mean": float(near.mean()),
                "near_q25": float(np.quantile(near, 0.25)),
                "far_mean": float(far.mean()),
                "far_mean_times_n": float(N * far.mean()),
                "far_ci99": ci99(far),
                "ratio_mean": float((near / far).mean()),
            }
        )
    config = cfg.to_dict("seed", "samples", "quadrature")
    return {"experiment": "volume-sweep", "config": config, "rows": rows}


LOWER_BOUND_MIN_SAMPLES = 100  # realizations behind a lower quartile


def lower_bound_experiment(cfg: ExperimentConfig, sweep: dict | None = None) -> dict:
    """Lower quartile of near-window volumes: the value exceeded by three
    quarters of realizations, compared against c/N and c*sqrt(log N)/N."""
    if cfg.samples < LOWER_BOUND_MIN_SAMPLES:
        raise ValueError(f"lower bound experiment needs >= {LOWER_BOUND_MIN_SAMPLES} samples")
    sweep = sweep or volume_sweep(cfg)
    rows = []
    for r in sweep["rows"]:
        N = r["N"]
        q = r["near_q25"]
        rows.append(
            {
                "N": N,
                "quantile75_mass": q,
                "c_over_n": q * N,
                "c_sqrtlog": q * N / math.sqrt(math.log(N)) if N > 1 else q * N,
            }
        )
    cs = [r["c_over_n"] for r in rows]
    return {
        "experiment": "lower-bound",
        "config": sweep["config"],
        "rows": rows,
        "fitted_c": min(cs),
        "spread": max(cs) / min(cs) if min(cs) > 0 else math.inf,
    }


def upper_bound_experiment(cfg: ExperimentConfig, sweep: dict | None = None) -> dict:
    """Mean far-window volume against the 1/N law.  The independent
    pointwise bound is ``pointwise_percolation_bound``."""
    sweep = sweep or volume_sweep(cfg)
    rows = []
    for r in sweep["rows"]:
        rows.append(
            {
                "N": r["N"],
                "far_mean": r["far_mean"],
                "far_ci99": r["far_ci99"],
                "n_times_mean": r["far_mean_times_n"],
            }
        )
    vals = [r["n_times_mean"] for r in rows]
    return {
        "experiment": "upper-bound",
        "config": sweep["config"],
        "rows": rows,
        "spread": max(vals) / min(vals) if min(vals) > 0 else math.inf,
    }


def _strip_draws(cfg: ExperimentConfig, N: int, key: int) -> Iterator[tuple[float, PossSet]]:
    """Endless far points x drawn from the reachable strip, as pairs (the
    strip's cross-section volume at x1, Poss(x)).  x1 is uniform on
    [c0, c0+1], then x-bar uniform on the far box [-2c0, 2c0]^d clipped to
    where tubes can be at x1.  The stream is seeded by
    ``derive_seed(cfg.seed, key)``."""
    dirset = build_dirset(cfg, N)
    c0 = dirset.c0
    slopes = dirset.slope_floats()
    low, high = slopes.min(axis=0), slopes.max(axis=0)
    rng = np.random.default_rng(derive_seed(cfg.seed, key))
    while True:
        x1 = rng.uniform(c0, c0 + 1.0)
        lo = np.maximum(x1 * low, -2.0 * c0)
        hi = np.minimum(1.0 + x1 * high, 2.0 * c0)
        yield float(np.prod(hi - lo)), poss_set((x1, *rng.uniform(lo, hi)), dirset)


def pointwise_percolation_bound(cfg: ExperimentConfig, N: int, grid: int = 200) -> dict:
    """Monte Carlo integral of min(1, 2/(1+R(Poss(x)))) over the far
    window, an upper bound for the expected far-window volume.  Points
    come from the reachable strip, outside which the integrand is 0, each
    weighted by the strip's cross-section volume.  The resistance
    statistics cover the points some tube reaches; None if none does."""
    vals = np.zeros(grid)
    reached = []
    for i, (section, poss) in zip(range(grid), _strip_draws(cfg, N, 10_000_019)):
        if len(poss):
            r = resistance(FiniteTree.from_leaves(poss.roots()))
            reached.append(float(r))
            vals[i] = section * min(1.0, float(lyons_bounds(r)[1]))
    return {
        "N": N,
        "bound_integral": float(vals.mean()),
        "ci99": ci99(vals),
        "grid": grid,
        "min_resistance": min(reached, default=None),
        "mean_resistance": float(np.mean(reached)) if reached else None,
    }


def resistance_growth(cfg: ExperimentConfig, points: int = 100) -> dict:
    """Fitted beta with R(Poss(x)) >= beta*N over random far points.

    Points are drawn from the reachable strip; points whose possible-root
    set is still empty sit in a gap of the direction set and are skipped.
    """
    rows = []
    for N in cfg.ns():
        draws = _strip_draws(cfg, N, 20_000_003 + N)
        ratios = []
        attempts = 0
        while len(ratios) < points and attempts < 20 * points:
            attempts += 1
            _, poss = next(draws)
            if len(poss):
                r = resistance(FiniteTree.from_leaves(poss.roots()))
                ratios.append(float(r) / N)
        if not ratios:
            raise RuntimeError(f"no far point hit any tube at N={N}")
        rows.append(
            {
                "N": N,
                "points": len(ratios),
                "attempts": attempts,
                "beta_min": min(ratios),
                "beta_mean": float(np.mean(ratios)),
            }
        )
    return {
        "experiment": "resistance-growth",
        "config": cfg.to_dict("seed", points=points),
        "rows": rows,
        "fitted_beta": min(r["beta_min"] for r in rows),
    }


# ---------------------------------------------------------------------------
# i.i.d. audit of the induced percolation bits
# ---------------------------------------------------------------------------


AUDIT_POINT_DRAWS = 1000  # far points tried before the audit gives up


class AuditPointError(ValueError):
    """No far point with 4 or more possible roots in the audit's draws."""


def percolation_iid_audit(cfg: ExperimentConfig, N: int, fields: int = 10_000) -> dict:
    """Consistency and uniformity checks for the induced edge bits.

    For a far point, the first of the reachable strip's draws with 4 or
    more possible roots, every possible root carries a unique binary
    address; an edge bit is "agree" when the field bit matches the address
    bit at that level.  Computed through every leaf under the edge, the
    values must coincide (consistency: the leaves' address bits there
    agree, so every field passes or none does), and across fields each
    edge bit must look like an independent fair coin.
    """
    from scipy.stats import chi2

    draws = itertools.islice(_strip_draws(cfg, N, 30_000_001), AUDIT_POINT_DRAWS)
    point = next((poss.point for _, poss in draws if len(poss) >= 4), None)
    if point is None:
        raise AuditPointError(
            f"no far point with 4 or more possible roots in {AUDIT_POINT_DRAWS} "
            f"draws (M={cfg.M}, N={N}, d={cfg.d}); raise N"
        )
    witnesses = unique_far_slope(point, build_dirset(cfg, N))
    # every leaf under an edge reads the edge's one field bit, so Y agrees
    # through all of them exactly when their address bits at that level
    # agree; where they disagree, the sentinel 2 matches no bit and Y = 0
    level_bits = {}
    for t, (_, bits) in witnesses.items():
        for lvl in range(1, N + 1):
            level_bits.setdefault(t[:lvl], set()).add(bits[lvl - 1])
    edges = sorted(level_bits)
    edge_beta = np.array(
        [b.pop() if len(b) == 1 else 2 for b in map(level_bits.get, edges)], dtype=np.uint8
    )
    base = cfg.M**cfg.d
    ids = np.array([node_id(e, base) for e in edges], dtype=np.uint64)
    E = len(edges)
    ones = np.zeros(E, dtype=np.int64)
    consistency_violations = fields if np.any(edge_beta == 2) else 0
    pair_cells = np.zeros((min(64, E // 2), 4), dtype=np.int64)
    pair_a = np.arange(pair_cells.shape[0]) * 2
    pair_b = pair_a + 1
    for f in range(fields):
        fld = StickyField(seed=derive_seed(cfg.seed, 40_000_007 + f), base=base)
        ye = (kernels.node_bits(fld.key, ids) == edge_beta).astype(np.int8)
        ones += ye
        cell = 2 * ye[pair_a] + ye[pair_b]
        for c in range(4):
            pair_cells[:, c] += cell == c
    half = fields / 2.0
    chi_edges = float((((ones - half) ** 2) / half * 2).sum())
    chi_edges_threshold = float(chi2.ppf(0.99, E))
    quarter = fields / 4.0
    chi_pairs = float((((pair_cells - quarter) ** 2) / quarter).sum())
    chi_pairs_threshold = float(chi2.ppf(0.99, 3 * pair_cells.shape[0]))
    freqs = ones / fields
    return {
        "experiment": "iid-audit",
        "N": N,
        "point": list(point),
        "edges": E,
        "fields": fields,
        "consistency_violations": int(consistency_violations),
        "freq_min": float(freqs.min()),
        "freq_max": float(freqs.max()),
        "chi2_edges": chi_edges,
        "chi2_edges_threshold": chi_edges_threshold,
        "chi2_pairs": chi_pairs,
        "chi2_pairs_threshold": chi_pairs_threshold,
        "pass": bool(
            consistency_violations == 0
            and chi_edges <= chi_edges_threshold
            and chi_pairs <= chi_pairs_threshold
        ),
    }


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_result(result: dict, out_dir: str | Path) -> Path:
    """Persist one experiment result: deterministic JSON records, a CSV
    summary table, and a ``.meta.json`` sidecar with the write time and
    the kernel backend.  The record holds ``result["config"]`` as given,
    and the files are named by its hash; the top-level seed is the
    block's, so a run that reads no seed carries none."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = result["config"]
    name = f"{result['experiment']}-{block_hash(config)}"
    payload = {"schema_version": SCHEMA_VERSION, **result}
    if "seed" in config:
        payload["seed"] = config["seed"]
    json_path = out / f"{name}.json"
    json_path.write_text(canonical_json(payload) + "\n")
    rows = result.get("rows", [])
    if rows:
        csv_path = out / f"{name}.csv"
        with csv_path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=sorted(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: row.get(k) for k in sorted(rows[0])})
    meta_path = out / f"{name}.meta.json"
    meta_path.write_text(
        json.dumps({"written_at": time.time(), "backend": BACKEND}) + "\n"
    )
    return json_path
