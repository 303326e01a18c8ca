"""Seeded, persisted Monte Carlo experiments over random slope assignments.

Each experiment sweeps directions over random edge fields and tabulates a
measure statistic against its predicted scaling: pairwise slab
intersections against N*M^(2R-2N), far-window volume against 1/N, the
near-window lower quantile against c/N.  Tiny instances are also evaluated
by exhaustive enumeration over all edge fields, which pins the Monte Carlo
statistics to exact values.

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
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import kernels
from .cantor import builtin_curve, direction_set, middle_spec
from .configs import cond_prob_pair
from .percolation import lyons_bounds, resistance
from .sticky import (
    StickyField,
    SlopeAssignment,
    all_fields_exhaustive,
    assignment_from_dirset,
    derive_seed,
    node_id,
    sticky_admissible,
)
from .trees import (
    FiniteTree,
    Vertex,
    address_bits,
    decode_cube,
    height,
    index_from_leaf,
    leaf_from_index,
    yca,
)
from .tubes import (
    cross_section_side,
    kakeya_measures,
    leaf_centers,
    offset_constant,
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
        for name, low in (("M", 3), ("N", 1), ("d", 1), ("samples", 1), ("quadrature", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if any(n < 1 for n in self.n_values or ()):
            raise ValueError(f"n_values must be at least 1, got {list(self.n_values)}")

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


def sample_assignment(cfg: ExperimentConfig, N: int, index: int) -> SlopeAssignment:
    dirset = build_dirset(cfg, N)
    return assignment_from_dirset(dirset, cfg.d, derive_seed(cfg.seed, index))


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
    cfg.guard(N)
    return _pair_sums(
        cfg,
        N,
        R,
        (sample_assignment(cfg, N, i).all_slope_indices() for i in range(cfg.samples)),
    )


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
        cfg.guard(N)
        measures = [
            kakeya_measures(sample_assignment(cfg, N, i), samples=cfg.quadrature)
            for i in range(cfg.samples)
        ]
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


def _strip_resistances(cfg: ExperimentConfig, N: int, key: int):
    """Endless far points x drawn from the reachable strip, as pairs (the
    strip's cross-section volume at x1, R(Poss(x)) or None if no tube
    reaches x).  x1 is uniform on [c0, c0+1], then x-bar uniform on the
    far box [-2c0, 2c0]^d clipped to where tubes can be at x1."""
    dirset = build_dirset(cfg, N)
    c0 = offset_constant(cfg.d, dirset.lip_lo)
    slopes = dirset.slope_floats()
    rng = np.random.default_rng(derive_seed(cfg.seed, key))
    while True:
        x1 = rng.uniform(c0, c0 + 1.0)
        lo = np.maximum(x1 * slopes.min(axis=0), -2.0 * c0)
        hi = np.minimum(1.0 + x1 * slopes.max(axis=0), 2.0 * c0)
        poss = poss_set((x1, *rng.uniform(lo, hi)), dirset, N, cfg.d)
        r = resistance(FiniteTree.from_leaves(poss.roots())) if len(poss) else None
        yield float(np.prod(hi - lo)), r


def pointwise_percolation_bound(cfg: ExperimentConfig, N: int, grid: int = 200) -> dict:
    """Monte Carlo integral of min(1, 2/(1+R(Poss(x)))) over the far
    window, an upper bound for the expected far-window volume.  Points
    come from the reachable strip, outside which the integrand is 0, each
    weighted by the strip's cross-section volume.  The resistance
    statistics cover the points some tube reaches; None if none does."""
    vals = np.zeros(grid)
    reached = []
    for i, (section, r) in zip(range(grid), _strip_resistances(cfg, N, 10_000_019)):
        if r is not None:
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
        draws = _strip_resistances(cfg, N, 20_000_003 + N)
        ratios = []
        attempts = 0
        while len(ratios) < points and attempts < 20 * points:
            attempts += 1
            _, r = next(draws)
            if r is not None:
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
# measure-theoretic union bound
# ---------------------------------------------------------------------------


def measure_union_bound(alpha, n: int, L) -> Fraction:
    """Lower bound alpha^2 n^2 / (16 L) for the measure of a union of n
    equal-measure sets whose pairwise intersection total is at most L."""
    alpha = Fraction(alpha)
    L = Fraction(L)
    if alpha < 0 or n < 1 or L <= 0:
        raise ValueError("need alpha >= 0, n >= 1, L > 0")
    return alpha**2 * n**2 / (16 * L)


# ---------------------------------------------------------------------------
# counting diagnostics
# ---------------------------------------------------------------------------


def _cube_bounds(t: Vertex, M: int, d: int):
    corner, side = decode_cube(t, M, d)
    lo = np.array([float(c) for c in corner])
    return lo, lo + float(side)


def counting_diagnostics(cfg: ExperimentConfig, N: int) -> dict:
    """Cardinalities of the deterministic slab-counting sets against their
    predicted growth rates, with fitted constants.

    For the slab k = M^(N-1), at x1 ~ 1/M, and an ancestor cube u:
      near-boundary roots:   roots in u within theta of a child boundary,
                             against (k/M^N) M^(d(N-h(u)));
      close sibling pairs:   t2 with yca u and centre distance <= theta;
      reachable pairs:       (t2, v2) whose tube meets a fixed (t1, v1)
                             tube inside the slab, with address constraint,
                             against 2^(N-h(u)).
    """
    if cfg.M ** (N * cfg.d) > 4096:
        raise ResourceWarning("counting diagnostics are exhaustive; keep M^(N*d) small")
    dirset = build_dirset(cfg, N)
    M, d = cfg.M, cfg.d
    k = M ** (N - 1)
    lo_x, hi_x = k * float(M) ** (-N), (k + 1) * float(M) ** (-N)
    side = cross_section_side(M, N, d)
    lip = dirset.lip_hi
    B = M**d
    leaves = [leaf_from_index(i, B, N) for i in range(B**N)]
    centers = leaf_centers(M, N, d)
    slope_table = dirset.slope_floats()
    n_slopes = dirset.n
    addr_h = lambda k1, k2: N - (k1 ^ k2).bit_length() if k1 != k2 else N

    rows = []
    for hu in range(0, N):
        u = leaves[0][:hu]  # the leftmost cube at each height
        theta = lip * (k + 1) * float(M) ** (-N - hu) + 2 * side * math.sqrt(d)
        in_u = [i for i, t in enumerate(leaves) if t[:hu] == u]
        a_u = []
        for i in in_u:
            child = leaves[i][: hu + 1]
            clo, chi = _cube_bounds(child, M, d)
            tlo, thi = _cube_bounds(leaves[i], M, d)
            dist = min(
                min(tlo[a] - clo[a], chi[a] - thi[a]) for a in range(d)
            )
            if dist <= theta:
                a_u.append(i)
        bound_a = (k / float(M) ** N) * float(M) ** (d * (N - hu))
        t1 = a_u[0] if a_u else in_u[0]
        b_t1 = [
            j
            for j in in_u
            if j != t1
            and height(yca(leaves[t1], leaves[j])) == hu
            and np.linalg.norm(centers[t1] - centers[j]) <= theta
        ]
        v1 = 0
        e_u = 0
        for j in b_t1:
            for k2 in range(n_slopes):
                if addr_h(v1, k2) < hu:
                    continue
                m = pair_measure(
                    centers[t1],
                    slope_table[v1],
                    centers[j],
                    slope_table[k2],
                    lo_x,
                    hi_x,
                    side,
                )
                if m > 0:
                    e_u += 1
        rows.append(
            {
                "h_u": hu,
                "k": k,
                "near_boundary_count": len(a_u),
                "near_boundary_bound": bound_a,
                "near_boundary_constant": len(a_u) / bound_a if bound_a else math.inf,
                "close_pair_count": len(b_t1),
                "reachable_count": e_u,
                "reachable_bound": 2.0 ** (N - hu),
                "reachable_constant": e_u / 2.0 ** (N - hu),
            }
        )
    return {"experiment": "counting-diagnostics", "rows": rows}


def estar_diagnostic(cfg: ExperimentConfig, N: int) -> dict:
    """Cardinality of the four-point candidate sets behind the second
    moment estimate, stratified by the cross-ancestor height.

    For a fixed pair (t2, v2), (t2', v2') in type-2 position under an
    ancestor u, counts the admissible (t1, v1), (t1', v1') whose tubes
    meet the fixed ones inside a thin slab; the count at cross height
    h(u1) is checked against its predicted ceiling 2^(2N-h(u)-h(u1)).
    """
    if cfg.d != 1:
        raise ValueError("the candidate-set diagnostic is implemented for d=1")
    if cfg.M**N > 256:
        raise ResourceWarning("candidate-set diagnostic is exhaustive; keep M^N small")
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
    return {"experiment": "candidate-sets", "rows": rows}


# ---------------------------------------------------------------------------
# i.i.d. audit of the induced percolation bits
# ---------------------------------------------------------------------------


AUDIT_POINT_DRAWS = 1000  # far points tried before the audit gives up


def percolation_iid_audit(cfg: ExperimentConfig, N: int, fields: int = 10_000) -> dict:
    """Consistency and uniformity checks for the induced edge bits.

    For a far-box point, every possible root carries a unique binary
    address; an edge bit is "agree" when the field bit matches the address
    bit at that level.  Computed independently through every leaf under
    the edge, the values must coincide (consistency), and across fields
    each edge bit must look like an independent fair coin.
    """
    from scipy.stats import chi2

    dirset = build_dirset(cfg, N)
    d = cfg.d
    c0 = offset_constant(d, dirset.lip_lo)
    rng = np.random.default_rng(derive_seed(cfg.seed, 30_000_001))
    for _ in range(AUDIT_POINT_DRAWS):
        x = rng.uniform([float(c0)] + [-0.5] * d, [float(c0) + 1.0] + [0.5] * d)
        if len(poss_set(x, dirset, N, d)) >= 4:
            point = tuple(float(v) for v in x)
            break
    else:
        raise ValueError(
            f"no far point with 4 or more possible roots in {AUDIT_POINT_DRAWS} "
            f"draws (M={cfg.M}, N={N}, d={d}); raise N"
        )
    witnesses = unique_far_slope(point, dirset, N, d)
    roots = sorted(witnesses)
    beta = {t: bits for t, (_, bits) in witnesses.items()}
    tree = FiniteTree.from_leaves(roots)
    edges = tree.edges()
    edge_index = {e: i for i, e in enumerate(edges)}
    base = cfg.M**d

    # (leaf, level) incidence lists: route r computes Y at edge edge_of[r]
    leaf_node_ids = []
    route_edge = []
    route_beta = []
    for t in roots:
        for lvl in range(1, N + 1):
            e = t[:lvl]
            leaf_node_ids.append(node_id(e, base))
            route_edge.append(edge_index[e])
            route_beta.append(beta[t][lvl - 1])
    ids = np.array(leaf_node_ids, dtype=np.uint64)
    route_edge = np.array(route_edge)
    route_beta = np.array(route_beta, dtype=np.uint8)
    E = len(edges)
    ones = np.zeros(E, dtype=np.int64)
    consistency_violations = 0
    pair_cells = np.zeros((min(64, E // 2), 4), dtype=np.int64)
    pair_a = np.arange(pair_cells.shape[0]) * 2
    pair_b = pair_a + 1
    for f in range(fields):
        fld = StickyField(seed=derive_seed(cfg.seed, 40_000_007 + f), base=base)
        bits = kernels.node_bits(fld.key, ids)
        y = (bits == route_beta).astype(np.int8)
        mins = np.full(E, 2, dtype=np.int8)
        maxs = np.full(E, -1, dtype=np.int8)
        np.minimum.at(mins, route_edge, y)
        np.maximum.at(maxs, route_edge, y)
        if np.any(mins != maxs):
            consistency_violations += 1
        ye = mins
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
# operator-norm floor and persistence
# ---------------------------------------------------------------------------


def maximal_norm_floor(ratio: float, p: float, c0: float = 1.0) -> float:
    """Lower bound c0 * ratio^(1/p) on the directional maximal operator
    norm implied by a measured dilate ratio."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    return c0 * ratio ** (1.0 / p)


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
