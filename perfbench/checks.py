"""Reference computations behind the benchmark's correctness checks.

Nothing here imports kakeya.  The realized tube families are rebuilt from
their definitions (Cantor representatives, the curve, the splitmix64 edge
field, the root-cube grid) and every measure is recomputed by another
algorithm than the one the program uses:

- d=1 union lengths by an interval merge with a running reach;
- d=1 slab pair sums from the covering-count identity
  sum_{i!=j} |T_i ∩ T_j ∩ S| = ∫_S (f² − f), f the number of tubes over a
  point, swept exactly in y at each node of a fine x grid;
- d=2 union areas by an exact coordinate-compressed cover;
- d=2 pair sums by ``scipy.integrate.quad`` of the product integrand over
  the pairs a vectorized per-axis prefilter keeps;
- possible-root sets by a direct pull-back with floor indexing, and their
  resistance by a Kirchhoff (Laplacian) solve.

Each check appends one item per compared quantity to a ``Report``; the
benchmark counts every item as one operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# kappa(d) = min(d^-d, 1/ceil(2 + 4 sqrt(d))): the cross-section shrink factor
KAPPA = {1: Fraction(1, 6), 2: Fraction(1, 8)}
# exact lower bi-Lipschitz constants of the curves the workloads use:
# t -> t for d=1, and t -> (t, t^2), whose |γ(s)−γ(t)|/|s−t| = sqrt(1+(s+t)^2)
# has infimum 1 on [0,1]^2
EXACT_LIP_LO = {("affine", 1): 1, ("moment", 2): 1}

Z99 = 2.5758  # the harness's 99% normal quantile

# relative tolerances: exact recomputations differ only by summation order;
# the covering-count sum is a midpoint rule in x, with at least 2048 nodes
# and a spacing of at most (2/9)/8192; at N=7 its measured error stays
# below 5e-5 on every slab offset 2..5
RTOL_EXACT = 1e-8
RTOL_COVER = 1e-3
COVER_NODES_MIN = 2048
COVER_STEP = (2 / 9) / 8192


@dataclass
class Report:
    """Outcome of every comparison a check made, one item per quantity."""

    items: list[tuple[str, bool, str]] = field(default_factory=list)

    def close(self, label: str, got, want, rtol: float, atol: float = 0.0) -> None:
        ok = math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
        self.items.append((label, bool(ok), f"got {got!r}, want {want!r}"))

    def equal(self, label: str, got, want) -> None:
        self.items.append((label, got == want, f"got {got!r}, want {want!r}"))

    def holds(self, label: str, ok: bool, detail: str) -> None:
        self.items.append((label, bool(ok), detail))

    def failures(self) -> list[str]:
        return [f"{label}: {detail}" for label, ok, detail in self.items if not ok]


# ---------------------------------------------------------------------------
# the realized family, from the definitions
# ---------------------------------------------------------------------------


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    return mix64((seed & MASK64) ^ ((stream + 1) * GOLDEN & MASK64))


def slope_indices(seed: int, sample: int, M: int, N: int, d: int) -> np.ndarray:
    """Binary address of every leaf (lexicographic order) for one sample:
    the edge bits along its ray, first bit most significant."""
    B = M**d
    key = mix64(mix64(derive_seed(seed, sample)) ^ (B * MIX1 & MASK64))
    idx = np.zeros(1, dtype=np.int64)
    for level in range(1, N + 1):
        first = (B**level - 1) // (B - 1)  # level-major id of the level's first vertex
        bits = [mix64(key + (first + v) * GOLDEN) & 1 for v in range(B**level)]
        idx = np.repeat(idx, B) * 2 + np.asarray(bits, dtype=np.int64)
    return idx


def direction_slopes(M: int, N: int, d: int, curve: str) -> np.ndarray:
    """(2^N, d) slopes, in the order of the binary addresses: bit b at
    level j picks Cantor digit b*(M-1), and the slope is the curve at the
    left endpoint of the level-N interval."""
    rows = []
    for k in range(2**N):
        t = sum(
            Fraction(((k >> (N - 1 - j)) & 1) * (M - 1), M ** (j + 1)) for j in range(N)
        )
        if curve == "affine":
            coords = [t] * d
        elif curve == "moment":
            coords = [t**p for p in range(1, d + 1)]
        else:
            raise ValueError(f"no reference for curve {curve!r}")
        rows.append([float(c) for c in coords])
    return np.asarray(rows)


def leaf_centers(M: int, N: int, d: int) -> np.ndarray:
    """Centres of the M^(N*d) root cubes, leaves in lexicographic order."""
    B = M**d
    leaf = np.arange(B**N, dtype=np.int64)
    axis = np.zeros((B**N, d), dtype=np.int64)
    for level in range(N):
        digit = leaf // B ** (N - 1 - level) % B
        for a in range(d):
            axis[:, a] = axis[:, a] * M + digit // M ** (d - 1 - a) % M
    return (axis + 0.5) / float(M**N)


def side(M: int, N: int, d: int) -> float:
    return float(KAPPA[d]) * float(M) ** (-N)


def offset_constant(d: int, curve: str) -> int:
    lip = EXACT_LIP_LO[(curve, d)]
    return math.ceil(max(d**d, 2 * math.sqrt(d)) / lip)


def family(seed: int, sample: int, M: int, N: int, d: int, curve: str):
    """(centers, slopes) of one sample's tubes, both (M^(N*d), d)."""
    slopes = direction_slopes(M, N, d, curve)[slope_indices(seed, sample, M, N, d)]
    return leaf_centers(M, N, d), slopes


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def quadrature_nodes(M: int, N: int, lo: float, hi: float, per_slab: int):
    """Midpoint nodes, ``per_slab`` in each M^-N slab of [lo, hi]."""
    width = float(M) ** (-N)
    xs, ws = [], []
    for k in range(math.floor(lo / width + 1e-12), math.ceil(hi / width - 1e-12)):
        s0, s1 = max(lo, k * width), min(hi, (k + 1) * width)
        if s1 > s0:
            step = (s1 - s0) / per_slab
            xs.extend(s0 + (j + 0.5) * step for j in range(per_slab))
            ws.extend([step] * per_slab)
    return np.asarray(xs), np.asarray(ws)


def union_lengths_merge(centers, slopes, width, xs, rows=64):
    """Union length of the intervals [p, p + width], p = c − width/2 + x·v,
    at each x, by merging the intervals in order of their left ends."""
    out = np.empty(xs.shape[0])
    for s in range(0, xs.shape[0], rows):
        starts = np.multiply.outer(xs[s : s + rows], slopes)
        starts += centers - width / 2
        starts.sort(axis=1)
        ends = starts + width  # equal widths: ends are in the order of starts
        reach = np.maximum.accumulate(ends, axis=1)
        fresh = ends[:, 1:] - np.maximum(starts[:, 1:], reach[:, :-1])
        out[s : s + rows] = width + np.maximum(fresh, 0.0).sum(axis=1)
    return out


def union_area_cover(ys, zs, width):
    """Exact area of the union of squares [y, y+w] x [z, z+w] on the grid
    of all square edges: a 2-D difference array marks the covered cells."""
    yc = np.unique(np.concatenate([ys, ys + width]))
    zc = np.unique(np.concatenate([zs, zs + width]))
    y0, y1 = np.searchsorted(yc, ys), np.searchsorted(yc, ys + width)
    z0, z1 = np.searchsorted(zc, zs), np.searchsorted(zc, zs + width)
    diff = np.zeros((yc.size, zc.size), dtype=np.int32)
    np.add.at(diff, (y0, z0), 1)
    np.add.at(diff, (y1, z0), -1)
    np.add.at(diff, (y0, z1), -1)
    np.add.at(diff, (y1, z1), 1)
    covered = diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] > 0
    return float(np.diff(yc) @ covered @ np.diff(zc))


def union_volume(centers, slopes, lo, hi, M, N, per_slab):
    """Quadrature of the cross-section union over x1 in [lo, hi] (d <= 2)."""
    d = centers.shape[1]
    w = side(M, N, d)
    xs, ws = quadrature_nodes(M, N, lo, hi, per_slab)
    if d == 1:
        lengths = union_lengths_merge(centers[:, 0], slopes[:, 0], w, xs)
    else:
        corners = centers - w / 2
        lengths = np.array(
            [
                union_area_cover(
                    corners[:, 0] + x * slopes[:, 0], corners[:, 1] + x * slopes[:, 1], w
                )
                for x in xs
            ]
        )
    return float(ws @ lengths)


def pair_sum_cover_1d(centers, slopes, lo, hi, width):
    """∫_lo^hi ∫ (f² − f) dy dx, f counting the intervals over (x, y):
    exact in y by an event sweep, a midpoint rule in x whose spacing is
    fine enough for the narrowest slab the workloads use."""
    n = centers.shape[0]
    nodes = max(COVER_NODES_MIN, math.ceil((hi - lo) / COVER_STEP))
    h = (hi - lo) / nodes
    xs = lo + (np.arange(nodes) + 0.5) * h
    signs = np.concatenate([np.ones(n, np.int64), -np.ones(n, np.int64)])
    total = 0.0
    step = max(1, (1 << 18) // (2 * n))
    for s in range(0, nodes, step):
        pos = centers[None, :] + xs[s : s + step, None] * slopes[None, :]
        ev = np.concatenate([pos - width / 2, pos + width / 2], axis=1)
        order = np.argsort(ev, axis=1)
        ys = np.take_along_axis(ev, order, axis=1)
        f = np.cumsum(signs[order], axis=1)[:, :-1]
        total += float(((f * f - f) * np.diff(ys, axis=1)).sum())
    return total * h


def pair_sum_quad(centers, slopes, lo, hi, width):
    """Sum over ordered pairs of ∫_lo^hi prod_a max(0, w − |a_a + b_a x|) dx,
    by adaptive quadrature split at every kink, over the pairs whose every
    axis offset comes within w of zero somewhere in [lo, hi]."""
    from scipy.integrate import quad

    i, j = np.triu_indices(centers.shape[0], 1)
    a = centers[j] - centers[i]
    b = slopes[j] - slopes[i]
    u0, u1 = a + b * lo, a + b * hi
    keep = (np.maximum(np.minimum(u0, u1), -width) < np.minimum(np.maximum(u0, u1), width)).all(
        axis=1
    )
    total = 0.0
    for ap, bp in zip(a[keep], b[keep]):
        kinks = sorted(
            {
                (t - ai) / bi
                for ai, bi in zip(ap, bp)
                if bi != 0.0
                for t in (-width, 0.0, width)
                if lo < (t - ai) / bi < hi
            }
        )
        value, _ = quad(
            lambda x: float(np.prod(np.maximum(width - np.abs(ap + bp * x), 0.0))),
            lo,
            hi,
            points=kinks or None,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        total += value
    return 2.0 * total


def poss_roots(point, slopes, M: int, N: int, d: int) -> list[tuple[int, ...]]:
    """Root cubes whose shrunk cube holds the point pulled back along some
    direction: floor the pull-back onto the M^-N grid, test the centre."""
    p1, pbar = float(point[0]), np.asarray(point[1:], dtype=np.float64)
    base = pbar[None, :] - p1 * slopes
    inside = ((base >= 0.0) & (base < 1.0)).all(axis=1)
    cell = np.floor(base * float(M**N)).astype(np.int64)
    near = (np.abs(base - (cell + 0.5) / float(M**N)) <= side(M, N, d) / 2).all(axis=1)
    roots = set()
    for axis_idx in cell[inside & near]:
        roots.add(
            tuple(
                sum(
                    int(axis_idx[a]) // M ** (N - 1 - level) % M * M ** (d - 1 - a)
                    for a in range(d)
                )
                for level in range(N)
            )
        )
    return sorted(roots)


def kirchhoff_resistance(leaves) -> float:
    """Resistance between the root and all leaves (held at one potential)
    of the tree spanned by the leaves; the edge into a height-h vertex has
    resistance 2^(h-1).  Solves the Laplacian for the inner potentials."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    vertices = {()}
    for leaf in leaves:
        vertices.update(leaf[:k] for k in range(1, len(leaf) + 1))
    parents = {v[:-1] for v in vertices if v}
    inner = sorted(v for v in vertices if v and v in parents)
    pos = {v: i for i, v in enumerate(inner)}
    rows, cols, vals = [], [], []
    rhs = np.zeros(len(inner))
    current = 0.0
    for v in vertices:
        if not v:
            continue
        g = 0.5 ** (len(v) - 1)
        u = v[:-1]
        for x, y in ((u, v), (v, u)):
            if x in pos:
                rows.append(pos[x])
                cols.append(pos[x])
                vals.append(g)
                if y in pos:
                    rows.append(pos[x])
                    cols.append(pos[y])
                    vals.append(-g)
                elif y == ():
                    rhs[pos[x]] += g  # the root sits at potential 1
    if inner:
        lap = coo_matrix((vals, (rows, cols)), shape=(len(inner),) * 2).tocsc()
        potential = np.atleast_1d(spsolve(lap, rhs))
    for v in vertices:
        if len(v) == 1:
            current += 1.0 - (potential[pos[v]] if v in pos else 0.0)
    return 1.0 / current


def shorted_resistance(leaves) -> float:
    """Level-shorted lower bound: sum over levels k of 2^(k-1)/N_k."""
    counts: dict[int, set] = {}
    for leaf in leaves:
        for k in range(1, len(leaf) + 1):
            counts.setdefault(k, set()).add(leaf[:k])
    return sum(2.0 ** (k - 1) / len(vs) for k, vs in counts.items())


# ---------------------------------------------------------------------------
# checks of experiment outputs
# ---------------------------------------------------------------------------


def _quantile(values, q):
    """Linear-interpolation quantile of a sample (numpy's default rule)."""
    s = sorted(values)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    return s[lo] + (h - lo) * (s[min(lo + 1, len(s) - 1)] - s[lo])


def _ci99(values) -> float:
    n = len(values)
    mean = sum(values) / n
    return Z99 * math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) / math.sqrt(n)


def check_volume_properties(report: Report, row: dict, tag: str) -> None:
    report.holds(
        f"{tag} 0 < near_q25 <= near_mean",
        0.0 < row["near_q25"] <= row["near_mean"],
        f"near_q25={row['near_q25']!r}, near_mean={row['near_mean']!r}",
    )


def check_volume_sweep(report: Report, result: dict, cfg: dict) -> None:
    """Rows of ``volume_sweep`` against reference near/far volumes."""
    M, d, curve, seed = cfg["M"], cfg["d"], cfg["curve"], cfg["seed"]
    c0 = offset_constant(d, curve)
    rows = result["rows"]
    report.equal("volume rows", [r["N"] for r in rows], list(cfg["n_values"]))
    for row in rows:
        N = row["N"]
        tag = f"volume N={N}"
        report.equal(f"{tag} c0", row["c0"], c0)
        report.equal(f"{tag} samples", row["samples"], cfg["samples"])
        near, far = [], []
        for i in range(cfg["samples"]):
            centers, slopes = family(seed, i, M, N, d, curve)
            q = cfg["quadrature"]
            near.append(union_volume(centers, slopes, 0.0, 1.0, M, N, q))
            far.append(union_volume(centers, slopes, float(c0), c0 + 1.0, M, N, q))
        n = len(near)
        want = {
            "near_mean": sum(near) / n,
            "near_q25": _quantile(near, 0.25),
            "far_mean": sum(far) / n,
            "far_mean_times_n": N * sum(far) / n,
            "far_ci99": _ci99(far),
            "ratio_mean": sum(a / b for a, b in zip(near, far)) / n,
        }
        for key, value in want.items():
            # the deviation of nearly equal volumes can be pure rounding;
            # per node the two union algorithms agree to about 1e-11
            atol = 1e-10 * want["far_mean"] if key == "far_ci99" else 0.0
            report.close(f"{tag} {key}", row[key], value, RTOL_EXACT, atol)
        check_volume_properties(report, row, tag)


def check_slab_properties(report: Report, first: dict, second: dict, tag: str) -> None:
    report.holds(
        f"{tag} mean_square >= mean_sum^2",
        second["mean_square"] >= first["mean_sum"] ** 2,
        f"mean_square={second['mean_square']!r}, mean_sum={first['mean_sum']!r}",
    )


def check_slab_moments(report: Report, first: dict, second: dict, cfg: dict) -> None:
    """First- and second-moment rows against reference pair sums."""
    M, N, d, curve, seed = cfg["M"], cfg["N"], cfg["d"], cfg["curve"], cfg["seed"]
    samples = cfg["samples"]
    rs = [N - off for off in cfg["slab_offsets"] if N - off >= 0]
    report.equal("first-moment rows", [(r["N"], r["R"]) for r in first["rows"]], [(N, R) for R in rs])
    report.equal("second-moment rows", [(r["N"], r["R"]) for r in second["rows"]], [(N, R) for R in rs])
    w = side(M, N, d)
    rtol = RTOL_COVER if d == 1 else RTOL_EXACT
    sums = {R: [] for R in rs}
    for i in range(samples):
        centers, slopes = family(seed, i, M, N, d, curve)
        for R in rs:
            lo, hi = float(M) ** (R - N), float(M) ** (R + 1 - N)
            if d == 1:
                s = pair_sum_cover_1d(centers[:, 0], slopes[:, 0], lo, hi, w)
            else:
                s = pair_sum_quad(centers, slopes, lo, hi, w)
            sums[R].append(s)
    for r1, r2 in zip(first["rows"], second["rows"]):
        R = r1["R"]
        tag = f"slab N={N} R={R}"
        vals = sums[R]
        squares = [v * v for v in vals]
        scale = N * float(M) ** (2 * R - 2 * N)
        mean = sum(vals) / samples
        msq = sum(squares) / samples
        report.equal(f"{tag} samples", (r1["samples"], r2["samples"]), (samples, samples))
        report.close(f"{tag} scale", r1["scale"], scale, RTOL_EXACT)
        report.close(f"{tag} mean_sum", r1["mean_sum"], mean, rtol)
        report.close(f"{tag} ratio", r1["ratio"], mean / scale, rtol)
        report.close(f"{tag} mean_square", r2["mean_square"], msq, 2 * rtol)
        report.close(f"{tag} second ratio", r2["ratio"], msq / scale**2, 2 * rtol)
        # a standard deviation of close values: tolerate the error of the mean
        if samples > 1:
            report.close(f"{tag} ci99", r1["ci99"], _ci99(vals), 0.0, rtol * Z99 * mean)
            report.close(f"{tag} second ci99", r2["ci99"], _ci99(squares), 0.0, 2 * rtol * Z99 * msq)
        check_slab_properties(report, r1, r2, tag)


def check_resistance_properties(report: Report, row: dict, shorted: list, tag: str) -> None:
    """The program's minimum and mean resistance bound the level-shorted
    values of the same points from above."""
    N = row["N"]
    report.holds(
        f"{tag} shorted <= min resistance",
        min(shorted) <= row["beta_min"] * N,
        f"min shorted={min(shorted)!r}, min resistance={row['beta_min'] * N!r}",
    )
    report.holds(
        f"{tag} mean shorted <= mean resistance",
        sum(shorted) / len(shorted) <= row["beta_mean"] * N,
        f"mean shorted={sum(shorted) / len(shorted)!r}, mean resistance={row['beta_mean'] * N!r}",
    )


def check_resistance_growth(report: Report, result: dict, cfg: dict) -> None:
    """Rows of ``resistance_growth`` against the same far points redrawn,
    their Poss sets pulled back and their trees solved by Kirchhoff."""
    M, d, curve, seed, points = cfg["M"], cfg["d"], cfg["curve"], cfg["seed"], cfg["points"]
    c0 = offset_constant(d, curve)
    rows = result["rows"]
    report.equal("resistance rows", [r["N"] for r in rows], list(cfg["n_values"]))
    beta_mins = []
    for row in rows:
        N = row["N"]
        tag = f"resistance N={N}"
        slopes = direction_slopes(M, N, d, curve)
        rng = np.random.default_rng(derive_seed(seed, 20_000_003 + N))
        ratios, shorted, attempts = [], [], 0
        while len(ratios) < points and attempts < 20 * points:
            attempts += 1
            x1 = rng.uniform(c0, c0 + 1.0)
            lo = np.maximum(x1 * slopes.min(axis=0), -2.0 * c0)
            hi = np.minimum(1.0 + x1 * slopes.max(axis=0), 2.0 * c0)
            xbar = rng.uniform(lo, hi)
            roots = poss_roots((x1, *xbar), slopes, M, N, d)
            if roots:
                ratios.append(kirchhoff_resistance(roots) / N)
                shorted.append(shorted_resistance(roots))
        report.equal(f"{tag} points", row["points"], len(ratios))
        report.equal(f"{tag} attempts", row["attempts"], attempts)
        beta_mins.append(min(ratios))
        report.close(f"{tag} beta_min", row["beta_min"], min(ratios), RTOL_EXACT)
        report.close(f"{tag} beta_mean", row["beta_mean"], sum(ratios) / len(ratios), RTOL_EXACT)
        check_resistance_properties(report, row, shorted, tag)
    report.close("fitted_beta", result["fitted_beta"], min(beta_mins), RTOL_EXACT)
