"""Generalized Cantor-type sets of directions.

A base-M Cantor construction keeps two non-adjacent M-adic subintervals of
every kept interval at every stage.  Truncated at depth N it yields 2^N
basic intervals; picking one representative point per interval and mapping
the representatives through a bi-Lipschitz curve into the hyperplane
{1} x [-1,1]^d gives the finite direction set used by the tube machinery.

All interval endpoints and representatives are exact rationals with
denominator M^k, so tree/digit conversions never drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

Digits = tuple[int, ...]
Selector = Callable[[Digits], tuple[int, int]]


class SelectorError(ValueError):
    """Selector output violates the construction rules."""


class CurveDomainError(ValueError):
    """Curve image leaves the slab {1} x [-1,1]^d."""


def make_middle_selector(M: int) -> Selector:
    """Selector keeping the outermost children (0, M-1) at every interval;
    with M = 3 this is the middle-thirds rule."""

    def select(digits: Digits) -> tuple[int, int]:
        return (0, M - 1)

    return select


def make_table_selector(
    M: int, table: dict[Digits, tuple[int, int]], default: tuple[int, int] | None = None
) -> Selector:
    """Selector reading child digits from a prefix-keyed table.

    Prefixes absent from the table fall back to ``default`` (or to the
    outermost pair when ``default`` is None).
    """
    fallback = default if default is not None else (0, M - 1)

    def select(digits: Digits) -> tuple[int, int]:
        got = table.get(digits, fallback)
        return (int(got[0]), int(got[1]))

    return select


@dataclass(frozen=True)
class CantorSpec:
    """Base M, truncation depth N, and the per-interval child selector."""

    M: int
    N: int
    selector: Selector = field(compare=False)
    name: str = "middle"

    def __post_init__(self):
        if self.M < 3:
            raise ValueError(f"base M must be >= 3, got {self.M}")
        if self.N < 1:
            raise ValueError(f"depth N must be >= 1, got {self.N}")

    def children(self, digits: Digits) -> tuple[int, int]:
        """Validated child digits of the basic interval ``digits``."""
        lo, hi = self.selector(digits)
        if not (0 <= lo < self.M and 0 <= hi < self.M):
            raise SelectorError(
                f"selector returned digits {(lo, hi)} outside 0..{self.M - 1} "
                f"at interval {digits}"
            )
        if lo > hi:
            lo, hi = hi, lo
        if lo == hi:
            raise SelectorError(f"selector returned equal digits at interval {digits}")
        if hi - lo < 2:
            raise SelectorError(
                f"selector chose adjacent children {(lo, hi)} at interval {digits}"
            )
        return (lo, hi)


def middle_spec(M: int, N: int) -> CantorSpec:
    return CantorSpec(M=M, N=N, selector=make_middle_selector(M), name="middle")


@dataclass(frozen=True)
class BasicInterval:
    """A kept M-adic interval [left, left + M^-k), addressed by its digits."""

    digits: Digits
    M: int

    @property
    def level(self) -> int:
        return len(self.digits)

    @property
    def left(self) -> Fraction:
        x = Fraction(0)
        for j, dig in enumerate(self.digits, start=1):
            x += Fraction(dig, self.M**j)
        return x

    @property
    def right(self) -> Fraction:
        return self.left + Fraction(1, self.M ** self.level)

    def __contains__(self, x) -> bool:
        return self.left <= x < self.right


def build_level(spec: CantorSpec, k: int) -> list[BasicInterval]:
    """All kept intervals at stage k, in increasing order (2^k of them)."""
    if not 0 <= k <= spec.N:
        raise ValueError(f"level {k} outside 0..{spec.N}")
    frontier: list[Digits] = [()]
    for _ in range(k):
        nxt: list[Digits] = []
        for digs in frontier:
            lo, hi = spec.children(digs)
            nxt.append(digs + (lo,))
            nxt.append(digs + (hi,))
        frontier = nxt
    return [BasicInterval(d, spec.M) for d in frontier]


def representatives(spec: CantorSpec) -> list[BasicInterval]:
    """The level-N intervals; their left endpoints are the representatives."""
    return build_level(spec, spec.N)


def representative_points(spec: CantorSpec) -> list[Fraction]:
    return [iv.left for iv in representatives(spec)]


@dataclass(frozen=True)
class DirectionCurve:
    """Polynomial curve t -> (1, p_1(t), ..., p_d(t)) with rational coefficients.

    ``rows[i]`` holds the ascending-power coefficients of coordinate i+1.
    """

    d: int
    rows: tuple[tuple[Fraction, ...], ...]
    name: str = "poly"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("curve dimension must be >= 1")
        if len(self.rows) != self.d:
            raise ValueError(f"need {self.d} coefficient rows, got {len(self.rows)}")

    def point(self, t: Fraction) -> tuple[Fraction, ...]:
        coords = [Fraction(1)]
        for row in self.rows:
            acc = Fraction(0)
            for c in reversed(row):
                acc = acc * t + c
            coords.append(acc)
        return tuple(coords)

    def point_float(self, t: float) -> np.ndarray:
        out = np.empty(self.d + 1)
        out[0] = 1.0
        for i, row in enumerate(self.rows):
            acc = 0.0
            for c in reversed(row):
                acc = acc * t + float(c)
            out[i + 1] = acc
        return out


def affine_curve(
    d: int,
    slopes: Sequence[Fraction | int] | None = None,
    intercepts: Sequence[Fraction | int] | None = None,
) -> DirectionCurve:
    """Curve (1, a_1 t + b_1, ..., a_d t + b_d); defaults to a_i=1, b_i=0."""
    a = [Fraction(x) for x in (slopes if slopes is not None else [1] * d)]
    b = [Fraction(x) for x in (intercepts if intercepts is not None else [0] * d)]
    rows = tuple((b[i], a[i]) for i in range(d))
    return DirectionCurve(d=d, rows=rows, name="affine")


def moment_curve(d: int) -> DirectionCurve:
    """Curve (1, t, t^2, ..., t^d)."""
    rows = []
    for i in range(1, d + 1):
        row = [Fraction(0)] * i + [Fraction(1)]
        rows.append(tuple(row))
    return DirectionCurve(d=d, rows=tuple(rows), name="moment")


def curve_from_rows(rows: Sequence[Sequence[Fraction | int | str]]) -> DirectionCurve:
    frac_rows = tuple(tuple(Fraction(c) for c in row) for row in rows)
    return DirectionCurve(d=len(frac_rows), rows=frac_rows)


def estimate_bilipschitz(
    curve: DirectionCurve,
    params: Sequence[Fraction],
    grid: int = 4096,
    chunk: int = 256,
) -> tuple[float, float]:
    """Numerical lower/upper Lipschitz constants of the curve on [0,1].

    Scans all pairs of the given parameters plus all pairs of a uniform
    ``grid``-point sample.  Fails if the lower constant vanishes (the curve
    is then not injective at the sampled resolution).
    """
    pts = [float(t) for t in params]
    pts.extend(i / (grid - 1) for i in range(grid))
    ts = np.unique(np.asarray(pts, dtype=np.float64))
    vals = np.stack([curve.point_float(t) for t in ts])[:, 1:]
    c_lo = math.inf
    c_hi = 0.0
    n = ts.shape[0]
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dt = np.abs(ts[start:stop, None] - ts[None, :])
        dv = np.linalg.norm(vals[start:stop, None, :] - vals[None, :, :], axis=2)
        mask = dt > 0
        ratios = dv[mask] / dt[mask]
        if ratios.size:
            c_lo = min(c_lo, float(ratios.min()))
            c_hi = max(c_hi, float(ratios.max()))
    if not math.isfinite(c_lo) or c_lo <= 0.0:
        raise CurveDomainError("curve is not bi-Lipschitz: lower constant is 0")
    return c_lo, c_hi


@dataclass(frozen=True)
class DirectionSet:
    """The 2^N directions gamma(representatives), with exact coordinates.

    ``params`` are sorted ascending; ``addresses[i]`` is the Cantor digit
    address of params[i].  ``slopes[i]`` always has first coordinate 1.
    """

    spec: CantorSpec
    curve: DirectionCurve
    params: tuple[Fraction, ...]
    addresses: tuple[Digits, ...]
    slopes: tuple[tuple[Fraction, ...], ...]
    lip_lo: float
    lip_hi: float
    _slope_floats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array([[float(c) for c in s[1:]] for s in self.slopes])
        arr.flags.writeable = False
        object.__setattr__(self, "_slope_floats", arr)

    @property
    def d(self) -> int:
        return self.curve.d

    @property
    def n(self) -> int:
        return len(self.params)

    def param_floats(self) -> np.ndarray:
        return np.array([float(t) for t in self.params])

    def slope_floats(self) -> np.ndarray:
        """(n, d) read-only array of the last d slope coordinates, built once."""
        return self._slope_floats


def direction_set(spec: CantorSpec, curve: DirectionCurve) -> DirectionSet:
    """Build the direction set and check the curve stays in {1} x [-1,1]^d."""
    ivs = representatives(spec)
    params = tuple(iv.left for iv in ivs)
    addresses = tuple(iv.digits for iv in ivs)
    slopes = []
    for t in params:
        p = curve.point(t)
        if any(abs(c) > 1 for c in p[1:]):
            raise CurveDomainError(
                f"curve leaves [-1,1]^{curve.d} at t={t}: {tuple(map(float, p))}"
            )
        slopes.append(p)
    # injectivity on the sampled set
    if len(set(slopes)) != len(slopes):
        raise CurveDomainError("curve is not injective on the representatives")
    c_lo, c_hi = estimate_bilipschitz(curve, params)
    return DirectionSet(
        spec=spec,
        curve=curve,
        params=params,
        addresses=addresses,
        slopes=tuple(slopes),
        lip_lo=c_lo,
        lip_hi=c_hi,
    )


def builtin_curve(name: str, d: int) -> DirectionCurve:
    if name == "affine":
        return affine_curve(d)
    if name == "moment":
        return moment_curve(d)
    raise ValueError(f"unknown curve {name!r} (expected affine|moment)")
