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

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

Digits = tuple[int, ...]
Pair = tuple[int, int]


class SelectorError(ValueError):
    """A child pair or table prefix violates the construction rules."""


class CurveDomainError(ValueError):
    """Curve rows are malformed, or the image leaves the slab {1} x [-1,1]^d
    or is not bi-Lipschitz."""


@dataclass(frozen=True)
class CantorSpec:
    """Base M, truncation depth N, and the two kept children of each kept
    interval: ``table[prefix]`` for the digit prefixes in the table and
    ``default`` for the rest, by default (0, M-1), the middle-thirds rule at
    M = 3.  Pairs (two digits in 0..M-1, at least 2 apart, kept ascending)
    and prefixes (tuples of fewer than N digits) are checked when built."""

    M: int
    N: int
    table: dict[Digits, Pair] = field(default_factory=dict, hash=False)
    default: Pair | None = None

    def __post_init__(self):
        if self.M < 3:
            raise ValueError(f"base M must be >= 3, got {self.M}")
        if self.N < 1:
            raise ValueError(f"depth N must be >= 1, got {self.N}")
        default = (0, self.M - 1) if self.default is None else self.default
        object.__setattr__(self, "default", self._pair(default, "default"))
        table = {}
        for prefix, pair in self.table.items():
            if not (type(prefix) is tuple and len(prefix) < self.N and self._digits(prefix)):
                raise SelectorError(f"prefix {prefix!r} is not a tuple of fewer than "
                                    f"{self.N} digits in 0..{self.M - 1}")
            table[prefix] = self._pair(pair, f"prefix {prefix}")
        object.__setattr__(self, "table", table)

    def _digits(self, xs) -> bool:
        return all(type(x) is int and 0 <= x < self.M for x in xs)

    def _pair(self, pair, where) -> Pair:
        """``pair`` in ascending order, or a SelectorError naming ``where``."""
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and self._digits(pair)):
            raise SelectorError(f"children {pair!r} at {where} are not 2 digits in 0..{self.M - 1}")
        lo, hi = sorted(pair)
        if hi - lo < 2:
            raise SelectorError(f"children {(lo, hi)} at {where} are less than 2 apart")
        return (lo, hi)

    def children(self, digits: Digits) -> Pair:
        """The ascending child digits of the basic interval ``digits``."""
        return self.table.get(digits, self.default)


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
        num = 0
        for dig in self.digits:
            num = num * self.M + dig
        return Fraction(num, self.M**self.level)


_LEVEL_BUDGET = 2**18  # kept intervals a level may hold, at most: 2^k at stage k


def build_level(spec: CantorSpec, k: int) -> list[BasicInterval]:
    """All kept intervals at stage k, in increasing order (2^k of them)."""
    if not 0 <= k <= spec.N:
        raise ValueError(f"level {k} outside 0..{spec.N}")
    if 2**k > _LEVEL_BUDGET:
        raise ResourceWarning(f"2^{k} kept intervals exceed the level budget {_LEVEL_BUDGET}")
    frontier: list[Digits] = [()]
    for _ in range(k):
        nxt: list[Digits] = []
        for digs in frontier:
            lo, hi = spec.children(digs)
            nxt.append(digs + (lo,))
            nxt.append(digs + (hi,))
        frontier = nxt
    return [BasicInterval(d, spec.M) for d in frontier]


def binary_address(spec: CantorSpec, digits: Digits) -> Digits:
    """psi: the binary vertex of a kept interval, bit 0 for the smaller kept
    child and 1 for the larger at every level.  It preserves heights and
    lineage, and maps the kept-interval tree onto the full binary tree."""
    bits = []
    for k, dig in enumerate(digits):
        pair = spec.children(digits[:k])
        if dig not in pair:
            raise KeyError(f"vertex {digits} not in the kept-interval tree")
        bits.append(pair.index(dig))
    return tuple(bits)


def interval_digits(spec: CantorSpec, bits: Digits) -> Digits:
    """psi^-1: the digits of the kept interval with binary vertex ``bits``."""
    digits: Digits = ()
    for b in bits:
        if b not in (0, 1):
            raise KeyError(f"binary vertex {bits} has non-bit digit")
        digits += (spec.children(digits)[b],)
    return digits


def phi_map(spec: CantorSpec, digits: Digits) -> Fraction:
    """phi: the representative parameter of a kept interval of height <= N,
    the left endpoint of the depth-N interval reached through smaller kept
    children, which lies inside the interval."""
    if len(digits) > spec.N:
        raise KeyError(f"vertex {digits} not in the kept-interval tree")
    bits = binary_address(spec, digits) + (0,) * (spec.N - len(digits))
    return BasicInterval(interval_digits(spec, bits), spec.M).left


@dataclass(frozen=True)
class DirectionCurve:
    """Polynomial curve t -> (1, p_1(t), ..., p_d(t)) with rational coefficients.

    ``rows[i]`` holds the ascending-power coefficients of coordinate i+1, read
    by ``Fraction`` from strings, ints or Fractions when built; d is their count.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    # per row: the lcm of its denominators and its coefficients times that lcm
    _scaled: tuple[tuple[int, tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        rows, seq = self.rows, (tuple, list)
        if not (isinstance(rows, seq) and rows and all(
            isinstance(row, seq) and row and {type(c) for c in row} <= {str, int, Fraction}
            for row in rows
        )):
            raise CurveDomainError(f"rows must be a non-empty list of non-empty lists of "
                                   f"strings, integers or fractions, got {rows!r}")
        try:
            object.__setattr__(self, "rows", tuple(tuple(map(Fraction, row)) for row in rows))
        except (ValueError, ZeroDivisionError) as err:
            raise CurveDomainError(f"bad curve coefficient: {err}") from None
        scaled = []
        for row in self.rows:
            lcm = math.lcm(*(c.denominator for c in row))
            scaled.append((lcm, tuple(c.numerator * (lcm // c.denominator) for c in row)))
        object.__setattr__(self, "_scaled", tuple(scaled))

    @property
    def d(self) -> int:
        return len(self.rows)

    def point(self, t: Fraction) -> tuple[Fraction, ...]:
        """gamma(t), by Horner's rule in integers: for t = p/q a row of
        degree D with scaled coefficients n_k gives sum n_k p^k q^(D-k),
        over lcm * q^D."""
        p, q = t.numerator, t.denominator
        coords = [Fraction(1)]
        for lcm, ints in self._scaled:
            acc, q_pow = ints[-1], 1
            for c in reversed(ints[:-1]):
                q_pow *= q
                acc = acc * p + c * q_pow
            coords.append(Fraction(acc, lcm * q_pow))
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


def affine_curve(d: int) -> DirectionCurve:
    """Curve (1, t, ..., t)."""
    return DirectionCurve(((0, 1),) * d)


def moment_curve(d: int) -> DirectionCurve:
    """Curve (1, t, t^2, ..., t^d)."""
    return DirectionCurve(tuple((0,) * i + (1,) for i in range(1, d + 1)))


# ---------------------------------------------------------------------------
# certified bi-Lipschitz constants
#
# For a polynomial curve, q(s, t) = |(gamma(s) - gamma(t)) / (s - t)|^2 is a
# polynomial with rational coefficients: coordinate i adds the square of its
# divided difference sum_k c_ik h_{k-1}(s, t), where h_j is the complete
# homogeneous polynomial of degree j.  On a box, q lies between the least
# and the greatest of its tensor Bernstein coefficients, and the four corner
# coefficients are values of q (Garloff 1986; Ray and Nataraj 2009).
# Splitting the box of the lowest bound at 1/2 by de Casteljau closes the
# bracket of min q; the same on -q brackets max q.
# ---------------------------------------------------------------------------

_BOX_BUDGET = 512  # boxes split per bracket, at most
_BRACKET_TOL = Fraction(1, 10**6)  # relative width at which a bracket closes


def _transpose(box):
    return [list(col) for col in zip(*box)]


def _bernstein(power):
    """Bernstein coefficients on [0, 1] of the polynomial sum_a power[a] x^a."""
    n = len(power) - 1
    return [
        sum(Fraction(math.comb(i, a), math.comb(n, a)) * power[a] for a in range(i + 1))
        for i in range(n + 1)
    ]


def _halves(row):
    """de Casteljau at 1/2: the Bernstein coefficients of each half."""
    left, right = [row[0]], [row[-1]]
    while len(row) > 1:
        row = [(x + y) / 2 for x, y in zip(row, row[1:])]
        left.append(row[0])
        right.append(row[-1])
    return left, right[::-1]


def _quarters(box):
    """The Bernstein coefficients of the four quarters of ``box``."""
    for half in zip(*map(_halves, box)):
        for quarter in zip(*map(_halves, _transpose(half))):
            yield _transpose(quarter)


def _corners(box):
    return (box[0][0], box[0][-1], box[-1][0], box[-1][-1])


def _min_bracket(box):
    """(lower, attained) with lower <= min q <= attained on [0, 1]^2, from
    the Bernstein coefficients ``box`` of q.  The box of the lowest bound is
    split first, at most ``_BOX_BUDGET`` times, until the bracket closes."""
    attained = min(_corners(box))
    heap = [(min(map(min, box)), 0, box)]
    tie = itertools.count(1)
    for _ in range(_BOX_BUDGET):
        if attained - heap[0][0] <= _BRACKET_TOL * abs(attained):
            break
        for part in _quarters(heapq.heappop(heap)[2]):
            attained = min(attained, *_corners(part))
            heapq.heappush(heap, (min(map(min, part)), next(tie), part))
    return heap[0][0], attained


def bilipschitz_bracket(curve: DirectionCurve) -> tuple[Fraction, Fraction]:
    """Certified (lo, hi) with lo <= q <= hi on [0, 1]^2, for
    q(s, t) = |(gamma(s) - gamma(t)) / (s - t)|^2: lo bounds the squared
    lower Lipschitz constant from below and hi the squared upper one from
    above, both exact when their brackets close within the box budget.
    Fails if lo is not positive."""
    m = max(1, max(len(row) for row in curve.rows) - 1)  # powers per axis of each difference
    power = [[Fraction(0)] * (2 * m - 1) for _ in range(2 * m - 1)]
    # the coefficient of s^a t^b in sum_k c_k h_{k-1}(s, t) is c_{a+b+1}
    for row in curve.rows:
        for a1, b1, a2, b2 in itertools.product(range(m), repeat=4):
            if max(a1 + b1, a2 + b2) + 1 < len(row):
                power[a1 + a2][b1 + b2] += row[a1 + b1 + 1] * row[a2 + b2 + 1]
    box = _transpose([_bernstein(col) for col in _transpose([_bernstein(r) for r in power])])
    lo, _ = _min_bracket(box)
    neg_hi, _ = _min_bracket([[-c for c in r] for r in box])
    if lo <= 0:
        raise CurveDomainError(f"curve is not bi-Lipschitz: certified lower constant^2 is {lo}")
    return lo, -neg_hi


def _sqrt_outward(q: Fraction, up: bool) -> float:
    """A float x with x^2 <= q, or x^2 >= q with ``up``, within an ulp or
    two of sqrt(q)."""
    x = math.sqrt(q)
    toward = math.inf if up else 0.0
    while (Fraction(x) ** 2 < q) if up else (Fraction(x) ** 2 > q):
        x = math.nextafter(x, toward)
    return x


_BILIPSCHITZ_ROWS = 256  # sample points paired with all others per array


def estimate_bilipschitz(
    curve: DirectionCurve,
    params: Sequence[Fraction],
    grid: int = 4096,
) -> tuple[float, float]:
    """Numerical lower/upper Lipschitz constants of the curve on [0,1], the
    sampled oracle of ``bilipschitz_bracket``.

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
    for start in range(0, n, _BILIPSCHITZ_ROWS):
        stop = min(start + _BILIPSCHITZ_ROWS, n)
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

    ``params`` are sorted ascending; ``slopes[i]`` always has first
    coordinate 1.  It is the one source of M and N (``spec``), d
    (``curve``) and C0 (``c0``).
    """

    spec: CantorSpec
    curve: DirectionCurve
    params: tuple[Fraction, ...]
    slopes: tuple[tuple[Fraction, ...], ...]
    lip2_lo: Fraction
    lip2_hi: Fraction
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

    @property
    def lip_lo(self) -> float:
        """Lower Lipschitz constant, rounded down from ``lip2_lo``."""
        return _sqrt_outward(self.lip2_lo, up=False)

    @property
    def lip_hi(self) -> float:
        """Upper Lipschitz constant, rounded up from ``lip2_hi``."""
        return _sqrt_outward(self.lip2_hi, up=True)

    @property
    def c0(self) -> int:
        """Far-window offset, beyond which a root cube sees one direction at
        most: the least integer C with C^2 * lip2_lo >= max(d^(2d), 4d),
        that is C >= max(d^d, 2 sqrt(d)) / lip_lo, in integer arithmetic."""
        d = self.d
        need = max(d ** (2 * d), 4 * d) / self.lip2_lo
        return math.isqrt(math.ceil(need) - 1) + 1

    def slope_floats(self) -> np.ndarray:
        """(n, d) read-only array of the last d slope coordinates, built once."""
        return self._slope_floats


def direction_set(spec: CantorSpec, curve: DirectionCurve) -> DirectionSet:
    """Build the direction set and check the curve stays in {1} x [-1,1]^d."""
    params = tuple(iv.left for iv in build_level(spec, spec.N))
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
    lip2_lo, lip2_hi = bilipschitz_bracket(curve)
    return DirectionSet(
        spec=spec,
        curve=curve,
        params=params,
        slopes=tuple(slopes),
        lip2_lo=lip2_lo,
        lip2_hi=lip2_hi,
    )


BUILTIN_CURVES = {"affine": affine_curve, "moment": moment_curve}  # name -> curve of d


def builtin_curve(name: str, d: int) -> DirectionCurve:
    if name not in BUILTIN_CURVES:
        raise ValueError(f"unknown curve {name!r} (expected {'|'.join(BUILTIN_CURVES)})")
    return BUILTIN_CURVES[name](d)
