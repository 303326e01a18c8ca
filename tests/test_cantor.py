import ast
import collections
import importlib
import inspect
import itertools
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kakeya import cantor
from kakeya.cantor import (
    BUILTIN_CURVES,
    CantorSpec,
    CurveDomainError,
    SelectorError,
    affine_curve,
    bilipschitz_bracket,
    build_level,
    builtin_curve,
    curve_from_rows,
    direction_set,
    estimate_bilipschitz,
    make_table_selector,
    middle_spec,
    moment_curve,
)

F = Fraction


def _right(iv):
    """Right end of a kept interval [left, left + M^-level)."""
    return iv.left + F(1, iv.M**iv.level)


def test_middle_thirds_level1():
    ivs = build_level(middle_spec(3, 2), 1)
    assert [(iv.left, _right(iv)) for iv in ivs] == [(F(0), F(1, 3)), (F(2, 3), F(1))]


def test_middle_thirds_level2_digits():
    ivs = build_level(middle_spec(3, 2), 2)
    assert [iv.digits for iv in ivs] == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert [iv.left for iv in ivs] == [F(0), F(2, 9), F(2, 3), F(8, 9)]


def test_level_zero_is_unit_interval():
    (iv,) = build_level(middle_spec(5, 3), 0)
    assert iv.left == 0 and _right(iv) == 1 and iv.digits == ()


def test_representatives_left_endpoints():
    for N, reps in [(2, [F(0), F(2, 9), F(2, 3), F(8, 9)]), (1, [F(0), F(2, 3)])]:
        spec = middle_spec(3, N)
        assert [iv.left for iv in build_level(spec, N)] == reps
        assert direction_set(spec, affine_curve(1)).params == tuple(reps)


def _varying_selector(M):
    # non-self-similar: choice depends on the prefix parity
    def select(digits):
        if sum(digits) % 2:
            return (1, M - 1) if M >= 4 else (0, 2)
        return (0, M - 2) if M >= 4 else (0, 2)

    return select


def test_generic_selector_depth3_separation():
    spec = CantorSpec(M=5, N=3, selector=_varying_selector(5), name="varying")
    reps = [iv.left for iv in build_level(spec, 3)]
    assert len(reps) == 8
    # distinct level-3 intervals keep distance >= 5^-3
    for a, b in itertools.combinations(range(8), 2):
        assert abs(reps[a] - reps[b]) >= F(1, 125)


@pytest.mark.parametrize("k", range(0, 7))
def test_level_counts_and_prefix_closure(k):
    spec = middle_spec(3, 6)
    ivs = build_level(spec, k)
    assert len(ivs) == 2**k
    for a, b in zip(ivs, ivs[1:]):
        assert b.left - _right(a) >= 0
        assert b.left - a.left >= F(1, 3**k)
    if k:
        parents = {iv.digits for iv in build_level(spec, k - 1)}
        assert all(iv.digits[:-1] in parents for iv in ivs)


def test_non_adjacency_gap():
    spec = CantorSpec(M=5, N=4, selector=_varying_selector(5), name="varying")
    for k in range(1, 5):
        ivs = build_level(spec, k)
        for a, b in zip(ivs, ivs[1:]):
            assert b.left - _right(a) >= 0
            assert b.left - a.left >= F(1, 5**k)


def test_adjacent_selector_rejected():
    bad = CantorSpec(M=3, N=2, selector=lambda digs: (0, 1), name="bad")
    with pytest.raises(SelectorError) as err:
        build_level(bad, 1)
    assert "()" in str(err.value)  # names the offending interval


def test_equal_digits_rejected():
    bad = CantorSpec(M=3, N=1, selector=lambda digs: (2, 2), name="bad")
    with pytest.raises(SelectorError):
        build_level(bad, 1)


def test_table_selector():
    sel = make_table_selector(5, {(): (0, 3), (0,): (1, 4)}, default=(0, 2))
    spec = CantorSpec(M=5, N=2, selector=sel, name="table")
    assert [iv.digits for iv in build_level(spec, 2)] == [
        (0, 1),
        (0, 4),
        (3, 0),
        (3, 2),
    ]


def test_direction_set_affine_n1():
    ds = direction_set(middle_spec(3, 1), affine_curve(1))
    assert ds.slopes == ((F(1), F(0)), (F(1), F(2, 3)))


def test_direction_set_moment_n2():
    ds = direction_set(middle_spec(3, 2), moment_curve(2))
    assert ds.slopes == (
        (F(1), F(0), F(0)),
        (F(1), F(2, 9), F(4, 81)),
        (F(1), F(2, 3), F(4, 9)),
        (F(1), F(8, 9), F(64, 81)),
    )


def test_slope_floats_built_once_and_read_only():
    ds = direction_set(middle_spec(3, 3), moment_curve(2))
    arr = ds.slope_floats()
    expect = np.array([[float(c) for c in s[1:]] for s in ds.slopes])
    assert arr.shape == (8, 2) and np.array_equal(arr, expect)
    assert ds.slope_floats() is arr
    with pytest.raises(ValueError):
        arr[0, 0] = 0.5
    assert np.array_equal(ds.slope_floats(), expect)


def test_direction_set_c0_of_every_builtin_curve():
    """C0 = ceil(max(d^d, 2 sqrt(d)) / lip_lo), where lip_lo is sqrt(d) for
    the affine curves and 1 for the moment curves."""
    got = {
        (name, d): direction_set(middle_spec(3, 3), builtin_curve(name, d)).c0
        for name in BUILTIN_CURVES
        for d in (1, 2, 3)
    }
    assert got == {
        ("affine", 1): 2, ("affine", 2): 3, ("affine", 3): 16,
        ("moment", 1): 2, ("moment", 2): 4, ("moment", 3): 27,
    }


ROOT = Path(__file__).resolve().parents[1]


def _public_definitions():
    """(module, qualified name, AST node) of every public function and class
    of a kakeya module but __init__, and of every public method and
    property in a class body."""
    for path in sorted((ROOT / "src" / "kakeya").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            for member in members:
                if not member.name.startswith("_"):
                    qual = member.name if member is node else f"{node.name}.{member.name}"
                    yield path.stem, qual, member


def _public_signatures():
    """(qualified name, parameter names) of every public callable found by
    _public_definitions; exceptions and properties are left out."""
    for module, qual, _ in _public_definitions():
        obj = importlib.import_module(f"kakeya.{module}")
        for part in qual.split("."):
            obj = getattr(obj, part)
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, BaseException)):
            yield f"kakeya.{module}.{qual}", set(inspect.signature(obj).parameters)


def test_direction_set_inputs_are_not_restated():
    """A direction set fixes M, N and d, so nothing that takes one (or an
    assignment built on one) takes them again beside it."""
    checked = []
    for qual, params in _public_signatures():
        if params & {"dirset", "assignment"}:
            checked.append(qual)
            assert not params & {"M", "N", "d"}, qual
    assert {"kakeya.tubes.poss_set", "kakeya.sticky.SlopeAssignment"} <= set(checked)


# Public names that nothing in src/ or perfbench/ reads, kept on purpose:
# oracles, which tests hold the construction against, and paper
# identities, the paper's maps stated as code (phi, the three-point
# classes of criterion 02, the cube decoding).
ORACLES = (
    "cantor.estimate_bilipschitz",
    "tubes.intersection_necessary",
    "tubes.poss_set_affine",
    "harness.slab_sum_expectation_exact",
    "percolation.survival_enumerate",
    "sticky.enumerate_joint_addresses",
)
PAPER_IDENTITIES = ("cantor.phi_map", "configs.classify3", "trees.decode_cube")


def test_every_public_name_has_a_reader():
    """Every public name of a kakeya module is read, as a name or an
    attribute, in src/ or perfbench/ (tests aside) outside its own
    definition, or it is a named oracle or paper identity.  perfbench's
    string constants count too: its tracer looks functions up by name."""
    reads = collections.defaultdict(list)  # name -> [(path, line)]
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/*.py")]:
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and path.parent.name == "perfbench":
                names = str(node.value).split(".")
            else:
                continue
            for name in names:
                reads[name].append((path, node.lineno))
    public, unread = set(), set()
    for module, qual, node in _public_definitions():
        public.add(f"{module}.{qual}")
        home = ROOT / "src" / "kakeya" / f"{module}.py"
        own = range(node.lineno, node.end_lineno + 1)
        name = qual.rsplit(".", 1)[-1]
        if all(path == home and line in own for path, line in reads[name]):
            unread.add(f"{module}.{qual}")
    assert set(ORACLES) | set(PAPER_IDENTITIES) <= public
    assert sorted(unread - set(ORACLES) - set(PAPER_IDENTITIES)) == []


def test_affine_isometry_distances():
    ds = direction_set(middle_spec(3, 3), affine_curve(1))
    for i, j in itertools.combinations(range(ds.n), 2):
        dp = abs(ds.params[i] - ds.params[j])
        dv = abs(ds.slopes[i][1] - ds.slopes[j][1])
        assert dv == dp  # c = C = 1


def test_first_coordinate_always_one():
    ds = direction_set(middle_spec(3, 3), moment_curve(3))
    assert all(s[0] == 1 for s in ds.slopes)


def test_curve_domain_error():
    stretched = curve_from_rows([[0, 2]])  # 2t leaves [-1,1] at t = 8/9
    with pytest.raises(CurveDomainError):
        direction_set(middle_spec(3, 2), stretched)


def test_bilipschitz_sandwich_all_pairs_n8(ds_affine_n8):
    ds = ds_affine_n8
    for i, j in itertools.combinations(range(ds.n), 2):
        dp = float(abs(ds.params[i] - ds.params[j]))
        dv = abs(float(ds.slopes[i][1]) - float(ds.slopes[j][1]))
        assert ds.lip_lo * dp - 1e-12 <= dv <= ds.lip_hi * dp + 1e-12


def test_bilipschitz_estimate_moment_curve():
    curve = moment_curve(2)
    params = [F(0), F(2, 9), F(2, 3), F(8, 9)]
    c_lo, c_hi = estimate_bilipschitz(curve, params, grid=512)
    assert 0 < c_lo <= c_hi
    # moment curve derivative norm is at least 1 (first component is t)
    assert c_lo >= 0.99
    assert c_hi <= math.sqrt(1 + 4 + 9)


def test_constant_curve_rejected():
    flat = curve_from_rows([[0, 0]])
    with pytest.raises(CurveDomainError):
        direction_set(middle_spec(3, 2), flat)
    with pytest.raises(CurveDomainError, match="not bi-Lipschitz"):
        bilipschitz_bracket(flat)


# min and max of |gamma'|^2: d for the affine curves, and for the moment
# curves 1 at t = 0 and 1 + 4 + ... + d^2 at t = 1
EXACT_SQUARED = {
    ("affine", 1): (1, 1), ("affine", 2): (2, 2), ("affine", 3): (3, 3),
    ("moment", 1): (1, 1), ("moment", 2): (1, 5), ("moment", 3): (1, 14),
}
# mixed signs and an interior minimum of q; its maximum 13/36 = 1/4 + 1/9 is
# |gamma'(0)|^2, on the diagonal, which no pair of samples reaches
MIXED = curve_from_rows([[0, "1/2", "-1/4"], ["1/3", "-1/3", 0, "1/4"]])


@pytest.mark.parametrize("name, d", list(EXACT_SQUARED))
def test_builtin_squared_constants_are_exact(name, d):
    ds = direction_set(middle_spec(3, 3), builtin_curve(name, d))
    assert (ds.lip2_lo, ds.lip2_hi) == EXACT_SQUARED[name, d]
    assert type(ds.lip2_lo) is type(ds.lip2_hi) is Fraction
    # the float constants are rounded outward
    assert F(ds.lip_lo) ** 2 <= ds.lip2_lo and ds.lip2_hi <= F(ds.lip_hi) ** 2
    assert ds.lip_lo == pytest.approx(math.sqrt(ds.lip2_lo), rel=1e-15)
    assert ds.lip_hi == pytest.approx(math.sqrt(ds.lip2_hi), rel=1e-15)


@pytest.mark.parametrize(
    "curve",
    [builtin_curve(name, d) for name, d in EXACT_SQUARED] + [MIXED],
    ids=[f"{name}{d}" for name, d in EXACT_SQUARED] + ["mixed"],
)
def test_sampled_constants_lie_inside_certified_bracket(curve):
    """Sampling sees values of q, so they lie inside [lo, hi] (up to float
    rounding of the ratios)."""
    lo, hi = bilipschitz_bracket(curve)
    s_lo, s_hi = estimate_bilipschitz(curve, [], grid=1024)
    assert float(lo) * (1 - 1e-12) <= s_lo**2 <= s_hi**2 <= float(hi) * (1 + 1e-12)


def test_sampled_upper_constant_misses_the_maximum():
    """The unsafe direction: the sampled upper constant of MIXED is below
    the value its curve attains, while the bracket reaches it."""
    lo, hi = bilipschitz_bracket(MIXED)
    assert hi == F(13, 36)
    _, s_hi = estimate_bilipschitz(MIXED, [])
    assert s_hi**2 == pytest.approx(0.361050, abs=1e-6) and s_hi**2 < 13 / 36
    assert 0 < lo < F(2261, 100000)  # the interior minimum, about 0.0226091


def test_direction_set_never_samples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("direction_set sampled the curve")

    monkeypatch.setattr(cantor, "estimate_bilipschitz", refuse)
    for name, d in EXACT_SQUARED:
        direction_set(middle_spec(3, 2), builtin_curve(name, d))
    direction_set(middle_spec(3, 2), MIXED)


def test_unclosed_bracket_gives_a_safe_c0(monkeypatch):
    """With too few boxes the lower end stays below min q, so C0 can only
    grow.  MIXED's exact C0 is 27: with min q in [lo, lo (1 + 1e-6)],
    16 / min q lies in (26^2, 27^2]."""
    spec = middle_spec(3, 2)
    exact = direction_set(spec, MIXED)
    assert 26**2 < 16 / exact.lip2_lo / (1 + F(1, 10**6)) and 16 / exact.lip2_lo <= 27**2
    assert exact.c0 == 27
    for budget in (1, 2, 8):
        monkeypatch.setattr(cantor, "_BOX_BUDGET", budget)
        loose = direction_set(spec, MIXED)
        assert loose.lip2_lo < exact.lip2_lo and loose.lip2_hi >= exact.lip2_hi
        assert loose.c0 > exact.c0


def test_c0_from_the_squared_constant_in_integers(monkeypatch):
    """lip2_lo = 1 at d = 2 needs C^2 >= 16: C0 = 4 exactly, with no float
    in the path; a float quotient could not tell 1 from 1 -/+ 10^-30."""
    ds = direction_set(middle_spec(3, 2), moment_curve(2))
    assert ds.lip2_lo == 1
    above = replace(ds, lip2_lo=1 + F(1, 10**30))
    below = replace(ds, lip2_lo=1 - F(1, 10**30))

    def no_float(self):
        raise AssertionError("C0 went through a float")

    monkeypatch.setattr(F, "__float__", no_float)
    assert (ds.c0, above.c0, below.c0) == (4, 4, 5)
