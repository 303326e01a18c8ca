"""Classification of three- and four-point root configurations and the
closed-form conditional slope probabilities they determine.

For a pair of root leaves the probability that the second receives a
prescribed direction given the first is 2^-(N-h(u)) when admissible,
u being their youngest common ancestor.  For triples and quadruples the
exponent depends on how the two ycas u, u' sit relative to each other;
the classifier picks the conditioning split (A given, B queried) and the
permutations that make the exponent a function of the configuration
alone.  Every closed form is cross-checked against the exhaustive edge
field enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .sticky import enumerate_conditional, sticky_admissible
from .trees import Vertex, height, is_ancestor, yca


@dataclass(frozen=True)
class ConfigClass:
    """Outcome of classifying a root tuple.

    ``cond``/``query`` are leaf tuples: conditioning on the slopes of
    ``cond`` the probability of the ``query`` slopes is (1/2)^exponent
    whenever the full tuple is sticky-admissible, else 0.
    """

    arity: int
    type_tag: int
    case: str
    cond: tuple[Vertex, ...]
    query: tuple[Vertex, ...]
    exponent: int
    h_u: int
    h_uprime: int
    h_u1: int | None = None
    h_u2: int | None = None

    @property
    def label(self) -> str:
        return f"{self.arity}pt-type{self.type_tag}{self.case}"


def _check_leaves(leaves: Sequence[Vertex]):
    n = height(leaves[0])
    for t in leaves:
        if height(t) != n:
            raise ValueError("all leaves must share one height")
    if len(set(leaves)) != len(leaves):
        raise ValueError("leaves must be distinct")
    return n


def classify4(t1: Vertex, t2: Vertex, t1p: Vertex, t2p: Vertex) -> ConfigClass:
    """Classify an ordered quadruple ((t1,t2),(t1',t2')) of distinct leaves."""
    N = _check_leaves([t1, t2, t1p, t2p])
    u = yca(t1, t2)
    up = yca(t1p, t2p)
    if height(u) > height(up):
        (t1, t2), (t1p, t2p) = (t1p, t2p), (t1, t2)
        u, up = up, u
    hu, hup = height(u), height(up)
    firsts = {"1": t1, "2": t2}
    primes = {"1": t1p, "2": t2p}

    def build(i_perm, j_perm, case, type_tag, exponent, h_u1=None, h_u2=None,
              deep_conditions=False):
        i1, i2 = i_perm
        j1, j2 = j_perm
        cond = (firsts[i1], primes[j1])
        query = (firsts[i2], primes[j2])
        if deep_conditions:
            cond, query = query, cond
        return ConfigClass(
            arity=4,
            type_tag=type_tag,
            case=case,
            cond=cond,
            query=query,
            exponent=exponent,
            h_u=hu,
            h_uprime=hup,
            h_u1=h_u1,
            h_u2=h_u2,
        )

    exp1 = 2 * N - hu - hup
    if u != up and not is_ancestor(u, up) and not is_ancestor(up, u):
        # ycas in disjoint cubes
        return build(("1", "2"), ("1", "2"), "a", 1, exp1)
    if u == up:
        cross = {
            (i, j): height(yca(firsts[i], primes[j]))
            for i in ("1", "2")
            for j in ("1", "2")
        }
        if all(h == hu for h in cross.values()):
            # every cross yca equals the shared root
            return build(("1", "2"), ("1", "2"), "b", 1, exp1)
        # type 2: condition on the deepest cross pair
        (i2, j2) = min(k for k, h in cross.items() if h == max(cross.values()))
        i1 = "2" if i2 == "1" else "1"
        j1 = "2" if j2 == "1" else "1"
        h_u2 = cross[(i2, j2)]
        h_u1 = cross[(i1, j1)]
        if h_u1 == hu:
            case = "c"
        elif h_u1 == h_u2:
            case = "a"
        else:
            case = "b"
        return build(
            (i1, i2),
            (j1, j2),
            case,
            2,
            2 * N - hu - h_u1,
            h_u1=h_u1,
            h_u2=h_u2,
            deep_conditions=True,
        )
    # remaining: u' strictly below u
    a1 = height(yca(t1, up))
    a2 = height(yca(t2, up))
    deep_i, shallow_i = ("1", "2") if a1 >= a2 else ("2", "1")
    a_deep = max(a1, a2)
    if a_deep == hu:
        # neither first-pair leaf follows the path toward u'
        return build(("1", "2"), ("1", "2"), "c", 1, exp1)
    if a_deep < hup:
        # one first-pair leaf branches off strictly between u and u'
        return build((deep_i, shallow_i), ("1", "2"), "d", 1, exp1)
    # one first-pair leaf descends through u'
    t_deep = firsts[deep_i]
    x1 = height(yca(t_deep, t1p))
    x2 = height(yca(t_deep, t2p))
    if x1 == hup and x2 == hup:
        return build((deep_i, shallow_i), ("1", "2"), "e", 1, exp1)
    j_deep = "1" if x1 > hup else "2"
    j_other = "2" if j_deep == "1" else "1"
    return build((deep_i, shallow_i), (j_deep, j_other), "f", 1, exp1)


def classify3(t1: Vertex, t2: Vertex, t2p: Vertex) -> ConfigClass:
    """Classify an ordered triple ((t1,t2),(t1,t2')) of distinct leaves."""
    N = _check_leaves([t1, t2, t2p])
    u = yca(t1, t2)
    up = yca(t1, t2p)
    if height(u) > height(up):
        t2, t2p = t2p, t2
        u, up = up, u
    hu, hup = height(u), height(up)
    u2 = yca(t2, t2p)
    common = dict(
        arity=3,
        cond=(t1,),
        query=(t2, t2p),
        h_u=hu,
        h_uprime=hup,
    )
    if hup > hu:
        # both ycas sit on t1's ray, so deeper means strictly nested
        return ConfigClass(
            type_tag=1, case="a", exponent=2 * N - hu - hup, **common
        )
    if u2 == u:
        return ConfigClass(
            type_tag=1, case="b", exponent=2 * N - hu - hup, **common
        )
    return ConfigClass(
        type_tag=2,
        case="a",
        exponent=2 * N - hu - height(u2),
        h_u2=height(u2),
        **common,
    )


# ---------------------------------------------------------------------------
# conditional probabilities
# ---------------------------------------------------------------------------


def cond_prob_pair(t1: Vertex, t2: Vertex, b1: Vertex, b2: Vertex) -> Fraction:
    """Pr(second leaf gets address b2 | first got b1): 2^-(N-h(u)) when the
    addresses are at least as entangled as the leaves, else 0."""
    N = _check_leaves([t1, t2])
    if height(b1) != N or height(b2) != N:
        raise ValueError("addresses must have the leaf height")
    hu = height(yca(t1, t2))
    halpha = height(yca(b1, b2))
    if hu <= halpha:
        return Fraction(1, 2 ** (N - hu))
    return Fraction(0)


def class_probability(
    cc: ConfigClass, assignments: dict[Vertex, Vertex]
) -> Fraction:
    """Closed-form conditional probability of the classified tuple under
    the given leaf -> binary address map."""
    pairs = [(t, assignments[t]) for t in cc.cond + cc.query]
    if not sticky_admissible(pairs):
        return Fraction(0)
    return Fraction(1, 2**cc.exponent)


def oracle_check(cc: ConfigClass, assignments: dict[Vertex, Vertex]) -> tuple[Fraction, Fraction]:
    """(closed form, exhaustive enumeration) of the same conditional
    probability; they must agree exactly."""
    closed = class_probability(cc, assignments)
    cond = [(t, assignments[t]) for t in cc.cond]
    query = [(t, assignments[t]) for t in cc.query]
    enumerated = enumerate_conditional(cond, query)
    return closed, enumerated
