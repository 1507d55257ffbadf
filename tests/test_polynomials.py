import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotdeform.errors import (
    ConstantPolynomial,
    NonUnitLaurentBase,
    NotSymmetrizable,
    VarnameMismatch,
)
from knotdeform.polynomials import (
    BiPoly,
    LaurentBiPoly,
    UniPoly,
    _chebyshev_basis,
    _prem,
    discriminant,
    expand_in_t,
    resultant,
    substitute_u,
    symmetric_reduce,
)
from knotdeform.riley import riley_data, valid_knots
from knotdeform.rings import PrimeField, Rationals
from knotdeform.words import TwoBridgeKnot

Q = Rationals()
F7 = PrimeField(7)

T_PLUS_TINV = LaurentBiPoly({(1, 0): 1, (-1, 0): 1})
BIG = 2**300
coefficients = st.integers(-BIG, BIG).filter(bool)


def chebyshev_like(n):
    """p_n with p_n(t + 1/t) = t^n + t^-n."""
    return UniPoly(_chebyshev_basis(n)[n], "x")


def int_poly_gcd(f, g):
    """gcd in Q[x] scaled primitive over Z; an independent check on disc."""

    def primitive(cs):
        c = 0
        for v in cs:
            c = gcd(c, abs(v))
        return [v // (c or 1) for v in cs]

    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        r = _prem(a, b)
        a, b = b, primitive(r) if r else []
    return UniPoly(primitive(a) if a else [], f.var)


def _symmetric_reduce_reference(f):
    """The dict form of symmetric_reduce: one update per (coefficient,
    u-degree) pair."""
    if f.is_zero():
        return BiPoly({}, ("x", "u")), 0
    slices = f.u_slices()
    l = None
    for sl in slices.values():
        lo, hi = min(sl), max(sl)
        if (lo + hi) % 2 != 0:
            raise NotSymmetrizable("u-slice support has odd span")
        cand = -(lo + hi) // 2
        if l is None:
            l = cand
        elif l != cand:
            raise NotSymmetrizable("u-slices need different shifts")
    basis = _chebyshev_basis(max(max(sl) for sl in slices.values()) + l)
    out = {}
    for eu, sl in slices.items():
        shifted = {e + l: c for e, c in sl.items()}
        for e, c in shifted.items():
            if shifted.get(-e) != c:
                raise NotSymmetrizable("coefficients are not palindromic")
        if 0 in shifted:
            out[(0, eu)] = out.get((0, eu), 0) + shifted[0]
        for e in sorted(k for k in shifted if k > 0):
            for i, pc in enumerate(basis[e]):
                if pc:
                    key = (i, eu)
                    out[key] = out.get(key, 0) + shifted[e] * pc
    return BiPoly(out, ("x", "u")), l


def test_laurent_arithmetic():
    sq = T_PLUS_TINV * T_PLUS_TINV
    assert sq == LaurentBiPoly({(2, 0): 1, (0, 0): 2, (-2, 0): 1})
    f = LaurentBiPoly({(3, 2): 5, (-1, 0): -2})
    assert (f + (-f)).is_zero()
    g = BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    assert g * BiPoly.one() == g


def test_pow_and_int_coercion():
    assert T_PLUS_TINV**0 == LaurentBiPoly.one()
    assert T_PLUS_TINV**2 == T_PLUS_TINV * T_PLUS_TINV
    assert LaurentBiPoly.one() + 1 == LaurentBiPoly({(0, 0): 2})
    assert BiPoly({(1, 0): 2}) * 3 == BiPoly({(1, 0): 6})


def test_varname_mismatch():
    xu = BiPoly({(1, 0): 1}, ("x", "u"))
    xy = BiPoly({(1, 0): 1}, ("x", "y"))
    with pytest.raises(VarnameMismatch):
        xu + xy
    with pytest.raises(VarnameMismatch):
        substitute_u(xy)


def test_symmetric_reduce_basics():
    phi, l = symmetric_reduce(T_PLUS_TINV)
    assert phi == BiPoly({(1, 0): 1}) and l == 0
    phi, l = symmetric_reduce(LaurentBiPoly({(2, 0): 1, (-2, 0): 1}))
    assert phi == BiPoly({(2, 0): 1, (0, 0): -2}) and l == 0


def test_symmetric_reduce_trefoil():
    f = LaurentBiPoly({(2, 0): 1, (0, 1): 1, (-2, 0): 1, (0, 0): -1})
    phi, l = symmetric_reduce(f)
    assert phi == BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    assert l == 0
    assert expand_in_t(phi, l) == f


def test_symmetric_reduce_shift():
    # t^2 * (t + 1/t) needs l = -2
    f = LaurentBiPoly({(3, 0): 1, (1, 0): 1})
    phi, l = symmetric_reduce(f)
    assert phi == BiPoly({(1, 0): 1}) and l == -2
    assert expand_in_t(phi, l) == f


def test_not_symmetrizable():
    with pytest.raises(NotSymmetrizable, match="odd span"):
        symmetric_reduce(LaurentBiPoly({(1, 0): 1, (0, 0): 1}))
    with pytest.raises(NotSymmetrizable, match="different shifts"):
        symmetric_reduce(LaurentBiPoly({(1, 0): 1, (0, 1): 1}))
    with pytest.raises(NotSymmetrizable, match="not palindromic"):
        symmetric_reduce(LaurentBiPoly({(1, 0): 1, (-1, 0): 2}))


@pytest.mark.parametrize(
    "knots",
    [list(valid_knots(35)), [TwoBridgeKnot(101, 31)], [TwoBridgeKnot(151, 41)]],
    ids=["m<=35", "b(101,31)", "b(151,41)"],
)
def test_symmetric_reduce_matches_dict_reference(knots):
    for knot in knots:
        phi = riley_data(knot).phi
        assert symmetric_reduce(phi) == _symmetric_reduce_reference(phi), knot


@st.composite
def palindromic_laurent(draw):
    """t^-shift times a sum over u-degrees of palindromic t-slices."""
    shift = draw(st.integers(-6, 6))
    terms = {}
    for eu in draw(st.sets(st.integers(0, 5), max_size=4)):
        half = draw(st.dictionaries(st.integers(0, 7), coefficients, min_size=1))
        for e, c in half.items():
            terms[(e - shift, eu)] = terms[(-e - shift, eu)] = c
    return LaurentBiPoly(terms), shift


@given(palindromic_laurent())
@settings(max_examples=60, deadline=None)
def test_symmetric_reduce_on_palindromic_slices(case):
    f, shift = case
    Phi, l = symmetric_reduce(f)
    assert (Phi, l) == _symmetric_reduce_reference(f)
    if f:
        assert l == shift
    assert expand_in_t(Phi, l) == f


@pytest.mark.parametrize("n", range(31))
def test_chebyshev_like_recursion(n):
    # p_n(t + 1/t) expands to exactly t^n + t^-n (and 2 for n = 0)
    p = chebyshev_like(n)
    expanded = LaurentBiPoly.zero()
    power = LaurentBiPoly.one()
    for c in p.coeffs:
        if c:
            expanded = expanded + power * c
        power = power * T_PLUS_TINV
    if n == 0:
        assert expanded == LaurentBiPoly({(0, 0): 2})
    else:
        assert expanded == LaurentBiPoly({(n, 0): 1, (-n, 0): 1})


def test_substitute_u_examples():
    trefoil = BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    assert substitute_u(trefoil) == BiPoly({(0, 1): 1, (0, 0): -1}, ("x", "y"))
    fig8 = BiPoly({(0, 2): 1, (2, 1): 1, (0, 1): -5, (2, 0): -1, (0, 0): 5})
    assert substitute_u(fig8) == BiPoly(
        {(0, 2): 1, (0, 1): -1, (2, 1): -1, (2, 0): 2, (0, 0): -1}, ("x", "y")
    )
    bare = BiPoly({(0, 1): 1})
    assert substitute_u(bare) == BiPoly(
        {(0, 1): 1, (2, 0): -1, (0, 0): 2}, ("x", "y")
    )


def substitute_u_term_by_term(f):
    """Reference: sum of c x^d (y - x^2 + 2)^e over a power table."""
    xy = ("x", "y")
    repl = BiPoly({(0, 1): 1, (2, 0): -1, (0, 0): 2}, xy)
    powers = [BiPoly.one(xy)]
    for _ in range(f.degree(1)):
        powers.append(powers[-1] * repl)
    acc = BiPoly.zero(xy)
    for (d, e), c in f.terms.items():
        acc = acc + powers[e] * BiPoly({(d, 0): c}, xy)
    return acc


def test_substitute_u_matches_term_by_term():
    knots = list(valid_knots(35)) + [TwoBridgeKnot(101, 31), TwoBridgeKnot(151, 41)]
    for f in [BiPoly({}), BiPoly({(0, 0): 7}), BiPoly({(3, 0): -2})] + [
        riley_data(knot).Phi for knot in knots
    ]:
        assert substitute_u(f) == substitute_u_term_by_term(f), f


@given(st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 6)), coefficients))
@settings(max_examples=60, deadline=None)
@example({})
@example({(0, 0): -BIG})
@example({(1, 0): BIG, (0, 3): -BIG, (7, 6): 1})
def test_substitute_u_on_mixed_parity(terms):
    f = BiPoly(terms)
    assert substitute_u(f) == substitute_u_term_by_term(f)


def test_discriminant_examples():
    assert discriminant(UniPoly([1, 1])) == 1
    assert discriminant(UniPoly([1, -1, 1])) == -3
    assert discriminant(UniPoly([-1, 0, 1])) == 4
    with pytest.raises(ConstantPolynomial):
        discriminant(UniPoly([5]))


def _sylvester_resultant(f, g):
    """Independent oracle: fraction-free determinant of the Sylvester matrix."""
    m, n = f.degree(), g.degree()
    if m < 0 or n < 0:
        return 0
    size = m + n
    if size == 0:
        return 1
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc]
                    + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc]
                    + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return det.numerator


def test_resultant_against_sylvester_oracle():
    rng = random.Random(3)
    for _ in range(120):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
        g = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        if f.degree() < 1 or g.degree() < 0 or g.is_zero():
            continue
        assert resultant(f, g) == _sylvester_resultant(f, g)


def test_discriminant_vanishes_iff_gcd_nonconstant():
    rng = random.Random(11)
    seen_zero = False
    for _ in range(200):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))])
        if f.degree() < 1:
            continue
        if rng.randrange(3) == 0:
            # force a repeated factor
            root = rng.randint(-3, 3)
            f = f * UniPoly([-root, 1]) * UniPoly([-root, 1])
        g = int_poly_gcd(f, f.derivative())
        d = discriminant(f)
        if d == 0:
            seen_zero = True
        assert (d == 0) == (g.degree() >= 1)
    assert seen_zero


def test_discriminant_and_resultant_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    count = 0
    for knot in valid_knots(25):
        phi2 = riley_data(knot).Phi2
        f = sympy.Poly(list(reversed(phi2.coeffs)), u)
        assert discriminant(phi2) == sympy.discriminant(f), knot
        assert resultant(phi2, phi2.derivative()) == sympy.resultant(f, f.diff(u)), knot
        count += 1
    assert count == 136


def test_symmetric_reduce_and_expand_in_t_agree_with_sympy():
    # sympy expands t^(D+l) (t^-l Phi(t + 1/t, u)) = sum c (t^2 + 1)^i t^(D-i) u^j,
    # D = deg_x Phi, which clears every negative power of t
    sympy = pytest.importorskip("sympy")
    t, u = sympy.symbols("t u")
    t2_plus_1, tp, up = (sympy.Poly(e, t, u) for e in (t**2 + 1, t, u))

    def in_t(laurent, shift):
        return sympy.Poly.from_dict(
            {(i + shift, j): c for (i, j), c in laurent.terms.items()}, t, u
        )

    count = 0
    for knot in valid_knots(25):
        data = riley_data(knot)
        Phi, l = symmetric_reduce(data.phi)
        assert (Phi, l) == (data.Phi, data.l), knot
        D = Phi.degree(0)
        expected = sympy.Poly(0, t, u)
        for (i, j), c in Phi.terms.items():
            expected += c * t2_plus_1**i * tp ** (D - i) * up**j
        assert in_t(data.phi, D + l) == expected, knot
        assert in_t(expand_in_t(Phi, l), D + l) == expected, knot
        count += 1
    assert count == 136


def test_evaluate_examples():
    trefoil = BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    assert trefoil.evaluate({"x": Q(2), "u": Q(-1)}).is_zero()
    assert UniPoly([1, -1, 1]).evaluate(F7(3)).is_zero()
    assert T_PLUS_TINV.evaluate(Q(1), Q(0)) == Q(2)
    with pytest.raises(NonUnitLaurentBase):
        T_PLUS_TINV.evaluate(Q(0), Q(1))


def test_evaluate_is_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        f = BiPoly({(rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5)
                    for _ in range(4)})
        g = BiPoly({(rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5)
                    for _ in range(4)})
        pt = {"x": F7(rng.randrange(7)), "u": F7(rng.randrange(7))}
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_text_forms():
    trefoil = BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    assert trefoil.text() == "x^2 + u - 3"
    assert UniPoly([1, 1]).text() == "u + 1"
    assert UniPoly([]).text() == "0"
    assert LaurentBiPoly({(-2, 0): 1, (0, 1): -1}).text() == "-u + t^-2"
    assert BiPoly({(0, 1): 1, (2, 0): -1, (0, 0): 2}, ("x", "y")).text() == \
        "-x^2 + y + 2"


def test_bipoly_json_round_trip():
    fig8 = BiPoly({(0, 2): 1, (2, 1): 1, (0, 1): -5, (2, 0): -1, (0, 0): 5})
    assert BiPoly.from_json(fig8.to_json()) == fig8
