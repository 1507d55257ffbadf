import random
from fractions import Fraction

import pytest

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
    chebyshev_like,
    discriminant,
    expand_in_t,
    int_poly_gcd,
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
    with pytest.raises(NotSymmetrizable):
        symmetric_reduce(LaurentBiPoly({(1, 0): 1, (-1, 0): 2}))
    with pytest.raises(NotSymmetrizable):
        symmetric_reduce(LaurentBiPoly({(1, 0): 1, (0, 1): 1}))


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
    knots = list(valid_knots(35)) + [TwoBridgeKnot(101, 31)]
    for f in [BiPoly({}), BiPoly({(0, 0): 7}), BiPoly({(3, 0): -2})] + [
        riley_data(knot).Phi for knot in knots
    ]:
        assert substitute_u(f) == substitute_u_term_by_term(f), f


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
