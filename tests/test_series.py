import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotdeform.charvariety import TracePolynomial, TraceReducer, all_reduced_words
from knotdeform.errors import (
    NonSimpleRoot,
    NonUnitConstantTerm,
    NonUnitLaurentBase,
    NoSquareRootOfConstant,
    NotAResidualRoot,
    NotDivisible,
    RingMismatch,
    VarMismatch,
)
from knotdeform.polynomials import BiPoly, LaurentBiPoly
from knotdeform.riley import riley_data, valid_knots
from knotdeform.rings import (
    HbarTruncRing,
    PadicTruncRing,
    PrimeField,
    Rationals,
    make_ring,
)
from knotdeform.series import (
    TruncSeries,
    divide_by_var_power,
    eval_bipoly,
    newton_root,
    series_invert,
    series_sqrt,
    shift_up,
    to_ramified,
    x_series,
)

Q = Rationals()
F7 = PrimeField(7)
Z49 = PadicTruncRing(7, 2)


def S(values, n, ring=Q, var="z"):
    return TruncSeries.from_list(ring, var, values, n)


def coeffs(f):
    return [c.value for c in f.coeffs]


def test_arith_examples():
    prod = S([1, 1], 3) * S([1, -1], 3)
    assert coeffs(prod) == [1, 0, -1]
    f = S([2, 3, 4], 3)
    assert f + TruncSeries.constant(Q, "z", 0, 3) == f
    short = S([1, 1], 2) * S([1, 1], 2)
    assert short.precision == 2 and coeffs(short) == [1, 2]


def test_precision_min_rule():
    a = S([1, 2, 3, 4], 4)
    b = S([1, 1], 2)
    assert (a + b).precision == 2
    assert (a * b).precision == 2


def test_mismatch_errors():
    with pytest.raises(RingMismatch):
        S([1], 1) + S([1], 1, ring=F7)
    with pytest.raises(VarMismatch):
        S([1], 1) + S([1], 1, var="s")


def test_invert_geometric():
    g = series_invert(S([1, 1], 4))
    assert coeffs(g) == [1, -1, 1, -1]
    assert series_invert(TruncSeries.constant(Q, "z", 1, 3)) == \
        TruncSeries.constant(Q, "z", 1, 3)


def test_invert_three_minus_x_squared():
    # 3 - x^2 in z = x - 2 is -1 - 4z - z^2; oracle is back-multiplication
    u = S([-1, -4, -1], 3)
    v = series_invert(u)
    assert u * v == TruncSeries.constant(Q, "z", 1, 3)
    assert coeffs(v) == [-1, 4, -15]


def test_invert_needs_unit():
    with pytest.raises(NonUnitConstantTerm):
        series_invert(S([0, 1], 2))


def test_sqrt_binomial():
    s = series_sqrt(S([1, 1], 3))
    assert coeffs(s) == [Fraction(1), Fraction(1, 2), Fraction(-1, 8)]
    one = TruncSeries.constant(Q, "z", 1, 4)
    assert series_sqrt(one) == one


def test_sqrt_supplied_root():
    f = S([2, 1], 4, ring=Z49)
    r = series_sqrt(f, root_of_constant=Z49(10))
    assert r * r == f
    assert r.coeffs[0] == Z49(10)
    with pytest.raises(NoSquareRootOfConstant):
        series_sqrt(f)
    with pytest.raises(NoSquareRootOfConstant):
        series_sqrt(f, root_of_constant=Z49(11))


def test_sqrt_invert_contracts_random():
    rng = random.Random(9)
    rings = [PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(11), Q]
    for ring in rings:
        for _ in range(20):
            n = rng.randint(1, 9)
            if ring.is_finite:
                pool = list(ring.elements())
                vals = [pool[rng.randrange(len(pool))] for _ in range(n)]
                vals[0] = ring.one()
            else:
                vals = [ring(rng.randint(-5, 5)) for _ in range(n)]
                vals[0] = ring.one()
            f = TruncSeries(ring, "z", vals)
            assert f * series_invert(f) == TruncSeries.constant(ring, "z", 1, n)
            r = series_sqrt(f)
            assert r * r == f


def test_divide_by_var_power():
    f = S([0, 0, 1, 1, 0], 5)
    d = divide_by_var_power(f, 2)
    assert d.precision == 3 and coeffs(d) == [1, 1, 0]
    assert divide_by_var_power(f, 0) is f
    with pytest.raises(NotDivisible):
        divide_by_var_power(S([1, 0], 2), 1)
    with pytest.raises(NotDivisible):
        divide_by_var_power(f, 5)
    assert shift_up(d, 2) == f


def test_newton_root_trefoil():
    phi = BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    u = newton_root(phi, Q(-1), Q, 5)
    assert coeffs(u) == [-1, -4, -1, 0, 0]
    resid = eval_bipoly(phi, {"x": x_series(Q, 5), "u": u})
    assert resid.is_zero()


def test_newton_root_padic_constant():
    f = BiPoly({(0, 2): 1, (0, 0): -2})
    w = newton_root(f, F7(3), Z49, 3)
    assert w.coeffs[0] == Z49(10)
    assert (w * w) == TruncSeries.constant(Z49, "z", 2, 3)


def test_newton_root_agrees_with_sqrt():
    f = BiPoly({(0, 2): 1, (1, 0): -1, (0, 0): 1})  # u^2 - (x - 1)
    w = newton_root(f, Q(1), Q, 3)
    assert coeffs(w) == [Fraction(1), Fraction(1, 2), Fraction(-1, 8)]


def test_newton_root_uniqueness_across_schedules():
    phi8 = BiPoly({(0, 2): 1, (2, 1): 1, (0, 1): -5, (2, 0): -1, (0, 0): 5})
    ring = PadicTruncRing(7, 3)
    u_direct = newton_root(phi8, F7(3), ring, 6)
    u_long = newton_root(phi8, F7(3), ring, 11).truncate(6)
    assert u_direct.coeffs == u_long.coeffs
    # a one-coefficient-at-a-time schedule must land on the same series
    fu = phi8.derivative(1)
    u_slow = TruncSeries(ring, "z", [ring.teichmuller(F7(3))])
    for n in range(2, 7):
        u_try = u_slow.pad(n)
        for _ in range(6):
            x = x_series(ring, n)
            val = eval_bipoly(phi8, {"x": x, "u": u_try})
            der = eval_bipoly(fu, {"x": x, "u": u_try})
            u_try = u_try - val * series_invert(der)
        u_slow = u_try
    assert u_slow.coeffs == u_direct.coeffs


def test_newton_root_rejections():
    phi = BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})
    with pytest.raises(NotAResidualRoot):
        newton_root(phi, Q(0), Q, 4)
    double = BiPoly({(0, 2): 1, (0, 1): 2, (0, 0): 1})  # (u+1)^2
    with pytest.raises(NonSimpleRoot):
        newton_root(double, Q(-1), Q, 4)


def test_invert_sqrt_and_newton_root_agree_with_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    z, N = sympy.Symbol("z"), 12
    rng = random.Random(12)

    def taylor(e):
        s = sympy.series(e, z, 0, N).removeO()
        return [Fraction(int(c.p), int(c.q)) for c in (s.coeff(z, k) for k in range(N))]

    def draw(c0):
        values = [c0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        e = sum(sympy.Rational(v.numerator, v.denominator) * z**k for k, v in enumerate(values))
        return S(values, N), e

    for _ in range(3):
        f, e = draw(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
        assert coeffs(series_invert(f)) == taylor(1 / e)
        f, e = draw(Fraction(1))
        assert coeffs(series_sqrt(f)) == taylor(sympy.sqrt(e))
        f, e = draw(Fraction(4))
        assert coeffs(series_sqrt(f, Q(2))) == taylor(sympy.sqrt(e))
    x = z + 2
    trefoil = BiPoly({(2, 0): 1, (0, 1): 1, (0, 0): -3})  # u = 3 - x^2
    assert coeffs(newton_root(trefoil, Q(-1), Q, N)) == taylor(3 - x**2)
    # u^2 + (x - 1) u + 2 - 2x, with the root 1 of u^2 + u - 2 at x = 2
    quad = BiPoly({(0, 2): 1, (1, 1): 1, (0, 1): -1, (0, 0): 2, (1, 0): -2})
    root = (1 - x + sympy.sqrt((x - 1) ** 2 - 4 * (2 - 2 * x))) / 2
    assert coeffs(newton_root(quad, Q(1), Q, N)) == taylor(root)


def test_ramified_conversion():
    u = S([-1, -4, -1], 3)
    r = to_ramified(u)
    assert r.var == "s" and r.precision == 6
    assert coeffs(r) == [-1, 0, -4, 0, -1, 0]
    with pytest.raises(VarMismatch):
        to_ramified(r)


def test_hbar_coefficients():
    ring = HbarTruncRing(PrimeField(5), 3)
    f = TruncSeries.from_list(ring, "z", [1, ring.uniformizer()], 4)
    assert f * series_invert(f) == TruncSeries.constant(ring, "z", 1, 4)


def test_text_and_json():
    u = S([-1, -4, -1], 3)
    assert u.text() == "-1 - 4*z - z^2 + O(z^3)"
    assert TruncSeries.constant(Q, "z", 0, 2).text() == "0 + O(z^2)"
    again = TruncSeries.from_json(u.to_json())
    assert again == u and again.precision == u.precision
    half = TruncSeries.from_list(Q, "z", [Fraction(1, 2), Fraction(-1, 3)], 2)
    assert TruncSeries.from_json(half.to_json()) == half


# --- the packed product against a schoolbook reference ---

def schoolbook(f, g):
    """Reference product: the double loop over boxed RingElements."""
    n = min(f.precision, g.precision)
    a, b = f.coeffs, g.coeffs
    out = [f.ring.zero()] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


PRODUCT_RINGS = {
    "fp:7": 256,
    f"fp:{2**61 - 1}": 256,
    "padic:3:40": 256,
    "padic:13:8": 256,
    "rational": 200,
    "hbar:13:6": 48,
    "hbar:7:1": 64,
    "hbar:rational:3": 32,
}  # ring spec -> largest precision drawn


def raw_values(ring):
    if isinstance(ring, HbarTruncRing):
        return st.tuples(*[raw_values(ring.base)] * ring.M)
    if isinstance(ring, Rationals):
        return st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6)
    top = ring.order - 1
    return st.one_of(st.integers(0, top), st.just(top), st.just(0))


@st.composite
def series_pairs(draw):
    spec = draw(st.sampled_from(sorted(PRODUCT_RINGS)))
    ring = make_ring(spec)
    top = PRODUCT_RINGS[spec]
    values = raw_values(ring)
    n1 = draw(st.integers(1, top))
    n2 = draw(st.one_of(st.just(n1), st.integers(1, top)))
    f = TruncSeries(ring, "z", draw(st.lists(values, min_size=n1, max_size=n1)))
    g = TruncSeries(ring, "z", draw(st.lists(values, min_size=n2, max_size=n2)))
    return f, g


@given(series_pairs())
@settings(max_examples=60, deadline=None)
def test_packed_product_matches_schoolbook(pair):
    f, g = pair
    n = min(f.precision, g.precision)
    expected = schoolbook(f, g)
    assert list((f * g).coeffs) == expected
    assert list((g * f).coeffs) == expected
    assert list((f * f).coeffs) == schoolbook(f, f)
    # the min rule at mixed precisions
    assert (f * g).precision == (f + g).precision == n
    assert (f + g).values == tuple(
        (a + b).value for a, b in zip(f.coeffs, g.coeffs)
    )


@pytest.mark.parametrize(
    "spec, top, N",
    [
        (f"fp:{2**61 - 1}", 2**61 - 2, 256),
        ("padic:3:40", 3**40 - 1, 256),
        ("hbar:13:6", (12,) * 6, 48),
        # 8 + 8 + bits(255) magnitude bits fill three bytes exactly, so only
        # the sign bit keeps the slots apart
        ("rational", -255, 255),
        # 2 bits(m) + bits(N) magnitude bits that fill exactly 1, 2, 4, 8 and
        # 9 bytes: slots that are array lanes as they stand, and the first
        # width past the widest lane
        ("fp:7", 6, 3),
        ("fp:61", 60, 15),
        ("fp:8191", 8190, 63),
        (f"fp:{2**29 - 3}", 2**29 - 4, 63),
        ("padic:3:20", 3**20 - 1, 255),
        # 2 bits(top) + bits(N) + 1 sign bit that fill exactly 1, 2, 4, 8 and
        # 9 bytes
        ("rational", -3, 7),
        ("rational", -63, 7),
        ("rational", -(2**14 - 1), 7),
        ("rational", -(2**30 - 1), 7),
        ("rational", -(2**34 - 1), 7),
        # 6 + 6 + bits(15) magnitude bits fill two bytes exactly: the sign bit
        # makes the width 3 bytes, and so the 4-byte lane
        ("rational", -63, 15),
    ],
)
def test_packed_product_slot_width_edge(spec, top, N):
    # every coefficient at its largest magnitude: each product coefficient
    # is the largest sum a slot must hold
    ring = make_ring(spec)
    f = TruncSeries(ring, "z", [ring(top)] * N)
    assert list((f * f).coeffs) == schoolbook(f, f)
    g = TruncSeries(ring, "z", [ring(top)] * (N // 2))
    assert list((f * g).coeffs) == schoolbook(f, g)


def term_by_term(terms, point, one):
    """Reference evaluation: sum of c * prod v_i^e_i over {(e_1 ..): c},
    one factor at a time; a negative exponent multiplies by the inverse."""
    acc = one * 0
    for key, c in terms.items():
        term = one * c
        for v, e in zip(point, key):
            f = v if e >= 0 else v.inverse()
            for _ in range(abs(e)):
                term = term * f
        acc = acc + term
    return acc


def test_horner_eval_bipoly_on_phi():
    rng = random.Random(21)
    rings = [PadicTruncRing(13, 8), HbarTruncRing(PrimeField(7), 3), Q]
    for i, knot in enumerate(valid_knots(21)):
        phi = riley_data(knot).Phi
        ring = rings[i % len(rings)]
        n = 6 if ring == Q else 12
        if ring == Q:
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        else:
            vals = [ring.element_at(rng.randrange(ring.order)) for _ in range(n)]
        u = TruncSeries(ring, "z", vals)
        x = x_series(ring, n)
        for F in (phi, BiPoly({}), BiPoly({(0, 0): -3})):
            got = eval_bipoly(F, {"x": x, "u": u})
            assert got.precision == n
            want = term_by_term(F.terms, (x, u), x.one_like())
            assert got.values == want.values, knot


def _draw(rng, ring):
    if ring == Q:
        return ring(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return ring.element_at(rng.randrange(ring.order))


def _draw_unit(rng, ring):
    while True:
        t = _draw(rng, ring)
        if t.is_unit():
            return t


@pytest.mark.parametrize("spec", ["fp:10007", "padic:13:8", "rational", "hbar:7:3"])
def test_horner_ring_evaluators_match_term_by_term(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)
    one = ring.one()
    for knot in valid_knots(21):
        data = riley_data(knot)
        x, u, t = _draw(rng, ring), _draw(rng, ring), _draw_unit(rng, ring)
        assert data.Phi.evaluate({"x": x, "u": u}) == term_by_term(
            data.Phi.terms, (x, u), one), knot
        assert data.phi.evaluate(t, u) == term_by_term(data.phi.terms, (t, u), one), knot
    assert any(et < 0 for et, _ in data.phi.terms)
    for c in (0, 5, -1):  # the empty polynomial, then constants
        assert BiPoly({(0, 0): c}).evaluate({"x": x, "u": u}) == ring(c)
        assert LaurentBiPoly({(0, 0): c}).evaluate(t, u) == ring(c)
        assert TracePolynomial({(0, 0, 0): c}).evaluate(x, u, t) == ring(c)
    # a non-unit t: zero over a field, the uniformizer p or h otherwise
    non_unit = ring.zero() if ring.is_field else ring.uniformizer()
    with pytest.raises(NonUnitLaurentBase):
        data.phi.evaluate(non_unit, u)

    reducer = TraceReducer()
    polys = [reducer.reduce(w) for w in all_reduced_words(4)]
    for _ in range(3):
        x, z, y = (_draw(rng, ring) for _ in range(3))
        for poly in polys:
            got = poly.evaluate(x, z, y)
            assert got == term_by_term(poly.terms, (x, z, y), one), poly
            if isinstance(ring, PrimeField):
                assert got.value == poly.evaluate_int(x.value, z.value, y.value, ring.p)
