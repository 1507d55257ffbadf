import random
from fractions import Fraction

import pytest

from knotdeform.charvariety import (
    TracePolynomial,
    TraceReducer,
    all_reduced_words,
    character_point,
    contains_point,
    curve_model,
    trace_reduce,
)
from knotdeform.polynomials import BiPoly, _power_table, horner
from knotdeform.pseudorep import random_sl2
from knotdeform.riley import riley_rep, riley_roots
from knotdeform.rings import HbarTruncRing, PrimeField, Rationals, RingElement, make_ring
from knotdeform.words import FreeWord, TwoBridgeKnot, evaluate_word

Q = Rationals()
F7 = PrimeField(7)

TREFOIL = TwoBridgeKnot(3, 1)
FIG8 = TwoBridgeKnot(5, 3)

X = TracePolynomial.variable("x")
Z = TracePolynomial.variable("z")
Y = TracePolynomial.variable("y")


def test_curve_model_trefoil():
    model = curve_model(TREFOIL)
    assert model.reducible_factor == BiPoly(
        {(0, 1): 1, (2, 0): -1, (0, 0): 2}, ("x", "y")
    )
    assert model.irreducible_factor == BiPoly(
        {(0, 1): 1, (0, 0): -1}, ("x", "y")
    )
    assert model.product == model.reducible_factor * model.irreducible_factor


def test_curve_model_figure_eight():
    model = curve_model(FIG8)
    assert model.irreducible_factor == BiPoly(
        {(0, 2): 1, (0, 1): -1, (2, 1): -1, (2, 0): 2, (0, 0): -1}, ("x", "y")
    )


def test_curve_model_b51_is_composition():
    from knotdeform.polynomials import substitute_u
    from knotdeform.riley import riley_data

    knot = TwoBridgeKnot(5, 1)
    model = curve_model(knot)
    assert model.irreducible_factor == substitute_u(riley_data(knot).Phi)


def test_character_point_examples():
    x, y = character_point(Q(1), Q(-1))
    assert (x, y) == (Q(2), Q(1))
    model = curve_model(TREFOIL)
    assert contains_point(model, (x, y), "irreducible")
    x2, y2 = character_point(Q(1), Q(0))
    assert (x2, y2) == (Q(2), Q(2))
    assert contains_point(model, (x2, y2), "reducible")
    assert not contains_point(model, (Q(0), Q(0)), "any")
    assert contains_point(model, (Q(0), Q(-2)), "reducible")


def test_riley_characters_on_irreducible_factor():
    from knotdeform.riley import riley_data

    hits = 0
    for knot in [TREFOIL, FIG8, TwoBridgeKnot(5, 1), TwoBridgeKnot(7, 3)]:
        model = curve_model(knot)
        data = riley_data(knot)
        for p in (3, 5, 7, 11):
            if data.disc % p == 0:
                continue
            field = PrimeField(p)
            # residual points: alpha = 1 pairs with each root of Phi(2, u)
            for beta_val in riley_roots(knot, p):
                pt = character_point(field(1), field(beta_val))
                assert contains_point(model, pt, "irreducible")
                hits += 1
            # and any (alpha, beta) on Phi's zero locus lands on the curve
            for a_val in range(1, p):
                alpha = field(a_val)
                x = alpha + alpha.inverse()
                for b_val in range(p):
                    beta = field(b_val)
                    if data.Phi.evaluate({"x": x, "u": beta}).is_zero():
                        pt = character_point(alpha, beta)
                        assert contains_point(model, pt, "irreducible")
                        hits += 1
    assert hits > 50  # the battery is far from vacuous


def test_trace_reduce_base_cases():
    reducer = TraceReducer()
    assert reducer.reduce("") == TracePolynomial.constant(2)
    assert reducer.reduce("a") == X
    assert reducer.reduce("b") == Z
    assert reducer.reduce("a b") == Y
    assert reducer.reduce("a a") == X * X - 2
    assert reducer.reduce("a^-1") == X
    assert reducer.reduce("b a") == Y


def test_trace_reduce_commutator():
    poly = trace_reduce("a b a^-1 b^-1")
    assert poly == X * X + Z * Z + Y * Y - X * Z * Y - 2


def test_trace_reduce_invariances():
    reducer = TraceReducer()
    for text in ("a b^-1 a b", "a^3 b^-2", "b a b a^-1"):
        w = FreeWord.from_string(text)
        assert reducer.reduce(w) == reducer.reduce(w.inverse())
        # cyclic rotation: conjugation leaves the trace polynomial unchanged
        a = FreeWord.from_string("a")
        assert reducer.reduce(a.inverse() * w * a) == reducer.reduce(w)


def _direct_trace(word, ma, mb):
    return evaluate_word(word, ma, mb).trace()


def test_oracle_mod7_and_q():
    rng = random.Random(17)
    words = all_reduced_words(6)
    reducer = TraceReducer()
    polys = [reducer.reduce(w) for w in words]
    for _ in range(20):
        ma, mb = random_sl2(rng, F7), random_sl2(rng, F7)
        x, z, y = ma.trace(), mb.trace(), (ma * mb).trace()
        for w, poly in zip(words, polys):
            assert poly.evaluate_int(x.value, z.value, y.value, 7) == \
                _direct_trace(w, ma, mb).value
    for _ in range(5):
        ma, mb = random_sl2(rng, Q), random_sl2(rng, Q)
        x, z, y = ma.trace(), mb.trace(), (ma * mb).trace()
        for w, poly in zip(words, polys):
            assert poly.evaluate(x, z, y) == _direct_trace(w, ma, mb)


def test_knot_group_specialization_z_equals_x():
    rho = riley_rep(FIG8, F7(1), F7(3))
    x = rho.trace_of(FreeWord.from_string("a"))
    y = rho.trace_of(FreeWord.from_string("a b"))
    assert rho.trace_of(FreeWord.from_string("b")) == x
    reducer = TraceReducer()
    for w in all_reduced_words(5):
        spec = reducer.reduce(w).specialize_z_to_x()
        assert spec.evaluate(x, F7(0), y) == rho.trace_of(w)


def test_all_reduced_words_counts():
    # 1 empty word plus 4 * 3^(L-1) words of each length L
    assert len(all_reduced_words(0)) == 1
    assert len(all_reduced_words(1)) == 5
    assert len(all_reduced_words(2)) == 17
    assert len(all_reduced_words(8)) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 9))


def test_memo_is_per_reducer():
    r1 = TraceReducer()
    r1.reduce("a b a b")
    r2 = TraceReducer()
    assert r2._memo == {}


def test_trace_polynomial_compares_with_ints():
    assert trace_reduce("") == 2
    assert trace_reduce("a a^-1 b b^-1") == 2
    assert X - X == 0
    assert X * X - X * X + 5 == 5
    assert X != 0
    assert X != 1


def test_trace_polynomial_text():
    poly = trace_reduce("a b a^-1 b^-1")
    assert poly.text() == "-x*z*y + x^2 + z^2 + y^2 - 2"


@pytest.mark.parametrize(
    "spec",
    ["fp:7", "fp:10007", f"fp:{2**31 - 1}", "padic:7:2", "padic:13:8", "rational",
     "hbar:5:3", "hbar:rational:3"],
)
def test_trace_polynomial_evaluate_matches_horner(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)

    def draw():
        if ring.is_finite:
            return ring.element_at(rng.randrange(ring.order))
        values = [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(3)]
        return ring(values) if isinstance(ring, HbarTruncRing) else ring(values[0])

    reducer = TraceReducer()
    polys = [reducer.reduce(w) for w in all_reduced_words(5)[::9]]
    polys += [TracePolynomial({}), TracePolynomial.constant(-3),
              TracePolynomial({(3, 0, 2): -7, (0, 4, 0): 5, (1, 1, 1): 1})]
    for _ in range(3):
        x, z, y = draw(), draw(), draw()
        for poly in polys:
            dx, dz, _ = poly.max_degrees()
            px, pz = _power_table(x, dx), _power_table(z, dz)
            expected = horner(poly.terms, lambda k: px[k[0]] * pz[k[1]], y, ring.zero())
            got = poly.evaluate(x, z, y)
            assert type(got) is RingElement and got.ring == ring
            assert got == expected and got.value == ring(got.value).value
