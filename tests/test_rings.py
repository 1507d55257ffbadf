import random
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotdeform.errors import (
    CharacteristicTwo,
    InfiniteRing,
    InvalidModulus,
    MalformedValue,
    NotLocalRing,
    NotPrime,
    PrimeTooLarge,
    RingMismatch,
)
from knotdeform.rings import (
    HbarTruncRing,
    PadicTruncRing,
    PrimeField,
    Rationals,
    is_prime,
    make_ring,
    residue_field,
    scalar_values,
    teichmuller_lift,
)
from knotdeform.series import TruncSeries

Q = Rationals()
F7 = PrimeField(7)
Z49 = PadicTruncRing(7, 2)
H72 = HbarTruncRing(PrimeField(7), 2)

ALL_RINGS = [Q, F7, Z49, H72, PrimeField(3), PadicTruncRing(5, 3),
             HbarTruncRing(Rationals(), 3)]


def test_prime_field_order():
    assert len(list(F7.elements())) == 7


def test_characteristic_two_rejected():
    with pytest.raises(CharacteristicTwo):
        PrimeField(2)
    with pytest.raises(CharacteristicTwo):
        PadicTruncRing(2, 3)


def test_padic_trunc_order():
    assert len(list(Z49.elements())) == 49


def test_invalid_parameters():
    with pytest.raises(NotPrime):
        PrimeField(9)
    with pytest.raises(InvalidModulus):
        PadicTruncRing(7, 0)
    with pytest.raises(InvalidModulus):
        HbarTruncRing(F7, -1)
    with pytest.raises(NotPrime):
        HbarTruncRing(Z49, 2)  # base must be a field


# = 399165290221 * 798330580441, a strong pseudoprime to the bases 2 .. 37
PSEUDOPRIME_TO_37 = 318665857834031151167461
# is_prime decides primality below this bound
PRIME_BOUND = 3317044064679887385961981


def test_strong_pseudoprime_is_not_a_prime():
    assert not is_prime(PSEUDOPRIME_TO_37)
    for spec in (f"fp:{PSEUDOPRIME_TO_37}", f"padic:{PSEUDOPRIME_TO_37}:2"):
        with pytest.raises(NotPrime):
            make_ring(spec)


def test_primes_above_the_bound_are_not_guessed():
    least_prime_above = PRIME_BOUND + 142
    for n in (PRIME_BOUND, least_prime_above):  # the bound is itself a pseudoprime
        with pytest.raises(PrimeTooLarge):
            is_prime(n)
    with pytest.raises(PrimeTooLarge):
        make_ring(f"fp:{least_prime_above}")
    assert not is_prime(PRIME_BOUND + 1)
    assert not is_prime(least_prime_above * 43)  # no factor below 43: Miller-Rabin finds it


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2015)
    for bits in range(2, PRIME_BOUND.bit_length()):
        for _ in range(20):
            n = rng.randrange(1 << (bits - 1), min(1 << bits, PRIME_BOUND))
            assert is_prime(n) == sympy.isprime(n), n
        p = sympy.randprime(1 << (bits - 1), min(1 << bits, PRIME_BOUND))
        assert is_prime(p), p


def test_residue_examples():
    assert Z49(30).residue() == F7(2)
    assert Z49(0).residue() == F7(0)
    assert H72([3, 5]).residue() == F7(3)


def test_residue_requires_local_ring():
    with pytest.raises(NotLocalRing):
        Q(1).residue()
    with pytest.raises(NotLocalRing):
        F7(1).residue()


def test_teichmuller_examples():
    assert teichmuller_lift(F7(1), 2) == Z49(1)
    assert teichmuller_lift(F7(0), 2) == Z49(0)
    w = teichmuller_lift(F7(2), 2)
    # fixed point of x -> x^7 over the residue 2; oracle: 2^(7^2) mod 49
    assert w**7 == w
    assert w.residue() == F7(2)
    assert w.value == pow(2, 7**2, 49)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_teichmuller_multiplicative_exhaustive(p, M):
    field = PrimeField(p)
    lifts = {a.value: teichmuller_lift(a, M) for a in field.elements()}
    for a in field.elements():
        assert lifts[a.value].residue() == a
        assert lifts[a.value] ** p == lifts[a.value]
        for b in field.elements():
            assert lifts[a.value] * lifts[b.value] == lifts[(a * b).value]


def _sample(ring, rng, count):
    if ring.is_finite:
        pool = list(ring.elements())
        return [pool[rng.randrange(len(pool))] for _ in range(count)]
    return [ring(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(count)]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_ring_axioms(ring):
    rng = random.Random(42)
    for _ in range(40):
        a, b, c = _sample(ring, rng, 3)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert ring.one() * a == a
        assert a + (-a) == ring.zero()


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_two_is_a_unit(ring):
    two = ring.from_int(2)
    assert two.is_unit()
    assert two * two.inverse() == ring.one()


@pytest.mark.parametrize("ring", [Z49, PadicTruncRing(5, 3), H72], ids=str)
def test_residue_is_homomorphism(ring):
    rng = random.Random(7)
    for _ in range(60):
        a, b = _sample(ring, rng, 2)
        assert (a * b).residue() == a.residue() * b.residue()
        assert (a + b).residue() == a.residue() + b.residue()


def test_cross_ring_arithmetic_is_an_error():
    with pytest.raises(RingMismatch):
        F7(1) + PrimeField(5)(1)
    with pytest.raises(RingMismatch):
        Q(1) * F7(1)


def test_hbar_arithmetic():
    h = H72.uniformizer()
    x = H72([3, 5])
    assert x == H72(3) + h * 5
    assert h * h == H72.zero()
    inv = x.inverse()
    assert x * inv == H72.one()
    with pytest.raises(ZeroDivisionError):
        h.inverse()


def test_hbar_element_enumeration():
    assert len(list(H72.elements())) == 49
    with pytest.raises(InfiniteRing):
        list(HbarTruncRing(Rationals(), 2).elements())
    assert len(list(islice(F7.elements(), 3))) == 3


@pytest.mark.parametrize(
    "ring, expected",
    [
        (F7, list(range(7))),
        (Z49, list(range(49))),
        (H72, list(product(range(7), repeat=2))),
        (HbarTruncRing(PrimeField(3), 3), list(product(range(3), repeat=3))),
    ],
    ids=str,
)
def test_element_at_indexes_the_enumeration(ring, expected):
    assert ring.order == len(expected)
    assert [e.value for e in ring.elements()] == expected
    assert [ring.element_at(i).value for i in range(ring.order)] == expected


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_pow_matches_repeated_multiplication(ring):
    a = _sample(ring, random.Random(3), 1)[0] + ring.one()
    if not a.is_unit():
        a = a + ring.one()
    expected = ring.one()
    for k in range(20):
        assert a**k == expected
        assert a ** (-k) * expected == ring.one()
        expected = expected * a


def test_rationals_canonical():
    assert Q(Fraction(2, 4)).value == Fraction(1, 2)
    assert Q(Fraction(-1, -2)).value == Fraction(1, 2)


def test_make_ring_round_trip():
    for spec in ["rational", "fp:7", "padic:7:4", "hbar:5:3", "hbar:rational:2"]:
        ring = make_ring(spec)
        assert ring.spec_string() == spec
        assert make_ring(ring.spec_string()) == ring
    with pytest.raises(InvalidModulus):
        make_ring("padic:7")
    with pytest.raises(InvalidModulus):
        make_ring("nonsense")


def test_residue_field_helper():
    assert residue_field(Z49) == F7
    assert residue_field(H72) == F7
    assert residue_field(Q) == Q
    assert residue_field(F7) == F7


def test_format_parse_round_trip():
    values = {
        Q: [Q(Fraction(-3, 4)), Q(5)],
        F7: [F7(0), F7(6)],
        Z49: [Z49(48)],
        H72: [H72([3, 5]), H72.zero(), H72([0, 2]), H72([1, 0])],
    }
    for ring, elems in values.items():
        for e in elems:
            assert ring.parse_value(str(e)) == e


def test_domain_and_field_flags():
    assert Q.is_field and Q.is_domain
    assert F7.is_field and F7.is_domain
    assert not Z49.is_field and not Z49.is_domain
    assert PadicTruncRing(7, 1).is_field
    assert not H72.is_domain
    assert HbarTruncRing(F7, 1).is_field


FRACTIONS = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


@given(
    st.sampled_from(["rational", "fp:10007", "padic:13:8", "hbar:5:3", "hbar:rational:3"]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_parse_inverts_format(spec, data):
    ring = make_ring(spec)
    if ring.is_finite:
        value = ring.element_at(data.draw(st.integers(0, ring.order - 1)))
    elif isinstance(ring, HbarTruncRing):
        value = ring(data.draw(st.lists(FRACTIONS, min_size=ring.M, max_size=ring.M)))
    else:
        value = ring(data.draw(FRACTIONS))
    assert ring.parse_value(str(value)) == value


@pytest.mark.parametrize(
    "text", ["1 + h^5", "h^3", "h^-1", "2*h^-2 + 1", "1 + h + h", "3 + 2", "h^2 - 2*h^2"]
)
def test_hbar_parse_rejects_terms_it_cannot_place(text):
    # over F_5[h]/h^3 each text names no element, or names h^e twice
    with pytest.raises(MalformedValue):
        make_ring("hbar:5:3").parse_value(text)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
def test_is_zero_builds_no_zero(ring, monkeypatch):
    zero, one = ring.zero(), ring.one()
    monkeypatch.setattr(type(ring), "zero", lambda self: pytest.fail("zero() called"))
    assert zero.is_zero()
    assert not one.is_zero()
    assert not (one + one).is_zero()


def test_scalar_values_only_for_plain_number_rings():
    assert scalar_values([F7(3), F7(5)]) == (F7, [3, 5])
    assert scalar_values([Z49(48)]) == (Z49, [48])
    assert scalar_values([Q(Fraction(1, 2)), Q(3)]) == (Q, [Fraction(1, 2), Fraction(3)])
    assert scalar_values([H72([1, 2])]) is None
    assert scalar_values([F7(1), PrimeField(11)(1)]) is None
    assert scalar_values([F7(1), 1]) is None
    # a series has a .ring too, but it is not a number
    series = TruncSeries.from_list(F7, "z", [1, 2], 2)
    assert scalar_values([series, F7(1)]) is None
    assert scalar_values([F7(1), series]) is None
