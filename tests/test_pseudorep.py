import json
import random
from fractions import Fraction
from math import lcm

import pytest

from knotdeform.errors import KnotDeformError, NotIntegralDomain
from knotdeform.pseudorep import (
    AxiomReport,
    PseudoRepTable,
    WordSet,
    _c_residuals,
    _int_image,
    _p_residuals,
    _rational_image,
    check_axioms_C,
    check_axioms_P,
    equivalence_harness,
    mutate_table,
    random_sl2,
    random_trace_table,
    relation_ideal_truncated,
    trace_table,
)
from knotdeform.riley import Representation, riley_rep, trivial_representation
from knotdeform.rings import PadicTruncRing, PrimeField, Rationals, make_ring
from knotdeform.words import FreeWord, SL2Matrix, TwoBridgeKnot

Q = Rationals()
F7 = PrimeField(7)
TREFOIL = TwoBridgeKnot(3, 1)

BALL2 = WordSet.ball(2)
# not closed under inverses: a^-1 is outside, yet (C2) at (a, a b) reads
# a^-1 . a b = b, which is inside
SMALL = WordSet([FreeWord.from_string(w) for w in ("a", "b", "a b", "a^2 b")])


def test_wordset_contains_empty_and_is_canonical():
    assert FreeWord.empty() in BALL2
    assert len(BALL2) == 17
    ws = WordSet([FreeWord.from_string("a b"), FreeWord.from_string("ab")])
    assert len(ws) == 2  # the two spellings are the same word, plus empty


def test_wordset_coverage_counts():
    cov = BALL2.coverage()
    assert cov["P1"] == cov["C1"] == 1
    assert cov["P2"] == 69
    assert cov["P3"] == 285
    assert cov["P4"] == 5
    assert cov["C2"] == 49
    assert all(n > 0 for n in cov.values())


def _brute_force_instances(ws):
    """p2, p3, p4 and c2 tuples, in order, from every FreeWord product."""
    words, idx = ws.words, ws.index
    n = range(len(words))
    p2, p3, p4, c2 = [], [], [], []
    for a in n:
        sq = idx(words[a] * words[a])
        if sq is not None:
            p4.append((a, sq))
        for b in n:
            g1, g2 = words[a], words[b]
            ab, ba, inv = idx(g1 * g2), idx(g2 * g1), idx(g1.inverse() * g2)
            if ab is not None and ba is not None:
                p2.append((a, b, ab, ba))
            if ab is not None and inv is not None:
                c2.append((a, b, ab, inv))
            if ab is None:
                continue
            for c in n:
                g3 = words[c]
                found = []
                for w in (g1 * g2 * g3, g1 * g3 * g2, g2 * g3, g1 * g3):
                    found.append(idx(w))
                    if found[-1] is None:
                        break
                else:
                    abc, acb, bc, ac = found
                    p3.append((a, b, c, abc, acb, ab, bc, ac))
    return p2, p3, p4, c2


@pytest.mark.parametrize(
    "ws", [BALL2, WordSet.ball(3), SMALL], ids=["ball2", "ball3", "small"]
)
def test_instance_tables_match_brute_force(ws):
    tables = (ws.p2_instances(), ws.p3_instances(), ws.p4_instances(), ws.c2_instances())
    assert tuple(map(list, tables)) == _brute_force_instances(ws)


def test_c2_reads_inverses_outside_the_window():
    a, ab = FreeWord.from_string("a"), FreeWord.from_string("a b")
    assert a.inverse() not in SMALL
    assert (SMALL.index(a), SMALL.index(ab), SMALL.index(a * ab),
            SMALL.index(FreeWord.from_string("b"))) in SMALL.c2_instances()
    assert SMALL.coverage() == {"P1": 1, "P2": 9, "P3": 17, "P4": 1, "C1": 1, "C2": 6}


def test_constant_table_passes_both():
    table = PseudoRepTable(F7, BALL2, [F7(2)] * len(BALL2))
    assert check_axioms_P(table).passed
    assert check_axioms_C(table).passed


def test_p1_violation_reported():
    table = PseudoRepTable(F7, BALL2, [F7(2)] * len(BALL2))
    bad = table.with_value(BALL2.p1_instance(), F7(3))
    rep = check_axioms_P(bad)
    assert not rep.passed
    assert ("P1", (FreeWord.empty(),)) in rep.violations
    assert not check_axioms_C(bad).passed


def test_c2_violation_witness():
    rho = riley_rep(TREFOIL, Q(1), Q(-1))
    table = trace_table(rho, BALL2)
    a_squared = BALL2.index(FreeWord.from_string("a^2"))
    bad = table.with_value(a_squared, table.values[a_squared] + Q(1))
    rep = check_axioms_C(bad)
    assert not rep.passed
    a = FreeWord.from_string("a")
    assert any(w == (a, a) for _, w in rep.violations)


def test_trace_tables_pass_axioms():
    rng = random.Random(23)
    for ring in (PrimeField(3), PrimeField(5), F7, PrimeField(11), Q):
        for _ in range(25):
            table = random_trace_table(rng, ring, BALL2)
            assert check_axioms_P(table).passed
            assert check_axioms_C(table).passed


def test_trace_table_on_length_four_window():
    rng = random.Random(4)
    window = WordSet.ball(4)
    assert len(window) == 161
    table = random_trace_table(rng, F7, window)
    p_report = check_axioms_P(table)
    c_report = check_axioms_C(table)
    assert p_report.passed and c_report.passed
    assert p_report.checked["P3"] == 14753
    assert c_report.checked["C2"] == 1057


def test_trace_table_examples():
    small = WordSet([FreeWord.from_string(t) for t in ("a", "b", "a b")])
    table = trace_table(trivial_representation(Q), small)
    assert all(v == Q(2) for v in table.values)
    rho = riley_rep(TREFOIL, Q(1), Q(-1))
    table = trace_table(rho, small)
    got = {str(w): v for w, v in zip(table.wordset, table.values)}
    assert got == {"1": Q(2), "a": Q(2), "b": Q(2), "a b": Q(1)}


def test_trace_table_inverse_symmetry():
    rng = random.Random(5)
    table = random_trace_table(rng, F7, BALL2)
    for w in BALL2:
        if w.inverse() in BALL2:
            assert table(w) == table(w.inverse())


def test_harness_requires_domain():
    ring = PadicTruncRing(7, 2)
    table = PseudoRepTable(ring, BALL2, [ring(2)] * len(BALL2))
    with pytest.raises(NotIntegralDomain):
        equivalence_harness(table)


def test_harness_agreement_fuzz():
    rng = random.Random(1)
    for trial in range(120):
        ring = [PrimeField(3), PrimeField(5), F7, PrimeField(11), Q][trial % 5]
        table = random_trace_table(rng, ring, BALL2)
        if trial % 2:
            table = mutate_table(rng, table)
        verdict = equivalence_harness(table)
        assert verdict.fully_covered
        assert verdict.agree
        if trial % 2 == 0:
            assert verdict.p_passed and verdict.c_passed


def test_relation_ideal_examples():
    field = F7
    rho = riley_rep(TREFOIL, field(1), field(6))
    tbar = trace_table(rho, BALL2)
    gens = relation_ideal_truncated(BALL2, tbar, 2)
    ring = PadicTruncRing(7, 2)

    by_kind = {}
    for g in gens:
        by_kind.setdefault(g.kind, []).append(g)

    # (1): X_1 + (teich(2) - 2) = X_1 + 28 over Z/49
    p1 = by_kind["P1-type"][0].polynomial
    assert p1.terms[(("1", 1),)] == ring.one()
    assert p1.terms[()] == ring(28)

    # (2): X_{ab} - X_{ba}
    ab, ba = FreeWord.from_string("a b"), FreeWord.from_string("b a")
    p2 = [
        g for g in by_kind["P2-type"]
        if g.witnesses in ((FreeWord.from_string("a"), FreeWord.from_string("b")),)
    ]
    assert p2, "pair (a, b) must be covered"
    poly = p2[0].polynomial
    assert poly.terms[((str(ab), 1),)] == ring.one()
    assert poly.terms[((str(ba), 1),)] == -ring.one()

    # (4) for g = a: (X_a + teich(2))^2 - X_{a^2} - teich(2) - 2
    p4 = [g for g in by_kind["P4-type"]
          if g.witnesses == (FreeWord.from_string("a"),)]
    assert p4
    poly = p4[0].polynomial
    w = ring.teichmuller(field(2))
    assert poly.terms[(("a", 2),)] == ring.one()
    assert poly.terms[(("a", 1),)] == w * 2
    assert poly.terms[((str(FreeWord.from_string("a^2")), 1),)] == -ring.one()
    assert poly.terms[()] == w * w - w - ring.from_int(2)


def test_relation_ideal_on_window_without_inverses():
    field = F7
    rho = riley_rep(TREFOIL, field(1), field(6))
    gens = relation_ideal_truncated(SMALL, trace_table(rho, SMALL), 2)
    ring = PadicTruncRing(7, 2)
    one, a, b = (FreeWord.from_string(w) for w in ("1", "a", "b"))
    kinds = [g.kind for g in gens]
    # no pair but (1, w) and (w, 1) commutes inside, and only 1 squares inside
    assert kinds == ["P1-type"] + ["P3-type"] * 17 + ["P4-type"]
    assert gens[0].polynomial.terms == {(("1", 1),): ring.one(), (): ring(28)}
    assert gens[-1].witnesses == (one,)
    # (3) at (a, 1, b): T_a T_1 T_b + 2 T_ab - 2 T_a T_b - T_ab T_1
    p3 = next(g for g in gens if g.witnesses == (a, one, b)).polynomial
    w = ring.teichmuller(field(2))
    assert p3.terms[(("1", 1), ("a", 1), ("b", 1))] == ring.one()
    assert p3.terms[(("1", 1), ("a b", 1))] == -ring.one()
    assert p3.terms[(("a", 1), ("b", 1))] == w - 2


def test_relation_ideal_requires_valid_table():
    bad = PseudoRepTable(F7, BALL2, [F7(3)] * len(BALL2))
    with pytest.raises(KnotDeformError):
        relation_ideal_truncated(BALL2, bad, 2)


def test_relation_generators_vanish_on_deformation():
    # a genuine deformation over Z/5^3 of the trefoil residual representation
    from knotdeform.deform import deformation_data, specialization_point, specialize

    p, M = 5, 3
    field = PrimeField(p)
    ring = PadicTruncRing(p, M)
    rho_bar = riley_rep(TREFOIL, field(1), field(-1))
    tbar = trace_table(rho_bar, BALL2)

    data = deformation_data(TREFOIL, field(-1), ring, 2 * M)
    x0 = specialization_point(ring, 1)
    rho = specialize(data.A, data.B, x0, knot=TREFOIL)
    lifted = trace_table(rho, BALL2)

    # residual reduction of the lifted traces is tbar
    for w in BALL2:
        assert lifted(w).residue() == tbar(w)

    values = {
        str(w): lifted(w) - ring.teichmuller(tbar(w)) for w in BALL2
    }
    gens = relation_ideal_truncated(BALL2, tbar, M)
    assert len(gens) == 299  # 1 + 8 + 285 + 5 on the 17-word window
    for g in gens:
        assert g.polynomial.substitute(values).is_zero(), (g.kind, g.witnesses)


def test_table_json_round_trip():
    rho = riley_rep(TREFOIL, F7(1), F7(6))
    table = trace_table(rho, BALL2)
    blob = json.dumps(table.to_json())
    again = PseudoRepTable.from_json(json.loads(blob))
    assert again.ring == table.ring
    for w in BALL2:
        assert again(w) == table(w)


@pytest.mark.parametrize("spec", [f"fp:{2**31 - 1}", "padic:3:40"])
def test_fuzz_helpers_draw_from_large_rings(spec):
    # the draws index the ring instead of listing its 2^31 or 3^40 elements
    ring = make_ring(spec)
    rng = random.Random(5)
    m = random_sl2(rng, ring)
    assert m.det() == ring.one()
    table = trace_table(trivial_representation(ring), BALL2)
    mutated = mutate_table(rng, table)
    changed = [i for i, (a, b) in enumerate(zip(table.values, mutated.values)) if a != b]
    assert len(changed) == 1


@pytest.mark.parametrize("spec", ["fp:7", "padic:3:2", "hbar:3:2"])
def test_mutate_table_draws_match_the_enumeration(spec):
    # the delta is the same draw from the list of nonzero elements as before
    ring = make_ring(spec)
    nonzero = [e for e in ring.elements() if not e.is_zero()]
    table = trace_table(trivial_representation(ring), BALL2)
    for seed in range(40):
        ref = random.Random(seed)
        i = ref.randrange(len(table.wordset))
        delta = nonzero[ref.randrange(len(nonzero))]
        assert mutate_table(random.Random(seed), table).values[i] == table.values[i] + delta


def _boxed_report(family, table):
    """The AxiomReport of one family, from RingElement arithmetic and ==."""
    ring, ws = table.ring, table.wordset
    T, two, zero = table.values, ring.from_int(2), ring.zero()
    report = AxiomReport(family)

    def note(axiom, witnesses, residual):
        report.checked[axiom] = report.checked.get(axiom, 0) + 1
        if residual != zero:
            report.violations.append((axiom, tuple(ws.words[i] for i in witnesses)))

    one = ws.p1_instance()
    if family == "P":
        note("P1", (one,), T[one] - two)
        for a, b, ab, ba in ws.p2_instances():
            note("P2", (a, b), T[ab] - T[ba])
        for a, b, c, abc, acb, ab, bc, ac in ws.p3_instances():
            note("P3", (a, b, c), T[a] * T[b] * T[c] + T[abc] + T[acb]
                 - T[ab] * T[c] - T[bc] * T[a] - T[ac] * T[b])
        for g, gg in ws.p4_instances():
            note("P4", (g,), T[g] * T[g] - T[gg] - two)
    else:
        note("C1", (one,), T[one] - two)
        for a, b, ab, inv in ws.c2_instances():
            note("C2", (a, b), T[a] * T[b] - T[ab] - T[inv])
    return report


@pytest.mark.parametrize(
    "spec",
    ["fp:7", "fp:10007", f"fp:{2**31 - 1}", "padic:7:2", "padic:13:8", "rational",
     "hbar:5:3"],
)
def test_axiom_checks_match_boxed_arithmetic(spec):
    ring = make_ring(spec)
    rng = random.Random(spec)
    violations = 0
    for ws in (BALL2, SMALL):
        for _ in range(3):
            table = random_trace_table(rng, ring, ws)
            for candidate in (table, mutate_table(rng, table), mutate_table(rng, table)):
                for family, check in (("P", check_axioms_P), ("C", check_axioms_C)):
                    got = check(candidate).to_json()
                    assert got == _boxed_report(family, candidate).to_json(), (spec, family)
                    violations += len(got["violations"])
            assert check_axioms_P(table).passed and check_axioms_C(table).passed
    assert violations > 0


def _hbar_sl2(rng, ring):
    """A determinant-1 matrix over base[h]/h^M with every h-coefficient drawn."""
    if ring.base.is_finite:
        draw = lambda: ring.base.element_at(rng.randrange(ring.base.order))  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))  # noqa: E731
    while True:
        a, b, c = (ring([draw() for _ in range(ring.M)]) for _ in range(3))
        if a.is_unit():
            return SL2Matrix(((a, b), (c, (1 + b * c) / a)))


@pytest.mark.parametrize(
    "spec",
    ["hbar:3:8", "hbar:7:1", "hbar:7:3", "hbar:13:6", "hbar:rational:2",
     "hbar:rational:3"],
)
def test_hbar_checks_match_boxed_arithmetic_in_every_h_degree(spec):
    # a change to one entry in h^k leaves every residual the same below h^k,
    # so the mutation in h^(M-1) shows only in the top slot
    ring = make_ring(spec)
    rng = random.Random(spec)
    if ring.base.is_finite:
        nonzero = lambda: 1 + rng.randrange(ring.base.order - 1)  # noqa: E731
    else:
        nonzero = lambda: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))  # noqa: E731
    for _ in range(2):
        rho = Representation(ring, _hbar_sl2(rng, ring), _hbar_sl2(rng, ring))
        table = trace_table(rho, BALL2)
        for family, check in (("P", check_axioms_P), ("C", check_axioms_C)):
            assert check(table).to_json() == _boxed_report(family, table).to_json()
            assert check(table).passed
        for k in range(ring.M):
            i = 1 + rng.randrange(len(BALL2) - 1)  # any word but the empty one
            delta = ring([0] * k + [nonzero()])
            mutated = table.with_value(i, table.values[i] + delta)
            for family, check in (("P", check_axioms_P), ("C", check_axioms_C)):
                got = check(mutated).to_json()
                assert got == _boxed_report(family, mutated).to_json(), (family, k)
                assert got["violations"], (family, k)


# primes p whose bound 6 M^2 p^3 takes 80 bits: slots wider than an array
# lane, so the slot width has no spare bit beyond the sign
TIGHT = {1: 46530691, 2: 29312509, 3: 22369661, 6: 14091983}


@pytest.mark.parametrize("M", [1, 2, 3, 6])
@pytest.mark.parametrize("base", ["7", "tight", "rational"])
def test_hbar_zero_test_reads_every_slot_at_its_bound(base, M):
    # a residual has h-degrees up to 3M - 3, each slot within 6 M^2 m^3; the
    # zero test must read its low M slots right even with every slot at that
    # bound (a multiple of m) or one less, of either sign
    base = TIGHT[M] if base == "tight" else base
    ring = make_ring(f"hbar:{base}:{M}")
    h = [0, 1] + [0] * (M - 2) if M > 1 else [1]
    table = PseudoRepTable.from_dict(ring, {FreeWord.from_string("a"): ring(h)})
    T, is_zero = _int_image(table)
    coeffs = [c for v in table.values for c in v.value]
    m = _rational_image(coeffs, M * M)[1] if base == "rational" else ring.base.p
    width = (T[1].bit_length() - 1) // 8  # T[1] packs h: 256^width
    bound = 6 * M * M * m**3
    rng = random.Random(M)
    for trial in range(400):
        slots = [rng.choice((1, -1)) * (bound - rng.randrange(2)) for _ in range(3 * M - 2)]
        if trial % 2:
            slots[:M] = [rng.choice((1, -1)) * bound for _ in range(M)]
        r = sum(c << (8 * width * k) for k, c in enumerate(slots))
        # schoolbook: truncate mod h^M, then test each coefficient mod m
        assert is_zero(r) == all(c % m == 0 for c in slots[:M]), slots


def test_ball_is_one_shared_immutable_window():
    assert WordSet.ball(2) is BALL2
    assert WordSet.ball(2).products() is BALL2.products()
    with pytest.raises(AttributeError):
        BALL2.words = ()


# Mersenne primes: pairwise coprime denominators of 61 to 127 bits, and a
# larger prime that only the near-miss deltas bring in
MERSENNE = [2**e - 1 for e in (61, 89, 107, 127)]
NEAR_MISS = 2**521 - 1
DEGREE = {"P1": 1, "P2": 1, "P3": 3, "P4": 2, "C1": 1, "C2": 2}


def _adversarial_rational_tables():
    """(table, mutated) pairs over Q whose entries have numerators near
    2^200 and coprime prime denominators, so that D has hundreds of bits;
    each mutation moves one entry by +-1/NEAR_MISS."""
    rng = random.Random(21)

    def sl2(p, q, r):
        a = Fraction(2**200 - rng.randrange(1, 2**16), p)
        b = Fraction(rng.choice([-1, 1]) * (2**200 - rng.randrange(2**16)), q)
        c = Fraction(rng.randrange(1, 2**16), r)
        return SL2Matrix(((Q(a), Q(b)), (Q(c), Q((1 + b * c) / a))))

    pairs = []
    for ws in (BALL2, SMALL):
        for _ in range(2):
            p, q, r, s = rng.sample(MERSENNE, 4)
            table = trace_table(Representation(Q, sl2(p, q, r), sl2(s, p, q)), ws)
            i = rng.randrange(len(ws))
            delta = Q(Fraction(rng.choice([-1, 1]), NEAR_MISS))
            pairs.append((table, table.with_value(i, table.values[i] + delta)))
    return pairs


def test_rational_checks_match_boxed_arithmetic_on_adversarial_tables():
    violations = 0
    for table, mutated in _adversarial_rational_tables():
        assert lcm(*(v.value.denominator for v in table.values)).bit_length() > 300
        for family, check in (("P", check_axioms_P), ("C", check_axioms_C)):
            assert check(table).passed
            got = check(mutated).to_json()
            assert got == _boxed_report(family, mutated).to_json(), family
            violations += len(got["violations"])
    assert violations > 0


def test_rational_image_modulus_exceeds_every_cleared_residual():
    # r = 0 exactly when its image is 0 mod Q, because |D^k r| < Q
    for pair in _adversarial_rational_tables():
        for table in pair:
            ws, values = table.wordset, [v.value for v in table.values]
            images, q = _rational_image(values)
            d = lcm(*(v.denominator for v in values))
            assert q % d == 1
            assert all(t * d % q == v * d % q for t, v in zip(images, values))
            for residuals in (_p_residuals, _c_residuals):
                for axiom, _, r in residuals(ws, values, 2):
                    cleared = d ** DEGREE[axiom] * r
                    assert cleared.denominator == 1
                    assert abs(cleared) < q, axiom
