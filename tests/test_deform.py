import json
from math import comb

import pytest

from knotdeform.deform import (
    CheckResult,
    DeformationData,
    _matrix_min_precision,
    character_check,
    character_series,
    deformation_data,
    deformation_matrices,
    hensel_u,
    ramified_check,
    specialization_point,
    specialize,
    verify_deformation,
)
from knotdeform.errors import (
    BadCharacteristic,
    NonUnitU,
    NotInMaximalIdeal,
    PrecisionTooLow,
    RingMismatch,
)
from knotdeform.pseudorep import WordSet, check_axioms_C, check_axioms_P, trace_table
from knotdeform.riley import riley_rep
from knotdeform.rings import (
    HbarTruncRing,
    PadicTruncRing,
    PrimeField,
    Rationals,
    make_ring,
    residue_field,
)
from knotdeform.series import (
    TruncSeries,
    divide_by_var_power,
    eval_bipoly,
    series_invert,
    series_sqrt,
    shift_up,
    to_ramified,
    x_series,
)
from knotdeform.words import SL2Matrix, TwoBridgeKnot

Q = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)
TREFOIL = TwoBridgeKnot(3, 1)
FIG8 = TwoBridgeKnot(5, 3)


def test_hensel_trefoil_is_exactly_three_minus_x_squared():
    u = hensel_u(TREFOIL, Q(-1), Q, 6)
    assert [c.value for c in u.coeffs] == [-1, -4, -1, 0, 0, 0]


def test_hensel_unique_coefficients_at_every_precision():
    for n in (1, 2, 3, 5, 9, 16):
        u = hensel_u(TREFOIL, Q(-1), Q, n)
        expected = ([-1, -4, -1] + [0] * n)[:n]
        assert [c.value for c in u.coeffs] == expected


def test_hensel_figure_eight_padic():
    ring = PadicTruncRing(7, 4)
    u = hensel_u(FIG8, F7(3), ring, 8)
    from knotdeform.riley import riley_data

    phi = riley_data(FIG8).Phi
    assert eval_bipoly(phi, {"x": x_series(ring, 8), "u": u}).is_zero()
    assert u.coeffs[0].residue() == F7(3)


def test_hensel_surd_identity():
    # 2u - 5 + x^2 squares to (x^2-1)(x^2-5)
    ring = PadicTruncRing(7, 4)
    u = hensel_u(FIG8, F7(3), ring, 8)
    x2 = TruncSeries.from_list(ring, "z", [4, 4, 1], 8)
    lhs = u * 2 + (x2 - 5)
    assert lhs * lhs == (x2 - 1) * (x2 - 5)


def test_hensel_rejections():
    with pytest.raises(NonUnitU):
        hensel_u(TREFOIL, Q(0), Q, 4)
    with pytest.raises(BadCharacteristic):
        hensel_u(FIG8, PrimeField(3)(1), PadicTruncRing(3, 2), 4)


def test_deformation_matrices_trefoil():
    u = hensel_u(TREFOIL, Q(-1), Q, 12)
    v, a_mat, b_mat = deformation_matrices(u)
    # v = 1/sqrt(x^2 - 3): equivalently v^2 (x^2 - 3) = 1
    x2m3 = TruncSeries.from_list(Q, "z", [1, 4, 1], 12)
    assert v * v * x2m3 == TruncSeries.constant(Q, "z", 1, 12)
    # A at z = 0 is C(1)
    consts = [a_mat.entries[i][j].constant_term() for i in range(2) for j in range(2)]
    assert consts == [Q(1), Q(1), Q(0), Q(1)]
    # B at z = 0 reduces to D(1, -1)
    consts = [b_mat.entries[i][j].constant_term() for i in range(2) for j in range(2)]
    assert consts == [Q(1), Q(0), Q(-1), Q(1)]
    # off-diagonal of B pays one coefficient for the exact division
    assert b_mat.entries[0][1].precision == 11
    assert b_mat.entries[1][0].precision == 12


def test_verify_deformation_trefoil_q16():
    data = deformation_data(TREFOIL, Q(-1), Q, 16)
    assert data.passed
    for check in data.verification:
        if check.name in ("relator", "determinants"):
            assert check.precision >= 15
    tr_a, tr_ab = character_series(data.A, data.B)
    assert tr_a.coeffs == x_series(Q, 16).coeffs
    # tr AB = x^2 - 2 + u on the curve coordinates
    expected = TruncSeries.from_list(Q, "z", [2, 4, 1], 16) + data.u
    assert tr_ab == expected


def test_verify_deformation_fig8_padic():
    ring = PadicTruncRing(7, 4)
    data = deformation_data(FIG8, F7(3), ring, 8)
    assert data.passed
    for check in data.verification:
        if check.name in ("relator", "determinants"):
            assert check.precision >= 7


def test_verify_deformation_detects_corruption():
    data = deformation_data(TREFOIL, Q(-1), Q, 8)
    ((a, b), (c, d)) = data.B.entries
    bump = TruncSeries.from_list(Q, "z", [0, 0, 0, 1], b.precision)
    corrupted = SL2Matrix(((a, b + bump), (c, d)), check=False)
    checks = verify_deformation(TREFOIL, data.A, corrupted, Q(-1))
    relator = next(ch for ch in checks if ch.name == "relator")
    assert not relator.passed
    assert "coefficient 3" in relator.detail


def test_character_on_curve():
    data = deformation_data(TREFOIL, Q(-1), Q, 16)
    check = character_check(TREFOIL, data.A, data.B)
    assert check.passed and check.precision >= 15
    ring = PadicTruncRing(7, 4)
    d8 = deformation_data(FIG8, F7(3), ring, 8)
    check = character_check(FIG8, d8.A, d8.B)
    assert check.passed and check.precision >= 7


def test_ramified_check_trefoil():
    u = hensel_u(TREFOIL, Q(-1), Q, 8)
    checks = ramified_check(u, 12)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert {"t_plus_tinv_is_x", "det_U", "U_at_s0_identity",
            "U_C_Uinv_is_A", "U_D_Uinv_is_B"} <= names
    conj = {c.name: c for c in checks}
    assert conj["U_C_Uinv_is_A"].precision >= 10
    # t + 1/t = x = 2 + s^2 in the ramified coordinate
    assert conj["t_plus_tinv_is_x"].precision >= 11


def test_minimum_precisions():
    assert deformation_data(TREFOIL, Q(-1), Q, 2).passed
    with pytest.raises(PrecisionTooLow):
        deformation_data(TREFOIL, Q(-1), Q, 1)
    u = hensel_u(TREFOIL, Q(-1), Q, 2)
    assert all(c.passed for c in ramified_check(u, 2))
    with pytest.raises(PrecisionTooLow):
        ramified_check(u, 1)


def test_ramified_check_padic():
    ring = PadicTruncRing(7, 3)
    u = hensel_u(FIG8, F7(3), ring, 6)
    checks = ramified_check(u, 10)
    assert all(c.passed for c in checks)


def _ramified_check_reference(u, n_s):
    """The check through the unimodular U = v^(-1/2) M itself: a Newton
    square root of v, the inverses of sqrt(v) and of t, and U^-1."""
    ring = u.ring
    half = ring.from_int(2).inverse()
    quarter = half * half
    prec = min(n_s, 2 * u.precision)

    u_s = to_ramified(u).truncate(prec)
    one = TruncSeries.constant(ring, "s", 1, prec)
    x_s = TruncSeries.from_list(ring, "s", [2, 0, 1], prec)
    root4 = series_sqrt(
        TruncSeries.from_list(ring, "s", [1, 0, quarter], prec)
    ) * ring.from_int(2)
    sqrt_x2m4 = shift_up(root4, 1).truncate(prec)

    t = (x_s + sqrt_x2m4) * half
    t_inv = series_invert(t)
    one_value = ring._from_number(1)
    t_res_ok = t.values[0] == one_value and t.values[1] == one_value
    checks = [
        CheckResult("t_plus_tinv_is_x", t + t_inv == x_s, prec),
        CheckResult("t_residual", t_res_ok, 2),
    ]

    v, a_mat, b_mat = deformation_matrices(u)
    v_s = to_ramified(v).truncate(prec)
    inv_sqrt_v = series_invert(series_sqrt(v_s))
    u12 = divide_by_var_power((one - v_s) * inv_sqrt_v, 1) * series_invert(root4)
    u21 = sqrt_x2m4 * inv_sqrt_v * half
    u22 = (one + v_s) * inv_sqrt_v * half
    u_mat = SL2Matrix(((inv_sqrt_v, u12), (u21, u22)))
    det = u_mat.det()
    checks.append(CheckResult("det_U", det == det.one_like(), det.precision))
    consts = [e.constant_term() for row in u_mat.entries for e in row]
    at_identity = consts == [ring.one(), ring.zero(), ring.zero(), ring.one()]
    checks.append(CheckResult("U_at_s0_identity", at_identity, 1))

    zero = TruncSeries.constant(ring, "s", 0, prec)
    c_t = SL2Matrix(((t, one), (zero, t_inv)))
    d_t = SL2Matrix(((t, zero), (u_s, t_inv)))
    u_inv = u_mat.inverse()
    for name, gen, target in (
        ("U_C_Uinv_is_A", c_t, a_mat),
        ("U_D_Uinv_is_B", d_t, b_mat),
    ):
        target_s = SL2Matrix(
            tuple(
                tuple(to_ramified(e).truncate(prec) for e in row)
                for row in target.entries
            ),
            check=False,
        )
        conj = u_mat * gen * u_inv
        joint = _matrix_min_precision(conj, target_s)
        checks.append(CheckResult(name, conj == target_s, joint))
    return checks


# (knot, ring spec, residual root, z-precisions N) over every ring kind
RAMIFIED_ORACLE_CASES = [
    (TREFOIL, "rational", -1, (2, 3, 12)),
    (FIG8, "fp:13", 4, (2, 7)),
    (FIG8, "padic:7:4", 3, (2, 6)),
    (TwoBridgeKnot(7, 3), "padic:11:3", 7, (5,)),
    (TREFOIL, "hbar:5:3", -1, (2, 6)),
    (TwoBridgeKnot(5, 1), "hbar:11:2", 2, (4,)),
    (TREFOIL, "hbar:rational:3", -1, (2, 5)),
]


@pytest.mark.parametrize(
    "knot, spec, root, precisions",
    RAMIFIED_ORACLE_CASES,
    ids=[f"{k.m}-{k.n}-{spec}" for k, spec, _, _ in RAMIFIED_ORACLE_CASES],
)
def test_ramified_check_matches_the_unimodular_reference(knot, spec, root, precisions):
    ring = make_ring(spec)
    beta = residue_field(ring).from_int(root)
    for n in precisions:
        u = hensel_u(knot, beta, ring, n)
        for n_s in sorted({2, 3, 2 * n - 1, 2 * n, 2 * n + 3}):
            got = ramified_check(u, n_s)
            assert got == _ramified_check_reference(u, n_s), (spec, n, n_s)
            assert all(c.passed for c in got)


def test_ramified_check_does_not_test_that_u_lifts_a_root():
    # Raise one coefficient of the trefoil's u over Q: every ramified check
    # still passes, and only the relator of verify_deformation sees it.
    n, k = 8, 2
    u = hensel_u(TREFOIL, Q(-1), Q, n)
    bump = TruncSeries.from_list(Q, "z", [0] * k + [1], n)
    bad_u = u + bump
    assert all(c.passed for c in ramified_check(bad_u, 2 * n))
    _, a_mat, b_mat = deformation_matrices(bad_u)
    checks = {c.name: c for c in verify_deformation(TREFOIL, a_mat, b_mat, Q(-1))}
    assert k < checks["relator"].precision
    assert not checks["relator"].passed


def test_specialize_hbar_example():
    ring = HbarTruncRing(F5, 3)
    data = deformation_data(TREFOIL, F5(-1), ring, 6)
    x0 = specialization_point(ring, 1)
    assert x0 == ring([2, 0, 1])  # (1+h) + (1+h)^-1 = 2 + h^2 mod h^3
    rho = specialize(data.A, data.B, x0, knot=TREFOIL)
    word_set = WordSet.ball(2)
    table = trace_table(rho, word_set)
    assert check_axioms_P(table).passed
    assert check_axioms_C(table).passed
    # reduction mod the maximal ideal recovers the residual character
    rho_bar = riley_rep(TREFOIL, F5(1), F5(-1))
    tbar = trace_table(rho_bar, word_set)
    for w in word_set:
        assert table(w).residue() == tbar(w)


def test_specialize_at_two_gives_residual_constants():
    ring = HbarTruncRing(F5, 3)
    data = deformation_data(TREFOIL, F5(-1), ring, 6)
    rho = specialize(data.A, data.B, ring(2), knot=TREFOIL)
    assert rho.images["a"].entries[0][0] == ring(1)
    assert rho.images["a"].entries[0][1] == ring(1)
    assert rho.images["b"].entries[1][0] == ring(-1)


def test_specialize_rejects_units():
    ring = HbarTruncRing(F5, 3)
    data = deformation_data(TREFOIL, F5(-1), ring, 6)
    with pytest.raises(NotInMaximalIdeal):
        specialize(data.A, data.B, ring(3), knot=TREFOIL)


def test_specialize_needs_enough_precision():
    ring = PadicTruncRing(5, 4)
    data = deformation_data(TREFOIL, F5(-1), ring, 2)
    x0 = ring(2 + 5)  # (x0 - 2)^1 = 5 != 0 mod 5^4 at joint precision 1
    with pytest.raises(NotInMaximalIdeal):
        specialize(data.A, data.B, x0, knot=TREFOIL)


def test_specialize_padic():
    ring = PadicTruncRing(5, 3)
    data = deformation_data(TREFOIL, F5(-1), ring, 6)
    x0 = specialization_point(ring, 2)
    rho = specialize(data.A, data.B, x0, knot=TREFOIL)
    assert rho.images["a"].det() == ring.one()


def test_deformation_json_round_trip():
    data = deformation_data(TREFOIL, Q(-1), Q, 10)
    blob = json.dumps(data.to_json())
    again = DeformationData.from_json(json.loads(blob))
    assert again.passed
    assert again.u == data.u
    assert again.A == data.A and again.B == data.B

    ring = PadicTruncRing(7, 4)
    d8 = deformation_data(FIG8, F7(3), ring, 6)
    again = DeformationData.from_json(json.loads(json.dumps(d8.to_json())))
    assert again.passed


def test_beta_can_be_given_in_the_coefficient_ring():
    ring = PadicTruncRing(7, 3)
    beta_in_ring = ring(3)
    data = deformation_data(FIG8, beta_in_ring, ring, 4)
    assert data.passed


def test_beta_from_another_ring_is_rejected():
    ring = PadicTruncRing(7, 3)
    data = deformation_data(FIG8, F7(3), ring, 4)
    assert verify_deformation(FIG8, data.A, data.B, ring(3)) == data.verification
    for beta in (PrimeField(11)(3), PadicTruncRing(7, 2)(3), Q(3)):
        with pytest.raises(RingMismatch):
            deformation_data(FIG8, beta, ring, 4)
        with pytest.raises(RingMismatch):
            verify_deformation(FIG8, data.A, data.B, beta)


def test_specialization_point_large_exponent_padic():
    # x0 = 14^n + 14^-n in Z/13^8, against Python's modular pow
    ring = PadicTruncRing(13, 8)
    n, m = 10**9, 13**8
    x0 = specialization_point(ring, n)
    assert x0.value == (pow(14, n, m) + pow(14, -n, m)) % m


def test_specialization_point_large_exponent_hbar():
    # (1 + h)^k = sum_j C(k, j) h^j mod h^3, and C(-n, j) = (-1)^j C(n + j - 1, j)
    ring = HbarTruncRing(PrimeField(7), 3)
    n = 10**9
    up = [comb(n, j) for j in range(3)]
    down = [(-1) ** j * comb(n + j - 1, j) for j in range(3)]
    x0 = specialization_point(ring, n)
    assert x0.value == tuple((a + b) % 7 for a, b in zip(up, down))
    # the same point by squaring written out: n = 10^9 in binary
    g = ring.one() + ring.uniformizer()
    power, square = ring.one(), g
    for bit in reversed(bin(n)[2:]):
        if bit == "1":
            power = power * square
        square = square * square
    assert x0 == power + power.inverse()
