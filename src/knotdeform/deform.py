"""Explicit universal deformations of residual Riley representations.

Starting from a root beta of Phi(2, u) in the residue field, the Hensel
lift u(x) in O[[x-2]] and the unit v(x) = sqrt(1 + (x^2-4)/u(x)) produce
the deformation matrices

    A(x) = [[x/2, 1], [(x^2-4)/4, x/2]]
    B(x) = [[x/2, (1-v)^2 u / (x^2-4)], [(1+v)^2 u / 4, x/2]]

which reduce to C(1), D(1, beta) at x = 2 and satisfy the knot relator
wa = bw identically.  The off-diagonal of B costs one coefficient of
z-precision to the exact division by x^2 - 4 = z(z + 4); every check
records the precision at which it was verified.

ramified_check works in the quadratic extension O[[s]], s^2 = x - 2,
where t with t + 1/t = x exists (t^-1 = x - t), and confirms that
conjugation by the explicit matrix M(x), det M = v, carries C(t), D(t, u)
to A, B; the unimodular U = v^(-1/2) M is never formed.  specialize
substitutes a ring value for x whose difference from 2 is nilpotent,
yielding honest representations over O itself.
"""

from dataclasses import dataclass

from .errors import (
    BadCharacteristic,
    NonUnitU,
    NotInMaximalIdeal,
    PrecisionTooLow,
    RingMismatch,
)
from .riley import Representation, c_matrix, d_matrix, riley_data
from .rings import RingElement, make_ring, residue_field, residue_of, to_residue
from .series import (
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
from .words import SL2Matrix, TwoBridgeKnot, evaluate_word, schubert_word


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    precision: int
    detail: str = ""

    def to_json(self):
        obj = {
            "check": self.name,
            "pass": self.passed,
            "precision": str(self.precision),
        }
        if self.detail:
            obj["detail"] = self.detail
        return obj


def _first_mismatch(m1, m2):
    """Entry and coefficient index where two series matrices first differ."""
    for i in range(2):
        for j in range(2):
            a, b = m1.entries[i][j], m2.entries[i][j]
            n = min(a.precision, b.precision)
            for k in range(n):
                if a.values[k] != b.values[k]:
                    return f"entry ({i},{j}), coefficient {k}"
    return ""


def hensel_u(knot, beta, coeff_ring, N):
    """The unique unit series u with Phi(x, u) = 0 lifting beta."""
    data = riley_data(knot)
    beta_res = residue_of(coeff_ring, beta)
    if beta_res.is_zero():
        raise NonUnitU("beta = 0 gives a reducible residual; rejected")
    p = beta_res.ring.char
    if p and data.disc % p == 0:
        raise BadCharacteristic(
            f"residue characteristic {p} divides disc = {data.disc}"
        )
    u = newton_root(data.Phi, beta_res, coeff_ring, N)
    if not u.constant_term().is_unit():
        raise NonUnitU("lifted series has non-unit constant term")
    return u


def deformation_matrices(u):
    """(v, A, B) from the lifted series u; B's off-diagonal loses one digit."""
    ring, N = u.ring, u.precision
    half = ring.from_int(2).inverse()
    quarter = half * half
    one = TruncSeries.constant(ring, "z", 1, N)
    w = TruncSeries.from_list(ring, "z", [0, 4, 1], N)  # x^2 - 4 = z(z+4)
    v = series_sqrt(one + w * series_invert(u))
    x_half = TruncSeries.from_list(ring, "z", [1, half], N)

    a_mat = SL2Matrix(((x_half, one), (w * quarter, x_half)))

    num = (one - v) * (one - v) * u
    z_plus_4 = TruncSeries.from_list(ring, "z", [4, 1], N - 1)
    b12 = divide_by_var_power(num, 1) * series_invert(z_plus_4)
    b21 = (one + v) * (one + v) * u * quarter
    b_mat = SL2Matrix(((x_half, b12), (b21, x_half)))
    return v, a_mat, b_mat


def _matrix_min_precision(*mats):
    return min(
        entry.precision for m in mats for row in m.entries for entry in row
    )


def verify_deformation(knot, a_mat, b_mat, beta):
    """The four deformation checks, each reported with its precision."""
    ring = a_mat.entries[0][0].ring
    beta_res = residue_of(ring, beta)
    k = beta_res.ring
    checks = []

    word = schubert_word(knot)
    w_img = evaluate_word(word, a_mat, b_mat)
    lhs = w_img * a_mat
    rhs = b_mat * w_img
    prec = _matrix_min_precision(lhs, rhs)
    relator_ok = lhs == rhs
    checks.append(
        CheckResult(
            "relator",
            relator_ok,
            prec,
            "" if relator_ok else _first_mismatch(lhs, rhs),
        )
    )

    det_a = a_mat.det()
    det_b = b_mat.det()
    checks.append(
        CheckResult(
            "determinants",
            det_a == det_a.one_like() and det_b == det_b.one_like(),
            min(det_a.precision, det_b.precision),
        )
    )

    res_ok = True
    expected_a = c_matrix(k.one())
    expected_b = d_matrix(k.one(), beta_res)
    for mat, expect in ((a_mat, expected_a), (b_mat, expected_b)):
        for i in range(2):
            for j in range(2):
                got = to_residue(mat.entries[i][j].constant_term())
                if got != expect.entries[i][j]:
                    res_ok = False
    checks.append(CheckResult("residual_reduction", res_ok, 1))

    tr = a_mat.trace()
    x_exact = x_series(ring, tr.precision)
    checks.append(
        CheckResult("trace_of_a_is_x", tr.values == x_exact.values, tr.precision)
    )
    return checks


def character_series(a_mat, b_mat):
    """(tr A, tr AB) as series: the character point of the deformation."""
    return a_mat.trace(), (a_mat * b_mat).trace()


def character_check(knot, a_mat, b_mat):
    """The deformation's character lies on the irreducible curve factor."""
    from .charvariety import curve_model

    tr_a, tr_ab = character_series(a_mat, b_mat)
    model = curve_model(knot)
    val = eval_bipoly(model.irreducible_factor, {"x": tr_a, "y": tr_ab})
    return CheckResult("character_on_curve", val.is_zero(), val.precision)


def ramified_check(u, n_s):
    """Verify that M conjugates C(t), D(t, u) to A, B in O[[s]], s^2 = x - 2.

    t = (x + s r)/2, r = sqrt(s^2+4) with constant term 2, has t^-1 = x - t
    and t = 1 + s mod s^2.  M = [[1, (1-v)/(s r)], [s r/2, (1+v)/2]] has
    det M = v, a unit, and U = v^(-1/2) M is unimodular; a scalar cancels
    under conjugation, so det U = 1 is checked as det M = v and
    U C U^-1 = A as M C = A M.

    A and B are built from u, so these checks pass for any unit series u;
    that u lifts a root of Phi is tested by verify_deformation's relator.
    """
    if n_s < 2:
        raise PrecisionTooLow(
            f"ramified s-precision must be at least 2 (U's off-diagonal "
            f"divides by s), got {n_s}"
        )
    ring = u.ring
    half = ring.from_int(2).inverse()
    prec = min(n_s, 2 * u.precision)

    one = TruncSeries.constant(ring, "s", 1, prec)
    x_s = TruncSeries.from_list(ring, "s", [2, 0, 1], prec)

    # sqrt(x^2 - 4) = s r, r = sqrt(s^2 + 4) = 2 sqrt(1 + s^2/4)
    root4 = series_sqrt(
        TruncSeries.from_list(ring, "s", [1, 0, half * half], prec)
    ) * ring.from_int(2)
    s_root4 = shift_up(root4, 1).truncate(prec)

    t = (x_s + s_root4) * half
    t_inv = x_s - t
    checks = [
        CheckResult("t_plus_tinv_is_x", t * t_inv == one, prec),
        CheckResult("t_residual", t.values[0] == t.values[1] == one.values[0], 2),
    ]

    def ramify(f):
        return to_ramified(f).truncate(prec)

    v, a_mat, b_mat = deformation_matrices(u)
    v_s = ramify(v)
    m12 = divide_by_var_power(one - v_s, 1) * series_invert(root4)
    m_mat = SL2Matrix(
        ((one, m12), (s_root4 * half, (one + v_s) * half)), check=False
    )
    det_m = m_mat.det()
    checks.append(CheckResult("det_U", det_m == v_s, det_m.precision))
    at_0 = [e.values[0] for row in m_mat.entries for e in row]
    id_0 = [one.values[0], ring.zero_value, ring.zero_value, one.values[0]]
    checks.append(CheckResult("U_at_s0_identity", at_0 == id_0, 1))

    zero = TruncSeries.constant(ring, "s", 0, prec)
    for name, gen, target in (
        ("U_C_Uinv_is_A", ((t, one), (zero, t_inv)), a_mat),
        ("U_D_Uinv_is_B", ((t, zero), (ramify(u), t_inv)), b_mat),
    ):
        lhs = m_mat * SL2Matrix(gen, check=False)
        rhs = SL2Matrix(
            tuple(tuple(map(ramify, row)) for row in target.entries), check=False
        ) * m_mat
        joint = _matrix_min_precision(lhs, rhs)
        checks.append(CheckResult(name, lhs == rhs, joint))
    return checks


def specialize(a_mat, b_mat, x0, knot):
    """Substitute x = x0 with x0 - 2 nilpotent; returns a representation.

    The series tails must genuinely vanish: (x0 - 2)^P = 0 for the joint
    entry precision P, otherwise the substitution would depend on unknown
    coefficients.  The knot's relator is verified in the target ring.
    """
    ring = x0.ring
    sample = a_mat.entries[0][0]
    if sample.ring != ring:
        raise RingMismatch(f"{sample.ring} series, {ring} point")
    c = x0 - ring.from_int(2)
    if not ring.in_maximal_ideal(c):
        raise NotInMaximalIdeal(f"x0 - 2 = {c} is not in the maximal ideal")
    prec = _matrix_min_precision(a_mat, b_mat)
    if not (c**prec).is_zero():
        raise NotInMaximalIdeal(
            f"(x0 - 2)^{prec} != 0: series precision too low to specialize"
        )

    def eval_series(f):
        add, mul, step = ring._add, ring._mul, c.value
        acc = ring.zero_value
        for v in reversed(f.values):
            acc = add(mul(acc, step), v)
        return RingElement(ring, acc)

    def eval_matrix(m):
        return SL2Matrix(
            tuple(tuple(eval_series(e) for e in row) for row in m.entries)
        )

    image_a = eval_matrix(a_mat)
    image_b = eval_matrix(b_mat)
    w = evaluate_word(schubert_word(knot), image_a, image_b)
    if w * image_a != image_b * w:
        raise NotInMaximalIdeal("specialized matrices fail the relator")
    return Representation(ring, image_a, image_b)


def specialization_point(ring, n):
    """x0 = (1 + pi)^n + (1 + pi)^-n for the ring's uniformizer pi."""
    if not hasattr(ring, "uniformizer"):
        raise NotInMaximalIdeal(f"{ring} has no uniformizer to specialize along")
    g = ring.one() + ring.uniformizer()
    return g**n + g ** (-n)


@dataclass
class DeformationData:
    knot: TwoBridgeKnot
    coeff_ring: object
    beta: object  # residue-field element
    precision: int
    u: TruncSeries
    v: TruncSeries
    A: SL2Matrix
    B: SL2Matrix
    verification: list

    @property
    def passed(self):
        return all(c.passed for c in self.verification)

    def to_json(self):
        return {
            "knot": {"m": str(self.knot.m), "n": str(self.knot.n)},
            "coeff": self.coeff_ring.spec_string(),
            "beta": str(self.beta),
            "precision": str(self.precision),
            "u": self.u.to_json(),
            "v": self.v.to_json(),
            "A": [[e.to_json() for e in row] for row in self.A.entries],
            "B": [[e.to_json() for e in row] for row in self.B.entries],
            "verification": [c.to_json() for c in self.verification],
        }

    @classmethod
    def from_json(cls, obj):
        ring = make_ring(obj["coeff"])
        knot = TwoBridgeKnot(int(obj["knot"]["m"]), int(obj["knot"]["n"]))
        k = residue_field(ring)
        beta = k.parse_value(obj["beta"])
        u = TruncSeries.from_json(obj["u"])
        v = TruncSeries.from_json(obj["v"])
        a_mat = SL2Matrix(
            tuple(tuple(TruncSeries.from_json(e) for e in row) for row in obj["A"])
        )
        b_mat = SL2Matrix(
            tuple(tuple(TruncSeries.from_json(e) for e in row) for row in obj["B"])
        )
        verification = verify_deformation(knot, a_mat, b_mat, beta)
        return cls(
            knot, ring, beta, int(obj["precision"]), u, v, a_mat, b_mat,
            verification,
        )


def deformation_data(knot, beta, coeff_ring, N):
    """Full pipeline: Hensel lift, matrices, verification report."""
    if N < 2:
        raise PrecisionTooLow(
            f"z-precision must be at least 2 (B's off-diagonal divides by z), "
            f"got {N}"
        )
    beta_res = residue_of(coeff_ring, beta)
    u = hensel_u(knot, beta_res, coeff_ring, N)
    v, a_mat, b_mat = deformation_matrices(u)
    verification = verify_deformation(knot, a_mat, b_mat, beta_res)
    return DeformationData(
        knot, coeff_ring, beta_res, N, u, v, a_mat, b_mat, verification
    )
