"""The Riley pipeline for 2-bridge knot groups.

For b(m, n) with relator word w, the images a -> C(t), b -> D(t, u) with

    C(t) = [[t, 1], [0, 1/t]],   D(t, u) = [[t, 0], [u, 1/t]]

make the word matrix W(t, u) a 2x2 matrix over Z[t^+-, u].  The trace
combination phi = w11 + (1/t - t) w12 becomes symmetric after a power of
t and rewrites as the Riley polynomial Phi(x, u) in x = t + 1/t; its
residual specialization Phi(2, u) controls which (alpha, beta) give
actual representations: Phi(alpha + 1/alpha, beta) = 0 exactly when
W(alpha, beta) C(alpha) = D(alpha, beta) W(alpha, beta).

riley_data, cached per knot, builds phi from the first row of W alone;
the full symbolic W is built only when RileyData.W is first read.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .errors import (
    BadCharacteristic,
    NoConjugator,
    NotAField,
    NotARepresentation,
    NotIrreducible,
    NotPrime,
    PrimeTooLarge,
    RingMismatch,
)
from .polynomials import BiPoly, LaurentBiPoly, UniPoly, discriminant, symmetric_reduce
from .rings import _signed_slots, is_prime
from .words import FreeWord, SL2Matrix, TwoBridgeKnot, evaluate_word, schubert_word

MAX_SCAN_PRIME = 10**4


def c_matrix(alpha):
    """C(alpha) over the ring of alpha; alpha must be a unit."""
    ring = alpha.ring
    return SL2Matrix(
        ((alpha, ring.one()), (ring.zero(), alpha.inverse()))
    )


def d_matrix(alpha, beta):
    """D(alpha, beta) over the common ring of alpha and beta."""
    if beta.ring != alpha.ring:
        raise RingMismatch(f"{alpha.ring} vs {beta.ring}")
    ring = alpha.ring
    return SL2Matrix(
        ((alpha, ring.zero()), (beta, alpha.inverse()))
    )


def c_symbolic():
    one = LaurentBiPoly.one()
    zero = LaurentBiPoly.zero()
    return SL2Matrix(
        ((LaurentBiPoly.t_power(1), one), (zero, LaurentBiPoly.t_power(-1))),
        check=False,
    )


def d_symbolic():
    zero = LaurentBiPoly.zero()
    return SL2Matrix(
        (
            (LaurentBiPoly.t_power(1), zero),
            (LaurentBiPoly.var_u(), LaurentBiPoly.t_power(-1)),
        ),
        check=False,
    )


@dataclass(frozen=True)
class RileyData:
    knot: TwoBridgeKnot
    phi: LaurentBiPoly
    Phi: BiPoly  # in (x, u)
    l: int
    Phi2: UniPoly  # Phi(2, u)
    disc: int

    @cached_property
    def W(self):  # over Z[t^+-, u]
        return evaluate_word(schubert_word(self.knot), c_symbolic(), d_symbolic())


def _riley_phi(word):
    """phi = W11 + (1/t - t) W12 from the first row of W: a letter is shifts and adds.

    With L letters, each row entry is one signed Kronecker int: L + 3 bit
    slots (whole bytes) for t^-(L+1) .. t^(L+1), T = 2L + 3 slots per power
    of u.  A letter adds at most two entries, so row coefficients stay below
    2^L and |phi| below 3 * 2^L, with one bit for the sign.  t r = r << w,
    u r = r << wT, and t^-1 r = r >> w is exact: the lowest slot is zero.
    """
    L = sum(abs(e) for _, e in word.letters)
    nbytes = (L + 10) // 8
    w, T = 8 * nbytes, 2 * L + 3
    r0, r1 = 1 << w * (L + 1), 0
    for gen, e in word.letters:
        for _ in range(abs(e)):
            if gen == "a" and e > 0:  # C = [[t, 1], [0, 1/t]]
                r0, r1 = r0 << w, r0 + (r1 >> w)
            elif gen == "a":  # C^-1 = [[1/t, -1], [0, t]]
                r0, r1 = r0 >> w, (r1 << w) - r0
            elif e > 0:  # D = [[t, 0], [u, 1/t]]
                r0, r1 = (r0 << w) + (r1 << w * T), r1 >> w
            else:  # D^-1 = [[1/t, 0], [-u, t]]
                r0, r1 = (r0 >> w) - (r1 << w * T), r1 << w
    slots = _signed_slots(r0 + (r1 >> w) - (r1 << w), nbytes)
    return LaurentBiPoly({(j % T - L - 1, j // T): c for j, c in enumerate(slots) if c})


@lru_cache(maxsize=None)
def _riley_data(m, n):
    knot = TwoBridgeKnot(m, n)
    phi = _riley_phi(schubert_word(knot))
    Phi, l = symmetric_reduce(phi)
    Phi2 = Phi.eval_first(2)
    return RileyData(knot, phi, Phi, l, Phi2, discriminant(Phi2))


def riley_data(knot):
    return _riley_data(knot.m, knot.n)


def valid_knots(max_m):
    """All Schubert forms b(m, n) with 3 <= m <= max_m."""
    for m in range(3, max_m + 1, 2):
        for n in range(-m + 1, m):
            if n % 2 != 0 and gcd(m, n) == 1:
                yield TwoBridgeKnot(m, n)


def riley_roots(knot, p):
    """All roots of Phi(2, u) in F_p, by exhaustive scan.

    Requires p an odd prime not dividing disc(Phi(2, u)); under that
    hypothesis every root is nonzero and simple, which is re-verified.
    """
    if p == 2:
        raise BadCharacteristic("p = 2 is excluded")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p > MAX_SCAN_PRIME:
        raise PrimeTooLarge(f"exhaustive scan capped at p <= {MAX_SCAN_PRIME}")
    data = riley_data(knot)
    if data.disc % p == 0:
        raise BadCharacteristic(f"p = {p} divides disc = {data.disc}")
    coeffs = [c % p for c in data.Phi2.coeffs]
    dcoeffs = [c % p for c in data.Phi2.derivative().coeffs]
    roots = set()
    for u in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * u + c) % p
        if acc == 0:
            dacc = 0
            for c in reversed(dcoeffs):
                dacc = (dacc * u + c) % p
            if u == 0 or dacc == 0:
                raise BadCharacteristic(
                    f"root {u} mod {p} is zero or multiple; p should not divide disc"
                )
            roots.add(u)
    return roots


class Representation:
    """An SL2 representation of a 2-generator group, by its images."""

    __slots__ = ("ring", "images")

    def __init__(self, ring, image_a, image_b):
        self.ring = ring
        self.images = {"a": image_a, "b": image_b}

    def __call__(self, word):
        if isinstance(word, str):
            word = FreeWord.from_string(word)
        return evaluate_word(word, self.images["a"], self.images["b"])

    def trace_of(self, word):
        return self(word).trace()

    def __repr__(self):
        return f"<Representation over {self.ring}>"


def trivial_representation(ring):
    ident = SL2Matrix.identity_like(ring.one())
    return Representation(ring, ident, ident)


def riley_rep(knot, alpha, beta):
    """The Riley representation a -> C(alpha), b -> D(alpha, beta).

    Exists exactly when Phi(alpha + 1/alpha, beta) = 0; the relator
    identity W C = D W is verified directly as well.
    """
    if beta.ring != alpha.ring:
        raise RingMismatch(f"{alpha.ring} vs {beta.ring}")
    if not alpha.is_unit():
        raise NotARepresentation(f"alpha = {alpha} is not a unit")
    data = riley_data(knot)
    x = alpha + alpha.inverse()
    if not data.Phi.evaluate({"x": x, "u": beta}).is_zero():
        raise NotARepresentation(
            f"Phi({x}, {beta}) != 0 over {alpha.ring}"
        )
    ca = c_matrix(alpha)
    db = d_matrix(alpha, beta)
    w = evaluate_word(schubert_word(knot), ca, db)
    if w * ca != db * w:
        raise NotARepresentation("matrix identity W C = D W fails")
    return Representation(alpha.ring, ca, db)


def irreducibility_discriminant(rho):
    """tr(rho[a,b]) - 2 = x^2 + z^2 + y^2 - x z y - 4 in the three traces."""
    x = rho.trace_of(FreeWord([("a", 1)]))
    z = rho.trace_of(FreeWord([("b", 1)]))
    y = rho.trace_of(FreeWord([("a", 1), ("b", 1)]))
    return x * x + z * z + y * y - x * z * y - rho.ring.from_int(4)


def is_abs_irreducible(rho):
    """Absolute irreducibility test for a 2-generator SL2 representation."""
    if not rho.ring.is_field:
        raise NotAField(f"{rho.ring} is not a field")
    return not irreducibility_discriminant(rho).is_zero()


def _nullspace(rows, ring):
    """Basis of the nullspace of a matrix over a field (lists of elements)."""
    rows = [list(r) for r in rows]
    ncols = 4
    pivots = {}
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec = [ring.zero()] * ncols
        vec[fc] = ring.one()
        for c, rr in pivots.items():
            vec[c] = -rows[rr][fc]
        basis.append(vec)
    return basis


# words on which find_conjugator checks rho2(w) gamma = gamma rho1(w)
_CONJUGATOR_CHECK_WORDS = ("a b", "a b^-1", "a^2 b", "b a b a^-1", "a b a b^-1 a^-1")


def find_conjugator(rho1, rho2):
    """Solve rho2(g) gamma = gamma rho1(g) for g in {a, b} over a field.

    Requires matching traces on a, b, ab and a residually absolutely
    irreducible rho1; the solution is then unique up to scalar and is
    normalized so its first nonzero entry (row-major) is 1.  The returned
    matrix is unimodular only up to a square scalar.
    """
    ring = rho1.ring
    if not ring.is_field:
        raise NotAField(f"{ring} is not a field")
    for wtext in ("a", "b", "a b"):
        w = FreeWord.from_string(wtext)
        if rho1.trace_of(w) != rho2.trace_of(w):
            raise NoConjugator(f"traces differ on {wtext!r}")
    if not is_abs_irreducible(rho1):
        raise NotIrreducible("rho1 is not absolutely irreducible")

    rows = []
    for gen in ("a", "b"):
        ((p, q), (r_, s)) = rho2.images[gen].entries
        ((w_, x_), (y_, z_)) = rho1.images[gen].entries
        zero = ring.zero()
        rows.append([p - w_, -y_, q, zero])
        rows.append([-x_, p - z_, zero, q])
        rows.append([r_, zero, s - w_, -y_])
        rows.append([zero, r_, -x_, s - z_])
    basis = _nullspace(rows, ring)
    if not basis:
        raise NoConjugator("conjugation system has only the zero solution")

    candidates = list(basis)
    if len(basis) > 1:
        candidates.append([u + v for u, v in zip(basis[0], basis[1])])
    gamma = None
    for vec in candidates:
        g1, g2, g3, g4 = vec
        if not (g1 * g4 - g2 * g3).is_zero():
            gamma = vec
            break
    if gamma is None:
        raise NoConjugator("all solutions are singular")

    lead = next(v for v in gamma if not v.is_zero())
    inv = lead.inverse()
    gamma = [v * inv for v in gamma]
    mat = SL2Matrix(
        ((gamma[0], gamma[1]), (gamma[2], gamma[3])), check=False
    )
    for wtext in _CONJUGATOR_CHECK_WORDS:
        w = FreeWord.from_string(wtext)
        if rho2(w) * mat != mat * rho1(w):
            raise NoConjugator(f"verification failed on {wtext!r}")
    return mat
