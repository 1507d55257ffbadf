"""Precision-tracked truncated power series over an exact coefficient ring.

A TruncSeries holds exactly ``precision`` known coefficients; the series
is known modulo var^precision.  Precision propagates pessimistically (the
min rule) through arithmetic and drops by k under exact division by
var^k.  Two variables appear in practice: z = x - 2 and its ramified
square root s with s^2 = z.

The Newton engine lifts a simple residual root of a bivariate polynomial
F(x, u) to a series root u(x) with F(z + 2, u(z)) = 0 to full precision;
over Z/p^M the same iteration also refines the coefficients p-adically,
so a few extra fixed-point rounds follow the precision-doubling phase.

Coefficient layout.  ``TruncSeries.values`` is a tuple of the ring's
canonical raw values, the ``value`` a RingElement of that ring would hold:
ints in [0, m) over F_p and Z/p^M (m = p resp. p^M), Fractions over Q, and
length-M tuples of base values over base[h]/h^M.  Every loop in this module
works on raw values; ``coeffs`` boxes them only for callers that ask.

Products go through the ring's ``_poly_mul``, which uses Kronecker
substitution: a coefficient list c_0 .. c_(n-1) is packed into the single
integer sum c_i * 2^(w i), one big-integer product does the whole
convolution, and the slots of the result are read back.  The packing is
exact when no product coefficient overflows its w-bit slot.  Over Z/m a
product coefficient is a sum of at most n terms below m^2, so
w = 2 bits(m) + bits(n) suffices, with one reduction mod m per slot at the
end.  Over Q both lists are cleared to a common denominator first; the
slot width is the sum of the two largest numerator bit lengths plus
bits(n) plus a sign bit, slots hold signed values in two's complement, and
one division per coefficient follows.  w is rounded up to whole bytes, and
a width of at most 8 bytes on to the next array lane of 1, 2, 4 or 8
bytes: such slots are packed and read in C (``array``), wider ones with
``int.to_bytes``/``int.from_bytes`` one slot at a time.  Over base[h]/h^M each coefficient
becomes 2M - 1 base slots (M values, M - 1 zeros) so that h-degrees up to
2M - 2 stay in place, the base ring's product runs once, and the result is
folded back and truncated mod h^M.
"""

from .errors import (
    IterationLimit,
    NonSimpleRoot,
    NonUnitConstantTerm,
    NoSquareRootOfConstant,
    NotAResidualRoot,
    NotDivisible,
    RingMismatch,
    VarMismatch,
)
from .polynomials import _power_table, horner
from .rings import RingElement, lift_residue, residue_of


class TruncSeries:
    """Coefficients c_0 .. c_{N-1} of a series known modulo var^N.

    ``values`` holds the ring's canonical raw values; ``coeffs`` boxes them
    as RingElements on each access.
    """

    __slots__ = ("ring", "var", "values")

    def __init__(self, ring, var, coeffs):
        values = []
        for c in coeffs:
            if isinstance(c, RingElement):
                if c.ring != ring:
                    raise RingMismatch(f"{c.ring} coefficient in {ring} series")
                values.append(c.value)
            else:
                values.append(ring._canonical(c))
        if not values:
            raise ValueError("precision must be at least 1")
        _init(self, ring, var, tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @property
    def precision(self):
        return len(self.values)

    @property
    def coeffs(self):
        ring = self.ring
        return tuple(RingElement(ring, v) for v in self.values)

    @classmethod
    def constant(cls, ring, var, value, precision):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        return _raw(ring, var, (ring(value).value,) + (ring.zero_value,) * (precision - 1))

    @classmethod
    def from_list(cls, ring, var, values, precision):
        """Series with the given leading values, zero-padded to precision."""
        values = list(values[:precision])
        values += [ring.zero()] * (precision - len(values))
        return cls(ring, var, values)

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.var != other.var:
            raise VarMismatch(f"{self.var} vs {other.var}")

    def truncate(self, precision):
        if precision >= self.precision:
            return self
        return _raw(self.ring, self.var, self.values[:precision])

    def pad(self, precision):
        """Extend with zero coefficients (an ansatz, not knowledge)."""
        if precision <= self.precision:
            return self.truncate(precision)
        extra = (self.ring.zero_value,) * (precision - self.precision)
        return _raw(self.ring, self.var, self.values + extra)

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncSeries.constant(self.ring, self.var, other, self.precision)
        self._check(other)
        return _raw(
            self.ring, self.var, tuple(map(self.ring._add, self.values, other.values))
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.ring, self.var, tuple(map(self.ring._neg, self.values)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = TruncSeries.constant(self.ring, self.var, other, self.precision)
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, int):
            c = ring._from_number(other)
        elif isinstance(other, RingElement):
            if other.ring is not ring and other.ring != ring:
                raise RingMismatch(f"{ring} vs {other.ring}")
            c = other.value
        else:
            self._check(other)
            n = min(self.precision, other.precision)
            a = self.values[:n]
            b = a if other is self else other.values[:n]
            return _raw(ring, self.var, tuple(ring._poly_mul(a, b, n)))
        mul = ring._mul
        return _raw(ring, self.var, tuple([mul(a, c) for a in self.values]))

    __rmul__ = __mul__

    def __eq__(self, other):
        """Equality of the jointly known coefficients (same ring and var)."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.ring != other.ring or self.var != other.var:
            return False
        n = min(self.precision, other.precision)
        return self.values[:n] == other.values[:n]

    __hash__ = None

    def is_zero(self):
        zero = self.ring.zero_value
        return all(v == zero for v in self.values)

    def order(self):
        """Index of the first nonzero known coefficient, or precision."""
        zero = self.ring.zero_value
        for i, v in enumerate(self.values):
            if v != zero:
                return i
        return self.precision

    def constant_term(self):
        return RingElement(self.ring, self.values[0])

    def text(self):
        zero, fmt = self.ring.zero_value, self.ring.format_value
        parts = []
        for i, v in enumerate(self.values):
            if v == zero:
                continue
            cs = fmt(v)
            if " " in cs:
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            else:
                mono = self.var if i == 1 else f"{self.var}^{i}"
                if cs == "1":
                    term = mono
                elif cs == "-1":
                    term = f"-{mono}"
                else:
                    term = f"{cs}*{mono}"
                parts.append(term)
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"{body} + O({self.var}^{self.precision})"

    def to_json(self):
        fmt = self.ring.format_value
        return {
            "ring": self.ring.spec_string(),
            "var": self.var,
            "precision": str(self.precision),
            "coeffs": [fmt(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, obj):
        from .rings import make_ring

        ring = make_ring(obj["ring"])
        coeffs = [ring.parse_value(s) for s in obj["coeffs"]]
        return cls(ring, obj["var"], coeffs)

    def one_like(self):
        return TruncSeries.constant(self.ring, self.var, 1, self.precision)

    def zero_like(self):
        return TruncSeries.constant(self.ring, self.var, 0, self.precision)

    def inverse(self):
        return series_invert(self)

    def __repr__(self):
        return f"TruncSeries({self.text()!r})"


def _init(series, ring, var, values):
    object.__setattr__(series, "ring", ring)
    object.__setattr__(series, "var", var)
    object.__setattr__(series, "values", values)


def _raw(ring, var, values):
    """A series from a nonempty tuple of canonical raw values, unchecked."""
    series = object.__new__(TruncSeries)
    _init(series, ring, var, values)
    return series


def series_invert(f):
    """Multiplicative inverse by Newton doubling g <- g(2 - fg)."""
    c0 = f.constant_term()
    if not c0.is_unit():
        raise NonUnitConstantTerm("constant term is not a unit")
    g = TruncSeries(f.ring, f.var, [c0.inverse()])
    n = 1
    while n < f.precision:
        n = min(2 * n, f.precision)
        g = g.pad(n)
        two = TruncSeries.constant(f.ring, f.var, 2, n)
        g = g * (two - f.truncate(n) * g)
    return g


def series_sqrt(f, root_of_constant=None):
    """Square root by Newton g <- (g + f/g) / 2.

    When the constant term is 1 the unique root with constant term 1 is
    returned.  Otherwise an exact square root of the constant term must be
    supplied to select a branch.
    """
    c0 = f.constant_term()
    one = f.ring.one()
    if root_of_constant is None:
        if c0 != one:
            raise NoSquareRootOfConstant(
                "constant term is not 1 and no root was supplied"
            )
        r0 = one
    else:
        r0 = root_of_constant
        if r0.ring != f.ring:
            raise RingMismatch(f"{r0.ring} root for {f.ring} series")
        if r0 * r0 != c0:
            raise NoSquareRootOfConstant("supplied value squared is not c0")
        if not r0.is_unit():
            raise NonUnitConstantTerm("square root of constant is not a unit")
    half = f.ring.from_int(2).inverse()
    g = TruncSeries(f.ring, f.var, [r0])
    n = 1
    while n < f.precision:
        n = min(2 * n, f.precision)
        g = g.pad(n)
        g = (g + f.truncate(n) * series_invert(g)) * half
    return g


def divide_by_var_power(f, k):
    """Exact division by var^k; costs k coefficients of precision."""
    if k == 0:
        return f
    if k < 0 or k >= f.precision:
        raise NotDivisible(f"cannot divide a precision-{f.precision} series by var^{k}")
    zero = f.ring.zero_value
    if any(v != zero for v in f.values[:k]):
        raise NotDivisible("a low-order coefficient is nonzero")
    return _raw(f.ring, f.var, f.values[k:])


def shift_up(f, k):
    """Multiply by var^k; gains k coefficients of precision."""
    if k < 0:
        return divide_by_var_power(f, -k)
    return _raw(f.ring, f.var, (f.ring.zero_value,) * k + f.values)


def to_ramified(f):
    """Reinterpret a series in z as one in s with s^2 = z.

    Knowing f mod z^N is knowing it mod s^(2N), so the precision doubles.
    """
    if f.var != "z":
        raise VarMismatch(f"expected a z-series, got {f.var}")
    zero = f.ring.zero_value
    return _raw(f.ring, "s", tuple(c for v in f.values for c in (v, zero)))


def eval_bipoly(F, assignment):
    """Evaluate an integer BiPoly at series arguments.

    Horner in the second variable over a power table of the first (see
    ``polynomials.horner``): at most deg_1 + deg_2 series products.
    """
    names = F.varnames
    s1 = assignment[names[0]]
    s2 = assignment[names[1]]
    s1._check(s2)
    n = min(s1.precision, s2.precision)
    s1, s2 = s1.truncate(n), s2.truncate(n)
    powers = _power_table(s1, max(F.degree(0), 0))
    return horner(
        F.terms,
        lambda k: powers[k[0]],
        s2,
        TruncSeries.constant(s1.ring, s1.var, 0, n),
    )


def x_series(ring, N):
    """The coordinate x = z + 2 as a series in z."""
    return TruncSeries.from_list(ring, "z", [2, 1], N)


def newton_root(F, u0, ring, N):
    """Hensel-lift a simple residual root of F(x, u) at x = 2 to precision N.

    u0 lives in the residue field (or in the ring itself); it is lifted by
    the Teichmueller section for Z/p^M, by constant inclusion for h-adic
    rings, and identically over a field.  The result u satisfies
    F(z + 2, u) = 0 modulo (z^N, ring truncation) and is the unique such
    series with the given residual constant term.
    """
    u0_res = residue_of(ring, u0)
    k = u0_res.ring
    Fu = F.derivative(1)
    two = k.from_int(2)
    if not F.evaluate({F.varnames[0]: two, F.varnames[1]: u0_res}).is_zero():
        raise NotAResidualRoot(f"F(2, {u0_res}) != 0 in {k}")
    if Fu.evaluate({F.varnames[0]: two, F.varnames[1]: u0_res}).is_zero():
        raise NonSimpleRoot(f"dF/du vanishes at (2, {u0_res}) in {k}")

    u = TruncSeries(ring, "z", [lift_residue(ring, u0_res)])
    trunc_M = getattr(ring, "M", 1)
    cap = max(1, (N - 1).bit_length()) + trunc_M + 2
    name_x, name_u = F.varnames
    for _ in range(cap):
        n = min(2 * u.precision, N)
        u_try = u.pad(n)
        x = x_series(ring, n)
        val = eval_bipoly(F, {name_x: x, name_u: u_try})
        if val.is_zero():
            if n == N:
                return u_try
            u = u_try
            continue
        der = eval_bipoly(Fu, {name_x: x, name_u: u_try})
        u_new = u_try - val * series_invert(der)
        if n == N and u_new.values == u_try.values:
            return u_new
        u = u_new
    raise IterationLimit("Newton iteration did not stabilize")
