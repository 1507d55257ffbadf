"""Sparse exact polynomial arithmetic over Z.

Three shapes cover everything the Riley pipeline needs:

* ``LaurentBiPoly`` -- Z[t^+-, u]: entries of the symbolic word matrix W
  and the trace polynomial phi(t, u);
* ``BiPoly``        -- Z[x, u] or Z[x, y]: the Riley polynomial Phi(x, u)
  and the character-variety factors;
* ``UniPoly``       -- Z[u]: the residual polynomial Phi(2, u).

``symmetric_reduce`` rewrites a t -> 1/t symmetric Laurent polynomial in
the trace coordinate x = t + 1/t using the basis p_0 = 2, p_1 = x,
p_{n+1} = x p_n - p_{n-1} for t^n + t^-n.  ``discriminant`` is exact, via
the subresultant polynomial remainder sequence.

All coefficients are Python ints.  Every sparse evaluation --
``BiPoly.evaluate``, ``LaurentBiPoly.evaluate``,
``TracePolynomial.evaluate``, ``series.eval_bipoly`` -- and the
substitution ``expand_in_t`` go through the one routine ``horner``:
Horner's rule in the last variable, each row an integer combination of
values of the other variables.

The two changes of variable that the Riley pipeline applies to Phi run on
signed Kronecker ints (``rings._pack_signed``, ``rings._signed_slots``):
a whole row of coefficients moves as one bigint, in place of one dict
update per term.

* ``symmetric_reduce`` packs each column t^e (e >= 0) over u; x^i's row
  is the sum of p_e[i] times column e.  Slots are bits(max|c| *
  sum_e ||p_e||_1) wide, plus a sign bit.
* ``substitute_u`` splits Phi by the parity eps of the x-exponent, so
  that u = y - X + 2 is linear in X = x^2, and runs Horner's rule in u on
  one int over (X, y) per class.  Every intermediate is a sum of
  c (y - X + 2)^j with ||(y - X + 2)^j||_1 = 4^j, so slots are
  bits(sum |c| 4^j) wide, plus a sign bit.
"""

from . import _kernels
from .errors import (
    ConstantPolynomial,
    NonUnitLaurentBase,
    NotSymmetrizable,
    VarnameMismatch,
)
from .rings import _lane, _pack_signed, _signed_slots


def _clean(terms):
    return {k: c for k, c in terms.items() if c}


def _format_terms(ordered, varnames):
    """Render sorted (exponents, coeff) pairs as canonical text."""
    if not ordered:
        return "0"
    parts = []
    for exps, c in ordered:
        factors = []
        for name, e in zip(varnames, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _graded_lex(terms):
    return sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


class _SparseBase:
    """Shared dict-backed arithmetic; subclasses fix arity and validation.

    Public constructors drop zero coefficients; ``_make`` takes terms that
    are already zero-free (kernel output, sums, negation, nonzero scaling).
    """

    __slots__ = ("terms",)
    _mul_kernel = staticmethod(_kernels.poly_mul_2)
    _unit_key = (0, 0)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", _clean(terms or {}))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def _make(self, terms):
        p = object.__new__(type(self))
        object.__setattr__(p, "terms", terms)
        return p

    def _compatible(self, other):
        if type(other) is not type(self):
            raise VarnameMismatch(f"{type(self).__name__} vs {type(other).__name__}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self._make({} if other == 0 else {self._unit_key: other})
        self._compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self._make({})
            return self._make({k: c * other for k, c in self.terms.items()})
        self._compatible(other)
        return self._make(self._mul_kernel(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return _kernels.power(self, n, self.one_like())

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {self._unit_key: other})
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def one_like(self):
        return self._make({self._unit_key: 1})

    def zero_like(self):
        return self._make({})

    def sorted_terms(self):
        return _graded_lex(self.terms)

    def text(self):
        return _format_terms(self.sorted_terms(), self.varnames)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"


class LaurentBiPoly(_SparseBase):
    """Element of Z[t^+-, u]: keys (e_t, e_u) with e_u >= 0."""

    __slots__ = ()
    varnames = ("t", "u")

    def __init__(self, terms=None):
        super().__init__(terms)
        for _, eu in self.terms:
            if eu < 0:
                raise ValueError("u-exponents must be nonnegative")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def t_power(cls, k):
        return cls({(k, 0): 1})

    @classmethod
    def var_u(cls):
        return cls({(0, 1): 1})

    def u_slices(self):
        """Map u-degree -> {t-exponent: coeff}."""
        slices = {}
        for (et, eu), c in self.terms.items():
            slices.setdefault(eu, {})[et] = c
        return slices

    def evaluate(self, t, u):
        """Exact evaluation at ring elements; t must be a unit."""
        if not t.is_unit():
            raise NonUnitLaurentBase("t-value is not invertible")
        lo = min((et for et, _ in self.terms), default=0)
        hi = max((et for et, _ in self.terms), default=0)
        tp = _power_table(t, max(hi, 0))
        tn = _power_table(t.inverse(), max(-lo, 0))
        return horner(
            self.terms,
            lambda k: tp[k[0]] if k[0] >= 0 else tn[-k[0]],
            u,
            t.ring.zero(),
        )


class BiPoly(_SparseBase):
    """Element of Z[v1, v2] with nonnegative exponents."""

    __slots__ = ("varnames",)

    def __init__(self, terms=None, varnames=("x", "u")):
        super().__init__(terms)
        object.__setattr__(self, "varnames", tuple(varnames))
        for key in self.terms:
            if key[0] < 0 or key[1] < 0:
                raise ValueError("exponents must be nonnegative")

    def _make(self, terms):
        p = super()._make(terms)
        object.__setattr__(p, "varnames", self.varnames)
        return p

    def _compatible(self, other):
        super()._compatible(other)
        if other.varnames != self.varnames:
            raise VarnameMismatch(f"{self.varnames} vs {other.varnames}")

    def __eq__(self, other):
        if isinstance(other, BiPoly) and other.varnames != self.varnames:
            return False
        return super().__eq__(other)

    __hash__ = _SparseBase.__hash__

    @classmethod
    def zero(cls, varnames=("x", "u")):
        return cls({}, varnames)

    @classmethod
    def one(cls, varnames=("x", "u")):
        return cls({(0, 0): 1}, varnames)

    @classmethod
    def variable(cls, index, varnames=("x", "u")):
        key = (1, 0) if index == 0 else (0, 1)
        return cls({key: 1}, varnames)

    def degree(self, index):
        return max((k[index] for k in self.terms), default=-1)

    def derivative(self, index):
        out = {}
        for key, c in self.terms.items():
            e = key[index]
            if e == 0:
                continue
            nk = (key[0] - 1, key[1]) if index == 0 else (key[0], key[1] - 1)
            out[nk] = c * e
        return self._make(out)

    def eval_first(self, value):
        """Substitute an integer for the first variable; result is univariate."""
        du = self.degree(1)
        coeffs = [0] * (du + 1)
        for (e1, e2), c in self.terms.items():
            coeffs[e2] += c * value**e1
        return UniPoly(coeffs, self.varnames[1])

    def evaluate(self, assignment):
        """Exact evaluation; assignment maps both varnames to ring elements."""
        v1 = assignment[self.varnames[0]]
        v2 = assignment[self.varnames[1]]
        p1 = _power_table(v1, max(self.degree(0), 0))
        return horner(self.terms, lambda k: p1[k[0]], v2, v1.ring.zero())

    def to_json(self):
        return {
            "vars": list(self.varnames),
            "terms": [
                [str(e1), str(e2), str(c)] for (e1, e2), c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj):
        terms = {(int(e1), int(e2)): int(c) for e1, e2, c in obj["terms"]}
        return cls(terms, tuple(obj["vars"]))


class UniPoly:
    """Dense integer polynomial in one variable, no trailing zeros."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var="u"):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ConstantPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and other.coeffs == self.coeffs
            and other.var == self.var
        )

    def __hash__(self):
        return hash((self.coeffs, self.var))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UniPoly(a, self.var)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly([c * other for c in self.coeffs], self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def derivative(self):
        return UniPoly(
            [i * c for i, c in enumerate(self.coeffs)][1:] or [], self.var
        )

    def evaluate(self, value):
        """Horner evaluation at a ring element (or plain int)."""
        if isinstance(value, int):
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * value + c
            return acc
        ring = value.ring
        acc = ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * value + ring.from_int(c)
        return acc

    def text(self):
        ordered = [((i,), c) for i, c in sorted(
            enumerate(self.coeffs), reverse=True) if c]
        return _format_terms(ordered, (self.var,))

    def __repr__(self):
        return f"UniPoly({self.text()!r})"


def _power_table(x, n):
    """[1, x, x^2, ..., x^n] for n >= 0; x needs ``*`` and ``one_like``."""
    powers = [x.one_like(), x]
    for _ in range(n - 1):
        powers.append(powers[-1] * x)
    return powers[:n + 1]


def horner(terms, head, last, zero):
    """Sum of c * head(e_1 .. e_(k-1)) * last^(e_k) over {(e_1 .. e_k): c}.

    Horner's rule in the last variable: row e is the integer combination
    of ``head`` values over the terms with e_k = e, and the rows fold as
    acc = acc * last + row, from the top row down.  The operands need only
    ``+``, ``*`` and ``* int``, so ring elements, series and sparse
    polynomials all work; an empty ``terms`` gives ``zero``.
    """
    rows = {}
    for key, c in terms.items():
        term = head(key[:-1])
        if c != 1:
            term = term * c
        e = key[-1]
        rows[e] = term if e not in rows else rows[e] + term
    if not rows:
        return zero
    top = max(rows)
    acc = rows[top]
    for e in range(top - 1, -1, -1):
        acc = acc * last
        if e in rows:
            acc = acc + rows[e]
    return acc


# --- symmetric reduction t + 1/t -> x ---

def _chebyshev_basis(top):
    """[p_0, ..., p_top] as coefficient lists, low degree first:
    p_0 = 2, p_1 = x, p_(n+1) = x p_n - p_(n-1)."""
    basis = [[2], [0, 1]]
    for _ in range(top - 1):
        p, q = basis[-1], basis[-2]
        basis.append([a - b for a, b in zip([0] + p, q + [0, 0])])
    return basis[:top + 1]


def symmetric_reduce(f):
    """Rewrite f in Z[t^+-, u] as Phi(x, u) with Phi(t + 1/t, u) = t^l f.

    The shift l is forced by the exponent support (each u-slice must become
    symmetric around 0 under the same shift); NotSymmetrizable means no
    integer shift works.

    Column t^e (e >= 0) of the shifted f is one signed Kronecker int over
    u, and x^i's row is the sum of p_e[i] * column e (column 0 counted
    once).  A slot is at most max|c| * sum_e ||p_e||_1 in magnitude, plus
    one bit for the sign.
    """
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
    top = max(max(sl) for sl in slices.values()) + l
    du = max(slices)
    columns = [[0] * (du + 1) for _ in range(top + 1)]
    for eu, sl in slices.items():
        shifted = {e + l: c for e, c in sl.items()}
        for e, c in shifted.items():
            if shifted.get(-e) != c:
                raise NotSymmetrizable("coefficients are not palindromic")
            if e >= 0:
                columns[e][eu] = c
    basis = _chebyshev_basis(top)
    bound = max(map(abs, f.terms.values())) * sum(
        sum(map(abs, p)) for p in basis
    )
    width = _lane((bound.bit_length() + 8) // 8)
    rows = [0] * (top + 1)
    rows[0] = _pack_signed(columns[0], width)
    for e in range(1, top + 1):
        column = _pack_signed(columns[e], width)
        for i, pc in enumerate(basis[e]):
            if pc:
                rows[i] += pc * column
    out = {
        (i, eu): c
        for i, row in enumerate(rows)
        for eu, c in enumerate(_signed_slots(row, width, du + 1))
        if c
    }
    return BiPoly(out, ("x", "u")), l


def expand_in_t(phi_xu, l):
    """Inverse of symmetric_reduce for round-trip checks: t^-l Phi(t+1/t, u)."""
    tp1t = LaurentBiPoly({(1, 0): 1, (-1, 0): 1})
    powers = _power_table(tp1t, max(phi_xu.degree(0), 0))
    acc = horner(
        phi_xu.terms,
        lambda k: powers[k[0]],
        LaurentBiPoly.var_u(),
        LaurentBiPoly.zero(),
    )
    return acc * LaurentBiPoly.t_power(-l)


def substitute_u(f):
    """Substitute u = y - x^2 + 2 into Phi(x, u), landing in Z[x, y].

    The terms split by the parity eps of their x-exponent.  With X = x^2,
    u is linear in X, and each class runs Horner's rule in u on one signed
    Kronecker int over (X, y): S = deg_X + deg_u + 1 slots per power of y,
    so u * acc = (acc << S w) - (acc << w) + (acc << 1) for w-bit slots.
    Slot s holds x^(2 (s mod S) + eps) y^(s div S).  The result is a sum
    of c (y - X + 2)^e, and ||(y - X + 2)^e||_1 = 4^e, so a slot is at most
    sum |c| 4^e in magnitude, plus one bit for the sign.
    """
    if f.varnames != ("x", "u"):
        raise VarnameMismatch(f"expected (x, u), got {f.varnames}")
    out = {}
    for eps in (0, 1):
        part = {(d >> 1, e): c for (d, e), c in f.terms.items() if d & 1 == eps}
        if not part:
            continue
        dX = max(i for i, _ in part)
        du = max(e for _, e in part)
        S = dX + du + 1
        bound = sum(abs(c) << 2 * e for (_, e), c in part.items())
        width = _lane((bound.bit_length() + 8) // 8)
        w = 8 * width
        rows = [[0] * (dX + 1) for _ in range(du + 1)]
        for (i, e), c in part.items():
            rows[e][i] = c
        acc = 0
        for row in reversed(rows):
            acc = (acc << S * w) - (acc << w) + (acc << 1) + _pack_signed(row, width)
        for s, c in enumerate(_signed_slots(acc, width)):
            if c:
                out[2 * (s % S) + eps, s // S] = c
    return BiPoly(out, ("x", "y"))


# --- resultants and discriminants over Z ---

def _prem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced mod b.

    Coefficient lists, low degree first.  Each elimination step multiplies
    by lc(b) once; the final scaling accounts for degree drops of more
    than one so the total power is always deg a - deg b + 1.
    """
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - len(b) + 1
    while a and len(a) - 1 >= db:
        da = len(a) - 1
        lead = a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= lead * bc
        a.pop()
        while a and a[-1] == 0:
            a.pop()
        e -= 1
    if e > 0 and a:
        m = lb**e
        a = [c * m for c in a]
    return a


def resultant(f, g):
    """Res(f, g) over Z by the subresultant PRS (exact, no fractions)."""
    a = list(f.coeffs)
    b = list(g.coeffs)
    if not a or not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    sign = 1
    if da < db:
        if (da * db) % 2 == 1:
            sign = -sign
        a, b = b, a
        da, db = db, da
    if db == 0:
        return sign * b[0] ** da
    g_, h = 1, 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        denom = g_ * h**delta
        a = b
        b = [c // denom for c in r]
        g_ = a[-1]
        if delta > 0:
            h = g_**delta // h ** (delta - 1)
        if len(b) == 1:
            break
    da = len(a) - 1
    return sign * (b[0] ** da // h ** (da - 1))


def discriminant(f):
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f), exactly over Z."""
    d = f.degree()
    if d < 1:
        raise ConstantPolynomial("discriminant needs degree >= 1")
    res = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, r = divmod(sign * res, f.leading())
    if r != 0:
        raise ArithmeticError("leading coefficient does not divide the resultant")
    return q

