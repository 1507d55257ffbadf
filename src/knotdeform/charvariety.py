"""Character varieties of 2-bridge knot groups and Fricke trace reduction.

The character variety of <a, b | wa = bw> is the plane curve

    (y - x^2 + 2) * Phi(x, y - x^2 + 2) = 0

in the trace coordinates x = tr(a), y = tr(ab); the first factor carries
the reducible characters, the second the irreducible ones.

trace_reduce rewrites tr of any word in a, b as an integer polynomial in
x = tr(a), z = tr(b), y = tr(ab), valid for every determinant-1 pair over
every commutative ring.  The engine applies the Cayley-Hamilton trace
identity tr(UV) = tr(U) tr(V) - tr(U^-1 V) together with tr(U) = tr(U^-1)
and cyclic invariance, on a measure (letter count, inverse-letter count)
that strictly decreases, with memoization on the cyclic/inverse canonical
form of the word.

TracePolynomial.evaluate at elements of ``fp:p``, ``padic:p:M`` or
``rational`` runs evaluate_int on their raw values (``_kernels.eval_poly3``,
homogenized over Q); at other values it runs Horner's rule.
"""

from dataclasses import dataclass

from . import _kernels
from .polynomials import BiPoly, _power_table, _SparseBase, horner
from .riley import riley_data
from .rings import scalar_values
from .words import FreeWord, TwoBridgeKnot


@dataclass(frozen=True)
class CurveModel:
    knot: TwoBridgeKnot
    reducible_factor: BiPoly  # y - x^2 + 2
    irreducible_factor: BiPoly  # Phi(x, y - x^2 + 2)
    product: BiPoly


def curve_model(knot):
    from .polynomials import substitute_u

    data = riley_data(knot)
    xy = ("x", "y")
    reducible = BiPoly({(0, 1): 1, (2, 0): -1, (0, 0): 2}, xy)
    irreducible = substitute_u(data.Phi)
    return CurveModel(knot, reducible, irreducible, reducible * irreducible)


def character_point(alpha, beta):
    """(tr C(alpha), tr C(alpha) D(alpha, beta)) = (a + 1/a, a^2 + 1/a^2 + b)."""
    ainv = alpha.inverse()
    return (alpha + ainv, alpha * alpha + ainv * ainv + beta)


def contains_point(model, point, which="any"):
    x, y = point
    assignment = {"x": x, "y": y}
    if which == "reducible":
        return model.reducible_factor.evaluate(assignment).is_zero()
    if which == "irreducible":
        return model.irreducible_factor.evaluate(assignment).is_zero()
    if which == "any":
        return model.product.evaluate(assignment).is_zero()
    raise ValueError(f"unknown factor selector {which!r}")


class TracePolynomial(_SparseBase):
    """Integer polynomial in (x, z, y) = (tr a, tr b, tr ab)."""

    __slots__ = ()
    varnames = ("x", "z", "y")
    _mul_kernel = staticmethod(_kernels.poly_mul_3)
    _unit_key = (0, 0, 0)

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, name):
        i = cls.varnames.index(name)
        key = tuple(1 if j == i else 0 for j in range(3))
        return cls({key: 1})

    def max_degrees(self):
        dx = max((k[0] for k in self.terms), default=0)
        dz = max((k[1] for k in self.terms), default=0)
        dy = max((k[2] for k in self.terms), default=0)
        return dx, dz, dy

    def evaluate_int(self, x, z, y, mod=0):
        """Exact evaluation at raw trace values: ints reduced mod ``mod``,
        or, with mod = 0, ints or Fractions (homogenized, see
        ``_kernels.eval_poly3``)."""
        dx, dz, dy = self.max_degrees()
        powx = _int_powers(x, dx, mod)
        powz = _int_powers(z, dz, mod)
        powy = _int_powers(y, dy, mod)
        return _kernels.eval_poly3(
            tuple(self.terms.items()), powx, powz, powy, mod
        )

    def evaluate(self, x, z, y):
        """Evaluation at ring elements.

        Over ``fp:p``, ``padic:p:M`` and ``rational`` this is evaluate_int
        on the raw values; other values run Horner's rule in y.
        """
        raw = scalar_values((x, z, y))
        if raw is not None:
            ring, values = raw
            return ring(self.evaluate_int(*values, ring.scalar_mod))
        dx, dz, _ = self.max_degrees()
        px = _power_table(x, dx)
        pz = _power_table(z, dz)
        return horner(
            self.terms, lambda k: px[k[0]] * pz[k[1]], y, x.ring.zero()
        )

    def specialize_z_to_x(self):
        """Set z = x (meridian generators are conjugate for knot groups)."""
        out = {}
        for (i, j, k), c in self.terms.items():
            key = (i + j, 0, k)
            out[key] = out.get(key, 0) + c
        return TracePolynomial(out)

    def to_json(self):
        return {
            "vars": list(self.varnames),
            "terms": [
                [str(i), str(j), str(k), str(c)]
                for (i, j, k), c in self.sorted_terms()
            ],
        }


def _int_powers(v, n, mod):
    out = [1]
    for _ in range(n):
        out.append(out[-1] * v % mod if mod else out[-1] * v)
    return tuple(out)


# --- the reduction engine ---

# letter codes: a=0, b=1, a^-1=2, b^-1=3; inverse is code^2 in the 4-group
_INV = (2, 3, 0, 1)
_TWO = TracePolynomial.constant(2)
_X = TracePolynomial.variable("x")
_Z = TracePolynomial.variable("z")
_Y = TracePolynomial.variable("y")


def _codes(word):
    out = []
    for gen, step in word.single_letters():
        base = 0 if gen == "a" else 1
        out.append(base if step > 0 else base + 2)
    return tuple(out)


def _canonical(codes):
    """Minimum over cyclic rotations of the word and of its inverse."""
    if not codes:
        return codes
    inv = tuple(_INV[c] for c in reversed(codes))
    n = len(codes)
    best = None
    for seq in (codes, inv):
        for i in range(n):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best


def _cyclic_reduce(codes):
    while len(codes) >= 2 and codes[0] == _INV[codes[-1]]:
        codes = codes[1:-1]
    return codes


class TraceReducer:
    """Memoized reducer; one instance shares work across many words."""

    def __init__(self):
        self._memo = {}

    def reduce(self, word):
        if isinstance(word, str):
            word = FreeWord.from_string(word)
        return self._reduce(_codes(word))

    def _reduce(self, codes):
        codes = _cyclic_reduce(codes)
        if not codes:
            return _TWO
        key = _canonical(codes)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        result = self._compute(key)
        self._memo[key] = result
        return result

    def _compute(self, s):
        n = len(s)
        if n == 1:
            return _X if s[0] in (0, 2) else _Z
        # power of a single generator: tr(g^k) = tr(g) tr(g^(k-1)) - tr(g^(k-2))
        if all(c == s[0] for c in s):
            g = (s[0],)
            return self._reduce(g) * self._reduce(g * (n - 1)) - self._reduce(
                g * (n - 2)
            )
        # cyclic double letter: rotate it to the front and split off one copy
        for i in range(n):
            if s[i] == s[(i + 1) % n]:
                rot = s[i:] + s[:i]
                return self._reduce(rot[:1]) * self._reduce(rot[1:]) - self._reduce(
                    rot[2:]
                )
        # an inverse letter: rotate it to the front, flip it
        for i in range(n):
            if s[i] >= 2:
                rot = s[i:] + s[:i]
                c = (_INV[rot[0]],)
                rest = rot[1:]
                return self._reduce(c) * self._reduce(rest) - self._reduce(c + rest)
        # positive, no cyclic doubles: an alternating power of ab
        rot = s if s[0] == 0 else s[1:] + s[:1]
        k = n // 2
        if k == 1:
            return _Y
        ab = rot[:2]
        return self._reduce(ab) * self._reduce(ab * (k - 1)) - self._reduce(
            ab * (k - 2)
        )


def trace_reduce(word):
    """Trace polynomial of a word; fresh memo per call (see TraceReducer)."""
    return TraceReducer().reduce(word)


def all_reduced_words(max_letters, include_empty=True):
    """Every freely reduced word in a, b of total letter count <= bound."""
    words = [()] if include_empty else []
    frontier = [()]
    for _ in range(max_letters):
        nxt = []
        for w in frontier:
            for c in range(4):
                if w and c == _INV[w[-1]]:
                    continue
                nxt.append(w + (c,))
        words.extend(nxt)
        frontier = nxt
    out = []
    for codes in words:
        letters = [("a" if c in (0, 2) else "b", 1 if c < 2 else -1) for c in codes]
        out.append(FreeWord(letters))
    return out
