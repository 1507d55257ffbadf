"""Exact coefficient rings.

Four kinds of ring are supported, all with decidable equality through
canonical representations:

* ``Rationals()``            -- arbitrary-precision fractions,
* ``PrimeField(p)``          -- F_p for an odd prime p,
* ``PadicTruncRing(p, M)``   -- Z/p^M, the finite-precision model of Z_p,
* ``HbarTruncRing(base, M)`` -- base[h]/h^M, the equal-characteristic model
                                of base[[h]].

F_p is Z/p^1: ``PrimeField`` and ``PadicTruncRing`` share one modular
class, ``_IntegersMod``, for all their arithmetic, enumeration, format and
parse; ``PadicTruncRing`` adds only its local-ring maps.  Every ring sets
``spec``, its spec string (``fp:7``, ``padic:7:4``, ...), once, and the spec
is its identity: equality, hash, ``repr`` and ``spec_string`` are stated
once, on ``Ring``, from it.  ``Ring`` also states once how an element of
the ring is unboxed and that ``parse_value`` raises ``MalformedValue`` on
text that states no element.

The two truncated kinds are local; ``residue`` reduces modulo the maximal
ideal (p resp. h) and ``teichmuller_lift`` provides the multiplicative
section F_p -> Z/p^M.  Their residue fields are F_p resp. the base field
for every M, M = 1 included, where the ring is itself a field: the
``residue_field`` method states that rule, and ``residue_field``,
``to_residue``, ``residue_of`` and ``lift_residue`` follow it.
Rationals() is treated as a degenerate local ring with maximal ideal (0)
so that characteristic-zero examples can flow through the same
deformation code paths.

The raw values of ``fp:p``, ``padic:p:M`` and ``rational`` are plain
numbers: ints reduced mod ``scalar_mod`` (p or p^M), or Fractions when
``scalar_mod`` is 0.  Hot loops (word products, trace evaluation, axiom
residuals) take ``scalar_values`` of such elements and run on the raw
numbers, boxing only their results.  ``hbar`` values are coefficient
tuples, with ``scalar_mod`` None; word products and trace evaluation run
them on the generic RingElement arithmetic, as they do series and other
entry types, while the axiom residuals pack each value's coefficients into
one Kronecker int (``pseudorep._int_image``).

Kronecker substitution (``_kronecker_mod``, ``_kronecker_signed``) packs a
list of ints into the slots of one big int.  A slot of at most 8 bytes is
rounded up to an array lane of 1, 2, 4 or 8 bytes, and ``_pack``,
``_slots`` and ``_signed_slots`` write and read such slots in C through
``array``, in little-endian order on every host; a wider slot goes through
``int.to_bytes`` one slot at a time.

p = 2 is rejected everywhere: 2 must be invertible for the trace identity
machinery and the square roots used by the deformation matrices.
"""

import sys
from array import array
from fractions import Fraction

from ._kernels import over_common_denominator, power
from .errors import (
    CharacteristicTwo,
    InfiniteRing,
    InvalidModulus,
    IterationLimit,
    MalformedValue,
    NotLocalRing,
    NotPrime,
    PrimeTooLarge,
    RingMismatch,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# No composite below this is a strong pseudoprime to all of _SMALL_PRIMES
# (Sorenson and Webster 2015).
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin with the thirteen prime bases 2 .. 41.

    The answer is proved for every n < 3317044064679887385961981 (about
    3.3 * 10^24).  At or above that bound a False is still proved (a base
    witnesses that n is composite), but n passing every base proves
    nothing, so PrimeTooLarge is raised rather than a guess.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PRIME_BOUND:
        raise PrimeTooLarge(f"primality of {n} is decided only below {_PRIME_BOUND}")
    return True


# Kronecker slots of 1, 2, 4 or 8 bytes are read and written as the lanes of
# an array, in C; wider slots go byte string by byte string.  The type
# codes are picked by item size: {size: (unsigned code, signed code)}.
_LANES = {array(u).itemsize: (u, s) for u, s in zip("BHILQ", "bhilq")}
# a slot width of 1 .. 8 bytes rounded up to the next lane
_LANE_UP = {w: min(size for size in _LANES if size >= w) for w in range(1, 9)}


def _lane(width):
    """The slot width in bytes that packing uses for width bytes: the next
    array lane up to 8 bytes, width itself beyond."""
    return _LANE_UP.get(width, width)


def _little(arr):
    """arr with little-endian items: byteswapped in place on a big-endian
    host.  The swap is its own inverse, so this serves pack and unpack."""
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _pack(values, width):
    """Kronecker packing: sum of values[i] * 256^(width * i), values >= 0."""
    lane = _LANES.get(width)
    if lane:
        return int.from_bytes(_little(array(lane[0], values)), "little")
    return int.from_bytes(
        b"".join([v.to_bytes(width, "little") for v in values]), "little"
    )


def _read(packed, width, n, code):
    """The first n width-byte slots of a packed int >= 0, read as array
    items of the type code, or as unsigned byte strings if code is None."""
    size = max(n * width, (packed.bit_length() + 7) // 8)
    buf = packed.to_bytes(size, "little")
    if code is None:
        return [int.from_bytes(buf[i:i + width], "little") for i in range(0, n * width, width)]
    arr = array(code)
    arr.frombytes(memoryview(buf)[:n * width])
    return _little(arr).tolist()


def _slots(packed, width, n):
    """The first n width-byte slots of a packed product, as ints."""
    lane = _LANES.get(width)
    return _read(packed, width, n, lane and lane[0])


def _sign_bits(width, n):
    """The top bit of each of n width-byte slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _signed_slots(packed, width, n=None):
    """The first n (default: all) slots of a packed int of signed slots.

    Each slot holds a value below half its range in magnitude.  Adding that
    half to every slot makes each one nonnegative, with no borrows; in an
    array lane, flipping the top bits back leaves each slot in two's
    complement, which the signed type code reads.
    """
    count = packed.bit_length() // (8 * width) + 1
    n = count if n is None else n
    bias = _sign_bits(width, max(n, count))
    lane = _LANES.get(width)
    if lane:
        return _read((packed + bias) ^ bias, width, n, lane[1])
    half = 1 << (8 * width - 1)
    return [c - half for c in _read(packed + bias, width, n, None)]


def _pack_signed(values, width):
    """sum of values[i] * 256^(width * i) for |values[i]| below half a slot.

    Each slot is written in two's complement and read back unsigned, so a
    negative slot stands 256^width too high; its top bit is set, and one
    subtraction of those top bits, doubled, takes the excess off them all.
    """
    lane = _LANES.get(width)
    if lane:
        u = int.from_bytes(_little(array(lane[1], values)), "little")
    else:
        u = int.from_bytes(
            b"".join([v.to_bytes(width, "little", signed=True) for v in values]),
            "little",
        )
    return u - ((u & _sign_bits(width, len(values))) << 1)


def _kronecker_mod(a, b, n, m):
    """First n coefficients of the product of two lists of residues mod m.

    A product coefficient is a sum of at most min(len(a), len(b)) terms
    below m^2, so slots of 2 bits(m) + bits(min length) bits never carry
    into each other.
    """
    width = _lane((2 * m.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8)
    pa = _pack(a, width)
    pb = pa if b is a else _pack(b, width)
    return [c % m for c in _slots(pa * pb, width, n)]


def _kronecker_signed(a, b, n):
    """First n coefficients of the product of two lists of integers.

    Slots hold signed values; one slot bit beyond the magnitude bound holds
    the sign.
    """
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = _lane((bits + 7) // 8)
    pa = _pack_signed(a, width)
    pb = pa if b is a else _pack_signed(b, width)
    return _signed_slots(pa * pb, width, n)


class RingElement:
    """A value tagged with its ring; arithmetic stays inside that ring."""

    __slots__ = ("ring", "value")

    def __init__(self, ring, value):
        self.ring = ring
        self.value = value

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.value, other.value))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self.inverse() if k < 0 else self
        return power(base, abs(k), self.ring.one())

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def inverse(self):
        return RingElement(self.ring, self.ring._inv(self.value))

    def is_unit(self):
        return self.ring._is_unit(self.value)

    def is_zero(self):
        return self.value == self.ring.zero_value

    def residue(self):
        """Image in the residue field; only local rings have one."""
        return self.ring.residue(self)

    def one_like(self):
        return self.ring.one()

    def zero_like(self):
        return self.ring.zero()

    def __repr__(self):
        return f"<{self.ring.format_value(self.value)} in {self.ring}>"

    def __str__(self):
        return self.ring.format_value(self.value)


class Ring:
    """Common interface.

    A subclass sets ``spec``, its spec string, and ``zero_value``, the raw
    zero, once per ring; it defines the raw ops, ``_from_number`` (the
    canonical value of a number) and ``_parse`` (the raw value that a
    ``format_value`` text states).  ``spec`` is the ring's identity: two
    rings of one class are equal when their specs are.
    """

    char = None
    is_field = False
    is_domain = False
    is_finite = False
    order = None  # element count of a finite ring
    # modulus of a ring whose raw values are plain numbers (0 over Q);
    # None when they are not
    scalar_mod = None

    def __call__(self, value):
        return RingElement(self, self._canonical(value))

    def _canonical(self, value):
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatch(f"{value.ring} vs {self}")
            return value.value
        return self._from_number(value)

    def from_int(self, n):
        return RingElement(self, self._from_number(n))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def elements(self):
        """Every element, in the order that element_at indexes."""
        if not self.is_finite:
            raise InfiniteRing(f"{self} is not finite")
        return (self.element_at(i) for i in range(self.order))

    def residue_field(self):
        """Q and F_p are their own residue fields; a local ring overrides
        this with its quotient by the maximal ideal."""
        if self.is_field:
            return self
        raise NotLocalRing(f"{self} has no residue field")

    def residue(self, a):
        raise NotLocalRing(f"{self} has no residue map")

    def format_value(self, v):
        return str(v)

    def parse_value(self, text):
        """Read format_value's text; text that states no element raises
        MalformedValue."""
        try:
            return RingElement(self, self._parse(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedValue(str(exc)) from None

    def spec_string(self):
        return self.spec

    def __repr__(self):
        return self.spec

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and other.spec == self.spec)

    def __hash__(self):
        return hash(self.spec)


class Rationals(Ring):
    spec = "rational"
    char = 0
    is_field = True
    is_domain = True
    scalar_mod = 0
    zero_value = Fraction(0)

    def _from_number(self, value):
        return Fraction(value)

    _parse = _from_number

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _poly_mul(self, a, b, n):
        """First n coefficients of a * b: one integer product over the
        common denominator, one division at the end."""
        ia, da = over_common_denominator(a)
        ib, db = over_common_denominator(b)
        d = da * db
        return [Fraction(c, d) for c in _kronecker_signed(ia, ib, n)]

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not a unit")
        return 1 / a

    def _is_unit(self, a):
        return a != 0

    def in_maximal_ideal(self, a):
        return a.value == 0


def _check_odd_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p == 2:
        raise CharacteristicTwo("p = 2 is not supported")


def _check_truncation(M):
    if not isinstance(M, int) or M < 1:
        raise InvalidModulus(f"M = {M} must be a positive integer")


class _IntegersMod(Ring):
    """Z/p^M for an odd prime p, on ints reduced mod p^M: the arithmetic
    of both PrimeField (M = 1) and PadicTruncRing."""

    is_finite = True
    zero_value = 0

    def __init__(self, p, M):
        _check_odd_prime(p)
        _check_truncation(M)
        self.p = p
        self.M = M
        self.modulus = self.char = self.order = self.scalar_mod = p**M
        self.is_field = self.is_domain = M == 1

    def _from_number(self, value):
        return int(value) % self.modulus

    _parse = _from_number

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _neg(self, a):
        return -a % self.modulus

    def _mul(self, a, b):
        return a * b % self.modulus

    def _poly_mul(self, a, b, n):
        """First n coefficients of a * b."""
        return _kronecker_mod(a, b, n, self.modulus)

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def _is_unit(self, a):
        return a % self.p != 0

    def in_maximal_ideal(self, a):
        return a.value % self.p == 0

    def element_at(self, index):
        return RingElement(self, index)


class PrimeField(_IntegersMod):
    """F_p, the integers mod p^1."""

    def __init__(self, p):
        super().__init__(p, 1)
        self.spec = f"fp:{p}"


class PadicTruncRing(_IntegersMod):
    """Z/p^M with the residue map to F_p and the Teichmueller section."""

    def __init__(self, p, M):
        super().__init__(p, M)
        self.spec = f"padic:{p}:{M}"

    def residue_field(self):
        return PrimeField(self.p)

    def residue(self, a):
        return PrimeField(self.p).from_int(a.value)

    def uniformizer(self):
        return self.from_int(self.p)

    def teichmuller(self, a):
        """Lift a in F_p to the unique w = w^p in Z/p^M over a; w(0) = 0."""
        x = int(a.value if isinstance(a, RingElement) else a) % self.modulus
        cap = self.M * max(1, (self.modulus - 1).bit_length())
        for _ in range(cap):
            y = pow(x, self.p, self.modulus)
            if y == x:
                return RingElement(self, x)
            x = y
        raise IterationLimit("Teichmueller iteration failed to stabilize")


class HbarTruncRing(Ring):
    """base[h]/h^M over a field base; values are coefficient tuples."""

    def __init__(self, base, M):
        if not isinstance(base, (PrimeField, Rationals)):
            raise NotPrime(f"base of h-truncation must be a field, got {base}")
        _check_truncation(M)
        self.base = base
        self.M = M
        self.spec = f"hbar:{base.spec.removeprefix('fp:')}:{M}"
        self.char = base.char
        self.is_field = self.is_domain = M == 1
        self.is_finite = base.is_finite
        if self.is_finite:
            self.order = base.order**M
        self.zero_value = (base.zero_value,) * M

    def _canonical(self, value):
        """Also takes an element of the base ring, as a constant."""
        if isinstance(value, RingElement) and value.ring == self.base:
            return self._from_number(value.value)
        return super()._canonical(value)

    def _from_number(self, value):
        """One base value, or the coefficients of h^0, h^1, ... in order."""
        if isinstance(value, (list, tuple)):
            coeffs = [self.base._canonical(c) for c in value[: self.M]]
            coeffs += [self.base.zero_value] * (self.M - len(coeffs))
            return tuple(coeffs)
        c0 = self.base._canonical(value)
        return (c0,) + (self.base.zero_value,) * (self.M - 1)

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        zero = self.base.zero_value
        out = [zero] * self.M
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j in range(self.M - i):
                y = b[j]
                if y == zero:
                    continue
                out[i + j] = self.base._add(out[i + j], self.base._mul(x, y))
        return tuple(out)

    def _poly_mul(self, a, b, n):
        """First n coefficients of a * b, by the base ring's product.

        Each coefficient becomes 2M - 1 base slots, its M values and M - 1
        zeros, so that the h-degrees of a product (at most 2M - 2) stay in
        their slot; the product is folded back and truncated mod h^M.
        """
        stride = 2 * self.M - 1
        pad = (self.base.zero_value,) * (self.M - 1)
        flat_a = [c for v in a for c in v + pad]
        flat_b = flat_a if b is a else [c for v in b for c in v + pad]
        flat = self.base._poly_mul(flat_a, flat_b, n * stride)
        return [tuple(flat[i:i + self.M]) for i in range(0, n * stride, stride)]

    def _inv(self, a):
        zero = self.base.zero_value
        if a[0] == zero:
            raise ZeroDivisionError("constant term is 0, not a unit")
        inv0 = self.base._inv(a[0])
        out = [inv0] + [zero] * (self.M - 1)
        # (sum out_j h^j)(sum a_i h^i) = 1, solved coefficient by coefficient
        for k in range(1, self.M):
            acc = zero
            for i in range(1, k + 1):
                acc = self.base._add(acc, self.base._mul(a[i], out[k - i]))
            out[k] = self.base._neg(self.base._mul(inv0, acc))
        return tuple(out)

    def _is_unit(self, a):
        return a[0] != self.base.zero_value

    def element_at(self, index):
        """The index-th element: base-q digits of index, most significant
        first, are the coefficients of h^0 .. h^(M-1)."""
        digits = []
        for _ in range(self.M):
            index, d = divmod(index, self.base.order)
            digits.append(self.base.element_at(d).value)
        return RingElement(self, tuple(reversed(digits)))

    def residue_field(self):
        return self.base

    def residue(self, a):
        return RingElement(self.base, a.value[0])

    def in_maximal_ideal(self, a):
        return a.value[0] == self.base.zero_value

    def uniformizer(self):
        zero = self.base.zero_value
        one = self.base._from_number(1)
        if self.M == 1:
            return RingElement(self, (zero,))
        return RingElement(self, (zero, one) + (zero,) * (self.M - 2))

    def teichmuller(self, a):
        """The multiplicative section in equal characteristic is constant."""
        val = a.value if isinstance(a, RingElement) else a
        return RingElement(self, self._canonical(self.base._canonical(val)))

    def format_value(self, v):
        parts = []
        for i, c in enumerate(v):
            if c == self.base.zero_value:
                continue
            cs = self.base.format_value(c)
            if i == 0:
                parts.append(cs)
            else:
                mono = "h" if i == 1 else f"h^{i}"
                parts.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(parts) if parts else "0"

    def _parse(self, text):
        """Terms c, h, c*h^e joined by + or -.

        A term in h^e with e outside 0 .. M-1, or two terms in one h^e,
        raises MalformedValue: the text does not state one element.
        """
        text = text.strip()
        if text == "0":
            return self.zero_value
        coeffs = {}
        for part in text.replace("- ", "+ -").split("+"):
            part = part.strip()
            if not part:
                continue
            if "h" not in part:
                cs, e = part, 0
            else:
                cs, _, hs = part.partition("h")
                cs = cs.strip().rstrip("*").strip()
                if cs in ("", "-"):
                    cs += "1"
                e = 1 if not hs.strip() else int(hs.strip().lstrip("^"))
            if not 0 <= e < self.M:
                raise MalformedValue(
                    f"h^{e} in {text!r} is outside h^0 .. h^{self.M - 1}"
                )
            if e in coeffs:
                raise MalformedValue(f"{text!r} has two terms in h^{e}")
            coeffs[e] = self.base._parse(cs)
        return tuple(coeffs.get(i, self.base.zero_value) for i in range(self.M))


def make_ring(spec):
    """Build a ring from a spec string.

    Grammar: ``rational`` | ``fp:<p>`` | ``padic:<p>:<M>`` | ``hbar:<p>:<M>``
    (``hbar:rational:<M>`` is also accepted).
    """
    if isinstance(spec, Ring):
        return spec
    parts = str(spec).split(":")
    kind = parts[0]
    try:
        if kind == "rational" and len(parts) == 1:
            return Rationals()
        if kind == "fp" and len(parts) == 2:
            return PrimeField(int(parts[1]))
        if kind == "padic" and len(parts) == 3:
            return PadicTruncRing(int(parts[1]), int(parts[2]))
        if kind == "hbar" and len(parts) == 3:
            base = (
                Rationals() if parts[1] == "rational" else PrimeField(int(parts[1]))
            )
            return HbarTruncRing(base, int(parts[2]))
    except ValueError as exc:
        raise InvalidModulus(f"bad ring spec {spec!r}: {exc}") from None
    raise InvalidModulus(f"unrecognized ring spec {spec!r}")


def scalar_values(elements):
    """(ring, raw values) of a sequence of ring elements, or None.

    The raw values come back when every element is a RingElement of one
    ring whose raw values are plain numbers (``scalar_mod`` is not None);
    otherwise the caller takes its generic path.  The test is on the type:
    a series also has a ``.ring``, but its value is not a number.
    """
    first = elements[0]
    if type(first) is not RingElement or first.ring.scalar_mod is None:
        return None
    ring = first.ring
    for e in elements:
        if type(e) is not RingElement or (e.ring is not ring and e.ring != ring):
            return None
    return ring, [e.value for e in elements]


def residue_field(ring):
    """The residue field of a local ring; Q and F_p are their own."""
    return ring.residue_field()


def to_residue(a):
    """Reduce modulo the maximal ideal; identity on Q and F_p."""
    if a.ring.residue_field() == a.ring:
        return a
    return a.residue()


def residue_of(ring, a):
    """a itself when a lies in the residue field of ring, and a's residue
    when a lies in ring; an element of any other ring raises RingMismatch."""
    k = ring.residue_field()
    if a.ring == k:
        return a
    if a.ring == ring:
        return ring.residue(a)
    raise RingMismatch(f"{a.ring} is neither {ring} nor its residue field {k}")


def lift_residue(ring, a):
    """Section of the residue map used to seed Hensel iterations.

    Teichmueller lift into Z/p^M, constant inclusion into base[h]/h^M,
    identity on fields.
    """
    if a.ring == ring:
        return a
    if isinstance(ring, (PadicTruncRing, HbarTruncRing)):
        if a.ring != residue_field(ring):
            raise RingMismatch(f"{a.ring} is not the residue field of {ring}")
        return ring.teichmuller(a)
    raise RingMismatch(f"cannot lift {a.ring} element into {ring}")


def teichmuller_lift(a, M):
    """The Teichmueller lift F_p -> Z/p^M: w = a mod p with w^p = w."""
    if not isinstance(a.ring, PrimeField):
        raise RingMismatch(f"expected a prime-field element, got {a.ring}")
    return PadicTruncRing(a.ring.p, M).teichmuller(a)
