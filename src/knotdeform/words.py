"""2-bridge knot data, free words on {a, b}, and SL2 matrices.

A 2-bridge knot in Schubert normal form b(m, n) has knot group
<a, b | wa = bw> where w = a^e1 b^e2 ... a^e(m-2) b^e(m-1) and
e_i = (-1)^floor(i n / m).  Floor (Gauss) semantics matter for n < 0:
truncating division would break the palindrome e_i = e_(m-i).

FreeWord values are freely reduced sequences of (generator, exponent)
pairs and are hashable, so they can key trace tables.  SL2Matrix is
generic over its entries (ring elements, truncated series, or Laurent
polynomials): anything with +, *, unary -, and one_like/zero_like works,
and the determinant-1 contract is checked on construction to whatever
precision the entries can express.
"""

from dataclasses import dataclass
from math import gcd

from ._kernels import power
from .errors import InvalidKnot, NotUnimodular, RingMismatch, WordSyntaxError


@dataclass(frozen=True)
class TwoBridgeKnot:
    m: int
    n: int

    def __post_init__(self):
        m, n = self.m, self.n
        if m <= 0 or m % 2 == 0:
            raise InvalidKnot(f"m = {m} must be a positive odd integer")
        if n % 2 == 0:
            raise InvalidKnot(f"n = {n} must be odd")
        if not -m < n < m:
            raise InvalidKnot(f"need -{m} < n < {m}, got n = {n}")
        if gcd(m, n) != 1:
            raise InvalidKnot(f"gcd({m}, {n}) != 1")

    def __str__(self):
        return f"b({self.m},{self.n})"


def epsilon_sequence(knot):
    """Signs e_i = (-1)^floor(i n / m) for i = 1 .. m-1."""
    m, n = knot.m, knot.n
    return tuple(-1 if (i * n // m) % 2 else 1 for i in range(1, m))


def schubert_word(knot):
    """The relator word a^e1 b^e2 ... alternating in a and b."""
    eps = epsilon_sequence(knot)
    letters = []
    for i, e in enumerate(eps):
        letters.append(("a" if i % 2 == 0 else "b", e))
    return FreeWord(letters)


class FreeWord:
    """Freely reduced word in a and b with integer exponents."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        reduced = []
        for gen, exp in letters:
            if gen not in ("a", "b"):
                raise WordSyntaxError(f"unknown generator {gen!r}")
            if not isinstance(exp, int):
                raise WordSyntaxError(f"exponent {exp!r} is not an integer")
            if exp == 0:
                continue
            if reduced and reduced[-1][0] == gen:
                merged = reduced[-1][1] + exp
                reduced.pop()
                if merged:
                    reduced.append((gen, merged))
            else:
                reduced.append((gen, exp))
        object.__setattr__(self, "letters", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @classmethod
    def empty(cls):
        return cls(())

    @classmethod
    def from_string(cls, text):
        """Parse both ``a b^-1 a^-1 b`` and compact ``aB Ab`` syntax."""
        letters = []
        for token in text.split():
            if "^" in token:
                gen, _, exp = token.partition("^")
                if gen not in ("a", "b"):
                    raise WordSyntaxError(f"bad token {token!r}")
                try:
                    letters.append((gen, int(exp)))
                except ValueError:
                    raise WordSyntaxError(f"bad exponent in {token!r}") from None
            else:
                for ch in token:
                    if ch in ("a", "b"):
                        letters.append((ch, 1))
                    elif ch in ("A", "B"):
                        letters.append((ch.lower(), -1))
                    elif ch == "1":
                        continue
                    else:
                        raise WordSyntaxError(f"bad letter {ch!r} in {token!r}")
        return cls(letters)

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    def inverse(self):
        return FreeWord([(g, -e) for g, e in reversed(self.letters)])

    def __pow__(self, k):
        base = self.inverse() if k < 0 else self
        return power(base, abs(k), FreeWord.empty())

    def __eq__(self, other):
        return isinstance(other, FreeWord) and other.letters == self.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        """Total letter count (sum of |exponents|)."""
        return sum(abs(e) for _, e in self.letters)

    def is_empty(self):
        return not self.letters

    def single_letters(self):
        """Yield ('a'|'b', +-1) one letter at a time."""
        for gen, exp in self.letters:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield gen, step

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(
            gen if exp == 1 else f"{gen}^{exp}" for gen, exp in self.letters
        )

    def compact(self):
        if not self.letters:
            return "1"
        out = []
        for gen, exp in self.letters:
            ch = gen if exp > 0 else gen.upper()
            out.append(ch * abs(exp))
        return "".join(out)

    def sort_key(self):
        return (len(self), str(self))

    def __repr__(self):
        return f"FreeWord({str(self)!r})"


class SL2Matrix:
    """2x2 matrix of determinant 1 over a common coefficient domain."""

    __slots__ = ("entries",)

    def __init__(self, entries, check=True):
        ((a, b), (c, d)) = entries
        object.__setattr__(self, "entries", ((a, b), (c, d)))
        if check:
            det = a * d - b * c
            if det != a.one_like():
                raise NotUnimodular(f"determinant is {det!r}, not 1")

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @classmethod
    def identity_like(cls, sample):
        one = sample.one_like()
        zero = sample.zero_like()
        return cls(((one, zero), (zero, one)), check=False)

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def det(self):
        ((a, b), (c, d)) = self.entries
        return a * d - b * c

    def trace(self):
        return self.entries[0][0] + self.entries[1][1]

    def __mul__(self, other):
        ((a, b), (c, d)) = self.entries
        ((e, f), (g, h)) = other.entries
        return SL2Matrix(
            ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)),
            check=False,
        )

    def inverse(self):
        """[[d, -b], [-c, a]]; exact for determinant 1."""
        ((a, b), (c, d)) = self.entries
        return SL2Matrix(((d, -b), (-c, a)), check=False)

    def __pow__(self, k):
        base = self.inverse() if k < 0 else self
        return power(base, abs(k), SL2Matrix.identity_like(self.entries[0][0]))

    def __eq__(self, other):
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(2)
            for j in range(2)
        )

    __hash__ = None

    def __repr__(self):
        ((a, b), (c, d)) = self.entries
        return f"[[{a!s}, {b!s}], [{c!s}, {d!s}]]"


def _entry_ring(matrix):
    return getattr(matrix.entries[0][0], "ring", None)


def evaluate_word(word, ma, mb):
    """Image of a free word under a -> ma, b -> mb (matrix homomorphism)."""
    ra, rb = _entry_ring(ma), _entry_ring(mb)
    if ra is not None and rb is not None and ra != rb:
        raise RingMismatch(f"{ra} vs {rb}")
    result = SL2Matrix.identity_like(ma.entries[0][0])
    inverses = {}
    for gen, exp in word.letters:
        base = ma if gen == "a" else mb
        if exp < 0:
            if gen not in inverses:
                inverses[gen] = base.inverse()
            base = inverses[gen]
        for _ in range(abs(exp)):
            result = result * base
    return result
