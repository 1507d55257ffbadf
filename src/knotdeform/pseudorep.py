"""Finite-window pseudo-representation machinery.

A pseudo-representation is a trace-like map T from a group to a ring,
axiomatized without matrices:

    (P1) T(1) = 2
    (P2) T(g1 g2) = T(g2 g1)
    (P3) T(g1)T(g2)T(g3) + T(g1g2g3) + T(g1g3g2)
         - T(g1g2)T(g3) - T(g2g3)T(g1) - T(g1g3)T(g2) = 0
    (P4) T(g)^2 - T(g^2) = 2

or, equivalently over an integral domain of characteristic != 2,

    (C1) T(1) = 2
    (C2) T(g1)T(g2) = T(g1g2) + T(g1^-1 g2).

The group here is free on a, b and only a finite WordSet window is ever
materialized, so an axiom instance is checked exactly when every word it
reads lies in the window; reports carry coverage counts so a vacuous pass
is visible.  relation_ideal_truncated emits the finite part of the
presentation ideal of the universal deformation ring over Z/p^M: in the
shifted variables T_w = X_w + teich(Tbar(w)) the generators are the four
axiom shapes above, with no simplification attempted.

Each axiom is stated once, as a residual over any indexable T.  The
checkers hand it integers on every ring (``_int_image``), with an exact
zero test per residual modulo m: the raw values of an ``fp:p`` or
``padic:p:M`` table, with m = p or p^M, and over Q the table's modular
image, with m a modulus Q chosen per table so large that the test is exact
(the bound is derived at ``_rational_image``).  An ``hbar`` value becomes
one Kronecker int whose slots are its h-coefficients, taken as ints in the
same way, and a residual is zero when its low M slots are all 0 mod m.
The relation ideal hands the residuals RelationPoly variables.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from ._kernels import over_common_denominator, power
from .errors import (
    KnotDeformError,
    MalformedTable,
    MalformedValue,
    NotIntegralDomain,
    RingMismatch,
)
from .rings import PadicTruncRing, PrimeField, RingElement, _lane, _pack, _signed_slots, make_ring
from .words import FreeWord


class WordSet:
    """A finite, inverse-agnostic window onto the free group on a, b.

    The product table (index of each product of two window words, or None
    outside the window) and the axiom-instance tables read from it (which
    witness tuples have all their products inside the window) are computed
    once and cached; checking a table is then pure ring arithmetic.  A
    WordSet is immutable, so the one window that ``ball`` shares between
    all its callers keeps its tables for the life of the process.
    """

    __slots__ = ("words", "_index", "_tables")

    def __init__(self, words):
        seen = {FreeWord.empty()}
        seen.update(words)
        ordered = sorted(seen, key=lambda w: w.sort_key())
        object.__setattr__(self, "words", tuple(ordered))
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(ordered)})
        object.__setattr__(self, "_tables", {})

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    @classmethod
    def ball(cls, max_letters):
        """Every freely reduced word of at most max_letters letters: one
        shared window per bound."""
        return _ball(max_letters)

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, word):
        return word in self._index

    def index(self, word):
        return self._index.get(word)

    def _table(self, name, builder):
        if name not in self._tables:
            self._tables[name] = builder()
        return self._tables[name]

    def products(self):
        """The product table: [i][j] is the index of words[i] * words[j], or None."""
        return self._table("mul", lambda: tuple(
            tuple(self._index.get(u * v) for v in self.words) for u in self.words
        ))

    def p1_instance(self):
        return self._index[FreeWord.empty()]

    def p2_instances(self):
        """(i1, i2, i12, i21) for ordered pairs with both products inside."""

        def build():
            mul, n = self.products(), range(len(self))
            return tuple(
                (a, b, mul[a][b], mul[b][a]) for a in n for b in n
                if mul[a][b] is not None and mul[b][a] is not None
            )

        return self._table("p2", build)

    def p3_instances(self):
        """(i1, i2, i3, i123, i132, i12, i23, i13) with all five products inside."""

        def build():
            mul, n = self.products(), range(len(self))
            out = []
            for a in n:
                for b in n:
                    ab = mul[a][b]
                    if ab is None:
                        continue
                    for c in n:
                        bc, ac = mul[b][c], mul[a][c]
                        if bc is None or ac is None:
                            continue
                        abc, acb = mul[ab][c], mul[ac][b]
                        if abc is not None and acb is not None:
                            out.append((a, b, c, abc, acb, ab, bc, ac))
            return tuple(out)

        return self._table("p3", build)

    def p4_instances(self):
        """(i, i_squared) for words whose square is inside."""

        def build():
            mul = self.products()
            return tuple(
                (g, mul[g][g]) for g in range(len(self)) if mul[g][g] is not None
            )

        return self._table("p4", build)

    def c2_instances(self):
        """(i1, i2, i12, iinv) with g1 g2 and g1^-1 g2 inside.

        g1^-1 need not lie in the window, so g1^-1 g2 is formed from the words.
        """

        def build():
            mul, out = self.products(), []
            for a, w1 in enumerate(self.words):
                w1inv = w1.inverse()
                for b, w2 in enumerate(self.words):
                    ab = mul[a][b]
                    if ab is None:
                        continue
                    iinv = self._index.get(w1inv * w2)
                    if iinv is not None:
                        out.append((a, b, ab, iinv))
            return tuple(out)

        return self._table("c2", build)

    def coverage(self):
        """Covered instance counts per axiom family."""
        return {
            "P1": 1,
            "P2": len(self.p2_instances()),
            "P3": len(self.p3_instances()),
            "P4": len(self.p4_instances()),
            "C1": 1,
            "C2": len(self.c2_instances()),
        }


@lru_cache(maxsize=None)
def _ball(max_letters):
    from .charvariety import all_reduced_words

    return WordSet(all_reduced_words(max_letters))


class PseudoRepTable:
    """A map T from a WordSet into a ring, stored positionally.

    from_dict accepts any word-to-value mapping; the empty word may be
    omitted, in which case it gets the forced value T(1) = 2.
    """

    def __init__(self, ring, wordset, values):
        self.ring = ring
        self.wordset = wordset
        values = tuple(values)
        if len(values) != len(wordset):
            raise ValueError("one value per word required")
        for v in values:
            if v.ring != ring:
                raise RingMismatch(f"{v.ring} value in {ring} table")
        self.values = values

    @classmethod
    def from_dict(cls, ring, mapping):
        ws = WordSet(mapping.keys())
        two = ring.from_int(2)  # only the empty word can be missing
        return cls(ring, ws, [mapping.get(w, two) for w in ws])

    def __call__(self, word):
        i = self.wordset.index(word)
        if i is None:
            raise KeyError(f"{word} not in table domain")
        return self.values[i]

    def with_value(self, index, value):
        vals = list(self.values)
        vals[index] = value
        return PseudoRepTable(self.ring, self.wordset, vals)

    def to_json(self):
        return {
            "ring": self.ring.spec_string(),
            "entries": [
                [str(w), str(v)] for w, v in zip(self.wordset, self.values)
            ],
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; a word listed twice, after free reduction,
        or an entry that is not a [word, value] pair raises MalformedTable."""
        if not (isinstance(obj, dict) and "ring" in obj
                and isinstance(obj.get("entries"), list)):
            raise MalformedTable('a table needs "ring" and an "entries" list')
        ring = make_ring(obj["ring"])
        mapping = {}
        for entry in obj["entries"]:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(s, str) for s in entry)):
                raise MalformedTable(f"entry {entry!r} is not a [word, value] pair")
            word = FreeWord.from_string(entry[0])
            if word in mapping:
                raise MalformedTable(f"entry {entry!r} repeats the word {word}")
            try:
                mapping[word] = ring.parse_value(entry[1])
            except MalformedValue as exc:
                raise MalformedTable(
                    f"entry {entry!r}: not a {ring} value ({exc})"
                ) from None
        return cls.from_dict(ring, mapping)


@dataclass
class AxiomReport:
    family: str
    checked: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def fully_covered(self):
        return all(n > 0 for n in self.checked.values())

    def to_json(self):
        return {
            "family": self.family,
            "checked": {k: str(v) for k, v in self.checked.items()},
            "pass": self.passed,
            "violations": [
                {"axiom": ax, "witnesses": [str(w) for w in ws]}
                for ax, ws in self.violations
            ],
        }


def _p_residuals(ws, T, two):
    """(axiom, witness indices, residual) for every (P1)-(P4) instance in ws.

    T is indexed like ws.words and needs only +, - and *; an instance holds
    exactly when its residual is zero.
    """
    i = ws.p1_instance()
    yield "P1", (i,), T[i] - two
    for a, b, ab, ba in ws.p2_instances():
        yield "P2", (a, b), T[ab] - T[ba]
    for a, b, c, abc, acb, ab, bc, ac in ws.p3_instances():
        yield "P3", (a, b, c), (
            T[a] * T[b] * T[c]
            + T[abc]
            + T[acb]
            - T[ab] * T[c]
            - T[bc] * T[a]
            - T[ac] * T[b]
        )
    for g, gsq in ws.p4_instances():
        yield "P4", (g,), T[g] * T[g] - T[gsq] - two


def _c_residuals(ws, T, two):
    """(axiom, witness indices, residual) for every (C1)-(C2) instance in ws."""
    i = ws.p1_instance()
    yield "C1", (i,), T[i] - two
    for a, b, ab, iinv in ws.c2_instances():
        yield "C2", (a, b), T[a] * T[b] - T[ab] - T[iinv]


def _check(family, residuals, table):
    """Run one family's residuals over the table and report the nonzero ones.

    The residuals run on the table's integer image (``_int_image``),
    unreduced, and each gets that image's zero test.
    """
    ws = table.wordset
    T, is_zero = _int_image(table)
    covered = {axiom: n for axiom, n in ws.coverage().items() if axiom[0] == family}
    report = AxiomReport(family, covered)
    for axiom, witnesses, r in residuals(ws, T, 2):
        if not is_zero(r):
            report.violations.append((axiom, tuple(ws.words[i] for i in witnesses)))
    return report


def _int_image(table):
    """(T, is_zero): the table's values as ints, and an exact zero test for
    a residual computed on them.

    ``fp:p`` and ``padic:p:M`` values are their raw ints, and a residual is
    zero when m = p resp. p^M divides it.  Over Q the values go through
    ``_rational_image``, with its modulus Q as m.

    An ``hbar`` value is a polynomial in h with M base coefficients.  They
    become ints as above, below m (p, or Q of one modular image of every
    coefficient in the table), and are packed as the slots of one Kronecker
    int, so that the integer product of two values is their product in
    Z[h].  Slot k of a residual is then its integer coefficient of h^k, a
    signed sum of at most 6 terms (see ``_rational_image``).  For every
    h-degree k <= 3M - 3 each term is a sum of at most M^2 index triples
    or M index pairs, products of at most three coefficients, or the
    constant 2, so |slot k| <= 6 M^2 m^3 in every slot, and a slot one bit
    wider holds it signed (``_signed_slots``).  The residual is zero in
    base[h]/h^M when its low M slots are all 0 mod m.  Over Q the bound of
    ``_rational_image`` is scaled by M^2 for the same count.
    """
    ring = table.ring
    raw = [v.value for v in table.values]
    m = ring.scalar_mod
    if m is not None:
        if not m:
            raw, m = _rational_image(raw)
        return raw, lambda r: r % m == 0
    M, m = ring.M, ring.base.scalar_mod
    coeffs = [c for v in raw for c in v]
    if not m:
        coeffs, m = _rational_image(coeffs, M * M)
    # a sign bit above |slot| <= 6 M^2 m^3
    width = _lane(((6 * M * M * m**3).bit_length() + 8) // 8)
    T = [_pack(coeffs[i:i + M], width) for i in range(0, len(coeffs), M)]
    return T, lambda r: not any(c % m for c in _signed_slots(r, width, M))


def _rational_image(values, scale=1):
    """(images, Q): rationals T_w = N_w / D sent to N_w * D^-1 mod Q, with
    Q coprime to D and so large that a residual is 0 exactly when its
    image is 0 mod Q.

    Let B = max(|N_w|, D, 2).  Times D^k, a residual r of degree k <= 3 is
    a signed sum of products of k numerators and D's, each at most B^k in
    size, with at most 6 terms counted with multiplicity; _p_residuals and
    _c_residuals give
        P1  D r   = N_1 - 2D                                |.| <= 3B
        P2  D r   = N_ab - N_ba                             |.| <= 2B
        P3  D^3 r = N_a N_b N_c + D^2 (N_abc + N_acb)
                    - D (N_ab N_c + N_bc N_a + N_ac N_b)     |.| <= 6B^3
        P4  D^2 r = N_g^2 - D N_gg - 2D^2                   |.| <= 4B^2
        C1  D r   = N_1 - 2D                                |.| <= 3B
        C2  D^2 r = N_a N_b - D (N_ab + N_inv)              |.| <= 3B^2
    so |D^k r| <= 6B^3 < Q for every instance.  D is a unit mod Q, so
    r = 0 exactly when D^k r = 0, exactly when Q divides D^k r, exactly
    when the residual of the images is 0 mod Q.  Q = 1 + D 2^j for the
    least j with Q > 6B^3 is coprime to D, and D^-1 = -2^j mod Q.  The
    values may be the h-coefficients of an ``hbar`` table: each term of a
    residual's coefficient of h^k then sums at most scale = M^2 products
    (``_int_image``), and Q > 6 scale B^3.
    """
    nums, d = over_common_denominator(values)
    bound = 6 * scale * max(2, d, *map(abs, nums)) ** 3
    j = (-(-bound // d) - 1).bit_length()  # least j with d 2^j >= bound
    q = 1 + (d << j)
    inv = q - (1 << j)
    return [n * inv % q for n in nums], q


def check_axioms_P(table):
    """Evaluate every (P1)-(P4) instance covered by the table's domain."""
    return _check("P", _p_residuals, table)


def check_axioms_C(table):
    """Evaluate every (C1)-(C2) instance covered by the table's domain."""
    return _check("C", _c_residuals, table)


def trace_table(rho, wordset):
    """T(w) = tr rho(w) on the given window."""
    values = [rho.trace_of(w) for w in wordset]
    return PseudoRepTable(rho.ring, wordset, values)


@dataclass
class HarnessVerdict:
    p_report: AxiomReport
    c_report: AxiomReport

    @property
    def p_passed(self):
        return self.p_report.passed

    @property
    def c_passed(self):
        return self.c_report.passed

    @property
    def agree(self):
        return self.p_passed == self.c_passed

    @property
    def fully_covered(self):
        return self.p_report.fully_covered() and self.c_report.fully_covered()

    def to_json(self):
        return {
            "P": self.p_report.to_json(),
            "C": self.c_report.to_json(),
            "agree": self.agree,
        }


def equivalence_harness(table):
    """Run both axiom families and compare verdicts.

    Only meaningful over an integral domain of characteristic != 2, the
    hypothesis under which (P) and (C) are equivalent; disagreement on a
    fully covered window flags an implementation bug.
    """
    ring = table.ring
    if not ring.is_domain:
        raise NotIntegralDomain(f"{ring} has a nontrivial truncation ideal")
    return HarnessVerdict(check_axioms_P(table), check_axioms_C(table))


# --- the truncated relation ideal ---

class RelationPoly:
    """Polynomial in variables X_w over a ring, sparse on monomials."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def constant(cls, ring, value):
        return cls(ring, {(): value})

    @classmethod
    def variable(cls, ring, name, shift=None):
        terms = {((name, 1),): ring.one()}
        if shift is not None and not shift.is_zero():
            terms[()] = shift
        return cls(ring, terms)

    def __add__(self, other):
        if isinstance(other, RingElement):
            other = RelationPoly.constant(self.ring, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return RelationPoly(self.ring, out)

    def __neg__(self):
        return RelationPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, RingElement):
            other = RelationPoly.constant(self.ring, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return RelationPoly(
                self.ring, {m: c * other for m, c in self.terms.items()}
            )
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                c = c1 * c2
                s = out.get(m)
                out[m] = c if s is None else s + c
        return RelationPoly(self.ring, out)

    def is_zero(self):
        return not self.terms

    def substitute(self, values):
        """Evaluate at X_name -> values[name]."""
        acc, one = self.ring.zero(), self.ring.one()
        for mono, c in self.terms.items():
            for name, e in mono:
                c = c * power(values[name], e, one)
            acc = acc + c
        return acc

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(
            self.terms.items(), key=lambda mc: (-sum(e for _, e in mc[0]), mc[0])
        ):
            factors = [
                f"X[{name}]" if e == 1 else f"X[{name}]^{e}" for name, e in mono
            ]
            body = "*".join(factors)
            cs = str(c)
            if body and cs == "1":
                parts.append(body)
            elif body:
                parts.append(f"{cs}*{body}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"RelationPoly({self.text()!r})"


def _merge_monomials(m1, m2):
    acc = dict(m1)
    for name, e in m2:
        acc[name] = acc.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in acc.items() if e))


@dataclass(frozen=True)
class RelationGenerator:
    kind: str  # P1-type .. P4-type
    witnesses: tuple
    polynomial: RelationPoly


def relation_ideal_truncated(wordset, tbar, M):
    """Finite truncation of the presentation ideal over Z/p^M.

    tbar is a pseudo-representation table over F_p that passes (P) on its
    coverage.  In the variables X_w (w in the window), each generator is
    an axiom shape evaluated at T_w = X_w + teich(tbar(w)); generators of
    every type whose constituent words all lie inside the window are
    emitted verbatim, except degenerate witnesses whose generator is
    identically zero.
    """
    if not isinstance(tbar.ring, PrimeField):
        raise RingMismatch(f"residual table must live over F_p, got {tbar.ring}")
    if not check_axioms_P(tbar).passed:
        raise KnotDeformError("residual table fails the (P) axioms")
    ring = PadicTruncRing(tbar.ring.p, M)
    ws = wordset
    if any(w not in ws for w in tbar.wordset) or any(w not in tbar.wordset for w in ws):
        raise KnotDeformError("word window and table domain must coincide")

    T = [
        RelationPoly.variable(ring, str(w), shift=ring.teichmuller(tbar(w)))
        for w in ws
    ]
    return [
        RelationGenerator(f"{axiom}-type", tuple(ws.words[i] for i in witnesses), r)
        for axiom, witnesses, r in _p_residuals(ws, T, ring.from_int(2))
        if not r.is_zero()
    ]


# --- fuzzing helpers (seeded by callers) ---

def random_sl2(rng, ring):
    """Random determinant-1 matrix: uniform entries, one column rescaled."""
    from .words import SL2Matrix

    if ring.is_finite:
        draw = lambda: ring.element_at(rng.randrange(ring.order))  # noqa: E731
    else:
        draw = lambda: ring.from_int(rng.randint(-5, 5))  # noqa: E731
    while True:
        a, b, c, d = draw(), draw(), draw(), draw()
        det = a * d - b * c
        if not det.is_unit():
            continue
        inv = det.inverse()
        if rng.randrange(2):
            b, d = b * inv, d * inv
        else:
            a, c = a * inv, c * inv
        return SL2Matrix(((a, b), (c, d)))


def random_representation(rng, ring):
    from .riley import Representation

    return Representation(ring, random_sl2(rng, ring), random_sl2(rng, ring))


def random_trace_table(rng, ring, wordset):
    return trace_table(random_representation(rng, ring), wordset)


def mutate_table(rng, table):
    """Perturb one entry by a nonzero delta; breaks (P) and (C) generically."""
    i = rng.randrange(len(table.wordset))
    ring = table.ring
    if ring.is_finite:
        # element 0 is zero in every finite ring
        delta = ring.element_at(1 + rng.randrange(ring.order - 1))
    else:
        delta = ring.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return table.with_value(i, table.values[i] + delta)
