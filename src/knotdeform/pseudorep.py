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
"""

from dataclasses import dataclass, field

from .errors import KnotDeformError, NotIntegralDomain, RingMismatch
from .rings import PadicTruncRing, PrimeField, RingElement
from .words import FreeWord


class WordSet:
    """A finite, inverse-agnostic window onto the free group on a, b.

    Axiom-instance tables (which witness tuples have all their products
    inside the window) are computed once and cached; checking a table is
    then pure ring arithmetic.
    """

    def __init__(self, words):
        seen = {FreeWord.empty()}
        seen.update(words)
        ordered = sorted(seen, key=lambda w: w.sort_key())
        self.words = tuple(ordered)
        self._index = {w: i for i, w in enumerate(ordered)}
        self._tables = {}

    @classmethod
    def ball(cls, max_letters):
        from .charvariety import all_reduced_words

        return cls(all_reduced_words(max_letters))

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

    def p1_instance(self):
        return self._index[FreeWord.empty()]

    def p2_instances(self):
        """(i1, i2, i12, i21) for ordered pairs with both products inside."""

        def build():
            out = []
            for w1, i1 in self._index.items():
                for w2, i2 in self._index.items():
                    i12 = self._index.get(w1 * w2)
                    if i12 is None:
                        continue
                    i21 = self._index.get(w2 * w1)
                    if i21 is None:
                        continue
                    out.append((i1, i2, i12, i21))
            return tuple(out)

        return self._table("p2", build)

    def p3_instances(self):
        """(i1, i2, i3, i123, i132, i12, i23, i13) with all five products inside."""

        def build():
            idx = self._index
            pair = {}
            for w1, i1 in idx.items():
                for w2, i2 in idx.items():
                    j = idx.get(w1 * w2)
                    if j is not None:
                        pair[(i1, i2)] = (j, w1 * w2)
            out = []
            for w1, i1 in idx.items():
                for w2, i2 in idx.items():
                    p12 = pair.get((i1, i2))
                    if p12 is None:
                        continue
                    for w3, i3 in idx.items():
                        p23 = pair.get((i2, i3))
                        if p23 is None:
                            continue
                        p13 = pair.get((i1, i3))
                        if p13 is None:
                            continue
                        i123 = idx.get(p12[1] * w3)
                        if i123 is None:
                            continue
                        i132 = idx.get(p13[1] * w2)
                        if i132 is None:
                            continue
                        out.append((i1, i2, i3, i123, i132, p12[0], p23[0], p13[0]))
            return tuple(out)

        return self._table("p3", build)

    def p4_instances(self):
        """(i, i_squared) for words whose square is inside."""

        def build():
            out = []
            for w, i in self._index.items():
                isq = self._index.get(w * w)
                if isq is not None:
                    out.append((i, isq))
            return tuple(out)

        return self._table("p4", build)

    def c2_instances(self):
        """(i1, i2, i12, iinv) with g1 g2 and g1^-1 g2 inside."""

        def build():
            out = []
            for w1, i1 in self._index.items():
                w1inv = w1.inverse()
                for w2, i2 in self._index.items():
                    i12 = self._index.get(w1 * w2)
                    if i12 is None:
                        continue
                    iinv = self._index.get(w1inv * w2)
                    if iinv is None:
                        continue
                    out.append((i1, i2, i12, iinv))
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
        vals = []
        for w in ws:
            if w in mapping:
                vals.append(mapping[w])
            elif w.is_empty():
                vals.append(ring.from_int(2))
            else:
                raise KeyError(f"no value for {w}")
        return cls(ring, ws, vals)

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
        from .rings import make_ring

        ring = make_ring(obj["ring"])
        mapping = {
            FreeWord.from_string(ws): ring.parse_value(vs)
            for ws, vs in obj["entries"]
        }
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


def check_axioms_P(table):
    """Evaluate every (P1)-(P4) instance covered by the table's domain."""
    ws = table.wordset
    T = table.values
    two = table.ring.from_int(2)
    report = AxiomReport("P")
    checked = report.checked

    i1 = ws.p1_instance()
    checked["P1"] = 1
    if T[i1] != two:
        report.violations.append(("P1", (ws.words[i1],)))

    p2 = ws.p2_instances()
    checked["P2"] = len(p2)
    for a, b, ab, ba in p2:
        if T[ab] != T[ba]:
            report.violations.append(("P2", (ws.words[a], ws.words[b])))

    p3 = ws.p3_instances()
    checked["P3"] = len(p3)
    for a, b, c, abc, acb, ab, bc, ac in p3:
        lhs = (
            T[a] * T[b] * T[c]
            + T[abc]
            + T[acb]
            - T[ab] * T[c]
            - T[bc] * T[a]
            - T[ac] * T[b]
        )
        if not lhs.is_zero():
            report.violations.append(
                ("P3", (ws.words[a], ws.words[b], ws.words[c]))
            )

    p4 = ws.p4_instances()
    checked["P4"] = len(p4)
    for g, gsq in p4:
        if T[g] * T[g] - T[gsq] != two:
            report.violations.append(("P4", (ws.words[g],)))
    return report


def check_axioms_C(table):
    """Evaluate every (C1)-(C2) instance covered by the table's domain."""
    ws = table.wordset
    T = table.values
    two = table.ring.from_int(2)
    report = AxiomReport("C")

    i1 = ws.p1_instance()
    report.checked["C1"] = 1
    if T[i1] != two:
        report.violations.append(("C1", (ws.words[i1],)))

    c2 = ws.c2_instances()
    report.checked["C2"] = len(c2)
    for a, b, ab, iv in c2:
        if T[a] * T[b] != T[ab] + T[iv]:
            report.violations.append(("C2", (ws.words[a], ws.words[b])))
    return report


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
    if ring.char == 2:  # unreachable: ring constructors reject p = 2
        raise NotIntegralDomain("characteristic 2 is excluded")
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
        acc = self.ring.zero()
        for mono, c in self.terms.items():
            term = c
            for name, e in mono:
                v = values[name]
                for _ in range(e):
                    term = term * v
            acc = acc + term
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

    def tvar(i):
        w = ws.words[i]
        lift = ring.teichmuller(tbar(w))
        return RelationPoly.variable(ring, str(w), shift=lift)

    two = ring.from_int(2)
    gens = []

    i1 = ws.p1_instance()
    poly = tvar(i1) - two
    gens.append(RelationGenerator("P1-type", (ws.words[i1],), poly))

    for a, b, ab, ba in ws.p2_instances():
        if ab == ba:
            continue
        poly = tvar(ab) - tvar(ba)
        if not poly.is_zero():
            gens.append(
                RelationGenerator("P2-type", (ws.words[a], ws.words[b]), poly)
            )

    for a, b, c, abc, acb, ab, bc, ac in ws.p3_instances():
        poly = (
            tvar(a) * tvar(b) * tvar(c)
            + tvar(abc)
            + tvar(acb)
            - tvar(ab) * tvar(c)
            - tvar(bc) * tvar(a)
            - tvar(ac) * tvar(b)
        )
        if not poly.is_zero():
            gens.append(
                RelationGenerator(
                    "P3-type", (ws.words[a], ws.words[b], ws.words[c]), poly
                )
            )

    for g, gsq in ws.p4_instances():
        poly = tvar(g) * tvar(g) - tvar(gsq) - two
        if not poly.is_zero():
            gens.append(RelationGenerator("P4-type", (ws.words[g],), poly))
    return gens


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
