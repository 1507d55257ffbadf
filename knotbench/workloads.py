"""The benchmark's three workloads.

Each workload is a closed loop: one process, one thread, one operation at
a time, back to back.  An operation calls knotdeform's public API; its
inputs come from the seed, and the program sees only those inputs.

Operations come in cycles.  A cycle is a fixed list of cells (a rung of
the knot ladder, a ring family and precision, a scalar ring), and the seed
picks the concrete input inside each cell.  Inside a cell the pick walks a
menu sorted by estimated cost along a van der Corput sequence, plus a
seeded jitter over a small share of the menu: whole cycles cover each menu
evenly, so runs with different seeds do the same mix of work and their
figures can be compared.  The runner measures whole cycles only.

Every operation's result is checked outside its timed interval.  ``check``
returns the list of failed conditions and a digest of the op's inputs and
outputs, so two runs with one seed can be shown to do the same work.
"""

import hashlib
import math
import random
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import lru_cache


class Exhausted(Exception):
    """The workload has no unused input left for the next operation."""


def vdc(k):
    """Van der Corput radical inverse of k in base 2: 0, 1/2, 1/4, 3/4, ..."""
    q, scale = 0.0, 0.5
    while k:
        k, bit = divmod(k, 2)
        q += bit * scale
        scale /= 2
    return q


JITTER = 1 / 16


def menu_index(cycle, size, rng, offset=0.0):
    """Index into a cost-sorted menu of ``size`` entries for the given cycle.

    Cycle k goes to quantile vdc(k) + offset (mod 1), moved by a seeded
    jitter of at most JITTER of the menu.
    """
    q = (vdc(cycle) + offset) % 1.0
    return min(size - 1, int((q * (1 - JITTER) + rng.random() * JITTER) * size))


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class Workload:
    name = None
    cells = ()  # one cycle of operations

    def __init__(self, kd, seed):
        self.kd = kd
        self.seed = seed

    def rng(self, i):
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def fresh_caches(self):
        """Context for the traced repeat of an op: it starts from empty
        package caches, and the caches of the untraced run are kept."""
        return nullcontext()

    def setup(self):
        """Input generation and warm-up; timed as set-up by the runner."""
        raise NotImplementedError

    def make_op(self, i):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError


# --- riley_ladder ---------------------------------------------------------

LADDER_M = (15, 101)
LADDER_RUNGS = 15
LADDER_FLOOR = 24  # knots below the cheapest rung's lower edge; they join that rung
SCAN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
PRIMES_PER_OP = 3


def relator_holds(word, p, r):
    """W C = D W for a -> C = [[1,1],[0,1]], b -> D = [[1,0],[r,1]] over F_p.

    Plain integer matrices, independent of the library's matrix code.
    """
    gens = {
        ("a", 1): (1, 1, 0, 1),
        ("a", -1): (1, p - 1, 0, 1),
        ("b", 1): (1, 0, r, 1),
        ("b", -1): (1, 0, -r % p, 1),
    }

    def mul(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % p,
            (x[0] * y[1] + x[1] * y[3]) % p,
            (x[2] * y[0] + x[3] * y[2]) % p,
            (x[2] * y[1] + x[3] * y[3]) % p,
        )

    w = (1, 0, 0, 1)
    for gen, exp in word.letters:
        step = gens[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            w = mul(w, step)
    return mul(w, gens[("a", 1)]) == mul(gens[("b", 1)], w)


def ladder_cost(knot):
    """Estimated riley_ladder op cost of b(m, n), up to a constant factor.

    Fitted to measured op times over 1426 knots with 9 <= m <= 103: the
    symbolic W chain grows like m^3 and shrinks as |n| nears m (fewer
    repeated letters).  Residuals are about 25%.
    """
    m = knot.m
    return m**3 * ((m - abs(knot.n) + 1) / m) ** 0.75


class RileyLadder(Workload):
    """riley_data, riley_roots at three primes, curve_model: one fresh knot.

    The ladder holds every b(m, n) with m in LADDER_M.  Its rungs split the
    range of log estimated cost into LADDER_RUNGS equal parts, so one cycle
    climbs from about 2 ms to about 1 s in even steps and the op times have
    no gaps for a percentile to fall into.  A knot is never used twice in a
    process, so riley_data's cache never answers an op.
    """

    name = "riley_ladder"
    cells = tuple(range(LADDER_RUNGS))

    def setup(self):
        kd = self.kd
        lo_m, hi_m = LADDER_M
        knots = [k for k in kd.valid_knots(hi_m) if k.m >= lo_m]
        logs = {k: math.log(ladder_cost(k)) for k in knots}
        ranked = sorted(logs.values())
        lo, hi = ranked[LADDER_FLOOR], ranked[-1]
        self.rungs = [[] for _ in range(LADDER_RUNGS)]
        for k in sorted(knots, key=lambda k: (logs[k], k.m, k.n)):
            r = int((logs[k] - lo) / (hi - lo) * LADDER_RUNGS)
            self.rungs[max(0, min(LADDER_RUNGS - 1, r))].append(k)
        self.used = set()
        warm = self._op(kd.TwoBridgeKnot(13, 5), random.Random(f"{self.name}:warm-up"))
        self.check(warm, self.run(warm))

    def _op(self, knot, rng):
        primes = list(SCAN_PRIMES)
        rng.shuffle(primes)
        return {"label": str(knot), "knot": knot, "primes": primes, "nonroot": rng.random()}

    def make_op(self, i):
        cycle, rung = divmod(i, len(self.cells))
        rng = self.rng(i)
        # the cell's rung, or the nearest rung with an unused knot
        for r in sorted(range(len(self.rungs)), key=lambda r: abs(r - rung)):
            free = [k for k in self.rungs[r] if k not in self.used]
            if free:
                knot = free[menu_index(cycle, len(free), rng)]
                self.used.add(knot)
                return self._op(knot, rng)
        raise Exhausted("every knot of the ladder has been used")

    @contextmanager
    def fresh_caches(self):
        # riley_data looks up the lru_cache'd _riley_data at call time
        riley = self.kd.riley
        cached = riley._riley_data
        riley._riley_data = lru_cache(maxsize=None)(cached.__wrapped__)
        try:
            yield
        finally:
            riley._riley_data = cached

    def run(self, op):
        kd, knot = self.kd, op["knot"]
        data = kd.riley_data(knot)
        roots = {}
        for p in op["primes"]:
            if data.disc % p:
                roots[p] = kd.riley_roots(knot, p)
                if len(roots) == PRIMES_PER_OP:
                    break
        return data, roots, kd.curve_model(knot)

    def check(self, op, out):
        kd, knot = self.kd, op["knot"]
        data, roots, model = out
        fails = []
        if data.Phi2.leading() not in (1, -1):
            fails.append(f"{knot}: leading coefficient of Phi(2,u) is not +-1")
        if data.disc % 2 == 0:
            fails.append(f"{knot}: even discriminant")
        if len(roots) != PRIMES_PER_OP:
            fails.append(f"{knot}: roots at {len(roots)} primes")
        word = kd.schubert_word(knot)
        for p, rs in roots.items():
            field = kd.PrimeField(p)
            two = field.from_int(2)
            for r in rs:
                if not relator_holds(word, p, r):
                    fails.append(f"{knot}: root {r} mod {p} fails the relator")
                try:
                    kd.riley_rep(knot, field.one(), field.from_int(r))
                except kd.KnotDeformError as exc:
                    fails.append(f"{knot}: riley_rep at root {r} mod {p}: {exc!r}")
                if not kd.contains_point(model, (two, field.from_int(2 + r)), "irreducible"):
                    fails.append(f"{knot}: root {r} mod {p} is off the curve")
            others = [u for u in range(1, p) if u not in rs]
            u = others[int(op["nonroot"] * len(others))]
            if relator_holds(word, p, u):
                fails.append(f"{knot}: non-root {u} mod {p} satisfies the relator")
            if kd.contains_point(model, (two, field.from_int(2 + u)), "any"):
                fails.append(f"{knot}: non-root {u} mod {p} is on the curve")
        dig = digest(
            str(knot), op["primes"], data.Phi2.coeffs, data.disc, data.l,
            sorted(data.Phi.terms.items()),
            sorted((p, sorted(rs)) for p, rs in roots.items()),
            sorted(model.irreducible_factor.terms.items()),
        )
        return fails, dig


# --- deform_lift ----------------------------------------------------------

RESIDUE_PRIMES = (7, 11, 13)
MENU_MAX_M = 21
TRUNCATIONS = {"padic": (4, 8), "hbar": (3, 6)}
# One cycle.  Rational ops add ramified_check at s-precision 2N, hbar ops
# add specialize + trace_table + check_axioms_P; the cheap cells repeat so
# that a run holds enough ops for a steady tail percentile.
DEFORM_CELLS = (
    ("padic", 8), ("hbar", 8), ("rational", 8), ("padic", 16),
    ("hbar", 16), ("padic", 8), ("rational", 16), ("padic", 32),
    ("hbar", 8), ("padic", 16), ("hbar", 32), ("rational", 32),
    ("padic", 64),
)


class DeformLift(Workload):
    """deformation_data + character_check on a seeded (knot, ring, beta, N).

    The menu is built in set-up, which also warms riley_data for every
    menu knot: residual roots of Phi(2,u) at p in RESIDUE_PRIMES for the
    p-adic and h-adic rings, and the simple roots u = +-1 of Phi(2,u) for
    the rationals.
    """

    name = "deform_lift"
    cells = DEFORM_CELLS

    def setup(self):
        kd = self.kd
        residual, rational = [], []
        for knot in kd.valid_knots(MENU_MAX_M):
            data = kd.riley_data(knot)
            for p in RESIDUE_PRIMES:
                if data.disc % p:
                    residual += [(knot, p, r) for r in sorted(kd.riley_roots(knot, p))]
            slope = data.Phi2.derivative()
            rational += [
                (knot, 0, b) for b in (1, -1)
                if data.Phi2.evaluate(b) == 0 and slope.evaluate(b) != 0
            ]

        def key(entry):  # cost grows with m and falls as |n| nears m
            knot, p, beta = entry
            return knot.m, abs(knot.n), knot.n, p, beta

        self.menus = {
            "padic": sorted(residual, key=key),
            "hbar": sorted(residual, key=key),
            "rational": sorted(rational, key=key),
        }
        for family in ("padic", "hbar", "rational"):
            warm = self._op(family, 8, self.menus[family][0], 0)
            self.check(warm, self.run(warm))

    def _op(self, family, N, entry, parity):
        knot, p, beta = entry
        if family == "rational":
            spec = "rational"
        else:
            spec = f"{family}:{p}:{TRUNCATIONS[family][parity % 2]}"
        return {"label": f"{knot} {spec} beta={beta} N={N}", "family": family, "knot": knot,
                "ring": self.kd.make_ring(spec), "beta": beta, "N": N}

    def make_op(self, i):
        cycle, cell = divmod(i, len(self.cells))
        family, N = self.cells[cell]
        # The family's cells of one cycle start at evenly spaced menu
        # quantiles, so every cycle, not only many, spans the menu.
        same = [c for c, (f, _) in enumerate(self.cells) if f == family]
        menu = self.menus[family]
        at = menu_index(cycle, len(menu), self.rng(i), offset=same.index(cell) / len(same))
        return self._op(family, N, menu[at], cycle + cell)

    def run(self, op):
        kd, knot, ring, N = self.kd, op["knot"], op["ring"], op["N"]
        beta = kd.residue_field(ring).from_int(op["beta"])
        data = kd.deformation_data(knot, beta, ring, N)
        results = {"character": kd.character_check(knot, data.A, data.B)}
        if op["family"] == "rational":
            results["ramified"] = kd.ramified_check(data.u, 2 * N)
        elif op["family"] == "hbar":
            x0 = kd.specialization_point(ring, 1)
            rho = kd.specialize(data.A, data.B, x0, knot)
            results["specialized"] = rho
            results["axioms_P"] = kd.check_axioms_P(kd.trace_table(rho, kd.WordSet.ball(2)))
        return data, results

    def check(self, op, out):
        data, results = out
        where = op["label"]
        checks = list(data.verification) + [results["character"]]
        checks += results.get("ramified", [])
        fails = [f"{where}: {c.name} fails" for c in checks if not c.passed]
        if len(data.verification) != 4:
            fails.append(f"{where}: {len(data.verification)} deformation checks")
        parts = [where, data.to_json(), [c.to_json() for c in checks]]
        if "axioms_P" in results:
            report = results["axioms_P"]
            if not report.passed:
                fails.append(f"{where}: specialized trace table fails (P)")
            rho = results["specialized"]
            parts += [report.to_json(), repr(rho.images["a"]), repr(rho.images["b"])]
        return fails, digest(*parts)


# --- trace_battery --------------------------------------------------------

SCALAR_RINGS = ("fp:7", "fp:10007", f"fp:{2**31 - 1}", "rational")
WORD_LENGTHS = range(4, 11)
WORDS_PER_LENGTH = 6


def draw_scalar(rng, ring):
    """Uniform over F_p; over Q a small fraction n/d, |n| <= 9, 1 <= d <= 9.

    The library's fuzz helpers (pseudorep.random_sl2, mutate_table) list
    every ring element first, which never ends for p = 2^31 - 1.
    """
    if ring.is_finite:
        return ring.from_int(rng.randrange(ring.p))
    return ring(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def draw_sl2(rng, kd, ring):
    while True:
        a, b, c = (draw_scalar(rng, ring) for _ in range(3))
        if a.is_unit():
            return kd.SL2Matrix(((a, b), (c, (ring.one() + b * c) * a.inverse())))


def draw_word(rng, kd, length):
    """A freely reduced word of the given letter count."""
    codes = []
    while len(codes) < length:
        c = rng.randrange(4)  # a, b, a^-1, b^-1
        if not codes or c != (codes[-1] + 2) % 4:
            codes.append(c)
    return kd.FreeWord([("ab"[c % 2], 1 if c < 2 else -1) for c in codes])


class TraceBattery(Workload):
    """Fricke trace reduction and pseudo-representation checks on scalars.

    With a fresh TraceReducer, reduce a batch of random words, evaluate
    each trace polynomial at (tr a, tr b, tr ab) and compare it with the
    matrix trace; then build the trace table on WordSet.ball(2) and run
    the equivalence harness on it and on a copy with one entry changed.
    """

    name = "trace_battery"
    cells = SCALAR_RINGS

    def setup(self):
        kd = self.kd
        self.rings = [kd.make_ring(spec) for spec in SCALAR_RINGS]
        self.window = len(kd.WordSet.ball(2))
        for cell in range(len(self.cells)):
            warm = self._op(cell, random.Random(f"{self.name}:warm-up:{cell}"))
            self.check(warm, self.run(warm))

    def _op(self, cell, rng):
        kd, ring = self.kd, self.rings[cell]
        delta = draw_scalar(rng, ring)
        while delta.is_zero():
            delta = draw_scalar(rng, ring)
        return {
            "label": ring.spec_string(),
            "ring": ring,
            "a": draw_sl2(rng, kd, ring),
            "b": draw_sl2(rng, kd, ring),
            "words": [draw_word(rng, kd, n) for n in WORD_LENGTHS
                      for _ in range(WORDS_PER_LENGTH)],
            "mutate_at": rng.randrange(self.window),
            "delta": delta,
        }

    def make_op(self, i):
        return self._op(i % len(self.cells), self.rng(i))

    def run(self, op):
        kd, ring = self.kd, op["ring"]
        rho = kd.Representation(ring, op["a"], op["b"])
        x, z, y = (rho.trace_of(kd.FreeWord.from_string(w)) for w in ("a", "b", "a b"))
        reducer = kd.TraceReducer()
        rows = []
        for word in op["words"]:
            poly = reducer.reduce(word)
            if ring.is_finite:
                value = ring.from_int(poly.evaluate_int(x.value, z.value, y.value, ring.p))
            else:
                value = poly.evaluate(x, z, y)
            rows.append((poly, value, rho.trace_of(word)))
        table = kd.trace_table(rho, kd.WordSet.ball(2))
        i = op["mutate_at"]
        mutated = table.with_value(i, table.values[i] + op["delta"])
        return rows, kd.equivalence_harness(table), kd.equivalence_harness(mutated)

    def check(self, op, out):
        rows, verdict, mutated = out
        where = op["label"]
        fails = [
            f"{where}: polynomial gives {value}, matrix trace {trace} for {word}"
            for word, (_, value, trace) in zip(op["words"], rows)
            if value != trace
        ]
        if not (verdict.p_passed and verdict.c_passed):
            fails.append(f"{where}: the true trace table fails (P) or (C)")
        # Changing T(w) breaks the (C2) instance (w, 1) for any nonzero delta,
        # so both families must reject the mutated table.
        if mutated.p_passed or mutated.c_passed:
            fails.append(f"{where}: the mutated table passes (P) or (C)")
        dig = digest(
            where, repr(op["a"]), repr(op["b"]),
            [(w.compact(), sorted(poly.terms.items()), str(v))
             for w, (poly, v, _) in zip(op["words"], rows)],
            verdict.to_json(), mutated.to_json(),
        )
        return fails, dig


WORKLOADS = {w.name: w for w in (RileyLadder, DeformLift, TraceBattery)}
