"""Command-line front end.

One subcommand per pipeline stage plus a batch verification mode:

    epsilon m n              sign sequence of the Schubert relator
    word m n                 the relator word itself
    riley m n                Riley polynomial, residual polynomial, disc
    roots m n --prime p      residual roots in F_p
    charvar m n              character-variety curve factors
                             (riley, roots, charvar and deform take knots
                             with m at most MAX_KNOT_M = 401)
    trace-reduce WORD        trace of a word as a polynomial in x, z, y
                             (at most MAX_TRACE_LETTERS = 38 letters)
    pseudo-check TABLE.json  axiom checkers on a stored trace table
    deform m n --coeff ...   explicit universal deformation (+ checks;
                             --prec at most MAX_DEFORM_PREC = 256,
                             --ramified at most MAX_RAMIFIED_PREC = 256,
                             ring truncation M at most MAX_RING_M = 8)
    verify-all               the whole invariant battery (knots up to
                             MAX_BATTERY_M = 75, primes up to
                             MAX_BATTERY_PRIME = 211)

Output is deterministic: fixed term order, fixed JSON key order, all
numbers as decimal strings, randomness only through --seed (default 0).
Exit codes: 0 ok, 1 domain error, 2 verification failure, 64 usage.
"""

import argparse
import json
import random
import sys

from .charvariety import (
    MAX_TRACE_LETTERS,
    TracePolynomial,
    TraceReducer,
    all_reduced_words,
    curve_model,
)
from .deform import (
    character_check,
    deformation_data,
    ramified_check,
    specialization_point,
    specialize,
)
from .errors import (
    BatteryTooLarge,
    InvalidKnot,
    KnotDeformError,
    KnotTooLarge,
    MalformedTable,
    PrecisionTooLarge,
)
from .polynomials import expand_in_t
from .pseudorep import (
    HarnessVerdict,
    PseudoRepTable,
    WordSet,
    check_axioms_C,
    check_axioms_P,
    equivalence_harness,
    mutate_table,
    random_trace_table,
    trace_table,
)
from .riley import c_matrix, d_matrix, riley_data, riley_roots, valid_knots
from .rings import (
    HbarTruncRing,
    PadicTruncRing,
    PrimeField,
    Rationals,
    make_ring,
    residue_field,
    teichmuller_lift,
)
from .words import (
    FreeWord,
    TwoBridgeKnot,
    epsilon_sequence,
    evaluate_word,
    schubert_word,
)

USAGE_EXIT = 64

# The largest verify-all inputs.  Measured on 2 vCPUs (CPython 3.11): the
# factoring battery scans p^2 points per prime and knot, so --primes 211
# takes 7.9 s; --max-m 75 takes 6.6 s, and the time grows about as m^4.5
# (1.7 s at 51, 25 s at 101).
MAX_BATTERY_M = 75
MAX_BATTERY_PRIME = 211

# The largest deform precisions.  The slowest ring is hbar:rational:M, and
# its time grows with M and with the knot.  Measured on 2 vCPUs (CPython
# 3.11) for the trefoil over hbar:rational:3: --prec 256 takes 3.5 s, and
# with --ramified 256 6.3 s (18.6 s at --ramified 512); over Q, --prec 256
# --ramified 256 takes 0.8 s.
MAX_DEFORM_PREC = 256
MAX_RAMIFIED_PREC = 256

# The largest truncation M of padic:<p>:<M>, hbar:<p>:<M> and
# hbar:rational:<M>.  Measured as above, the trefoil at --prec 256
# --ramified 256 takes 7.6 s over hbar:rational:3, 12.0 s at M = 4, 17.8 s
# at M = 6 and 29.6 s at M = 8; padic:13:1024 takes 10.2 s.
MAX_RING_M = 8

# The largest m of a knot b(m, n) for riley, roots, charvar and deform.
# Measured as above, the time grows about as m^4: charvar 401 41 takes
# 4.2 s and 90 MiB, charvar 501 41 11.6 s and 157 MiB.
MAX_KNOT_M = 401


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style exit code 64 for usage problems."""

    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_scalar(text):
    """Accept '-1' and the 'm1' escape for negative integers/fractions."""
    text = text.strip()
    if text.startswith("m") and text[1:].replace("/", "").isdigit():
        text = "-" + text[1:]
    return text


def build_parser():
    parser = _Parser(
        prog="knotdeform",
        description="Exact Riley polynomials, character varieties, and "
        "universal deformations of 2-bridge knot groups.",
        epilog="Negative values for --beta may be written with the 'm' "
        "escape (m1 means -1) to avoid flag ambiguity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def knot_args(p, capped=True):
        p.add_argument("m", type=int,
                       help=f"at most {MAX_KNOT_M}" if capped else None)
        p.add_argument("n", type=int)

    knot_args(sub.add_parser("epsilon", help="sign sequence of the relator"),
              capped=False)
    knot_args(sub.add_parser("word", help="Schubert relator word"), capped=False)

    p = sub.add_parser("riley", help="Riley polynomial data")
    knot_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("roots", help="residual roots over F_p")
    knot_args(p)
    p.add_argument("--prime", type=int, required=True)

    p = sub.add_parser("charvar", help="character variety curve")
    knot_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "trace-reduce",
        help=f"trace polynomial of a word of at most {MAX_TRACE_LETTERS} letters",
    )
    p.add_argument("word", nargs="+")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("pseudo-check", help="axiom check a stored table")
    p.add_argument("table", help="path to a PseudoRepTable JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("deform", help="explicit universal deformation")
    knot_args(p)
    p.add_argument("--coeff", required=True,
                   help='"rational" | "fp:<p>" | "padic:<p>:<M>" | "hbar:<p>:<M>"'
                   f' | "hbar:rational:<M>", with M at most {MAX_RING_M}')
    p.add_argument("--beta", required=True,
                   help="residual root in the residue field")
    p.add_argument("--prec", type=int, required=True,
                   help=f"z-precision N, at most {MAX_DEFORM_PREC}")
    p.add_argument("--ramified", type=int, metavar="NS",
                   help="also verify the sqrt(x-2) conjugation to s-precision NS,"
                   f" at most {MAX_RAMIFIED_PREC}")
    p.add_argument("--specialize", type=int, metavar="N_POW",
                   help="specialize at x0 = (1+pi)^n + (1+pi)^-n")
    p.add_argument("--verify", action="store_true",
                   help="exit 2 unless every check passes")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-all", help="run the full invariant battery")
    p.add_argument("--max-m", type=int, default=25,
                   help=f"knots b(m, n) with m at most {MAX_BATTERY_M}")
    p.add_argument("--primes", default="3,5,7,11",
                   help=f"comma-separated odd primes, each at most {MAX_BATTERY_PRIME}")
    p.add_argument("--seed", type=int, default=0)
    return parser


def parse_args(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "m"):
        try:
            args.knot = TwoBridgeKnot(args.m, args.n)
        except InvalidKnot as exc:
            parser.error(str(exc))
    if args.command == "verify-all":
        try:
            args.prime_list = [int(tok) for tok in args.primes.split(",") if tok]
        except ValueError:
            parser.error(f"bad prime list {args.primes!r}")
    return args


def _emit(out, obj, as_json):
    if as_json:
        out.write(json.dumps(obj, indent=2) + "\n")
    else:
        out.write(obj + "\n")


# --- subcommand bodies ---

def _cmd_epsilon(args, out):
    out.write(" ".join(str(e) for e in epsilon_sequence(args.knot)) + "\n")
    return 0


def _cmd_word(args, out):
    out.write(str(schubert_word(args.knot)) + "\n")
    return 0


def _capped_knot(args):
    """args.knot, or KnotTooLarge past MAX_KNOT_M."""
    if args.m > MAX_KNOT_M:
        raise KnotTooLarge(
            f"{args.command} takes m at most {MAX_KNOT_M}, got {args.m}"
        )
    return args.knot


def _ring_truncation(spec):
    """M of a padic:<p>:<M> or hbar:<p>:<M> spec; None for any other spec,
    and for an M that is no integer (make_ring refuses it)."""
    parts = spec.split(":")
    if parts[0] in ("padic", "hbar") and len(parts) == 3:
        try:
            return int(parts[2])
        except ValueError:
            pass
    return None


def _cmd_riley(args, out):
    data = riley_data(_capped_knot(args))
    if args.json:
        obj = {
            "m": str(args.knot.m),
            "n": str(args.knot.n),
            "epsilon": [str(e) for e in epsilon_sequence(args.knot)],
            "word": str(schubert_word(args.knot)),
            "phi": data.phi.text(),
            "l": str(data.l),
            "Phi": data.Phi.to_json(),
            "Phi2": {"var": "u", "coeffs": [str(c) for c in data.Phi2.coeffs]},
            "disc": str(data.disc),
        }
        _emit(out, obj, True)
    else:
        out.write(
            f"Phi(x,u) = {data.Phi.text()}; "
            f"Phi(2,u) = {data.Phi2.text()}; disc = {data.disc}\n"
        )
    return 0


def _cmd_roots(args, out):
    roots = sorted(riley_roots(_capped_knot(args), args.prime))
    out.write("[" + ", ".join(str(r) for r in roots) + "]\n")
    return 0


def _cmd_charvar(args, out):
    model = curve_model(_capped_knot(args))
    if args.json:
        obj = {
            "m": str(args.knot.m),
            "n": str(args.knot.n),
            "reducible": model.reducible_factor.to_json(),
            "irreducible": model.irreducible_factor.to_json(),
            "product": model.product.to_json(),
        }
        _emit(out, obj, True)
    else:
        out.write(
            f"({model.reducible_factor.text()})"
            f"*({model.irreducible_factor.text()}) = 0\n"
        )
    return 0


def _cmd_trace_reduce(args, out):
    word = FreeWord.from_string(" ".join(args.word))
    poly = TraceReducer().reduce(word)
    if args.json:
        _emit(out, {"word": str(word), "trace": poly.to_json()}, True)
    else:
        out.write(poly.text() + "\n")
    return 0


def _cmd_pseudo_check(args, out):
    with open(args.table, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise MalformedTable(f"{args.table} is not JSON ({exc})") from None
    table = PseudoRepTable.from_json(obj)
    verdict = HarnessVerdict(check_axioms_P(table), check_axioms_C(table))
    if args.json:
        _emit(out, verdict.to_json(), True)
    else:
        for rep in (verdict.p_report, verdict.c_report):
            counts = ", ".join(f"{k}:{v}" for k, v in sorted(rep.checked.items()))
            result = "pass" if rep.passed else "FAIL"
            out.write(f"({rep.family}) {result} [{counts}]\n")
            for axiom, witnesses in rep.violations:
                ws = ", ".join(str(w) for w in witnesses)
                out.write(f"  violated {axiom} at ({ws})\n")
    return 0 if verdict.p_passed and verdict.c_passed else 2


def _cmd_deform(args, out):
    knot = _capped_knot(args)
    if args.prec > MAX_DEFORM_PREC:
        raise PrecisionTooLarge(
            f"deform takes --prec at most {MAX_DEFORM_PREC}, got {args.prec}"
        )
    if args.ramified is not None and args.ramified > MAX_RAMIFIED_PREC:
        raise PrecisionTooLarge(
            f"deform takes --ramified at most {MAX_RAMIFIED_PREC}, "
            f"got {args.ramified}"
        )
    M = _ring_truncation(args.coeff)
    if M is not None and M > MAX_RING_M:
        raise PrecisionTooLarge(
            f"deform takes a ring truncation M of at most {MAX_RING_M}, got {M}"
        )
    ring = make_ring(args.coeff)
    beta = residue_field(ring).parse_value(_parse_scalar(args.beta))
    data = deformation_data(knot, beta, ring, args.prec)
    checks = list(data.verification)
    checks.append(character_check(knot, data.A, data.B))
    extra = {}
    if args.ramified is not None:
        ram = ramified_check(data.u, args.ramified)
        checks.extend(ram)
        extra["ramified"] = [c.to_json() for c in ram]
    if args.specialize is not None:
        x0 = specialization_point(ring, args.specialize)
        rho = specialize(data.A, data.B, x0, knot=knot)
        extra["specialized"] = {
            "x0": str(x0),
            "a": [[str(e) for e in row] for row in rho.images["a"].entries],
            "b": [[str(e) for e in row] for row in rho.images["b"].entries],
        }
    ok = all(c.passed for c in checks)
    if args.json:
        obj = data.to_json()
        obj["verification"] = [c.to_json() for c in checks]
        obj.update(extra)
        _emit(out, obj, True)
    else:
        out.write(f"u(x) = {data.u.text()}\n")
        out.write(f"v(x) = {data.v.text()}\n")
        for c in checks:
            verdict = "pass" if c.passed else "FAIL"
            out.write(f"{c.name}: {verdict} (precision {c.precision})\n")
        for key, val in extra.items():
            out.write(f"{key}: {json.dumps(val)}\n")
    if args.verify and not ok:
        return 2
    return 0


# --- verify-all battery ---

def _battery_epsilon(max_m):
    count = 0
    for knot in valid_knots(max_m):
        eps = epsilon_sequence(knot)
        m = knot.m
        for i in range(1, m):
            if eps[i - 1] != eps[m - i - 1]:
                return False, f"palindrome fails at {knot}"
        word = schubert_word(knot)
        if len(word) != m - 1:
            return False, f"word length wrong at {knot}"
        count += 1
    return True, f"{count} knots, palindrome and word shape"


def _battery_residual(max_m):
    count = 0
    for knot in valid_knots(max_m):
        data = riley_data(knot)
        if data.Phi2.leading() not in (1, -1):
            return False, f"leading coefficient not a unit at {knot}"
        if data.disc % 2 == 0:
            return False, f"even discriminant at {knot}"
        count += 1
    return True, f"{count} knots, unit leading coefficient and odd disc"


def _battery_roundtrip(max_m):
    count = 0
    for knot in valid_knots(max_m):
        data = riley_data(knot)
        if expand_in_t(data.Phi, data.l) != data.phi:
            return False, f"Phi(t+1/t,u) != t^l phi at {knot}"
        count += 1
    return True, f"{count} knots, Phi(t+1/t,u) = t^l phi"


def factoring_battery(knots, primes):
    """Residual-root vanishing iff matrix relator identity, exhaustively."""
    checked = 0
    for m, n in knots:
        knot = TwoBridgeKnot(m, n)
        data = riley_data(knot)
        for p in primes:
            if data.disc % p == 0:
                continue
            field = PrimeField(p)
            word = schubert_word(knot)
            for a_val in range(1, p):
                alpha = field(a_val)
                ca = c_matrix(alpha)
                x = alpha + alpha.inverse()
                for b_val in range(p):
                    beta = field(b_val)
                    db = d_matrix(alpha, beta)
                    w = evaluate_word(word, ca, db)
                    vanishes = data.Phi.evaluate({"x": x, "u": beta}).is_zero()
                    factors = (w * ca) == (db * w)
                    if vanishes != factors:
                        return False, f"mismatch at {knot}, p={p}, ({a_val},{b_val})"
                    checked += 1
    return True, f"{checked} pairs, vanishing iff relator factors"


def trace_oracle_battery(rng, primes, pairs_per_prime, q_pairs, max_letters):
    """Reduced polynomial evaluation against direct matrix traces."""
    words = all_reduced_words(max_letters)
    reducer = TraceReducer()
    polys = [reducer.reduce(w) for w in words]
    checked = 0

    def run_pairs(ring, npairs):
        nonlocal checked
        from .pseudorep import random_sl2

        for _ in range(npairs):
            ma = random_sl2(rng, ring)
            mb = random_sl2(rng, ring)
            x = ma.trace()
            z = mb.trace()
            y = (ma * mb).trace()
            for w, poly in zip(words, polys):
                if evaluate_word(w, ma, mb).trace() != poly.evaluate(x, z, y):
                    return False
                checked += 1
        return True

    for p in primes:
        if not run_pairs(PrimeField(p), pairs_per_prime):
            return False, "trace mismatch over F_p"
    if not run_pairs(Rationals(), q_pairs):
        return False, "trace mismatch over Q"
    commutator = reducer.reduce("a b a^-1 b^-1")
    expected = TracePolynomial(
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 1): -1, (0, 0, 0): -2}
    )
    if commutator != expected:
        return False, "commutator trace polynomial wrong"
    return True, f"{checked} word evaluations, plus commutator identity"


def pseudo_battery(rng, primes, tables_per_ring, q_tables):
    """Seeded trace tables and mutations; (P) and (C) verdicts must agree."""
    window = WordSet.ball(2)
    rings = [PrimeField(p) for p in primes] + [Rationals()]
    counts = [tables_per_ring] * len(primes) + [q_tables]
    total = 0
    for ring, n_tables in zip(rings, counts):
        for i in range(n_tables):
            table = random_trace_table(rng, ring, window)
            if i % 2:
                table = mutate_table(rng, table)
            verdict = equivalence_harness(table)
            if not verdict.fully_covered:
                return False, "window lost full coverage"
            if not verdict.agree:
                return False, f"verdict disagreement over {ring}"
            if i % 2 == 0 and not (verdict.p_passed and verdict.c_passed):
                return False, f"trace table rejected over {ring}"
            total += 1
    return True, f"{total} tables, (P) verdict == (C) verdict"


def _battery_teichmuller():
    for p in (3, 5, 7, 11, 13):
        field = PrimeField(p)
        for M in (1, 2, 3):
            ring = PadicTruncRing(p, M)
            lifts = {}
            for a in field.elements():
                w = teichmuller_lift(a, M)
                lifts[a.value] = w
                if w.residue() != a or w**p != w:
                    return False, f"lift not multiplicative-fixed at p={p}, M={M}"
            for a in field.elements():
                for b in field.elements():
                    if lifts[a.value] * lifts[b.value] != lifts[(a * b).value]:
                        return False, f"lift not multiplicative at p={p}, M={M}"
            if ring.from_int(2).is_unit() is False:
                return False, "2 not a unit"
    return True, "p <= 13, M <= 3 exhaustive multiplicativity"


def _battery_deformations():
    q = Rationals()
    trefoil = TwoBridgeKnot(3, 1)
    data = deformation_data(trefoil, q(-1), q, 10)
    if not data.passed:
        return False, "trefoil deformation checks failed"
    if [c.value for c in data.u.coeffs[:3]] != [-1, -4, -1]:
        return False, "trefoil u(x) is not 3 - x^2"
    if not character_check(trefoil, data.A, data.B).passed:
        return False, "trefoil character not on curve"
    ram = ramified_check(data.u, 10)
    if not all(c.passed for c in ram):
        return False, "trefoil ramified conjugation failed"

    fig8 = TwoBridgeKnot(5, 3)
    ring = PadicTruncRing(7, 4)
    d8 = deformation_data(fig8, PrimeField(7)(3), ring, 6)
    if not d8.passed:
        return False, "figure-eight deformation checks failed"
    if not character_check(fig8, d8.A, d8.B).passed:
        return False, "figure-eight character not on curve"

    hring = HbarTruncRing(PrimeField(5), 3)
    dh = deformation_data(trefoil, PrimeField(5)(-1), hring, 6)
    x0 = specialization_point(hring, 1)
    rho = specialize(dh.A, dh.B, x0, knot=trefoil)
    window = WordSet.ball(2)
    table = trace_table(rho, window)
    if not (check_axioms_P(table).passed and check_axioms_C(table).passed):
        return False, "specialized trace table fails axioms"
    return True, "trefoil/Q, fig8/Z7^4, hbar specialization all verified"


def _cmd_verify_all(args, out):
    primes = args.prime_list
    if args.max_m > MAX_BATTERY_M:
        raise BatteryTooLarge(
            f"verify-all takes --max-m at most {MAX_BATTERY_M}, got {args.max_m}"
        )
    for p in primes:
        if p > MAX_BATTERY_PRIME:
            raise BatteryTooLarge(
                f"verify-all takes primes at most {MAX_BATTERY_PRIME}, got {p}"
            )
        PrimeField(p)  # NotPrime or CharacteristicTwo before any battery runs
    rng = random.Random(args.seed)
    batteries = [
        ("epsilon_palindrome", lambda: _battery_epsilon(args.max_m)),
        ("residual_polynomials", lambda: _battery_residual(args.max_m)),
        ("phi_round_trip", lambda: _battery_roundtrip(args.max_m)),
        (
            "factoring_criterion",
            lambda: factoring_battery(
                [(3, 1), (5, 3), (5, 1), (7, 3)], primes
            ),
        ),
        (
            "trace_oracle",
            lambda: trace_oracle_battery(rng, primes, 10, 5, 5),
        ),
        ("pseudo_rep_harness", lambda: pseudo_battery(rng, primes, 25, 25)),
        ("teichmuller_lifts", lambda: _battery_teichmuller()),
        ("deformations", lambda: _battery_deformations()),
    ]
    all_ok = True
    width = max(len(name) for name, _ in batteries)
    for name, runner in batteries:
        ok, detail = runner()
        all_ok &= ok
        verdict = "PASS" if ok else "FAIL"
        out.write(f"{name.ljust(width)}  {verdict}  {detail}\n")
    out.write("all checks passed\n" if all_ok else "FAILURES detected\n")
    return 0 if all_ok else 2


_COMMANDS = {
    "epsilon": _cmd_epsilon,
    "word": _cmd_word,
    "riley": _cmd_riley,
    "roots": _cmd_roots,
    "charvar": _cmd_charvar,
    "trace-reduce": _cmd_trace_reduce,
    "pseudo-check": _cmd_pseudo_check,
    "deform": _cmd_deform,
    "verify-all": _cmd_verify_all,
}


def run(args, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        return _COMMANDS[args.command](args, out)
    except KnotDeformError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        err.write(f"error: {exc}\n")
        return 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
