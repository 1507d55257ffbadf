"""Golden CLI transcripts: argv, exit code, stdout and stderr per command.

Each record in tests/golden/ holds what one command printed when the
record was written.  The test replays every command in-process and asks
for the same exit code and the same bytes on both streams.  After a change
that is meant to alter CLI output, regenerate the records with

    PYTHONPATH=src python tests/test_golden.py --write

and list each rewritten file, with the reason, in CHANGES.md.

pseudo-check reads table files that the test writes from a fixed seed
into a temporary directory; "{tables}" stands for that directory in argv
and in the recorded output.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from knotdeform.cli import main
from knotdeform.pseudorep import WordSet, mutate_table, random_trace_table
from knotdeform.rings import PrimeField, Rationals
from knotdeform.words import FreeWord

GOLDEN = Path(__file__).parent / "golden"
TABLES = "{tables}"

# Omitted: verify-all at its defaults (several seconds, and the Tier-1
# suite already runs it).
COMMANDS = {
    # README examples
    "epsilon-5-3": ["epsilon", "5", "3"],
    "word-5-3": ["word", "5", "3"],
    "riley-3-1": ["riley", "3", "1"],
    "roots-5-3-p7": ["roots", "5", "3", "--prime", "7"],
    "charvar-5-3": ["charvar", "5", "3"],
    "charvar-5-3-json": ["charvar", "5", "3", "--json"],
    "trace-reduce-commutator": ["trace-reduce", "a b a^-1 b^-1"],
    "deform-5-3-padic-verify-json": [
        "deform", "5", "3", "--coeff", "padic:7:4", "--beta", "3", "--prec", "8",
        "--verify", "--json",
    ],
    "deform-3-1-hbar-ramified-specialize": [
        "deform", "3", "1", "--coeff", "hbar:5:3", "--beta", "m1", "--prec", "6",
        "--ramified", "10", "--specialize", "1",
    ],
    # larger knots
    "riley-25-7-json": ["riley", "25", "7", "--json"],
    "charvar-101-31-json": ["charvar", "101", "31", "--json"],
    # disc and Phi(2, u) of the largest ladder knot
    "roots-151-41-p101": ["roots", "151", "41", "--prime", "101"],
    "trace-reduce-json": ["trace-reduce", "aabAB", "--json"],
    # an 11-letter word: a deep reduction with many shared sub-words
    "trace-reduce-long": ["trace-reduce", "a b^-1 a^2 b a^-1 b^2 a^-2 b"],
    # pseudo-check on seeded tables
    "pseudo-check-pass": ["pseudo-check", f"{TABLES}/pass.json"],
    "pseudo-check-pass-json": ["pseudo-check", f"{TABLES}/pass.json", "--json"],
    "pseudo-check-mutated": ["pseudo-check", f"{TABLES}/mutated.json"],
    "pseudo-check-mutated-json": ["pseudo-check", f"{TABLES}/mutated.json", "--json"],
    "pseudo-check-window": ["pseudo-check", f"{TABLES}/window.json"],
    "pseudo-check-window-json": ["pseudo-check", f"{TABLES}/window.json", "--json"],
    "pseudo-check-rational-mutated": ["pseudo-check", f"{TABLES}/rational-mutated.json"],
    "pseudo-check-rational-mutated-json": [
        "pseudo-check", f"{TABLES}/rational-mutated.json", "--json",
    ],
    # deform over every coefficient kind
    "deform-5-3-padic-ramified-specialize-json": [
        "deform", "5", "3", "--coeff", "padic:7:4", "--beta", "5", "--prec", "6",
        "--ramified", "6", "--specialize", "2", "--verify", "--json",
    ],
    "deform-3-1-hbar-json": [
        "deform", "3", "1", "--coeff", "hbar:5:3", "--beta", "m1", "--prec", "6",
        "--ramified", "8", "--specialize", "1", "--verify", "--json",
    ],
    "deform-3-1-rational-verify": [
        "deform", "3", "1", "--coeff", "rational", "--beta", "-1", "--prec", "8",
        "--ramified", "6", "--verify",
    ],
    "deform-3-1-rational-json": [
        "deform", "3", "1", "--coeff", "rational", "--beta", "m1", "--prec", "5",
        "--json",
    ],
    "deform-3-1-hbar-rational": [
        "deform", "3", "1", "--coeff", "hbar:rational:3", "--beta", "m1",
        "--prec", "5", "--ramified", "4", "--specialize", "1", "--verify",
    ],
    "deform-3-1-fp-minimum-precisions": [
        "deform", "3", "1", "--coeff", "fp:7", "--beta", "m1", "--prec", "2",
        "--ramified", "2",
    ],
    "verify-all-small": ["verify-all", "--max-m", "7", "--primes", "3,5"],
    # typed domain errors (exit 1) and a usage error (exit 64)
    "error-deform-prec-1": [
        "deform", "3", "1", "--coeff", "rational", "--beta", "m1", "--prec", "1",
    ],
    "error-deform-ramified-0": [
        "deform", "3", "1", "--coeff", "rational", "--beta", "m1", "--prec", "4",
        "--ramified", "0",
    ],
    # past the caps of deform (cli.MAX_DEFORM_PREC, cli.MAX_RAMIFIED_PREC),
    # each raised before the ring spec is read
    "error-deform-prec-past-cap": [
        "deform", "3", "1", "--coeff", "rational", "--beta", "m1", "--prec", "257",
    ],
    "error-deform-ramified-past-cap": [
        "deform", "3", "1", "--coeff", "padic:9:2", "--beta", "m1", "--prec", "4",
        "--ramified", "257",
    ],
    # past the caps on the knot (cli.MAX_KNOT_M) and on a ring's truncation
    # M (cli.MAX_RING_M), each raised before any work
    "error-riley-knot-past-cap": ["riley", "403", "1"],
    "error-deform-ring-m-past-cap": [
        "deform", "3", "1", "--coeff", "hbar:rational:9", "--beta", "m1",
        "--prec", "4",
    ],
    "error-deform-beta-0": [
        "deform", "3", "1", "--coeff", "rational", "--beta", "0", "--prec", "4",
    ],
    "error-deform-beta-1-over-0": [
        "deform", "3", "1", "--coeff", "rational", "--beta", "1/0", "--prec", "4",
    ],
    "error-deform-beta-x-fp": [
        "deform", "3", "1", "--coeff", "fp:7", "--beta", "x", "--prec", "4",
    ],
    "error-deform-non-residual-beta": [
        "deform", "5", "3", "--coeff", "padic:7:4", "--beta", "2", "--prec", "4",
    ],
    "error-deform-bad-ring": [
        "deform", "3", "1", "--coeff", "padic:9:2", "--beta", "1", "--prec", "4",
    ],
    "error-roots-disc": ["roots", "5", "3", "--prime", "3"],
    "error-trace-reduce-syntax": ["trace-reduce", "a c"],
    # past the letter cap of trace reduction (charvariety.MAX_TRACE_LETTERS)
    "error-trace-reduce-too-long": ["trace-reduce", "a^600"],
    # past the caps of verify-all (cli.MAX_BATTERY_M, cli.MAX_BATTERY_PRIME),
    # and a prime it cannot use: each raised before any battery runs
    "error-verify-all-max-m-past-cap": ["verify-all", "--max-m", "77"],
    "error-verify-all-prime-past-cap": ["verify-all", "--primes", "3,223"],
    "error-verify-all-prime-0": ["verify-all", "--primes", "0"],
    "error-pseudo-check-missing-file": ["pseudo-check", f"{TABLES}/missing.json"],
    "error-pseudo-check-not-json": ["pseudo-check", f"{TABLES}/not-json.json"],
    "error-pseudo-check-no-entries": ["pseudo-check", f"{TABLES}/no-entries.json"],
    "error-pseudo-check-bad-value": ["pseudo-check", f"{TABLES}/bad-value.json"],
    "error-pseudo-check-repeated-word": [
        "pseudo-check", f"{TABLES}/repeated-word.json",
    ],
    "error-pseudo-check-hbar-exponent": [
        "pseudo-check", f"{TABLES}/hbar-exponent.json",
    ],
    "usage-even-m": ["roots", "4", "1", "--prime", "7"],
}


# table files that pseudo-check must reject with one "error:" line
MALFORMED = {
    "not-json": "{not json",
    "no-entries": '{"ring": "fp:7"}',
    "bad-value": '{"ring": "fp:7", "entries": [["b", "x"]]}',
    "repeated-word": '{"ring": "fp:7", "entries": [["a b", "1"], ["ab", "2"]]}',
    # h^5 is zero in F_5[h]/h^3: the value is not stated exactly
    "hbar-exponent": '{"ring": "hbar:5:3", "entries": [["a", "1 + h^5"]]}',
}


def write_tables(directory):
    """The pseudo-check inputs, all drawn from one seed."""
    rng = random.Random(12)
    good = random_trace_table(rng, PrimeField(101), WordSet.ball(2))
    # not closed under inverses: (C2) at (a, a b) reads a^-1 . a b = b
    window = WordSet([FreeWord.from_string(w) for w in ("a", "b", "a b", "a^2 b")])
    tables = {
        "pass": good,
        "mutated": mutate_table(rng, good),
        "window": random_trace_table(rng, Rationals(), window),
    }
    # drawn after the others, so that their tables stay the same
    rational = random_trace_table(rng, Rationals(), WordSet.ball(2))
    tables["rational-mutated"] = mutate_table(rng, rational)
    for name, table in tables.items():
        (directory / f"{name}.json").write_text(json.dumps(table.to_json()))
    for name, text in MALFORMED.items():
        (directory / f"{name}.json").write_text(text)


def replay(argv, directory):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    argv = [a.replace(TABLES, str(directory)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, *(s.getvalue().replace(str(directory), TABLES) for s in (out, err))


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tables")
    write_tables(directory)
    return directory


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_transcript(name, tables):
    record = json.loads((GOLDEN / f"{name}.json").read_text())
    assert record["argv"] == COMMANDS[name]
    code, out, err = replay(record["argv"], tables)
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])


def write_records():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_tables(directory)
        for name, argv in COMMANDS.items():
            code, out, err = replay(argv, directory)
            record = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
            (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_records()
