import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from knotdeform import _kernels
from knotdeform.charvariety import TracePolynomial

P61 = 2**61 - 1
PACKAGE = Path(_kernels.__file__).parent


def test_poly_mul_2_basics():
    a = {(1, 0): 1, (-1, 0): 1}
    assert _kernels.poly_mul_2(a, a) == {(2, 0): 1, (0, 0): 2, (-2, 0): 1}
    assert _kernels.poly_mul_2(a, {}) == {}
    # exact cancellation deletes the key
    assert _kernels.poly_mul_2({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (1, 0): 1}) == {
        (0, 0): 1,
        (2, 0): -1,
    }


def test_mat2_mul():
    ident = (1, 0, 0, 1)
    m = (1, 2, 3, 4)
    assert _kernels.mat2_mul(m, ident, 0) == m
    assert _kernels.mat2_mul(m, m, 0) == (7, 10, 15, 22)
    assert _kernels.mat2_mul(m, m, 5) == (2, 0, 0, 2)
    fr = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(2))
    assert _kernels.mat2_mul(fr, fr, 0) == (Fraction(1, 4), 0, 0, 4)


def test_eval_poly3_handles_negative_coefficients():
    items = (((1, 1, 1), -1), ((0, 0, 0), 5))
    powx = (1, 3)
    powz = (1, 4)
    powy = (1, 2)
    assert _kernels.eval_poly3(items, powx, powz, powy, 7) == (5 - 24) % 7
    assert _kernels.eval_poly3(items, powx, powz, powy, 0) == -19


def test_61_bit_residues_match_exact_arithmetic():
    # products of residues mod 2^61 - 1 overflow 64-bit integers
    assert TracePolynomial({(1, 1, 0): 1}).evaluate_int(P61 - 1, P61 - 1, 0, P61) == 1
    top = (P61 - 1,) * 4
    assert _kernels.mat2_mul(top, top, P61) == (2, 2, 2, 2)
    rng = random.Random(61)
    poly = TracePolynomial({
        (rng.randrange(5), rng.randrange(5), rng.randrange(5)):
            rng.randrange(-(10**20), 10**20)
        for _ in range(30)
    })
    for _ in range(50):
        x, z, y = (rng.randrange(P61) for _ in range(3))
        exact = sum(c * x**i * z**j * y**k for (i, j, k), c in poly.terms.items())
        assert poly.evaluate_int(x, z, y, P61) == exact % P61
        a1, b1, c1, d1 = m1 = tuple(rng.randrange(P61) for _ in range(4))
        a2, b2, c2, d2 = m2 = tuple(rng.randrange(P61) for _ in range(4))
        exact = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
        assert _kernels.mat2_mul(m1, m2, P61) == tuple(v % P61 for v in exact)


def _draw(rng, kind):
    n = rng.randint(-40, 40)
    if kind == "int" or (kind == "mixed" and rng.randrange(2)):
        return n
    return Fraction(n, rng.randint(1, 30))


@pytest.mark.parametrize("kind", ["int", "mixed", "fraction"])
def test_eval_poly3_over_q_matches_a_fraction_sum(kind):
    rng = random.Random(kind)
    for _ in range(300):
        items = tuple(
            ((rng.randrange(6), rng.randrange(6), rng.randrange(6)), rng.randint(-99, 99))
            for _ in range(rng.randrange(12))
        )
        point = [_draw(rng, kind) for _ in range(3)]
        # an int 1 in front, as in a power table built up from [1]
        tables = [(1,) + tuple(v**e for e in range(1, 6)) for v in point]
        x, z, y = map(Fraction, point)
        expected = sum(
            (c * x**i * z**j * y**k for (i, j, k), c in items), Fraction(0)
        )
        got = _kernels.eval_poly3(items, *tables, 0)
        assert got == expected
        # ints stay ints; a Fraction anywhere gives a Fraction
        ints = all(type(v) is int for v in point)
        assert type(got) is (int if ints else Fraction)


@pytest.mark.parametrize("kind", ["int", "mixed", "fraction"])
def test_mat2_mul_over_q_matches_fraction_arithmetic(kind):
    rng = random.Random(kind)
    for _ in range(300):
        m1 = tuple(_draw(rng, kind) for _ in range(4))
        m2 = tuple(_draw(rng, kind) for _ in range(4))
        a1, b1, c1, d1 = map(Fraction, m1)
        a2, b2, c2, d2 = map(Fraction, m2)
        expected = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
        got = _kernels.mat2_mul(m1, m2, 0)
        assert got == expected
        ints = all(type(v) is int for v in m1 + m2)
        assert all(type(v) is (int if ints else Fraction) for v in got)


def test_power_skips_the_last_squaring():
    calls = []

    class Counted(int):
        def __mul__(self, other):
            calls.append(1)
            return Counted(int(self) * int(other))

    for k in range(40):
        calls.clear()
        assert _kernels.power(Counted(3), k, Counted(1)) == 3**k
        assert len(calls) == (k.bit_length() - 1 if k else 0) + bin(k).count("1")


def test_package_is_stdlib_only_with_no_build_step():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "knotdeform", (
                    path.name,
                    name,
                )
    built = [p.name for p in PACKAGE.iterdir() if p.suffix in (".pyx", ".c", ".so")]
    assert built == []
