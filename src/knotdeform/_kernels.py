"""The hot kernels: sparse products, 2x2 products, evaluation and powers.

Coefficients are arbitrary-precision ints (or Fractions) throughout, so
every result is exact; exponents are small ints.  ``mat2_mul`` and
``eval_poly3`` are the raw scalar path of the rings whose values are plain
numbers (``fp:p``, ``padic:p:M`` and ``rational``): a modulus p > 0
reduces every result, and p = 0 is exact.  With p = 0 and Fraction
entries both are homogenized: they run on integer numerators and divide
once.
"""

from fractions import Fraction
from math import lcm


def poly_mul_2(a, b):
    """Multiply sparse polynomials keyed by 2-tuples of exponents."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for (i1, j1), v1 in b.items():
        for (i0, j0), v0 in a.items():
            k = (i0 + i1, j0 + j1)
            c = out.get(k)
            if c is None:
                out[k] = v0 * v1
            else:
                c += v0 * v1
                if c:
                    out[k] = c
                else:
                    del out[k]
    return out


def poly_mul_3(a, b):
    """Multiply sparse polynomials keyed by 3-tuples of exponents."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for (i1, j1, k1), v1 in b.items():
        for (i0, j0, k0), v0 in a.items():
            k = (i0 + i1, j0 + j1, k0 + k1)
            c = out.get(k)
            if c is None:
                out[k] = v0 * v1
            else:
                c += v0 * v1
                if c:
                    out[k] = c
                else:
                    del out[k]
    return out


def mat2_mul(m1, m2, p):
    """Product of 2x2 matrices given as 4-tuples (a, b, c, d); p = 0 is exact.

    With p = 0 and Fraction entries each factor is written as an integer
    matrix over the lcm of its denominators, and each entry of the integer
    product is divided once.
    """
    if not p and not all(type(v) is int for v in m1 + m2):
        (n1, d1), (n2, d2) = over_common_denominator(m1), over_common_denominator(m2)
        return tuple(Fraction(v, d1 * d2) for v in mat2_mul(n1, n2, 0))
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    if p:
        return (
            (a1 * a2 + b1 * c2) % p,
            (a1 * b2 + b1 * d2) % p,
            (c1 * a2 + d1 * c2) % p,
            (c1 * b2 + d1 * d2) % p,
        )
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def eval_poly3(items, powx, powz, powy, p):
    """Evaluate sum of c * x^i z^j y^k given precomputed power tables.

    With p > 0 the tables hold ints and the sum is reduced mod p.  With
    p = 0 and Fractions in the tables the sum is homogenized: each table
    is written as integers over the lcm D of its denominators, so every
    term is c * hx[i] * hz[j] * hy[k] / (Dx * Dz * Dy), and the integer
    sum is divided once at the end.
    """
    den = None
    if not p and not all(type(v) is int for t in (powx, powz, powy) for v in t):
        (powx, dx), (powz, dz), (powy, dy) = map(
            over_common_denominator, (powx, powz, powy)
        )
        den = dx * dz * dy
    acc = 0
    for (i, j, k), c in items:
        acc += c * powx[i] * powz[j] * powy[k]
    if p:
        return acc % p
    return acc if den is None else Fraction(acc, den)


def over_common_denominator(values):
    """(integers n, D) with values[i] = n[i] / D, for ints and Fractions;
    D is the lcm of the denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    d = lcm(*[q for _, q in ratios])
    return [n * (d // q) for n, q in ratios], d


def power(x, k, one):
    """x^k for an int k >= 0 by square-and-multiply; ``one`` is x^0.

    Needs only ``*``.  The last squaring, whose result would go unused, is
    skipped.
    """
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result
