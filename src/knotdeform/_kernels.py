"""The hot kernels: sparse products, 2x2 products, evaluation and powers.

Coefficients are arbitrary-precision ints (or Fractions) throughout, so
every result is exact; exponents are small ints.
"""


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
    """Product of 2x2 matrices given as 4-tuples (a, b, c, d); p = 0 is exact."""
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
    """Evaluate sum of c * x^i z^j y^k given precomputed power tables."""
    acc = 0
    for (i, j, k), c in items:
        acc += c * powx[i] * powz[j] * powy[k]
    return acc % p if p else acc


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
