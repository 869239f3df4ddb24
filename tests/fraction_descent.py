"""The Fraction trace descent that canonicalized cyclotomic values before
the integer canonicalizer of ``cyclo``, kept as its oracle.

A raw map {exponent: rational} at conductor n is reduced modulo the n-th
cyclotomic polynomial one Fraction at a time, and the conductor then
descends prime by prime while the normalized trace lifts back to the value.
"""

from fractions import Fraction

from fusionrings.cyclo import _monomial_reduction, _prime_divisors

_ZERO = Fraction(0)


def reduce_raw(n, raw):
    """Reduce {exponent: Fraction} with exponents < 2n-1 to canonical coeffs."""
    red = _monomial_reduction(n)
    out = {}
    for e, c in raw.items():
        if not c:
            continue
        for i, r in enumerate(red[e]):
            if r:
                out[i] = out.get(i, _ZERO) + c * r
    return {e: c for e, c in out.items() if c}


def minimize(n, coeffs):
    """(least conductor, canonical coefficients) of the value with canonical
    coefficients coeffs at conductor n.  It lies in Q(zeta_m), m = n/p for a
    prime p, exactly when its normalized trace Tr/[n:m] lifts back to it by
    zeta_m = zeta_n^p.  If p divides m, the trace keeps zeta_n^e as
    zeta_m^(e/p) when p divides e and drops it otherwise; if not,
    zeta_n^e = zeta_m^(e/p mod m) times a p-th root of unity, which traces
    to 1 when p divides e and to -1/(p-1) otherwise."""
    descended = bool(coeffs)
    while descended and n > 1:
        descended = False
        for p in _prime_divisors(n):
            m, raw = n // p, {}
            for e, c in coeffs.items():
                if m % p:
                    k = e * pow(p, -1, m) % m
                    raw[k] = raw.get(k, _ZERO) + (c if e % p == 0 else c * Fraction(-1, p - 1))
                elif e % p == 0:
                    raw[e // p] = c
            traced = reduce_raw(m, raw)
            if reduce_raw(n, {e * p: c for e, c in traced.items()}) == coeffs:
                n, coeffs, descended = m, traced, True
                break
    return (n, coeffs) if coeffs else (1, {})


def canonical(n, coeffs):
    """(conductor, coefficients) of sum_e coeffs[e] zeta_n^e, for any integer
    exponents and rational coefficients."""
    raw = {}
    for e, c in coeffs.items():
        c = Fraction(c)
        if c:
            raw[e % n] = raw.get(e % n, _ZERO) + c
    return minimize(n, reduce_raw(n, raw))
