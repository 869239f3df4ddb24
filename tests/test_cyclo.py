"""Exact cyclotomic arithmetic: canonical forms, field axioms, numerics."""

import cmath
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from fusionrings.cyclo import (
    _ABOVE,
    MAX_CONDUCTOR,
    Cyclotomic,
    _echelon,
    _embedding,
    _monomial_reduction,
    _split_prime,
    from_document,
    root_of_unity,
    to_document,
)
from fusionrings.errors import ConductorTooLarge

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 20, 24]


def rand_cyclo(rng, n, height=20):
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        coeffs[rng.randrange(n)] = Fraction(rng.randint(-height, height), rng.randint(1, height))
    return Cyclotomic(n, coeffs)


# (conductor, raw coefficients, least conductor): sqrt(2), sqrt(-3), sqrt(5),
# zeta_12, 1/3 + i/2 and 1 + zeta_5, each written at a larger conductor
MINIMAL_POLYNOMIAL_CASES = [
    (24, {3: 1, 21: 1}, 8),
    (12, {4: 1, 8: -1}, 3),
    (20, {0: 1, 4: 2, 16: 2}, 5),
    (24, {2: 1}, 12),
    (24, {0: Fraction(1, 3), 6: Fraction(1, 2)}, 4),
    (10, {0: 1, 2: 1}, 5),
]


@pytest.mark.parametrize("n, raw, least", MINIMAL_POLYNOMIAL_CASES)
def test_canonical_form_and_inverse_against_sympy(n, raw, least):
    """The canonical form names the same algebraic number as the raw input,
    at the least conductor, and x * x.inverse() = 1, by sympy's
    minimal_polynomial on exp(2 pi i e / n) sums."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def number(conductor, coeffs):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(e, conductor))
             for e, c in coeffs.items()),
            sympy.Integer(0),
        )

    value = Cyclotomic(n, raw)
    assert value.conductor == least
    given_number = number(n, {e: Fraction(c) for e, c in raw.items()})
    canonical = number(value.conductor, value.coeffs)
    assert sympy.minimal_polynomial(canonical - given_number, x) == x  # the difference is 0
    inverse = value.inverse()
    assert sympy.minimal_polynomial(number(inverse.conductor, inverse.coeffs) * canonical - 1, x) == x


def test_root_of_unity_canonical_examples():
    assert root_of_unity(4, 2) == Cyclotomic.rational(-1)
    assert root_of_unity(4, 2).conductor == 1
    assert root_of_unity(1, 0) == Cyclotomic.rational(1)
    # zeta_6 equals -zeta_3^2, verified inside the arithmetic itself
    z6 = root_of_unity(6, 1)
    assert z6.conductor == 3
    assert z6 == -root_of_unity(3, 2)
    assert z6 * z6 * z6 == Cyclotomic.rational(-1)
    prod = Cyclotomic.one()
    for _ in range(6):
        prod = prod * z6
    assert prod == Cyclotomic.one()


def test_conductor_minimization_drops_even_doubling():
    # conductor 2m with m odd always collapses
    z = root_of_unity(10, 1)
    assert z.conductor == 5
    assert z == -root_of_unity(5, 3)


def test_inverse_of_one_plus_zeta3():
    z3 = root_of_unity(3)
    inv = (Cyclotomic.one() + z3).inverse()
    assert inv == -z3
    assert (Cyclotomic.one() + z3) * inv == Cyclotomic.one()


def test_conjugate_zeta5():
    z5 = root_of_unity(5)
    assert z5.conjugate() == root_of_unity(5, 4)
    assert z5.conjugate().conjugate() == z5


def test_golden_ratio_product():
    z5 = root_of_unity(5)
    a = z5 + root_of_unity(5, 4)
    b = root_of_unity(5, 2) + root_of_unity(5, 3)
    assert a * b == Cyclotomic.rational(-1)


def test_rational_part():
    z3 = root_of_unity(3)
    assert (z3 + z3 * z3).rational_part() == Fraction(-1)
    assert root_of_unity(5).rational_part() is None
    total = sum((root_of_unity(5, k) for k in range(1, 5)), Cyclotomic.zero())
    assert total.rational_part() == Fraction(-1)


def test_numeric_eval():
    val = (root_of_unity(5) + root_of_unity(5, 4)).numeric()
    assert abs(val - 2 * cmath.cos(2 * cmath.pi / 5)) < 1e-12
    assert abs(val - 0.6180339887) < 1e-9
    assert Cyclotomic.rational(-1).numeric() == -1.0
    z8 = root_of_unity(8).numeric()
    assert abs(z8 - complex(0.7071067811865476, 0.7071067811865476)) < 1e-12


@pytest.mark.parametrize("n", CONDUCTORS)
def test_field_axioms_sampled(n):
    rng = random.Random(1000 + n)
    for _ in range(25):
        a, b, c = (rand_cyclo(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == Cyclotomic.zero()
        if not a.is_zero():
            assert a * a.inverse() == Cyclotomic.one()
        assert a.conjugate().conjugate() == a


@pytest.mark.parametrize("n", CONDUCTORS)
def test_canonical_equal_values_identical_representations(n):
    rng = random.Random(2000 + n)
    for _ in range(15):
        a = rand_cyclo(rng, n)
        b = (a + rand_cyclo(rng, n)) - (a + rand_cyclo(rng, n))  # not equal in general
        s = a + b
        t = b + a
        assert s.conductor == t.conductor and s.coeffs == t.coeffs
        assert hash(s) == hash(t)


def test_numeric_homomorphism_sampled():
    rng = random.Random(7)
    for n in [4, 5, 6, 8, 12, 15, 20, 24]:
        for _ in range(10):
            a, b = rand_cyclo(rng, n, height=1000), rand_cyclo(rng, n, height=1000)
            lhs = (a * b).numeric()
            rhs = a.numeric() * b.numeric()
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_galois_automorphism():
    z12 = root_of_unity(12)
    assert z12.galois(5) == root_of_unity(12, 5)
    with pytest.raises(ValueError):
        z12.galois(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.one() / Cyclotomic.zero()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero().inverse()


def test_document_roundtrip():
    rng = random.Random(3)
    for n in CONDUCTORS:
        a = rand_cyclo(rng, n)
        doc = to_document(a)
        assert from_document(doc) == a
        assert to_document(from_document(doc)) == doc


def test_mixed_conductor_arithmetic():
    # operands at different conductors lift to the lcm
    v = root_of_unity(3) + root_of_unity(4)
    assert v.conductor == 12
    assert (v - root_of_unity(4)).conductor == 3
    assert root_of_unity(3) * root_of_unity(5) == root_of_unity(15, 8)


def test_integer_coercion():
    z = root_of_unity(5)
    assert 2 * z + 1 - 1 == z + z
    assert (z * 0).is_zero()
    assert Fraction(1, 2) * Cyclotomic.rational(4) == Cyclotomic.rational(2)


def test_document_conductor_bound_is_checked_before_any_table():
    assert MAX_CONDUCTOR >= 420  # D(S7), the largest conductor in the pinned documents
    assert from_document({"conductor": MAX_CONDUCTOR, "coeffs": [[1, "1/1"]]}) == root_of_unity(MAX_CONDUCTOR)
    misses = _monomial_reduction.cache_info().misses
    with pytest.raises(ConductorTooLarge, match=f"conductor {MAX_CONDUCTOR + 1} exceeds the bound of {MAX_CONDUCTOR}"):
        from_document({"conductor": MAX_CONDUCTOR + 1, "coeffs": [[1, "1/1"]]})
    assert _monomial_reduction.cache_info().misses == misses


@pytest.mark.parametrize("m", [1, 2, 3, 4, 12, 15, 20, 105, 420])
def test_closed_form_embedding_inverse_matches_gauss_jordan(m):
    """E and E^-1 equal the powers of the roots and the Gauss-Jordan inverse
    of E, at the first two split primes above 2**20 and at one above 2**32,
    where products of residues need Python ints."""
    units = [k for k in range(m) if gcd(k, m) == 1]
    for above, k in ((_ABOVE, 0), (_ABOVE, 1), (2**32, 0)):
        q, w = _split_prime(m, above, k)
        E, inverse = _embedding(m, q, w)
        dt = np.int64 if q * q < 2**63 else object
        oracle = np.array([[pow(w, a * k, q) for k in units] for a in range(len(units))], dtype=dt)
        eye = np.eye(len(units), dtype=dt)
        assert E.dtype == inverse.dtype == dt
        assert np.array_equal(E, oracle)
        assert np.array_equal(inverse, _echelon(np.concatenate([oracle, eye], axis=1), q)[0][:, len(units):])
