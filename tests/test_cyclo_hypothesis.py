"""Property-based fuzzing of the cyclotomic canonical form, and of the
integer canonicalizer against the Fraction trace descent it replaced."""

from fractions import Fraction

import fraction_descent
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrings.cyclo import (
    MAX_CONDUCTOR,
    Cyclotomic,
    _inner,
    _moduli,
    _phi,
    _prime_divisors,
    _product_bound,
    from_document,
    root_of_unity,
    to_document,
)

conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 24])


@st.composite
def cyclotomics(draw):
    n = draw(conductors)
    coeffs = {}
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.integers(0, n - 1))
        coeffs[e] = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
    return Cyclotomic(n, coeffs)


@settings(max_examples=200, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(cyclotomics())
def test_inverse_conjugate_and_canonical_form(a):
    assert (a - a).is_zero()
    assert a.conjugate().conjugate() == a
    if not a.is_zero():
        assert a * a.inverse() == Cyclotomic.one()
    # the representation is reduced: coefficients sit below phi(conductor)
    phi = sum(1 for k in range(1, a.conductor + 1) if _gcd(k, a.conductor) == 1)
    assert all(0 <= e < phi for e in a.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(-50, 50))
def test_roots_of_unity_have_right_order(n, k):
    z = root_of_unity(n, k)
    acc = Cyclotomic.one()
    for _ in range(n):
        acc = acc * z
    assert acc == Cyclotomic.one()


@settings(max_examples=100, deadline=None)
@given(cyclotomics(), st.sampled_from([2, 3, 5, 7]))
@example(Cyclotomic(12, {1: 1, 2: Fraction(1, 2)}), 3)  # p divides the conductor
@example(Cyclotomic(12, {1: 1, 2: Fraction(1, 2)}), 5)  # p does not
def test_canonical_form_survives_lifting(a, p):
    """The value written at conductor n p, zeta_n^e = zeta_(np)^(ep), comes
    back in the identical canonical form, whether or not p divides n."""
    n = a.conductor
    lifted = Cyclotomic(n * p, {e * p: c for e, c in a.coeffs.items()})
    assert (lifted.conductor, lifted.coeffs) == (n, a.coeffs)


@st.composite
def coordinate_arrays(draw):
    """(A, B, m): Z[zeta_m] coordinate arrays A (b, x, t, phi(m)) and
    B (b, y, t, phi(m)) of Python ints up to 2**40, at most three nonzero
    coordinates per value."""
    m = draw(st.sampled_from([1, 3, 4, 12, 15, 20, 420]))
    phi = _phi(m)
    batch, t = draw(st.integers(1, 2)), draw(st.integers(1, 3))

    def array(rows):
        a = np.zeros((batch, rows, t, phi), dtype=object)
        for value in np.ndindex(batch, rows, t):
            for _ in range(draw(st.integers(0, 3))):
                a[value + (draw(st.integers(0, phi - 1)),)] = draw(st.integers(-2**40, 2**40))
        return a

    return array(draw(st.integers(1, 2))), array(draw(st.integers(1, 2))), m


def _value(m, coords):
    return Cyclotomic(m, dict(enumerate(coords)))


def _check_inner(A, B, m):
    got = _inner(A, B, m)
    assert got.shape == (*A.shape[:2], B.shape[1], A.shape[3])
    for b, x, y in np.ndindex(got.shape[:3]):
        want = Cyclotomic.zero()
        for t in range(A.shape[2]):
            want = want + _value(m, A[b, x, t]) * _value(m, B[b, y, t])
        assert _value(m, got[b, x, y]) == want
    return got


@settings(max_examples=60, deadline=None)
@given(coordinate_arrays())
def test_inner_matches_cyclotomic_sums(case):
    _check_inner(*case)


def test_inner_recombines_many_primes_in_python_ints():
    """Coordinates of 2**40 push the bound past 2**80: at least four primes
    above 2**20, and the CRT past 2**62 runs on Python ints."""
    rng = np.random.default_rng(5)
    m = 420
    A, B = (np.array(rng.choice([-1, 1], (1, 2, 2, 96)) * 2**40, dtype=object) for _ in range(2))
    A[..., 5:] = B[..., 7:] = 0  # a few coordinates each, so the Cyclotomic oracle stays quick
    bound = 2 * 2**80 * _product_bound(m)
    assert len(_moduli(m, bound)) >= 4
    assert _check_inner(A, B, m).dtype == object


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- the integer canonicalizer against the Fraction trace descent

# nine of them are 2 (mod 4); prime powers, and products of up to four primes
ORACLE_CONDUCTORS = [1, 2, 4, 6, 8, 9, 10, 12, 14, 18, 20, 25, 27, 30, 36, 42, 60, 84, 90, 105, 210, 360, 420]


@st.composite
def raw_maps(draw):
    """(n, raw): a conductor n <= 420 and a map {exponent: Fraction} at it
    whose value often lies in a smaller field: terms are drawn on the
    exponents of zeta_d for a divisor d of n, and zero sums over the p-th
    roots of unity, p a prime factor of n, hide that.  Exponents run past n
    and below 0, as raw maps may."""
    n = draw(st.sampled_from(ORACLE_CONDUCTORS))
    d = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    fraction = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))
    raw = {}
    for _ in range(draw(st.integers(0, 5))):
        e = draw(st.integers(0, d - 1)) * (n // d) + draw(st.sampled_from([0, n, -n]))
        raw[e] = raw.get(e, 0) + draw(fraction)
    for _ in range(draw(st.integers(0, 2))):
        if n > 1:
            p, e, c = draw(st.sampled_from(_prime_divisors(n))), draw(st.integers(0, n - 1)), draw(fraction)
            for j in range(p):
                raw[e + j * n // p] = raw.get(e + j * n // p, 0) + c
    return n, raw


@settings(max_examples=100, deadline=None)
@given(raw_maps())
@example((6, {1: 1, 4: 1}))  # zeta_6 + zeta_3^2 = 0, written at 6
@example((10, {3: Fraction(1, 2)}))  # half an odd power of zeta_10 is minus one of zeta_5
@example((420, {0: 1, 140: 1, 280: 1, 1: Fraction(2, 3)}))  # a zero sum beside a primitive root
def test_canonical_form_matches_the_fraction_descent(case):
    n, raw = case
    value = Cyclotomic(n, raw)
    assert (value.conductor, value.coeffs) == fraction_descent.canonical(n, raw)


SWEEP_CONDUCTORS = [1, 2, 3, 4, 6, 8, 9, 10, 12, 16, 18, 25, 30, 36, 49, 50, 63, 64, 90, 98, 105, 126, 198, 199]


def _check_roots_of_unity(n):
    for k in range(n):
        z = root_of_unity(n, k)
        assert (z.conductor, z.coeffs) == fraction_descent.canonical(n, {k: 1}), (n, k)


@pytest.mark.parametrize("n", SWEEP_CONDUCTORS)
def test_roots_of_unity_match_the_fraction_descent(n):
    """Every zeta_n^k for a spread of n below 200; -m slow runs them all."""
    _check_roots_of_unity(n)


@pytest.mark.slow
def test_every_root_of_unity_below_200_matches_the_fraction_descent():
    for n in range(1, 200):
        _check_roots_of_unity(n)


@pytest.mark.parametrize("coeffs", [
    [[1, "1/1"], [1001, "2/3"], [2999, "-5/7"]],  # no smaller field
    [[600, "1/1"], [2400, "1/1"]],  # zeta_5 + zeta_5^4, in Q(sqrt 5)
    [[1000, "1/2"], [2000, "1/2"], [1500, "3/1"]],  # -1/2 - 3, rational
    [[7, "1/1"], [1507, "1/1"]],  # zeta + (-zeta) = 0
])
def test_documents_at_the_conductor_bound_match_the_fraction_descent(coeffs):
    value = from_document({"conductor": MAX_CONDUCTOR, "coeffs": coeffs})
    raw = {e: Fraction(c) for e, c in coeffs}
    assert (value.conductor, value.coeffs) == fraction_descent.canonical(MAX_CONDUCTOR, raw)
    assert from_document(to_document(value)) == value
