"""Property-based fuzzing of the cyclotomic canonical form."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrings.cyclo import Cyclotomic, _inner, _moduli, _phi, _product_bound, root_of_unity

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
