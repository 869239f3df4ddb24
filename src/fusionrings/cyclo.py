"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Representation: a conductor N and a sparse map exponent -> Fraction over the
power basis zeta_N^0 .. zeta_N^(phi(N)-1).  Canonical forms are computed on
integers over one common denominator (:func:`_reduced_form`): the exponents
lose their common factor with N, N = 2 (mod 4) is halved, and a root of
unity is then read off the remainders of x^e modulo the N-th cyclotomic
polynomial; any other value takes those remainders and descends to N/p
while its trace, one integer matrix per (N, p) built in closed form
(:func:`_descent`), lifts back to it.  Two equal field elements therefore
always carry identical representations.

The integer-array half, canonical Z[zeta_m] coordinates scaled by one common
denominator, is the one exact kernel of every hot loop: arrays are evaluated
at the embeddings zeta_m -> w^k into F_q, q = 1 (mod m), where products are
products of images, and enough primes for a coordinate bound determine the
coordinates (:func:`_moduli`).  Sums run in the dtype an explicit bound
allows (:func:`_exact_dtype`), float64 only where they are exact.  No other
floating point enters anywhere except :meth:`Cyclotomic.numeric`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm

import numpy as np

from .errors import ConductorTooLarge

_ZERO = Fraction(0)

# Values of conductor n are reduced through _monomial_reduction(n), 2n - 1
# rows of phi(n) coordinates; documents naming a larger conductor are refused
# before any table is built.  Below the bound, the prime 2999 costs the most:
# 0.15 s and 140 MB (Python 3.11, one core).  The pinned documents reach 420,
# for D(S7).
MAX_CONDUCTOR = 3000


@lru_cache(maxsize=None)
def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@lru_cache(maxsize=None)
def _phi(n):
    out = n
    for p in _prime_divisors(n):
        out -= out // p
    return out


def _primitive_root(p):
    facs = _prime_divisors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in facs):
            return g
        g += 1


@lru_cache(maxsize=None)
def _split_prime(m, above, k):
    """(q, w): the k-th (from 0) prime q = 1 (mod m) above ``above``, and
    w = g^((q-1)/m) of order m for the least primitive root g mod q.  Each
    call finds the one before it cached when k counts up."""
    q = _split_prime(m, above, k - 1)[0] + m if k else above // m * m + 1
    while q <= above or not _is_prime(q):
        q += m
    return q, pow(_primitive_root(q), (q - 1) // m, q)


@lru_cache(maxsize=None)
def _cyclotomic_poly(n):
    """Integer coefficients of Phi_n, ascending degree."""
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by the product of Phi_d for proper divisors d
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic_poly(d)
            # exact polynomial long division (den is monic)
            q = [0] * (len(num) - len(den) + 1)
            rem = list(num)
            for i in range(len(q) - 1, -1, -1):
                c = rem[i + len(den) - 1]
                q[i] = c
                if c:
                    for j, dj in enumerate(den):
                        rem[i + j] -= c * dj
            assert all(v == 0 for v in rem[: len(den) - 1]), "division must be exact"
            num = q
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


@lru_cache(maxsize=None)
def _monomial_reduction(n):
    """Canonical coefficients of x^e mod Phi_n for e = 0 .. 2n-2.

    Entry e is a tuple of ints of length phi(n).
    """
    phi = _phi(n)
    poly = _cyclotomic_poly(n)
    assert len(poly) == phi + 1 and poly[-1] == 1
    tail = poly[:-1]  # x^phi = -tail
    rows = []
    cur = [0] * phi
    for e in range(2 * n - 1):
        if e < phi:
            cur = [0] * phi
            cur[e] = 1
        else:
            # multiply previous row by x, then reduce the overflow term
            prev = rows[-1]
            lead = prev[-1]
            cur = [0] + list(prev[:-1])
            if lead:
                cur = [c - lead * t for c, t in zip(cur, tail)]
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction(n):
    """The canonical coordinates of zeta_n^e, e < n, as a read-only int64
    (n x phi(n)) array: raw coordinates times it are canonical ones."""
    red = np.array(_monomial_reduction(n)[:n], dtype=np.int64)
    red.setflags(write=False)
    return red


def _exact_dtype(bound):
    """The cheapest dtype whose matmuls stay exact while every partial sum is
    at most bound in absolute value: float32 or float64 (BLAS), int64, or
    Python ints."""
    if bound < 2**24:
        return np.float32
    if bound < 2**53:
        return np.float64
    if bound < 2**63:
        return np.int64
    return object


def _top(array):
    """The largest absolute entry of an integer array, 0 when it is empty."""
    return int(np.abs(array).max()) if array.size else 0


def _coordinates(rows):
    """(m, L, X): X[i, j] holds the canonical Z[zeta_m] coordinates of
    L * rows[i][j], m the lcm of the conductors and L the least common
    denominator of every coefficient; X is int64 when the encoding's sums
    stay below 2**63, else Python ints.  Each value object is encoded once,
    however often the rows repeat it."""
    distinct = {}
    index = [[distinct.setdefault(id(v), (len(distinct), v))[0] for v in row] for row in rows]
    return _indexed_coordinates([_form_of(v) for _, v in distinct.values()], index)


def _indexed_coordinates(forms, index):
    """(m, L, X) as :func:`_coordinates` gives it for the values
    forms[index[i][j]], given by their integral forms."""
    m, scale, codes, index = _distinct_coordinates(forms, index)
    return m, scale, codes[index]


def _distinct_coordinates(forms, index):
    """(m, L, C, index'): as :func:`_coordinates` for the rows of values
    forms[index[i][j]], given by their integral forms (conductor, den,
    coords) as :func:`_reduced_form` makes them; C holds the coordinates of
    each form that index names once, in order of first occurrence, and
    X = C[index']."""
    index = np.asarray(index, dtype=np.intp)
    seen = list(dict.fromkeys(index.ravel().tolist()))  # in order of first occurrence
    rank = np.empty(len(forms), dtype=np.intp)
    rank[seen] = np.arange(len(seen))
    forms = [forms[k] for k in seen]
    m = lcm(*(n for n, _, _ in forms))
    scale = lcm(*(den for _, den, _ in forms))
    rows, exponents, values = [], [], []  # L times the forms on zeta_m^0 .. zeta_m^(m-1)
    for row, (n, den, coords) in enumerate(forms):
        step, factor = m // n, scale // den
        for i, x in coords:
            rows.append(row)
            exponents.append(i * step)
            values.append(x * factor)
    red = _reduction(m)
    top = max(map(abs, values), default=0) * m * _top(red)
    dt = np.int64 if top < 2**63 else object
    raw = np.zeros((len(forms), m), dtype=dt)
    raw[rows, exponents] = values
    return m, scale, raw @ red.astype(dt, copy=False), rank[index]


def _lift(codes, m, M):
    """The canonical Z[zeta_M] coordinates of values given by their Z[zeta_m]
    coordinates codes (..., phi(m)), for m dividing M: zeta_m^k = zeta_M^(k M/m)."""
    red = _reduction(M)[:: M // m][: codes.shape[-1]]
    dt = np.int64 if _top(codes) * codes.shape[-1] * _top(red) < 2**63 else object
    return codes.astype(dt) @ red.astype(dt, copy=False)


def _mulmod(a, b, p):
    """a @ b mod p for arrays of residues mod p, exact: the matmul runs in
    the dtype that ``_exact_dtype`` allows for its sums."""
    dt = _exact_dtype(a.shape[-1] * p * p)
    out = np.matmul(a, b, dtype=dt)
    return (out if dt is object else out.astype(np.int64)) % p


def _echelon(a, p):
    """(rows, pivots): the nonzero rows of the reduced row echelon form of a
    (entries in [0, p)) over F_p, by Gauss-Jordan, and their pivot columns;
    int64 while products of two entries fit it."""
    a = a.astype(np.int64) if p * p < 2**63 else a.astype(object)
    pivots, col = [], 0
    for top in range(len(a)):
        live = a[top:, col:].any(axis=0).nonzero()[0]
        if not live.size:
            break
        col += int(live[0])
        pivot = top + int(a[top:, col].nonzero()[0][0])
        a[[top, pivot]] = a[[pivot, top]]
        row = a[top] * pow(int(a[top, col]), -1, p) % p
        a -= np.multiply.outer(a[:, col], row)  # clears the pivot row too
        a %= p
        a[top] = row
        pivots.append(col)
        col += 1
    return a[:len(pivots)], pivots


_ABOVE = 2**20  # the primes of _moduli: residue products summed 2**12 times stay float64-exact


@lru_cache(maxsize=None)
def _embedding(m, q, w):
    """(E, E^-1 mod q), read-only: E[a, e] = x_e^a is zeta_m^a at the
    embedding zeta_m -> x_e = w^(k_e) into F_q, for w of order m and the
    units k_e < m ascending, so that embedding phi(m) - 1 - e is the
    conjugate of e.  Coordinates times E are images; E is a Vandermonde
    matrix on the distinct roots x_e of Phi_m, so the images determine the
    coordinates mod q.  Row e of E^-1 holds the coordinates of the Lagrange
    polynomial Phi_m(X) / ((X - x_e) Phi_m'(x_e)), which is 1 at x_e and 0
    at the other roots; the quotients come by synthetic division at every
    root at once."""
    units = [k for k in range(m) if gcd(k, m) == 1]
    phi = len(units)
    dt = np.int64 if q * q < 2**63 else object
    x = np.array([pow(w, k, q) for k in units], dtype=dt)
    poly = np.array(_cyclotomic_poly(m), dtype=object) % q
    E = np.ones((phi, phi), dtype=dt)
    quotients = np.ones((phi, phi), dtype=dt)  # [i, e]: X^i coefficient of Phi_m(X) / (X - x_e)
    for a in range(1, phi):
        E[a] = E[a - 1] * x % q
        quotients[phi - 1 - a] = (quotients[phi - a] * x + poly[phi - a]) % q
    derivative = (poly[1:] * np.arange(1, phi + 1)).astype(dt) % q  # Phi_m' coefficients
    scale = [pow(int(v), -1, q) for v in _mulmod(derivative[None], E, q)[0]]
    inverse = quotients.T * np.array(scale, dtype=dt)[:, None] % q
    for a in (E, inverse):
        a.setflags(write=False)
    return E, inverse


def _embeddings(m, above):
    """(q, E, E^-1) at each prime q = 1 (mod m) above ``above``, ascending."""
    for k in count():
        q, w = _split_prime(m, above, k)
        yield (q, *_embedding(m, q, w))


def _moduli(m, bound):
    """(q, E, E^-1) at the fewest primes q = 1 (mod m) above 2**20 whose
    product exceeds 2 bound: a coordinate vector at most bound in absolute
    value is its symmetric residue modulo that product, so its images at
    these embeddings determine it."""
    out, modulus = [], 1
    for embedding in _embeddings(m, _ABOVE):
        out.append(embedding)
        modulus *= embedding[0]
        if modulus > 2 * bound:
            return out


def _evaluate(codes, q, E):
    """The images mod q of coordinate arrays codes (..., phi(m)) at the
    embeddings that the columns of E stand for."""
    return _mulmod((codes % q).astype(E.dtype, copy=False), E, q)


@lru_cache(maxsize=None)
def _product_bound(m):
    """The largest coordinate of a product of two values with coordinates at
    most 1: phi(m)^2 times the largest coordinate of a zeta_m^e, e < 2 phi(m) - 1."""
    phi = _phi(m)
    return phi * phi * max(max(map(abs, row)) for row in _monomial_reduction(m)[:2 * phi - 1])


def _inner(A, B, m):
    """Coordinates of sum_t A[..., x, t] * B[..., y, t] as an (..., x, y,
    phi(m)) array, for coordinate arrays A (..., x, t, phi(m)) and
    B (..., y, t, phi(m)) with the same leading batch shape; int64 unless an
    entry needs Python ints.  One batched matmul per embedding at each prime
    of _moduli, mapped back through E^-1; the primes recombine by Garner's
    CRT, in int64 until the modulus passes 2**62, in Python ints after.
    At m = 1 the coordinates are the values, and one matmul in the dtype
    that ``_exact_dtype`` allows is exact."""
    bound = A.shape[-2] * _top(A) * _top(B) * _product_bound(m)
    if m == 1:
        dt = _exact_dtype(bound)
        out = np.matmul(A[..., 0].astype(dt), B[..., 0].swapaxes(-1, -2).astype(dt))
        return out[..., None].astype(object if bound >= 2**63 else np.int64)
    out, modulus = 0, 1
    for q, E, inverse in _moduli(m, bound):
        a = np.moveaxis(_evaluate(A, q, E), -1, -3)  # [..., e, x, t]
        b = np.moveaxis(_evaluate(B, q, E), -1, -3).swapaxes(-1, -2)  # [..., e, t, y]
        coords = _mulmod(np.moveaxis(_mulmod(a, b, q), -3, -1), inverse, q)  # [..., x, y, phi]
        if modulus * q >= 2**62:
            out, coords = np.asarray(out, dtype=object), coords.astype(object)
        out = out + modulus * ((coords - out % q) * pow(modulus, -1, q) % q)
        modulus *= q
    out = np.where(out > modulus // 2, out - modulus, out)
    return out.astype(object if bound >= 2**63 else np.int64)


def _reduce(n, raw):
    """The canonical coordinates {i: int}, zeros dropped, of
    sum_e raw[e] zeta_n^e for integers raw[e], e < 2n - 1."""
    phi, red, out = _phi(n), None, {}
    for e, x in raw.items():
        if e < phi:
            out[e] = out.get(e, 0) + x
            continue
        red = red or _monomial_reduction(n)
        for i, r in enumerate(red[e]):
            if r:
                out[i] = out.get(i, 0) + r * x
    return {i: x for i, x in out.items() if x}


@lru_cache(maxsize=None)
def _descent(n, p):
    """(trace, lift) for a prime p exactly dividing n and m = n/p, as the
    columns of two integer matrices in (row, entry) pairs.  zeta_n^e is
    zeta_m^(e/p mod m) times a p-th root of unity, which traces to 1 when p
    divides e and to -1/(p-1) otherwise; trace[e] holds p - 1 times the
    normalized trace of zeta_n^e, e < phi(n), in the canonical coordinates
    of conductor m.  lift[i] holds those of zeta_m^i = zeta_n^(ip) at n."""
    m = n // p
    inverse, red_m, red_n = pow(p, -1, m), _monomial_reduction(m), _monomial_reduction(n)
    trace = tuple(
        tuple((i, r * (p - 1 if e % p == 0 else -1)) for i, r in enumerate(red_m[e * inverse % m]) if r)
        for e in range(_phi(n))
    )
    lift = tuple(tuple((j, r) for j, r in enumerate(red_n[i * p]) if r) for i in range(_phi(m)))
    return trace, lift


def _halve(n, raw):
    """sum_e raw[e] zeta_n^e, for n = 2 (mod 4), written over zeta_(n/2):
    zeta_n^e is zeta_(n/2)^(e/2) for even e and -zeta_(n/2)^((e + n/2)/2)
    for odd e."""
    half, out = n // 2, {}
    for e, x in raw.items():
        if e % 2:
            e, x = (e + half) // 2 % half, -x
        else:
            e //= 2
        out[e] = out.get(e, 0) + x
    return {e: x for e, x in out.items() if x}


def _reduced_form(n, raw, den=1):
    """The integral form (conductor, den, coords) of the value
    sum_e raw[e] zeta_n^e / den, for integers raw[e]: the least conductor,
    and the nonzero canonical coordinates there over the least common
    denominator, as sorted (i, numerator) pairs.  Equal values have equal
    forms.  The exponents first lose their common factor with n, and
    n = 2 (mod 4) is halved; a root of unity is then at its least conductor
    and read off _monomial_reduction.  Any other value is reduced and
    descends while it can: by halving again, by the exponents' common factor
    p when p^2 divides n, and through the trace and lift of
    :func:`_descent` when a prime p exactly divides n."""
    folded = {}
    for e, x in raw.items():
        folded[e % n] = folded.get(e % n, 0) + x
    raw = {e: x for e, x in folded.items() if x}
    while True:
        g = gcd(n, *raw)
        if g > 1:
            n, raw = n // g, {e // g: x for e, x in raw.items()}
        if n % 4 != 2:
            break
        n, raw = n // 2, _halve(n, raw)
    if len(raw) == 1:  # x zeta_n^e with e prime to n
        [(e, x)] = raw.items()
        if e < _phi(n):
            return _normalized(n, den, raw)
        return _normalized(n, den, {i: r * x for i, r in enumerate(_monomial_reduction(n)[e]) if r})
    coords = _reduce(n, raw)
    descended = bool(coords)
    while descended and n > 1:
        descended = False
        if n % 4 == 2:
            n, coords, descended = n // 2, _reduce(n // 2, _halve(n, coords)), True
            continue
        for p in _prime_divisors(n):
            m = n // p
            if m % p == 0:
                if all(e % p == 0 for e in coords):
                    n, coords, descended = m, {e // p: x for e, x in coords.items()}, True
                    break
                continue
            trace, lift = _descent(n, p)
            traced = {}
            for e, x in coords.items():
                for i, r in trace[e]:
                    traced[i] = traced.get(i, 0) + r * x
            if any(x % (p - 1) for x in traced.values()):
                continue
            traced = {i: x // (p - 1) for i, x in traced.items() if x}
            back = {}
            for i, x in traced.items():
                for j, r in lift[i]:
                    back[j] = back.get(j, 0) + r * x
            if {j: x for j, x in back.items() if x} == coords:
                n, coords, descended = m, traced, True
                break
    return _normalized(n if coords else 1, den, coords)


def _normalized(n, den, coords):
    """The integral form of sum_i coords[i] zeta_n^i / den, coords in the
    canonical basis: over the least common denominator, with the nonzero
    coordinates as sorted (i, numerator) pairs."""
    g = gcd(den, *coords.values())
    return n, den // g, tuple(sorted((i, x // g) for i, x in coords.items()))


def _form_of(value):
    """The integral form (conductor, den, coords) of a Cyclotomic."""
    den = lcm(*(c.denominator for c in value.coeffs.values()))
    coords = tuple((e, c.numerator * (den // c.denominator)) for e, c in sorted(value.coeffs.items()))
    return value.conductor, den, coords


def _value(form):
    """The Cyclotomic of an integral form (conductor, den, coords)."""
    n, den, coords = form
    return Cyclotomic(n, {i: Fraction(x, den) for i, x in coords}, _canonical=True)


class Cyclotomic:
    """An element of some Q(zeta_N), stored in canonical minimal form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor, coeffs, _canonical=False):
        if not _canonical:
            coeffs = {e: Fraction(c) for e, c in coeffs.items()}
            den = lcm(*(c.denominator for c in coeffs.values()))
            raw = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
            conductor, den, coords = _reduced_form(conductor, raw, den)
            coeffs = {i: Fraction(x, den) for i, x in coords}
        self.conductor = conductor
        self.coeffs = coeffs
        self._hash = None

    # -- construction helpers

    @staticmethod
    def rational(q):
        q = Fraction(q)
        return Cyclotomic(1, {0: q} if q else {}, _canonical=True)

    @staticmethod
    def zero():
        return Cyclotomic(1, {}, _canonical=True)

    @staticmethod
    def one():
        return Cyclotomic.rational(1)

    # -- predicates and conversions

    def is_zero(self):
        return not self.coeffs

    def rational_part(self):
        """The exact Fraction if this value is rational, else None."""
        if self.conductor != 1:
            return None
        return self.coeffs.get(0, _ZERO)

    # -- ring/field operations

    def _lift_raw(self, n):
        """(den, raw): the value as integers over one denominator, on the
        exponents of zeta_n."""
        _, den, coords = _form_of(self)
        scale = n // self.conductor
        return den, {e * scale: x for e, x in coords}

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        return NotImplemented

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = lcm(self.conductor, other.conductor)
        (da, a), (db, b) = self._lift_raw(n), other._lift_raw(n)
        den = lcm(da, db)
        raw = {e: x * (den // da) for e, x in a.items()}
        for e, x in b.items():
            raw[e] = raw.get(e, 0) + x * (den // db)
        return _value(_reduced_form(n, raw, den))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(
            self.conductor, {e: -c for e, c in self.coeffs.items()}, _canonical=True
        )

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Cyclotomic.zero()
        if other.conductor == 1:
            q = other.coeffs[0]
            return Cyclotomic(
                self.conductor,
                {e: c * q for e, c in self.coeffs.items()},
                _canonical=True,
            )
        if self.conductor == 1:
            return other * self
        n = lcm(self.conductor, other.conductor)
        (da, a), (db, b) = self._lift_raw(n), other._lift_raw(n)
        raw = {}
        for e1, x1 in a.items():
            for e2, x2 in b.items():
                raw[e1 + e2] = raw.get(e1 + e2, 0) + x1 * x2
        return _value(_reduced_form(n, raw, da * db))

    __rmul__ = __mul__

    def inverse(self):
        """The product of the other Galois conjugates over the norm, the
        product of them all, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        others = Cyclotomic.one()
        for k in range(2, self.conductor):
            if gcd(k, self.conductor) == 1:
                others = others * self.galois(k)
        return others * Cyclotomic.rational(1 / (self * others).rational_part())

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic._coerce(other) / self

    def conjugate(self):
        """Complex conjugation, zeta_N -> zeta_N^(-1)."""
        return self.galois(-1)

    def galois(self, k):
        """The automorphism zeta_N -> zeta_N^k (k coprime to the conductor)."""
        if gcd(k, self.conductor) != 1:
            raise ValueError("k must be coprime to the conductor")
        if self.conductor == 1:
            return self
        n, den, coords = _form_of(self)
        return _value(_normalized(n, den, _reduce(n, {e * k % n: x for e, x in coords})))

    # -- comparisons, hashing, output

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.conductor, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def numeric(self):
        """Evaluate under zeta_N -> exp(2 pi i / N), deterministic term order."""
        n = self.conductor
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * e / n) for e, c in sorted(self.coeffs.items())),
            complex(0),
        )

    def __repr__(self):
        if self.is_zero():
            return "0"
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts = []
        for e, c in sorted(self.coeffs.items()):
            z = f"z{self.conductor}^{e}" if e > 1 else ("1" if e == 0 else f"z{self.conductor}")
            parts.append(f"{c}*{z}" if z != "1" else f"{c}")
        return " + ".join(parts)


def root_of_unity(n, k=1):
    """Canonical zeta_n^k (conductor minimized)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic(n, {k % n: Fraction(1)})


def to_document(a):
    """JSON-ready form: {"conductor": N, "coeffs": [[k, "p/q"], ...]}."""
    return {
        "conductor": a.conductor,
        "coeffs": [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(a.coeffs.items())],
    }


def from_document(doc):
    """Inverse of :func:`to_document`; raises ValueError on a malformed form
    and ConductorTooLarge past MAX_CONDUCTOR."""
    return _value(_document_form(doc))


def _document_form(doc):
    """The integral form of the value a document names, as :func:`from_document`
    checks it."""
    conductor = doc.get("conductor") if isinstance(doc, dict) else None
    pairs = doc.get("coeffs") if isinstance(doc, dict) else None
    if type(conductor) is not int or conductor < 1 or not isinstance(pairs, list):
        raise ValueError(f"malformed cyclotomic {doc!r}")
    if conductor > MAX_CONDUCTOR:
        raise ConductorTooLarge(f"conductor {conductor} exceeds the bound of {MAX_CONDUCTOR}")
    coeffs = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int
                and isinstance(pair[1], str) and pair[1].count("/") == 1):
            raise ValueError(f"malformed cyclotomic coefficient {pair!r}")
        num, den = pair[1].split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {pair[1]!r}")
        coeffs[pair[0]] = int(num), int(den)
    den = lcm(*(abs(d) for _, d in coeffs.values()))
    return _reduced_form(conductor, {e: num * (den // d) for e, (num, d) in coeffs.items()}, den)
