"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Representation: a conductor N and a sparse map exponent -> Fraction over the
power basis zeta_N^0 .. zeta_N^(phi(N)-1).  Canonicalization reduces the raw
exponent vector against the fixed echelonized relation set of conductor N
(equivalently, takes the remainder modulo the N-th cyclotomic polynomial) and
then minimizes the conductor by normalized-trace descent over prime divisors.
Two equal field elements therefore always carry identical representations.

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
from itertools import chain, count
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
    return out


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


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
    stay below 2**63, else Python ints."""
    m, scale, coords, index = _distinct_coordinates(rows)
    return m, scale, coords[index]


def _distinct_coordinates(rows):
    """(m, L, C, index): as :func:`_coordinates`, with each value object
    encoded once, however often the rows repeat it; X = C[index]."""
    distinct = {}
    index = [[distinct.setdefault(id(v), (len(distinct), v))[0] for v in row] for row in rows]
    values = [v for _, v in distinct.values()]
    m = lcm(*(v.conductor for v in values))
    scale = lcm(*(c.denominator for v in values for c in v.coeffs.values()))
    codes = [[0] * m for _ in values]  # on zeta_m^0 .. zeta_m^(m-1), not yet reduced
    for code, v in zip(codes, values):
        for e, c in v.coeffs.items():
            code[e * (m // v.conductor)] = c.numerator * (scale // c.denominator)
    red = np.array(_monomial_reduction(m)[:m], dtype=np.int64)
    top = max(map(abs, chain.from_iterable(codes)), default=0) * m * _top(red)
    dt = np.int64 if top < 2**63 else object
    coords = np.array(codes, dtype=dt).reshape(-1, m) @ red.astype(dt)
    return m, scale, coords, np.array(index, dtype=np.intp).reshape(len(rows), -1)


def _lift(codes, m, M):
    """The canonical Z[zeta_M] coordinates of values given by their Z[zeta_m]
    coordinates codes (..., phi(m)), for m dividing M: zeta_m^k = zeta_M^(k M/m)."""
    red = np.array(_monomial_reduction(M)[:M], dtype=np.int64)[:: M // m][: codes.shape[-1]]
    dt = np.int64 if _top(codes) * codes.shape[-1] * _top(red) < 2**63 else object
    return codes.astype(dt) @ red.astype(dt)


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
    CRT, in int64 until the modulus passes 2**62, in Python ints after."""
    bound = A.shape[-2] * _top(A) * _top(B) * _product_bound(m)
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


def _reduce_raw(n, raw):
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


def _galois_image(n, coeffs, k):
    raw = {}
    for e, c in coeffs.items():
        e2 = (e * k) % n
        raw[e2] = raw.get(e2, _ZERO) + c
    return _reduce_raw(n, raw)


def _minimize(n, coeffs):
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
            traced = _reduce_raw(m, raw)
            if _reduce_raw(n, {e * p: c for e, c in traced.items()}) == coeffs:
                n, coeffs, descended = m, traced, True
                break
    return (n, coeffs) if coeffs else (1, {})


class Cyclotomic:
    """An element of some Q(zeta_N), stored in canonical minimal form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor, coeffs, _canonical=False):
        if not _canonical:
            raw = {}
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    e %= conductor
                    raw[e] = raw.get(e, _ZERO) + c
            conductor, coeffs = _minimize(conductor, _reduce_raw(conductor, raw))
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
        scale = n // self.conductor
        return {e * scale: c for e, c in self.coeffs.items()}

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
        raw = self._lift_raw(n)
        for e, c in other._lift_raw(n).items():
            raw[e] = raw.get(e, _ZERO) + c
        n2, coeffs = _minimize(n, _reduce_raw(n, raw))
        return Cyclotomic(n2, coeffs, _canonical=True)

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
        a, b = self._lift_raw(n), other._lift_raw(n)
        raw = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                raw[e] = raw.get(e, _ZERO) + c1 * c2
        n2, coeffs = _minimize(n, _reduce_raw(n, raw))
        return Cyclotomic(n2, coeffs, _canonical=True)

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
        coeffs = _galois_image(self.conductor, self.coeffs, k % self.conductor)
        return Cyclotomic(self.conductor, coeffs, _canonical=True)

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

    def sort_key(self):
        return (self.conductor, tuple(sorted(self.coeffs.items())))

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
        coeffs[pair[0]] = Fraction(int(num), int(den))
    return Cyclotomic(conductor, coeffs)
