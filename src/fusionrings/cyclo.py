"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Representation: a conductor N and a sparse map exponent -> Fraction over the
power basis zeta_N^0 .. zeta_N^(phi(N)-1).  Canonicalization reduces the raw
exponent vector against the fixed echelonized relation set of conductor N
(equivalently, takes the remainder modulo the N-th cyclotomic polynomial) and
then minimizes the conductor by Galois-invariance descent over prime divisors.
Two equal field elements therefore always carry identical representations.

The integer-array half holds values as canonical Z[zeta_m] coordinates
scaled by one common denominator; its sums run in the dtype an explicit
bound allows (:func:`_exact_dtype`), float64 only where they are exact.
No other floating point enters anywhere except :meth:`Cyclotomic.numeric`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm

import numpy as np

_ZERO = Fraction(0)


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


def _split_primes(m, above):
    """(p, w) for each prime p = 1 (mod m) above ``above``, in increasing
    order, with w = g^((p-1)/m) of order m for the least primitive root g."""
    p = above // m * m + 1
    while True:
        if p > above and _is_prime(p):
            yield p, pow(_primitive_root(p), (p - 1) // m, p)
        p += m


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
def _galois_orbit_checks(n):
    """For each prime p | n: (m, ks) with m = n//p and ks the Galois classes
    fixing Q(zeta_m) pointwise (k = 1 omitted)."""
    out = []
    for p in _prime_divisors(n):
        m = n // p
        ks = tuple(
            k for k in range(1, n) if k != 1 and k % m == 1 % m and gcd(k, n) == 1
        )
        out.append((p, m, ks))
    return tuple(out)


@lru_cache(maxsize=None)
def _subfield_solver(n, m):
    """Row-reduced data rewriting a conductor-n vector as a conductor-m vector.

    Returns (pivots, transform) where transform is a list over basis exponents
    of Q(zeta_m): row j gives the coordinates of zeta_m^j as a conductor-n
    canonical vector; pivots/elimination data let us back-solve T y = v.
    """
    phin, phim = _phi(n), _phi(m)
    red = _monomial_reduction(n)
    d = n // m
    # columns: canonical conductor-n coords of zeta_m^j = zeta_n^(d*j)
    cols = [red[(d * j) % n] for j in range(phim)]
    # Gaussian elimination on the (phin x phim) system with full row pivoting
    mat = [[Fraction(cols[j][i]) for j in range(phim)] for i in range(phin)]
    aug = [[Fraction(1) if i == j else _ZERO for j in range(phin)] for i in range(phin)]
    pivots = []
    row = 0
    for col in range(phim):
        piv = next((r for r in range(row, phin) if mat[r][col]), None)
        assert piv is not None, "subfield basis must have full column rank"
        mat[row], mat[piv] = mat[piv], mat[row]
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(phin):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    return row, aug


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


@lru_cache(maxsize=None)
def _product_table(m):
    """table[a, b] = canonical Z[zeta_m] coordinates of zeta_m^(a + b), a, b < phi(m)."""
    red = np.array(_monomial_reduction(m), dtype=np.int64)
    phi = red.shape[1]
    table = red[np.add.outer(np.arange(phi), np.arange(phi))]
    table.setflags(write=False)
    return table


def _pointwise(a, B, m):
    """Coordinates of a[t] * B[y, t] as a (y, t, phi(m)) array, for a row
    a (t, phi(m)) and an array B (y, t, phi(m)) of coordinates; int64 unless
    an entry needs Python ints."""
    table = _product_table(m)
    phi = table.shape[0]
    dt = _exact_dtype(phi * phi * _top(a) * _top(B) * _top(table))
    left = (a.astype(dt) @ table.astype(dt).reshape(phi, -1)).reshape(-1, phi, phi)  # [t, b, c]
    out = np.matmul(B.astype(dt).transpose(1, 0, 2), left).transpose(1, 0, 2)
    return out if dt is object else out.astype(np.int64)


def _inner(A, B, m):
    """Coordinates of sum_t A[..., x, t] * B[..., y, t] as an (..., x, y,
    phi(m)) array, for coordinate arrays A (..., x, t, phi(m)) and
    B (..., y, t, phi(m)) with the same leading batch shape; int64 unless an
    entry needs Python ints."""
    table = _product_table(m)
    *batch, nx, nt, phi = A.shape
    ny = B.shape[-3]
    dt = _exact_dtype(nt * phi * phi * _top(A) * _top(B) * _top(table))
    # B times every power zeta^a first (the table is symmetric in a and b):
    # right[..., (t, a), (y, c)] = sum_b B[..., y, t, b] table[a, b, c]
    right = (B.astype(dt) @ table.astype(dt).reshape(phi, phi * phi)).reshape(*batch, ny, nt * phi, phi)
    right = np.swapaxes(right, -3, -2).reshape(*batch, nt * phi, ny * phi)
    out = (A.astype(dt, order="C").reshape(*batch, nx, nt * phi) @ right).reshape(*batch, nx, ny, phi)
    return out if dt is object else out.astype(np.int64)


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


def _rewrite_at_subfield(n, m, coeffs):
    phin = _phi(n)
    rank, aug = _subfield_solver(n, m)
    vec = [_ZERO] * phin
    for e, c in coeffs.items():
        vec[e] = c
    ys = []
    for r in range(rank):
        ys.append(sum((aug[r][i] * vec[i] for i in range(phin) if vec[i]), _ZERO))
    return {j: y for j, y in enumerate(ys) if y}


def _minimize(n, coeffs):
    if not coeffs:
        return 1, {}
    changed = True
    while changed and n > 1:
        changed = False
        for _, m, ks in _galois_orbit_checks(n):
            if all(_galois_image(n, coeffs, k) == coeffs for k in ks):
                coeffs = _rewrite_at_subfield(n, m, coeffs)
                n = m
                changed = True
                break
    return n, coeffs


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
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self.conductor == 1:
            return Cyclotomic.rational(1 / self.coeffs[0])
        n = self.conductor
        phi = _phi(n)
        red = _monomial_reduction(n)
        # columns: coordinates of self * zeta^j
        mat = []
        for i in range(phi):
            mat.append([_ZERO] * phi)
        for j in range(phi):
            for e, c in self.coeffs.items():
                for i, r in enumerate(red[e + j]):
                    if r:
                        mat[i][j] += c * r
        rhs = [Fraction(1)] + [_ZERO] * (phi - 1)
        sol = _solve_exact(mat, rhs)
        n2, coeffs = _minimize(n, {j: v for j, v in enumerate(sol) if v})
        return Cyclotomic(n2, coeffs, _canonical=True)

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.conductor == 1:
            if other.is_zero():
                raise ZeroDivisionError("division by zero in Q(zeta)")
            return self * Cyclotomic.rational(1 / other.coeffs[0])
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic._coerce(other) / self

    def conjugate(self):
        """Complex conjugation, zeta_N -> zeta_N^(-1)."""
        if self.conductor == 1:
            return self
        coeffs = _galois_image(self.conductor, self.coeffs, self.conductor - 1)
        return Cyclotomic(self.conductor, coeffs, _canonical=True)

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


def _solve_exact(mat, rhs):
    """Solve a square Fraction system by Gaussian elimination."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


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
    """Inverse of :func:`to_document`; raises ValueError on a malformed form."""
    conductor = doc.get("conductor") if isinstance(doc, dict) else None
    pairs = doc.get("coeffs") if isinstance(doc, dict) else None
    if type(conductor) is not int or conductor < 1 or not isinstance(pairs, list):
        raise ValueError(f"malformed cyclotomic {doc!r}")
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
