"""Exact character tables of finite groups, and the based ring of Rep G.

The table is computed by Dixon's class-sum eigenvector method on int64
arrays of residues mod a prime p = 1 (mod exponent) beyond the lift bound:
class matrices are built one at a time and refine the eigenspaces they
share until the central characters are lines.  An abelian group, whose
classes are its elements, skips the refinement: its characters are read
off the generators in closed form (:func:`_linear_characters`).  The values
are lifted by one inverse DFT matmul per element order m, which reads the
multiplicity of each eigenvalue zeta_m^k of a class representative off its
power map, and each distinct value gets its canonical integral form once.
Tables with more than MAX_CLASSES classes are refused.  The table keeps
the lift's integer Z[zeta_m] coordinates of its distinct values with an
index per entry, and one Cyclotomic per distinct value; orthogonality (at
the embeddings of ``cyclo._moduli``) and degrees are certified exactly on
the coordinates, and the ring of Rep G (chi_x chi_y = sum_z N[x][y][z]
chi_z, by the decomposition kernel of ``rings``), the split bicrossed
products and the doubles read them without touching a Cyclotomic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rings, tables
from .cyclo import (
    _distinct_coordinates,
    _echelon,
    _evaluate,
    _moduli,
    _mulmod,
    _product_bound,
    _reduced_form,
    _reduction,
    _split_prime,
    _top,
    _value,
)
from .errors import LiftFailure, TooManyClasses

# ---------------------------------------------------------------------------
# the table

# Dixon's refinement holds r x r arrays mod p and splits up to r eigenvalues
# of one class matrix at once; tables with more classes are refused.
MAX_CLASSES = 128


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """A character table; chi_i(z_j) has the Z[zeta_m] coordinates
    codes[index[i, j]], m the lcm of the value conductors, as the lift
    computed them; ``chars`` holds the same values as Cyclotomics, for
    documents and sort keys."""

    group: object
    classes: tuple          # (representative, size) per class, canonical order
    class_of: object        # int array: class index of each element, by element index
    exponent: int
    degrees: tuple
    chars: tuple            # rows of Cyclotomic values, trivial character first
    dixon_prime: int
    m: int = field(repr=False)
    codes: np.ndarray = field(repr=False)  # (distinct values, phi(m)), in order of first occurrence
    index: np.ndarray = field(repr=False)  # (rows, classes) into codes

    @property
    def num_classes(self):
        return len(self.classes)


def character_table(group):
    """Complete exact character table in canonical row order."""
    class_of = group.class_index_map()
    sizes = np.bincount(class_of)
    r = len(sizes)
    if r > MAX_CLASSES:
        raise TooManyClasses(f"{r} conjugacy classes exceed the character table bound of {MAX_CLASSES}")
    members = np.argsort(class_of, kind="stable")  # the elements, class by class
    starts = np.cumsum(sizes) - sizes
    reps = members[starts]  # class minima
    powers = _powers(group, reps)
    rep_orders = np.argmax(powers[1:] == group.unit, axis=0) + 1
    exponent = math.lcm(*rep_orders.tolist())
    order = group.order
    # the Dixon prime: the least p = 1 (mod exponent) above the lift safeguard
    bound = 2 * math.isqrt(order) * int(sizes.max()) + 1
    p, z_e = _split_prime(exponent, (bound // exponent + 1) * exponent, 0)

    power_map = class_of[powers]  # power_map[l, j]: class of z_j^l
    if r == order:  # abelian: every class is one element
        lines = _linear_characters(group, reps, exponent, p, z_e)
    else:
        lines = _common_eigenlines(group, class_of, members, starts, sizes, rep_orders, power_map, p)
    if (lines[:, 0] == 0).any():  # the identity class is first in canonical order
        raise LiftFailure("eigenvector vanishes at the identity class")
    omegas = lines * np.array([[pow(int(w), p - 2, p)] for w in lines[:, 0]]) % p
    per_size = omegas * np.array([pow(int(s), p - 2, p) for s in sizes]) % p  # omega_j / |C_j|
    inverse_class = class_of[group.inv[reps]]
    sqrt_of = {d * d % p: d for d in range(math.isqrt(order), 0, -1) if order % d == 0}
    degrees = []  # by eigenline
    for s in ((per_size * omegas[:, inverse_class] % p).sum(axis=1) % p).tolist():
        d2 = order * pow(s, p - 2, p) % p
        # p > 2 sqrt|G|, so at most one candidate degree squares to d2
        if d2 not in sqrt_of:
            raise LiftFailure(f"no degree dividing |G| squares to {d2} mod p")
        degrees.append(sqrt_of[d2])
    if sum(d * d for d in degrees) != order:
        raise LiftFailure("degree squares do not sum to the group order")
    deg = np.array(degrees)
    chars_fp = deg[:, None] * per_size % p

    # lift to exact cyclotomic values: chi(z_j) = sum_k c_k zeta_m^k, where
    # c_k, the multiplicity of the eigenvalue zeta_m^k of z_j, is one inverse
    # DFT over the powers of z_j, batched over the classes of order m
    slots = {}  # the position of each distinct value's integral form, in order of first occurrence
    index = np.empty((r, r), dtype=np.intp)  # chi_i(z_j) has the form at position index[i, j]
    for m in tables._unique(rep_orders).tolist():
        cols = (rep_orders == m).nonzero()[0]
        zeta, inv_m = pow(z_e, exponent // m, p), pow(m, p - 2, p)
        roots = np.array([pow(zeta, -e % m, p) * inv_m % p for e in range(m)])
        dft = roots[np.outer(np.arange(m), np.arange(m)) % m]
        mult = _mulmod(chars_fp[:, power_map[:m, cols].T].reshape(-1, m), dft, p)
        mult = mult.reshape(r, len(cols), m)
        over = mult > deg[:, None, None]
        if over.any():
            i, j, k = np.argwhere(over)[0]
            raise LiftFailure(f"eigenvalue multiplicity {mult[i, j, k]} exceeds degree {degrees[i]}")
        cells = list(map(tuple, (mult.reshape(-1, m) @ _reduction(m)).tolist()))  # canonical Z[zeta_m]
        slot = {cell: slots.setdefault(_reduced_form(m, dict(enumerate(cell))), len(slots))
                for cell in dict.fromkeys(cells)}
        index[:, cols] = np.reshape([slot[cell] for cell in cells], (r, len(cols)))

    # canonical row order: (degree, sort keys of the values), trivial row first
    forms = list(slots)
    keys = [(n, coords) for n, _, coords in forms]  # the forms are integral: den is 1
    index = index.tolist()
    rows = sorted(range(r), key=lambda i: (degrees[i], [keys[k] for k in index[i]]))
    one = [form == (1, 1, ((0, 1),)) for form in forms]
    rows.insert(0, rows.pop(next(n for n, i in enumerate(rows) if all(one[k] for k in index[i]))))
    index = [index[i] for i in rows]
    values = list(map(_value, forms))
    chars = tuple(tuple(values[k] for k in row) for row in index)
    m, _, codes, index = _distinct_coordinates(forms, index)  # L = 1: the values are algebraic integers

    table = CharacterTable(
        group=group,
        classes=tuple((group.element(rep), size) for rep, size in zip(reps, sizes.tolist())),
        class_of=class_of,
        exponent=exponent,
        degrees=tuple(degrees[i] for i in rows),
        chars=chars,
        dixon_prime=p,
        m=m,
        codes=codes,
        index=index,
    )
    _certify(table)
    return table


def _linear_characters(group, reps, exponent, p, z_e):
    """The |G| characters of an abelian group mod p, one row each, on the
    classes, the elements reps.  They are built one generator s at a time:
    on the subgroup H of the generators before s, every element is h s^j
    for h in H and j below the order k of s modulo H, and every character
    chi of H extends in k ways, chi(h s^j) = chi(h) lambda^j with
    lambda^k = chi(s^k).  Values are kept as exponents of z_e: if
    chi(s^k) = z_e^c, then k divides c (the order of s divides e) and
    lambda = z_e^(c/k + t e/k) for t < k."""
    where = np.full(group.order, -1)  # position of each element among members
    where[group.unit] = 0
    members = np.array([group.unit])
    logs = np.zeros((1, 1), dtype=np.int64)  # chi_i(members[x]) = z_e^logs[i, x]
    for s, right in zip(group.gens, group.rmul):
        top, k = s, 1
        while where[top] < 0:  # s^k, for the order k of s modulo H
            top, k = right[top], k + 1
        if k == 1:
            continue
        lam = (logs[:, where[top]] // k)[:, None] + np.arange(k) * (exponent // k)  # [i, t]
        jumps = lam[:, :, None, None] * np.arange(k)[:, None]  # [i, t, j, 0]: j times lambda
        logs = ((logs[:, None, None, :] + jumps) % exponent).reshape(k * len(members), -1)
        blocks = [members]
        for _ in range(k - 1):
            blocks.append(right[blocks[-1]])
        members = np.concatenate(blocks)  # h s^j at j |H| + (position of h)
        where[members] = np.arange(len(members))
    zpow = np.array([pow(z_e, t, p) for t in range(exponent)], dtype=np.int64)
    return zpow[logs[:, where[reps]]]


def _powers(group, reps):
    """powers[l, j] = reps[j]^l for l = 0 .. the largest order among reps."""
    powers = [np.full(len(reps), group.unit), reps]
    done = reps == group.unit
    while not done.all():
        powers.append(group.mul(powers[-1], reps))
        done |= powers[-1] == group.unit
    return np.stack(powers)


def _common_eigenlines(group, class_of, members, starts, sizes, orders, power_map, p):
    """The r central characters mod p, one row each, up to scale: simultaneous
    eigenspace refinement of the class matrices over F_p.  Every array holds
    residues mod p as int64 (p < 2**31.5, so products of two stay exact).

    A space is a basis (rows) with columns at which it is the identity, so
    the coordinates of a vector in the space are its entries there.  Class
    matrices are built one at a time until every space is a line; the class
    algebra is semisimple and split mod p, so refinement ends in r lines.
    The eigenvalues of the matrix of C_i are |C_i| chi(z_i) / chi(1), below
    |C_i| in absolute value; on a rational class (z_i ~ z_i^k for every k
    prime to its order) they are integers, so only those few are candidates.
    """
    r = len(sizes)
    reps = members[starts]
    spaces = [(np.eye(r, dtype=np.int64), np.arange(r))]
    for i in range(1, r):
        if len(spaces) == r:
            break
        # T[k, j] = #{x in C_i : x^-1 z_k in C_j}; the central characters are
        # its left eigenvectors, omega T = omega(C_i) omega
        xs = members[starts[i]:starts[i] + sizes[i]]
        js = class_of[group.mul(group.inv[xs][:, None], reps[None, :])]
        T = np.bincount((np.arange(r) * r + js).ravel(), minlength=r * r).reshape(r, r) % p
        n = orders[i]
        rational = all(power_map[k, i] == i for k in range(2, n) if math.gcd(k, n) == 1)
        candidates = np.arange(-sizes[i], sizes[i] + 1)[:p] % p if rational else np.arange(p)
        refined = []
        for basis, cols in spaces:
            if len(basis) == 1:
                refined.append((basis, cols))
                continue
            images = _mulmod(basis, T, p)
            op = images[:, cols]
            if (_mulmod(op, basis, p) != images).any():
                raise LiftFailure("subspace not invariant under class sum")
            for rows, pivots in _eigenspaces(op, p, candidates):
                refined.append((_mulmod(rows, basis, p), cols[pivots]))
        spaces = refined
    if len(spaces) != r or any(len(basis) != 1 for basis, _ in spaces):
        raise LiftFailure("class algebra did not split into lines")
    return np.concatenate([basis for basis, _ in spaces])


def _eigenspaces(op, p, candidates):
    """Row-echelon bases (rows, pivots) of the left eigenspaces of op, a
    diagonalizable matrix over F_p whose eigenvalues lie among the distinct
    candidates.

    The eigenvalues are the roots of the characteristic polynomial, found by
    evaluating it at every candidate.  The projector onto the
    lambda_i-eigenspace is l_i(op) for the Lagrange polynomial l_i, of degree
    below the number of eigenvalues, with l_i(lambda_j) = delta_ij; its rows
    span the space.
    """
    d = len(op)
    if (op == op[0, 0] * np.eye(d, dtype=np.int64)).all():  # one eigenvalue: no split
        return [(np.eye(d, dtype=np.int64), np.arange(d))]
    # Horner's rule at every candidate, reduced every k steps: p**(k+1) < 2**62
    at = np.zeros(len(candidates), dtype=np.int64)
    k = max(1, 62 // p.bit_length() - 1)
    for n, c in enumerate(reversed(_characteristic_polynomial(op, p)), 1):
        at *= candidates
        at += c
        if n % k == 0:
            at %= p
    lams = candidates[at % p == 0]
    s = len(lams)
    # lagrange[i, k]: coefficient of x^k in l_i, the inverse of vander[k, i] = lams[i]^k
    vander = np.array([[pow(lam, k, p) for lam in lams.tolist()] for k in range(s)])
    lagrange = _echelon(np.concatenate([vander, np.eye(s, dtype=np.int64)], axis=1), p)[0][:, s:]
    powers = [np.eye(d, dtype=np.int64), op]  # op is no scalar, so s >= 2
    for _ in range(s - 2):
        powers.append(_mulmod(powers[-1], op, p))
    projectors = _mulmod(lagrange, np.stack(powers).reshape(s, d * d), p).reshape(s, d, d)
    return [_echelon(proj, p) for proj in projectors]


def _characteristic_polynomial(a, p):
    """Ascending coefficients of det(x - a) over F_p, for any size and p:
    a is reduced to upper Hessenberg form h by similarity, and then
    det(x - h) follows from the leading principal minors of x - h."""
    h = a.copy()
    d = len(h)
    for j in range(d - 2):
        nonzero = np.flatnonzero(h[j + 1:, j])
        if not nonzero.size:
            continue
        i = j + 1 + nonzero[0]
        h[[i, j + 1]] = h[[j + 1, i]]
        h[:, [i, j + 1]] = h[:, [j + 1, i]]
        u = h[j + 2:, j] * pow(int(h[j + 1, j]), p - 2, p) % p
        h[j + 2:] = (h[j + 2:] - np.outer(u, h[j + 1])) % p
        h[:, j + 1] = (h[:, j + 1] + _mulmod(h[:, j + 2:], u, p)) % p
    minors = np.zeros((d + 1, d + 1), dtype=np.int64)  # minors[k]: the leading k x k minor
    minors[0, 0] = 1
    chain = np.zeros(0, dtype=np.int64)  # chain[i] = h[i+1, i] h[i+2, i+1] .. h[k, k-1]
    for k in range(d):  # expand along column k
        minors[k + 1, 1:] = minors[k, :-1]
        minors[k + 1] -= h[k, k] * minors[k]
        if k:
            chain = np.append(chain, 1) * h[k, k - 1] % p
            minors[k + 1] -= _mulmod(h[:k, k] * chain % p, minors[:k], p)
        minors[k + 1] %= p
    return minors[d].tolist()


def _certify(table):
    """Exact row orthogonality, sum_j |C_j| chi_i(j) conj(chi_k(j)) = |G| delta_ik,
    and degree checks; LiftFailure on any miss.  Both sides are compared at
    every embedding of the primes of ``cyclo._moduli`` for a bound on the
    coordinates of their difference, which decides the comparison exactly."""
    r = table.num_classes
    m, codes, index = table.m, table.codes, table.index
    phi = codes.shape[1]
    order = table.group.order
    sizes = np.array([s for _, s in table.classes])
    # a conjugate's coordinates are sums of phi coordinates times entries of red
    red = _reduction(m)
    bound = order * phi * _top(codes) ** 2 * _top(red) * _product_bound(m) + order
    wrong = np.zeros((r, r), dtype=bool)
    for q, E, _ in _moduli(m, bound):
        images = _evaluate(codes, q, E)[index]  # [i, j, e]; a conjugate's image at e is at phi - 1 - e
        left = images * sizes[:, None] % q
        gram = _mulmod(left.transpose(2, 0, 1), images[:, :, ::-1].transpose(2, 1, 0), q)  # [e, i, k]
        gram[:, range(r), range(r)] -= order % q
        wrong |= (gram % q != 0).any(axis=0)
    if wrong.any():
        i, k = np.argwhere(wrong)[0].tolist()
        raise LiftFailure(f"row orthogonality failed at ({i},{k})")
    first = codes[index[:, 0]]  # the identity class
    if (first[:, 0] != np.array(table.degrees)).any() or first[:, 1:].any():
        raise LiftFailure("degree column mismatch")


# ---------------------------------------------------------------------------
# the representation ring


def rep_g_fusion_ring(table):
    """The based ring of Rep G, decomposed and certified by ``rings``' kernel."""
    ones = [1] * table.num_classes
    tensor = rings._decompose(*rings._pointwise_system(table.codes[table.index], table.m, ones), table.degrees)
    labels = tuple(f"chi{i}" for i in range(table.num_classes))
    # the dual of chi_x is the chi_y with N[x][y][0] = 1, its conjugate
    return rings._certified(labels, tensor, table.degrees)
