"""Exact character tables of finite groups, and the based ring of Rep G.

The table is computed by the classical class-sum eigenvector method: the
commuting class-sum matrices are simultaneously diagonalized over a prime
field F_p with p = 1 (mod exponent) and p beyond the lift bound, and the
eigenvalues are pulled back to exact root-of-unity sums through a discrete
logarithm against a fixed primitive root.  Orthogonality and degrees are
then certified exactly on the integer Z[zeta_m] coordinates of the values.
The ring of Rep G, chi_x chi_y = sum_z N[x][y][z] chi_z, is solved and
certified on the same coordinates by the decomposition kernel of ``rings``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import rings, tables
from .cyclo import Cyclotomic, _coordinates, _inner, _is_prime, _pointwise, _primitive_root
from .errors import LengthMismatch, LiftFailure, NonIntegralMultiplicity

# ---------------------------------------------------------------------------
# F_p utilities


def dixon_prime(order, exponent, max_class_size):
    """Smallest prime = 1 (mod exponent) above the lift safeguard bound."""
    bound = 2 * math.isqrt(order) * max_class_size + 1
    p = (bound // exponent + 1) * exponent + 1
    while not _is_prime(p):
        p += exponent
    return p


# dense ascending-coefficient polynomials over F_p


def _pnorm(f):
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _pnorm(out)


def _pmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and any(f):
        c = f[-1] * inv % p
        shift = len(f) - 1 - dg
        if c:
            for j, b in enumerate(g):
                f[shift + j] = (f[shift + j] - c * b) % p
        f.pop()
    return _pnorm(f if f else [0])


def _pgcd(f, g, p):
    f, g = list(f), list(g)
    while g != [0]:
        f, g = g, _pmod(f, g, p)
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _proots(f, p):
    """Distinct roots of f over F_p (f is assumed to split into linears)."""
    f = _pnorm(list(f))
    roots = []
    if f[0] == 0:
        roots.append(0)
        while f[0] == 0 and len(f) > 1:
            f = f[1:]
    if len(f) == 1:
        return sorted(roots)
    if len(f) == 2:
        roots.append((-f[0]) * pow(f[1], p - 2, p) % p)
        return sorted(roots)
    xp = _ppowmod([0, 1], p, f, p)
    while len(xp) < 2:
        xp.append(0)
    xp[1] = (xp[1] - 1) % p
    g = _pgcd(f, _pnorm(xp), p)

    def split(h):
        if len(h) == 1:
            return
        if len(h) == 2:
            roots.append((-h[0]) * pow(h[1], p - 2, p) % p)
            return
        a = 0
        while True:
            t = _ppowmod([a, 1], (p - 1) // 2, h, p)
            t[0] = (t[0] - 1) % p
            d = _pgcd(h, _pnorm(t), p)
            if 1 < len(d) < len(h):
                split(d)
                split(_pdiv_exact(h, d, p))
                return
            a += 1

    split(g)
    return sorted(roots)


def _pdiv_exact(f, g, p):
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    inv = pow(g[-1], p - 2, p)
    for i in range(len(q) - 1, -1, -1):
        c = f[i + len(g) - 1] * inv % p
        q[i] = c
        if c:
            for j, b in enumerate(g):
                f[i + j] = (f[i + j] - c * b) % p
    return _pnorm(q)


def _charpoly(mat, p):
    """Faddeev-LeVerrier over F_p; ascending coefficients, monic."""
    n = len(mat)
    a = np.array(mat, dtype=object)
    eye = np.identity(n, dtype=object)
    m = eye.copy()
    coeffs = [1]  # leading
    for k in range(1, n + 1):
        m = (a @ m) % p
        c = (-sum(int(m[i, i]) for i in range(n)) * pow(k, p - 2, p)) % p
        coeffs.append(c)
        m = (m + c * eye) % p
    return coeffs[::-1]


def _nullspace(mat, p):
    """Basis of the right nullspace of mat over F_p: the reduced columns of
    mat stacked on the identity whose pivots fall in the identity part."""
    rows, cols = len(mat), len(mat[0])
    stacked = [[row[j] for row in mat] + [int(i == j) for i in range(cols)] for j in range(cols)]
    basis, pivots = _column_echelon(stacked, p)
    return [v[rows:] for v, pr in zip(basis, pivots) if pr >= rows]


def _column_echelon(cols, p):
    """Reduce a list of column vectors; returns (columns, pivot_rows)."""
    out = []
    pivots = []
    for c in cols:
        c = list(c)
        for pc, pr in zip(out, pivots):
            f = c[pr]
            if f:
                c = [(x - f * y) % p for x, y in zip(c, pc)]
        pr = next((i for i, x in enumerate(c) if x % p), None)
        if pr is None:
            continue
        inv = pow(c[pr], p - 2, p)
        c = [x * inv % p for x in c]
        for i, (pc, opr) in enumerate(zip(out, pivots)):
            f = pc[pr]
            if f:
                out[i] = [(x - f * y) % p for x, y in zip(pc, c)]
        out.append(c)
        pivots.append(pr)
    return out, pivots


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True, eq=False)
class CharacterTable:
    group: object
    classes: tuple          # (representative, size) per class, canonical order
    class_of: object        # int array: class index of each element, by element index
    exponent: int
    degrees: tuple
    chars: tuple            # rows of Cyclotomic values, trivial character first
    dixon_prime: int

    @property
    def num_classes(self):
        return len(self.classes)

    def value(self, row, element):
        return self.chars[row][self.class_of[self.group.index_of(element)]]


def character_table(group):
    """Complete exact character table in canonical row order."""
    class_of = group.class_index_map()
    _, reps = np.unique(class_of, return_index=True)  # class minima, in class order
    sizes = np.bincount(class_of).tolist()
    r = len(sizes)
    rep_orders = tables.element_orders(group, reps).tolist()
    exponent = math.lcm(*rep_orders)
    order = group.order
    p = dixon_prime(order, exponent, max(sizes))

    # class multiplication constants a[i][j][k] = #{x in C_i : x^-1 z_k in C_j}
    a = np.zeros((r, r, r), dtype=np.int64)
    for k, z in enumerate(reps):
        j = class_of[group.mul(group.inv, z)]
        a[:, :, k] = np.bincount(class_of * r + j, minlength=r * r).reshape(r, r)

    mats = (a % p).tolist()
    spaces = _common_eigenlines(mats, p, r)
    if any(len(cols) != 1 for cols, _ in spaces):
        raise LiftFailure("class algebra did not split into lines")

    e_idx = 0  # identity class is first in canonical order
    omegas = []
    for cols, _ in spaces:
        w = list(cols[0])
        if w[e_idx] == 0:
            raise LiftFailure("eigenvector vanishes at the identity class")
        inv = pow(w[e_idx], p - 2, p)
        omegas.append([x * inv % p for x in w])

    inv_class = class_of[group.inv[reps]].tolist()
    chars_fp = []
    degrees = []
    for w in omegas:
        s = sum(w[j] * w[inv_class[j]] * pow(sizes[j], p - 2, p) for j in range(r)) % p
        d2 = order * pow(s, p - 2, p) % p
        # p > 2 sqrt|G|, so at most one candidate degree squares to d2
        deg = next(
            (d for d in range(1, math.isqrt(order) + 1) if d * d % p == d2 and order % d == 0), None
        )
        if deg is None:
            raise LiftFailure(f"no degree dividing |G| squares to {d2} mod p")
        degrees.append(deg)
        chars_fp.append([deg * w[j] * pow(sizes[j], p - 2, p) % p for j in range(r)])

    if sum(d * d for d in degrees) != order:
        raise LiftFailure("degree squares do not sum to the group order")

    # lift to exact cyclotomic values
    g0 = _primitive_root(p)
    z_e = pow(g0, (p - 1) // exponent, p)
    powers = [np.full(r, group.unit)]
    for _ in range(max(rep_orders) - 1):
        powers.append(group.mul(powers[-1], reps))
    powmap = [[int(class_of[powers[l][j]]) for l in range(m)] for j, m in enumerate(rep_orders)]

    rows = []
    for deg, fvals in zip(degrees, chars_fp):
        values = []
        for j in range(r):
            m = len(powmap[j])
            zm = pow(z_e, exponent // m, p)
            minv = pow(m, p - 2, p)
            coeffs = {}
            for k in range(m):
                ck = minv * sum(
                    fvals[powmap[j][l]] * pow(zm, (-l * k) % (p - 1), p) for l in range(m)
                ) % p
                if ck:
                    if ck > deg:
                        raise LiftFailure(f"eigenvalue multiplicity {ck} exceeds degree {deg}")
                    coeffs[k] = Fraction(ck)
            values.append(Cyclotomic(m, coeffs))
        rows.append((deg, tuple(values)))

    rows.sort(key=lambda dr: (dr[0], tuple(v.sort_key() for v in dr[1])))
    one = Cyclotomic.one()
    triv = next(i for i, (_, vals) in enumerate(rows) if all(v == one for v in vals))
    rows.insert(0, rows.pop(triv))

    table = CharacterTable(
        group=group,
        classes=tuple((group.element(rep), size) for rep, size in zip(reps, sizes)),
        class_of=class_of,
        exponent=exponent,
        degrees=tuple(d for d, _ in rows),
        chars=tuple(vals for _, vals in rows),
        dixon_prime=p,
    )
    _certify(table)
    return table


def _common_eigenlines(mats, p, r):
    """Simultaneous eigenspace refinement of commuting matrices over F_p.

    Spaces are kept as (echelonized column basis, pivot rows); the class
    algebra is semisimple and split, so refinement ends in r lines.
    """
    eye = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    spaces = [_column_echelon(eye, p)]
    for m in mats:
        if all(len(cols) == 1 for cols, _ in spaces):
            break
        refined = []
        for cols, pivot_rows in spaces:
            d = len(cols)
            if d == 1:
                refined.append((cols, pivot_rows))
                continue
            images = [
                tuple(sum(m[i][k] * c[k] for k in range(r)) % p for i in range(r))
                for c in cols
            ]
            # coordinates in the echelon basis read off at the pivot rows
            op = [[images[j][pivot_rows[i]] for j in range(d)] for i in range(d)]
            for j in range(d):
                recon = [sum(op[s][j] * cols[s][t] for s in range(d)) % p for t in range(r)]
                if list(images[j]) != recon:
                    raise LiftFailure("subspace not invariant under class sum")
            for lam in _proots(_charpoly(op, p), p):
                shifted = [
                    [(op[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                    for i in range(d)
                ]
                lifted = []
                for coords in _nullspace(shifted, p):
                    lifted.append(
                        tuple(sum(coords[s] * cols[s][t] for s in range(d)) % p for t in range(r))
                    )
                if lifted:
                    refined.append(_column_echelon(lifted, p))
        spaces = refined
    return spaces


def _certify(table):
    """Exact row orthogonality, sum_j |C_j| chi_i(j) conj(chi_k(j)) = |G| delta_ik,
    and degree checks; LiftFailure on any miss."""
    r = table.num_classes
    m, scale, X = _coordinates(table.chars)
    bar = _coordinates([[v.conjugate() for v in row] for row in table.chars])[2]
    sizes = np.array([s for _, s in table.classes])  # |C_j| <= |G|: the products fit int64
    gram = _inner(X * sizes[:, None], bar, m)  # [i, k, c]
    want = np.zeros_like(gram)
    want[np.arange(r), np.arange(r), 0] = scale * scale * table.group.order
    bad = np.argwhere((gram != want).any(axis=2))
    if bad.size:
        i, k = bad[0].tolist()
        raise LiftFailure(f"row orthogonality failed at ({i},{k})")
    if (X[:, 0, 0] != scale * np.array(table.degrees)).any() or X[:, 0, 1:].any():
        raise LiftFailure("degree column mismatch")


# ---------------------------------------------------------------------------
# class functions and the representation ring


def inner_product(table, a, b):
    """(1/|G|) sum over classes of size * a_j * conj(b_j)."""
    r = table.num_classes
    if len(a) != r or len(b) != r:
        raise LengthMismatch(f"expected {r} values")
    acc = Cyclotomic.zero()
    for j, (_, size) in enumerate(table.classes):
        acc = acc + Cyclotomic._coerce(a[j]) * Cyclotomic._coerce(b[j]).conjugate() * size
    return acc / table.group.order


def _rep_system(table):
    """(X, products, m) with sum_z N[x][y][z] X[z] = products(x)[y] the
    decomposition chi_x chi_y = sum_z N[x][y][z] chi_z, on Z[zeta_m]
    coordinates."""
    m, scale, X = _coordinates(table.chars)
    return X * scale, lambda x: _pointwise(X[x], X, m), m


def rep_g_fusion_ring(table):
    """The based ring of Rep G, decomposed and certified by ``rings``' kernel."""
    tensor = rings._decompose(*_rep_system(table), table.degrees)
    labels = tuple(f"chi{i}" for i in range(table.num_classes))
    # the dual of chi_x is the chi_y with N[x][y][0] = 1, its conjugate
    ring = rings.FusionRing(labels, tensor)
    rings.validate(ring)
    dims = rings.fp_dims(ring)
    if not (dims.exact and dims.dims == table.degrees):
        raise NonIntegralMultiplicity("ring dimensions disagree with character degrees")
    return ring


# ---------------------------------------------------------------------------
# explicit irreducible matrices (used for induced-module constructions)


@lru_cache(maxsize=None)
def _all_subgroups(group):
    """Every subgroup as a sorted index tuple, largest first."""
    cyclic = {frozenset(tables.closure(group, [g]).tolist()) for g in range(group.order)}
    found = set(cyclic)
    frontier = set(cyclic)
    while frontier:
        new = set()
        for a in frontier:
            for b in cyclic:
                if b <= a:
                    continue
                c = frozenset(tables.closure(group, list(a | b)).tolist())
                if c not in found:
                    found.add(c)
                    new.add(c)
        frontier = new
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (-len(s), s))


def irrep_matrices(table, row):
    """Exact matrices of one irreducible, as a dict element -> tuple-matrix.

    Realized inside the smallest coset action containing the character once;
    the trace of every returned matrix is certified against the table.
    """
    group = table.group
    deg = table.degrees[row]
    chi = [table.chars[row][c] for c in table.class_of.tolist()]  # by element index
    els = group.elements
    if deg == 1:
        return {g: ((v,),) for g, v in zip(els, chi)}
    inv = group.inv.tolist()
    everything = np.arange(group.order)
    for sub in _all_subgroups(group):
        acc = Cyclotomic.zero()
        for h in sub:
            acc = acc + chi[h]
        mult = (acc / len(sub)).rational_part()
        if mult != 1:
            continue
        coset_of, reps = tables.left_cosets(group, sub)
        c = len(reps)
        perm_of = coset_of[group.mul(everything[:, None], reps[None, :])].tolist()
        # isotypic projector (deg/|G|) sum chi(g^-1) rho(g)
        proj = [[Cyclotomic.zero() for _ in range(c)] for _ in range(c)]
        for g in range(group.order):
            coeff = chi[inv[g]]
            if coeff.is_zero():
                continue
            pg = perm_of[g]
            for j in range(c):
                proj[pg[j]][j] = proj[pg[j]][j] + coeff
        scale = Fraction(deg, group.order)
        cols = [[proj[i][j] * scale for i in range(c)] for j in range(c)]
        steps = list(_cyclo_column_echelon(cols))
        if len(steps) != deg:
            continue
        _, basis, pivots = steps[-1]
        mats = {}
        ok = True
        for g in range(group.order):
            pg_inv = perm_of[inv[g]]
            permuted = [[basis[l][pg_inv[i]] for l in range(deg)] for i in range(c)]
            mat = tuple(tuple(permuted[pivots[i]][l] for l in range(deg)) for i in range(deg))
            tr = Cyclotomic.zero()
            for i in range(deg):
                tr = tr + mat[i][i]
            if tr != chi[g]:
                ok = False
                break
            mats[els[g]] = mat
        if ok:
            return mats
    raise LiftFailure(f"no multiplicity-one coset realization for character {row}")


def _cyclo_column_echelon(cols):
    """Reduced column echelon over Q(zeta), built one input column at a time.

    Yields (position, basis, pivot rows) after each input column that is
    independent of the ones before it; ``basis[i]`` is 1 at its pivot row and
    0 at every other pivot row.  A caller that needs only the first k
    independent columns stops iterating there.
    """
    basis = []
    pivots = []
    for pos, col in enumerate(cols):
        col = list(col)
        for prev, pr in zip(basis, pivots):
            f = col[pr]
            if not f.is_zero():
                col = [x - f * y for x, y in zip(col, prev)]
        pr = next((i for i, x in enumerate(col) if not x.is_zero()), None)
        if pr is None:
            continue
        inv = col[pr].inverse()
        col = [x * inv for x in col]
        for i in range(len(basis)):
            f = basis[i][pr]
            if not f.is_zero():
                basis[i] = [x - f * y for x, y in zip(basis[i], col)]
        basis.append(col)
        pivots.append(pr)
        yield pos, basis, pivots
