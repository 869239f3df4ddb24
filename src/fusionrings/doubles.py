"""Modular data of quantum doubles of finite groups.

Simple objects are (conjugacy class, centralizer irreducible) pairs; the
S-matrix is assembled from exact centralizer character values with a fixed
conjugation orientation and then certified against the modular-data
invariants (symmetry, dimension row, S^2 = dim * charge conjugation).

S is encoded as an integer coefficient array A = L*S of shape
(n, n, phi(m)): the coordinates of each entry in the power basis of
Z[zeta_m], where m is the lcm of the entry conductors and L one common
denominator (1 for genuine doubles).  S^2 = D*C is checked as one integer
matmul on A.

The fusion tensor is the Verlinde sum
N[x][y][z] = sum_t S[x][t] S[y][t] S[z*][t] / (d_t D).  It is computed in
F_p, for the least prime p = 1 (mod m) above 2 max(d)^2 that divides none
of L, D and the d_t, with zeta_m sent to a primitive m-th root of unity mod
p: one batched matmul, whose residues are lifted symmetrically.  The lift is
then certified exactly on integer arrays: L d_t (N_x A)[y][t] =
A[x][t] A[y][t] for all x, y, t.  S is invertible (S^2 = D*C), so this
identity holds exactly when N is the Verlinde value, and no answer rests on
the prime.  The certified tensor is kept on the modular data and serves the
Verlinde ring, the closures (``rings``' subring closure), the projective
centralizers and the S-equivalence check.  The S-equivalence search is the
witness search of ``equivalence``, run on S with its entries encoded as
integer colours.  Every matmul runs in the dtype that an explicit bound
on its sums allows (``rings._exact_dtype``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from . import rings
from .chartab import _primitive_root, character_table
from .cyclo import Cyclotomic, _encode, _is_prime, _monomial_reduction
from .equivalence import _node_budget, _search
from .errors import InvariantFailure, NonIntegralMultiplicity, SingularS

TANNAKIAN = "TANNAKIAN"
SUPER_TANNAKIAN_ONLY = "SUPER_TANNAKIAN_ONLY"
NOT_SYMMETRIC = "NOT_SYMMETRIC"


@dataclass(frozen=True)
class DoubleLabel:
    class_index: int
    class_rep: object
    char_row: int
    dim: int

    def name(self):
        return f"({self.class_rep.cycle_string()},{self.char_row})"


@dataclass
class ModularData:
    group: object
    labels: tuple
    S: tuple           # square matrix of Cyclotomic, normalized S[0][0] = 1
    T: tuple           # diagonal of Cyclotomic roots of unity
    dims: tuple
    global_dim: int
    charge_conjugation: tuple
    _fusion: np.ndarray = field(default=None, repr=False, compare=False)  # certified N, built on first use

    @property
    def size(self):
        return len(self.labels)


def double_modular_data(group, twist=None):
    """Exact S and T matrices of the double of a finite group.

    Only the untwisted double is supported; twist data is rejected.
    """
    if twist is not None:
        raise ValueError("only untwisted doubles are supported")
    classes = group.conjugacy_classes()
    order = group.order
    cents = []
    tabs = []
    for rep, _ in classes:
        c = group.centralizer_of(rep)
        cents.append(c)
        tabs.append(character_table(c))

    labels = []
    for ci, (rep, members) in enumerate(classes):
        for row in range(tabs[ci].num_classes):
            labels.append(
                DoubleLabel(
                    class_index=ci,
                    class_rep=rep,
                    char_row=row,
                    dim=len(members) * tabs[ci].degrees[row],
                )
            )
    n = len(labels)
    dims = tuple(l.dim for l in labels)

    t_diag = []
    for l in labels:
        tab = tabs[l.class_index]
        t_diag.append(tab.value(l.char_row, l.class_rep) / tab.degrees[l.char_row])

    # pairing counts per class pair: how often (class of gbg^-1 in C(a),
    # class of g^-1ag in C(b)) occurs over g with a and gbg^-1 commuting
    everything = np.arange(order)
    _, reps = np.unique(group.class_index_map(), return_index=True)
    inner = [group.mul(group.mul(everything, b), group.inv) for b in reps]  # g b g^-1
    outer = [group.mul(group.mul(group.inv, a), everything) for a in reps]  # g^-1 a g
    r = len(classes)
    pair_counts = [[None] * r for _ in range(r)]
    for i, a in enumerate(reps):
        for j, gb in enumerate(inner):
            keep = group.mul(a, gb) == group.mul(gb, a)
            ka = tabs[i].class_of[cents[i].index_rows(group.images[gb[keep]])]
            kb = tabs[j].class_of[cents[j].index_rows(group.images[outer[i][keep]])]
            pair_counts[i][j] = Counter(zip(ka.tolist(), kb.tolist()))

    s = [[None] * n for _ in range(n)]
    for xi, lx in enumerate(labels):
        tab_x = tabs[lx.class_index]
        cx = cents[lx.class_index].order
        for yi, ly in enumerate(labels):
            tab_y = tabs[ly.class_index]
            cy = cents[ly.class_index].order
            acc = Cyclotomic.zero()
            for (ka, kb), cnt in pair_counts[lx.class_index][ly.class_index].items():
                term = (
                    tab_x.chars[lx.char_row][ka].conjugate()
                    * tab_y.chars[ly.char_row][kb].conjugate()
                )
                acc = acc + term * cnt
            s[xi][yi] = acc * Fraction(order, cx * cy)

    md = ModularData(
        group=group,
        labels=tuple(labels),
        S=tuple(tuple(row) for row in s),
        T=tuple(t_diag),
        dims=dims,
        global_dim=order * order,
        charge_conjugation=(),
    )
    conj = _certify_modular(md)
    md.charge_conjugation = conj
    return md


def _certify_modular(md):
    n = md.size
    s, t, dims = md.S, md.T, md.dims
    if sum(d * d for d in dims) != md.global_dim:
        raise InvariantFailure("global_dim", "squared dims do not sum to |G|^2")
    if t[0] != Cyclotomic.one():
        raise InvariantFailure("unit_twist")
    for x in range(n):
        acc = Cyclotomic.one()
        for _ in range(2 * t[x].conductor):
            acc = acc * t[x]
        if acc != Cyclotomic.one():
            raise InvariantFailure("twist_not_root_of_unity", f"T[{x}]")
    for x in range(n):
        if s[0][x] != Cyclotomic.rational(dims[x]):
            raise InvariantFailure("dimension_row", f"S[0][{x}] != dim")
        if dims[x] == 0:
            raise InvariantFailure("dimension_row", f"dim {x} is zero")
        for y in range(x, n):
            if s[x][y] != s[y][x]:
                raise InvariantFailure("symmetry", f"S[{x}][{y}]")
    # S.S = global_dim * permutation of order <= 2, as L^2 S.S on A
    scale, m, A = _s_coordinates(md)
    phi = A.shape[2]
    top = int(np.abs(A).max())
    table = _product_table(m)
    dt = rings._exact_dtype(n * phi * phi * top * top * int(np.abs(table).max()))
    A = A.astype(dt)
    left = np.tensordot(A, table.astype(dt), axes=(2, 0))  # [x, k, b, c]
    square = (
        left.transpose(0, 3, 1, 2).reshape(n * phi, n * phi)
        @ A.transpose(0, 2, 1).reshape(n * phi, n)
    ).reshape(n, phi, n).transpose(0, 2, 1)  # [x, y, c]
    target = scale * scale * md.global_dim
    nonzero = (square != 0).any(axis=2)
    conj = [None] * n
    for x in range(n):
        hits = np.flatnonzero(nonzero[x]).tolist()
        for y in hits:
            if int(square[x, y, 0]) != target or (square[x, y, 1:] != 0).any():
                raise InvariantFailure("s_squared", f"entry ({x},{y}) is neither 0 nor the global dimension")
        if len(hits) != 1:
            raise InvariantFailure("s_squared", f"row {x} is not a permutation row")
        conj[x] = hits[0]
    for x in range(n):
        if conj[conj[x]] != x:
            raise InvariantFailure("charge_conjugation_order")
    if conj[0] != 0:
        raise InvariantFailure("charge_conjugation_unit")
    return tuple(conj)


@lru_cache(maxsize=None)
def _product_table(m):
    """table[a, b] = canonical Z[zeta_m] coordinates of zeta_m^(a + b), a, b < phi(m)."""
    red = np.array(_monomial_reduction(m), dtype=np.int64)
    phi = red.shape[1]
    table = red[np.add.outer(np.arange(phi), np.arange(phi))]
    table.setflags(write=False)
    return table


def _s_coordinates(md):
    """(L, m, A): A[x, y] holds the canonical Z[zeta_m] coordinates of L * S[x][y].

    A is int64 when its encoding fits, else an array of Python ints.
    """
    n = md.size
    entries = [v for row in md.S for v in row]
    m = math.lcm(*(v.conductor for v in entries))
    scale, rows = _encode(entries, m)
    red = np.array(_monomial_reduction(m)[:m], dtype=np.int64)
    top = max(map(abs, chain.from_iterable(rows))) * m * int(np.abs(red).max())
    dt = np.int64 if top < 2**63 else object
    return scale, m, (np.array(rows, dtype=dt) @ red.astype(dt)).reshape(n, n, -1)


def _verlinde_prime(md, scale, m):
    """Least prime p = 1 (mod m) above 2 max(d)^2 dividing none of L, D and the d_t.

    With positive dimensions, non-negative multiplicities lie in [0, max(d)^2]
    (sum_z N[x][y][z] d_z = d_x d_y), so their symmetric residues mod p are
    the multiplicities themselves; any other lift fails the exact certificate.
    """
    bound = 2 * max(d * d for d in md.dims)
    denominators = scale * md.global_dim * math.prod(md.dims)
    p = bound // m * m + 1
    while p <= bound or not _is_prime(p) or denominators % p == 0:
        p += m
    return p


def _verlinde_mod_p(md, scale, m, A, p):
    """The Verlinde tensor modulo p, lifted from symmetric residues."""
    n, phi = md.size, A.shape[2]
    dt = rings._exact_dtype(max(n, phi) * (p - 1) ** 2)
    omega = pow(_primitive_root(p), (p - 1) // m, p)
    powers = np.array([pow(omega, k, p) for k in range(phi)], dtype=dt)
    s = (A % p).astype(dt) @ powers % p  # L * S mod p
    weights = [pow(scale**3 * d * md.global_dim, -1, p) for d in md.dims]
    # right[t, z] = S[z*][t] / (d_t D), the inverse of S scaled by 1 / d_t
    right = s[list(md.charge_conjugation)].T * np.array(weights, dtype=dt)[:, None] % p
    resid = s @ (s[:, :, None] * right[None] % p) % p  # [x, y, z], one matmul per x
    lifted = np.where(resid > p // 2, resid - p, resid)
    return lifted if dt is object else lifted.astype(np.int64)


def _certify_fusion(md, scale, m, A, N):
    """Certify exactly that N is the Verlinde tensor: L d_t (N_x A)[y][t] = A[x][t] A[y][t]."""
    if (N < 0).any():
        x, y, z = np.argwhere(N < 0)[0].tolist()
        raise NonIntegralMultiplicity(f"N[{x}][{y}][{z}] = {N[x, y, z]} is negative")
    n, phi = md.size, A.shape[2]
    top = int(np.abs(A).max())
    table = _product_table(m)
    lhs_bound = scale * max(abs(d) for d in md.dims) * n * int(N.max()) * top
    rhs_bound = phi * phi * top * top * int(np.abs(table).max())
    dt = rings._exact_dtype(max(lhs_bound, rhs_bound))
    A = A.astype(dt)
    weights = np.array([scale * d for d in md.dims], dtype=dt)  # L d_t
    lhs = (N.astype(dt).reshape(n * n, n) @ A.reshape(n, n * phi)).reshape(n, n, n, phi)
    lhs = lhs * weights[:, None]
    left = np.tensordot(A, table.astype(dt), axes=(2, 0))  # [x, t, b, c]
    rhs = np.matmul(A.transpose(1, 0, 2), left.transpose(1, 2, 0, 3).reshape(n, phi, n * phi))
    rhs = rhs.reshape(n, n, n, phi).transpose(2, 1, 0, 3)  # [x, y, t, c]
    if not np.array_equal(lhs, rhs):
        x, y = np.argwhere((lhs != rhs).any(axis=(2, 3)))[0].tolist()
        raise NonIntegralMultiplicity(f"row N[{x}][{y}] fails the exact Verlinde certificate")


def _fusion_tensor(md):
    """The Verlinde tensor N[x, y, z] of md, computed in F_p and certified exactly."""
    if md._fusion is None:
        scale, m, A = _s_coordinates(md)
        N = _verlinde_mod_p(md, scale, m, A, _verlinde_prime(md, scale, m))
        _certify_fusion(md, scale, m, A, N)
        N.setflags(write=False)
        md._fusion = N
    return md._fusion


def verlinde_fusion(md):
    """Fusion ring recovered from the S-matrix; certified non-negative integral."""
    # non-degeneracy witness: charge conjugation exists (certified at build)
    if not md.charge_conjugation:
        raise SingularS("modular data carries no charge conjugation")
    ring = rings.FusionRing(
        tuple(l.name() for l in md.labels), _fusion_tensor(md), md.charge_conjugation
    )
    rings.validate(ring)
    got = rings.fp_dims(ring)
    if not (got.exact and got.dims == md.dims):
        raise NonIntegralMultiplicity("recovered dimensions disagree with label dimensions")
    return ring


def _centralizes(md, x, y):
    return md.S[x][y] == Cyclotomic.rational(md.dims[x] * md.dims[y])


def centralizer_subset(md, subset):
    """Labels whose double braiding with everything in the closed subset is
    trivial, detected by S[x][y] = d_x d_y."""
    closed = rings._generated(_fusion_tensor(md), md.charge_conjugation, subset)
    return tuple(
        x for x in range(md.size) if all(_centralizes(md, x, y) for y in closed)
    )


def mueger_center(md):
    return centralizer_subset(md, range(md.size))


def is_tannakian_subset(md, subset):
    """TANNAKIAN / SUPER_TANNAKIAN_ONLY / NOT_SYMMETRIC for a based subset."""
    closed = rings._generated(_fusion_tensor(md), md.charge_conjugation, subset)
    cent = set(centralizer_subset(md, closed))
    if not set(closed) <= cent:
        return NOT_SYMMETRIC
    if all(md.T[x] == Cyclotomic.one() for x in closed):
        return TANNAKIAN
    return SUPER_TANNAKIAN_ONLY


def projective_centralizer(md, subset):
    """Labels centralizing every simple in the support of y (x) y* over the subset."""
    closed = list(rings._generated(_fusion_tensor(md), md.charge_conjugation, subset))
    duals = [md.charge_conjugation[y] for y in closed]
    targets = np.flatnonzero((_fusion_tensor(md)[closed, duals] > 0).any(axis=0)).tolist()
    return tuple(
        x for x in range(md.size) if all(_centralizes(md, x, z) for z in targets)
    )


def central_charge(md):
    """Numeric tau+ / sqrt(global dim); equals 1 for doubles."""
    tau = complex(0)
    for x in range(md.size):
        tau += md.T[x].numeric() * md.dims[x] ** 2
    return tau / math.sqrt(md.global_dim)


def pointed_labels(md):
    return tuple(x for x in range(md.size) if md.dims[x] == 1)


def s_equivalence(md1, md2, budget=None):
    """Unit-preserving bijection matching the S-matrices entrywise, or None.

    S entries become integer colours, one colour per distinct value across
    both matrices, and the witness search of ``equivalence`` runs on them.
    """
    n = md1.size
    if n != md2.size or md1.global_dim != md2.global_dim:
        return None
    colours = {}
    c1, c2 = (
        np.array([[colours.setdefault(v, len(colours)) for v in row] for row in md.S])
        for md in (md1, md2)
    )
    prof1, prof2 = (
        [(md.dims[x], tuple(sorted(c[x].tolist()))) for x in range(n)]
        for md, c in ((md1, c1), (md2, c2))
    )
    f = _search(c1, c2, prof1, prof2, _node_budget(budget))
    if f is None:
        return None
    # any S-equivalence is a Grothendieck equivalence of the recovered rings
    if not np.array_equal(_fusion_tensor(md1), _fusion_tensor(md2)[np.ix_(f, f, f)]):
        raise AssertionError("S-equivalence failed fusion re-verification (bug)")
    return f
