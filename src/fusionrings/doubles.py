"""Modular data of quantum doubles of finite groups.

Simple objects are (conjugacy class, centralizer irreducible) pairs; the
S-matrix is assembled from exact centralizer character values with a fixed
conjugation orientation and then certified against the modular-data
invariants (symmetry, dimension row, S^2 = dim * charge conjugation).

S is encoded as an integer coefficient array A = L*S of shape
(n, n, phi(m)): the coordinates of each entry in the power basis of
Z[zeta_m], where m is the lcm of the entry conductors and L one common
denominator (1 for genuine doubles).  S^2 = D*C is checked as one integer
contraction on A.

The fusion tensor is the Verlinde sum
N[x][y][z] = sum_t S[x][t] S[y][t] S[z*][t] / (d_t D), that is, the
decomposition sum_z N[x][y][z] S[z][t] = S[x][t] S[y][t] / d_t.  It is
solved and certified by the decomposition kernel of ``rings`` with
X = A * L d_t and the pointwise products A[x][t] A[y][t]; S is invertible
(S^2 = D*C), so the certificate pins N.  The certified tensor is kept on the
modular data and serves the Verlinde ring, the closures (``rings``' subring
closure), the projective centralizers and the S-equivalence check.  The
S-equivalence search is the witness search of ``equivalence``, run on S with
its entries encoded as integer colours.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rings
from .chartab import character_table
from .cyclo import Cyclotomic, _coordinates, _inner, _pointwise
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
    m, scale, A = _coordinates(s)
    square = _inner(A, A, m)  # S is symmetric: (S.S)[x][y] = sum_t S[x][t] S[y][t]
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


def _verlinde_system(md):
    """(X, products, m) with sum_z N[x][y][z] X[z] = products(x)[y] the
    Verlinde decomposition: X[z][t] = L d_t A[z][t] and
    products(x)[y][t] = A[x][t] A[y][t]."""
    m, scale, A = _coordinates(md.S)
    weights = np.array([scale * d for d in md.dims], dtype=object)  # L d_t, as Python ints
    return A * weights[:, None], lambda x: _pointwise(A[x], A, m), m


def _fusion_tensor(md):
    """The Verlinde tensor N[x, y, z] of md, solved in F_p and certified exactly."""
    if md._fusion is None:
        N = rings._decompose(*_verlinde_system(md), md.dims)
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
