"""Modular data of the untwisted quantum doubles of finite groups.

Simple objects are (conjugacy class, centralizer irreducible) pairs.  S and
T are built on the integer Z[zeta_M] coordinates that the centralizer
character tables carry, M the lcm of their m: one matrix X holds every
label's character on the classes of its centralizer, the pairing counts
of those classes form one integer matrix, and S is X counts X^T times
|G| / (|C(a)||C(b)|), T is chi(a) / chi(1), each by exact division.  Each
distinct entry gets its canonical integral form once, and one Cyclotomic,
for documents and ``md.S``/``md.T``.

Everything after reads one encoding of S and T per instance (``_encoded``):
A = L*S of shape (n, n, phi(m)), the coordinates of each entry in the power
basis of Z[zeta_m], m the lcm of the entry conductors and L one common
denominator (1 for genuine doubles).  The double and a modular data
document's reader set it from the integral forms they hold; any other
instance is encoded from its Cyclotomic entries on first use.  The
certificate checks the twists, the dimension row and symmetry on it, and
S^2 = D*C as one contraction; both contractions, S and S^2, run at the
embeddings of ``cyclo._inner``.

The fusion tensor is the Verlinde decomposition
sum_z N[x][y][z] S[z][t] = S[x][t] S[y][t] / d_t, solved and certified by
the decomposition kernel of ``rings`` with X = A * L d_t and the pointwise
products A[x][t] A[y][t]; S is invertible (S^2 = D*C), so the certificate
pins N.  The tensor is kept on the modular data and serves the Verlinde
ring, the closures, the centralizers and the S-equivalence check, the
witness search of ``equivalence`` run on S with entries as integer colours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rings
from .chartab import character_table
from .cyclo import (
    Cyclotomic,
    _coordinates,
    _exact_dtype,
    _indexed_coordinates,
    _inner,
    _lift,
    _phi,
    _reduced_form,
    _reduction,
    _top,
    _value,
)
from .equivalence import _node_budget, _search
from .errors import InvariantFailure, SingularS, TooManyLabels

TANNAKIAN = "TANNAKIAN"
SUPER_TANNAKIAN_ONLY = "SUPER_TANNAKIAN_ONLY"
NOT_SYMMETRIC = "NOT_SYMMETRIC"

# The S block and its S^2 certificate hold a few labels^2 phi(M) arrays of
# coordinates or images and cost labels^3 phi(M) multiply-adds per prime;
# doubles with more labels are refused before any table is built.  At the
# bound, double C32 (1,024 labels, phi = 16) takes 5 s and 1.5 GB on one core.
MAX_LABELS = 1024


@dataclass(frozen=True)
class DoubleLabel:
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
    _encoding: tuple = field(default=None, init=False, repr=False, compare=False)  # see _encoded

    @property
    def size(self):
        return len(self.labels)


def double_modular_data(group):
    """Exact S and T matrices of the untwisted double of a finite group."""
    classes = group.conjugacy_classes()
    order = group.order
    cents = [group.centralizer_of(rep) for rep, _ in classes]
    n = sum(int(c.class_index_map().max()) + 1 for c in cents)  # one label per centralizer class
    if n > MAX_LABELS:
        raise TooManyLabels(f"{n} labels exceed the double's label bound of {MAX_LABELS}")
    by_centralizer = {}  # one table per distinct centralizer subgroup
    for c in cents:
        if c not in by_centralizer:
            by_centralizer[c] = character_table(c)
    tabs = [by_centralizer[c] for c in cents]
    labels = [
        DoubleLabel(class_rep=rep, char_row=row, dim=len(members) * tabs[ci].degrees[row])
        for ci, (rep, members) in enumerate(classes)
        for row in range(tabs[ci].num_classes)
    ]

    # column k of X is a class of one centralizer C(a_i); label (i, row) holds
    # chi_row there, as Z[zeta_M] coordinates, and 0 in the other columns
    M = math.lcm(*(tab.m for tab in tabs))
    sizes = [tab.num_classes for tab in tabs]
    offsets = np.cumsum([0] + sizes)
    X = np.zeros((n, offsets[-1], _phi(M)), dtype=np.int64)
    where = np.full((len(classes), order), -1)  # where[i, g]: the column of g in C(a_i)
    for i, (cent, tab) in enumerate(zip(cents, tabs)):
        X[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = _lift(tab.codes, tab.m, M)[tab.index]
        where[i, group.index_rows(cent.images)] = offsets[i] + tab.class_of
    _, reps = np.unique(group.class_index_map(), return_index=True)
    # T = chi(a) / chi(1); a is central in C(a)
    degrees = np.concatenate([tab.degrees for tab in tabs])[:, None]
    t = _exact_quotient(X[range(n), np.repeat(where[range(len(reps)), reps], sizes)], degrees, "T")

    # counts[k, l]: the number of g with a_i and g b_j g^-1 commuting,
    # (g b_j g^-1)^-1 in class k of C(a_i) and (g^-1 a_i g)^-1 in class l of
    # C(b_j); as conj chi(x) = chi(x^-1), S = |G| / (|C(a)||C(b)|) X counts X^T
    everything = np.arange(order)
    inner = group.mul(group.mul(everything, reps[:, None]), group.inv)  # [j, g] = g b_j g^-1
    counts = np.zeros((offsets[-1], offsets[-1]), dtype=np.int64)
    for i, a in enumerate(reps):
        j, g = np.nonzero(group.mul(a, inner) == group.mul(inner, a))
        outer = group.mul(group.mul(group.inv[g], a), g)  # g^-1 a_i g
        np.add.at(counts, (where[i, group.inv[inner[j, g]]], where[j, group.inv[outer]]), 1)
    dt = _exact_dtype(offsets[-1] * _top(counts) * _top(X))
    weighted = np.matmul(counts, X, dtype=dt).astype(object if dt is object else np.int64)  # [y, k]: counts X[y]
    block = _inner(X, weighted, M)
    if _top(block) * order >= 2**63:
        block = block.astype(object)
    centralizers = np.repeat([cent.order for cent in cents], sizes)
    s = _exact_quotient(block * order, np.multiply.outer(centralizers, centralizers)[:, :, None], "S")

    S, encoded_s = _values(M, s)
    (T,), (mt, lt, encoded_t) = _values(M, t[None])
    md = ModularData(
        group=group,
        labels=tuple(labels),
        S=S,
        T=T,
        dims=tuple(l.dim for l in labels),
        global_dim=order * order,
        charge_conjugation=(),
    )
    md._encoding = encoded_s, (mt, lt, encoded_t[0])
    md.charge_conjugation = _certify_modular(md)
    return md


def _values(M, coords):
    """(rows, (m, 1, X)) for integer Z[zeta_M] coordinates coords (rows,
    columns, phi(M)): the rows of Cyclotomic values, one object per distinct
    value, and their encoding as ``cyclo._coordinates`` has it."""
    slots = {}  # the distinct coordinate tuples, in order of first occurrence
    index = [[slots.setdefault(c, len(slots)) for c in map(tuple, row)] for row in coords.tolist()]
    forms = [_reduced_form(M, dict(enumerate(c))) for c in slots]
    values = list(map(_value, forms))
    return tuple(tuple(values[k] for k in row) for row in index), _indexed_coordinates(forms, index)


def _exact_quotient(a, b, name):
    """a // b, or InvariantFailure at the first entry of matrix name that b does not divide."""
    q, r = np.divmod(a, b)
    if r.any():
        raise InvariantFailure("exact_division", name + "".join(f"[{i}]" for i in np.argwhere(r)[0][:-1]))
    return q


def _encoded(md):
    """((m, L, A), (mt, lt, T)): the coordinates of L*S and lt*T as built by
    ``cyclo._coordinates``, encoded once per instance unless its maker set
    them from the coordinates it held."""
    if md._encoding is None:
        mt, lt, T = _coordinates([md.T])
        md._encoding = _coordinates(md.S), (mt, lt, T[0])
    return md._encoding


def _certify_modular(md):
    dims = np.array(md.dims, dtype=object)
    (m, scale, A), (mt, lt, T) = _encoded(md)
    if sum(d * d for d in md.dims) != md.global_dim:
        raise InvariantFailure("global_dim", "squared dims do not sum to |G|^2")
    if T[0, 0] != lt or T[0, 1:].any():
        raise InvariantFailure("unit_twist")
    # the roots of unity of Q(zeta_mt) are +-zeta_mt^k; lt zeta_mt^k fits T's dtype, as T[0] = lt does
    roots = lt * _reduction(mt).astype(T.dtype)
    bad = np.flatnonzero(~(T[:, None] == np.concatenate([roots, -roots])).all(axis=2).any(axis=1))
    if bad.size:
        raise InvariantFailure("twist_not_root_of_unity", f"T[{bad[0]}]")
    # label by label: the dimension row entry, then symmetry right of the diagonal
    wrong = (A[0, :, 0] != scale * dims) | A[0, :, 1:].any(axis=1)
    asymmetric = np.triu((A != A.swapaxes(0, 1)).any(axis=2))
    first = np.flatnonzero(wrong | (dims == 0) | asymmetric.any(axis=1))
    if first.size:
        x = first[0]
        if wrong[x]:
            raise InvariantFailure("dimension_row", f"S[0][{x}] != dim")
        if dims[x] == 0:
            raise InvariantFailure("dimension_row", f"dim {x} is zero")
        raise InvariantFailure("symmetry", f"S[{x}][{np.flatnonzero(asymmetric[x])[0]}]")
    # S.S = global_dim * permutation of order <= 2, as L^2 S.S on A
    square = _inner(A, A, m)  # S is symmetric: (S.S)[x][y] = sum_t S[x][t] S[y][t]
    nonzero = (square != 0).any(axis=2)
    wrong = nonzero & ((square[:, :, 0] != scale * scale * md.global_dim) | square[:, :, 1:].any(axis=2))
    first = np.flatnonzero(wrong.any(axis=1) | (nonzero.sum(axis=1) != 1))
    if first.size:
        x = first[0]
        if wrong[x].any():
            y = np.flatnonzero(wrong[x])[0]
            raise InvariantFailure("s_squared", f"entry ({x},{y}) is neither 0 nor the global dimension")
        raise InvariantFailure("s_squared", f"row {x} is not a permutation row")
    conj = nonzero.argmax(axis=1)
    if (conj[conj] != np.arange(len(conj))).any():
        raise InvariantFailure("charge_conjugation_order")
    if conj[0] != 0:
        raise InvariantFailure("charge_conjugation_unit")
    return tuple(conj.tolist())


def _fusion_tensor(md):
    """The Verlinde tensor N[x, y, z] of md: sum_z N[x][y][z] X[z] = P[x][y]
    with X[z][t] = L d_t A[z][t] and P[x][y][t] = A[x][t] A[y][t], solved and
    certified by the decomposition kernel."""
    if md._fusion is None:
        m, scale, A = _encoded(md)[0]
        N = rings._decompose(*rings._pointwise_system(A, m, [scale * d for d in md.dims]), md.dims)
        N.setflags(write=False)
        md._fusion = N
    return md._fusion


def verlinde_fusion(md):
    """Fusion ring recovered from the S-matrix; certified non-negative integral."""
    # non-degeneracy witness: charge conjugation exists (certified at build)
    if not md.charge_conjugation:
        raise SingularS("modular data carries no charge conjugation")
    labels = tuple(l.name() for l in md.labels)
    return rings._certified(labels, _fusion_tensor(md), md.dims, md.charge_conjugation)


def _centralizing(md, targets):
    """The labels x with S[x][y] = d_x d_y for every y in targets."""
    _, scale, A = _encoded(md)[0]
    dims = np.array(md.dims, dtype=object)
    trivial = (A[:, :, 0] == scale * np.multiply.outer(dims, dims)) & ~A[:, :, 1:].any(axis=2)
    return tuple(np.flatnonzero(trivial[:, list(targets)].all(axis=1)).tolist())


def centralizer_subset(md, subset):
    """Labels whose double braiding with everything in the closed subset is
    trivial, detected by S[x][y] = d_x d_y."""
    return _centralizing(md, rings._generated(_fusion_tensor(md), md.charge_conjugation, subset))


def mueger_center(md):
    return centralizer_subset(md, range(md.size))


def is_tannakian_subset(md, subset):
    """TANNAKIAN / SUPER_TANNAKIAN_ONLY / NOT_SYMMETRIC for a based subset."""
    closed = rings._generated(_fusion_tensor(md), md.charge_conjugation, subset)
    if not set(closed) <= set(_centralizing(md, closed)):
        return NOT_SYMMETRIC
    if all(md.T[x] == Cyclotomic.one() for x in closed):
        return TANNAKIAN
    return SUPER_TANNAKIAN_ONLY


def central_charge(md):
    """Numeric tau+ / sqrt(global dim), for display; equals 1 for doubles
    (certified by :func:`central_charge_is_one`)."""
    tau = sum((md.T[x].numeric() * md.dims[x] ** 2 for x in range(md.size)), complex(0))
    return tau / math.sqrt(md.global_dim)


def central_charge_is_one(md):
    """Exactly whether tau+ = sum_x d_x^2 theta_x is the integer square root
    of the global dimension, as for every double, on the coordinates of lt T."""
    _, lt, T = _encoded(md)[1]
    tau, root = np.array([d * d for d in md.dims], dtype=object) @ T, math.isqrt(md.global_dim)
    return root * root == md.global_dim and tau[0] == lt * root and not tau[1:].any()


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
