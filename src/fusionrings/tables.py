"""Finite groups on indices 0..n-1, and every structural algorithm on them.

The algorithms here read index data only: ``order``; ``unit``, the index of
the identity; ``inv``, the index of each inverse as an int array; ``gens``,
generator indices; ``rmul``, for each generator s the index map x -> x*s;
and ``mul(a, b)``, the product of index arrays under broadcasting.  Two kinds
of group carry that data: ``perms.PermGroup``, and ``CayleyGroup`` here,
which wraps a multiplication table, the form in which grading groups,
invertible-object groups and quotients surface.  A ``CayleyGroup`` is built
once, where its table is made, and checked there; every public function
takes a group of either kind.

Subgroups are sorted index arrays in the numbering of the group they lie
in; where a later step needs their generators too, they travel as
``(members, gens)``.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np


class CayleyGroup:
    """A group given by its multiplication table: ``table[a][b]`` is a*b.

    The table is checked once, here: it must be square with every row a
    permutation of the indices, and it must have a two-sided identity.
    """

    def __init__(self, table):
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("not a Cayley table")
        self.table = np.array(table, dtype=np.intp).reshape(n, n)
        if (np.sort(self.table, axis=1) != np.arange(n)).any():
            raise ValueError("not a Cayley table")
        self.table.flags.writeable = False
        self.order = n
        everything = np.arange(n)
        units = np.flatnonzero(
            (self.table == everything).all(axis=1) & (self.table.T == everything).all(axis=1)
        )
        if not units.size:
            raise ValueError("table has no identity")
        self.unit = int(units[0])
        self.inv = np.argmax(self.table == self.unit, axis=1)
        self.gens = generating_set(self, everything)
        self.rmul = tuple(self.table[:, s] for s in self.gens)

    def mul(self, a, b):
        return self.table[a, b]


def _indices(xs):
    return np.asarray(xs, dtype=np.intp).reshape(-1)


def _unique(xs):
    """The distinct values of ``xs``, sorted and flattened: ``np.unique``
    without its masked-array check, which imports ``numpy.ma``."""
    xs = np.sort(np.asarray(xs).reshape(-1))
    keep = np.empty(xs.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=keep[1:])
    return xs[keep]


def closure(g, seed):
    """Sorted indices of the subgroup generated by the indices ``seed``."""
    seed = _unique(_indices(seed))
    inside = np.zeros(g.order, dtype=bool)
    inside[g.unit] = True
    frontier = np.array([g.unit])
    while frontier.size and seed.size:
        products = _unique(g.mul(frontier[:, None], seed[None, :]))
        frontier = products[~inside[products]]
        inside[frontier] = True
    return np.flatnonzero(inside)


def generating_set(g, members):
    """Generator indices of the subgroup ``members``: each member, in index
    order, that the members chosen before it do not generate."""
    gens = []
    inside = np.zeros(g.order, dtype=bool)
    inside[g.unit] = True
    for x in _indices(members).tolist():
        if not inside[x]:
            gens.append(x)
            inside[closure(g, gens)] = True
    return tuple(gens)


def element_orders(g, xs=None):
    """Order of each element of ``xs`` (default: every element)."""
    xs = np.arange(g.order) if xs is None else _indices(xs)
    orders = np.ones(len(xs), dtype=np.intp)
    power = xs.copy()
    live = np.flatnonzero(power != g.unit)
    while live.size:
        power[live] = g.mul(power[live], xs[live])
        orders[live] += 1
        live = live[power[live] != g.unit]
    return orders


def _tally(values):
    """Sorted (value, count) pairs of the values."""
    return tuple(sorted(Counter(values).items()))


def order_multiset(g):
    return _tally(element_orders(g).tolist())


def is_abelian(g):
    s = _indices(g.gens)
    return bool((g.mul(s[:, None], s[None, :]) == g.mul(s[None, :], s[:, None])).all())


def conjugacy_classes(g):
    """Conjugacy classes as sorted index arrays, ordered by (size, least
    member), and the class index of every element."""
    # s^-1 x s for each generator s, from x -> x*s and inversion alone
    conjugations = [r[g.inv[r[g.inv]]] for r in g.rmul]
    # lower every label to the least index reachable by conjugation
    label = np.arange(g.order)
    while True:
        lowered = label.copy()
        for c in conjugations:
            np.minimum(lowered, lowered[c], out=lowered)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    reps, sizes = np.unique(label, return_counts=True)
    by_size = np.lexsort((reps, sizes))
    rank = np.empty(g.order, dtype=np.intp)
    rank[reps[by_size]] = np.arange(len(reps))
    class_of = rank[label]
    members = np.argsort(class_of, kind="stable")
    classes = np.split(members, np.cumsum(sizes[by_size])[:-1])
    return classes, class_of


def center(g):
    """Sorted indices of the elements commuting with every generator."""
    everything = np.arange(g.order)
    keep = np.ones(g.order, dtype=bool)
    for s, r in zip(g.gens, g.rmul):
        keep &= r == g.mul(s, everything)
    return np.flatnonzero(keep)


def _commutators(g, xs, ys):
    """The non-trivial commutators a^-1 b^-1 a b, a in xs, b in ys."""
    a, b = (m.reshape(-1) for m in np.meshgrid(_indices(xs), _indices(ys), indexing="ij"))
    c = g.mul(g.mul(g.inv[a], g.inv[b]), g.mul(a, b))
    return _unique(c[c != g.unit])


def normal_closure(g, seed, over):
    """(members, gens) of the least subgroup containing the indices ``seed``
    and normalized by the indices ``over``."""
    gens = _unique(_indices(seed))
    over = _indices(over)
    while True:
        members = closure(g, gens)
        inside = np.zeros(g.order, dtype=bool)
        inside[members] = True
        conjugates = g.mul(g.mul(g.inv[over][:, None], gens[None, :]), over[:, None])
        new = _unique(conjugates[~inside[conjugates]])
        if not new.size:
            return members, tuple(gens.tolist())
        gens = np.concatenate([gens, new])


def derived_subgroup(g, gens=None):
    """(members, gens) of the commutator subgroup of the subgroup generated
    by ``gens`` (default: the whole group)."""
    gens = g.gens if gens is None else gens
    return normal_closure(g, _commutators(g, gens, gens), gens)


def _series(g, step):
    series = [(np.arange(g.order), g.gens)]
    while len(series[-1][0]) > 1:
        nxt = step(series[-1][1])
        if len(nxt[0]) == len(series[-1][0]):
            break
        series.append(nxt)
    return series


def derived_series(g):
    """The derived series as (members, gens) pairs, down to where it stops."""
    return _series(g, lambda gens: derived_subgroup(g, gens))


def lower_central_series(g):
    """The lower central series as (members, gens) pairs, down to where it stops."""
    return _series(g, lambda gens: normal_closure(g, _commutators(g, g.gens, gens), g.gens))


def is_solvable(g):
    return len(derived_series(g)[-1][0]) == 1


def is_nilpotent(g):
    return len(lower_central_series(g)[-1][0]) == 1


def left_cosets(g, sub):
    """Left cosets x*sub, numbered in order of their least elements: the
    coset index of every element, and the least element of every coset."""
    sub = _indices(sub)
    coset_of = np.full(g.order, -1, dtype=np.intp)
    reps = []
    for x in range(g.order):
        if coset_of[x] < 0:
            coset_of[g.mul(x, sub)] = len(reps)
            reps.append(x)
    return coset_of, np.array(reps, dtype=np.intp)


def quotient(g, normal):
    """G/N as a CayleyGroup on coset indices, and the coset index of every
    element."""
    coset_of, reps = left_cosets(g, normal)
    return CayleyGroup(coset_of[g.mul(reps[:, None], reps[None, :])]), coset_of


def abelian_invariants(g):
    """Invariant factors d1 | d2 | ... of an abelian group, ascending."""
    if not is_abelian(g):
        raise ValueError("group is not abelian")
    factors = []
    while g.order > 1:
        orders = element_orders(g)
        a = int(np.argmax(orders))
        factors.append(int(orders[a]))
        g = quotient(g, closure(g, [a]))[0]
    return tuple(sorted(factors))


def prime_index_cyclic_subgroups(g, q):
    """Index-q subgroups K with G/K cyclic of order q (kernels of maps onto Z_q).

    Any such K contains the commutator subgroup and all q-th powers, so the
    candidates are preimages of hyperplanes in the elementary abelian quotient.
    """
    everything = np.arange(g.order)
    powers = everything
    for _ in range(q - 1):
        powers = g.mul(powers, everything)
    b = closure(g, np.concatenate([derived_subgroup(g)[0], powers]))
    if len(b) == g.order:
        return []
    quo, coset_of = quotient(g, b)
    if quo.order % q:
        raise ValueError("quotient size not a power of the prime")
    # coordinates of the elementary abelian quotient over F_q
    basis = generating_set(quo, range(quo.order))
    vectors = list(itertools.product(range(q), repeat=len(basis)))
    coords = {}
    for vec in vectors:
        x = quo.unit
        for b_i, c in zip(basis, vec):
            for _ in range(c):
                x = int(quo.mul(x, b_i))
        coords[x] = vec
    assert len(coords) == quo.order
    # hyperplanes = kernels of nonzero functionals, one per line of scalars
    out = set()
    for f in vectors:
        lead = next((c for c in f if c), 0)
        if lead != 1:
            continue
        kernel = [x for x, vec in coords.items() if sum(a * b for a, b in zip(f, vec)) % q == 0]
        out.add(tuple(np.flatnonzero(np.isin(coset_of, kernel)).tolist()))
    return sorted(out)


_KNOWN_NONABELIAN = {
    (12, ((1, 1), (2, 3), (3, 8))): "A4",
    (12, ((1, 1), (2, 1), (3, 2), (4, 6), (6, 2))): "Dic3",
    (24, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
    (8, ((1, 1), (2, 1), (4, 6))): "Q8",
    (20, ((1, 1), (2, 5), (4, 10), (5, 4))): "C5:C4",
    (60, ((1, 1), (2, 15), (3, 20), (5, 24))): "A5",
    (120, ((1, 1), (2, 25), (3, 20), (4, 30), (5, 24), (6, 20))): "S5",
    (48, ((1, 1), (2, 19), (3, 8), (4, 12), (6, 8))): "C2xS4",
}


def _is_dihedral(g):
    n = g.order
    if n % 2 or n < 4:
        return False
    orders = element_orders(g)
    rotations = np.flatnonzero(orders == n // 2)
    if not rotations.size:
        return False
    a = int(rotations[0])
    s = int(np.setdiff1d(np.arange(n), closure(g, [a]), assume_unique=True)[0])
    return bool(orders[s] == 2 and g.mul(g.mul(g.inv[s], a), s) == g.inv[a])


def iso_name(g):
    """Isomorphism-type label from order, abelian invariants and element orders.

    Reliable for the small orders this library meets; falls back to a
    descriptor when the data does not pin a familiar family.
    """
    n = g.order
    if n == 1:
        return "1"
    if is_abelian(g):
        return " x ".join(f"C{d}" for d in abelian_invariants(g))
    if _is_dihedral(g):
        return f"D{n // 2}"
    multiset = order_multiset(g)
    key = (n, multiset)
    if key in _KNOWN_NONABELIAN:
        return _KNOWN_NONABELIAN[key]
    orders = ",".join(f"{o}^{c}" for o, c in multiset)
    return f"nonabelian(order={n}, element_orders={orders})"
