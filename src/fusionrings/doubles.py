"""Modular data of quantum doubles of finite groups.

Simple objects are (conjugacy class, centralizer irreducible) pairs; the
S-matrix is assembled from exact centralizer character values with a fixed
conjugation orientation and then certified against the modular-data
invariants (symmetry, dimension row, S^2 = dim * charge conjugation).  The
structure constants come out of the standard non-degenerate S-matrix sum and
are certified to be non-negative integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rings
from .chartab import character_table
from .cyclo import Cyclotomic
from .errors import InvariantFailure, NonIntegralMultiplicity, SearchBudgetExceeded, SingularS

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
    _fusion_cache: dict = field(default_factory=dict, repr=False)

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
        for y in range(x, n):
            if s[x][y] != s[y][x]:
                raise InvariantFailure("symmetry", f"S[{x}][{y}]")
    # S.S = global_dim * permutation of order <= 2
    conj = [None] * n
    for x in range(n):
        hits = []
        for y in range(n):
            acc = Cyclotomic.zero()
            for k in range(n):
                acc = acc + s[x][k] * s[k][y]
            if not acc.is_zero():
                if acc != Cyclotomic.rational(md.global_dim):
                    raise InvariantFailure("s_squared", f"entry ({x},{y}) = {acc}")
                hits.append(y)
        if len(hits) != 1:
            raise InvariantFailure("s_squared", f"row {x} is not a permutation row")
        conj[x] = hits[0]
    for x in range(n):
        if conj[conj[x]] != x:
            raise InvariantFailure("charge_conjugation_order")
    if conj[0] != 0:
        raise InvariantFailure("charge_conjugation_unit")
    return tuple(conj)


def _verlinde_entry(md, x, y, z):
    key = (x, y, z)
    cached = md._fusion_cache.get(key)
    if cached is not None:
        return cached
    zdual = md.charge_conjugation[z]
    acc = Cyclotomic.zero()
    for t in range(md.size):
        acc = acc + md.S[x][t] * md.S[y][t] * md.S[zdual][t] / md.dims[t]
    val = acc / md.global_dim
    q = val.rational_part()
    if q is None or q.denominator != 1 or q < 0:
        raise NonIntegralMultiplicity(f"N[{x}][{y}][{z}] = {val}")
    out = int(q)
    md._fusion_cache[key] = out
    return out


def verlinde_fusion(md):
    """Fusion ring recovered from the S-matrix; certified non-negative integral."""
    n = md.size
    # non-degeneracy witness: charge conjugation exists (certified at build)
    if not md.charge_conjugation:
        raise SingularS("modular data carries no charge conjugation")
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for x in range(n):
        for y in range(x, n):
            for z in range(n):
                v = _verlinde_entry(md, x, y, z)
                tensor[x, y, z] = v
                tensor[y, x, z] = v
    ring = rings.FusionRing(
        tuple(l.name() for l in md.labels), tensor, md.charge_conjugation
    )
    rings.validate(ring)
    got = rings.fp_dims(ring)
    if not (got.exact and got.dims == md.dims):
        raise NonIntegralMultiplicity("recovered dimensions disagree with label dimensions")
    return ring


def _closure(md, subset):
    """Close a label subset under unit, duality and fusion supports."""
    current = set(subset) | {0}
    current |= {md.charge_conjugation[x] for x in current}
    while True:
        new = set()
        cur = sorted(current)
        for x in cur:
            for y in cur:
                for z in range(md.size):
                    if z not in current and _verlinde_entry(md, x, y, z) > 0:
                        new.add(z)
        if not new:
            return tuple(sorted(current))
        current |= new
        current |= {md.charge_conjugation[x] for x in new}


def _centralizes(md, x, y):
    return md.S[x][y] == Cyclotomic.rational(md.dims[x] * md.dims[y])


def centralizer_subset(md, subset):
    """Labels whose double braiding with everything in the closed subset is
    trivial, detected by S[x][y] = d_x d_y."""
    closed = _closure(md, subset)
    return tuple(
        x for x in range(md.size) if all(_centralizes(md, x, y) for y in closed)
    )


def mueger_center(md):
    return centralizer_subset(md, range(md.size))


def is_tannakian_subset(md, subset):
    """TANNAKIAN / SUPER_TANNAKIAN_ONLY / NOT_SYMMETRIC for a based subset."""
    closed = _closure(md, subset)
    cent = set(centralizer_subset(md, closed))
    if not set(closed) <= cent:
        return NOT_SYMMETRIC
    if all(md.T[x] == Cyclotomic.one() for x in closed):
        return TANNAKIAN
    return SUPER_TANNAKIAN_ONLY


def projective_centralizer(md, subset):
    """Labels centralizing every simple in the support of y (x) y* over the subset."""
    closed = _closure(md, subset)
    targets = set()
    for y in closed:
        ydual = md.charge_conjugation[y]
        for z in range(md.size):
            if _verlinde_entry(md, y, ydual, z) > 0:
                targets.add(z)
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
    """Unit-preserving bijection matching the S-matrices entrywise, or None."""
    from .equivalence import _node_budget

    budget = _node_budget(budget)
    n = md1.size
    if n != md2.size or md1.global_dim != md2.global_dim:
        return None

    def profile(md, x):
        return (
            md.dims[x],
            tuple(sorted(v.sort_key() for v in md.S[x])),
        )

    prof1 = [profile(md1, x) for x in range(n)]
    prof2 = [profile(md2, x) for x in range(n)]
    cands = [tuple(j for j in range(n) if prof2[j] == prof1[i]) for i in range(n)]
    if any(not c for c in cands):
        return None
    order = [0] + sorted(range(1, n), key=lambda i: (len(cands[i]), i))
    assign = [-1] * n
    used = [False] * n
    nodes = 0

    def dfs(depth):
        nonlocal nodes
        if depth == n:
            return True
        i = order[depth]
        for j in cands[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"budget {budget} hit")
            ok = all(
                md1.S[i][a] == md2.S[j][assign[a]] for a in order[:depth]
            ) and md1.S[i][i] == md2.S[j][j]
            if not ok:
                continue
            assign[i] = j
            used[j] = True
            if dfs(depth + 1):
                return True
            assign[i] = -1
            used[j] = False
        return False

    if not dfs(0):
        return None
    f = tuple(assign)
    for x in range(n):
        for y in range(n):
            if md1.S[x][y] != md2.S[f[x]][f[y]]:
                raise AssertionError("witness failed full S verification (bug)")
    # any S-equivalence is a Grothendieck equivalence of the recovered rings
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if _verlinde_entry(md1, x, y, z) != _verlinde_entry(md2, f[x], f[y], f[z]):
                    raise AssertionError("S-equivalence failed fusion re-verification (bug)")
    return f
