"""Grothendieck equivalence of based rings: invariant fingerprints, pruned
backtracking search for a witness bijection, and consequence verification.
The search runs on int arrays of any arity: ``doubles.s_equivalence`` runs it
on S-matrices encoded as integer colours.  Element profiles are read off one
sort per row of the tensor, and each search node checks only the entries its
new assignment completes, gathered by one index array per depth."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import rings, tables
from .errors import SearchBudgetExceeded

DEFAULT_NODE_BUDGET = 10_000_000


def _node_budget(budget):
    if budget is not None:
        return budget
    env = os.environ.get("WORKBENCH_NODE_BUDGET")
    return int(env) if env else DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class EquivalenceWitness:
    bijection: tuple  # index map, domain ring -> codomain ring


def _value_counts(rows):
    """Per row of the int array ``rows``, its sorted (value, count) pairs,
    read off the runs of one sort per row."""
    rows = np.sort(rows, axis=1)
    n, width = rows.shape
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    r, c = np.nonzero(starts)
    ends = np.append(c[1:], width)
    ends[np.flatnonzero(r[1:] != r[:-1])] = width  # a row's last run ends at its width
    pairs = list(zip(rows[r, c].tolist(), (ends - c).tolist()))
    bounds = np.cumsum(np.bincount(r, minlength=n)).tolist()
    return [tuple(pairs[a:b]) for a, b in zip([0] + bounds, bounds)]


def _profiles(ring):
    """Relabeling-invariant profile of each basis element i: its dimension,
    its dual's dimension, whether it is self-dual, the value counts of
    N[i], the sorted row sums of N[i] and the value counts of its diagonal."""
    dims, N, dual = rings.fp_dims(ring).dims, ring.N, ring.dual
    n = ring.size
    entries = _value_counts(N.reshape(n, -1))
    diagonals = _value_counts(N[:, range(n), range(n)])
    sums = np.sort(N.sum(axis=2), axis=1).tolist()
    return [
        (dims[i], dims[dual[i]], dual[i] == i, entries[i], tuple(sums[i]), diagonals[i])
        for i in range(n)
    ]


def fingerprint(ring, profiles=None):
    """Relabeling-invariant summary: type, element profiles, invertible-group
    data, adjoint chain sizes, universal grading data.  ``profiles`` are the
    ring's element profiles when the caller has them already."""
    inv = rings.invertibles(ring)
    chain, _ = rings.adjoint_series(ring)
    grading = rings.universal_grading(ring)
    return (
        ring.size,
        tables._tally(rings.fp_dims(ring).dims),
        tuple(sorted(_profiles(ring) if profiles is None else profiles)),
        (inv.order, tables.order_multiset(inv.group), inv.name),
        tuple(len(c) for c in chain),
        (grading.order, tables.order_multiset(grading.group), tuple(sorted(map(len, grading.blocks)))),
    )


def _search(T1, T2, prof1, prof2, budget):
    """Bijection f with T1[x, y, ...] = T2[f(x), f(y), ...] for every entry, or None.

    T1 and T2 are square int arrays of one arity; x may go to y only when
    prof1[x] == prof2[y].  Index 0 is assigned first, then the others by
    fewest candidates.  Each candidate tried counts one node against the
    budget before it is checked on every entry it completes: the entries
    with one index at the new position and the others assigned, gathered by
    one index array per depth.  None is returned only once the tree is
    exhausted; a found bijection is checked on the full arrays.
    """
    n, arity = len(prof1), T1.ndim
    candidates = [tuple(j for j in range(n) if prof2[j] == prof1[i]) for i in range(n)]
    if any(not c for c in candidates):
        return None
    order = [0] + sorted(range(1, n), key=lambda i: (len(candidates[i]), i))
    src = np.array(order)  # src[k] is assigned at depth k
    dst = np.zeros(n, dtype=np.intp)  # and goes to dst[k]
    used = [False] * n
    nodes = deepest = 0

    def faces(depth):
        """Search positions of the entries that depth completes: one per
        axis and per tuple of positions up to depth, with depth at that axis."""
        rest = np.indices((depth + 1,) * (arity - 1)).reshape(arity - 1, -1)
        at = np.full((1, rest.shape[1]), depth)
        return np.concatenate([np.concatenate([rest[:a], at, rest[a:]]) for a in range(arity)], axis=1)

    def dfs(depth):
        nonlocal nodes, deepest
        if depth == n:
            return True
        i = order[depth]
        pos = faces(depth)
        want = T1[tuple(src[pos])]
        for j in candidates[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"budget {budget} hit: {budget} nodes visited, deepest depth {deepest} of {n}"
                )
            dst[depth] = j
            if np.array_equal(want, T2[tuple(dst[pos])]):
                used[j] = True
                deepest = max(deepest, depth + 1)
                if dfs(depth + 1):
                    return True
                used[j] = False
        return False

    if not dfs(0):
        return None
    f = tuple(dst[np.argsort(src)].tolist())
    if not np.array_equal(T1, T2[np.ix_(*[f] * T1.ndim)]):
        raise AssertionError("witness failed full verification (bug)")
    return f


def find_equivalence(r1, r2, budget=None):
    """Search for a unit-preserving bijection matching all fusion rules.

    Returns an EquivalenceWitness or None; None is only reported after the
    pruned tree is exhausted.  Raises SearchBudgetExceeded past the node cap.
    Duals need no check of their own: only the unit's profile matches the
    unit's, so 0 goes to 0 first, and N[i, i*, 0] = 1 then carries them along.
    """
    budget = _node_budget(budget)
    if r1.size != r2.size:
        return None
    prof1, prof2 = _profiles(r1), _profiles(r2)
    if fingerprint(r1, prof1) != fingerprint(r2, prof2):
        return None
    perm = _search(r1.N, r2.N, prof1, prof2, budget)
    return None if perm is None else EquivalenceWitness(bijection=perm)


def _image(ring2, witness, indices):
    return tuple(sorted(witness.bijection[i] for i in indices))


def verify_properties(r1, r2, witness):
    """Re-check the structural consequences of a Grothendieck equivalence."""
    f = witness.bijection
    n = r1.size
    report = {}
    perm_inv = np.argsort(np.array(f))
    report["tensor_equal"] = bool(
        np.array_equal(r2.N, r1.N[np.ix_(perm_inv, perm_inv, perm_inv)])
    ) and f[0] == 0
    d1 = rings.fp_dims(r1).dims
    d2 = rings.fp_dims(r2).dims
    report["dims_equal"] = all(d1[i] == d2[f[i]] for i in range(n))
    inv1 = rings.invertibles(r1).indices
    inv2 = rings.invertibles(r2).indices
    report["invertibles_correspond"] = _image(r2, witness, inv1) == tuple(inv2)
    report["duals_correspond"] = all(f[r1.dual[i]] == r2.dual[f[i]] for i in range(n))
    chain1, _ = rings.adjoint_series(r1)
    chain2, _ = rings.adjoint_series(r2)
    report["adjoint_series_correspond"] = len(chain1) == len(chain2) and all(
        _image(r2, witness, c1) == c2 for c1, c2 in zip(chain1, chain2)
    )
    g1 = rings.universal_grading(r1)
    g2 = rings.universal_grading(r2)
    blocks2 = {b: idx for idx, b in enumerate(g2.blocks)}
    mapping = {}
    ok = g1.order == g2.order
    if ok:
        for idx, b in enumerate(g1.blocks):
            img = _image(r2, witness, b)
            if img not in blocks2:
                ok = False
                break
            mapping[idx] = blocks2[img]
        if ok:
            m = np.array([mapping[b] for b in range(g1.order)])
            ok = np.array_equal(m[g1.group.table], g2.group.table[np.ix_(m, m)])
    report["grading_group_isomorphism"] = ok
    return report
