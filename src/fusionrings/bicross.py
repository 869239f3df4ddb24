"""Matched pairs from exact group factorizations and the representation
invariants of the split bicrossed product k^Gamma # kF: the scope is the
split case, with trivial cocycles.

Irreducibles are indexed by (F-orbit on Gamma, irreducible of the stabilizer);
orbits with one stabilizer share its subgroup, character table and cosets,
so each distinct stabilizer gets one table.  Their characters live on the
basis {e_t # y}, products of characters follow the comultiplication sum over
factorizations g*h = t in Gamma, where only the h on the F-orbit of the
right-hand character contribute, against the simples on the orbit of g.
Fusion multiplicities are solved and certified by the decomposition kernel
of ``rings`` at the n cells (t, y) the orbits name: for each simple, its
orbit representative s and a representative y of its stabilizer class.
There chi_i(e_s # y) is the stabilizer character value for i on the orbit
of s and 0 off it, so the characters at these cells are block diagonal,
one stabilizer character table per orbit, and invertible by orthogonality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rings, tables
from .chartab import character_table
from .cyclo import _embeddings, _evaluate, _lift, _phi, _product_bound, _top
from .errors import NonIntegralMultiplicity, NotAutomorphism, NotExactFactorization
from .perms import GroupAction, PermGroup


@dataclass(frozen=True, eq=False)
class MatchedPair:
    """Exact factorization G = F*Gamma with the four induced actions.

    left/right actions: for s in Gamma, x in F the product s*x decomposes
    uniquely as (s |> x) * (s <| x) with s |> x in F and s <| x in Gamma.
    Dual actions do the same for x*s inside G = Gamma*F.

    The actions are stored on indices: ``rtab[s, x]`` is the F-index of
    s |> x and ``ltab[s, x]`` the Gamma-index of s <| x (s a Gamma-index, x
    an F-index); ``dual_ltab[x, s]`` and ``dual_rtab[x, s]`` give x <|' s in
    F and x |>' s in Gamma.
    """

    ambient: PermGroup
    f: PermGroup
    gamma: PermGroup
    rtab: np.ndarray
    ltab: np.ndarray
    dual_ltab: np.ndarray
    dual_rtab: np.ndarray

    def dual(self):
        """The matched pair of the dual product k^F # kGamma."""
        return matched_pair_from_factorization(self.ambient, self.gamma, self.f)


def matched_pair_from_factorization(group, f, gamma):
    """Verify G = F*Gamma exactly and compute all four action tables."""
    try:
        fi = group.index_rows(f.images)
        gi = group.index_rows(gamma.images)
    except KeyError:
        raise NotExactFactorization("F and Gamma must be subgroups of the ambient group") from None
    if f.order * gamma.order != group.order:
        raise NotExactFactorization(
            f"|F|*|Gamma| = {f.order * gamma.order} != |G| = {group.order}"
        )
    common = np.intersect1d(fi, gi, assume_unique=True)
    if len(common) != 1:
        raise NotExactFactorization(f"F and Gamma intersect in {len(common)} elements")
    xs = group.mul(fi[:, None], gi[None, :])  # x*s, by (F-index, Gamma-index)
    if len(tables._unique(xs)) != group.order:
        raise NotExactFactorization("products F*Gamma do not cover the group")
    f_part = np.empty(group.order, dtype=np.intp)
    g_part = np.empty(group.order, dtype=np.intp)
    f_part[xs] = np.arange(f.order)[:, None]
    g_part[xs] = np.arange(gamma.order)[None, :]

    sx = group.mul(gi[:, None], fi[None, :])
    rtab, ltab = f_part[sx], g_part[sx]

    # x <|' s = (s^-1 |> x^-1)^-1 and x |>' s = (s^-1 <| x^-1)^-1
    s_inv, x_inv = gamma.inv[None, :], f.inv[:, None]
    dual_ltab = f.inv[rtab[s_inv, x_inv]]
    dual_rtab = gamma.inv[ltab[s_inv, x_inv]]
    if not np.array_equal(group.mul(gi[dual_rtab], fi[dual_ltab]), xs):
        raise NotExactFactorization("dual decomposition identity failed")

    return MatchedPair(
        ambient=group,
        f=f,
        gamma=gamma,
        rtab=rtab,
        ltab=ltab,
        dual_ltab=dual_ltab,
        dual_rtab=dual_rtab,
    )


def gamma_action(mp):
    """The F-action on Gamma's elements as a left GroupAction (via <| of x^-1)."""
    # x . (s <| x) = s
    table = np.empty((mp.f.order, mp.gamma.order), dtype=np.intp)
    table[np.arange(mp.f.order)[None, :], mp.ltab] = np.arange(mp.gamma.order)[:, None]
    return GroupAction(mp.f, mp.gamma.elements, table)


@dataclass(frozen=True)
class ExtIrrep:
    """One irreducible of k^Gamma # kF: an F-orbit representative on Gamma,
    a stabilizer irreducible, and the induced-module data."""

    orbit_rep: object
    stabilizer: PermGroup
    stab_table: object
    stab_row: int
    coset_reps: tuple
    weights: tuple  # weights[i] = orbit_rep <| coset_reps[i]^(-1), all distinct

    @property
    def stab_degree(self):
        return self.stab_table.degrees[self.stab_row]

    @property
    def dim(self):
        return len(self.coset_reps) * self.stab_degree


def split_irreps(mp):
    """All irreducibles of the split product k^Gamma # kF in canonical order
    (unit first)."""
    f, gamma = mp.f, mp.gamma
    out = []
    per_stabilizer = {}  # stabilizer -> its table and canonical left coset reps
    for orb in gamma_action(mp).orbits():
        s = orb.representative
        stab = orb.stabilizer
        if stab not in per_stabilizer:
            _, reps = tables.left_cosets(f, f.index_rows(stab.images))
            per_stabilizer[stab] = character_table(stab), reps, tuple(map(f.element, reps))
        table, reps, coset_reps = per_stabilizer[stab]
        # coset rep x_i <-> weight s <| x_i^(-1)
        weights = tuple(map(gamma.element, mp.ltab[gamma.index_of(s), f.inv[reps]]))
        assert sorted(weights) == sorted(orb.members)
        for row in range(table.num_classes):
            out.append(
                ExtIrrep(
                    orbit_rep=s,
                    stabilizer=stab,
                    stab_table=table,
                    stab_row=row,
                    coset_reps=coset_reps,
                    weights=weights,
                )
            )
    dims = [w.dim for w in out]
    if sum(d * d for d in dims) != mp.f.order * mp.gamma.order:
        raise NonIntegralMultiplicity("irreducible dimensions do not exhaust dim H")
    return out


def split_type(mp):
    """Type signature of Rep(k^Gamma # kF) from orbit data alone (cheap)."""
    return tables._tally(w.dim for w in split_irreps(mp))


def split_fusion_ring(mp):
    """The based ring of Rep(k^Gamma # kF), split, decomposed and certified
    by ``rings``' kernel at the cells the orbits name."""
    irreps = split_irreps(mp)
    dims = tuple(w.dim for w in irreps)
    tensor = rings._decompose(*_split_system(mp, irreps), dims)
    labels = tuple(f"({w.orbit_rep.cycle_string()},{w.stab_row})" for w in irreps)
    return rings._certified(labels, tensor, dims)


def _split_system(mp, irreps):
    """(system, m, bound) for ``rings._decompose``: the simple characters
    X[z][k] and their products P[x][y][k] at the n cells (t_k, y_k), t_k the
    orbit representative of simple k and y_k the representative of its
    stabilizer class stab_row, m the lcm of the stabilizer character
    conductors.  X is block diagonal, one stabilizer character table per
    orbit.  P is made from the characters' images at each embedding, never
    in coordinates."""
    m, chi = _characters(mp, irreps)
    n, n_gamma, n_f, phi = chi.shape
    t = mp.gamma.index_rows([w.orbit_rep.images for w in irreps])
    y = mp.f.index_rows([w.stab_table.classes[w.stab_row][0].images for w in irreps])
    # A[k, i, h] = chi_i(e_{t_k h^-1} # (h |> y_k)); B[k, j, h] = chi_j(e_h # y_k)
    g = mp.gamma.mul(t[:, None], mp.gamma.inv[None, :])
    y2 = mp.rtab[:, y].T
    # P[k, x, j] = sum over h of A[k, x, h] B[k, j, h]: B[k, j] vanishes off the
    # orbit of j, and A[k, :, h] off the simples on the orbit of s = t_k h^-1,
    # which are consecutive: first[s] + c for c < count[s]
    on = chi[:, :, mp.f.unit, 0] != 0  # [i, s]: s is on the orbit of i, where chi_i(e_s # 1) is a degree
    first, count, lengths = on.argmax(axis=0), on.sum(axis=0), on.sum(axis=1)
    c = np.arange(count.max())
    top = _top(chi)
    bound = top, int(lengths.max()) * top * top * _product_bound(m)
    by_cell = np.concatenate([np.moveaxis(chi, 0, 2), np.zeros((n_gamma, n_f, 1, phi), dtype=chi.dtype)], axis=2)

    def system(q, E):
        images = _evaluate(by_cell, q, E)  # [t, y, i, e], with a zero simple i = n
        products = np.zeros((n, n + 1, n, phi), dtype=images.dtype)  # [k, x, j, e]
        for length in tables._unique(lengths).tolist():  # the j with orbits of one length at once
            js = np.flatnonzero(lengths == length)
            h = np.nonzero(on[js])[1].reshape(len(js), length)  # [j, l]
            s = g[:, h]  # [k, j, l]
            xs = np.where(c < count[s][..., None], first[s][..., None] + c, n)  # [k, j, l, c], n: no simple
            b = images[h[:, :, None], y, js[:, None, None]].transpose(2, 0, 1, 3)  # [k, j, l, e]
            terms = images[s[..., None], y2[:, h][..., None], xs] * b[:, :, :, None] % q  # [k, j, l, c, e]
            np.add.at(products, (np.arange(n)[:, None, None, None], xs, js[:, None, None]), terms)
        return images[t, y, :n].swapaxes(0, 1), lambda x: products[:, x].swapaxes(0, 1) % q

    return system, m, bound


def _characters(mp, irreps):
    """(m, chi): chi[i, t, y] holds the Z[zeta_m] coordinates of the simple
    character i at e_t # y (t in Gamma, y in F), m the lcm of the stabilizer
    character conductors."""
    f, gamma = mp.f, mp.gamma
    m = math.lcm(*(w.stab_table.m for w in irreps))
    chi = np.zeros((len(irreps), gamma.order, f.order, _phi(m)), dtype=np.int64)
    every_y = np.arange(f.order)
    stabilizers = {}  # stabilizer -> its table's values at m and the class of each x^-1 y x
    weights = {}  # orbit representative -> its weights
    for i, w in enumerate(irreps):
        table = w.stab_table
        if w.stabilizer not in stabilizers:
            # -1, a dead class, outside the stabilizer
            class_in_f = np.full(f.order, -1, dtype=np.intp)
            class_in_f[f.index_rows(w.stabilizer.images)] = table.class_of
            x = f.index_rows([xi.images for xi in w.coset_reps])
            # the table's distinct values at m, then 0 for the dead class
            codes = np.concatenate([_lift(table.codes, table.m, m), np.zeros((1, chi.shape[3]), dtype=np.int64)])
            stabilizers[w.stabilizer] = codes, class_in_f[f.mul(f.mul(f.inv[x][:, None], every_y), x[:, None])]
        if w.orbit_rep not in weights:
            weights[w.orbit_rep] = gamma.index_rows([ti.images for ti in w.weights])
        codes, classes = stabilizers[w.stabilizer]
        chi[i, weights[w.orbit_rep]] = codes[np.append(table.index[w.stab_row], -1)[classes]]
    return m, chi


def dual_invertibles(mp):
    """The invertibles of Rep(k^Gamma # kF): one-dimensional F-characters
    extended by the <|-fixed points of Gamma (split case).

    The characters are compared and multiplied as residues mod an odd prime
    p = 1 (mod m), m the lcm of the conductors in F's table, where the roots
    of unity of Q(zeta_m) stay distinct."""
    f, gamma = mp.f, mp.gamma
    table_f = character_table(f)
    linear = [r for r in range(table_f.num_classes) if table_f.degrees[r] == 1]
    m, codes = table_f.m, table_f.codes
    p, E, _ = next(_embeddings(m, 2))
    chars = _evaluate(codes, p, E[:, 0])[table_f.index[linear][:, table_f.class_of]]  # [c, x]
    fixed = np.flatnonzero((mp.ltab == np.arange(gamma.order)[:, None]).all(axis=1))
    fixed_pos = np.full(gamma.order, -1)
    fixed_pos[fixed] = np.arange(len(fixed))
    # chars[ci] times the action of fixed[si] on chars[cj], x -> chars[cj][x <|' s]
    moved = chars[:, mp.dual_ltab[:, fixed].T]  # [cj, si, x]
    products = chars[:, None, None] * moved[None] % p  # [ci, cj, si, x]
    rows = np.concatenate([chars, products.reshape(-1, f.order)])
    _, ids = np.unique(rows, axis=0, return_inverse=True)
    char_of = np.full(len(rows), -1)
    char_of[ids[:len(chars)]] = np.arange(len(chars))
    product_char = char_of[ids[len(chars):]].reshape(len(chars), len(chars), len(fixed))  # [ci, cj, si]
    s_new = fixed_pos[gamma.mul(fixed[:, None], fixed[None, :])]  # [si, sj]
    # element (c, s) sits at c * |fixed| + s
    table = product_char.transpose(0, 2, 1)[:, :, :, None] * len(fixed) + s_new[None, :, None, :]
    group = tables.CayleyGroup(table.reshape(len(chars) * len(fixed), -1))
    return DualInvertibles(
        group=group, name=tables.iso_name(group), center_order=len(tables.center(group))
    )


@dataclass(frozen=True)
class DualInvertibles:
    group: tables.CayleyGroup  # (c, s) at c * |fixed points| + s
    name: str
    center_order: int

    @property
    def order(self):
        return self.group.order


def equivariantization_type(ring, action, p):
    """Type of the prime-order equivariantization attached to a fusion-ring
    automorphism whose order divides p (cyclic case: trivial cocycles)."""
    n = ring.size
    action = tuple(action)
    if sorted(action) != list(range(n)) or action[0] != 0:
        raise NotAutomorphism("action must be a unit-fixing basis bijection")
    if not np.array_equal(ring.N[np.ix_(action, action, action)], ring.N):
        raise NotAutomorphism("action does not preserve the fusion rules")
    power = list(range(n))
    for _ in range(p):
        power = [action[i] for i in power]
    if power != list(range(n)):
        raise NotAutomorphism(f"action order does not divide {p}")
    dims = rings.fp_dims(ring)
    if not dims.exact:
        raise NotAutomorphism("equivariantization needs integer dimensions")
    seen = set()
    counts = {}
    for i in range(n):
        if i in seen:
            continue
        orbit = {i}
        j = action[i]
        while j != i:
            orbit.add(j)
            j = action[j]
        seen |= orbit
        if len(orbit) == 1:
            counts[dims.dims[i]] = counts.get(dims.dims[i], 0) + p
        elif len(orbit) == p:
            d = p * dims.dims[i]
            counts[d] = counts.get(d, 0) + 1
        else:
            raise NotAutomorphism("orbit size neither 1 nor p")
    sig = tuple(sorted(counts.items()))
    if sum(d * d * c for d, c in sig) != p * dims.total:
        raise NotAutomorphism("squared dimensions do not rescale by p")
    return sig
