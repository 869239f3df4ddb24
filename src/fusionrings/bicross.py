"""Matched pairs from exact group factorizations and the representation
invariants of the split bicrossed product k^Gamma # kF.

Irreducibles are indexed by (F-orbit on Gamma, irreducible of the stabilizer);
their characters live on the basis {e_t # y}, products of characters follow
the comultiplication sum over factorizations g*h = t in Gamma.  Fusion
multiplicities are solved and certified by the decomposition kernel of
``rings`` at n pivot columns (t, y) where an exact echelon shows the simple
characters independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rings, tables
from .chartab import _cyclo_column_echelon, character_table, irrep_matrices
from .cyclo import Cyclotomic, _coordinates, _inner
from .errors import (
    GroupLawFailure,
    NonIntegralMultiplicity,
    NotAutomorphism,
    NotExactFactorization,
    SingularCharacterSystem,
)
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
    F and x |>' s in Gamma.  ``right`` and ``left`` spell the actions out on
    elements.
    """

    ambient: PermGroup
    f: PermGroup
    gamma: PermGroup
    rtab: np.ndarray
    ltab: np.ndarray
    dual_ltab: np.ndarray
    dual_rtab: np.ndarray

    def _spelled(self, tab, rows, cols, values):
        r, c, v = rows.elements, cols.elements, values.elements
        return {(r[i], c[j]): v[k] for (i, j), k in np.ndenumerate(tab)}

    @property
    def right(self):  # (s, x) -> s |> x   in F
        return self._spelled(self.rtab, self.gamma, self.f, self.f)

    @property
    def left(self):  # (s, x) -> s <| x   in Gamma
        return self._spelled(self.ltab, self.gamma, self.f, self.gamma)

    def dual(self):
        """The matched pair of the dual product k^F # kGamma."""
        return matched_pair_from_factorization(self.ambient, self.gamma, self.f)

    def acts_trivially_right(self):
        return bool((self.rtab == np.arange(self.f.order)).all())


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
    common = np.intersect1d(fi, gi)
    if len(common) != 1:
        raise NotExactFactorization(f"F and Gamma intersect in {len(common)} elements")
    xs = group.mul(fi[:, None], gi[None, :])  # x*s, by (F-index, Gamma-index)
    if len(np.unique(xs)) != group.order:
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


def bowtie_group(mp):
    """The group on F x Gamma with (x,s)(y,t) = (x(s|>y), (s<|y)t), realized
    inside the ambient group via (x,s) -> x*s; the law is verified."""
    g = mp.ambient
    fi = g.index_rows(mp.f.images)
    gi = g.index_rows(mp.gamma.images)
    every_x, every_s = np.arange(mp.f.order), np.arange(mp.gamma.order)
    if g.order <= 400:
        xs, ss, ts = every_x, every_s, every_s
    else:
        xs = np.array((*mp.f.gens, mp.f.unit))
        ss = np.array((*mp.gamma.gens, mp.gamma.unit))
        ts = np.array((mp.gamma.unit, *mp.gamma.gens))
    x, s, y, t = (a.reshape(-1) for a in np.meshgrid(xs, ss, every_x, ts, indexing="ij"))
    lhs = g.mul(g.mul(fi[x], gi[s]), g.mul(fi[y], gi[t]))
    rhs = g.mul(g.mul(fi[x], fi[mp.rtab[s, y]]), g.mul(gi[mp.ltab[s, y]], gi[t]))
    bad = np.flatnonzero(lhs != rhs)
    if bad.size:
        k = bad[0]
        raise GroupLawFailure(f"law fails at F/Gamma indices {(x[k], s[k], y[k], t[k])}")
    return g


def gamma_action(mp):
    """The F-action on Gamma's elements as a left GroupAction (via <| of x^-1)."""
    # x . (s <| x) = s
    table = np.empty((mp.f.order, mp.gamma.order), dtype=np.intp)
    table[np.arange(mp.f.order)[None, :], mp.ltab] = np.arange(mp.gamma.order)[:, None]
    return GroupAction(mp.f, mp.gamma.elements, table, verify=True)


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

    def module_matrices(self, mp):
        """Explicit action matrices: weight vector for the idempotents e_t and
        a matrix for each 1 # y, on the basis (coset rep) x (stab irrep basis)."""
        umats = irrep_matrices(self.stab_table, self.stab_row)
        d = self.stab_degree
        c = len(self.coset_reps)
        f = mp.f
        xs = [f.index_of(x) for x in self.coset_reps]
        stab = f.index_rows(self.stabilizer.images)
        coset_of = np.empty(f.order, dtype=np.intp)
        for i, x in enumerate(xs):
            coset_of[f.mul(x, stab)] = i
        mats = {}
        zero = Cyclotomic.zero()
        for y, y_el in enumerate(f.elements):
            mat = [[zero] * (c * d) for _ in range(c * d)]
            for i, x in enumerate(xs):
                yx = f.mul(y, x)
                j = coset_of[yx]
                u = umats[f.element(f.mul(f.inv[xs[j]], yx))]
                for a in range(d):
                    for b in range(d):
                        mat[j * d + a][i * d + b] = u[a][b]
            mats[y_el] = tuple(tuple(r) for r in mat)
        return self.weights, mats


def split_irreps(mp, cocycles=None):
    """All irreducibles of k^Gamma # kF in canonical order (unit first).

    Only the split case is supported; passing cocycle data is rejected.
    """
    if cocycles is not None:
        raise ValueError("only split products (trivial cocycles) are supported")
    f, gamma = mp.f, mp.gamma
    out = []
    for orb in gamma_action(mp).orbits():
        s = orb.representative
        stab = orb.stabilizer
        table = character_table(stab)
        # coset rep x_i <-> weight s <| x_i^(-1); enumerate cosets canonically
        _, reps = tables.left_cosets(f, f.index_rows(stab.images))
        weights = mp.ltab[gamma.index_of(s), f.inv[reps]]
        assert sorted(gamma.element(t) for t in weights) == sorted(orb.members)
        for row in range(table.num_classes):
            out.append(
                ExtIrrep(
                    orbit_rep=s,
                    stabilizer=stab,
                    stab_table=table,
                    stab_row=row,
                    coset_reps=tuple(f.element(x) for x in reps),
                    weights=tuple(gamma.element(t) for t in weights),
                )
            )
    dims = [w.dim for w in out]
    if sum(d * d for d in dims) != mp.f.order * mp.gamma.order:
        raise NonIntegralMultiplicity("irreducible dimensions do not exhaust dim H")
    return out


def split_type(mp):
    """Type signature of Rep(k^Gamma # kF) from orbit data alone (cheap)."""
    counts = {}
    for w in split_irreps(mp):
        counts[w.dim] = counts.get(w.dim, 0) + 1
    return tuple(sorted(counts.items()))


def split_fusion_ring(mp, cocycles=None):
    """The based ring of Rep(k^Gamma # kF), decomposed and certified by
    ``rings``' kernel at the pivot columns."""
    irreps = split_irreps(mp, cocycles)
    dims = tuple(w.dim for w in irreps)
    tensor = rings._decompose(*_split_system(mp, irreps), dims)
    labels = tuple(f"({w.orbit_rep.cycle_string()},{w.stab_row})" for w in irreps)
    ring = rings.FusionRing(labels, tensor)
    rings.validate(ring)
    got = rings.fp_dims(ring)
    if not (got.exact and got.dims == dims):
        raise NonIntegralMultiplicity("ring dimensions disagree with induced dimensions")
    return ring


def _split_system(mp, irreps):
    """(X, products, m): the simple characters X[z][k] and their products
    products(x)[y][k] at n pivot columns (t_k, y_k), as Z[zeta_m]
    coordinates, m the lcm of the stabilizer character conductors."""
    n = len(irreps)
    f, gamma = mp.f, mp.gamma
    n_gamma, n_f = gamma.order, f.order
    characters = [w.stab_table.chars[w.stab_row] for w in irreps]
    # character values are algebraic integers, so no common denominator
    m, _, codes = _coordinates([[v for values in characters for v in values]])
    starts = np.cumsum([0] + [len(values) for values in characters])

    # per-irrep sparse characters: orbit element index -> (n_f, phi(m)) coordinates
    every_y = np.arange(n_f)
    chi_int = []
    chi_cyc = []
    for w, values, start in zip(irreps, characters, starts):
        live = np.array([not v.is_zero() for v in values] + [False])
        # class of each F-element in the stabilizer; -1 (a dead class) outside
        class_in_f = np.full(n_f, -1, dtype=np.intp)
        class_in_f[f.index_rows(w.stabilizer.images)] = w.stab_table.class_of
        rows = {}
        vals = {}
        for xi, t in zip(w.coset_reps, w.weights):
            x, t = f.index_of(xi), gamma.index_of(t)
            cls = class_in_f[f.mul(f.mul(f.inv[x], every_y), x)]  # class of x^-1 y x
            block = np.zeros((n_f, codes.shape[2]), dtype=np.int64)
            hit = np.flatnonzero(live[cls])
            block[hit] = codes[0, start + cls[hit]]
            for yi in hit.tolist():
                vals[(t, yi)] = values[cls[yi]]
            rows[t] = block
        chi_int.append(rows)
        chi_cyc.append(vals)

    # pivot columns: greedily select (t, y) columns keeping the n x n system invertible
    pivots = _select_pivot_columns(chi_cyc, n, n_gamma, n_f)
    # t h^-1 for every h, per pivot weight t
    t_over = {t: gamma.mul(t, gamma.inv).tolist() for t in {t for t, _ in pivots}}

    x_canon = np.zeros((n, n, codes.shape[2]), dtype=np.int64)
    products = []
    for k, (t_i, y_i) in enumerate(pivots):
        # A[i, h] = chi_i(e_{t h^-1} # (h |> y)); B[j, h] = chi_j(e_h # y)
        a = np.zeros((n, n_gamma, codes.shape[2]), dtype=np.int64)
        b = np.zeros_like(a)
        for h in range(n_gamma):
            g = t_over[t_i][h]
            y2 = mp.rtab[h, y_i]
            for i in range(n):
                blk = chi_int[i].get(g)
                if blk is not None:
                    a[i, h] = blk[y2]
                blk = chi_int[i].get(h)
                if blk is not None:
                    b[i, h] = blk[y_i]
        x_canon[:, k] = b[:, t_i]
        products.append(_inner(a, b, m))  # sum over h of A[i, h] B[j, h]
    return x_canon, lambda x: np.stack([block[x] for block in products], axis=1), m


def _select_pivot_columns(chi_cyc, n, n_gamma, n_f):
    zero = Cyclotomic.zero()
    cells = [
        (t_i, y_i)
        for t_i in range(n_gamma)
        for y_i in range(n_f)
        if any((t_i, y_i) in vals for vals in chi_cyc)
    ]
    cols = ([vals.get(cell, zero) for vals in chi_cyc] for cell in cells)
    pivots = []
    for pos, _, _ in _cyclo_column_echelon(cols):
        pivots.append(cells[pos])
        if len(pivots) == n:
            return pivots
    raise SingularCharacterSystem(f"only {len(pivots)} independent character columns")


def dual_invertibles(mp):
    """The invertibles of Rep(k^Gamma # kF): one-dimensional F-characters
    extended by the <|-fixed points of Gamma (split case)."""
    f, gamma = mp.f, mp.gamma
    table_f = character_table(f)
    class_of = table_f.class_of.tolist()
    chars = [
        tuple(table_f.chars[r][c] for c in class_of)
        for r in range(table_f.num_classes)
        if table_f.degrees[r] == 1
    ]
    char_pos = {c: i for i, c in enumerate(chars)}
    fixed = np.flatnonzero((mp.ltab == np.arange(gamma.order)[:, None]).all(axis=1)).tolist()
    fixed_pos = {s: i for i, s in enumerate(fixed)}

    def act(s, char):
        return tuple(char[x] for x in mp.dual_ltab[:, s].tolist())

    elements = [(ci, si) for ci in range(len(chars)) for si in range(len(fixed))]
    pos = {e: i for i, e in enumerate(elements)}
    k = len(elements)
    table = [[0] * k for _ in range(k)]
    for i, (ci, si) in enumerate(elements):
        for j, (cj, sj) in enumerate(elements):
            moved = act(fixed[si], chars[cj])
            prod_char = tuple(a * b for a, b in zip(chars[ci], moved))
            s_new = int(gamma.mul(fixed[si], fixed[sj]))
            table[i][j] = pos[(char_pos[prod_char], fixed_pos[s_new])]
    tables.check_table(table)
    return DualInvertibles(
        order=k,
        table=tuple(map(tuple, table)),
        name=tables.iso_name(table),
        center_order=len(tables.center(table)),
    )


@dataclass(frozen=True)
class DualInvertibles:
    order: int
    table: tuple
    name: str
    center_order: int


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
