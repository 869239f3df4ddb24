"""Matched pairs and split bicrossed products: K5-style fusion rules, types,
dual invertibles, equivariantization types."""

import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fusionrings import docs, rings
from fusionrings.bicross import (
    dual_invertibles,
    equivariantization_type,
    gamma_action,
    matched_pair_from_factorization,
    split_fusion_ring,
    split_irreps,
    split_type,
)
from fusionrings.cyclo import Cyclotomic
from fusionrings.errors import NotAutomorphism, NotExactFactorization
from fusionrings.perms import (
    Permutation,
    alternating_group,
    cyclic_group,
    symmetric_group,
)


def pair_in_s5_c5_s4():
    g = symmetric_group(5)
    f = cyclic_group(5, degree=5)
    gamma = symmetric_group(4, degree=5)
    return matched_pair_from_factorization(g, f, gamma)


def pair_in_a5_c5_a4():
    g = alternating_group(5)
    f = cyclic_group(5, degree=5)
    gamma = alternating_group(4, degree=5)
    return matched_pair_from_factorization(g, f, gamma)


def pair_b5():
    g = symmetric_group(5)
    f = g.subgroup([Permutation.parse("(1 2)", 5)])
    gamma = alternating_group(5)
    return matched_pair_from_factorization(g, f, gamma)


def test_s5_factorization_valid():
    mp = pair_in_s5_c5_s4()
    assert mp.f.order == 5 and mp.gamma.order == 24


def test_not_exact_factorization():
    g = symmetric_group(3)
    with pytest.raises(NotExactFactorization):
        matched_pair_from_factorization(g, g, g)


class GroupLawFailure(AssertionError):
    """The bicrossed multiplication law failed verification."""


def bowtie_group(mp):
    """The group on F x Gamma with (x,s)(y,t) = (x(s|>y), (s<|y)t), realized
    inside the ambient group via (x,s) -> x*s; the law, x s y t =
    x (s|>y)(s<|y) t for all x and t, holds exactly when s y = (s|>y)(s<|y),
    which is verified at every (s, y) on indices."""
    g = mp.ambient
    fi = g.index_rows(mp.f.images)
    gi = g.index_rows(mp.gamma.images)
    bad = g.mul(gi[:, None], fi[None, :]) != g.mul(fi[mp.rtab], gi[mp.ltab])
    if bad.any():
        s, y = np.argwhere(bad)[0].tolist()
        raise GroupLawFailure(f"law fails at Gamma/F indices {(s, y)}")
    return g


def test_decomposition_identity():
    # s*x = (s |> x)(s <| x) for the pair and for its dual
    mp = pair_in_s5_c5_s4()
    for pair in (mp, mp.dual()):
        assert bowtie_group(pair) == mp.ambient


def test_even_case_a3_not_stable():
    # inside S4 the <|-action of the 4-cycle moves even elements of S3 to odd ones
    g = symmetric_group(4)
    f = cyclic_group(4, degree=4)
    gamma = symmetric_group(3, degree=4)
    mp = matched_pair_from_factorization(g, f, gamma)
    z = Permutation.parse("(1 2 3 4)", 4)
    sigma = Permutation.parse("(1 2 3)", 4)
    moved = mp.gamma.element(mp.ltab[mp.gamma.index_of(sigma), mp.f.index_of(z)])
    assert moved.sign() == -1


def test_bowtie_group_isomorphic_to_ambient():
    mp = pair_in_a5_c5_a4()
    assert bowtie_group(mp).order == 60
    mp2 = pair_in_s5_c5_s4()
    assert bowtie_group(mp2).order == 120


def test_bowtie_trivial_gamma():
    g = cyclic_group(4)
    triv = g.subgroup([])
    mp = matched_pair_from_factorization(g, g, triv)
    assert bowtie_group(mp).order == 4


def test_bowtie_group_checks_every_row_of_gamma():
    # S6 = C6 * S5 (order 720): one s |> y corrupted in a row of Gamma that
    # is neither the unit nor a generator
    mp = benchmark_pairs()["S6=C6.S5"]
    assert bowtie_group(mp).order == 720
    s = next(s for s in range(mp.gamma.order) if s != mp.gamma.unit and s not in mp.gamma.gens)
    rtab = mp.rtab.copy()
    rtab[s, 1] = (rtab[s, 1] + 1) % mp.f.order
    with pytest.raises(GroupLawFailure) as failure:
        bowtie_group(replace(mp, rtab=rtab))
    assert str(failure.value) == f"law fails at Gamma/F indices ({s}, 1)"


def orbit_sizes_oracle(mp):
    """Independent orbit partition: decompose s*x by scanning F x Gamma."""
    decomp = {}
    for x in mp.f.elements:
        for s in mp.gamma.elements:
            decomp[x * s] = s
    remaining = set(mp.gamma.elements)
    sizes = []
    while remaining:
        seed = remaining.pop()
        orbit = {seed}
        frontier = [seed]
        while frontier:
            s = frontier.pop()
            for x in mp.f.elements:
                t = decomp[s * x]
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        remaining -= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def test_orbits_of_c5_on_a4():
    mp = pair_in_a5_c5_a4()
    orbs = gamma_action(mp).orbits()
    sizes = sorted(len(o.members) for o in orbs)
    assert sizes == [1, 1, 5, 5]
    assert orbit_sizes_oracle(mp) == sizes


def test_orbits_of_c5_on_s4_and_fixed_subgroup():
    mp = pair_in_s5_c5_s4()
    orbs = gamma_action(mp).orbits()
    sizes = sorted(len(o.members) for o in orbs)
    assert sizes == [1, 1, 1, 1, 5, 5, 5, 5]
    assert orbit_sizes_oracle(mp) == sizes
    fixed = [o.representative for o in orbs if len(o.members) == 1]
    sub = mp.gamma.subgroup([f for f in fixed if f != mp.gamma.identity])
    assert sub.order == 4 and sub.is_abelian()
    orders = sorted(f.order() for f in fixed)
    assert orders == [1, 2, 4, 4]  # a cyclic group generated by a 4-cycle


def test_k5_type_and_invertibles():
    mp = pair_in_a5_c5_a4()
    assert split_type(mp) == ((1, 10), (5, 2))
    ring = split_fusion_ring(mp)
    inv = rings.invertibles(ring)
    assert inv.order == 10 and inv.name == "D5"


def test_k5_exact_fusion_rules():
    ring = split_fusion_ring(pair_in_a5_c5_a4())
    dims = rings.fp_dims(ring).dims
    five = [i for i, d in enumerate(dims) if d == 5]
    assert len(five) == 2
    y, y2 = five
    inv = rings.invertibles(ring)
    orders = {}
    for g in inv.indices:
        k, x = 1, g
        while x != 0:
            x = ring.support(x, g)[0]
            k += 1
        orders[g] = k
    r_sub = [g for g in inv.indices if orders[g] in (1, 5)]
    assert len(r_sub) == 5
    two_els = [g for g in inv.indices if orders[g] == 2]
    assert len(two_els) == 5
    for g in two_els:
        assert ring.support(g, y) == (y2,) and ring.N[g, y, y2] == 1
        assert ring.support(y, g) == (y2,)
    for g in r_sub:
        assert ring.support(g, y) == (y,)
    # Y Y = sum of R + 2Y + 2Y', same for Y'
    for a in (y, y2):
        vec = ring.N[a, a]
        assert all(vec[g] == 1 for g in r_sub)
        assert all(vec[g] == 0 for g in two_els)
        assert vec[y] == 2 and vec[y2] == 2
    assert ring.dual[y] == y and ring.dual[y2] == y2


def test_k5_stabilizer_and_pointed_subring():
    ring = split_fusion_ring(pair_in_a5_c5_a4())
    dims = rings.fp_dims(ring).dims
    y = dims.index(5)
    inv = rings.invertibles(ring)
    stab = [g for g in inv.indices if ring.N[g, y, y] == 1]
    assert len(stab) == 5  # the order-5 subgroup of the dihedral invertibles
    assert rings.subring_generated(ring, inv.indices) == inv.indices
    # the adjoint subring of the K5 ring is everything: no faithful grading
    assert rings.universal_grading(ring).order == 1


def test_h5_type():
    mp = pair_in_s5_c5_s4().dual()
    assert split_type(mp) == ((1, 2), (2, 1), (3, 2), (4, 2), (8, 1))


def test_l5_type():
    mp = pair_in_a5_c5_a4().dual()
    assert split_type(mp) == ((1, 3), (3, 1), (4, 3))


def test_b5_type():
    assert split_type(pair_b5()) == ((1, 12), (2, 27))


def test_j5_type():
    assert split_type(pair_in_s5_c5_s4()) == ((1, 20), (5, 4))


def test_dim_squares_sum_to_dim_h():
    for mp in [pair_in_a5_c5_a4(), pair_in_s5_c5_s4(), pair_b5()]:
        ws = split_irreps(mp)
        assert sum(w.dim**2 for w in ws) == mp.f.order * mp.gamma.order


def test_dual_invertibles_j5():
    di = dual_invertibles(pair_in_s5_c5_s4())
    assert di.order == 20 and di.center_order == 1


def test_dual_invertibles_k5():
    di = dual_invertibles(pair_in_a5_c5_a4())
    assert di.order == 10 and di.name == "D5" and di.center_order == 1


def test_dual_invertibles_b5():
    di = dual_invertibles(pair_b5())
    assert di.order == 12 and di.name == "D6"  # C2 x S3, non-abelian of order 12
    from fusionrings import tables

    assert not tables.is_abelian(di.group)


def test_dual_invertibles_match_dimension_one_count():
    # the group-theoretic semidirect construction counts the same objects as
    # the dimension-1 entries of the irreducible classification
    for mp in [pair_in_a5_c5_a4(), pair_in_s5_c5_s4(), pair_b5()]:
        di = dual_invertibles(mp)
        ones = [w for w in split_irreps(mp) if w.dim == 1]
        assert di.order == len(ones)


def test_dual_of_dual_restores_actions():
    mp = pair_in_s5_c5_s4()
    back = mp.dual().dual()
    assert back.f == mp.f and back.gamma == mp.gamma
    assert np.array_equal(back.ltab, mp.ltab) and np.array_equal(back.rtab, mp.rtab)


def test_equivariantization_type_b5():
    g = alternating_group(5)
    ring = rings.group_ring(g)
    t = Permutation.parse("(1 2)", 5)
    action = tuple(g.index_of(t.inverse() * x * t) for x in g.elements)
    assert equivariantization_type(ring, action, 2) == ((1, 12), (2, 27))


def test_equivariantization_type_b6():
    g = alternating_group(6)
    ring = rings.group_ring(g)
    t = Permutation.parse("(1 2)", 6)
    action = tuple(g.index_of(t.inverse() * x * t) for x in g.elements)
    assert equivariantization_type(ring, action, 2) == ((1, 48), (2, 168))


def test_equivariantization_trivial_ring():
    ring = rings.group_ring(cyclic_group(1))
    assert equivariantization_type(ring, (0,), 2) == ((1, 2),)


def test_equivariantization_prime_invertibles_force_prime_simple():
    # inversion on the 3-element pointed ring: exactly p invertibles survive,
    # so a dimension-p simple must appear
    g = cyclic_group(3)
    ring = rings.group_ring(g)
    action = tuple(g.index_of(x.inverse()) for x in g.elements)
    sig = equivariantization_type(ring, action, 2)
    assert sig == ((1, 2), (2, 1))
    counts = dict(sig)
    if counts.get(1) == 2 and rings.invertibles(ring).order > 1:
        assert counts.get(2, 0) >= 1


def test_equivariantization_rejects_non_automorphism():
    from fusionrings.chartab import character_table, rep_g_fusion_ring

    ring = rep_g_fusion_ring(character_table(symmetric_group(3)))
    with pytest.raises(NotAutomorphism):
        equivariantization_type(ring, (0, 2, 1), 2)  # swaps sgn with V


def test_k7_ring_builds_exactly():
    from fusionrings.catalog import pair_cyclic_alternating

    ring = split_fusion_ring(pair_cyclic_alternating(7))
    assert tensor_sha(ring) == "315cb35a330c45d4"
    assert rings.type_signature(ring) == ((1, 21), (7, 51))
    inv = rings.invertibles(ring)
    assert inv.order == 21
    from fusionrings import tables

    assert not tables.is_abelian(inv.group)


@pytest.mark.slow
def test_j7_ring_builds_exactly():
    from fusionrings.catalog import pair_cyclic_symmetric

    ring = split_fusion_ring(pair_cyclic_symmetric(7))
    assert tensor_sha(ring) == "05c6b2899eac74ef"
    assert rings.type_signature(ring) == ((1, 42), (7, 102))
    assert rings.invertibles(ring).order == 42
    # the 6 MB document: numpy writes json's bytes and reads the same tensor back
    text = docs.dumps_ring(ring)
    assert text == docs.dumps(docs.document("fusionring", docs.ring_payload(ring)))
    assert tensor_sha(docs.ring_from_payload(docs.loads_ring(text)["payload"])) == "05c6b2899eac74ef"


def benchmark_pairs():
    """The ten factorizations G = F * Gamma of the bicross-search benchmark
    workload: five, each with its dual Gamma * F."""
    s4, s5, s6, a5 = symmetric_group(4), symmetric_group(5), symmetric_group(6), alternating_group(5)
    c4, c5, c6 = cyclic_group(4, degree=4), cyclic_group(5, degree=5), cyclic_group(6, degree=6)
    t12 = s5.subgroup([Permutation.parse("(1 2)", 5)])
    factors = {
        "K5": (a5, c5, alternating_group(4, degree=5)),
        "J5": (s5, c5, symmetric_group(4, degree=5)),
        "B5": (s5, t12, a5),
        "S4=C4.S3": (s4, c4, symmetric_group(3, degree=4)),
        "S6=C6.S5": (s6, c6, symmetric_group(5, degree=6)),
    }
    pairs = {}
    for name, (g, f, gamma) in factors.items():
        pairs[name] = matched_pair_from_factorization(g, f, gamma)
        pairs[name + "-dual"] = matched_pair_from_factorization(g, gamma, f)
    return pairs


def named_pairs():
    """The catalog's K5, J5, B5 and the duals H5, L5."""
    from fusionrings.catalog import (
        pair_cyclic_alternating,
        pair_cyclic_symmetric,
        pair_transposition_alternating,
    )

    return {
        "K5": pair_cyclic_alternating(5),
        "J5": pair_cyclic_symmetric(5),
        "B5": pair_transposition_alternating(5),
        "H5": pair_cyclic_symmetric(5).dual(),
        "L5": pair_cyclic_alternating(5).dual(),
    }


def dual_invertibles_oracle(mp):
    """(table, name, center order) of the dual invertibles, multiplying the
    one-dimensional characters of F as tuples of exact Cyclotomic values."""
    from fusionrings import tables
    from fusionrings.chartab import character_table

    f, gamma = mp.f, mp.gamma
    table_f = character_table(f)
    chars = [
        tuple(table_f.chars[r][c] for c in table_f.class_of.tolist())
        for r in range(table_f.num_classes)
        if table_f.degrees[r] == 1
    ]
    char_pos = {c: i for i, c in enumerate(chars)}
    fixed = [s for s in range(gamma.order) if all(mp.ltab[s] == s)]
    elements = [(ci, si) for ci in range(len(chars)) for si in range(len(fixed))]
    table = []
    for ci, si in elements:
        row = []
        for cj, sj in elements:
            moved = tuple(chars[cj][x] for x in mp.dual_ltab[:, fixed[si]].tolist())
            product = char_pos[tuple(a * b for a, b in zip(chars[ci], moved))]
            row.append(elements.index((product, fixed.index(int(gamma.mul(fixed[si], fixed[sj]))))))
        table.append(tuple(row))
    group = tables.CayleyGroup(table)
    return tuple(table), tables.iso_name(group), len(tables.center(group))


def test_dual_invertibles_match_cyclotomic_oracle():
    for name, mp in benchmark_pairs().items():
        di = dual_invertibles(mp)
        got = tuple(map(tuple, di.group.table.tolist())), di.name, di.center_order
        assert got == dual_invertibles_oracle(mp), name


def test_dual_invertibles_are_the_invertibles_of_the_split_ring():
    """One side is read off F's linear characters, the other off the
    certified fusion ring: order, element orders, name and centre agree."""
    from fusionrings import tables

    def summary(group, name, center_order):
        return group.order, Counter(tables.element_orders(group).tolist()), name, center_order

    for name, mp in [*benchmark_pairs().items(), *named_pairs().items()]:
        di, inv = dual_invertibles(mp), rings.invertibles(split_fusion_ring(mp))
        want = summary(inv.group, inv.name, len(tables.center(inv.group)))
        assert summary(di.group, di.name, di.center_order) == want, name


# sha256 of the tensors: the first four recorded while the pivots came from
# an exact Cyclotomic column echelon, the other six while every pivot product
# was summed over all of Gamma
SPLIT_RING_SHA = {
    "K5": "f1bdba71968294e6",
    "J5": "b2849c56ce231f44",
    "B5": "5b4e2601362c20f2",
    "S4=C4.S3": "05b4087d78cb068c",
    "K5-dual": "4c89a31ad94a5e63",
    "J5-dual": "7c56e1e0942ac0fd",
    "B5-dual": "a0715fc5abd48bef",
    "S4=C4.S3-dual": "22892fceaf3140cd",
    "S6=C6.S5": "0d13695a257e1b6b",
    "S6=C6.S5-dual": "3b449a87d8dec215",
}


def tensor_sha(ring):
    return hashlib.sha256(ring.N.tobytes()).hexdigest()[:16]


def test_split_fusion_ring_does_no_cyclotomic_arithmetic(monkeypatch):
    pairs = benchmark_pairs()

    def forbidden(*args):
        raise AssertionError("cyclotomic arithmetic in split_fusion_ring")

    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
               "inverse", "conjugate", "galois"):
        monkeypatch.setattr(Cyclotomic, op, forbidden)
    assert set(SPLIT_RING_SHA) == set(pairs)
    for name, sha in SPLIT_RING_SHA.items():
        assert tensor_sha(split_fusion_ring(pairs[name])) == sha, name


def test_split_system_solves_at_the_cells_its_orbits_name():
    """At cell k = (orbit representative s of simple k, representative of
    class stab_row of its stabilizer H), chi_i(e_s # y) = rho_i(y) for i on
    the orbit of s and 0 off it: X is block diagonal with one block per
    orbit, that orbit's stabilizer character table."""
    import numpy as np

    from fusionrings.bicross import _split_system
    from fusionrings.cyclo import _embeddings, _evaluate, _lift, _phi

    for name, mp in [*benchmark_pairs().items(), *named_pairs().items()]:
        irreps = split_irreps(mp)
        system, m, _ = _split_system(mp, irreps)
        n = len(irreps)
        want = np.zeros((n, n, _phi(m)), dtype=np.int64)
        start = 0
        while start < n:
            table = irreps[start].stab_table
            block = slice(start, start + table.num_classes)
            assert {w.orbit_rep for w in irreps[block]} == {irreps[start].orbit_rep}, name
            assert [w.stab_row for w in irreps[block]] == list(range(table.num_classes)), name
            want[block, block] = _lift(table.codes, table.m, m)[table.index]
            start = block.stop
        q, E, _ = next(_embeddings(m, 2**20))
        assert np.array_equal(system(q, E)[0], _evaluate(want, q, E)), name


def test_split_irreps_builds_one_table_per_distinct_stabilizer(monkeypatch):
    import fusionrings.bicross as bicross
    from fusionrings.catalog import pair_cyclic_symmetric

    built = []
    table = bicross.character_table
    monkeypatch.setattr(bicross, "character_table", lambda group: built.append(group) or table(group))
    # S6 = C6.S5 has 24 orbits, B5 33 and J5 (S5 = C5.S4) 8
    for mp, orbits, tables in ((pair_cyclic_symmetric(6), 24, 4), (pair_b5(), 33, 2), (pair_in_s5_c5_s4(), 8, 2)):
        built.clear()
        irreps = split_irreps(mp)
        assert len({w.orbit_rep for w in irreps}) == orbits
        assert len(built) == len(set(built)) == len({w.stabilizer for w in irreps}) == tables
