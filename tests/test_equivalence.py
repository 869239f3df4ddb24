"""Equivalence search against brute-force bijection enumeration."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from fusionrings import rings
from fusionrings.chartab import character_table, rep_g_fusion_ring
from fusionrings.equivalence import EquivalenceWitness, _profiles, find_equivalence, fingerprint, verify_properties
from fusionrings.errors import SearchBudgetExceeded
from fusionrings.perms import (
    PermGroup,
    Permutation,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)


def rep_ring(group):
    return rep_g_fusion_ring(character_table(group))


def brute_force_equivalent(r1, r2):
    """Oracle: enumerate all unit-fixing bijections (only for tiny rings)."""
    n = r1.size
    if n != r2.size:
        return False
    for rest in itertools.permutations(range(1, n)):
        f = (0,) + rest
        inv = np.argsort(np.array(f))
        if np.array_equal(r2.N, r1.N[np.ix_(inv, inv, inv)]) and all(
            f[r1.dual[i]] == r2.dual[f[i]] for i in range(n)
        ):
            return True
    return False


def test_quaternion_group_structure():
    from fusionrings import tables

    g = quaternion_group()
    assert tables.iso_name(tables.CayleyGroup(g.cayley_table())) == "Q8"


def test_fingerprint_rep_d4_equals_rep_q8():
    assert fingerprint(rep_ring(dihedral_group(4))) == fingerprint(rep_ring(quaternion_group()))


def test_fingerprint_distinguishes_sizes():
    assert fingerprint(rep_ring(symmetric_group(3))) != fingerprint(rep_ring(cyclic_group(6)))


def test_fingerprint_invariant_under_relabeling():
    ring = rep_ring(symmetric_group(4))
    rng = random.Random(5)
    perm = [0] + random.Random(5).sample(range(1, 5), 4)
    assert fingerprint(ring.relabel(perm)) == fingerprint(ring)


def test_d4_q8_witness_found_and_verified():
    r1, r2 = rep_ring(dihedral_group(4)), rep_ring(quaternion_group())
    w = find_equivalence(r1, r2)
    assert w is not None
    report = verify_properties(r1, r2, w)
    assert all(report.values())
    assert brute_force_equivalent(r1, r2)


def test_relabeled_rep_s5_witness():
    ring = rep_ring(symmetric_group(5))
    perm = [0, 3, 1, 6, 2, 5, 4]
    other = ring.relabel(perm)
    w = find_equivalence(ring, other)
    assert w is not None
    assert all(verify_properties(ring, other, w).values())
    # deterministic: same witness twice
    assert find_equivalence(ring, other).bijection == w.bijection


def test_size_mismatch_is_none():
    assert find_equivalence(rep_ring(symmetric_group(3)), rep_ring(cyclic_group(6))) is None


def test_none_answers_match_brute_force_on_small_pairs():
    small = [
        rep_ring(cyclic_group(4)),
        rep_ring(PermGroup.from_generators(4, [Permutation.parse("(1 2)", 4), Permutation.parse("(3 4)", 4)])),
        rep_ring(symmetric_group(3)),
        rep_ring(dihedral_group(4)),
        rep_ring(quaternion_group()),
        rep_ring(cyclic_group(5)),
        rep_ring(dihedral_group(5)),
    ]
    for a in small:
        for b in small:
            got = find_equivalence(a, b) is not None
            assert got == brute_force_equivalent(a, b)


def test_corrupted_witness_fails_verification():
    r1, r2 = rep_ring(dihedral_group(4)), rep_ring(quaternion_group())
    w = find_equivalence(r1, r2)
    f = list(w.bijection)
    # swap two non-corresponding labels of different profile
    one = rings.fp_dims(r2).dims.index(1, 1)
    two = rings.fp_dims(r2).dims.index(2)
    a = f.index(one)
    b = f.index(two)
    f[a], f[b] = f[b], f[a]
    bad = EquivalenceWitness(bijection=tuple(f))
    report = verify_properties(r1, r2, bad)
    assert not report["tensor_equal"]


def test_budget_exceeded_is_an_error():
    ring = rep_ring(symmetric_group(5))
    other = ring.relabel([0, 3, 1, 6, 2, 5, 4])
    with pytest.raises(SearchBudgetExceeded):
        find_equivalence(ring, other, budget=1)


def test_fingerprint_mismatch_implies_none():
    a = rep_ring(dihedral_group(6))
    b = rep_ring(symmetric_group(4))
    # same size (6 vs 5)? D6 has 6 classes, S4 has 5 - also covers size path
    assert (fingerprint(a) == fingerprint(b)) == (find_equivalence(a, b) is not None)


def cayley_ring(table):
    """Pointed ring of a Cayley table with identity 0, built without the group layer."""
    n = len(table)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    tensor[np.arange(n)[:, None], np.arange(n)[None, :], np.array(table)] = 1
    return rings.FusionRing([f"g{i}" for i in range(n)], tensor, [row.index(0) for row in table])


def c4_semidirect_c4():
    els = [(i, j) for i in range(4) for j in range(4)]  # a^i b^j with b a b^-1 = a^-1
    return [[els.index(((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)) for y in els] for x in els]


def q8_times_c2():
    signs = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j")}

    def qmul(x, y):
        (s, u), (t, v) = x, y
        if u == "1" or v == "1":
            return (s * t, v if u == "1" else u)
        if u == v:
            return (-s * t, "1")
        sign, w = signs[(u, v)] if (u, v) in signs else (-signs[(v, u)][0], signs[(v, u)][1])
        return (sign * s * t, w)

    els = [(s, u, c) for s in (1, -1) for u in "1ijk" for c in (0, 1)]
    return [[els.index(qmul(x[:2], y[:2]) + ((x[2] + y[2]) % 2,)) for y in els] for x in els]


def test_relabelled_d6_group_ring_witness_and_threshold_are_pinned():
    # values of the search before it was shared with the S-matrix search
    ring = rings.group_ring(dihedral_group(6))
    other = ring.relabel([0, 4, 10, 9, 3, 8, 5, 11, 1, 7, 6, 2])
    w = find_equivalence(ring, other, budget=21)
    assert w.bijection == (0, 1, 5, 6, 3, 7, 10, 11, 4, 8, 9, 2)
    assert all(verify_properties(ring, other, w).values())
    with pytest.raises(SearchBudgetExceeded):
        find_equivalence(ring, other, budget=20)


def test_same_fingerprint_negative_pair_is_refuted_at_pinned_threshold():
    a, b = cayley_ring(c4_semidirect_c4()), cayley_ring(q8_times_c2())
    assert fingerprint(a) == fingerprint(b)
    assert find_equivalence(a, b, budget=592) is None
    with pytest.raises(SearchBudgetExceeded):
        find_equivalence(a, b, budget=591)
    assert find_equivalence(b, a, budget=1680) is None
    with pytest.raises(SearchBudgetExceeded):
        find_equivalence(b, a, budget=1679)


def test_budget_error_reports_progress():
    ring = rings.group_ring(dihedral_group(6))
    other = ring.relabel([0, 4, 10, 9, 3, 8, 5, 11, 1, 7, 6, 2])
    with pytest.raises(SearchBudgetExceeded, match=r"20 nodes visited, deepest depth \d+ of 12"):
        find_equivalence(ring, other, budget=20)


def counter_profiles(ring):
    """Oracle: the element profiles as Python Counters over every entry."""
    dims, N, dual = rings.fp_dims(ring).dims, ring.N, ring.dual
    return [
        (
            dims[i],
            dims[dual[i]],
            dual[i] == i,
            tuple(sorted(Counter(map(int, N[i].flatten())).items())),
            tuple(sorted(map(int, N[i].sum(axis=1)))),
            tuple(sorted(Counter(map(int, N[i].diagonal())).items())),
        )
        for i in range(ring.size)
    ]


def test_profiles_match_counter_oracle():
    from fusionrings.bicross import split_fusion_ring
    from fusionrings.catalog import pair_cyclic_alternating, pair_cyclic_symmetric, pair_transposition_alternating
    from fusionrings.doubles import double_modular_data, verlinde_fusion

    big = np.zeros((2, 2, 2), dtype=np.int64)  # x^2 = 2^40 + (2^40 - 1) x, FP dimension 2^40
    big[0], big[1, 0, 1], big[1, 1] = np.eye(2, dtype=np.int64), 1, (2**40, 2**40 - 1)
    for ring in (
        rep_ring(symmetric_group(5)),
        split_fusion_ring(pair_cyclic_alternating(5)),
        split_fusion_ring(pair_cyclic_symmetric(5)),
        split_fusion_ring(pair_transposition_alternating(5)),
        rings.group_ring(dihedral_group(6)),
        verlinde_fusion(double_modular_data(symmetric_group(3))),
        rings.FusionRing(("1", "x"), big, (0, 1)),
    ):
        got, want = _profiles(ring), counter_profiles(ring)
        assert got == want
        assert repr(got) == repr(want)  # Python ints, not numpy scalars
