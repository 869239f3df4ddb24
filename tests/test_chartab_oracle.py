"""Character tables against facts that their certificate does not use.

Small permutation groups (degree <= 7, order <= 720) are drawn at random.
The table is certified by row orthogonality and its degree column; these
checks read the group instead: the abelianization from ``tables``, power
maps, inverse classes, centralizer orders and fixed points from the group's
index data, and orbits from the generators.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fusionrings import tables
from fusionrings.chartab import character_table
from fusionrings.cyclo import Cyclotomic, _coordinates
from fusionrings.perms import PermGroup, Permutation


@st.composite
def generated_groups(draw):
    """Up to three generators, each permuting a random subset of the points
    (as in test_group_oracle, which is skipped where sympy is missing)."""
    degree = draw(st.integers(1, 7))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.integers(0, degree - 1), min_size=min(degree, 2), unique=True))
        images = list(range(degree))
        for a, b in zip(support, draw(st.permutations(support))):
            images[a] = b
        gens.append(images)
    return degree, gens


def orbits(degree, gens):
    """Number of orbits of the generators on the points."""
    root = list(range(degree))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for images in gens:
        for a, b in enumerate(images):
            root[find(a)] = find(b)
    return len({find(x) for x in range(degree)})


def power_maps(group, reps):
    """powers[j][k]: index of reps[j]^k, for k below the order of reps[j]."""
    out = []
    for g in reps:
        row = [group.unit, g]
        while row[-1] != group.unit:
            row.append(int(group.mul(row[-1], g)))
        out.append(row[:-1])
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generated_groups())
def test_character_table_matches_group_facts(case):
    degree, gens = case
    group = PermGroup.from_generators(degree, [Permutation(g) for g in gens])
    assume(group.order <= 720)
    table = character_table(group)
    r = table.num_classes

    # the encoding the table stores is the coordinates of its values
    m, scale, coords = _coordinates(table.chars)
    assert (table.m, scale) == (m, 1) and np.array_equal(table.codes[table.index], coords)
    class_of = group.class_index_map()
    chars = table.chars
    reps = [group.index_of(rep) for rep, _ in table.classes]

    # linear characters: as many as the abelianization has elements
    derived, _ = tables.derived_subgroup(group)
    assert table.degrees.count(1) == group.order // len(derived)

    # chi(g^k) = sigma_k(chi(g)) for k prime to the order of g
    for j, powers in enumerate(power_maps(group, reps)):
        n = len(powers)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                image = class_of[powers[k]]
                assert all(row[image] == row[j].galois(k) for row in chars)

    # real-valued characters and real classes are equinumerous
    real_classes = sum(class_of[group.inv[g]] == j for j, g in enumerate(reps))
    assert sum(all(v == v.conjugate() for v in row) for row in chars) == real_classes

    # the permutation character on the points has non-negative integral
    # multiplicities, the trivial one the number of orbits (Burnside)
    fixed = [sum(i == x for i, x in enumerate(group.element(g).images)) for g in reps]
    sizes = [size for _, size in table.classes]
    mults = []
    for row in chars:
        acc = Cyclotomic.zero()
        for f, size, v in zip(fixed, sizes, row):
            acc = acc + v.conjugate() * (f * size)
        mults.append((acc / group.order).rational_part())
    assert all(q is not None and q.denominator == 1 and q >= 0 for q in mults)
    assert mults[0] == orbits(degree, gens)

    # column orthogonality against centralizer orders counted in the group
    everything = np.arange(group.order)
    for a, g in enumerate(reps):
        centralizer = int(np.count_nonzero(group.mul(everything, g) == group.mul(g, everything)))
        for b in range(r):
            acc = Cyclotomic.zero()
            for row in chars:
                acc = acc + row[a] * row[b].conjugate()
            assert acc == (centralizer if a == b else 0)
