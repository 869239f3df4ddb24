"""Group algorithms against an independent oracle, sympy.combinatorics.

Small permutation groups (degree <= 7, order <= 720) are drawn at random.
Each invariant is computed on the permutation group and again on its Cayley
table, and both answers must equal sympy's.  Sympy comes with the ``test``
extra, not with the library, so this module is skipped where it is missing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

combinatorics = pytest.importorskip("sympy.combinatorics")

from fusionrings import tables  # noqa: E402
from fusionrings.perms import PermGroup, Permutation, structure_invariants  # noqa: E402


@st.composite
def generated_groups(draw):
    """Up to three generators, each permuting a random subset of the points,
    so that direct products and wreath-like groups turn up, not just S_n."""
    degree = draw(st.integers(1, 7))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.integers(0, degree - 1), min_size=min(degree, 2), unique=True))
        images = list(range(degree))
        for a, b in zip(support, draw(st.permutations(support))):
            images[a] = b
        gens.append(images)
    return degree, gens


def prime_powers(invariant_factors):
    """Primary decomposition of an abelian group given by invariant factors."""
    out = []
    for d in invariant_factors:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def oracle(gens):
    g = combinatorics.PermutationGroup([combinatorics.Permutation(images) for images in gens])
    return {
        "order": g.order(),
        "class_sizes": sorted(len(c) for c in g.conjugacy_classes()),
        "center": g.center().order(),
        "derived_series": [h.order() for h in g.derived_series()],
        "solvable": bool(g.is_solvable),
        "nilpotent": bool(g.is_nilpotent),
        "abelianization": sorted(g.abelian_invariants()),
    }


def from_permutations(group):
    si = structure_invariants(group)
    return {
        "order": group.order,
        "class_sizes": sorted(len(members) for _, members in group.conjugacy_classes()),
        "center": si.center.order,
        "derived_series": [len(members) for members, _ in tables.derived_series(group)],
        "solvable": si.is_solvable,
        "nilpotent": si.is_nilpotent,
        "abelianization": prime_powers(si.abelianization_type),
    }


def from_table(table):
    group = tables.CayleyGroup(table)
    classes, _ = tables.conjugacy_classes(group)
    derived, _ = tables.derived_subgroup(group)
    abelianization, _ = tables.quotient(group, derived)
    return {
        "order": group.order,
        "class_sizes": sorted(len(c) for c in classes),
        "center": len(tables.center(group)),
        "derived_series": [len(members) for members, _ in tables.derived_series(group)],
        "solvable": tables.is_solvable(group),
        "nilpotent": tables.is_nilpotent(group),
        "abelianization": prime_powers(tables.abelian_invariants(abelianization)),
    }


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generated_groups())
def test_invariants_match_sympy(case):
    degree, gens = case
    want = oracle(gens)
    assume(want["order"] <= 720)
    group = PermGroup.from_generators(degree, [Permutation(g) for g in gens])
    assert from_permutations(group) == want
    assert from_table(group.cayley_table()) == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generated_groups())
def test_generator_maps_and_inverses_match_products(case):
    """``rmul`` and ``inv`` of a closure and of subgroups taken from it,
    against products recomputed by ``mul``; an identity generator and a
    repeated generator ride along."""
    degree, gens = case
    gens = [*gens, list(range(degree)), gens[0]]
    group = PermGroup.from_generators(degree, [Permutation(g) for g in gens])
    assert [group.images[s].tolist() for s in group.gens] == gens
    derived, derived_gens = tables.derived_subgroup(group)
    subgroups = [
        group,
        group.subgroup([Permutation(gens[0])]),
        group._sub(derived, derived_gens),
        group.centralizer_of(Permutation(gens[0])),
    ]
    for g in subgroups:
        everything = np.arange(g.order)
        assert len(g.rmul) == len(g.gens)
        for s, r in zip(g.gens, g.rmul):
            assert np.array_equal(r, g.mul(everything, s))
        assert (g.mul(everything, g.inv) == g.unit).all()
        assert (g.mul(g.inv, everything) == g.unit).all()
