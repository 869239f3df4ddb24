"""Mutual validation of the two independent fusion-rule pipelines.

A double is itself a split bicrossed product over the diagonal factorization
of G x G (adjoint action one way, trivial the other).  The ring produced by
exact character decomposition must therefore agree, up to relabeling, with
the ring recovered from the S-matrix through the non-degenerate sum formula.
The two code paths share nothing beyond the character-table layer.
"""

import numpy as np
import pytest

from fusionrings import rings
from fusionrings.bicross import matched_pair_from_factorization, split_fusion_ring
from fusionrings.doubles import double_modular_data, verlinde_fusion
from fusionrings.equivalence import find_equivalence, verify_properties
from fusionrings.perms import (
    PermGroup,
    Permutation,
    alternating_group,
    dihedral_group,
    symmetric_group,
)


def double_as_bicross(g):
    """The diagonal factorization G x G = diag(G) * (1 x G) as a matched pair."""
    d = g.degree

    def left(p):
        return Permutation(tuple(p.images) + tuple(range(d, 2 * d)))

    def right(p):
        return Permutation(tuple(range(d)) + tuple(i + d for i in p.images))

    ambient = PermGroup.from_generators(
        2 * d,
        [left(x) for x in g.generators] + [right(x) for x in g.generators],
    )
    f = ambient.subgroup([left(x) * right(x) for x in g.generators])
    gamma = ambient.subgroup([right(x) for x in g.generators])
    return matched_pair_from_factorization(ambient, f, gamma)


@pytest.mark.parametrize(
    "group_fn",
    [
        lambda: symmetric_group(3),
        lambda: alternating_group(4),
        lambda: dihedral_group(4),
    ],
    ids=["S3", "A4", "D4"],
)
def test_double_fusion_rules_agree_across_pipelines(group_fn):
    g = group_fn()
    mp = double_as_bicross(g)
    # the diagonal pair acts adjointly on Gamma and trivially on F
    assert (mp.rtab == np.arange(mp.f.order)).all()
    ring_chars = split_fusion_ring(mp)
    ring_smatrix = verlinde_fusion(double_modular_data(g))
    witness = find_equivalence(ring_chars, ring_smatrix)
    assert witness is not None
    assert all(verify_properties(ring_chars, ring_smatrix, witness).values())
