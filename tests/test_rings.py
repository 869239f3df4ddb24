"""Based-ring axioms, dimensions, subrings, gradings, nilpotency."""

import pytest

from fusionrings import rings
from fusionrings.chartab import character_table, rep_g_fusion_ring
from fusionrings.errors import AxiomViolation
from fusionrings.perms import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)


def rep_ring(group):
    return rep_g_fusion_ring(character_table(group))


def test_validate_rep_s3():
    rings.validate(rep_ring(symmetric_group(3)))


def test_validate_group_ring_z2():
    ring = rings.group_ring(cyclic_group(2))
    rings.validate(ring)
    assert rings.fp_dims(ring).dims == (1, 1)


def test_validate_rejects_bad_duality():
    base = rings.group_ring(cyclic_group(2))
    tensor = base.N.copy()
    tensor[1, 1, 0] = 2
    bad = rings.FusionRing(base.labels, tensor, base.dual)
    with pytest.raises(AxiomViolation) as err:
        rings.validate(bad)
    assert err.value.axiom in ("duality", "associativity", "unit_left")


def test_validate_rejects_broken_associativity():
    ring = rep_ring(symmetric_group(3))
    tensor = ring.N.copy()
    tensor[1, 2, 2] = 2  # sgn * V = 2V breaks (sgn sgn) V = sgn (sgn V)
    with pytest.raises(AxiomViolation):
        rings.validate(rings.FusionRing(ring.labels, tensor, ring.dual))
    # a uniform bump of V*V*V keeps associativity (a genuine near-group ring)
    tensor2 = ring.N.copy()
    tensor2[2, 2, 2] += 1
    rings.validate(rings.FusionRing(ring.labels, tensor2, ring.dual))


def test_fp_dims_rep_s4():
    ring = rep_ring(symmetric_group(4))
    dims = rings.fp_dims(ring)
    assert dims.exact and sorted(dims.dims) == [1, 1, 2, 3, 3]
    assert dims.total == 24


def test_fp_dims_group_ring():
    ring = rings.group_ring(symmetric_group(3))
    dims = rings.fp_dims(ring)
    assert dims.dims == (1,) * 6 and dims.total == 6


def test_invertibles_rep_s5_is_z2():
    inv = rings.invertibles(rep_ring(symmetric_group(5)))
    assert inv.order == 2 and inv.name == "C2"


def test_invertible_stabilizer_unit_is_trivial():
    ring = rep_ring(symmetric_group(3))
    assert rings.invertible_stabilizer(ring, 0) == (0,)


def test_invertible_stabilizer_of_v_in_rep_s3():
    ring = rep_ring(symmetric_group(3))
    v = rings.fp_dims(ring).dims.index(2)
    assert len(rings.invertible_stabilizer(ring, v)) == 2


def test_subring_generated_empty_seed():
    ring = rep_ring(symmetric_group(3))
    assert rings.subring_generated(ring, []) == (0,)


def test_subring_generated_by_v_is_everything():
    ring = rep_ring(symmetric_group(3))
    v = rings.fp_dims(ring).dims.index(2)
    assert rings.subring_generated(ring, [v]) == (0, 1, 2)


def test_adjoint_series_group_ring_collapses():
    ring = rings.group_ring(symmetric_group(3))
    chain, stabilized = rings.adjoint_series(ring)
    assert stabilized
    assert chain[1] == (0,) and len(chain) == 2


def test_adjoint_series_rep_s3_stationary():
    ring = rep_ring(symmetric_group(3))
    chain, stabilized = rings.adjoint_series(ring)
    assert stabilized and chain == [(0, 1, 2)]


def test_adjoint_series_rep_d4_reaches_unit():
    ring = rep_ring(dihedral_group(4))
    chain, _ = rings.adjoint_series(ring)
    assert chain[-1] == (0,)


def test_universal_grading_group_ring():
    g = symmetric_group(3)
    ring = rings.group_ring(g)
    grading = rings.universal_grading(ring)
    assert all(len(b) == 1 for b in grading.blocks)
    assert len(grading.blocks) == 6
    from fusionrings import tables

    assert tables.iso_name([list(r) for r in grading.group_table]) == "D3"


def test_universal_grading_rep_s3_single_block():
    grading = rings.universal_grading(rep_ring(symmetric_group(3)))
    assert grading.order == 1


def test_grading_dimension_balance():
    # each block of a faithful grading carries the same squared-dimension mass
    for group in [dihedral_group(4), dihedral_group(6), symmetric_group(4)]:
        ring = rep_ring(group)
        grading = rings.universal_grading(ring)
        dims = rings.fp_dims(ring).dims
        masses = {sum(dims[i] ** 2 for i in b) for b in grading.blocks}
        assert len(masses) == 1


def test_nilpotency():
    assert not rings.is_nilpotent(rep_ring(symmetric_group(3)))
    assert rings.is_nilpotent(rings.group_ring(symmetric_group(3)))
    assert rings.is_nilpotent(rep_ring(dihedral_group(4)))


def test_cyclic_nilpotency():
    assert not rings.is_cyclically_nilpotent(rep_ring(symmetric_group(3)))
    assert rings.is_cyclically_nilpotent(rings.group_ring(symmetric_group(3)))
    assert not rings.is_cyclically_nilpotent(rep_ring(symmetric_group(5)))
    assert rings.is_cyclically_nilpotent(rep_ring(dihedral_group(4)))
    assert not rings.is_cyclically_nilpotent(rings.group_ring(alternating_group(5)))


def test_restrict_produces_valid_subring():
    ring = rep_ring(dihedral_group(6))
    ad = rings.adjoint_indices(ring)
    sub = ring.restrict(ad)
    rings.validate(sub)


def test_relabel_is_isomorphic_and_unit_fixed():
    ring = rep_ring(symmetric_group(4))
    perm = [0, 2, 1, 4, 3]
    other = ring.relabel(perm)
    rings.validate(other)
    assert other.labels[2] == ring.labels[1]
    with pytest.raises(ValueError):
        ring.relabel([1, 0, 2, 3, 4])


def test_type_format():
    sig = rings.type_signature(rep_ring(symmetric_group(4)))
    assert rings.format_type(sig) == "(1,2; 2,1; 3,2)"


def test_non_integral_dims_certified_numerically():
    import numpy as np

    tensor = np.zeros((2, 2, 2), dtype=np.int64)
    tensor[0, 0, 0] = 1
    tensor[0, 1, 1] = 1
    tensor[1, 0, 1] = 1
    tensor[1, 1, 0] = 1
    tensor[1, 1, 1] = 1
    fib = rings.FusionRing(("1", "t"), tensor, (0, 1))
    rings.validate(fib)
    dims = rings.fp_dims(fib)
    assert not dims.exact
    assert abs(dims.dims[1] - (1 + 5**0.5) / 2) < 1e-12
    assert rings.invertibles(fib).order == 1
    with pytest.raises(ValueError):
        rings.type_signature(fib)


def _big_commutative_ring(b, a_offset):
    """Basis 1, x, y (self-dual) with x.x = 1 + a x + b y, x.y = b x + y,
    y.y = 1 + x + d y for d = b - 1: associative exactly when a = b(b - d) = b.
    Associativity sums reach about b^2, beyond 2**53 for b >= 2**27."""
    a, d = b + a_offset, b - 1
    tensor = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, a, b], [0, b, 1]],
        [[0, 0, 1], [0, b, 1], [1, 1, d]],
    ]
    return rings.FusionRing(("1", "x", "y"), tensor, (0, 1, 2))


@pytest.mark.parametrize("b", [2**28, 2**40])  # int64 sums, then Python-int sums
def test_validate_is_exact_past_float64(b):
    rings.validate(_big_commutative_ring(b, 0))
    # off by one in a single entry: float64 rounds both sides to the same value
    with pytest.raises(AxiomViolation) as err:
        rings.validate(_big_commutative_ring(b, 1))
    assert err.value.axiom == "associativity"


def closure_oracle(ring, seed):
    """Least based subring containing the seed, grown pair by pair from the
    supports of products and the duals."""
    current = set(seed) | {0}
    while True:
        grown = set(current) | {ring.dual[i] for i in current}
        for i in current:
            for j in current:
                grown.update(k for k in range(ring.size) if ring.N[i, j, k] > 0)
        if grown == current:
            return tuple(sorted(current))
        current = grown


def test_subring_generated_matches_pairwise_oracle():
    import random

    from fusionrings.doubles import double_modular_data, verlinde_fusion

    rng = random.Random(11)
    for ring in (
        rep_ring(symmetric_group(4)),
        rep_ring(alternating_group(5)),
        rings.group_ring(dihedral_group(6)),
        verlinde_fusion(double_modular_data(symmetric_group(3))),
        verlinde_fusion(double_modular_data(cyclic_group(4))),
    ):
        for size in (0, 1, 1, 2, 3):
            seed = rng.sample(range(ring.size), size)
            assert rings.subring_generated(ring, seed) == closure_oracle(ring, seed)
        assert rings.adjoint_indices(ring) == closure_oracle(
            ring, {k for i in range(ring.size) for k in ring.support(i, ring.dual[i])}
        )


def test_decomposition_kernel_skips_a_prime_where_x_is_singular():
    import numpy as np

    from fusionrings.rings import _decompose, _solving_prime

    # characters of Z/2 scaled so that X = diag(1, 3) is singular mod 3, the
    # first candidate prime above 2 max(d)^2 = 2
    X = np.array([[1, 0], [0, 3]]).reshape(2, 2, 1)
    N = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    P = np.einsum("xyz,ztc->xytc", N, X)
    assert round(np.linalg.det(X[:, :, 0])) % 3 == 0
    assert _solving_prime(X, 1, (1, 1))[0] == 5
    assert np.array_equal(_decompose(X, P.__getitem__, 1, (1, 1)), N)
    # dimensions of 2^16 push p past 2^33, where the sums mod p need Python ints
    p, powers, _ = _solving_prime(X, 1, (2**16, 2**16))
    assert p > 2**33 and powers.dtype == object
    assert np.array_equal(_decompose(X, P.__getitem__, 1, (2**16, 2**16)), N)
