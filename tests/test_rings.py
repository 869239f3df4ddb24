"""Based-ring axioms, dimensions, subrings, gradings, nilpotency."""

import math

import numpy as np
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

    assert tables.iso_name(grading.group) == "D3"


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

    from fusionrings.cyclo import _evaluate, _split_prime
    from fusionrings.rings import _decompose

    # characters of Z/2 scaled so that X = diag(1, q) is singular mod q, the
    # first prime above 2**20, where the kernel's primes start
    q0, q1, q2 = (_split_prime(1, 2**20, k)[0] for k in range(3))
    X = np.array([[1, 0], [0, q0]]).reshape(2, 2, 1)
    N = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    P = np.einsum("xyz,ztc->xytc", N, X)
    seen = []

    def system(q, E):
        seen.append((q, E.dtype))
        return _evaluate(X, q, E), lambda x: _evaluate(P[x], q, E)

    assert round(np.linalg.det(X[:, :, 0])) % q0 == 0
    assert np.array_equal(_decompose(system, 1, (q0, q0), (1, 1)), N)
    # solved at q1, then certified at q1 and q2: twice the coordinate bound
    # 2 * 1 * q0 + q0 of a difference is 6 q0 < q1 q2; a solve at q0 would stop at q1
    assert [q for q, _ in seen] == [q0, q1, q2]
    # dimensions of 2^16 push the primes past 2^33, where the sums mod p need Python ints
    seen.clear()
    assert np.array_equal(_decompose(system, 1, (q0, q0), (2**16, 2**16)), N)
    assert seen[0][0] > 2**33 and all(dtype == object for _, dtype in seen)


def test_decomposition_kernel_rejects_dependent_characters():
    import numpy as np

    from fusionrings.cyclo import _evaluate
    from fusionrings.errors import SingularCharacterSystem
    from fusionrings.rings import _decompose

    # a nonzero det X would have norm at most (3 * 1^2)^(3/2) < 2**20, so
    # the first prime at which X is singular proves it dependent
    X = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]).reshape(3, 3, 1)
    seen = []

    def system(q, E):
        seen.append(q)
        return _evaluate(X, q, E), None  # no product is asked for

    with pytest.raises(SingularCharacterSystem, match="the 3 simple characters are dependent"):
        _decompose(system, 1, (1, 1), (1, 1, 1))
    assert len(seen) == 1


@pytest.mark.parametrize("b", [2363, 2365])
def test_validate_is_exact_at_the_float32_boundary(b):
    import numpy as np

    from fusionrings.cyclo import _exact_dtype

    # associativity sums are bounded by 3 max(N)^2 = 3 (b + 1)^2: float32
    # runs them just below 2**24 (b = 2363), float64 just above (b = 2365);
    # the largest sums, 1 + a^2 + b^2, come within a factor 1.5 of 2**24
    assert _exact_dtype(3 * (b + 1) ** 2) is (np.float32 if b == 2363 else np.float64)
    rings.validate(_big_commutative_ring(b, 0))
    with pytest.raises(AxiomViolation) as err:
        rings.validate(_big_commutative_ring(b, 1))
    assert err.value.axiom == "associativity"


def duality_oracle(ring):
    """The first duality axiom that fails, checked i by i and then j by j:
    (axiom, location), or None."""
    dual = ring.dual
    for i in range(ring.size):
        if dual[dual[i]] != i:
            return "dual_involution", (i,)
        for j in range(ring.size):
            if ring.N[i, j, 0] != (1 if j == dual[i] else 0):
                return "duality", (i, j)
    return None


def test_validate_reports_the_first_duality_failure():
    import random

    rng = random.Random(5)
    base = rep_ring(symmetric_group(4))
    seen = set()
    for _ in range(60):
        tensor = base.N.copy()
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(1, 5), rng.randrange(1, 5)
            tensor[i, j, 0] = rng.randint(0, 2)
            tensor[j, i, 0] = tensor[i, j, 0]
        dual = list(base.dual)
        if rng.random() < 0.3:  # a bijection that need not be an involution
            rest = dual[1:]
            rng.shuffle(rest)
            dual[1:] = rest
        ring = rings.FusionRing(base.labels, tensor, dual)
        want = duality_oracle(ring)
        try:
            rings.validate(ring)
            got = None
        except AxiomViolation as err:
            got = (err.axiom, err.witness)
        if want is not None:
            assert got == want
            seen.add(want[0])
    assert seen == {"dual_involution", "duality"}


def invertibles_oracle(ring):
    """Indices and Cayley table of the dimension-1 basis elements, one
    support per pair, or the first pair whose product is not a single
    invertible."""
    idx = tuple(i for i, d in enumerate(rings.fp_dims(ring).dims) if d == 1)
    table = []
    for a in idx:
        row = []
        for b in idx:
            supp = ring.support(a, b)
            if len(supp) != 1 or ring.N[a, b, supp[0]] != 1:
                return idx, (a, b)
            row.append(idx.index(supp[0]))
        table.append(tuple(row))
    return idx, tuple(table)


def test_invertibles_match_pairwise_oracle():
    from fusionrings.bicross import matched_pair_from_factorization, split_fusion_ring

    k5 = split_fusion_ring(matched_pair_from_factorization(
        alternating_group(5), cyclic_group(5, degree=5), alternating_group(4, degree=5)))
    for ring in (rep_ring(dihedral_group(4)), rings.group_ring(symmetric_group(3)), k5):
        inv = rings.invertibles(ring)
        assert (inv.indices, tuple(map(tuple, inv.group.table.tolist()))) == invertibles_oracle(ring)
    # a product of invertibles that is no longer one basis element
    tensor = k5.N.copy()
    a, b = inv.indices[2], inv.indices[3]
    tensor[a, b] *= 2
    broken = rings.FusionRing(k5.labels, tensor, k5.dual)
    broken._dims = rings.fp_dims(k5)
    with pytest.raises(AxiomViolation) as err:
        rings.invertibles(broken)
    assert (err.value.axiom, err.value.witness) == ("invertible_product", invertibles_oracle(broken)[1])


def universal_grading_oracle(ring):
    """(blocks, group table) of the universal grading by union-find over one
    support per basis pair, or the GradingInconsistent message it stops at."""
    from fusionrings import tables

    n = ring.size
    ad = rings.adjoint_indices(ring)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in ad:
        for j in range(n):
            for k in ring.support(a, j) + ring.support(j, a):
                ra, rb = find(j), find(k)
                parent[max(ra, rb)] = min(ra, rb)
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    blocks = sorted((tuple(sorted(m)) for m in comps.values()), key=lambda b: (b[0] != 0, b))
    if blocks[0] != tuple(ad):
        return "neutral block differs from adjoint subring"
    block_of = {i: b for b, members in enumerate(blocks) for i in members}
    k = len(blocks)
    table = [[None] * k for _ in range(k)]
    for i in range(n):
        for j in range(n):
            supp = ring.support(i, j)
            if not supp:
                return f"empty product at ({i},{j})"
            tgt = {block_of[s] for s in supp}
            if len(tgt) != 1:
                return f"product ({i},{j}) spreads over blocks {sorted(tgt)}"
            g, h, t = block_of[i], block_of[j], tgt.pop()
            if table[g][h] is None:
                table[g][h] = t
            elif table[g][h] != t:
                return f"inconsistent block product at ({g},{h})"
    try:
        tables.CayleyGroup(table)
    except ValueError as err:
        return str(err)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return "block product not associative"
    return tuple(blocks), tuple(map(tuple, table))


def _grading_or_message(ring):
    from fusionrings.errors import GradingInconsistent

    try:
        grading = rings.universal_grading(ring)
    except (GradingInconsistent, ValueError) as err:
        return str(err)
    return grading.blocks, tuple(map(tuple, grading.group.table.tolist()))


def test_universal_grading_matches_union_find_oracle():
    from fusionrings.bicross import matched_pair_from_factorization, split_fusion_ring
    from fusionrings.doubles import double_modular_data, verlinde_fusion
    from fusionrings.perms import quaternion_group

    s4 = matched_pair_from_factorization(symmetric_group(4), cyclic_group(4, degree=4),
                                         symmetric_group(3, degree=4))
    b5 = matched_pair_from_factorization(symmetric_group(5), cyclic_group(2, degree=5),
                                         alternating_group(5))
    for ring in (
        rep_ring(symmetric_group(4)),
        rep_ring(dihedral_group(6)),
        rep_ring(quaternion_group()),
        rings.group_ring(dihedral_group(4)),
        rings.group_ring(cyclic_group(6)),
        split_fusion_ring(s4),
        split_fusion_ring(s4.dual()),
        split_fusion_ring(b5),
        verlinde_fusion(double_modular_data(symmetric_group(3))),
        verlinde_fusion(double_modular_data(cyclic_group(4))),
    ):
        want = universal_grading_oracle(ring)
        assert isinstance(want, tuple)
        assert _grading_or_message(ring) == want


def _magma_ring(square):
    """The tensor of x * y = square[x][y] (unit 0), each element self-dual."""
    import numpy as np

    n = len(square)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            tensor[x, y, square[x][y]] = 1
    return rings.FusionRing(tuple(map(str, range(n))), tensor, tuple(range(n)))


def test_universal_grading_inconsistencies_match_union_find_oracle():
    import numpy as np

    # the loop of order 5 in which every element squares to 0: its blocks are
    # the elements, and their product is not associative
    loop = _magma_ring([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    # with basis 1, x, y, z: y y = y makes {1, y} the adjoint block and
    # {x, z} the other, but x x lands in the first and x z in the second
    clash = _magma_ring([[0, 1, 2, 3], [1, 2, 1, 1], [2, 3, 2, 3], [3, 0, 1, 0]])
    # x^2 = 1 + x makes {1, x} adjoint, and 1 in x y joins y to the neutral block
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0] = tensor[:, 0] = np.eye(3, dtype=np.int64)
    tensor[1, 1, :2] = tensor[2, 2, 0] = tensor[1, 2, 0] = 1
    joined = rings.FusionRing(("1", "x", "y"), tensor, (0, 1, 2))
    messages = {universal_grading_oracle(ring) for ring in (loop, clash, joined)}
    assert messages == {"block product not associative", "inconsistent block product at (1,1)",
                        "neutral block differs from adjoint subring"}
    for ring in (loop, clash, joined):
        assert _grading_or_message(ring) == universal_grading_oracle(ring)
    # random unital tensors with random duality bijections
    rng = np.random.default_rng(3)
    kinds = set()
    for _ in range(400):
        n = int(rng.integers(2, 7))
        tensor = (rng.random((n, n, n)) < rng.uniform(0.05, 0.5)) * rng.integers(1, 3, (n, n, n))
        tensor[0] = tensor[:, 0] = np.eye(n, dtype=np.int64)
        dual = [0, *(rng.permutation(n - 1) + 1).tolist()]
        ring = rings.FusionRing(tuple(map(str, range(n))), tensor, dual)
        want = universal_grading_oracle(ring)
        assert _grading_or_message(ring) == want
        kinds.add(want.split(" at ")[0].split(" (")[0] if isinstance(want, str) else "grading")
    assert {"empty product", "product", "grading"} <= kinds


def two_element_tensor(p, q):
    """The unital tensor with x^2 = p + q x (a based ring only when p = 1)."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0], N[1, 0, 1], N[1, 1] = np.eye(2, dtype=np.int64), 1, (p, q)
    return rings.FusionRing(("1", "x"), N, (0, 1))


def test_fp_dims_integer_check_beyond_int64_matches_python_ints():
    # N d reaches about 2^125: an int64 check wraps mod 2^64, where the first
    # candidate (1, 3 * 2^61) passes although x^2 = p + q x has no integer root
    for p, q in ((2**62, 3 * 2**61 + 2), (2**40, 2**40 - 1)):
        ring = two_element_tensor(p, q)
        got = rings.fp_dims(ring)
        d = round(got.dims[1])  # the candidate, as a Python int
        exact = d * d == p + q * d  # Python-int oracle of N d = d d
        assert got.exact == exact == (math.isqrt(q * q + 4 * p) ** 2 == q * q + 4 * p)
        if exact:
            assert got.dims == (1, d) and got.total == 1 + d * d


def dense_associativity_oracle(ring):
    """Every (x, a, y, w) with ((x a) y)_w != (x (a y))_w, from the two dense
    n^4 contractions."""
    N = ring.N
    left = np.tensordot(N, N, axes=([2], [0]))  # [x, a, y, w]
    right = np.tensordot(N, N, axes=([2], [1])).transpose(2, 0, 1, 3)  # [a, y, x, w] -> [x, a, y, w]
    return {tuple(q) for q in np.argwhere(left != right).tolist()}


def associativity_corpus():
    from fusionrings.bicross import split_fusion_ring
    from fusionrings.catalog import pair_cyclic_symmetric
    from fusionrings.doubles import double_modular_data, verlinde_fusion

    return [
        *(rep_ring(g) for g in (symmetric_group(3), symmetric_group(4), dihedral_group(4),
                                alternating_group(5), dihedral_group(6))),
        *(verlinde_fusion(double_modular_data(g)) for g in (symmetric_group(3), cyclic_group(3),
                                                            alternating_group(4))),
        rings.group_ring(dihedral_group(6)),
        rings.group_ring(cyclic_group(8)),
        split_fusion_ring(pair_cyclic_symmetric(5)),
    ]


def test_light_associativity_agrees_with_the_dense_oracle():
    """Perturb entries of the corpus rings in orbits of the transpose symmetry
    N[i, j, k] = N[j*, i*, k*], off the unit and the duality column, so that
    only associativity can fail: validate raises exactly when the dense
    oracle finds a failing quadruple, at one that fails by direct summation.
    Rep D4 is in the corpus because V.V = 1 + a + b + c: closure from the
    unit stalls there and more than one element is tested directly."""
    import random

    rng = random.Random(15)
    outcomes = {"passed": 0, "failed": 0}
    for ring in associativity_corpus():
        rings.validate(ring)
        assert not dense_associativity_oracle(ring)
        n, dual = ring.size, ring.dual
        for _ in range(40):
            tensor = ring.N.copy()
            for _ in range(rng.choice((1, 1, 2))):
                i, j, k = (rng.randrange(1, n) for _ in range(3))
                orbit = {(i, j, k), (dual[j], dual[i], dual[k])}
                delta = rng.choice((-1, 1, 2))
                if any(tensor[e] + delta < 0 for e in orbit):
                    delta = 1
                for e in orbit:
                    tensor[e] += delta
            bumped = rings.FusionRing(ring.labels, tensor, dual)
            failures = dense_associativity_oracle(bumped)
            if not failures:
                rings.validate(bumped)
                outcomes["passed"] += 1
                continue
            with pytest.raises(AxiomViolation) as err:
                rings.validate(bumped)
            assert err.value.axiom == "associativity"
            x, a, y, w = err.value.witness
            assert (x, a, y, w) in failures
            N = bumped.N.tolist()
            assert sum(N[x][a][k] * N[k][y][w] for k in range(n)) != sum(
                N[a][y][k] * N[x][k][w] for k in range(n)
            )
            outcomes["failed"] += 1
    assert min(outcomes.values()) > 0, outcomes
