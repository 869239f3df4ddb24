"""Character tables against orthogonality oracles and known degree multisets."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrings import chartab, docs, rings
from fusionrings.chartab import character_table, rep_g_fusion_ring
from fusionrings.cli import parse_group_spec
from fusionrings.cyclo import Cyclotomic, root_of_unity
from fusionrings.perms import (
    PermGroup,
    Permutation,
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)


def inner_product(table, a, b):
    """(1/|G|) sum over classes of size * a_j * conj(b_j), in exact
    Cyclotomic arithmetic."""
    acc = Cyclotomic.zero()
    for j, (_, size) in enumerate(table.classes):
        acc = acc + a[j] * b[j].conjugate() * size
    return acc / table.group.order


def column_orthogonality_holds(t):
    r = t.num_classes
    for a in range(r):
        for b in range(r):
            acc = Cyclotomic.zero()
            for i in range(r):
                acc = acc + t.chars[i][a] * t.chars[i][b].conjugate()
            cent = t.group.order // t.classes[a][1]
            want = cent if a == b else 0
            if acc != Cyclotomic.rational(want):
                return False
    return True


def test_trivial_group():
    t = character_table(PermGroup.from_generators(1, []))
    assert t.degrees == (1,)
    assert t.chars[0][0] == Cyclotomic.one()


def test_s3_degrees():
    t = character_table(symmetric_group(3))
    assert sorted(t.degrees) == [1, 1, 2]
    assert t.degrees[0] == 1 and all(v == Cyclotomic.one() for v in t.chars[0])
    assert column_orthogonality_holds(t)


def test_s4_degrees():
    t = character_table(symmetric_group(4))
    assert sorted(t.degrees) == [1, 1, 2, 3, 3]
    assert column_orthogonality_holds(t)


def test_a4_degrees():
    t = character_table(alternating_group(4))
    assert sorted(t.degrees) == [1, 1, 1, 3]
    assert column_orthogonality_holds(t)


def test_a5_table_golden_values():
    t = character_table(alternating_group(5))
    assert sorted(t.degrees) == [1, 3, 3, 4, 5]
    assert column_orthogonality_holds(t)
    golden = Cyclotomic.one() + root_of_unity(5) + root_of_unity(5, 4)
    golden2 = Cyclotomic.one() + root_of_unity(5, 2) + root_of_unity(5, 3)
    five_cycle_cols = [j for j, (rep, _) in enumerate(t.classes) if rep.order() == 5]
    assert len(five_cycle_cols) == 2
    deg3_rows = [i for i, d in enumerate(t.degrees) if d == 3]
    vals = {t.chars[i][j] for i in deg3_rows for j in five_cycle_cols}
    assert vals == {golden, golden2}


def test_exponent_and_value_field():
    t = character_table(alternating_group(5))
    assert t.exponent == 30
    for row in t.chars:
        for v in row:
            assert t.exponent % v.conductor == 0


def test_determinism():
    t1 = character_table(symmetric_group(4))
    t2 = character_table(symmetric_group(4))
    assert t1.degrees == t2.degrees and t1.chars == t2.chars
    assert t1.dixon_prime == t2.dixon_prime


def test_inner_product_orthonormality():
    t = character_table(symmetric_group(3))
    for i in range(3):
        for k in range(3):
            ip = inner_product(t, t.chars[i], t.chars[k])
            assert ip == (Cyclotomic.one() if i == k else Cyclotomic.zero())


def test_inner_product_v_tensor_v_contains_trivial_once():
    t = character_table(symmetric_group(3))
    v = t.chars[t.degrees.index(2)]
    prod = [v[j] * v[j] for j in range(3)]
    assert inner_product(t, prod, t.chars[0]) == Cyclotomic.one()


def test_rep_ring_s3_v_squared():
    t = character_table(symmetric_group(3))
    ring = rep_g_fusion_ring(t)
    rings.validate(ring)
    v = t.degrees.index(2)
    sgn = next(i for i in (1, 2) if t.degrees[i] == 1 and i != 0)
    assert ring.support(v, v) == tuple(sorted((0, sgn, v)))
    assert all(ring.N[v, v, k] == 1 for k in ring.support(v, v))


def test_rep_ring_s4_type():
    ring = rep_g_fusion_ring(character_table(symmetric_group(4)))
    assert rings.type_signature(ring) == ((1, 2), (2, 1), (3, 2))


def test_rep_ring_d5_type():
    ring = rep_g_fusion_ring(character_table(dihedral_group(5)))
    assert rings.type_signature(ring) == ((1, 2), (2, 2))


def test_rep_ring_dims_match_degrees():
    t = character_table(alternating_group(5))
    ring = rep_g_fusion_ring(t)
    dims = rings.fp_dims(ring)
    assert dims.exact and dims.dims == t.degrees
    assert dims.total == 60


def test_rep_ring_abelian_group_is_pointed():
    ring = rep_g_fusion_ring(character_table(cyclic_group(6)))
    inv = rings.invertibles(ring)
    assert inv.order == 6
    assert inv.name == "C6"


def rep_ring_oracle(table):
    """N[x][y][z] = <chi_x chi_y, chi_z>, one exact inner product per entry."""
    r = table.num_classes
    chars = table.chars
    tensor = [[[None] * r for _ in range(r)] for _ in range(r)]
    for x in range(r):
        for y in range(r):
            prod = [a * b for a, b in zip(chars[x], chars[y])]
            for z in range(r):
                q = inner_product(table, prod, chars[z]).rational_part()
                assert q is not None and q.denominator == 1 and q >= 0
                tensor[x][y][z] = int(q)
    dual = tuple(chars.index(tuple(v.conjugate() for v in row)) for row in chars)
    return tensor, dual


@pytest.mark.parametrize(
    "group",
    [
        alternating_group(5),
        alternating_group(7),
        cyclic_group(8),
        dihedral_group(7),
        PermGroup.from_generators(
            7, [Permutation.parse("(1 2 3 4 5 6 7)", 7), Permutation.parse("(2 3 5)(4 7 6)", 7)]
        ),
        PermGroup.from_generators(
            7, [Permutation.parse("(1 2 3 4 5 6 7)", 7), Permutation.parse("(1 2)(3 6)", 7)]
        ),
    ],
    ids=["A5", "A7", "C8", "D7", "F21", "PSL(3,2)"],
)
def test_rep_ring_matches_the_inner_product_oracle(group):
    table = character_table(group)
    assert any(v.conductor > 2 for row in table.chars for v in row)  # irrational values
    ring = rep_g_fusion_ring(table)
    tensor, dual = rep_ring_oracle(table)
    assert ring.N.tolist() == tensor
    assert ring.dual == dual


def test_rep_ring_does_no_cyclotomic_arithmetic(monkeypatch):
    table = character_table(alternating_group(5))
    want = rep_ring_oracle(table)[0]

    def forbidden(*args):
        raise AssertionError("cyclotomic arithmetic in rep_g_fusion_ring")

    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
               "inverse", "conjugate", "galois"):
        monkeypatch.setattr(Cyclotomic, op, forbidden)
    assert rep_g_fusion_ring(table).N.tolist() == want


def test_certify_rejects_broken_tables_with_the_same_messages():
    import dataclasses

    from fusionrings.chartab import _certify
    from fusionrings.errors import LiftFailure

    table = character_table(alternating_group(5))
    chars = [list(row) for row in table.chars]
    index = table.index.copy()
    # swap the sqrt(5) values in one column, in the values and in the encoding _certify reads
    chars[1][1], chars[2][1] = chars[2][1], chars[1][1]
    index[[1, 2], 1] = index[[2, 1], 1]
    with pytest.raises(LiftFailure, match=r"row orthogonality failed at \(0,1\)"):
        _certify(dataclasses.replace(table, chars=tuple(map(tuple, chars)), index=index))
    degrees = (1, 3, 3, 5, 4)
    with pytest.raises(LiftFailure, match="degree column mismatch"):
        _certify(dataclasses.replace(table, degrees=degrees))


# sha256 of the canonical chartab payload (docs.dumps) and the Dixon prime,
# recorded before the table moved onto F_p arrays
PINNED_TABLES = [
    ("C60", "C60", 61, "40676672b71db1ba336c7c1007102f1123d6d8efe60d85809e359875ec95e551"),
    ("C12", "C12", 13, "1e56195309a21fb17ef79e141f98ce4ad6985970a97306af95b841fd087cd537"),
    ("Q8", "custom:8:(1 2 3 4)(5 6 7 8)|(1 5 3 7)(2 8 4 6)", 13,
     "68eab9ef66b84c819af49ee5befe0c2b7bf50204ef0a4108f8a274b96af40117"),
    ("F21", "custom:7:(1 2 3 4 5 6 7)|(2 3 5)(4 7 6)", 127,
     "7673a4a4ed70484bb0872198b66f15bd0aa9cc126154e56606d6cc6da6f53a37"),
    ("PSL(2,7)", "custom:8:(1 2 3 4 5 6 7)|(2 3 5)(4 7 6)|(1 8)(2 7)(3 4)(5 6)", 1429,
     "dcf0163c1c00ec0d2da10e697567b2d6819bee08331110dbbb23c16d59e9b2b2"),
    ("AGL(1,8)", "custom:8:(1 2)(3 4)(5 6)(7 8)|(2 3 5 4 7 8 6)", 127,
     "d5b55fc9c166400d1e25f05b7066a132e760dd536b2e5a2b99d16c6a8dae71ef"),
    ("A5 conjugated", "custom:5:(2 5 4)|(3 1 5 2 4)", 331,
     "2a9db3cb071ff67b4ba08c92c4a6bd78eebd5fe2bb640be08d670888ec71bf5c"),
    ("F21 conjugated", "custom:7:(3 6 1 5 2 7 4)|(6 1 2)(5 4 7)", 127,
     "8ba87829fa72fab993a17f9d9ac32f9172c69d158d73666b335b17e523a6226e"),
]


@pytest.mark.parametrize("spec, prime, digest", [case[1:] for case in PINNED_TABLES],
                         ids=[case[0] for case in PINNED_TABLES])
def test_chartab_payloads_are_pinned(spec, prime, digest):
    table = character_table(parse_group_spec(spec))
    assert table.dixon_prime == prime
    assert hashlib.sha256(docs.dumps(docs.chartab_payload(table)).encode()).hexdigest() == digest


# -- abelian groups: the closed form against the refinement


def abelian_group(orders, words, relabel):
    """The direct product of cyclic groups of the given orders, each on its
    own points, generated by the elements with exponent vectors ``words``
    and conjugated by the point permutation ``relabel``."""
    offsets = np.cumsum([0] + orders).tolist()
    degree = max(offsets[-1], 1)  # C1 fixes one point
    gens = []
    for word in words:
        images = [offsets[i] + (x - offsets[i] + a) % k for i, (k, a) in enumerate(zip(orders, word))
                  for x in range(offsets[i], offsets[i + 1])] or [0]
        moved = [0] * degree
        for x, y in enumerate(images):
            moved[relabel[x]] = relabel[y]
        gens.append(Permutation(moved))
    return PermGroup.from_generators(degree, gens)


@st.composite
def abelian_groups(draw):
    """(orders, words, relabel) for :func:`abelian_group`: cyclic factors of
    order up to 8 with a product up to 32, generated by the factors' own
    cycles and up to three products of them, in any order."""
    orders = []
    while len(orders) < 4 and draw(st.booleans()):
        k = draw(st.sampled_from([2, 3, 4, 5, 6, 8]))
        if np.prod(orders + [k]) <= 32:
            orders.append(k)
    words = [tuple(int(i == j) for j in range(len(orders))) for i in range(len(orders))]
    for _ in range(draw(st.integers(0, 3))):
        words.append(tuple(draw(st.integers(0, k - 1)) for k in orders))
    words = draw(st.permutations(words)) if words else [()]
    return orders, words, draw(st.permutations(range(max(sum(orders), 1))))


def refined_lines(group, reps, exponent, p, z_e):
    """The eigenlines of the class-matrix refinement, in the place of the
    closed form."""
    r = group.order
    class_of = group.class_index_map()
    powers = chartab._powers(group, reps)
    orders = np.argmax(powers[1:] == group.unit, axis=0) + 1
    members = np.argsort(class_of, kind="stable")
    return chartab._common_eigenlines(group, class_of, members, np.arange(r), np.ones(r, dtype=np.int64),
                                      orders, class_of[powers], p)


C2_TO_THE_7 = ([2] * 7, [tuple(int(i == j) for j in range(7)) for i in range(7)], list(range(14)))
# C2 x C64 on 66 points, given by seven generators, five of them redundant
C2_C64 = ([2, 64], [(0, 2), (1, 1), (1, 0), (0, 32), (1, 3), (0, 1), (1, 63)], list(range(65, -1, -1)))


def no_refinement(*args):
    raise AssertionError("class-matrix refinement of an abelian group")


@settings(max_examples=20, deadline=None)
@given(abelian_groups())
@example(([], [()], [0]))  # C1
@example(C2_TO_THE_7)
@example(C2_C64)
def test_abelian_tables_match_the_refinement(case):
    """Field by field, the closed form of an abelian table, which never
    refines class matrices, is the table that the refinement gives."""
    group = abelian_group(*case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chartab, "_common_eigenlines", no_refinement)
        closed = character_table(group)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chartab, "_linear_characters", refined_lines)
        refined = character_table(group)
    assert closed.num_classes == group.order
    for name in ("classes", "degrees", "chars", "dixon_prime", "m", "exponent"):
        assert getattr(closed, name) == getattr(refined, name), name
    for name in ("codes", "index", "class_of"):
        a, b = getattr(closed, name), getattr(refined, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_abelian_tables_skip_the_refinement(monkeypatch):
    """No abelian table refines class matrices; every other table does."""
    monkeypatch.setattr(chartab, "_common_eigenlines", no_refinement)
    c2_cubed = ([2, 2, 2], [(1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)], [5, 3, 1, 0, 2, 4])
    for case in (([], [()], [0]), ([3, 4], [(1, 0), (0, 1)], [6, 0, 5, 1, 4, 2, 3]), c2_cubed):
        table = character_table(abelian_group(*case))
        assert table.degrees == (1,) * table.num_classes
    with pytest.raises(AssertionError, match="refinement"):
        character_table(symmetric_group(3))
