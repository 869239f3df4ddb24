"""Permutation-group machinery against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from fusionrings import perms, tables
from fusionrings.errors import ClosureTooLarge, DegreeTooLarge
from fusionrings.perms import (
    MAX_DEGREE,
    GroupAction,
    Permutation,
    PermGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    _row_keys,
    structure_invariants,
    symmetric_group,
)


def brute_closure(degree, gens):
    """Independent closure oracle on raw image tuples."""
    idn = tuple(range(degree))
    els = {idn}
    frontier = [idn]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = tuple(g[x] for x in a)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def test_composition_convention():
    f = Permutation.parse("(1 2)", 3)
    g = Permutation.parse("(2 3)", 3)
    # (f*g)(x) = g(f(x)): 0 -> f 1 -> g 2
    assert (f * g)(0) == 2
    assert (f * g).images == (2, 0, 1)


def test_parse_and_print_roundtrip():
    for s in ["(1 2 3)(4 5)", "(1 5)", "()"]:
        p = Permutation.parse(s, 5)
        assert Permutation.parse(p.cycle_string(), 5) == p


def test_group_from_generators_s3():
    g = PermGroup.from_generators(3, [Permutation.parse("(1 2)", 3), Permutation.parse("(1 2 3)", 3)])
    assert g.order == 6


def test_group_from_generators_c5():
    g = PermGroup.from_generators(5, [Permutation.parse("(1 2 3 4 5)", 5)])
    assert g.order == 5


def test_group_from_generators_a5_matches_brute_force():
    gens = [Permutation.parse("(1 2 3)", 5), Permutation.parse("(1 2 3 4 5)", 5)]
    g = PermGroup.from_generators(5, gens)
    oracle = brute_closure(5, [p.images for p in gens])
    assert g.order == len(oracle) == 60
    assert {p.images for p in g.elements} == oracle


@pytest.mark.parametrize(
    "degree, gens",
    [
        (0, []),
        (0, [Permutation.identity(0)]),
        (1, []),
        (1, [Permutation.identity(1)]),
        (20, [Permutation.from_cycles(20, [tuple(range(20))])]),  # C20
        (20, [Permutation.from_cycles(20, [(2 * i, 2 * i + 1)]) for i in range(5)]),  # C2^5
        (120, [Permutation.from_cycles(120, [tuple(range(120))])]),  # C120
        # D15 and D16 with the reversal, the largest row, on each side of int64 keys
        (15, [Permutation.from_cycles(15, [tuple(range(15))]), Permutation(range(14, -1, -1))]),
        (16, [Permutation.from_cycles(16, [tuple(range(16))]), Permutation(range(15, -1, -1))]),
    ],
)
def test_closure_matches_brute_force_at_every_degree(degree, gens):
    g = PermGroup.from_generators(degree, gens)
    oracle = brute_closure(degree, [p.images for p in gens])
    assert [tuple(row) for row in g.images.tolist()] == sorted(oracle)
    assert g.gens == tuple(sorted(oracle).index(p.images) for p in gens)


@pytest.mark.parametrize("degree", [15, 20, 300])
def test_key_order_is_lexicographic_order(degree):
    rng = np.random.default_rng(degree)
    rows = rng.integers(0, degree, size=(2000, degree))
    rows[1000:, : degree // 2] = rows[:1000, : degree // 2]  # long shared prefixes
    keys = _row_keys(rows)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))


@pytest.mark.parametrize(
    "group, outsider",
    [
        (alternating_group(5), "(1 2)"),
        (cyclic_group(5), "(1 5)(2 4)"),  # above every element
        (cyclic_group(16), "(1 2)"),
        (cyclic_group(16), "(1 16)(2 15)(3 14)(4 13)(5 12)(6 11)(7 10)(8 9)"),  # above every element
    ],
)
def test_lookups_refuse_non_members_and_other_degrees(group, outsider):
    n = group.degree
    g = Permutation.parse(outsider, n)
    with pytest.raises(KeyError):
        group.index_of(g)
    with pytest.raises(KeyError):
        group.index_rows([group.images[0], g.images])
    for other in (Permutation.identity(n - 1), Permutation.identity(n + 1)):
        with pytest.raises(KeyError):
            group.index_of(other)
        with pytest.raises(KeyError):
            group.index_rows([other.images])
    assert group.index_rows(group.images[::-1]).tolist() == list(range(group.order))[::-1]


def test_symmetric_group_7_index_stays_small():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = symmetric_group(7)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert group.order == 5040 and retained < 600_000


@pytest.mark.parametrize(
    "text, images",
    [
        ("", (0, 1, 2, 3)),
        ("()", (0, 1, 2, 3)),
        ("e", (0, 1, 2, 3)),
        ("(1 2)(3 4)", (1, 0, 3, 2)),
        (" (1,2) ( 3 , 4 ) ", (1, 0, 3, 2)),
        ("(1 2 3)()", (1, 2, 0, 3)),
    ],
)
def test_parse_accepts_cycle_notation(text, images):
    assert Permutation.parse(text, 4).images == images


@pytest.mark.parametrize("text", ["(1 2", "1 2)", "(1 2) junk", "(1 2)x(3 4)", "(1 2)(3 4", "((1 2))", "(1 -2)", "x"])
def test_parse_refuses_anything_else(text):
    with pytest.raises(ValueError, match="not cycle notation"):
        Permutation.parse(text, 4)


def test_degree_is_bounded_before_anything_is_allocated():
    for build in (lambda d: Permutation.parse("(1 2)", d), lambda d: PermGroup.from_generators(d, [])):
        with pytest.raises(ValueError, match="negative degree -1"):
            build(-1)
        with pytest.raises(DegreeTooLarge, match=f"^degree 99999999999 exceeds bound {MAX_DEGREE}$"):
            build(99_999_999_999)
    assert PermGroup.from_generators(MAX_DEGREE, [Permutation.parse("(1 2)", MAX_DEGREE)]).order == 2


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(perms, "DEFAULT_CLOSURE_CAP", 100)
    with pytest.raises(ClosureTooLarge):
        PermGroup.from_generators(6, symmetric_group(6).generators)


def test_closure_cap_boundary(monkeypatch):
    gens = symmetric_group(4).generators
    monkeypatch.setattr(perms, "DEFAULT_CLOSURE_CAP", 24)
    assert PermGroup.from_generators(4, gens).order == 24
    monkeypatch.setattr(perms, "DEFAULT_CLOSURE_CAP", 23)
    with pytest.raises(ClosureTooLarge, match=r"^closure exceeds cap 23: reached 24 elements from 2 generators$"):
        PermGroup.from_generators(4, gens)


def test_elements_are_sorted_lexicographically():
    g = symmetric_group(4)
    assert list(g.elements) == sorted(g.elements, key=lambda p: p.images)
    assert g.elements[0] == g.identity


def test_named_families():
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert alternating_group(6).order == 360
    assert cyclic_group(7).order == 7
    for n in range(3, 13):
        assert dihedral_group(n).order == 2 * n


def test_conjugacy_classes_s3():
    cls = symmetric_group(3).conjugacy_classes()
    assert sorted(len(m) for _, m in cls) == [1, 2, 3]


def test_conjugacy_classes_c5_all_singletons():
    cls = cyclic_group(5).conjugacy_classes()
    assert [len(m) for _, m in cls] == [1] * 5


def test_conjugacy_classes_s4_oracle():
    g = symmetric_group(4)
    # oracle: full conjugation orbit per element
    seen = set()
    classes = []
    for x in g.elements:
        if x in seen:
            continue
        orb = frozenset(p.inverse() * x * p for p in g.elements)
        seen |= orb
        classes.append(orb)
    assert len(classes) == 5
    assert len(g.conjugacy_classes()) == 5
    got = {frozenset(m) for _, m in g.conjugacy_classes()}
    assert got == set(classes)


def test_class_sizes_divide_group_order():
    for g in [symmetric_group(4), alternating_group(5), dihedral_group(6)]:
        sizes = [len(m) for _, m in g.conjugacy_classes()]
        assert sum(sizes) == g.order
        assert all(g.order % s == 0 for s in sizes)


def test_centralizer_a5_transposition():
    g = alternating_group(5)
    c = g.centralizer_of(Permutation.parse("(1 2)", 5))
    assert c.order == 6 and not c.is_abelian()


def test_centralizer_a6_transposition():
    g = alternating_group(6)
    c = g.centralizer_of(Permutation.parse("(1 2)", 6))
    assert c.order == 24


def test_centralizer_identity():
    g = symmetric_group(3)
    assert g.centralizer_of(g.identity) == g


def test_trivial_action_orbits():
    g = cyclic_group(3)
    act = GroupAction.from_function(g, ["a", "b", "c", "d"], lambda p, x: x)
    orbs = act.orbits()
    assert [len(o.members) for o in orbs] == [1, 1, 1, 1]
    assert all(o.stabilizer.order == g.order for o in orbs)


def test_orbit_stabilizer_identity():
    g = symmetric_group(4)
    # with right-composition products, point evaluation by the inverse is a left action
    act = GroupAction.from_function(g, list(range(4)), lambda p, x: p.inverse()(x))
    orbs = act.orbits()
    assert sum(len(o.members) for o in orbs) == 4
    for o in orbs:
        assert len(o.members) * o.stabilizer.order == g.order
        assert g.order % o.stabilizer.order == 0


def test_orbits_share_one_stabilizer_per_fixer_set():
    g = symmetric_group(3)
    domain = [(x, copy) for copy in range(2) for x in range(3)] + ["u", "v"]
    act = GroupAction.from_function(
        g, domain, lambda p, y: y if isinstance(y, str) else (p.inverse()(y[0]), y[1])
    )
    orbs = act.orbits()
    assert [o.representative for o in orbs] == ["u", "v", (0, 0), (0, 1)]
    assert orbs[0].stabilizer is orbs[1].stabilizer and orbs[2].stabilizer is orbs[3].stabilizer
    for o in orbs:
        at = domain.index(o.representative)
        assert list(o.stabilizer.elements) == [h for k, h in enumerate(g.elements) if act.table[k, at] == at]


def test_structure_invariants_s5():
    inv = structure_invariants(symmetric_group(5))
    assert inv.center.order == 1
    assert inv.abelianization_type == (2,)
    assert not inv.is_solvable
    assert inv.commutator_subgroup.order == 60


def test_structure_invariants_c6():
    inv = structure_invariants(cyclic_group(6))
    assert inv.center.order == 6
    assert inv.is_solvable and inv.is_nilpotent
    assert inv.abelianization_type == (6,)


def test_structure_invariants_a4():
    inv = structure_invariants(alternating_group(4))
    assert inv.abelianization_type == (3,)
    assert inv.is_solvable and not inv.is_nilpotent


def test_solvability_matches_derived_series_oracle():
    for g in [symmetric_group(3), symmetric_group(4), alternating_group(4), dihedral_group(6), alternating_group(5)]:
        # oracle: repeatedly take full commutator sets
        els = set(g.elements)
        while True:
            comms = {a.inverse() * b.inverse() * a * b for a in els for b in els}
            sub = brute_closure(g.degree, [c.images for c in comms])
            sub = {Permutation(im) for im in sub}
            if sub == els:
                break
            els = sub
        oracle_solvable = len(els) == 1
        assert g.is_solvable() == oracle_solvable


def test_quotient_and_abelian_invariants():
    g = symmetric_group(4)
    v4 = g.subgroup([Permutation.parse("(1 2)(3 4)", 4), Permutation.parse("(1 3)(2 4)", 4)])
    quotient, _ = g.quotient_table(v4)
    assert quotient.order == 6
    assert tables.iso_name(quotient) == "D3"


def test_lagrange_for_stabilizers_and_centralizers():
    g = alternating_group(5)
    for rep, _ in g.conjugacy_classes():
        assert g.order % g.centralizer_of(rep).order == 0


def test_degree_zero_group_is_trivial():
    g = PermGroup.from_generators(0, [])
    assert g.order == 1 and g.elements == (Permutation.identity(0),)
    assert [len(m) for _, m in g.conjugacy_classes()] == [1]


def test_cayley_group_rejects_tables_that_are_not_groups():
    with pytest.raises(ValueError, match="not a Cayley table"):
        tables.CayleyGroup([[0, 1], [1]])  # ragged
    with pytest.raises(ValueError, match="not a Cayley table"):
        tables.CayleyGroup([[0, 1], [1, 1]])  # the second row is not a permutation
    with pytest.raises(ValueError, match="table has no identity"):
        tables.CayleyGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]])  # x*y = -x-y mod 3
    g = tables.CayleyGroup([[0, 1], [1, 0]])
    assert (g.order, g.unit, g.inv.tolist()) == (2, 0, [0, 1])
