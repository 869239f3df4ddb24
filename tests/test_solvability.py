"""Solvability verdicts with rule traces."""

import math
import random
from collections import Counter

import pytest

from fusionrings import rings
from fusionrings.bicross import split_fusion_ring, split_type
from fusionrings.catalog import (
    default_catalog,
    pair_cyclic_alternating,
    pair_cyclic_symmetric,
    pair_transposition_alternating,
)
from fusionrings.chartab import character_table, rep_g_fusion_ring
from fusionrings.errors import InvariantFailure
from fusionrings.perms import alternating_group, dihedral_group, symmetric_group
from fusionrings.solvability import NOT_SOLVABLE, SOLVABLE, UNKNOWN, solvability_verdict


def rep_ring(group):
    return rep_g_fusion_ring(character_table(group))


def test_trivial_ring_r1():
    from fusionrings.perms import cyclic_group

    v = solvability_verdict(rings.group_ring(cyclic_group(1)))
    assert v.verdict == SOLVABLE and v.fired_rule() == "R1"


def test_rep_a5_r2():
    v = solvability_verdict(rep_ring(alternating_group(5)))
    assert v.verdict == NOT_SOLVABLE and v.fired_rule() == "R2"


def test_group_ring_s3_r3():
    v = solvability_verdict(rings.group_ring(symmetric_group(3)))
    assert v.verdict == SOLVABLE and v.fired_rule() == "R3"


def test_rep_d6_r4():
    v = solvability_verdict(rep_ring(dihedral_group(6)))
    assert v.verdict == SOLVABLE and v.fired_rule() == "R4"


def test_rep_dn_all_solvable():
    for n in range(3, 13):
        v = solvability_verdict(rep_ring(dihedral_group(n)))
        assert v.verdict == SOLVABLE, n
        assert v.trace


def test_rep_s5_r5():
    v = solvability_verdict(rep_ring(symmetric_group(5)))
    assert v.verdict == NOT_SOLVABLE and v.fired_rule() == "R5"


def test_l5_r6():
    ring = split_fusion_ring(pair_cyclic_alternating(5).dual())
    v = solvability_verdict(ring)
    assert v.verdict == NOT_SOLVABLE and v.fired_rule() == "R6"


@pytest.mark.parametrize(
    "pair_fn",
    [
        lambda: pair_cyclic_symmetric(5),
        lambda: pair_cyclic_alternating(5),
        lambda: pair_cyclic_symmetric(5).dual(),
        lambda: pair_transposition_alternating(5),
    ],
    ids=["J5-like", "K5-like", "H5-like", "B5-like"],
)
def test_catalog_rule_r7(pair_fn):
    ring = split_fusion_ring(pair_fn())
    v = solvability_verdict(ring)
    assert v.verdict == NOT_SOLVABLE and v.fired_rule() == "R7"


def test_pointed_a5_r8():
    v = solvability_verdict(rings.group_ring(alternating_group(5)))
    assert v.verdict == NOT_SOLVABLE and v.fired_rule() == "R8"


def test_rep_s4_unknown():
    # solvable in truth, but no conservative ring-level rule certifies it
    v = solvability_verdict(rep_ring(symmetric_group(4)))
    assert v.verdict == UNKNOWN
    assert len(v.trace) == 9


def test_verdict_deterministic_and_relabeling_invariant():
    ring = rep_ring(symmetric_group(5))
    v1 = solvability_verdict(ring)
    v2 = solvability_verdict(ring)
    assert v1 == v2
    perm = [0] + random.Random(11).sample(range(1, ring.size), ring.size - 1)
    v3 = solvability_verdict(ring.relabel(perm))
    assert v3.verdict == v1.verdict and v3.trace == v1.trace


def test_traces_nonempty_and_ordered():
    v = solvability_verdict(rep_ring(symmetric_group(5)))
    assert [r for r, _, _ in v.trace] == ["R1", "R2", "R3", "R4", "R5"]


def test_catalog_rule_on_large_ring():
    # the 72-simple ring finds its own catalog twin through the prefilter
    k7_entry = next(e for e in default_catalog() if e.name == "Rep(k^A6 # kC7)")
    v = solvability_verdict(k7_entry.ring())
    assert v.verdict == NOT_SOLVABLE and v.fired_rule() == "R7"


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _symmetric_degrees(n):
    """The irreducible degrees of S_n, by the hook length formula."""
    degrees = []
    for shape in _partitions(n):
        columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        hooks = math.prod(
            shape[i] - j + columns[j] - i - 1 for i in range(len(shape)) for j in range(shape[i])
        )
        degrees.append(math.factorial(n) // hooks)
    return degrees


# the matched pair of each split catalog entry
SPLIT_PAIRS = {
    "Rep(k^S4 # kC5)": lambda: pair_cyclic_symmetric(5),
    "Rep(k^A4 # kC5)": lambda: pair_cyclic_alternating(5),
    "Rep(k^S6 # kC7)": lambda: pair_cyclic_symmetric(7),
    "Rep(k^A6 # kC7)": lambda: pair_cyclic_alternating(7),
    "Rep(k^C5 # kS4)": lambda: pair_cyclic_symmetric(5).dual(),
    "Rep(k^C5 # kA4)": lambda: pair_cyclic_alternating(5).dual(),
    "Rep(k^A5 # kC2)": lambda: pair_transposition_alternating(5),
    "Rep(k^C2 # kA5)": lambda: pair_transposition_alternating(5).dual(),
}


def test_catalog_signatures():
    """Every stored FPdim and type against a recomputation that builds no
    ring: |F||Gamma| and the orbit data of the pair for the split entries,
    n! and the hook length formula for Rep(S_n)."""
    stored = {e.name: (e.fpdim, e.type_signature()) for e in default_catalog()}
    expected = {}
    for name, pair_fn in SPLIT_PAIRS.items():
        pair = pair_fn()
        expected[name] = (pair.f.order * pair.gamma.order, split_type(pair))
    for n in (5, 6, 7):
        expected[f"Rep(S{n})"] = (math.factorial(n), tuple(sorted(Counter(_symmetric_degrees(n)).items())))
    assert stored == expected


def test_listing_the_catalog_builds_nothing(monkeypatch):
    """A fresh listing, with every FPdim and type read, builds no group,
    matched pair or character table."""
    from fusionrings import catalog, perms

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    from_generators = perms.PermGroup.from_generators.__func__
    monkeypatch.setattr(perms.PermGroup, "from_generators", classmethod(counting("from_generators", from_generators)))
    for name in ("character_table", "matched_pair_from_factorization"):
        monkeypatch.setattr(catalog, name, counting(name, getattr(catalog, name)))
    for name in ("pair_cyclic_symmetric", "pair_cyclic_alternating", "pair_transposition_alternating"):
        monkeypatch.setattr(catalog, name, getattr(catalog, name).__wrapped__)  # no cached pairs
    entries = catalog.default_catalog.__wrapped__()  # not the cached listing
    assert len({(e.name, e.fpdim, e.type_signature()) for e in entries}) == 11
    assert not calls


@pytest.mark.parametrize(
    "attribute, wrong, invariant",
    [("signature", ((1, 35), (5, 1)), "catalog_type"), ("fpdim", 61, "catalog_fpdim")],
)
def test_catalog_ring_checks_the_stored_invariants(monkeypatch, attribute, wrong, invariant):
    entry = next(e for e in default_catalog() if e.name == "Rep(k^A4 # kC5)")
    monkeypatch.setattr(entry, "_ring", None)
    monkeypatch.setattr(entry, attribute, wrong)
    with pytest.raises(InvariantFailure, match=invariant):
        entry.ring()
    assert entry._ring is None


def test_r4_builds_each_dihedral_reference_once(monkeypatch):
    from fusionrings import solvability

    ring = rep_ring(dihedral_group(6))
    built = []
    compute = solvability.character_table
    monkeypatch.setattr(solvability, "character_table", lambda g: built.append(g.order) or compute(g))
    solvability._dihedral_reference.cache_clear()
    for seed in (1, 2):
        perm = [0] + random.Random(seed).sample(range(1, ring.size), ring.size - 1)
        assert solvability_verdict(ring.relabel(perm)).fired_rule() == "R4"
    assert built == [12]


def test_group_objects_are_built_once_per_group(monkeypatch):
    # invertible and grading groups are built once, where their tables are
    # made, and passed on as CayleyGroups: when every table function wrapped
    # a bare table on each call, this pass built 19 of them, and 12 while
    # each call of invertibles and universal_grading recomputed its group
    from fusionrings import tables
    from fusionrings.equivalence import find_equivalence

    built = []
    init = tables.CayleyGroup.__init__

    def counting_init(self, table):
        built.append(len(table))
        init(self, table)

    j5 = split_fusion_ring(pair_cyclic_symmetric(5))
    perm = [0, *(random.Random(5).sample(range(1, j5.size), j5.size - 1))]
    other = j5.relabel(perm)
    monkeypatch.setattr(tables.CayleyGroup, "__init__", counting_init)
    assert find_equivalence(j5, other) is not None
    assert solvability_verdict(other).fired_rule() == "R7"
    assert len(built) == 6
