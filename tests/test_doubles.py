"""Drinfeld-double modular data: S/T matrices, Verlinde ring, centralizers,
Tannakian detection, central charge, S-equivalence."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from fusionrings import rings
from fusionrings.cyclo import Cyclotomic
from fusionrings.doubles import (
    NOT_SYMMETRIC,
    SUPER_TANNAKIAN_ONLY,
    TANNAKIAN,
    central_charge,
    central_charge_is_one,
    centralizer_subset,
    double_modular_data,
    is_tannakian_subset,
    mueger_center,
    pointed_labels,
    s_equivalence,
    verlinde_fusion,
)
from fusionrings.errors import SearchBudgetExceeded, SingularS
from fusionrings.perms import alternating_group, cyclic_group, symmetric_group


def commuting_pair_orbit_count(group):
    """Oracle: number of simultaneous-conjugation orbits on commuting pairs."""
    pairs = {
        (a, b)
        for a in group.elements
        for b in group.elements
        if a * b == b * a
    }
    seen = set()
    count = 0
    for p in sorted(pairs):
        if p in seen:
            continue
        count += 1
        for g in group.elements:
            gi = g.inverse()
            seen.add((gi * p[0] * g, gi * p[1] * g))
    return count


def test_double_s3_label_count_against_oracle():
    g = symmetric_group(3)
    md = double_modular_data(g)
    assert md.size == commuting_pair_orbit_count(g) == 8
    assert rings.type_signature(verlinde_fusion(md)) == ((1, 2), (2, 4), (3, 2))
    assert md.global_dim == 36


def test_double_a4_label_count_against_oracle():
    g = alternating_group(4)
    md = double_modular_data(g)
    assert md.size == commuting_pair_orbit_count(g)


def test_double_z2_pointed_of_order_four():
    md = double_modular_data(cyclic_group(2))
    ring = verlinde_fusion(md)
    assert rings.type_signature(ring) == ((1, 4),)
    assert rings.invertibles(ring).order == 4


def test_pointed_part_of_symmetric_doubles():
    for n in (3, 4, 5):
        md = double_modular_data(symmetric_group(n))
        pts = pointed_labels(md)
        assert len(pts) == 2
        # both labels sit at the identity class with a linear character
        for x in pts:
            assert md.labels[x].class_rep == md.group.identity


def test_pointed_part_of_a5_double_trivial():
    md = double_modular_data(alternating_group(5))
    assert pointed_labels(md) == (0,)


def test_sign_label_s_and_theta_are_one():
    for n in (3, 4, 5):
        md = double_modular_data(symmetric_group(n))
        sgn = pointed_labels(md)[1]
        assert md.S[sgn][sgn] == Cyclotomic.one()
        assert md.T[sgn] == Cyclotomic.one()
        assert is_tannakian_subset(md, pointed_labels(md)) == TANNAKIAN


def test_tannakian_of_unit():
    md = double_modular_data(symmetric_group(3))
    assert is_tannakian_subset(md, (0,)) == TANNAKIAN


def test_super_tannakian_subset_of_double_z4():
    md = double_modular_data(cyclic_group(4))
    minus_one = Cyclotomic.rational(-1)
    seeds = [x for x in range(md.size) if md.T[x] == minus_one]
    assert seeds
    verdict = is_tannakian_subset(md, (seeds[0],))
    assert verdict == SUPER_TANNAKIAN_ONLY


def test_not_symmetric_full_double():
    md = double_modular_data(symmetric_group(3))
    assert is_tannakian_subset(md, tuple(range(md.size))) == NOT_SYMMETRIC


def test_mueger_center_trivial():
    md = double_modular_data(symmetric_group(3))
    assert mueger_center(md) == (0,)


def test_centralizer_of_unit_is_everything():
    md = double_modular_data(symmetric_group(3))
    assert centralizer_subset(md, (0,)) == tuple(range(md.size))


def test_pointed_part_of_double_s4_centralizes_itself():
    md = double_modular_data(symmetric_group(4))
    pts = pointed_labels(md)
    cent = centralizer_subset(md, pts)
    assert set(pts) <= set(cent)


def test_central_charge_one():
    """tau+ = sum_x d_x^2 theta_x equals |G| exactly, on T's coordinates; the
    displayed float agrees."""
    for g in [symmetric_group(3), alternating_group(4), cyclic_group(1), cyclic_group(5)]:
        md = double_modular_data(g)
        assert central_charge_is_one(md)
        assert abs(central_charge(md) - 1) < 1e-9


def test_central_charge_certificate_rejects_a_wrong_twist():
    import dataclasses

    md = double_modular_data(symmetric_group(3))
    x = next(x for x, t in enumerate(md.T) if t != t.conjugate())  # a twist zeta_3^k, k = 1, 2
    flipped = list(md.T)
    flipped[x] = md.T[x].conjugate()
    assert not central_charge_is_one(dataclasses.replace(md, T=tuple(flipped)))
    assert not central_charge_is_one(dataclasses.replace(md, global_dim=md.global_dim + 1))


def test_s_equivalence_relabeled():
    md1 = double_modular_data(symmetric_group(3))
    md2 = double_modular_data(symmetric_group(3))
    f = s_equivalence(md1, md2)
    assert f is not None and f[0] == 0
    # centralizers transport through the witness on sampled subsets
    rng = random.Random(2)
    for _ in range(4):
        subset = tuple(sorted(rng.sample(range(md1.size), 3)))
        img = tuple(sorted(f[x] for x in centralizer_subset(md1, subset)))
        want = tuple(sorted(centralizer_subset(md2, tuple(f[x] for x in subset))))
        assert img == want
    # dims and duality preserved
    for x in range(md1.size):
        assert md1.dims[x] == md2.dims[f[x]]
        assert f[md1.charge_conjugation[x]] == md2.charge_conjugation[f[x]]


def test_s_equivalence_size_mismatch():
    md1 = double_modular_data(symmetric_group(3))
    md2 = double_modular_data(cyclic_group(6))
    assert s_equivalence(md1, md2) is None


def test_abelian_double_closed_form():
    # for abelian G the sum collapses: S[(a,chi),(b,psi)] = conj(chi(b) psi(a))
    from fusionrings.chartab import character_table

    g = cyclic_group(4)
    md = double_modular_data(g)
    t = character_table(g)

    def value(row, element):
        return t.chars[row][t.class_of[g.index_of(element)]]

    for xi, lx in enumerate(md.labels):
        for yi, ly in enumerate(md.labels):
            want = (value(lx.char_row, ly.class_rep) * value(ly.char_row, lx.class_rep)).conjugate()
            assert md.S[xi][yi] == want


def test_verlinde_refuses_modular_data_without_charge_conjugation():
    md = double_modular_data(symmetric_group(3))
    with pytest.raises(SingularS, match="no charge conjugation"):
        verlinde_fusion(dataclasses.replace(md, charge_conjugation=()))


def test_double_z4_fusion_is_z4_squared():
    from fusionrings import tables

    ring = verlinde_fusion(double_modular_data(cyclic_group(4)))
    inv = rings.invertibles(ring)
    assert inv.order == 16
    assert tables.abelian_invariants(inv.group) == (4, 4)


def test_identity_class_block_is_tannakian():
    # the labels over the identity class form the canonical symmetric copy of Rep G
    for grp in [symmetric_group(3), symmetric_group(4), alternating_group(4)]:
        md = double_modular_data(grp)
        ident = tuple(i for i, l in enumerate(md.labels) if l.class_rep == grp.identity)
        assert len(ident) == len(grp.conjugacy_classes())
        assert is_tannakian_subset(md, ident) == TANNAKIAN


def test_charge_conjugation_inverts_classes():
    md = double_modular_data(symmetric_group(4))
    for i in range(md.size):
        rep = md.labels[i].class_rep
        dual_rep = md.labels[md.charge_conjugation[i]].class_rep
        inverse_class = {p.inverse() * rep.inverse() * p for p in md.group.elements}
        assert dual_rep in inverse_class


def test_double_determinism():
    a = double_modular_data(symmetric_group(3))
    b = double_modular_data(symmetric_group(3))
    assert a.S == b.S and a.T == b.T and a.dims == b.dims


# -- the certified modular Verlinde kernel against independent checks


def verlinde_oracle(md):
    """Reference: the per-entry exact Verlinde sum
    N[x][y][z] = sum_t S[x][t] S[y][t] S[z*][t] / (d_t D) in Cyclotomic
    arithmetic, certified non-negative integral entry by entry.

    Each entry is evaluated once per orbit of its symmetry in (x, y, z*), and
    its terms are multiplied and added as exponent dictionaries over zeta_m
    with one Cyclotomic canonicalization per entry (per-term Cyclotomic
    operations make D(C6) alone about ten times slower)."""
    import itertools
    import math

    import numpy as np

    n, s, conj, dims = md.size, md.S, md.charge_conjugation, md.dims
    m = math.lcm(*(v.conductor for row in s for v in row))
    denom = md.global_dim * math.lcm(*dims)

    def integral(value):  # exponent -> int over zeta_m; S of a double is integral
        raw = {e * (m // value.conductor): c for e, c in value.coeffs.items()}
        assert all(c.denominator == 1 for c in raw.values())
        return {e: c.numerator for e, c in raw.items()}

    lifted = [[integral(v) for v in row] for row in s]
    out = np.zeros((n, n, n), dtype=np.int64)
    for x in range(n):
        for y in range(x, n):
            # w[t] = S[x][t] S[y][t] denom / (d_t D)
            w = [integral(s[x][t] * s[y][t] * (denom // (dims[t] * md.global_dim))) for t in range(n)]
            for v in range(y, n):
                raw = {}
                for t in range(n):
                    for e1, c1 in w[t].items():
                        for e2, c2 in lifted[v][t].items():
                            raw[e1 + e2] = raw.get(e1 + e2, 0) + c1 * c2
                q = (Cyclotomic(m, raw) / denom).rational_part()
                assert q is not None and q.denominator == 1 and q >= 0
                for a, b, c in itertools.permutations((x, y, v)):
                    out[a, b, conj[c]] = int(q)
    return out


def test_fusion_tensor_matches_the_cyclotomic_verlinde_sum():
    import numpy as np

    from fusionrings.doubles import _fusion_tensor
    from fusionrings.perms import dihedral_group

    for g in [cyclic_group(2), symmetric_group(3), alternating_group(4), cyclic_group(6), dihedral_group(4)]:
        md = double_modular_data(g)
        assert np.array_equal(_fusion_tensor(md), verlinde_oracle(md))


def test_exact_certificate_rejects_what_the_prime_cannot_see():
    """The certificate of the shared decomposition kernel, on a Verlinde, a
    Rep G and a split-ring system: a lifted tensor off by one and one shifted
    by the kernel's solving prime (the same residue there) are both rejected,
    by a certificate that starts at that prime."""
    from fusionrings.bicross import _split_system, matched_pair_from_factorization, split_irreps
    from fusionrings.chartab import character_table
    from fusionrings.cyclo import _echelon, _embeddings
    from fusionrings.doubles import _encoded
    from fusionrings.errors import NonIntegralMultiplicity
    from fusionrings.rings import _certify_decomposition, _decompose, _pointwise_system

    def images(system, m, above):
        return ((q, *system(q, E)) for q, E, _ in _embeddings(m, above))

    md = double_modular_data(symmetric_group(3))
    table = character_table(symmetric_group(4))
    k5 = matched_pair_from_factorization(
        alternating_group(5), cyclic_group(5, degree=5), alternating_group(4, degree=5)
    )
    irreps = split_irreps(k5)
    m, scale, A = _encoded(md)[0]
    cases = [
        (_pointwise_system(A, m, [scale * d for d in md.dims]), md.dims, (3, 4, 5)),
        (_pointwise_system(table.codes[table.index], table.m, [1] * table.num_classes), table.degrees, (3, 4, 2)),
        (_split_system(k5, irreps), [w.dim for w in irreps], (10, 11, 5)),
    ]
    for (system, m, bound), dims, entry in cases:
        # the solving prime: the first above 2**20 and 2 max(d)^2 at which X is invertible
        primes = images(system, m, max(2**20, 2 * max(d * d for d in dims)))
        p = next(q for q, X, _ in primes if len(_echelon(X[:, :, 0], q)[1]) == len(dims))
        good = _decompose(system, m, bound, dims)
        _certify_decomposition(images(system, m, p - 1), bound, good)
        for shift in (1, p):
            bad = good.copy()
            bad[entry] += shift
            with pytest.raises(NonIntegralMultiplicity):
                _certify_decomposition(images(system, m, p - 1), bound, bad)


def test_corrupted_s_fails_the_s_squared_certificate():
    import dataclasses

    import pytest

    from fusionrings.doubles import _certify_modular
    from fusionrings.errors import InvariantFailure

    md = double_modular_data(symmetric_group(3))
    s = [list(row) for row in md.S]
    s[2][5] = s[5][2] = s[2][5] + 1  # still symmetric, dimension row untouched
    bad = dataclasses.replace(md, S=tuple(tuple(row) for row in s))
    with pytest.raises(InvariantFailure) as err:
        _certify_modular(bad)
    assert err.value.name == "s_squared"


def _conjugated(group, cycle):
    """The same group rebuilt from a custom: spec of generators conjugated by a cycle."""
    from fusionrings.cli import parse_group_spec
    from fusionrings.perms import Permutation

    s = Permutation.from_cycles(group.degree, [cycle])
    gens = [s.inverse() * g * s for g in group.generators]
    return parse_group_spec(f"custom:{group.degree}:" + "|".join(g.cycle_string() for g in gens))


def test_larger_doubles_verlinde_and_sequiv():
    for g in [symmetric_group(4), alternating_group(5), symmetric_group(5)]:
        md = double_modular_data(g)
        ring = verlinde_fusion(md)  # rings.validate and the fp_dims check run inside
        assert rings.fp_dims(ring).total == md.global_dim
        other = double_modular_data(_conjugated(g, (0, 2, 3)))
        f = s_equivalence(md, other)
        assert f is not None and f[0] == 0


def permuted_double(md, perm, corrupt=None):
    """Copy of md with label x renamed to perm[x] (perm[0] == 0), built by
    permuting labels, S and T directly.  corrupt=(x, y, v) then sets the
    symmetric entry pair S[x][y] = S[y][x] = v; such a copy is not certified."""
    from fusionrings.doubles import ModularData, _certify_modular

    n = md.size
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    s = [[md.S[inv[x]][inv[y]] for y in range(n)] for x in range(n)]
    if corrupt is not None:
        x, y, v = corrupt
        s[x][y] = s[y][x] = v
    out = ModularData(
        group=md.group,
        labels=tuple(md.labels[inv[x]] for x in range(n)),
        S=tuple(map(tuple, s)),
        T=tuple(md.T[inv[x]] for x in range(n)),
        dims=tuple(md.dims[inv[x]] for x in range(n)),
        global_dim=md.global_dim,
        charge_conjugation=tuple(perm[md.charge_conjugation[inv[x]]] for x in range(n)),
    )
    if corrupt is None:
        assert _certify_modular(out) == out.charge_conjugation
    return out


def brute_s_equivalences(md1, md2):
    """Oracle: every unit-fixing bijection carrying S1 onto S2, by enumeration
    on the numeric values (only for doubles with few labels)."""
    s1 = np.array([[v.numeric() for v in row] for row in md1.S])
    s2 = np.array([[v.numeric() for v in row] for row in md2.S])
    perms = np.array([(0,) + rest for rest in itertools.permutations(range(1, md1.size))])
    found = set()
    for chunk in np.array_split(perms, max(1, len(perms) // 4096)):
        close = np.isclose(s2[chunk[:, :, None], chunk[:, None, :]], s1, atol=1e-9).all(axis=(1, 2))
        found.update(map(tuple, chunk[close].tolist()))
    return found


@pytest.mark.parametrize(
    "group, perm, witness, threshold",
    [
        # witnesses and node thresholds of the search before it was shared
        # with the ring search
        (symmetric_group(3), [0, 5, 3, 7, 1, 6, 2, 4], (0, 5, 3, 7, 1, 6, 2, 4), 11),
        (cyclic_group(3), [0, 4, 8, 2, 6, 1, 7, 3, 5], (0, 2, 7, 4, 6, 3, 8, 1, 5), 23),
    ],
    ids=["S3", "C3"],
)
def test_s_equivalence_against_brute_force(group, perm, witness, threshold):
    md = double_modular_data(group)
    other = permuted_double(md, perm)
    oracle = brute_s_equivalences(md, other)
    assert tuple(perm) in oracle
    f = s_equivalence(md, other, budget=threshold)
    assert f == witness and f in oracle and f != tuple(range(md.size))
    with pytest.raises(SearchBudgetExceeded):
        s_equivalence(md, other, budget=threshold - 1)
    x, y = 1, md.size - 1
    value = next(v for v in other.S[x] if v != other.S[x][y])  # already in S, elsewhere
    corrupted = permuted_double(md, perm, corrupt=(x, y, value))
    assert brute_s_equivalences(md, corrupted) == set()
    assert s_equivalence(md, corrupted) is None


def test_s_equivalence_budget_is_enforced():
    md = double_modular_data(symmetric_group(3))
    with pytest.raises(SearchBudgetExceeded):
        s_equivalence(md, permuted_double(md, [0, 5, 3, 7, 1, 6, 2, 4]), budget=1)


def test_s_equivalence_refutes_c4_against_klein_four():
    from fusionrings.perms import PermGroup, Permutation

    klein = PermGroup.from_generators(4, [Permutation.parse("(1 2)", 4), Permutation.parse("(3 4)", 4)])
    md1, md2 = double_modular_data(cyclic_group(4)), double_modular_data(klein)
    assert md1.size == md2.size == 16 and md1.global_dim == md2.global_dim
    assert s_equivalence(md1, md2) is None


@pytest.mark.parametrize("group", [symmetric_group(3), alternating_group(4), cyclic_group(6)], ids=["S3", "A4", "C6"])
def test_modular_layer_does_no_cyclotomic_arithmetic(group, monkeypatch):
    """The double, its certificate, the Verlinde ring, the centralizers and
    the S-equivalence search run on coordinate arrays; Cyclotomics are only
    constructed, compared and hashed."""
    def refuse(*args):
        raise AssertionError("Cyclotomic arithmetic in the modular-data layer")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "inverse", "conjugate"):
        monkeypatch.setattr(Cyclotomic, name, refuse)
    md = double_modular_data(group)
    other = double_modular_data(_conjugated(group, (0, 2, 1)))
    assert rings.fp_dims(verlinde_fusion(md)).total == md.global_dim
    assert s_equivalence(md, other)[0] == 0
    assert centralizer_subset(md, (0,)) == tuple(range(md.size))
    assert centralizer_subset(md, range(md.size)) == (0,)  # the Mueger centre of a double
    assert is_tannakian_subset(md, tuple(x for x, l in enumerate(md.labels) if l.class_rep == group.identity)) == TANNAKIAN
    with pytest.raises(AssertionError, match="Cyclotomic arithmetic"):
        md.S[1][1] * md.S[1][1]


def test_double_of_a7_holds_no_phi_squared_array():
    """D(A7): 74 labels at M = 420, phi(M) = 96.  The S block and the S^2
    certificate hold labels^2 phi(M) arrays of images, so the traced peak
    stays under 200 MB; one (labels phi(M))^2 int64 array would be 385 MB."""
    import tracemalloc

    group = alternating_group(7)
    tracemalloc.start()
    try:
        md = double_modular_data(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert md.size == 74
    assert peak < 200 * 2**20, f"peak {peak / 2**20:.0f} MB"


@pytest.mark.parametrize("group", [symmetric_group(3), alternating_group(4), cyclic_group(6), alternating_group(5)],
                         ids=["S3", "A4", "C6", "A5"])
def test_encodings_set_by_their_makers_match_the_values(group):
    """The double and the document reader set the S and T encoding from the
    integral forms they hold; it is the one the Cyclotomic entries give,
    value for value and dtype for dtype."""
    from fusionrings import docs
    from fusionrings.cyclo import _coordinates

    md = double_modular_data(group)
    text = docs.dumps(docs.document("modulardata", docs.modular_payload(md)))
    loaded = docs.modular_from_payload(docs.loads(text)["payload"])
    mt, lt, T = _coordinates([md.T])
    want = (_coordinates(md.S), (mt, lt, T[0]))
    for got in (md._encoding, loaded._encoding):
        for (m, scale, A), (m0, scale0, A0) in zip(got, want):
            assert (m, scale, A.dtype) == (m0, scale0, A0.dtype) and np.array_equal(A, A0)
    assert loaded.S == md.S and loaded.T == md.T
