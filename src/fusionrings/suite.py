"""The bundled acceptance battery: every reference computation the library is
expected to reproduce, each with its stated tolerance and time budget.

`run_suite` prints one pass/fail line per criterion; the CLI exposes it as the
`paper-suite` subcommand and the test suite drives the same functions.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rings, tables
from .bicross import (
    dual_invertibles,
    equivariantization_type,
    split_fusion_ring,
    split_type,
)
from .catalog import (
    pair_cyclic_alternating,
    pair_cyclic_symmetric,
    pair_transposition_alternating,
)
from .chartab import character_table, rep_g_fusion_ring
from .cyclo import Cyclotomic, root_of_unity
from .doubles import (
    TANNAKIAN,
    central_charge_is_one,
    double_modular_data,
    is_tannakian_subset,
    pointed_labels,
    verlinde_fusion,
)
from .equivalence import find_equivalence, verify_properties
from .perms import (
    GroupAction,
    Permutation,
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    structure_invariants,
    symmetric_group,
)
from .solvability import NOT_SOLVABLE, SOLVABLE, solvability_verdict


@dataclass
class CriterionResult:
    number: int
    description: str
    passed: bool
    detail: str
    elapsed: float


_ctx = {}


def _get(key, builder):
    if key not in _ctx:
        _ctx[key] = builder()
    return _ctx[key]


def _k5_ring():
    return _get("k5", lambda: split_fusion_ring(pair_cyclic_alternating(5)))


def _j5_ring():
    return _get("j5", lambda: split_fusion_ring(pair_cyclic_symmetric(5)))


def _rep_ring(group):
    return rep_g_fusion_ring(character_table(group))


def _double(key, group_fn):
    return _get(f"double_{key}", lambda: double_modular_data(group_fn()))


def criterion_1():
    """K5 reproduction: type, invertibles, exact fusion rules."""
    mp = pair_cyclic_alternating(5)
    assert split_type(mp) == ((1, 10), (5, 2)), "type mismatch"
    ring = _k5_ring()
    inv = rings.invertibles(ring)
    assert inv.order == 10 and inv.name == "D5", f"invertibles {inv.name}"
    dims = rings.fp_dims(ring).dims
    y, y2 = [i for i, d in enumerate(dims) if d == 5]
    orders = {}
    for g in inv.indices:
        k, x = 1, g
        while x != 0:
            x = ring.support(x, g)[0]
            k += 1
        orders[g] = k
    r_sub = [g for g in inv.indices if orders[g] in (1, 5)]
    two = [g for g in inv.indices if orders[g] == 2]
    assert len(r_sub) == 5 and len(two) == 5
    for g in two:
        assert ring.support(g, y) == (y2,) and ring.support(y, g) == (y2,)
        assert ring.support(g, y2) == (y,)
    for a in (y, y2):
        vec = ring.N[a, a]
        assert all(vec[g] == 1 for g in r_sub) and all(vec[g] == 0 for g in two)
        assert vec[y] == 2 and vec[y2] == 2
    return "type (1,10; 5,2), invertibles D5, g*Y = Y', Y*Y = sum(R) + 2Y + 2Y'"


def criterion_2():
    """Types of the bicrossed-product families at n = 5 (and the B6 type)."""
    h5 = split_type(pair_cyclic_symmetric(5).dual())
    assert h5 == ((1, 2), (2, 1), (3, 2), (4, 2), (8, 1)), h5
    l5 = split_type(pair_cyclic_alternating(5).dual())
    assert l5 == ((1, 3), (3, 1), (4, 3)), l5
    b5 = split_type(pair_transposition_alternating(5))
    assert b5 == ((1, 12), (2, 27)), b5
    b6 = split_type(pair_transposition_alternating(6))
    assert b6 == ((1, 48), (2, 168)), b6
    return "H5 (1,2;2,1;3,2;4,2;8,1), L5 (1,3;3,1;4,3), B5 (1,12;2,27), B6 (1,48;2,168)"


def criterion_3():
    """Simple dimensions {1,5} and trivial-center dual invertibles."""
    j5 = split_type(pair_cyclic_symmetric(5))
    k5 = split_type(pair_cyclic_alternating(5))
    assert {d for d, _ in j5} == {1, 5} and {d for d, _ in k5} == {1, 5}
    dj = dual_invertibles(pair_cyclic_symmetric(5))
    dk = dual_invertibles(pair_cyclic_alternating(5))
    assert dj.order == 20 and dj.center_order == 1
    assert dk.order == 10 and dk.center_order == 1 and dk.name == "D5"
    return "cd = {1,5}; dual invertibles of orders 20 and 10 with trivial centers"


def criterion_4():
    """J5 ring has a Z2 quotient grading with neutral part equivalent to K5."""
    j5, k5 = _j5_ring(), _k5_ring()
    grading = rings.universal_grading(j5)
    for sub in tables.prime_index_cyclic_subgroups(grading.group, 2):
        keep = []
        for b in sub:
            keep.extend(grading.blocks[b])
        neutral = j5.restrict(tuple(sorted(keep)))
        witness = find_equivalence(neutral, k5)
        if witness is not None:
            report = verify_properties(neutral, k5, witness)
            assert all(report.values()), report
            return "Z2 quotient grading found; neutral subring equivalent to the K5 ring"
    raise AssertionError("no Z2 quotient grading matches the K5 ring")


def criterion_5():
    """Solvability verdicts across the named families."""
    v = solvability_verdict(_rep_ring(symmetric_group(5)))
    assert v.verdict == NOT_SOLVABLE and v.trace, "Rep S5"
    for n in range(3, 13):
        vn = solvability_verdict(_rep_ring(dihedral_group(n)))
        assert vn.verdict == SOLVABLE and vn.trace, f"Rep D{n}"
    va = solvability_verdict(_rep_ring(alternating_group(5)))
    assert va.verdict == NOT_SOLVABLE and va.trace, "Rep A5"
    l5 = split_fusion_ring(pair_cyclic_alternating(5).dual())
    vl = solvability_verdict(l5)
    assert vl.verdict == NOT_SOLVABLE and vl.fired_rule() == "R6"
    for name, ring in [
        ("J5", _j5_ring()),
        ("K5", _k5_ring()),
        ("H5", split_fusion_ring(pair_cyclic_symmetric(5).dual())),
        ("B5", split_fusion_ring(pair_transposition_alternating(5))),
    ]:
        vr = solvability_verdict(ring)
        assert vr.verdict == NOT_SOLVABLE and vr.fired_rule() == "R7", name
    return "S5/A5/L5/J5/K5/H5/B5 not solvable, D3..D12 solvable, traces non-empty"


_DOUBLE_CORPUS = [
    ("Z2", lambda: cyclic_group(2)),
    ("Z4", lambda: cyclic_group(4)),
    ("S3", lambda: symmetric_group(3)),
    ("S4", lambda: symmetric_group(4)),
    ("A4", lambda: alternating_group(4)),
    ("D4", lambda: dihedral_group(4)),
    ("Q8", quaternion_group),
    ("A5", lambda: alternating_group(5)),
]


def criterion_6():
    """Modular-data invariants for the double corpus."""
    for name, group_fn in _DOUBLE_CORPUS:
        group = group_fn()
        md = _double(name, group_fn)  # construction certifies S symmetric, row 0, S^2
        ring = verlinde_fusion(md)  # certifies non-negative integral multiplicities
        assert md.global_dim == group.order**2, name
        inv = rings.invertibles(ring)
        si = structure_invariants(group)
        abelianization, _ = group.quotient_table(si.commutator_subgroup)
        want = tables.abelian_invariants(_direct_product(abelianization, si.center))
        got = tables.abelian_invariants(inv.group)
        assert got == want, f"{name}: invertibles {got} vs {want}"
        assert central_charge_is_one(md), name
    return f"all {len(_DOUBLE_CORPUS)} doubles pass S/T/Verlinde/invertible/charge checks"


def _direct_product(g1, g2):
    """G1 x G2 as a CayleyGroup, (a1, a2) at index a1 * |G2| + a2."""
    t1, t2 = (g.mul(*np.indices((g.order, g.order))) for g in (g1, g2))
    n = g1.order * g2.order
    return tables.CayleyGroup((t1[:, None, :, None] * g2.order + t2[None, :, None, :]).reshape(n, n))


def criterion_7():
    """Pointed parts of symmetric-group doubles are 2-element Tannakian."""
    for n in (3, 4, 5):
        md = _double(f"S{n}" if n != 5 else "S5x", lambda n=n: symmetric_group(n))
        pts = pointed_labels(md)
        assert len(pts) == 2, n
        sgn = pts[1]
        assert md.S[sgn][sgn] == Cyclotomic.one()
        assert md.T[sgn] == Cyclotomic.one()
        assert is_tannakian_subset(md, pts) == TANNAKIAN
    return "pointed parts of the S3/S4/S5 doubles: order 2, S = T = 1, TANNAKIAN"


def criterion_8():
    """Character tables against orthogonality oracles and degree multisets."""
    expected = {
        "S3": [1, 1, 2],
        "S4": [1, 1, 2, 3, 3],
        "A4": [1, 1, 1, 3],
        "A5": [1, 3, 3, 4, 5],
    }
    groups = {
        "S3": symmetric_group(3),
        "S4": symmetric_group(4),
        "A4": alternating_group(4),
        "A5": alternating_group(5),
    }
    for name, group in groups.items():
        t = character_table(group)
        assert sorted(t.degrees) == expected[name], name
        r = t.num_classes
        sizes = [s for _, s in t.classes]
        for i in range(r):
            for k in range(r):
                acc = Cyclotomic.zero()
                for j in range(r):
                    acc = acc + t.chars[i][j] * t.chars[k][j].conjugate() * sizes[j]
                assert acc == Cyclotomic.rational(group.order if i == k else 0)
        for a in range(r):
            for b in range(r):
                acc = Cyclotomic.zero()
                for i in range(r):
                    acc = acc + t.chars[i][a] * t.chars[i][b].conjugate()
                cent = group.order // sizes[a] if a == b else 0
                assert acc == Cyclotomic.rational(cent)
    t5 = character_table(groups["A5"])
    golden = Cyclotomic.one() + root_of_unity(5) + root_of_unity(5, 4)
    assert any(golden in row for row in t5.chars), "golden entry missing"
    return "S3/S4/A4/A5 tables orthogonal with expected degrees; A5 shows zeta_5 values"


def criterion_9():
    """Equivalence search vs brute force on small rings; D4/Q8 witness."""
    r1 = _rep_ring(dihedral_group(4))
    r2 = _rep_ring(quaternion_group())
    witness = find_equivalence(r1, r2)
    assert witness is not None
    report = verify_properties(r1, r2, witness)
    assert all(report.values()), report
    klein = symmetric_group(4).subgroup(
        [Permutation.parse("(1 2)", 4), Permutation.parse("(3 4)", 4)]
    )
    small = [
        _rep_ring(cyclic_group(4)),
        _rep_ring(klein),
        _rep_ring(symmetric_group(3)),
        r1,
        r2,
        _rep_ring(cyclic_group(5)),
        _rep_ring(dihedral_group(5)),
    ]
    for a in small:
        for b in small:
            got = find_equivalence(a, b) is not None
            want = _brute_force_equivalent(a, b)
            assert got == want
    return "D4/Q8 witness verified; NONE answers agree with brute-force enumeration"


def _brute_force_equivalent(r1, r2):
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


def criterion_10():
    """Prime-order equivariantization types match the bicrossed computations."""
    for n, want in [(5, ((1, 12), (2, 27))), (6, ((1, 48), (2, 168)))]:
        g = alternating_group(n)
        ring = rings.group_ring(g)
        t = Permutation.parse("(1 2)", n)
        action = tuple(g.index_of(t.inverse() * x * t) for x in g.elements)
        sig = equivariantization_type(ring, action, 2)
        assert sig == want, (n, sig)
    b5 = split_type(pair_transposition_alternating(5))
    b6 = split_type(pair_transposition_alternating(6))
    assert b5 == ((1, 12), (2, 27)) and b6 == ((1, 48), (2, 168))
    return "equivariantizations of the A5/A6 pointed categories match the B5/B6 types"


def criterion_11():
    """Cross-cutting property suites: ring axioms, field axioms, orthogonality."""
    for ring in [
        _k5_ring(),
        _j5_ring(),
        _rep_ring(symmetric_group(4)),
        verlinde_fusion(_double("S3", lambda: symmetric_group(3))),
        rings.group_ring(symmetric_group(3)),
    ]:
        rings.validate(ring)
    rng = random.Random(99)
    for n in (4, 5, 6, 8, 12, 15, 20, 24):
        for _ in range(8):
            a, b, c = (_rand_cyclo(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == Cyclotomic.one()
    g = symmetric_group(4)
    act = GroupAction.from_function(g, list(range(4)), lambda p, x: p.inverse()(x))
    orbs = act.orbits()
    assert sum(len(o.members) for o in orbs) == 4
    for o in orbs:
        assert len(o.members) * o.stabilizer.order == g.order
    sizes = [len(m) for _, m in g.conjugacy_classes()]
    assert sum(sizes) == g.order and all(g.order % s == 0 for s in sizes)
    return "ring axioms, cyclotomic field axioms, orbit-stabilizer and class checks"


def _rand_cyclo(rng, n):
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        coeffs[rng.randrange(n)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Cyclotomic(n, coeffs)


_CRITERIA = [
    (1, "K5 reproduction", criterion_1, 10.0),
    (2, "bicrossed-product types (H5, L5, B5, B6)", criterion_2, 600.0),
    (3, "cd and dual invertibles of J5/K5", criterion_3, 600.0),
    (4, "J5 quotient grading vs K5", criterion_4, 60.0),
    (5, "solvability verdicts", criterion_5, 600.0),
    (6, "double corpus invariants", criterion_6, 600.0),
    (7, "Tannakian pointed parts of symmetric doubles", criterion_7, 600.0),
    (8, "character tables vs oracles", criterion_8, 600.0),
    (9, "equivalence search vs brute force", criterion_9, 600.0),
    (10, "equivariantization types", criterion_10, 600.0),
    (11, "property suites", criterion_11, 600.0),
]


def run_criterion(number):
    num, desc, fn, budget = next(c for c in _CRITERIA if c[0] == number)
    start = time.perf_counter()
    try:
        detail = fn()
        elapsed = time.perf_counter() - start
        passed = elapsed <= budget
        if not passed:
            detail = f"exceeded {budget:.0f}s budget ({elapsed:.1f}s)"
    except AssertionError as exc:
        elapsed = time.perf_counter() - start
        passed, detail = False, f"assertion failed: {exc}"
    except Exception as exc:  # deliberate: the suite reports, never crashes
        elapsed = time.perf_counter() - start
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(num, desc, passed, detail, elapsed)


def run_suite():
    results = []
    for num, _, _, _ in _CRITERIA:
        res = run_criterion(num)
        results.append(res)
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag}  criterion {res.number:2d}  {res.description}: {res.detail} "
              f"[{res.elapsed:.1f}s]")
    return results
