#!/usr/bin/env python3
"""Tour of the exact permutation-group layer.

Groups are materialized in full (desk scale), so conjugacy classes,
centralizers and structural series are all exact and deterministic.
"""

from fusionrings.perms import (
    Permutation,
    alternating_group,
    dihedral_group,
    structure_invariants,
    symmetric_group,
)

print("== building groups from generators ==")
s5 = symmetric_group(5)
a5 = alternating_group(5)
d6 = dihedral_group(6)
print(f"S5: order {s5.order},  A5: order {a5.order},  D6: order {d6.order}")

print("\n== conjugacy classes of S5 ==")
for rep, members in s5.conjugacy_classes():
    print(f"  class of {rep.cycle_string():14s} size {len(members):3d}")

print("\n== centralizers inside A5 and A6 ==")
t = Permutation.parse("(1 2)", 5)
c = a5.centralizer_of(t)
print(f"centralizer of (1 2) in A5: order {c.order}, abelian: {c.is_abelian()}")
c6 = alternating_group(6).centralizer_of(Permutation.parse("(1 2)", 6))
print(f"centralizer of (1 2) in A6: order {c6.order}")

print("\n== structure invariants ==")
for name, g in [("S5", s5), ("A4", alternating_group(4)), ("D6", d6)]:
    inv = structure_invariants(g)
    print(
        f"{name}: |Z| = {inv.center.order}, [G,G] order {inv.commutator_subgroup.order}, "
        f"G/[G,G] = {inv.abelianization_type}, solvable = {inv.is_solvable}, "
        f"nilpotent = {inv.is_nilpotent}"
    )
