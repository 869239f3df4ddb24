"""Rule engine deciding solvability of a fusion category from its based ring.

The rules are deliberately conservative and fire in a fixed order; UNKNOWN is
an acceptable answer.  Every rule evaluation is recorded in the trace, and
each entry carries the mathematical fact the rule rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import rings, tables
from .chartab import character_table, rep_g_fusion_ring
from .cyclo import _is_prime
from .equivalence import find_equivalence
from .perms import dihedral_group

SOLVABLE = "SOLVABLE"
NOT_SOLVABLE = "NOT_SOLVABLE"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SolvabilityVerdict:
    verdict: str
    trace: tuple  # (rule id, justification, supporting fact)

    def fired_rule(self):
        return self.trace[-1][0] if self.verdict != UNKNOWN else None


def _dihedral_order_for(sig, total):
    if total % 2 or total < 6:
        return None
    n = total // 2
    if n % 2:
        expect = ((1, 2), (2, (n - 1) // 2))
    else:
        expect = ((1, 4), (2, (n - 2) // 2))
    return n if sig == expect else None


@lru_cache(maxsize=None)
def _dihedral_reference(n):
    """Rep(D_n), the ring R4 compares against, built once per n."""
    return rep_g_fusion_ring(character_table(dihedral_group(n)))


def solvability_verdict(ring):
    """First-match evaluation of rules R1..R8, then UNKNOWN; R7 matches
    against the default catalog."""
    trace = []

    def fire(rule, statement, fact, verdict):
        trace.append((rule, statement, fact))
        return SolvabilityVerdict(verdict=verdict, trace=tuple(trace))

    def skip(rule, statement):
        trace.append((rule, statement, ""))

    # R1: trivial ring
    if ring.size == 1:
        return fire("R1", "the ring is trivial", "the trivial category is solvable", SOLVABLE)
    skip("R1", "ring is nontrivial")

    dims = rings.fp_dims(ring)
    inv = rings.invertibles(ring)

    # R2: no nontrivial invertibles
    if inv.order == 1:
        return fire(
            "R2",
            "nontrivial ring with trivial invertible group",
            "every nontrivial solvable fusion category has nontrivial invertible objects",
            NOT_SOLVABLE,
        )
    skip("R2", f"invertible group has order {inv.order}")

    # R3: cyclically nilpotent rings are solvable outright
    cyc_nilp = rings.is_cyclically_nilpotent(ring)
    if cyc_nilp:
        return fire(
            "R3",
            "iterated prime-cyclic quotient gradings reach the trivial ring",
            "a cyclically nilpotent fusion category is solvable",
            SOLVABLE,
        )
    skip("R3", "ring is not cyclically nilpotent")

    # R4: dihedral fusion rules; the type and FPdim name the one n whose
    # Rep(D_n) is searched, a reference kept across verdicts
    sig = rings.type_signature(ring) if dims.exact else None
    n_dihedral = _dihedral_order_for(sig, dims.total) if sig is not None else None
    if n_dihedral is not None and find_equivalence(ring, _dihedral_reference(n_dihedral)) is not None:
        return fire(
            "R4",
            f"fusion rules match the representations of the dihedral group of order {2 * n_dihedral}",
            "a fusion category with dihedral fusion rules is solvable",
            SOLVABLE,
        )
    skip("R4", "fusion rules are not dihedral")

    # R5: prime invertible group, no simple of that dimension, not cyclically nilpotent
    p = inv.order
    if _is_prime(p) and dims.exact and p not in dims.dims:
        return fire(
            "R5",
            f"invertible group of prime order {p}, no simple of dimension {p}, "
            "and the ring is not cyclically nilpotent",
            "a solvable category with prime-cyclic invertibles and no simple of "
            "that prime dimension must be cyclically nilpotent",
            NOT_SOLVABLE,
        )
    skip("R5", "prime-invertible criterion does not apply")

    # R6: the rigid type (1,3; 3,1; 4,3)
    if sig == ((1, 3), (3, 1), (4, 3)):
        return fire(
            "R6",
            "ring is of type (1,3; 3,1; 4,3)",
            "no solvable fusion category has type (1,3; 3,1; 4,3)",
            NOT_SOLVABLE,
        )
    skip("R6", "type rule does not apply")

    # R7: match against the reference catalog; the stored FPdim and type
    # decide which entries are built and searched
    from .catalog import default_catalog

    for entry in default_catalog():
        if not dims.exact or dims.total != entry.fpdim or sig != entry.type_signature():
            continue
        if find_equivalence(ring, entry.ring()) is not None:
            return fire(
                "R7",
                f"fusion rules match the catalog ring {entry.name}",
                entry.reason,
                entry.verdict,
            )
    skip("R7", "no catalog ring matches")

    # R8: pointed rings mirror their invertible group
    if inv.order == ring.size:
        solvable = tables.is_solvable(inv.group)
        return fire(
            "R8",
            f"pointed ring on a group of order {inv.order} "
            f"({'solvable' if solvable else 'not solvable'})",
            "a pointed category is solvable exactly when its group of invertibles is",
            SOLVABLE if solvable else NOT_SOLVABLE,
        )
    skip("R8", "ring is not pointed")

    trace.append(("R1-R8", "no rule fired", "the rule set is deliberately conservative"))
    return SolvabilityVerdict(verdict=UNKNOWN, trace=tuple(trace))
