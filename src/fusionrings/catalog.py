"""Reference catalog of named fusion rings with known solvability verdicts.

Each entry stores its Frobenius-Perron dimension and type as data, so that
listing the catalog and comparing those invariants builds nothing.  The ring
itself is built (and cached) only when a candidate matches both, and it is
checked against the stored invariants there, where a wrong entry could
otherwise make rule R7 fire.
"""

from __future__ import annotations

from functools import lru_cache

from . import rings
from .bicross import matched_pair_from_factorization, split_fusion_ring
from .chartab import character_table, rep_g_fusion_ring
from .errors import InvariantFailure
from .perms import Permutation, alternating_group, cyclic_group, symmetric_group
from .solvability import NOT_SOLVABLE


class CatalogEntry:
    """A named ring with its stored FPdim and type signature; ``ring()``
    builds it once and raises ``InvariantFailure`` if the built ring's
    FPdim or type differs from the stored ones."""

    def __init__(self, name, fpdim, signature, ring_fn, verdict, reason):
        self.name = name
        self.fpdim = fpdim
        self.signature = signature
        self._ring_fn = ring_fn
        self._ring = None
        self.verdict = verdict
        self.reason = reason

    def type_signature(self):
        return self.signature

    def ring(self):
        if self._ring is None:
            ring = self._ring_fn()
            dims = rings.fp_dims(ring)
            if not dims.exact or dims.total != self.fpdim:
                raise InvariantFailure("catalog_fpdim", f"{self.name} has FPdim {dims.total}")
            if rings.type_signature(ring) != self.signature:
                raise InvariantFailure("catalog_type", f"{self.name} is not of the stored type")
            self._ring = ring
        return self._ring

    def __repr__(self):
        return f"CatalogEntry({self.name})"


@lru_cache(maxsize=None)
def pair_cyclic_symmetric(n):
    """The factorization S_n = C_n * S_(n-1)."""
    return matched_pair_from_factorization(
        symmetric_group(n), cyclic_group(n, degree=n), symmetric_group(n - 1, degree=n)
    )


@lru_cache(maxsize=None)
def pair_cyclic_alternating(n):
    """The factorization A_n = C_n * A_(n-1), n odd."""
    if n % 2 == 0:
        raise ValueError("the cyclic factor must be odd for the alternating restriction")
    return matched_pair_from_factorization(
        alternating_group(n), cyclic_group(n, degree=n), alternating_group(n - 1, degree=n)
    )


@lru_cache(maxsize=None)
def pair_transposition_alternating(n):
    """The factorization S_n = <(1 2)> * A_n."""
    g = symmetric_group(n)
    f = g.subgroup([Permutation.parse("(1 2)", n)])
    return matched_pair_from_factorization(g, f, alternating_group(n, degree=n))


_SYMMETRIC_REASON = (
    "fusion rules of a symmetric group on five or more points only occur "
    "for non-solvable categories"
)
_BICROSS_REASON = (
    "fusion rules of this bicrossed product of a non-solvable factorization "
    "only occur for non-solvable categories"
)


def _rep_entry(n, fpdim, signature):
    def ring():
        return rep_g_fusion_ring(character_table(symmetric_group(n)))

    return CatalogEntry(f"Rep(S{n})", fpdim, signature, ring, NOT_SOLVABLE, _SYMMETRIC_REASON)


def _split_entry(name, pair_fn, fpdim, signature):
    def ring():
        return split_fusion_ring(pair_fn())

    return CatalogEntry(name, fpdim, signature, ring, NOT_SOLVABLE, _BICROSS_REASON)


@lru_cache(maxsize=1)
def default_catalog():
    """Named non-solvable reference rings; probed by the R7 verdict rule.

    The FPdims and types are data: the test suite recomputes each one without
    building a ring, and ``CatalogEntry.ring`` checks them on the ring it
    builds."""
    return (
        _rep_entry(5, 120, ((1, 2), (4, 2), (5, 2), (6, 1))),
        _rep_entry(6, 720, ((1, 2), (5, 4), (9, 2), (10, 2), (16, 1))),
        _rep_entry(7, 5040, ((1, 2), (6, 2), (14, 4), (15, 2), (20, 1), (21, 2), (35, 2))),
        _split_entry("Rep(k^S4 # kC5)", lambda: pair_cyclic_symmetric(5), 120, ((1, 20), (5, 4))),
        _split_entry("Rep(k^A4 # kC5)", lambda: pair_cyclic_alternating(5), 60, ((1, 10), (5, 2))),
        _split_entry("Rep(k^S6 # kC7)", lambda: pair_cyclic_symmetric(7), 5040, ((1, 42), (7, 102))),
        _split_entry("Rep(k^A6 # kC7)", lambda: pair_cyclic_alternating(7), 2520, ((1, 21), (7, 51))),
        _split_entry(
            "Rep(k^C5 # kS4)", lambda: pair_cyclic_symmetric(5).dual(), 120,
            ((1, 2), (2, 1), (3, 2), (4, 2), (8, 1)),
        ),
        _split_entry(
            "Rep(k^C5 # kA4)", lambda: pair_cyclic_alternating(5).dual(), 60, ((1, 3), (3, 1), (4, 3))
        ),
        _split_entry("Rep(k^A5 # kC2)", lambda: pair_transposition_alternating(5), 120, ((1, 12), (2, 27))),
        _split_entry(
            "Rep(k^C2 # kA5)", lambda: pair_transposition_alternating(5).dual(), 120,
            ((1, 2), (3, 4), (4, 2), (5, 2)),
        ),
    )
