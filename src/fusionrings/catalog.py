"""Reference catalog of named fusion rings with known solvability verdicts.

Entries are built lazily: the cheap type signature acts as a prefilter, the
full ring is only constructed (and cached) when a candidate actually matches.
"""

from __future__ import annotations

from functools import lru_cache

from .bicross import matched_pair_from_factorization, split_fusion_ring, split_type
from .chartab import character_table, rep_g_fusion_ring
from .perms import Permutation, alternating_group, cyclic_group, symmetric_group
from .solvability import NOT_SOLVABLE
from .tables import _tally


class CatalogEntry:
    def __init__(self, name, fpdim, signature_fn, ring_fn, verdict, reason):
        self.name = name
        self.fpdim = fpdim
        self._signature_fn = signature_fn
        self._ring_fn = ring_fn
        self._signature = None
        self._ring = None
        self.verdict = verdict
        self.reason = reason

    def type_signature(self):
        if self._signature is None:
            self._signature = self._signature_fn()
        return self._signature

    def ring(self):
        if self._ring is None:
            self._ring = self._ring_fn()
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


def _rep_entry(name, n, reason):
    group = symmetric_group(n)
    return CatalogEntry(
        name=name,
        fpdim=group.order,
        signature_fn=lambda: _rep_signature(group),
        ring_fn=lambda: rep_g_fusion_ring(character_table(group)),
        verdict=NOT_SOLVABLE,
        reason=reason,
    )


def _rep_signature(group):
    return _tally(character_table(group).degrees)


def _split_entry(name, pair_fn, reason):
    def signature():
        return split_type(pair_fn())

    def ring():
        return split_fusion_ring(pair_fn())

    mp_probe = pair_fn()
    return CatalogEntry(
        name=name,
        fpdim=mp_probe.f.order * mp_probe.gamma.order,
        signature_fn=signature,
        ring_fn=ring,
        verdict=NOT_SOLVABLE,
        reason=reason,
    )


@lru_cache(maxsize=1)
def default_catalog():
    """Named non-solvable reference rings; probed by the R7 verdict rule."""
    sym_reason = (
        "fusion rules of a symmetric group on five or more points only occur "
        "for non-solvable categories"
    )
    bicross_reason = (
        "fusion rules of this bicrossed product of a non-solvable factorization "
        "only occur for non-solvable categories"
    )
    entries = [
        _rep_entry("Rep(S5)", 5, sym_reason),
        _rep_entry("Rep(S6)", 6, sym_reason),
        _rep_entry("Rep(S7)", 7, sym_reason),
        _split_entry("Rep(k^S4 # kC5)", lambda: pair_cyclic_symmetric(5), bicross_reason),
        _split_entry("Rep(k^A4 # kC5)", lambda: pair_cyclic_alternating(5), bicross_reason),
        _split_entry("Rep(k^S6 # kC7)", lambda: pair_cyclic_symmetric(7), bicross_reason),
        _split_entry("Rep(k^A6 # kC7)", lambda: pair_cyclic_alternating(7), bicross_reason),
        _split_entry(
            "Rep(k^C5 # kS4)", lambda: pair_cyclic_symmetric(5).dual(), bicross_reason
        ),
        _split_entry(
            "Rep(k^C5 # kA4)", lambda: pair_cyclic_alternating(5).dual(), bicross_reason
        ),
        _split_entry(
            "Rep(k^A5 # kC2)", lambda: pair_transposition_alternating(5), bicross_reason
        ),
        _split_entry(
            "Rep(k^C2 # kA5)",
            lambda: pair_transposition_alternating(5).dual(),
            bicross_reason,
        ),
    ]
    return tuple(entries)
