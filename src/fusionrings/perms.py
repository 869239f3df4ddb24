"""Exact permutation groups at desk scale.

Every group is materialized once as index data: its elements are numbered
in lexicographic order of their image tuples (the identity is 0), and all
group algorithms (``tables``) run on those indices.  An image tuple is found
by one binary search of its integer key (``_row_keys``) in the group's
sorted key array.  ``Permutation`` objects appear only at the text boundary:
parsing, cycle strings, labels and the elements that methods take or return.

Composition convention, fixed globally: permutations act on the right,
``(f * g)(x) == g(f(x))``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import tables
from .errors import ClosureTooLarge, DegreeTooLarge

DEFAULT_CLOSURE_CAP = 10_000
MAX_DEGREE = 10_000  # a cap-sized (10,000 x 10,000) int64 image array stays under 800 MB

_CYCLE = re.compile(r"\(([^()]*)\)")


def _check_degree(degree):
    """Refuse a negative degree, or one above MAX_DEGREE, before anything of
    that size is allocated."""
    if degree < 0:
        raise ValueError(f"negative degree {degree}")
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {degree} exceeds bound {MAX_DEGREE}")


class Permutation:
    """A permutation of {0, ..., n-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images)-1}: {images}")
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build from 0-based disjoint cycles, e.g. ``[(0, 1, 2), (3, 4)]``."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if a in seen:
                    raise ValueError(f"cycles not disjoint at point {a}")
                seen.add(a)
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, text, degree):
        """Parse 1-based cycle notation: ``""``, ``"()"``, ``"e"`` or
        parenthesized cycles like ``"(1 2 3)(4 5)"``, whose points are
        separated by whitespace or commas.  Anything else raises ValueError."""
        _check_degree(degree)
        text = text.strip()
        if text == "e":
            return cls.identity(degree)
        if _CYCLE.sub("", text).strip():
            raise ValueError(f"not cycle notation: {text!r}")
        cycles, seen = [], set()
        for part in _CYCLE.findall(text):
            tokens = part.replace(",", " ").split()
            if not all(tok.isdigit() for tok in tokens):
                raise ValueError(f"not cycle notation: {text!r}")
            pts = [int(tok) - 1 for tok in tokens]
            if not pts:
                continue
            if any(p < 0 or p >= degree for p in pts):
                raise ValueError(f"point out of range in {text!r} for degree {degree}")
            for p in pts:
                if p in seen:
                    raise ValueError(f"point {p + 1} appears twice in {text!r}")
                seen.add(p)
            cycles.append(tuple(pts))
        return cls.from_cycles(degree, cycles)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        imgs = other.images
        return Permutation(imgs[i] for i in self.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycles(self):
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.images[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def sign(self):
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def cycle_string(self):
        """1-based cycle notation; identity prints as ``"()"``."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def _rows(degree, perms):
    """Image tuples of ``perms`` as a (len(perms) x degree) int array."""
    _check_degree(degree)
    perms = tuple(perms)
    for g in perms:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    return np.array([g.images for g in perms], dtype=np.intp).reshape(len(perms), degree)


_INT64_DEGREE = 15  # 15**15 < 2**63 <= 16**16: keys of degree <= 15 fit int64


def _row_keys(rows):
    """One integer key per image row (last axis), as an array of the leading
    shape.  A key reads the row as a base-``degree`` numeral, most
    significant point first, so key order is lexicographic row order.  Keys
    are int64 up to degree ``_INT64_DEGREE``; past it they are exact Python
    ints read off the row's big-endian fixed-width digits."""
    rows = np.asarray(rows, dtype=np.intp)
    degree = rows.shape[-1]
    if degree <= _INT64_DEGREE:
        return rows @ degree ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    digits = np.ascontiguousarray(rows, dtype=">u1" if degree <= 256 else ">u2")
    as_bytes = np.dtype((np.void, degree * digits.itemsize))
    raw = digits.reshape(-1, degree).view(as_bytes).ravel().tolist()
    keys = np.fromiter(map(int.from_bytes, raw, repeat("big")), dtype=object, count=len(raw))
    return keys.reshape(rows.shape[:-1])


def _close(gen_rows):
    """The group generated by ``gen_rows``: its image rows in lexicographic
    order, their keys, and for each generator s the index map x -> x*s as
    one row; ClosureTooLarge past DEFAULT_CLOSURE_CAP elements.

    The elements are found breadth-first by right multiplication (x*s has
    images s[x]).  Each product row's provisional id is its position in the
    stream of all products made, and a row met again keeps the id it got
    first, so the products of each layer are the maps x -> x*s on it."""
    count, degree = gen_rows.shape
    frontier = np.arange(degree, dtype=np.intp)[None]
    frontier_keys = _row_keys(frontier)
    seen = dict.fromkeys(frontier_keys.tolist(), 0)
    found, keys, ids, made = [frontier], [frontier_keys], [np.zeros(1, dtype=np.intp)], []
    made_count = 1
    while len(frontier):
        products = gen_rows[:, frontier].reshape(count * len(frontier), degree)
        product_keys = _row_keys(products)
        span = range(made_count, made_count + len(products))
        got = np.fromiter(map(seen.setdefault, product_keys.tolist(), span), np.intp, len(products))
        if len(seen) > DEFAULT_CLOSURE_CAP:
            raise ClosureTooLarge(
                f"closure exceeds cap {DEFAULT_CLOSURE_CAP}: reached {len(seen)} elements from {count} generators"
            )
        fresh = np.flatnonzero(got == np.arange(span.start, span.stop))
        made.append(got.reshape(count, len(frontier)))
        ids.append(got[fresh])
        made_count = span.stop
        frontier = products[fresh]
        found.append(frontier)
        keys.append(product_keys[fresh])
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    rank = np.empty(made_count, dtype=np.intp)  # provisional id -> sorted index
    rank[np.concatenate(ids)[order]] = np.arange(len(keys))
    return np.concatenate(found)[order], keys[order], rank[np.concatenate(made, axis=1)[:, order]]


class PermGroup:
    """A finite permutation group, materialized once as index data.

    ``images`` is the (order x degree) int array of element image tuples in
    lexicographic order, so index order is element order and the identity
    is 0.  ``inv``, ``gens``, ``rmul`` and ``mul`` are the index data that
    ``tables`` reads; ``mul`` composes image rows and finds the products by
    a binary search of their integer keys in the sorted key array, so no
    Cayley table is ever stored.
    """

    __slots__ = ("degree", "images", "inv", "gens", "rmul", "_keys", "_elements", "_classes")

    unit = 0

    def __init__(self, degree, images, gens=None, inv=None, rmul=None, keys=None):
        """Index data of the group on the sorted, distinct image rows
        ``images``, generated by the indices ``gens`` (default: a small
        generating set).  ``inv``, ``rmul`` and the rows' ``keys``, where the
        caller has them already, are taken as given."""
        self.degree = degree
        self.images = images
        self._keys = _row_keys(images) if keys is None else keys
        self._elements = self._classes = None
        self.inv = self.index_rows(np.argsort(images, axis=1)) if inv is None else inv
        if gens is None:
            gens = tables.generating_set(self, range(self.order))
        self.gens = tuple(gens)
        if rmul is None:
            everything = np.arange(self.order)
            rmul = [self.mul(everything, s) for s in self.gens]
        self.rmul = tuple(rmul)

    @classmethod
    def from_generators(cls, degree, gens):
        images, keys, rmul = _close(_rows(degree, gens))
        # each generator s is the image of the identity under x -> x*s
        return cls(degree, images, rmul[:, cls.unit].tolist(), rmul=rmul, keys=keys)

    def _sub(self, members, gens=None):
        """The subgroup on the sorted indices ``members``, generated by the
        indices ``gens`` (default: a small generating set)."""
        members = np.asarray(members)
        return PermGroup(
            self.degree,
            self.images[members],
            None if gens is None else np.searchsorted(members, gens).tolist(),
            inv=np.searchsorted(members, self.inv[members]),
            keys=self._keys[members],
        )

    def mul(self, a, b):
        """Indices of the products a*b, broadcast over index arrays."""
        return self.index_rows(self.images[np.asarray(b)[..., None], self.images[a]])

    def index_rows(self, rows):
        """Indices of the elements with the image tuples ``rows`` (last
        axis); KeyError if a row is not an element of this group."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape[-1:] != (self.degree,):
            raise KeyError(f"rows of shape {rows.shape} in a group of degree {self.degree}")
        keys = _row_keys(rows)
        found = np.minimum(np.searchsorted(self._keys, keys), self.order - 1)
        if not np.all(self._keys[found] == keys):
            raise KeyError("a row is not an element of the group")
        return found

    @property
    def order(self):
        return len(self.images)

    @property
    def identity(self):
        return Permutation.identity(self.degree)

    def element(self, i):
        return Permutation(self.images[i].tolist())

    @property
    def generators(self):
        return tuple(self.element(s) for s in self.gens)

    @property
    def elements(self):
        if self._elements is None:
            self._elements = tuple(Permutation(row) for row in self.images.tolist())
        return self._elements

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and np.array_equal(self.images, other.images)
        )

    def __hash__(self):
        return hash((self.degree, self.images.tobytes()))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def index_of(self, g):
        return int(self.index_rows(g.images))

    def is_abelian(self):
        return tables.is_abelian(self)

    def subgroup(self, gens):
        """The subgroup generated by ``gens``, which must lie in this group."""
        rows = _rows(self.degree, gens)
        try:
            seed = self.index_rows(rows)
        except KeyError:
            raise ValueError("subgroup generators must lie in the group") from None
        return self._sub(tables.closure(self, seed), seed)

    def _class_data(self):
        if self._classes is None:
            classes, class_of = tables.conjugacy_classes(self)
            class_of.flags.writeable = False
            self._classes = (classes, class_of)
        return self._classes

    def conjugacy_classes(self):
        """Partition into classes; reps are class minima; sorted by (size, rep)."""
        els = self.elements
        return [(els[c[0]], tuple(els[i] for i in c.tolist())) for c in self._class_data()[0]]

    def class_index_map(self):
        """Class index (canonical class order) of every element, by element index."""
        return self._class_data()[1]

    def centralizer_of(self, g):
        """Subgroup of elements commuting with g (g need not lie here)."""
        s = np.asarray(g.images, dtype=np.intp)
        return self._sub(np.flatnonzero((s[self.images] == self.images[:, s]).all(axis=1)))

    def is_solvable(self):
        return tables.is_solvable(self)

    def quotient_table(self, normal):
        """G/N as a ``tables.CayleyGroup`` on coset indices, plus the coset
        index of every element."""
        return tables.quotient(self, self.index_rows(normal.images))

    def cayley_table(self):
        """The (order x order) index array of the products a*b."""
        everything = np.arange(self.order)
        return self.mul(everything[:, None], everything[None, :])


@dataclass(frozen=True)
class Orbit:
    representative: object
    members: tuple
    stabilizer: PermGroup


class GroupAction:
    """A PermGroup acting on a finite labelled set, as an index table.

    ``table[g, i]`` is the domain position of g.x for the element of index g
    and x = ``domain[i]``, with ``(gh).x == g.(h.x)``, which is verified.
    """

    def __init__(self, group, domain, table):
        self.group = group
        self.domain = tuple(domain)
        self.table = t = np.asarray(table, dtype=np.intp)
        moved = np.flatnonzero(t[group.unit] != np.arange(len(self.domain)))
        if moved.size:
            raise ValueError(f"identity moves {self.domain[moved[0]]!r}")
        # (hs).x == h.(s.x) for every h and generator s makes t a homomorphism
        for s, r in zip(group.gens, group.rmul):
            if not np.array_equal(t[r], t[:, t[s]]):
                raise ValueError("not an action: composition fails")

    @classmethod
    def from_function(cls, group, domain, act):
        domain = tuple(domain)
        pos = {x: i for i, x in enumerate(domain)}
        table = np.array(
            [[pos[act(g, x)] for x in domain] for g in group.elements], dtype=np.intp
        ).reshape(group.order, len(domain))
        return cls(group, domain, table)

    def orbits(self):
        """Orbits sorted by (size, representative position); reps carry
        stabilizers, one PermGroup per distinct stabilizer, shared by every
        orbit whose representative it fixes."""
        unseen = np.ones(len(self.domain), dtype=bool)
        out = []
        stabilizers = {}  # bytes of the fixer indices -> their subgroup
        for i in range(len(self.domain)):
            if not unseen[i]:
                continue
            images = self.table[:, i]
            members = tables._unique(images)
            unseen[members] = False
            fixers = np.flatnonzero(images == i)
            key = fixers.tobytes()
            if key not in stabilizers:
                stabilizers[key] = self.group._sub(fixers)
            out.append(
                Orbit(
                    representative=self.domain[i],
                    members=tuple(self.domain[j] for j in members.tolist()),
                    stabilizer=stabilizers[key],
                )
            )
        out.sort(key=lambda o: len(o.members))
        return out


@dataclass(frozen=True)
class StructureInvariants:
    center: PermGroup
    commutator_subgroup: PermGroup
    abelianization_type: tuple
    is_solvable: bool
    is_nilpotent: bool


def structure_invariants(group):
    derived = group._sub(*tables.derived_subgroup(group))
    abelianization, _ = group.quotient_table(derived)
    return StructureInvariants(
        center=group._sub(tables.center(group)),
        commutator_subgroup=derived,
        abelianization_type=tables.abelian_invariants(abelianization),
        is_solvable=group.is_solvable(),
        is_nilpotent=tables.is_nilpotent(group),
    )


# Named families.  All are realized on exactly n points so that family
# subgroups of S_n sit on the first points of the ambient set.


def _family(n, degree, order, cycles, exact=True):
    """The group on ``degree`` points generated by ``cycles()``, one list of
    0-based cycles per generator.  The known order, or a lower bound on it
    when not ``exact``, is checked against the closure cap before anything
    is built."""
    if n < 1 or degree < n:
        raise ValueError("need 1 <= n <= degree")
    if order > DEFAULT_CLOSURE_CAP:
        known = "" if exact else "at least "
        raise ClosureTooLarge(f"group order {known}{order} exceeds cap {DEFAULT_CLOSURE_CAP}")
    return PermGroup.from_generators(degree, [Permutation.from_cycles(degree, c) for c in cycles()])


def _factorial(n):
    """(n!, True), or (a lower bound on n!, False) once the product passes
    twice the closure cap before reaching n."""
    out = 1
    for k in range(2, n + 1):
        out *= k
        if out > 2 * DEFAULT_CLOSURE_CAP:
            return out, k == n
    return out, True


def symmetric_group(n, degree=None):
    order, exact = _factorial(n)
    return _family(n, degree or n, order, lambda: [[(0, 1)], [tuple(range(n))]][: n - 1], exact)


def alternating_group(n, degree=None):
    def cycles():
        long = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        return [[(0, 1, 2)], [long]][: max(n - 2, 0)]

    order, exact = _factorial(n)
    return _family(n, degree or n, max(order // 2, 1), cycles, exact)


def cyclic_group(n, degree=None):
    return _family(n, degree or n, n, lambda: [[tuple(range(n))]] if n > 1 else [])


def dihedral_group(n):
    """Symmetries of the regular n-gon on n points (order 2n); needs n >= 3."""
    if n < 3:
        raise ValueError("dihedral family realized on n points needs n >= 3")
    reflection = [(i, n - i) for i in range(1, (n + 1) // 2)]
    return _family(n, n, 2 * n, lambda: [[tuple(range(n))], reflection])


def quaternion_group():
    """The quaternion group of order 8 in its regular representation."""
    i = [(0, 2, 1, 3), (4, 6, 5, 7)]
    j = [(0, 4, 1, 5), (2, 7, 3, 6)]
    return _family(8, 8, 8, lambda: [i, j])
