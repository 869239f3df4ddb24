"""Based rings with non-negative structure constants: validation, dimensions,
subring lattice, gradings, nilpotency, and the one solver that reads fusion
rules off a character system.

The structure tensor is held as a write-locked numpy int array; all axiom
checks are exhaustive.  Associativity is proven by Light's test: elements a
with (x a) y = x (a y) for all x, y form a subspace closed under products
and duals, so a closure from the unit leaves few basis elements to test
directly (``validate``).  Large tensor contractions go through BLAS matmuls
only while an explicit bound keeps every sum exact there: float32 below
2**24, float64 below 2**53; past it they run on int64, and past 2**63 on
Python integers (``cyclo._exact_dtype``).

Every ring read off characters (Rep G, split bicrossed products, the
Verlinde ring of a double) solves sum_z N[x][y][z] X[z] = P[x][y] over
Z[zeta_m]: X[z][t] is character z at column t and P[x][y][t] the product
of characters x and y there.  The caller gives the images of X and P at the
embeddings of Z[zeta_m] into F_q, one prime q at a time, so P is a product
of images, never of coordinates.  ``_decompose`` solves at the first prime
where X is invertible and lifts the symmetric residues, since
multiplicities lie in [0, max(d)^2]; it raises SingularCharacterSystem once
the primes where X failed to invert pass a bound on the norm of a nonzero
det X, so the search ends for every caller.  ``_certify_decomposition`` checks
N >= 0 and the equation at that prime and the next ones, until a bound on
the coordinates of any difference makes the check exact.

``_certified`` is the one certified constructor, for these rings and for
documents: it validates, and certifies claimed dimensions d exactly by
N d = d d^T, so the eigenvector search of ``fp_dims`` runs only for rings
whose dimensions nobody claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import tables
from .cyclo import _ABOVE, _echelon, _embeddings, _evaluate, _exact_dtype, _mulmod, _prime_divisors
from .cyclo import _product_bound, _top
from .errors import AxiomViolation, GradingInconsistent, NoPositiveEigenvector, NonIntegralMultiplicity
from .errors import SingularCharacterSystem


class FusionRing:
    """A unital based ring: basis labels, structure tensor, duality involution."""

    __slots__ = ("labels", "N", "dual", "_dims", "_invertibles", "_grading", "_cyclic")

    def __init__(self, labels, tensor, dual=None):
        labels = tuple(labels)
        n = len(labels)
        tensor = np.asarray(tensor, dtype=np.int64).reshape(n, n, n).copy()
        tensor.setflags(write=False)
        self.labels = labels
        self.N = tensor
        if dual is None:
            dual = tuple(int(np.argmax(tensor[i, :, 0])) for i in range(n))
        self.dual = tuple(dual)
        self._dims = self._invertibles = self._grading = self._cyclic = None  # computed once, on first use

    @property
    def size(self):
        return len(self.labels)

    def support(self, i, j):
        return tuple(int(k) for k in np.nonzero(self.N[i, j])[0])

    def relabel(self, perm):
        """Isomorphic copy with basis index i renamed to perm[i] (unit must stay)."""
        n = self.size
        if perm[0] != 0:
            raise ValueError("relabeling must fix the unit")
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        labels = tuple(self.labels[inv[i]] for i in range(n))
        tensor = self.N[np.ix_(inv, inv, inv)]
        dual = tuple(perm[self.dual[inv[i]]] for i in range(n))
        return FusionRing(labels, tensor, dual)

    def restrict(self, indices):
        """Based subring on a closed index set (unit must be a member)."""
        indices = tuple(indices)
        if 0 not in indices:
            raise ValueError("subring must contain the unit")
        pos = {g: i for i, g in enumerate(indices)}
        sub = self.N[np.ix_(indices, indices, indices)]
        dual = tuple(pos[self.dual[g]] for g in indices)
        return FusionRing(tuple(self.labels[g] for g in indices), sub, dual)

    def __eq__(self, other):
        return (
            isinstance(other, FusionRing)
            and self.labels == other.labels
            and self.dual == other.dual
            and np.array_equal(self.N, other.N)
        )

    def __hash__(self):
        return hash((self.labels, self.dual, self.N.tobytes()))

    def __repr__(self):
        return f"FusionRing(size={self.size})"


@dataclass(frozen=True)
class FPDims:
    dims: tuple
    exact: bool
    total: object  # int when exact, float otherwise


@dataclass(frozen=True)
class Invertibles:
    indices: tuple
    group: tables.CayleyGroup  # on positions in ``indices``
    name: str

    @property
    def order(self):
        return len(self.indices)


@dataclass(frozen=True)
class GradingDecomposition:
    blocks: tuple  # tuple of sorted index tuples, the neutral block first
    group: tables.CayleyGroup  # on block positions

    @property
    def order(self):
        return len(self.blocks)


def validate(ring):
    """Check every based-ring axiom exhaustively; raise AxiomViolation on failure.

    Associativity is Light's middle-element test.  Call a middle when
    (x a) y = x (a y) for all x and y.  Middle elements form a Q-subspace
    that is closed under products, as (x (ab)) y = ((xa) b) y = (xa)(by) =
    x (a (by)) = x ((ab) y), and under duals, as the transpose symmetry
    checked first makes the dual an anti-automorphism.  So the basis
    elements known to be middle start at the unit and grow by duals and by
    the single support element of a product of two known ones that lies
    outside them (its multiple is the product minus known elements); only
    the least basis element this closure does not reach is tested directly,
    by two (n x n) @ (n x n^2) matmuls.  Once every basis element is known,
    the ring is associative; a failure is reported as (left, middle, right,
    coefficient).
    """
    n = ring.size
    N = ring.N
    if np.any(N < 0):
        i, j, k = map(int, np.argwhere(N < 0)[0])
        raise AxiomViolation("non_negative", (i, j, k))
    eye = np.eye(n, dtype=np.int64)
    if not np.array_equal(N[0], eye):
        raise AxiomViolation("unit_left")
    if not np.array_equal(N[:, 0, :], eye):
        raise AxiomViolation("unit_right")
    dual = ring.dual
    if sorted(dual) != list(range(n)):
        raise AxiomViolation("dual_not_bijective")
    perm = np.array(dual)
    not_involution = perm[perm] != np.arange(n)
    not_dual = N[:, :, 0] != eye[perm]  # N[i, j, 0] = 1 exactly when j = dual(i)
    bad = not_involution | not_dual.any(axis=1)
    if bad.any():  # the first failing i, its involution checked before its row
        i = int(np.argmax(bad))
        if not_involution[i]:
            raise AxiomViolation("dual_involution", (i,))
        raise AxiomViolation("duality", (i, int(np.argmax(not_dual[i]))))
    # transpose symmetry N[i,j,k] == N[dual(j), dual(i), dual(k)]
    if not np.array_equal(N, N[np.ix_(perm, perm, perm)].transpose(1, 0, 2)):
        raise AxiomViolation("transpose_symmetry")
    # associativity by Light's test (see the docstring); both sides are sums
    # of n products of two entries of N
    exact = N.astype(_exact_dtype(int(N.max()) ** 2 * n))
    rows = exact.reshape(n, n * n)  # [k, (y, w)] = N[k, y, w]
    support = (N != 0).reshape(n * n, n).astype(_exact_dtype(n * n))
    weights = np.ones((n, 2), dtype=support.dtype)  # [k] = (1, k): counts and names support
    weights[:, 1] = np.arange(n)
    known = np.arange(n) == 0  # the unit is middle
    while not known.all():
        # per basis pair, how many support elements lie outside, and which
        count, where = (support @ (weights * ~known[:, None])).T
        forced = (count == 1) & (known[:, None] & known).ravel()
        grown = known | known[perm]
        grown[where[forced].astype(np.intp)] = True
        if (grown == known).all():  # closure is stuck: test the least element left
            a = int(np.argmin(known))
            lhs = exact[:, a] @ rows  # [x, (y, w)]: ((x a) y)_w
            rhs = np.matmul(exact[a], exact).reshape(n, n * n)  # (x (a y))_w
            if not np.array_equal(lhs, rhs):
                x, yw = np.argwhere(lhs != rhs)[0].tolist()
                raise AxiomViolation("associativity", (x, a, *divmod(yw, n)))
            grown[a] = True
        known = grown


def _decompose(system, m, bound, dims):
    """The certified N with sum_z N[x, y, z] X[z] = P[x][y] over Z[zeta_m],
    for dimensions dims, bound = (at least every coordinate of X, of P), and
    system(q, E) = (images of X (n, n, phi(m)), x -> images of P[x]) at the
    embeddings E (``cyclo._embedding``).  N is the symmetric lift of the
    solution at the first prime above 2 max(d)^2 and 2**20 where X is
    invertible under zeta_m -> w, which proves X invertible over Q(zeta_m).

    Every prime at which det X vanishes divides its norm, at most
    (n (phi(m) bx)^2)^(n phi(m) / 2) by Hadamard's bound, bx = bound[0]; once
    the primes that failed multiply past it, det X is 0 and
    SingularCharacterSystem is raised."""
    n, above = len(dims), max(_ABOVE, 2 * max(d * d for d in dims))
    images = ((q, *system(q, E)) for q, E, _ in _embeddings(m, above))
    failed = 1
    for q, X, products in images:
        rows, pivots = _echelon(np.concatenate([X[:, :, 0], np.eye(n, dtype=X.dtype)], axis=1), q)
        if pivots[-1] < n:  # every pivot lies in X
            break
        failed *= q
        phi = X.shape[2]
        if failed * failed > (n * (phi * bound[0]) ** 2) ** (n * phi):
            raise SingularCharacterSystem(f"the {n} simple characters are dependent at the columns given")
    N = np.stack([_mulmod(products(x)[:, :, 0], rows[:, n:], q) for x in range(n)])
    N = ((N + q // 2) % q - q // 2).astype(np.int64)  # [x, y, z], symmetric residues
    _certify_decomposition(chain([(q, X, products)], images), bound, N)
    return N


def _certify_decomposition(images, bound, N):
    """Certify exactly that N >= 0 and sum_z N[x, y, z] X[z] = P[x][y], from
    the images (q, X, products) of the system at increasing primes: with
    bound = (bx, bp), the coordinates of a difference are at most
    n max|N| bx + bp, so past twice that vanishing images make it zero."""
    if (N < 0).any():
        x, y, z = np.argwhere(N < 0)[0].tolist()
        raise NonIntegralMultiplicity(f"N[{x}][{y}][{z}] = {N[x, y, z]} is negative")
    n = len(N)
    need, modulus = 2 * (n * _top(N) * bound[0] + bound[1]), 1
    for q, X, products in images:
        columns = X.reshape(n, -1)
        for x in range(n):
            bad = (_mulmod(N[x] % q, columns, q) != products(x).reshape(n, -1)).any(axis=1)
            if bad.any():
                y = int(np.flatnonzero(bad)[0])
                raise NonIntegralMultiplicity(f"N[{x}][{y}] fails the exact decomposition certificate")
        modulus *= q
        if modulus > need:
            return


def _pointwise_system(A, m, weights):
    """(system, m, bound) for _decompose with X[z][t] = weights[t] A[z][t]
    and P[x][y][t] = A[x][t] A[y][t], on coordinates A (n, n, phi(m)): Rep G
    (weights 1, A the characters) and Verlinde (weights L d_t, A = L S)."""
    weights = np.asarray(weights, dtype=object)
    top = _top(A)
    bound = top * max(map(abs, weights)), top * top * _product_bound(m)

    def system(q, E):
        images = _evaluate(A, q, E)  # [z, t, e]
        return images * (weights % q).astype(images.dtype)[:, None] % q, lambda x: images[x] * images % q

    return system, m, bound


def fp_dims(ring):
    """Per-basis Frobenius-Perron dimensions plus the global dimension:
    those ``_certified`` cached, else a power iteration's rounded candidate
    if ``_exact_dims`` passes it, else the certified numeric eigenvector."""
    if ring._dims is None:
        ring._dims = _search_dims(ring)
    return ring._dims


def _search_dims(ring):
    N = ring.N.astype(np.float64)
    A = N.sum(axis=0)
    v = np.ones(ring.size)
    for _ in range(20000):
        w, v = v, A @ v
        v /= v.max()
        if np.max(np.abs(v - w)) < 1e-15:
            break
    if v[0] <= 0:
        raise NoPositiveEigenvector()
    d = v / v[0]
    exact = _exact_dims(ring, np.rint(d).astype(np.int64).tolist())
    if exact is not None:
        return exact
    resid = np.max(np.abs(np.einsum("ijk,k->ij", N, d) - np.outer(d, d)))
    if not np.all(d > 0) or resid > 1e-10 * max(1.0, d.max() ** 2):
        raise NoPositiveEigenvector(f"residual {resid}")
    return FPDims(dims=tuple(float(x) for x in d), exact=False, total=float(np.sum(d * d)))


def _exact_dims(ring, dims):
    """The exact FPDims when the integers dims are positive and
    sum_k N[i, j, k] d_k = d_i d_j, else None: a character of a based ring
    that is positive on the basis is its Frobenius-Perron dimension
    (Etingof-Gelaki-Nikshych-Ostrik, Prop. 3.3.6)."""
    dims = tuple(map(int, dims))
    if min(dims) < 1:
        return None
    top = max(dims)
    dt = _exact_dtype(max(ring.size * _top(ring.N) * top, top * top))
    d = np.array(dims, dtype=dt)
    if not np.array_equal(ring.N.astype(dt) @ d, np.outer(d, d)):
        return None
    return FPDims(dims=dims, exact=True, total=sum(x * x for x in dims))


def _certified(labels, tensor, dims, dual=None):
    """The one certified constructor: the FusionRing on ``tensor``, every
    axiom checked (``validate``) and ``dims`` certified as its exact
    dimensions (``_exact_dims``), unless None: then ``fp_dims`` searches."""
    ring = FusionRing(labels, tensor, dual)
    validate(ring)
    if dims is not None:
        ring._dims = _exact_dims(ring, dims)
        if ring._dims is None:
            raise NonIntegralMultiplicity(f"dims {list(dims)} are not the ring's dimensions")
    return ring


def type_signature(ring):
    """Sorted (dimension, count) pairs; requires certified integer dimensions."""
    dims = fp_dims(ring)
    if not dims.exact:
        raise ValueError("type signature needs certified integer dimensions")
    return tables._tally(dims.dims)


def format_type(sig):
    return "(" + "; ".join(f"{d},{c}" for d, c in sig) + ")"


def invertibles(ring):
    """Group of the invertible basis elements x, those with x*x^* = 1,
    with a small-order name."""
    if ring._invertibles is None:
        ring._invertibles = _invertibles(ring)
    return ring._invertibles


def _invertibles(ring):
    unit = np.eye(1, ring.size, dtype=ring.N.dtype)
    inverted = (ring.N[np.arange(ring.size), list(ring.dual)] == unit).all(axis=1)
    idx = tuple(np.flatnonzero(inverted).tolist())
    block = ring.N[np.ix_(idx, idx)]  # [a, b, k]: the products of invertibles
    single = ((block != 0).sum(axis=2) == 1) & (block.max(axis=2, initial=0) == 1)
    if not single.all():
        a, b = np.argwhere(~single)[0].tolist()
        raise AxiomViolation("invertible_product", (idx[a], idx[b]))
    pos = np.full(ring.size, -1)
    pos[list(idx)] = np.arange(len(idx))
    group = tables.CayleyGroup(pos[block.argmax(axis=2)])
    return Invertibles(indices=idx, group=group, name=tables.iso_name(group))


def subring_generated(ring, seed):
    """Least based subring containing the seed indices."""
    return _generated(ring.N, ring.dual, seed)


def _generated(tensor, dual, seed):
    """Sorted indices of the least set holding the unit and the seed that is
    closed under the duality and the supports of products; tensor has no
    negative entries."""
    dual = np.asarray(dual)
    current = np.zeros(len(dual), dtype=bool)
    current[[0, *seed]] = True
    while True:
        grown = current | current[dual] | tensor[np.ix_(current, current)].any(axis=(0, 1))
        if (grown == current).all():
            return tuple(np.flatnonzero(current).tolist())
        current = grown


def adjoint_indices(ring):
    seed = np.flatnonzero(ring.N[np.arange(ring.size), list(ring.dual)].any(axis=0))
    return subring_generated(ring, seed)


def adjoint_series(ring):
    """Descending chain of index sets C >= C_ad >= ... until stationary."""
    chain = [tuple(range(ring.size))]
    while True:
        sub = ring.restrict(chain[-1])
        nxt_local = adjoint_indices(sub)
        nxt = tuple(chain[-1][i] for i in nxt_local)
        if nxt == chain[-1]:
            return chain, True
        chain.append(nxt)


def universal_grading(ring):
    """Finest faithful group grading; neutral block must equal the adjoint subring.

    The blocks are the connected components of the graph that joins j to the
    support of a*j and of j*a for every adjoint a; each product must land in
    one block, and the block products must form a group.  Inconsistencies
    are reported at the first basis pair (i, j) in row-major order.
    """
    if ring._grading is None:
        ring._grading = _universal_grading(ring)
    return ring._grading


def _universal_grading(ring):
    n = ring.size
    ad = list(adjoint_indices(ring))
    nonzero = ring.N != 0
    linked = nonzero[ad].any(axis=0) | nonzero[:, ad].any(axis=1)
    linked |= linked.T
    # label propagation: each element takes the least label among its
    # neighbours, until every component carries its least element
    label = np.arange(n)
    while True:
        new = np.minimum(label, np.where(linked, label, n).min(axis=1))
        if (new == label).all():
            break
        label = new[new]
    firsts, block = np.unique(label, return_inverse=True)  # blocks by least element
    blocks = [tuple(np.flatnonzero(block == b).tolist()) for b in range(len(firsts))]
    if blocks[0] != tuple(ad):
        raise GradingInconsistent("neutral block differs from adjoint subring")
    dt = _exact_dtype(n)  # the contraction counts at most n support elements
    indicator = (block[:, None] == np.arange(len(blocks))).astype(dt)
    lands = nonzero.astype(dt) @ indicator > 0  # [i, j, b]: i*j meets block b
    count = lands.sum(axis=2)
    target = lands.argmax(axis=2)
    # a block pair's product is read at its first basis pair in row-major order
    table = target[np.ix_(firsts, firsts)]
    clash = target != table[np.ix_(block, block)]
    bad = (count != 1) | clash
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        if count[i, j] == 0:
            raise GradingInconsistent(f"empty product at ({i},{j})")
        if count[i, j] > 1:
            spread = np.flatnonzero(lands[i, j]).tolist()
            raise GradingInconsistent(f"product ({i},{j}) spreads over blocks {spread}")
        raise GradingInconsistent(f"inconsistent block product at ({block[i]},{block[j]})")
    group = tables.CayleyGroup(table)  # the neutral block is its identity
    k = np.arange(len(blocks))
    if (table[table] != table[k[:, None, None], table[None]]).any():  # (ab)c against a(bc)
        raise GradingInconsistent("block product not associative")
    return GradingDecomposition(blocks=tuple(blocks), group=group)


def is_nilpotent(ring):
    chain, _ = adjoint_series(ring)
    return len(chain[-1]) == 1


def is_cyclically_nilpotent(ring):
    """True when iterated prime-cyclic quotient gradings reach the trivial ring.

    Recurses through index-q subgroups of the universal grading group with
    cyclic quotient; memoized on basis index subsets of the root ring.
    """
    if ring._cyclic is None:
        ring._cyclic = _is_cyclically_nilpotent(ring)
    return ring._cyclic


def _is_cyclically_nilpotent(ring):
    memo = {}

    def rec(indices):
        if indices in memo:
            return memo[indices]
        if len(indices) == 1:
            memo[indices] = True
            return True
        sub = ring if len(indices) == ring.size else ring.restrict(indices)
        grading = universal_grading(sub)
        result = False
        for q in _prime_divisors(grading.order):
            for sub_k in tables.prime_index_cyclic_subgroups(grading.group, q):
                keep = []
                for b in sub_k:
                    keep.extend(grading.blocks[b])
                neutral = tuple(sorted(indices[i] for i in keep))
                if rec(neutral):
                    result = True
                    break
            if result:
                break
        memo[indices] = result
        return result

    return rec(tuple(range(ring.size)))


def group_ring(group):
    """Pointed ring of a permutation group: basis = group elements."""
    n = group.order
    everything = np.arange(n)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    tensor[everything[:, None], everything[None, :], group.cayley_table()] = 1
    labels = tuple(a.cycle_string() for a in group.elements)
    return FusionRing(labels, tensor, tuple(group.inv.tolist()))
