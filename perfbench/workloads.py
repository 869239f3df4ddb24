"""Seeded input generator for the three benchmark workloads.

A job is one input's whole command chain.  Every pass over a workload gets
fresh inputs drawn from ``(workload, seed, pass)``: group generators and
factorizations are conjugated by a random point permutation and written as
``custom:`` specs, and ring bases are relabelled by a unit-fixing permutation.
Relabelling changes the documents but not the mathematics, so each pass does
the same work on inputs that no input-keyed cache in the program has seen.

The program only ever receives the specs and documents produced here.  This
module uses the standard library and numpy and never imports the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("rep-pipeline", "modular-data", "bicross-search")

# Search-node cap for the bicross-search workload, exported to the program as
# WORKBENCH_NODE_BUDGET.  Its searches stay far below it: the order-16
# negatives, the hardest, were refuted within 20k nodes on 300 of 300
# relabellings tried, the pair-chain searches within 5k on 60 of 60.  The
# relabelled S4 and S3xS3 group rings and the order-32 and order-48
# negatives exceed 20k nodes on some relabellings and the relabelled A5
# group ring on all, so they are not timed; A5 is the self-check's forced
# budget hit.
NODE_BUDGET = {"bicross-search": 100_000}


@dataclass
class Job:
    """One input's command chain.

    ``steps`` are ``("cli", argv, out)`` (run ``fusionrings.cli.main(argv)``,
    write stdout to file ``out``) or ``("relabel", src, dst, key)`` (write to
    ``dst`` a copy of fusion-ring document ``src`` whose basis is relabelled
    by ``relabel_perm(key, n)``).  An argv entry ``"@name"`` is the path of
    file ``name`` in the job's directory.
    """

    name: str
    kind: str
    steps: list
    inputs: dict = field(default_factory=dict)


# -- permutation groups as 1-based generator cycles --------------------------


def _symmetric(n):
    return n, [[(1, 2)], [tuple(range(1, n + 1))]]


def _alternating(n):
    long = tuple(range(1, n + 1)) if n % 2 else tuple(range(2, n + 1))
    return n, [[(1, 2, 3)], [long]]


def _cyclic(n):
    return n, [[tuple(range(1, n + 1))]]


def _dihedral(n):
    refl = [(i + 1, n - i + 1) for i in range(1, (n + 1) // 2) if i != n - i]
    return n, [[tuple(range(1, n + 1))], refl]


_F21 = (7, [[(1, 2, 3, 4, 5, 6, 7)], [(2, 3, 5), (4, 7, 6)]])
_F42 = (7, [[(1, 2, 3, 4, 5, 6, 7)], [(2, 4, 3, 7, 5, 6)]])
_PSL32 = (7, [[(1, 2, 3, 4, 5, 6, 7)], [(1, 2), (3, 6)]])
_PGL27 = (8, [[(1, 2, 3, 4, 5, 6, 7)], [(2, 4, 3, 7, 5, 6)], [(1, 8), (2, 7), (3, 4), (5, 6)]])
_AGL18 = (8, [[(1, 2), (3, 4), (5, 6), (7, 8)], [(2, 3, 5, 4, 7, 8, 6)]])
_AGAMMAL18 = (8, _AGL18[1] + [[(3, 5, 7), (4, 6, 8)]])

# rep-pipeline: group -> chartab -> repring -> analyze.  Orders up to 5040;
# abelian and dihedral groups stay at 8 classes or fewer so that cyclotomic
# arithmetic in `repring` does not take over the workload.
REP_GROUPS = [
    ("S5", _symmetric(5)),
    ("S6", _symmetric(6)),
    ("S7", _symmetric(7)),
    ("A5", _alternating(5)),
    ("A6", _alternating(6)),
    ("A7", _alternating(7)),
    ("F21", _F21),
    ("F42", _F42),
    ("PSL(3,2)", _PSL32),
    ("PGL(2,7)", _PGL27),
    ("AGL(1,8)", _AGL18),
    ("AGammaL(1,8)", _AGAMMAL18),
    ("D4", _dihedral(4)),
    ("D5", _dihedral(5)),
    ("D6", _dihedral(6)),
    ("D7", _dihedral(7)),
    ("C5", _cyclic(5)),
    ("C6", _cyclic(6)),
    ("C8", _cyclic(8)),
]

# modular-data: double G -> verlinde -> double G' -> sequiv G G'.  Doubles
# of groups with more labels (C4, D4, A5, ...) take 10-25 s per job, more
# than a whole run may spend; small groups repeat under fresh relabellings.
# The mix sets where the job percentiles fall: of 8 jobs a pass, job_tail_s
# (10/3 jobs a pass beyond it) and job_p50_s both land inside the four
# S3 and D3 jobs, not on the edge between two kinds of job.
MD_GROUPS = [
    ("A4", _alternating(4)),
    ("C3", _cyclic(3)),
    ("S3-a", _symmetric(3)),
    ("S3-b", _symmetric(3)),
    ("D3-a", _dihedral(3)),
    ("D3-b", _dihedral(3)),
    ("C2-a", _cyclic(2)),
    ("C2-b", _cyclic(2)),
]

# bicross-search pair chains: pair -> bicross --type / --ring /
# --dual-invertibles -> analyze -> equiv against a relabelled copy.
# Each factorization G = F * Gamma appears with its dual Gamma * F.
_T12 = (None, [[(1, 2)]])
PAIRS = [
    ("K5", _alternating(5), _cyclic(5), _alternating(4)),
    ("L5", _alternating(5), _alternating(4), _cyclic(5)),
    ("J5", _symmetric(5), _cyclic(5), _symmetric(4)),
    ("H5", _symmetric(5), _symmetric(4), _cyclic(5)),
    ("B5", _symmetric(5), _T12, _alternating(5)),
    ("B5-dual", _symmetric(5), _alternating(5), _T12),
    ("S4=C4.S3", _symmetric(4), _cyclic(4), _symmetric(3)),
    ("S4=S3.C4", _symmetric(4), _symmetric(3), _cyclic(4)),
    ("S6=C6.S5", _symmetric(6), _cyclic(6), _symmetric(5)),
    ("S6=S5.C6", _symmetric(6), _symmetric(5), _cyclic(6)),
]
# Chains run under more than one relabelling a pass.  The mix sets where
# the job percentiles fall: of 18 jobs a pass, job_tail_s (10/3 jobs a
# pass beyond it) lands inside the nine S6=C6.S5 samples, whose cost
# hardly depends on the labelling, and job_p50_s inside the K5 samples,
# not among the J5, B5 and negative equiv jobs, whose search cost does.
PAIR_COPIES = {"K5": 3, "S6=C6.S5": 3}


def _closure(degree, gens):
    """All elements of the group generated by 0-based image tuples."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = tuple(g[x] for x in a)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return sorted(seen)


def _images(degree, cycles):
    img = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            img[x - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


def _perm_table(degree, gen_cycles):
    els = _closure(degree, [_images(degree, c) for c in gen_cycles])
    idx = {e: i for i, e in enumerate(els)}
    # (a * b)(x) = b(a(x)), the program's right-action convention
    return [[idx[tuple(b[x] for x in a)] for b in els] for a in els]


def _c4_semidirect_c4():
    els = [(i, j) for i in range(4) for j in range(4)]
    idx = {e: k for k, e in enumerate(els)}
    mul = lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)
    return [[idx[mul(x, y)] for y in els] for x in els]


def _q8_times_c2():
    units = "1ijk"
    rule = {
        ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }

    def qmul(x, y):
        if x[1] == "1":
            return (x[0] * y[0], y[1])
        if y[1] == "1":
            return (x[0] * y[0], x[1])
        s, u = rule[(x[1], y[1])]
        return (x[0] * y[0] * s, u)

    els = [(s, u, c) for s in (1, -1) for u in units for c in (0, 1)]
    idx = {e: k for k, e in enumerate(els)}

    def mul(x, y):
        s, u = qmul(x[:2], y[:2])
        return (s, u, (x[2] + y[2]) % 2)

    return [[idx[mul(x, y)] for y in els] for x in els]


# equiv on pointed group rings: relabelled positives (a witness exists) and
# same-fingerprint negatives (refuted only by exhaustive search).
GROUP_RING_EQUIV = [
    ("D12-pos-a", "D12", "D12"),
    ("D12-pos-b", "D12", "D12"),
    ("C4:C4~Q8xC2-a", "C4:C4", "Q8xC2"),
    ("C4:C4~Q8xC2-b", "C4:C4", "Q8xC2"),
]


def group_table(name):
    """Cayley table (identity at index 0) of a group used as a pointed ring."""
    if name == "D12":
        return _perm_table(*_dihedral(12))
    if name == "A5":
        return _perm_table(*_alternating(5))
    if name == "C4:C4":
        return _c4_semidirect_c4()
    if name == "Q8xC2":
        return _q8_times_c2()
    raise KeyError(name)


# -- documents ----------------------------------------------------------------


def ring_document(labels, tensor, dual, dims=None):
    payload = {
        "labels": list(labels),
        "dual": [int(d) for d in dual],
        "tensor": [int(x) for x in np.asarray(tensor).flatten()],
    }
    if dims is not None:
        payload["dims"] = list(dims)
    doc = {
        "schema_version": "1",
        "kind": "fusionring",
        "payload": payload,
        "provenance": {"generator": "perfbench"},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def group_ring_document(table, perm):
    """Pointed ring of a Cayley table, basis element g renamed to perm[g]."""
    n = len(table)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    t = np.asarray(table)
    tensor[np.arange(n)[:, None], np.arange(n)[None, :], t] = 1
    dual = [row.index(0) for row in table]
    return relabel_ring(
        ring_document([f"g{i}" for i in range(n)], tensor, dual, [1] * n), perm
    )


def relabel_ring(text, perm):
    """Fusion-ring document with basis index i renamed to perm[i] (perm[0] == 0)."""
    payload = json.loads(text)["payload"]
    n = len(payload["labels"])
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    tensor = np.asarray(payload["tensor"], dtype=np.int64).reshape(n, n, n)
    dual = np.asarray(payload["dual"])
    dims = payload.get("dims")
    return ring_document(
        [payload["labels"][i] for i in inv],
        tensor[np.ix_(inv, inv, inv)],
        perm[dual[inv]],
        None if dims is None else [dims[i] for i in inv],
    )


# -- seeded relabelling -------------------------------------------------------


def _conjugate(cycles, sigma):
    return [tuple(sigma[x - 1] + 1 for x in cyc) for cyc in cycles]


def _spec(degree, gen_cycles, sigma):
    gens = [
        "".join("(" + " ".join(map(str, c)) + ")" for c in _conjugate(g, sigma))
        for g in gen_cycles
    ]
    return f"custom:{degree}:" + "|".join(gens)


def _point_perm(rng, degree):
    return rng.sample(range(degree), degree)


def _unit_fixing_perm(rng, n):
    return [0] + rng.sample(range(1, n), n - 1)


def make_jobs(workload, seed, pass_index):
    """The jobs of one pass; the same arguments always give the same jobs."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    jobs = []
    if workload == "rep-pipeline":
        for name, (degree, gens) in REP_GROUPS:
            spec = _spec(degree, gens, _point_perm(rng, degree))
            jobs.append(Job(name, "rep", [
                ("cli", ["group", spec], "group.json"),
                ("cli", ["chartab", spec], "chartab.json"),
                ("cli", ["repring", spec], "ring.json"),
                ("cli", ["analyze", "@ring.json"], "verdict.json"),
            ]))
    elif workload == "modular-data":
        for name, (degree, gens) in MD_GROUPS:
            spec1 = _spec(degree, gens, _point_perm(rng, degree))
            spec2 = _spec(degree, gens, _point_perm(rng, degree))
            jobs.append(Job(name, "md", [
                ("cli", ["double", spec1], "md1.json"),
                ("cli", ["verlinde", "@md1.json"], "ring.json"),
                ("cli", ["double", spec2], "md2.json"),
                ("cli", ["sequiv", "@md1.json", "@md2.json"], "witness.json"),
            ]))
    elif workload == "bicross-search":
        for name, *groups in PAIRS:
            copies = PAIR_COPIES.get(name, 1)
            for k in range(copies):
                label = f"{name}-{'abc'[k]}" if copies > 1 else name
                jobs.append(_pair_job(label, *groups, rng))
        for name, left, right in GROUP_RING_EQUIV:
            jobs.append(equiv_job(name, left, right, rng))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def _pair_job(name, ambient, f, gamma, rng):
    degree = ambient[0]
    sigma = _point_perm(rng, degree)
    specs = [_spec(degree, g, sigma) for g in (ambient[1], f[1], gamma[1])]
    # the ring's size is known only once it exists, so the relabel step
    # carries a seeded key and draws its permutation at run time
    return Job(name, "pair", [
        ("cli", ["pair", *specs], "pair.json"),
        ("cli", ["bicross", "@pair.json", "--type"], "type.json"),
        ("cli", ["bicross", "@pair.json", "--ring"], "ring.json"),
        ("cli", ["bicross", "@pair.json", "--dual-invertibles"], "dualinv.json"),
        ("cli", ["analyze", "@ring.json"], "verdict.json"),
        ("relabel", "ring.json", "ring2.json", rng.random()),
        ("cli", ["equiv", "@ring.json", "@ring2.json"], "witness.json"),
    ])


def equiv_job(name, left, right, rng):
    t1, t2 = group_table(left), group_table(right)
    return Job(
        name,
        "equiv",
        [("cli", ["equiv", "@a.json", "@b.json"], "witness.json")],
        {
            "a.json": group_ring_document(t1, _unit_fixing_perm(rng, len(t1))),
            "b.json": group_ring_document(t2, _unit_fixing_perm(rng, len(t2))),
        },
    )


def relabel_perm(key, n):
    """Unit-fixing permutation of size n drawn from a job's stored key."""
    return _unit_fixing_perm(random.Random(key), n)
