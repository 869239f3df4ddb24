"""Output checks for benchmark jobs, independent of the program's own code.

Two levels:

- ``invariants`` reduces a job's documents to facts that do not depend on
  the seed (orders, degree multisets, ring types, verdicts and the rule that
  fired, found versus refuted).  They are compared with the values committed
  in ``expected/<workload>.json`` for every seed.
- ``verify`` re-checks each document with numpy: based-ring axioms of every
  emitted fusion ring, degree sums, and every returned witness against the
  two inputs it relates.

``job_digest`` hashes the canonical payloads (provenance left out, as in
``docs.same_payload``) so that the default seed's documents can be compared
byte for byte with the committed set.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np


def payload_digest(text):
    doc = json.loads(text)
    canon = json.dumps([doc["kind"], doc["payload"]], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def job_digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(payload_digest(outputs[name]).encode())
    return h.hexdigest()[:24]


def _payload(text):
    return json.loads(text)["payload"]


def _ring_tensor(payload):
    n = len(payload["labels"])
    return np.asarray(payload["tensor"], dtype=np.int64).reshape(n, n, n)


def _type_of(dims):
    return sorted(Counter(dims).items())


def invariants(kind, outputs):
    """Seed-independent facts of a finished job, as plain JSON values."""
    p = {name: _payload(text) for name, text in outputs.items()}
    if kind == "rep":
        return {
            "order": p["group.json"]["order"],
            "degrees": sorted(p["chartab.json"]["degrees"]),
            "ring_size": len(p["ring.json"]["labels"]),
            "verdict": _verdict(p["verdict.json"]),
        }
    if kind == "md":
        md = p["md1.json"]
        return {
            "labels": len(md["labels"]),
            "global_dim": md["global_dim"],
            "dims": sorted(md["dims"]),
            "t": sorted(json.dumps(t, sort_keys=True) for t in md["t"]),
            "ring_type": _type_of(p["ring.json"]["dims"]),
            "found": p["witness.json"]["found"],
        }
    if kind == "pair":
        return {
            "order": p["pair.json"]["ambient"]["order"],
            "type": p["type.json"]["type"],
            "ring_type": _type_of(p["ring.json"].get("dims", [])),
            "dual_invertibles": p["dualinv.json"]["dual_invertibles"],
            "verdict": _verdict(p["verdict.json"]),
            "found": p["witness.json"]["found"],
        }
    if kind == "equiv":
        return {"found": p["witness.json"]["found"]}
    raise ValueError(kind)


def _verdict(payload):
    trace = payload["trace"]
    rule = trace[-1][0] if payload["verdict"] != "UNKNOWN" else None
    return {"verdict": payload["verdict"], "rule": rule, "analysis": payload.get("analysis")}


def verify(kind, inputs, outputs):
    """List of problems found by independent re-checks (empty when sound)."""
    docs = {**inputs, **outputs}
    p = {name: _payload(text) for name, text in docs.items()}
    problems = []
    for name, payload in p.items():
        if "tensor" in payload:
            problems += [f"{name}: {m}" for m in _ring_axioms(payload)]
    if kind == "rep":
        order = p["group.json"]["order"]
        if sum(d * d for d in p["chartab.json"]["degrees"]) != order:
            problems.append("chartab: degree squares do not sum to |G|")
        if len(p["chartab.json"]["degrees"]) != len(p["chartab.json"]["classes"]):
            problems.append("chartab: table is not square")
    elif kind == "md":
        for name in ("md1.json", "md2.json"):
            md = p[name]
            if sum(d * d for d in md["dims"]) != md["global_dim"]:
                problems.append(f"{name}: dims do not square-sum to the global dimension")
            if md["global_dim"] != md["group"]["order"] ** 2:
                problems.append(f"{name}: global dimension is not |G|^2")
        problems += _check_s_witness(p["md1.json"], p["md2.json"], p["witness.json"])
    elif kind == "pair":
        order = p["pair.json"]["ambient"]["order"]
        if sum(c * d * d for d, c in p["type.json"]["type"]) != order:
            problems.append("bicross --type: dim^2 sum is not |G|")
        problems += _check_ring_witness(p["ring.json"], p["ring2.json"], p["witness.json"])
    elif kind == "equiv":
        problems += _check_ring_witness(p["a.json"], p["b.json"], p["witness.json"])
    return problems


def _ring_axioms(payload):
    n = len(payload["labels"])
    N = _ring_tensor(payload)
    dual = np.asarray(payload["dual"])
    eye = np.eye(n, dtype=np.int64)
    out = []
    if (N < 0).any():
        out.append("negative structure constant")
    if not (np.array_equal(N[0], eye) and np.array_equal(N[:, 0, :], eye)):
        out.append("basis element 0 is not the unit")
    if not np.array_equal(N[:, :, 0], eye[:, dual]):
        out.append("N_ij^0 is not delta(j, dual i)")
    left = np.tensordot(N, N, axes=([2], [0]))  # (x_i x_j) x_k
    right = np.tensordot(N, N, axes=([2], [1])).transpose(2, 0, 1, 3)  # x_i (x_j x_k)
    if not np.array_equal(left, right):
        out.append("not associative")
    dims = payload.get("dims")
    if dims is not None and all(isinstance(d, int) for d in dims):
        d = np.asarray(dims, dtype=np.int64)
        if not np.array_equal(N @ d, np.outer(d, d)):
            out.append("dims are not a character")
    return out


def _check_ring_witness(r1, r2, witness):
    if not witness["found"]:
        return []
    pos1 = {l: i for i, l in enumerate(r1["labels"])}
    pos2 = {l: i for i, l in enumerate(r2["labels"])}
    f = np.empty(len(pos1), dtype=np.int64)
    for a, b in witness["map"]:
        f[pos1[a]] = pos2[b]
    if sorted(f.tolist()) != list(range(len(f))) or f[0] != 0:
        return ["witness is not a unit-fixing bijection"]
    N1, N2 = _ring_tensor(r1), _ring_tensor(r2)
    if not np.array_equal(N2[np.ix_(f, f, f)], N1):
        return ["witness does not carry N1 onto N2"]
    if not np.array_equal(f[np.asarray(r1["dual"])], np.asarray(r2["dual"])[f]):
        return ["witness does not commute with duality"]
    return []


def _check_s_witness(md1, md2, witness):
    if not witness["found"]:
        return []
    names = lambda md: [f"({rep},{row})" for rep, row in md["labels"]]
    pos1 = {l: i for i, l in enumerate(names(md1))}
    pos2 = {l: i for i, l in enumerate(names(md2))}
    f = [0] * len(pos1)
    for a, b in witness["map"]:
        f[pos1[a]] = pos2[b]
    if sorted(f) != list(range(len(f))):
        return ["S-witness is not a bijection"]
    key = lambda v: json.dumps(v, sort_keys=True)
    s1 = [[key(v) for v in row] for row in md1["s"]]
    s2 = [[key(v) for v in row] for row in md2["s"]]
    if any(s1[x][y] != s2[f[x]][f[y]] for x in range(len(f)) for y in range(len(f))):
        return ["S-witness does not carry S1 onto S2"]
    return []
