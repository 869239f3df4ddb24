"""Work documents: the canonical JSON forms every pipeline reads and writes.

Documents are UTF-8 JSON with sorted keys and fixed separators, so identical
payloads serialize to identical bytes.  Rationals travel as "p/q" strings,
permutations as 1-based cycle strings.  Provenance never takes part in
document comparison.  Fusion rings are read through ``rings._certified``,
the one certified constructor, which checks the dims a document claims.
"""

from __future__ import annotations

import json
from functools import cache

from . import cyclo, rings
from .doubles import DoubleLabel, ModularData, _certify_modular
from .errors import AxiomViolation, NonIntegralMultiplicity
from .perms import PermGroup, Permutation

SCHEMA_VERSION = "1"
KINDS = {"group", "chartab", "fusionring", "matchedpair", "modulardata", "verdict", "witness"}


def document(kind, payload, command=None, extra_provenance=None):
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    provenance = {"library_version": _version()}
    if command:
        provenance["command"] = command
    if extra_provenance:
        provenance.update(extra_provenance)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": payload,
        "provenance": provenance,
    }


def _version():
    from . import __version__

    return __version__


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("a document nests deeper than the JSON parser allows") from None
    if not isinstance(doc, dict):
        raise ValueError(f"a document is a JSON object, not {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported document schema: {doc.get('schema_version')!r}")
    if doc.get("kind") not in KINDS:
        raise ValueError(f"unknown document kind {doc.get('kind')!r}")
    return doc


def same_payload(a, b):
    """Document equality with provenance ignored."""
    return (a["kind"], a["payload"]) == (b["kind"], b["payload"])


# -- groups


def group_payload(group):
    return {
        "degree": group.degree,
        "order": group.order,
        "generators": [g.cycle_string() for g in group.generators],
    }


def _check_group_payload(payload):
    """Raise ValueError unless the payload has the keys and types of a group."""
    if not (
        isinstance(payload, dict)
        and type(payload.get("degree")) is int
        and type(payload.get("order")) is int
        and _is_string_list(payload.get("generators"))
    ):
        raise ValueError("a group payload needs an int degree, an int order and generator strings")


def _is_string_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def group_from_payload(payload):
    _check_group_payload(payload)
    degree = payload["degree"]
    gens = [Permutation.parse(s, degree) for s in payload["generators"]]
    group = PermGroup.from_generators(degree, gens)
    if group.order != payload["order"]:
        raise ValueError("group payload order mismatch")
    return group


# -- character tables


def chartab_payload(table):
    encode = cache(cyclo.to_document)  # each distinct value once; equal values share one form
    return {
        "group": group_payload(table.group),
        "classes": [[rep.cycle_string(), size] for rep, size in table.classes],
        "exponent": table.exponent,
        "degrees": list(table.degrees),
        "values": [[encode(v) for v in row] for row in table.chars],
    }


# -- fusion rings


def ring_payload(ring):
    dims = rings.fp_dims(ring)
    payload = {
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "tensor": ring.N.ravel().tolist(),
    }
    if dims.exact:
        payload["dims"] = list(dims.dims)
    return payload


def _check_ring_payload(payload):
    """Raise ValueError unless the payload has the keys, types and lengths of
    a fusionring document."""
    if not isinstance(payload, dict):
        raise ValueError("fusionring payload must be an object")
    for key in ("labels", "dual", "tensor"):
        if not isinstance(payload.get(key), list):
            raise ValueError(f"fusionring payload needs {key!r} as a list")
    labels, dual, tensor = payload["labels"], payload["dual"], payload["tensor"]
    n = len(labels)
    if n == 0 or not all(isinstance(l, str) for l in labels):
        raise ValueError("fusionring labels must be a non-empty list of strings")
    if len(dual) != n or len(tensor) != n**3:
        raise ValueError(f"fusionring dual needs {n} entries and tensor {n**3}")
    if not set(map(type, dual)) | set(map(type, tensor)) <= {int}:  # no bools, no floats
        raise ValueError("fusionring dual and tensor entries must be integers")
    dims = payload.get("dims")
    if dims is not None and not (isinstance(dims, list) and len(dims) == n and set(map(type, dims)) <= {int}):
        raise ValueError(f"fusionring dims must be a list of {n} integers")


def ring_from_payload(payload):
    """The fusion ring of an input document, built by ``rings._certified``;
    a malformed document, a broken axiom or dims that are not the exact
    dimensions of the tensor raise ValueError."""
    _check_ring_payload(payload)
    try:
        return rings._certified(payload["labels"], payload["tensor"], payload.get("dims"), payload["dual"])
    except (AxiomViolation, OverflowError) as exc:
        raise ValueError(f"fusionring document: {exc}") from exc
    except NonIntegralMultiplicity:
        raise ValueError(f"fusionring dims {payload['dims']} are not the tensor's dimensions") from None


# -- matched pairs


def pair_payload(mp):
    return {
        "ambient": group_payload(mp.ambient),
        "f_generators": [g.cycle_string() for g in mp.f.generators],
        "gamma_generators": [g.cycle_string() for g in mp.gamma.generators],
    }


def pair_from_payload(payload):
    """The matched pair of an input document; a malformed document raises ValueError."""
    from .bicross import matched_pair_from_factorization

    if not isinstance(payload, dict):
        raise ValueError("matchedpair payload must be an object")
    for key in ("f_generators", "gamma_generators"):
        if not _is_string_list(payload.get(key)):
            raise ValueError(f"matchedpair payload needs {key!r} as a list of strings")
    ambient = group_from_payload(payload.get("ambient"))
    degree = ambient.degree
    f = ambient.subgroup([Permutation.parse(s, degree) for s in payload["f_generators"]])
    gamma = ambient.subgroup(
        [Permutation.parse(s, degree) for s in payload["gamma_generators"]]
    )
    return matched_pair_from_factorization(ambient, f, gamma)


# -- modular data


def modular_payload(md):
    encode = cache(cyclo.to_document)
    return {
        "group": group_payload(md.group) if md.group is not None else None,
        "labels": [[l.class_rep.cycle_string(), l.char_row] for l in md.labels],
        "dims": list(md.dims),
        "global_dim": md.global_dim,
        "s": [[encode(v) for v in row] for row in md.S],
        "t": [encode(v) for v in md.T],
    }


def _degree_of_cycle_strings(strings):
    import re

    points = [int(tok) for s in strings for tok in re.findall(r"\d+", s)]
    return max(points) if points else 1


def _check_modular_payload(payload):
    """Raise ValueError unless the payload has the keys, types and lengths of
    a modulardata document (entries of s and t are checked as they parse)."""
    if not isinstance(payload, dict):
        raise ValueError("modulardata payload must be an object")
    if payload.get("group") is not None:
        _check_group_payload(payload["group"])
    for key, kind in (("labels", list), ("dims", list), ("s", list), ("t", list), ("global_dim", int)):
        if not isinstance(payload.get(key), kind) or isinstance(payload[key], bool):
            raise ValueError(f"modulardata payload needs {key!r} as a {kind.__name__}")
    labels, dims, s, t = payload["labels"], payload["dims"], payload["s"], payload["t"]
    n = len(labels)
    if n == 0:
        raise ValueError("modulardata payload has no labels")
    if not all(
        isinstance(l, list) and len(l) == 2 and isinstance(l[0], str) and type(l[1]) is int
        for l in labels
    ):
        raise ValueError("modulardata labels must be [class representative, row] pairs")
    if not all(type(d) is int for d in dims):
        raise ValueError("modulardata dims must be integers")
    if len(dims) != n or len(t) != n or len(s) != n:
        raise ValueError(f"modulardata dims, s and t need one entry per label ({n})")
    if not all(isinstance(row, list) and len(row) == n for row in s):
        raise ValueError(f"every row of the modulardata s needs {n} entries")


def modular_from_payload(payload):
    _check_modular_payload(payload)
    group = None
    if payload.get("group") is not None:
        group = group_from_payload(payload["group"])
        degree = group.degree
    else:
        degree = _degree_of_cycle_strings(rep for rep, _ in payload["labels"])
    reps = {rep: Permutation.parse(rep, degree) for rep in dict.fromkeys(rep for rep, _ in payload["labels"])}
    labels = tuple(
        DoubleLabel(class_index=-1, class_rep=reps[rep], char_row=int(row), dim=int(d))
        for (rep, row), d in zip(payload["labels"], payload["dims"])
    )
    forms, slots = [], {}  # each distinct form once, keyed by its JSON content, types included

    def slot(v):
        key = _form_key(v) or id(v)
        if key not in slots:
            forms.append(cyclo._document_form(v))
            slots[key] = len(forms) - 1
        return slots[key]

    s = [[slot(v) for v in row] for row in payload["s"]]
    t = [slot(v) for v in payload["t"]]
    values = list(map(cyclo._value, forms))
    md = ModularData(
        group=group,
        labels=labels,
        S=tuple(tuple(values[k] for k in row) for row in s),
        T=tuple(values[k] for k in t),
        dims=tuple(int(d) for d in payload["dims"]),
        global_dim=int(payload["global_dim"]),
        charge_conjugation=(),
    )
    md._encoding = tuple(cyclo._indexed_coordinates(forms, index) for index in (s, t))
    md.charge_conjugation = _certify_modular(md)
    return md


def _form_key(v):
    """(conductor, e, "p/q", ...) for a cyclotomic form whose JSON types are
    those of :func:`cyclo.to_document`, None for any other: equal keys are
    equal forms, and 1 never meets true or 1.0 (a repr would tell them
    apart as well, at twice the cost)."""
    try:
        conductor, pairs = v["conductor"], v["coeffs"]
    except (TypeError, KeyError):
        return None
    if type(conductor) is not int or type(pairs) is not list:
        return None
    key = [conductor]
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not str:
            return None
        key += pair
    return tuple(key)


# -- verdicts and witnesses


def verdict_payload(verdict, analysis=None):
    payload = {
        "verdict": verdict.verdict,
        "trace": [list(entry) for entry in verdict.trace],
    }
    if analysis:
        payload["analysis"] = analysis
    return payload


def witness_payload(found, pairs=None):
    payload = {"found": bool(found)}
    if found:
        payload["map"] = [list(p) for p in pairs]
    return payload
