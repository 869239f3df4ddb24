"""Work documents: the canonical JSON forms every pipeline reads and writes.

Documents are UTF-8 JSON with sorted keys and fixed separators, so identical
payloads serialize to identical bytes.  Rationals travel as "p/q" strings,
permutations as 1-based cycle strings.  Provenance never takes part in
document comparison.  Fusion rings are read through ``rings._certified``,
the one certified constructor, which checks the dims a document claims.

The tensor of a fusionring document, n**3 integers, travels as an int64
array: ``dumps_ring`` writes its digits with numpy, byte for byte what
``dumps`` writes, and ``loads_ring`` decodes a canonical tensor with numpy.
Any other text, valid JSON or not, goes through ``loads``, so it is read as
before or refused with the same error.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np

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
    return _checked(doc)


def _checked(doc):
    """The parsed document; ValueError unless it is an object of our schema
    version and of one of our kinds."""
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
    return _ring_payload(ring, ring.N.ravel().tolist())


def _ring_payload(ring, tensor):
    dims = rings.fp_dims(ring)
    payload = {"labels": list(ring.labels), "dual": list(ring.dual), "tensor": tensor}
    if dims.exact:
        payload["dims"] = list(dims.dims)
    return payload


def dumps_ring(ring, command=None):
    """``dumps(document("fusionring", ring_payload(ring), command))``, byte for
    byte, with the tensor written by numpy: the rest of the document is
    encoded with NaN in the tensor's place, and ``"tensor":NaN`` occurs in it
    only there, as a quote inside an encoded string is escaped."""
    if ring.N.min() < 0:  # no validated ring has a negative entry
        return dumps(document("fusionring", ring_payload(ring), command))
    text = dumps(document("fusionring", _ring_payload(ring, float("nan")), command))
    head, tail = text.split('"tensor":NaN', 1)
    return f'{head}"tensor":[{_digits(ring.N.ravel())}]{tail}'


def _digits(values):
    """Non-negative int64 values in decimal, comma-separated, as json writes
    them.  Each value fills a row of right-aligned digits and a comma, one
    numpy pass per digit column; bytes that hold no digit are dropped."""
    width = len(str(int(values.max())))
    cells = np.zeros((values.size, width + 1), dtype=np.uint8)
    cells[:, width] = ord(",")
    for col in range(width - 1, -1, -1):
        rest = values // 10  # a floor division by 10 is cheaper than a remainder
        cells[:, col] = ord("0") + values - 10 * rest
        if col < width - 1:
            cells[values == 0, col] = 0
        values = rest
    text = cells.ravel() if width == 1 else cells[cells > 0]
    return text[:-1].tobytes().decode("ascii")


_TENSOR = '"tensor":['


def loads_ring(text):
    """``loads(text)``, except that the tensor of a canonical fusionring
    document arrives as an int64 array, decoded by numpy; any other text
    goes to ``loads``, so every input gives the same document or the same
    error."""
    doc = _decoded_ring(text)
    return loads(text) if doc is None else _checked(doc)


def _decoded_ring(text):
    """The JSON value of text with the payload's tensor as an int64 array, or
    None unless the first ``"tensor":[...]`` holds canonical integers only
    and, read as NaN, is the payload's tensor and the text's only NaN or
    Infinity.  Then NaN stood where json reads a value, so the whole text is
    JSON with that tensor in that place exactly when the rest is."""
    start = text.find(_TENSOR) + len(_TENSOR)
    end = text.find("]", start) if start >= len(_TENSOR) else -1
    tensor = _canonical_integers(text[start:end]) if end > 0 else None
    if tensor is None:
        return None
    sentinel, calls = object(), []

    def constant(token):
        calls.append(token)
        return sentinel

    try:
        doc = json.loads(f"{text[:start - 1]}NaN{text[end + 1:]}", parse_constant=constant)
    except (ValueError, RecursionError):
        return None
    payload = doc.get("payload") if isinstance(doc, dict) else None
    if len(calls) != 1 or not isinstance(payload, dict) or payload.get("tensor") is not sentinel:
        return None
    payload["tensor"] = tensor
    return doc


def _canonical_integers(span):
    """The int64 entries of span, or None unless it is a comma-separated list
    of JSON integers without sign or leading zero, at most 18 digits each."""
    if not span.isascii():
        return None
    raw = np.frombuffer(f",{span},".encode("ascii"), dtype=np.uint8)  # every entry between commas
    code, comma = raw - ord("0"), raw == ord(",")
    if not ((code < 10) | comma).all() or (comma[1:] & comma[:-1]).any():  # a stray byte, an empty entry
        return None
    if (comma[:-2] & (code[1:-1] == 0) & ~comma[2:]).any():  # a leading zero
        return None
    last = np.flatnonzero(comma[1:] & ~comma[:-1])  # each entry's units digit
    values = code[last].astype(np.int64)
    entry = np.flatnonzero(~comma[last - 1])  # the entries with a tens digit
    pos = last[entry] - 1
    for power in 10 ** np.arange(1, 18, dtype=np.int64):
        if not entry.size:
            return values
        values[entry] += code[pos] * power
        more = ~comma[pos - 1]
        entry, pos = entry[more], pos[more] - 1
    return None if entry.size else values


def _check_ring_payload(payload):
    """Raise ValueError unless the payload has the keys, types and lengths of
    a fusionring document."""
    if not isinstance(payload, dict):
        raise ValueError("fusionring payload must be an object")
    tensor = payload.get("tensor")
    decoded = isinstance(tensor, np.ndarray)  # int64 entries, from loads_ring
    for key in ("labels", "dual", "tensor"):
        if not (isinstance(payload.get(key), list) or key == "tensor" and decoded):
            raise ValueError(f"fusionring payload needs {key!r} as a list")
    labels, dual = payload["labels"], payload["dual"]
    n = len(labels)
    if n == 0 or not all(isinstance(l, str) for l in labels):
        raise ValueError("fusionring labels must be a non-empty list of strings")
    if len(dual) != n or len(tensor) != n**3:
        raise ValueError(f"fusionring dual needs {n} entries and tensor {n**3}")
    types = set(map(type, dual))
    if not decoded:
        types |= set(map(type, tensor))
    if not types <= {int}:  # no bools, no floats
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
        DoubleLabel(class_rep=reps[rep], char_row=int(row), dim=int(d))
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
