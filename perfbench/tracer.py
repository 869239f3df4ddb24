"""Traced runs: spans around calls into each fusionrings module, from outside.

``Tracer.install`` wraps every public function of each module in the module
that defines it and in every module that imported it by name (``cli``,
``doubles``, ``bicross``, ``suite``, ``catalog`` and ``solvability`` use
``from .x import y``), plus the few methods that carry a per-layer metric.
``uninstall`` puts every original object back, so untraced passes run the
unmodified program.

A span's self time is its duration minus the time covered by its child
spans.  ``Cyclotomic`` operators are timed as children of the calling span,
outermost call only, and aggregated instead of stored; ``Permutation.__mul__``
is counted, not timed.  Function spans are kept in memory as
``(id, parent, name, start, end)`` and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = (
    "perms", "tables", "cyclo", "chartab", "rings", "equivalence",
    "solvability", "catalog", "bicross", "doubles", "docs", "cli", "suite",
)

# Function -> metric bucket.  Unlisted public functions of layer L fall in
# "L.other"; every bucket counts toward its layer's self time.
BUCKETS = {
    "perms.PermGroup.from_generators": "perms.closure",
    "perms.PermGroup.subgroup": "perms.closure",
    "perms.PermGroup.conjugacy_classes": "perms.classes",
    "perms.PermGroup.class_index_map": "perms.classes",
    "perms.PermGroup.centralizer_of": "perms.classes",
    "chartab.character_table": "chartab.table",
    "chartab.rep_g_fusion_ring": "chartab.rep_ring",
    "doubles.double_modular_data": "doubles.build",
    "doubles.verlinde_fusion": "doubles.verlinde",
    "doubles.s_equivalence": "doubles.sequiv",
    "docs.dumps": "docs.dump",
    "docs.loads": "docs.load",
    "docs.group_from_payload": "docs.load",
    "docs.ring_from_payload": "docs.load",
    "docs.pair_from_payload": "docs.load",
    "docs.modular_from_payload": "docs.load",
    "bicross.matched_pair_from_factorization": "bicross.pair",
    "bicross.split_irreps": "bicross.irreps",
    "bicross.split_type": "bicross.irreps",
    "bicross.split_fusion_ring": "bicross.ring",
    "bicross.dual_invertibles": "bicross.dual_inv",
    "equivalence.fingerprint": "equivalence.fingerprint",
    "equivalence.find_equivalence": "equivalence.search",
    "rings.validate": "rings.validate",
    "rings.fp_dims": "rings.fp_dims",
    "rings.invertibles": "rings.structure",
    "rings.invertible_stabilizer": "rings.structure",
    "rings.subring_generated": "rings.structure",
    "rings.adjoint_indices": "rings.structure",
    "rings.adjoint_series": "rings.structure",
    "rings.universal_grading": "rings.structure",
    "rings.is_nilpotent": "rings.structure",
    "rings.is_cyclically_nilpotent": "rings.structure",
    "catalog.default_catalog": "catalog.build",
    "catalog.CatalogEntry.type_signature": "catalog.build",
    "catalog.CatalogEntry.ring": "catalog.build",
}

# Buckets whose inclusive time (children counted, outermost spans only) is
# also kept: building the catalog is mostly chartab and bicross work.
INCLUSIVE = ("catalog.build",)

METHODS = {
    "perms": {"PermGroup": ("from_generators", "subgroup", "conjugacy_classes",
                            "class_index_map", "centralizer_of")},
    "catalog": {"CatalogEntry": ("type_signature", "ring")},
}

# Cyclotomic operator -> call counter; every one of them is timed as cyclo.
CYCLO_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add", "__mul__": "mul", "__rmul__": "mul", "inverse": "inverse",
    "__truediv__": "inverse", "__rtruediv__": "inverse", "conjugate": "other",
    "galois": "other",
}

# Counters fed from a call's result: qualname -> [(counter, result -> int)].
RESULT_COUNTS = {
    "perms.PermGroup.from_generators": [("perms.elements", lambda g: g.order)],
    "perms.PermGroup.subgroup": [("perms.elements", lambda g: g.order)],
    "chartab.character_table": [("chartab.tables", lambda t: 1),
                                ("chartab.classes", lambda t: t.num_classes)],
    "doubles.double_modular_data": [("doubles.labels", lambda md: md.size)],
    "docs.dumps": [("docs.bytes_out", len)],
    "bicross.split_irreps": [("bicross.simples", len)],
    "equivalence.find_equivalence": [("equivalence.calls", lambda w: 1),
                                     ("equivalence.found", lambda w: w is not None),
                                     ("equivalence.refuted", lambda w: w is None)],
    "solvability.solvability_verdict": [("solvability.verdicts", lambda v: 1)],
    "cli.main": [("cli.commands", lambda rc: 1)],
}


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self._names = {}  # qualname -> small int stored in span records
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []  # frames: [span id, time covered by children]
        self._next_id = 0
        self._in_cyclo = False
        self._open = defaultdict(int)  # INCLUSIVE bucket -> open span count

    def reset(self):
        """Drop everything recorded so far; installed wrappers stay."""
        for store in (self.self_time, self.inclusive, self.counts, self.spans, self._open):
            store.clear()
        self._next_id = 0

    def layer_self_times(self):
        out = defaultdict(float)
        for bucket, t in self.self_time.items():
            out[bucket.split(".")[0]] += t
        return dict(out)

    # -- wrappers

    def _span(self, qualname, fn):
        bucket = BUCKETS.get(qualname, qualname.split(".")[0] + ".other")
        name_id = self._names.setdefault(qualname, len(self._names))
        counters = RESULT_COUNTS.get(qualname, ())
        inclusive = bucket in INCLUSIVE
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            if inclusive:
                tracer._open[bucket] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SearchBudgetExceeded" and qualname == "equivalence.find_equivalence":
                    tracer.counts["equivalence.calls"] += 1
                    tracer.counts["equivalence.budget_hits"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_time[bucket] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if inclusive:
                    tracer._open[bucket] -= 1
                    if not tracer._open[bucket]:
                        tracer.inclusive[bucket] += duration
                tracer.spans.append((sid, parent, name_id, start, end))
            for key, amount in counters:
                tracer.counts[key] += int(amount(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cyclo_op(self, fn, op):
        clock = time.perf_counter
        tracer = self
        key = f"cyclo.{op}_calls"

        def wrapper(*args):
            if tracer._in_cyclo:
                return fn(*args)
            tracer._in_cyclo = True
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                tracer._in_cyclo = False
                tracer.self_time["cyclo.ops"] += duration
                tracer.counts[key] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        return wrapper

    def _count_calls(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"fusionrings.{name}") for name in LAYERS}
        counts = self.counts
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                fn = _counting_input(obj, counts) if f"{layer}.{attr}" == "docs.loads" else obj
                wrappers[id(obj)] = self._span(f"{layer}.{attr}", fn)
        # rebind in the defining module and in every module that imported it
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if (layer, cls_name, meth) == ("catalog", "CatalogEntry", "ring"):
                        fn = _counting_catalog_builds(fn, counts)
                    wrapper = self._span(f"{layer}.{cls_name}.{meth}", fn)
                    self._patch(cls, meth, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        cyclo = modules["cyclo"].Cyclotomic
        for meth, op in CYCLO_OPS.items():
            self._patch(cyclo, meth, self._cyclo_op(cyclo.__dict__[meth], op))
        perm = modules["perms"].Permutation
        self._patch(perm, "__mul__", self._count_calls(perm.__dict__["__mul__"], "perms.mul_calls"))

    def _patch(self, owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def span_records(self):
        names = {i: n for n, i in self._names.items()}
        return [
            {"id": sid, "parent": parent, "name": names[nid], "start": start, "end": end}
            for sid, parent, nid, start, end in self.spans
        ]


def _counting_input(loads, counts):
    def counted(text):
        counts["docs.bytes_in"] += len(text)
        return loads(text)

    return counted


def _counting_catalog_builds(ring, counts):
    def counted(entry):
        if entry._ring is None:
            counts["catalog.rings_built"] += 1
        return ring(entry)

    return counted
