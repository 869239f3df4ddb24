"""The fusion-ring codec of ``docs``: ``loads_ring`` and ``dumps_ring`` against
the generic JSON path, ``ring_from_payload(loads(text))`` and
``dumps(document(...))``, which every input and every ring must match."""

import contextlib
import importlib.util
import io
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrings import docs, rings
from fusionrings.bicross import split_fusion_ring
from fusionrings.chartab import character_table, rep_g_fusion_ring
from fusionrings.cli import main, parse_group_spec
from fusionrings.doubles import double_modular_data, verlinde_fusion
from fusionrings.perms import alternating_group, symmetric_group
from test_bicross import benchmark_pairs, named_pairs

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "fusionrings codec test"


def load_workloads_module():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads_module()


def _rep_ring(degree, gens):
    spec = WORKLOADS._spec(degree, gens, list(range(degree)))
    return rep_g_fusion_ring(character_table(parse_group_spec(spec)))


def _group_ring_text(name):
    table = WORKLOADS.group_table(name)
    return WORKLOADS.group_ring_document(table, list(range(len(table))))


def ring_cases():
    """(name, thunk): every ring the codec must read and write as the generic
    path does; a thunk gives a ring or, for the benchmark's group rings, the
    harness's own document text.  Pairs are built on first use."""
    benchmark, named = cache(benchmark_pairs), cache(named_pairs)
    cases = [(f"Rep {name}", lambda g=g: _rep_ring(*g)) for name, g in WORKLOADS.REP_GROUPS]
    for pair in ("K5", "J5", "B5", "S4=C4.S3", "S6=C6.S5"):
        for name in (pair, f"{pair}-dual"):
            cases.append((f"pair {name}", lambda name=name: split_fusion_ring(benchmark()[name])))
    for name in ("K5", "J5", "B5", "H5", "L5"):
        cases.append((name, lambda name=name: split_fusion_ring(named()[name])))
    for name, group in (("S3", symmetric_group(3)), ("A4", alternating_group(4))):
        cases.append((f"Verlinde D({name})", lambda g=group: verlinde_fusion(double_modular_data(g))))
    for name in ("D12", "C4:C4", "Q8xC2"):
        cases.append((f"group ring {name}", lambda name=name: _group_ring_text(name)))
    return cases


CASES = ring_cases()


def _generic_text(ring):
    return docs.dumps(docs.document("fusionring", docs.ring_payload(ring), COMMAND))


def _fields(ring):
    return ring.labels, ring.dual, ring.N.tobytes(), rings.fp_dims(ring)


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_codec_reads_and_writes_every_ring_as_the_generic_path(case):
    _, build = case
    made = build()
    text = made if isinstance(made, str) else _generic_text(made)
    doc = docs.loads_ring(text)
    assert isinstance(doc["payload"]["tensor"], np.ndarray)  # the numpy path, not the fallback
    ring = docs.ring_from_payload(doc["payload"])
    assert _fields(ring) == _fields(docs.ring_from_payload(docs.loads(text)["payload"]))
    assert docs.dumps_ring(ring, COMMAND) == _generic_text(ring)
    if not isinstance(made, str):
        assert docs.dumps_ring(made, COMMAND) == text


def test_rep_a7_has_multi_digit_entries():
    _, build = next(case for case in CASES if case[0] == "Rep A7")
    assert build().N.max() == 17


# -- text the codec must leave to the generic reader


def _entry(text, k):
    """The span of tensor entry k in text."""
    start = text.index(docs._TENSOR) + len(docs._TENSOR)
    for _ in range(k):
        start = text.index(",", start) + 1
    end = start
    while text[end] not in ",]":
        end += 1
    return start, end


def _set_entry(value, k=1):
    def mutate(text):
        start, end = _entry(text, k)
        return text[:start] + value + text[end:]

    return mutate


def _insert(anchor, extra, before=True):
    def mutate(text):
        at = text.index(anchor) + (0 if before else len(anchor))
        return text[:at] + extra + text[at:]

    return mutate


def _label_with_tensor(text):
    doc = docs.loads(text)
    doc["payload"]["labels"][1] = '"tensor":[1,0]'  # written escaped: \"tensor\":[1,0]
    return docs.dumps(doc)


def _empty_tensor(text):
    start = text.index(docs._TENSOR) + len(docs._TENSOR)
    return text[:start] + text[text.index("]", start):]


def _provenance_first(text):
    """The same document with provenance, holding a tensor, written first."""
    body, provenance = text.rstrip().split(',"provenance":', 1)
    provenance, rest = provenance.split("}", 1)
    return '{"provenance":' + provenance + ',"tensor":[1,0,0]},' + body[1:] + rest + "\n"


MUTATIONS = {
    "space after a comma": _set_entry(" 0"),
    "newline after an entry": _set_entry("0\n"),
    "leading zero": _set_entry("01"),
    "minus zero": _set_entry("-0"),
    "minus one": _set_entry("-1"),
    "float one": _set_entry("1.0", 0),
    "exponent one": _set_entry("1e0", 0),
    "true": _set_entry("true", 0),
    "null": _set_entry("null"),
    "19 digits": _set_entry("1" + "0" * 18),
    "20 digits": _set_entry("1" + "0" * 19),
    "empty tensor": _empty_tensor,
    "duplicate tensor before": _insert('"tensor":', '"tensor":[1,0,0],'),
    "duplicate tensor after": _insert('},"provenance"', ',"tensor":[1,0,0]'),
    "tensor in provenance": _insert('"provenance":{', '"tensor":[1,0,0],', before=False),
    "tensor in provenance first": _provenance_first,
    "tensor in a label": _label_with_tensor,
    "NaN in dims": lambda text: text.replace('"dims":[1,', '"dims":[NaN,', 1),
    "Infinity in provenance": _insert('"provenance":{', '"x":Infinity,', before=False),
    "-Infinity in provenance": _insert('"provenance":{', '"x":-Infinity,', before=False),
    "truncated in the tensor": lambda text: text[: _entry(text, 5)[1]],
    "truncated after the tensor": lambda text: text[: text.index('"provenance"')],
    "truncated at half": lambda text: text[: len(text) // 2],
    "no closing brace": lambda text: text.rstrip()[:-1],
}


def _run(argv, capsys):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue(), capsys.readouterr().err


@pytest.mark.parametrize("mutation", sorted(MUTATIONS), ids=str)
def test_mutated_documents_read_as_the_generic_reader_reads_them(tmp_path, capsys, monkeypatch, mutation):
    assert main(["repring", "S4"]) == 0
    good = tmp_path / "good.json"
    good.write_text(capsys.readouterr().out)
    bad = tmp_path / "bad.json"
    bad.write_text(MUTATIONS[mutation](good.read_text()))
    assert bad.read_text() != good.read_text()
    # the numpy path stays open only where the payload's tensor is the first one
    taken = docs._decoded_ring(bad.read_text()) is not None
    assert taken == (mutation in ("tensor in a label", "tensor in provenance"))
    commands = (["analyze", str(bad)], ["equiv", str(bad), str(good)], ["equiv", str(good), str(bad)])
    codec = [_run(argv, capsys) for argv in commands]
    monkeypatch.setattr(docs, "loads_ring", docs.loads)
    generic = [_run(argv, capsys) for argv in commands]
    assert codec == generic
    assert "Traceback" not in "".join(err for _, _, err in codec)


# -- the writer on any int64 tensor: numpy writes non-negative ones, json the rest

INT64_MAX = 2**63 - 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_writer_matches_json_on_drawn_tensors(data):
    n = data.draw(st.integers(1, 3))
    top = data.draw(st.sampled_from([1, 9, 10, 17, 10**9, 10**18 - 1, 10**18, INT64_MAX]))
    low = data.draw(st.sampled_from([0, 0, 0, -1, -INT64_MAX - 1]))
    entries = data.draw(st.lists(st.integers(low, top), min_size=n**3, max_size=n**3))
    ring = rings.FusionRing([f"x{i}" for i in range(n)], entries, list(range(n)))
    ring._dims = rings.FPDims(dims=(1.0,) * n, exact=False, total=float(n))  # no dims search on a non-ring
    text = docs.dumps_ring(ring, COMMAND)
    assert text == _generic_text(ring)
    tensor = docs.loads_ring(text)["payload"]["tensor"]
    if 0 <= min(entries) and max(entries) < 10**18:  # no sign, at most 18 digits: the numpy path
        assert isinstance(tensor, np.ndarray) and tensor.tolist() == entries
    else:
        assert tensor == entries
