"""Document round-trips and the command-line surface."""

import subprocess
import sys
import time

import pytest

from fusionrings import docs, rings
from fusionrings.chartab import MAX_CLASSES, character_table, rep_g_fusion_ring
from fusionrings.cli import main, parse_group_spec
from fusionrings.doubles import double_modular_data
from fusionrings.perms import symmetric_group


def run_cli(args, stdin=None, capsys=None):
    """Drive main() in-process; returns (code, stdout)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        with redirect_stdout(buf):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def test_parse_group_specs():
    assert parse_group_spec("S5").order == 120
    assert parse_group_spec("A4").order == 12
    assert parse_group_spec("C7").order == 7
    assert parse_group_spec("D6").order == 12
    g = parse_group_spec("custom:5:(1 2)|(1 2 3 4 5)")
    assert g.order == 120
    with pytest.raises(ValueError):
        parse_group_spec("X9")


def test_group_document_roundtrip():
    code, out = run_cli(["group", "S4"])
    assert code == 0
    doc = docs.loads(out)
    assert doc["kind"] == "group" and doc["payload"]["order"] == 24
    # parse -> print is byte-stable
    assert docs.dumps(docs.loads(out)) == out


def test_ring_document_roundtrip():
    ring = rep_g_fusion_ring(character_table(symmetric_group(4)))
    payload = docs.ring_payload(ring)
    back = docs.ring_from_payload(payload)
    assert back.labels == ring.labels and back.dual == ring.dual
    assert (back.N == ring.N).all()
    text = docs.dumps(docs.document("fusionring", payload))
    assert docs.dumps(docs.loads(text)) == text


def test_modular_document_roundtrip():
    md = double_modular_data(symmetric_group(3))
    payload = docs.modular_payload(md)
    back = docs.modular_from_payload(payload)
    assert back.S == md.S and back.T == md.T and back.dims == md.dims
    assert back.charge_conjugation == md.charge_conjugation


def test_cli_determinism():
    _, out1 = run_cli(["repring", "S4"])
    _, out2 = run_cli(["repring", "S4"])
    d1, d2 = docs.loads(out1), docs.loads(out2)
    assert docs.same_payload(d1, d2)
    assert d1["payload"] == d2["payload"]


def test_cli_chartab_provenance_prime():
    code, out = run_cli(["chartab", "S3"])
    assert code == 0
    doc = docs.loads(out)
    assert doc["provenance"]["dixon_prime"] == character_table(symmetric_group(3)).dixon_prime


def test_cli_pipeline_pair_bicross_analyze(tmp_path):
    code, pair_doc = run_cli(["pair", "A5", "C5", "A4"])
    assert code == 0
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(pair_doc)

    code, out = run_cli(["bicross", str(pair_file), "--type"])
    assert code == 0
    payload = docs.loads(out)["payload"]
    assert payload["type"] == [[1, 10], [5, 2]]

    code, out = run_cli(["bicross", str(pair_file), "--dual-invertibles"])
    assert code == 0
    payload = docs.loads(out)["payload"]
    assert payload["dual_invertibles"] == {"order": 10, "name": "D5", "center_order": 1}

    code, ring_doc = run_cli(["bicross", str(pair_file), "--ring"])
    assert code == 0
    ring_file = tmp_path / "k5.json"
    ring_file.write_text(ring_doc)

    code, out = run_cli(["analyze", str(ring_file)])
    assert code == 0
    payload = docs.loads(out)["payload"]
    assert payload["verdict"] == "NOT_SOLVABLE"
    assert payload["trace"]
    assert payload["analysis"]["invertibles"] == {"order": 10, "name": "D5"}
    assert payload["analysis"]["type"] == [[1, 10], [5, 2]]


def test_cli_b5_pipeline(tmp_path):
    # the transposition factorization of S5 through the CLI: C2 embeds as <(1 2)>
    code, pair_doc = run_cli(["pair", "S5", "C2", "A5"])
    assert code == 0
    pair_file = tmp_path / "b5.json"
    pair_file.write_text(pair_doc)
    code, out = run_cli(["bicross", str(pair_file), "--type"])
    assert code == 0
    assert docs.loads(out)["payload"]["type"] == [[1, 12], [2, 27]]


def test_cli_pair_rejects_non_factorization():
    code, _ = run_cli(["pair", "S5", "C2", "S4"])
    assert code == 2


def test_cli_analyze_rep_s5(tmp_path):
    code, ring_doc = run_cli(["repring", "S5"])
    ring_file = tmp_path / "s5.json"
    ring_file.write_text(ring_doc)
    code, out = run_cli(["analyze", str(ring_file)])
    assert code == 0
    payload = docs.loads(out)["payload"]
    assert payload["verdict"] == "NOT_SOLVABLE"
    assert payload["trace"][-1][0] == "R5"
    assert payload["analysis"]["nilpotent"] is False


def test_cli_equiv_d4_q8(tmp_path):
    # D4 vs Q8 via a custom spec for the quaternion group
    q8_spec = "custom:8:(1 3 2 4)(5 7 6 8)|(1 5 2 6)(3 8 4 7)"
    assert parse_group_spec(q8_spec).order == 8
    _, d4_doc = run_cli(["repring", "D4"])
    _, q8_doc = run_cli(["repring", q8_spec])
    f1, f2 = tmp_path / "d4.json", tmp_path / "q8.json"
    f1.write_text(d4_doc)
    f2.write_text(q8_doc)
    code, out = run_cli(["equiv", str(f1), str(f2)])
    assert code == 0
    payload = docs.loads(out)["payload"]
    assert payload["found"] is True and len(payload["map"]) == 5


def test_cli_equiv_none_is_exit_zero(tmp_path):
    _, a = run_cli(["repring", "S3"])
    _, b = run_cli(["repring", "C6"])
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    f1.write_text(a)
    f2.write_text(b)
    code, out = run_cli(["equiv", str(f1), str(f2)])
    assert code == 0
    assert docs.loads(out)["payload"] == {"found": False}


def test_cli_double_and_verlinde(tmp_path):
    code, md_doc = run_cli(["double", "S3"])
    assert code == 0
    md_file = tmp_path / "md.json"
    md_file.write_text(md_doc)
    code, out = run_cli(["verlinde", str(md_file)])
    assert code == 0
    payload = docs.loads(out)["payload"]
    assert sorted(payload["dims"]) == [1, 1, 2, 2, 2, 2, 3, 3]


def test_cli_double_matrix_views():
    code, out = run_cli(["double", "S3", "--smatrix"])
    assert code == 0
    payload = docs.loads(out)["payload"]
    assert set(payload) == {"labels", "s"}
    code, out = run_cli(["double", "S3", "--tmatrix"])
    assert set(docs.loads(out)["payload"]) == {"labels", "t"}


def test_cli_sequiv(tmp_path):
    _, m1 = run_cli(["double", "S3"])
    _, m2 = run_cli(["double", "S3"])
    f1, f2 = tmp_path / "m1.json", tmp_path / "m2.json"
    f1.write_text(m1)
    f2.write_text(m2)
    code, out = run_cli(["sequiv", str(f1), str(f2)])
    assert code == 0
    assert docs.loads(out)["payload"]["found"] is True


def test_cli_usage_errors():
    code, _ = run_cli(["group", "X9"])
    assert code == 2
    code, _ = run_cli(["nonsense"])
    assert code == 2


def test_cli_budget_exit_code(tmp_path, monkeypatch):
    _, a = run_cli(["repring", "S5"])
    f1 = tmp_path / "a.json"
    f1.write_text(a)
    monkeypatch.setenv("WORKBENCH_NODE_BUDGET", "1")
    code, _ = run_cli(["equiv", str(f1), str(f1)])
    assert code == 3


def test_cli_named_families_obey_the_closure_cap():
    for spec in ("S8", "A8"):
        code, out = run_cli(["group", spec])
        assert code == 3 and out == ""
    code, out = run_cli(["group", "S7"])
    assert code == 0 and docs.loads(out)["payload"]["order"] == 5040


def test_cli_stdin_dash(tmp_path):
    _, pair_doc = run_cli(["pair", "A5", "C5", "A4"])
    code, out = run_cli(["bicross", "-", "--type"], stdin=pair_doc)
    assert code == 0
    assert docs.loads(out)["payload"]["type"] == [[1, 10], [5, 2]]


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionrings.cli", "group", "C5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert docs.loads(proc.stdout)["payload"]["order"] == 5


def _break_missing_s(p):
    del p["s"]


def _break_ragged_s(p):
    p["s"][3] = p["s"][3] + p["s"][3][:2]


def _break_short_row(p):
    p["s"][5] = p["s"][5][:-1]


def _break_short_s(p):
    p["s"] = p["s"][:-1]


def _break_missing_t(p):
    del p["t"]


def _break_bad_entry(p):
    p["s"][1][1] = {"conductor": 0, "coeffs": [[0, "1/0"]]}


@pytest.mark.parametrize(
    "breaker",
    [_break_missing_s, _break_ragged_s, _break_short_row, _break_short_s, _break_missing_t, _break_bad_entry],
)
def test_cli_malformed_modular_documents_are_usage_errors(tmp_path, breaker):
    _, text = run_cli(["double", "S3"])
    good = tmp_path / "good.json"
    good.write_text(text)
    doc = docs.loads(text)
    breaker(doc["payload"])
    bad = tmp_path / "bad.json"
    bad.write_text(docs.dumps(doc))
    assert run_cli(["verlinde", str(bad)])[0] == 2
    assert run_cli(["sequiv", str(bad), str(good)])[0] == 2
    assert run_cli(["sequiv", str(good), str(bad)])[0] == 2


def test_cli_parser_is_built_once_and_each_call_parses_afresh(tmp_path):
    from fusionrings.cli import build_parser

    assert build_parser() is build_parser()
    _, pair_doc = run_cli(["pair", "A5", "C5", "A4"])
    pair = tmp_path / "pair.json"
    pair.write_text(pair_doc)

    def bicross(*flags):
        code, out = run_cli(["bicross", str(pair), *flags])
        assert code == 0
        doc = docs.loads(out)
        return doc["kind"], set(doc["payload"])

    assert bicross("--ring")[0] == "fusionring"
    default = bicross()
    assert default[0] == "matchedpair" and "type" in default[1]
    assert bicross("--type") == default
    kind, keys = bicross("--dual-invertibles")
    assert "dual_invertibles" in keys and "type" not in keys
    assert run_cli(["bicross", str(pair), "--ring", "--type"])[0] == 2
    assert bicross() == default


def _break_missing_labels(p):
    del p["labels"]


def _break_missing_tensor(p):
    del p["tensor"]


def _break_string_in_dual(p):
    p["dual"][1] = "1"


def _break_fractional_tensor(p):
    p["tensor"] = [0.5] * len(p["tensor"])


def _break_bool_in_tensor(p):
    p["tensor"][0] = True


def _break_short_tensor(p):
    p["tensor"] = p["tensor"][:-1]


def _break_negative_entry(p):
    p["tensor"][-1] = -1


def _break_non_bijective_dual(p):
    p["dual"] = [0] * len(p["dual"])


def _break_entry_past_int64(p):
    p["tensor"][-1] = 2**64


def _break_dims_contradict_tensor(p):
    p["dims"] = [1, 7, 9]


def _break_short_dims(p):
    p["dims"] = p["dims"][:-1]


def _break_string_in_dims(p):
    p["dims"][1] = "1"


@pytest.mark.parametrize(
    "breaker",
    [
        _break_missing_labels,
        _break_missing_tensor,
        _break_string_in_dual,
        _break_fractional_tensor,
        _break_bool_in_tensor,
        _break_short_tensor,
        _break_negative_entry,
        _break_non_bijective_dual,
        _break_entry_past_int64,
        _break_dims_contradict_tensor,
        _break_short_dims,
        _break_string_in_dims,
    ],
)
def test_cli_malformed_ring_documents_are_usage_errors(tmp_path, breaker):
    _, text = run_cli(["repring", "S3"])
    good = tmp_path / "good.json"
    good.write_text(text)
    doc = docs.loads(text)
    breaker(doc["payload"])
    bad = tmp_path / "bad.json"
    bad.write_text(docs.dumps(doc))
    assert run_cli(["analyze", str(bad)])[0] == 2
    assert run_cli(["equiv", str(bad), str(good)])[0] == 2
    assert run_cli(["equiv", str(good), str(bad)])[0] == 2


def test_cli_budget_hit_reports_search_progress(tmp_path, monkeypatch, capsys):
    ring = rings.group_ring(parse_group_spec("D6"))
    for name, r in (("a", ring), ("b", ring.relabel([0, 4, 10, 9, 3, 8, 5, 11, 1, 7, 6, 2]))):
        (tmp_path / f"{name}.json").write_text(docs.dumps(docs.document("fusionring", docs.ring_payload(r))))
    argv = ["equiv", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    monkeypatch.setenv("WORKBENCH_NODE_BUDGET", "20")
    assert run_cli(argv) == (3, "")
    assert "20 nodes visited, deepest depth 11 of 12" in capsys.readouterr().err
    monkeypatch.setenv("WORKBENCH_NODE_BUDGET", "21")
    code, out = run_cli(argv)
    assert code == 0 and docs.loads(out)["payload"]["found"]


def _break_missing_ambient(p):
    del p["ambient"]


def _break_int_in_f_generators(p):
    p["f_generators"][0] = 5


def _break_missing_gamma_generators(p):
    del p["gamma_generators"]


def _break_string_degree(p):
    p["ambient"]["degree"] = "5"


def _break_float_order(p):
    p["ambient"]["order"] = 60.0


def _break_int_in_ambient_generators(p):
    p["ambient"]["generators"] = [1, 2]


@pytest.mark.parametrize(
    "breaker",
    [
        _break_missing_ambient,
        _break_int_in_f_generators,
        _break_missing_gamma_generators,
        _break_string_degree,
        _break_float_order,
        _break_int_in_ambient_generators,
    ],
)
def test_cli_malformed_pair_documents_are_usage_errors(tmp_path, breaker):
    _, text = run_cli(["pair", "A5", "C5", "A4"])
    doc = docs.loads(text)
    breaker(doc["payload"])
    bad = tmp_path / "bad.json"
    bad.write_text(docs.dumps(doc))
    for flags in ([], ["--ring"], ["--dual-invertibles"]):
        assert run_cli(["bicross", str(bad), *flags])[0] == 2


@pytest.mark.parametrize("text", ["[1,2]", '"x"', "3", "null"])
@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "@"],
        ["equiv", "@", "@"],
        ["sequiv", "@", "@"],
        ["verlinde", "@"],
        ["bicross", "@", "--type"],
        ["bicross", "@", "--ring"],
        ["bicross", "@", "--dual-invertibles"],
    ],
    ids=lambda c: " ".join(c),
)
def test_cli_non_object_documents_are_usage_errors(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [str(path) if a == "@" else a for a in command]
    assert run_cli(argv)[0] == 2
    first = command.index("@")  # the same input piped to the first document argument
    assert run_cli(argv[:first] + ["-"] + argv[first + 1:], stdin=text)[0] == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_chartab_refuses_too_many_classes_quickly(capsys):
    start = time.perf_counter()
    code, out = run_cli(["chartab", f"C{MAX_CLASSES + 1}"])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert f"{MAX_CLASSES + 1} conjugacy classes" in err and str(MAX_CLASSES) in err
    assert run_cli(["chartab", f"C{MAX_CLASSES}"])[0] == 0
