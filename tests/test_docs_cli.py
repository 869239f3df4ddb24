"""Document round-trips and the command-line surface."""

import hashlib
import re
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from fusionrings import docs, rings
from fusionrings.chartab import MAX_CLASSES, character_table, rep_g_fusion_ring
from fusionrings.cli import main, parse_group_spec
from fusionrings.cyclo import MAX_CONDUCTOR
from fusionrings.doubles import MAX_LABELS, double_modular_data
from fusionrings.perms import MAX_DEGREE, Permutation, symmetric_group


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
    assert back.charge_conjugation == md.charge_conjugation and back.labels == md.labels


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


def test_cli_dependent_characters_are_an_internal_failure(tmp_path, monkeypatch, capsys):
    from fusionrings import bicross

    characters = bicross._characters

    def dependent(mp, irreps):  # the second simple's characters made equal to the unit's
        m, chi = characters(mp, irreps)
        chi[1] = chi[0]
        return m, chi

    monkeypatch.setattr(bicross, "_characters", dependent)
    pair_file = tmp_path / "s3.json"
    pair_file.write_text(run_cli(["pair", "S3", "C3", "C2"])[1])
    capsys.readouterr()
    assert run_cli(["bicross", str(pair_file), "--ring"]) == (4, "")
    assert capsys.readouterr().err == "error: invariant: the 6 simple characters are dependent at the columns given\n"


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


def _break_conductor_past_bound(p):
    p["t"][1] = {"conductor": MAX_CONDUCTOR + 1, "coeffs": [[1, "1/1"]]}  # a root of unity


# Python twins of S[0][0] = {"conductor": 1, "coeffs": [[0, "1/1"]]}, which the
# reader parses first: equal as Python values, malformed as documents
def _break_bool_twin_entry(p):
    p["s"][1][1] = {"conductor": True, "coeffs": [[False, "1/1"]]}


def _break_float_twin_entry(p):
    p["s"][1][1] = {"conductor": 1.0, "coeffs": [[0, "1/1"]]}


@pytest.mark.parametrize(
    "breaker",
    [_break_missing_s, _break_ragged_s, _break_short_row, _break_short_s, _break_missing_t, _break_bad_entry,
     _break_conductor_past_bound, _break_bool_twin_entry, _break_float_twin_entry],
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


MALFORMED_CYCLES = ["(1 2", "1 2)", "(1 2) junk", "(1 2)x(3 4)", "(1 2)(3 4"]


@pytest.mark.parametrize("cycles", MALFORMED_CYCLES)
def test_cli_malformed_cycles_are_usage_errors(tmp_path, capsys, cycles):
    code, out = run_cli(["group", f"custom:5:(1 2 3 4 5)|{cycles}"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: usage: not cycle notation: {cycles!r}\n"
    _, text = run_cli(["pair", "A5", "C5", "A4"])
    for where in ("f_generators", "gamma_generators", "ambient"):
        doc = docs.loads(text)
        generators = doc["payload"]["ambient"]["generators"] if where == "ambient" else doc["payload"][where]
        generators.append(cycles)
        bad = tmp_path / "bad.json"
        bad.write_text(docs.dumps(doc))
        assert run_cli(["bicross", str(bad)]) == (2, "")
        assert f"not cycle notation: {cycles!r}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["custom:99999999999:(1 2)", "custom:99999999999:", f"custom:{MAX_DEGREE + 1}:"])
def test_cli_degree_above_the_bound_is_refused(capsys, spec):
    degree = spec.split(":")[1]
    assert run_cli(["group", spec]) == (3, "")
    assert capsys.readouterr().err == f"error: budget: degree {degree} exceeds bound {MAX_DEGREE}\n"


@pytest.mark.parametrize("spec", ["custom:-1:", "custom:-1:(1 2)"])
def test_cli_negative_degree_is_a_usage_error(capsys, spec):
    assert run_cli(["group", spec]) == (2, "")
    assert capsys.readouterr().err == "error: usage: negative degree -1\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("custom:3", "group spec 'custom:3' is not custom:<degree>:<cycles>|<cycles>|..."),
        ("custom:x:(1 2)", "custom degree 'x' is not an integer in 'custom:x:(1 2)'"),
        ("custom:4:(1 2)(1 3)", "point 1 appears twice in '(1 2)(1 3)'"),
        ("custom:4:(2 4 2)", "point 2 appears twice in '(2 4 2)'"),
    ],
)
def test_cli_group_spec_errors_name_the_input(capsys, spec, message):
    assert run_cli(["group", spec]) == (2, "")
    assert capsys.readouterr().err == f"error: usage: {message}\n"


def test_cli_documents_with_a_degree_above_the_bound_are_refused(tmp_path, capsys):
    _, pair_text = run_cli(["pair", "A5", "C5", "A4"])
    _, double_text = run_cli(["double", "S3"])
    pair, with_group, from_labels = docs.loads(pair_text), docs.loads(double_text), docs.loads(double_text)
    for doc in (pair, with_group):
        group = doc["payload"]["ambient" if doc is pair else "group"]
        group["degree"] = 99_999_999_999
    from_labels["payload"]["group"] = None
    from_labels["payload"]["labels"][-1][0] = "(1 99999999999)"
    for doc, command in ((pair, "bicross"), (with_group, "verlinde"), (from_labels, "verlinde")):
        path = tmp_path / "big.json"
        path.write_text(docs.dumps(doc))
        assert run_cli([command, str(path)]) == (3, "")
        assert capsys.readouterr().err == f"error: budget: degree 99999999999 exceeds bound {MAX_DEGREE}\n"


def test_cli_degree_zero_documents_round_trip(tmp_path, capsys):
    """Degree 0 (the trivial group on no points) is written and read back;
    a negative degree in a document is a usage error, as on the command line."""
    path = tmp_path / "zero.json"
    for make, command, key in (
        (["double", "custom:0:"], "verlinde", "group"),
        (["pair", "custom:0:", "custom:0:", "custom:0:"], "bicross", "ambient"),
    ):
        code, text = run_cli(make)
        doc = docs.loads(text)
        assert code == 0 and doc["payload"][key]["degree"] == 0
        path.write_text(text)
        assert run_cli([command, str(path)])[0] == 0
        doc["payload"][key]["degree"] = -1
        path.write_text(docs.dumps(doc))
        capsys.readouterr()
        assert run_cli([command, str(path)]) == (2, "")
        assert capsys.readouterr().err == "error: usage: negative degree -1\n"


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


def test_cli_double_refuses_too_many_labels_quickly(capsys):
    start = time.perf_counter()
    code, out = run_cli(["double", "C60"])  # 60 centralizers of 60 classes each
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert "3600 labels" in err and str(MAX_LABELS) in err
    assert run_cli(["double", "C20"])[0] == 0  # 400 labels
    assert run_cli(["double", "S5"])[0] == 0


def _payload_digest(text):
    return hashlib.sha256(docs.dumps(docs.loads(text)["payload"]).encode()).hexdigest()


def _conjugated_spec(spec, cycle):
    """A custom: spec of the group of spec with its generators conjugated by a cycle."""
    group = parse_group_spec(spec)
    s = Permutation.from_cycles(group.degree, [cycle])
    return f"custom:{group.degree}:" + "|".join((s.inverse() * g * s).cycle_string() for g in group.generators)


# sha256 of the payloads (docs.dumps) of `double`, `double --smatrix`,
# `double --tmatrix` and `verlinde` on the `double` document, recorded while
# S was still assembled in Cyclotomic arithmetic
PINNED_DOUBLES = [
    ("C2", "C2", "00b4f0d9f35aa876a7ab5627784ec8eb53668098b553853b40a33a13da2bc5c7",
     "c841e77a9249e74836191fd20bafae37af5096f33d10a50346930c09542f74c8",
     "72ae0df895694d0dae872e21e02ba007da297dc6b44413ab60da3897b2aef9f6",
     "4dd1349015b1c1d2284afbec0df1053c474087820eb51b51f98874bf8ae011e9"),
    ("C3", "C3", "eb323d4269349f725329f8268c33e896eea3415a3fcf44c550723f3d5f020e88",
     "91503729de4b7314bd5ab5ff1907103635cb5d7e8983fa6af17a914a5b5c986f",
     "77814b5afad27fa524050502a61c529396a241e6720168e988a355fc35c60398",
     "049d175151756427be08c8723ec92f284e7750418bdc83f5bb4269d9883437c9"),
    ("C6", "C6", "f155e4433c118d58396178de2c32d015f681cc5f71f835e8dd11996b4115b1a5",
     "9d280c2f0189176238e1e46d7e8cc7a1e2b1d6ee44e14d597d48e63e033b84c5",
     "ec1b5a1a788b4db851c04c5daa41f12489a64c3f455f5af69519adc458a0c7cf",
     "fd672489b843c46e5e7937c2d362538e6bf96497e44ff3fd8b539b4aa14a4c28"),
    ("S3", "S3", "ad72c5bfbf086a5d33181f77b24d7491087bc58c993bb477acc72b6b40addded",
     "9c391a32f250e6fc491eaaf6232e2af7ca476732f6c86afd667dfd30389d0b11",
     "e80578b1c87ddc377e15b10286c4de293b1b77432935adee97a298ff908ef653",
     "602d844094c8c1f8a88ebcf24bb079738c92b1564341e170835d8b6ad93b0519"),
    ("D4", "D4", "90b795be1bf94a2a5781dbadd2d1a4029bf92920b1d14f09a3d09973fbcddfc7",
     "a0ac4af0062c8a30512b9e80259d5d2baf430afc3c90ed02e0e35ca9c8b2ca74",
     "82f0260b6b1a82453b3f6773070cd8ebd37f44491f91e3f75c6075e5e714fde7",
     "ad16275fce9518ffeb8753ff492b38839aef4e3537728db926817edd1ff30442"),
    ("Q8", "custom:8:(1 2 3 4)(5 6 7 8)|(1 5 3 7)(2 8 4 6)",
     "da576940c75ebae02df26c6eb1b9e8eda4b50ec9baff81a8cf89f5e6138e68d6",
     "be25d490c1d7a27ce36fff41a2d27b80922951641049124b635a59030d7c71da",
     "e1b3400b24656d3d744d766b2908db18aef4fc090d4b1c7a7078f030fd097a0d",
     "f480159ff334c2ba1ce50c9f666eab376742e3241860a89337ecb17f395593db"),
    ("A4", "A4", "dee84d32afa7aefd0aa56013c3607c13a26c3ad8e6964974e31ad31f1f72e1e5",
     "52dbe15b7c3f6d48fc8f650366d2c3884d4c4f5c2437a7cb8a173bdc4870604f",
     "74573dbc495e1f6a3e90fc254490a4c2d4977de8287109b3fa5e930fa95f2822",
     "f827653022e934de8979908585afa6fe160c79537aa5502aad63e46101ec04bb"),
    ("S4", "S4", "869777f04e811c49efd08a2ef0266973c018bebb7a4a4231f4a36a33df049776",
     "e6f24705662988aa1bf6fe58530d3d6bb959f58b26d56248c01577239587f343",
     "da985194d29a4291d043927480d9af05395a2c34884185850f9e3e4d4c4a3c52",
     "04283715a1fdaac4a24fd48ba794c4ad2bafbcfd28ef33ecb539a9447bba72e8"),
    ("A5", "A5", "57f4080b403c944da434d41ecac2cdc73065c9a49079a997157a69a383a5f9f3",
     "af496e44e8f7104dea5f2a549515ad45d7f9d21c0068fdf7d0f085ca9d543d58",
     "58f0dfb40d56c6bf0fc6086ce75a5e4531880f01b81e913b55ae748a1400f851",
     "dc664666fa74147df9f324a2d2c487cf88a6ac9621476a892017967279647d15"),
    ("S4 conjugated", "custom:4:(2 3)|(1 3 2 4)",
     "3fa8f2404cd61cf4fedebf98938dd5ce773d0d16acdf046db10f8baa13d47cbd",
     "e6f24705662988aa1bf6fe58530d3d6bb959f58b26d56248c01577239587f343",
     "da985194d29a4291d043927480d9af05395a2c34884185850f9e3e4d4c4a3c52",
     "04283715a1fdaac4a24fd48ba794c4ad2bafbcfd28ef33ecb539a9447bba72e8"),
    ("D4 conjugated", "custom:4:(1 3 2 4)|(1 2)",
     "5106e0e379478e0262389b2033b7b25324ee102fcc6a66b5b4e1be1fc75017ce",
     "bafb5ca28d7fe442ce2384e86472113935e992b2210825cff3b8c3e8f5e1378f",
     "630a3cd89deb026020256756d79e46908498958c36bbb68890cbd12c8fe65002",
     "3b7e6c797d39063b068e430c594d5b5e6bf6997591accdff71bc6b89b1cd7da3"),
]


@pytest.mark.parametrize("spec, plain, smatrix, tmatrix, verlinde", [case[1:] for case in PINNED_DOUBLES],
                         ids=[case[0] for case in PINNED_DOUBLES])
def test_modular_documents_are_pinned(tmp_path, spec, plain, smatrix, tmatrix, verlinde):
    digests = []
    for flags in ([], ["--smatrix"], ["--tmatrix"]):
        code, text = run_cli(["double", spec, *flags])
        assert code == 0
        digests.append(_payload_digest(text))
    md = tmp_path / "md.json"
    md.write_text(run_cli(["double", spec])[1])
    code, text = run_cli(["verlinde", str(md)])
    assert code == 0
    assert digests + [_payload_digest(text)] == [plain, smatrix, tmatrix, verlinde]


# sha256 of the `sequiv` witness payload of each double against the double of
# a conjugated copy, recorded with the documents above
@pytest.mark.parametrize(
    "spec, cycle, conjugated, digest",
    [
        ("S3", (0, 2, 1), "custom:3:(1 3)|(1 2 3)",
         "cc730564a2706204e72f37dafc486902dbe2db949a4e5c1ee5e166cd3958bc9b"),
        ("A4", (0, 2, 3), "custom:4:(2 4 3)|(1 2 4)",
         "2a2e09303a61225e3a80f5e220d34f0511a313775f7cfdf6509327bf6bfafbba"),
    ],
    ids=["S3", "A4"],
)
def test_sequiv_witnesses_are_pinned(tmp_path, spec, cycle, conjugated, digest):
    assert _conjugated_spec(spec, cycle) == conjugated
    files = []
    for name, s in (("a", spec), ("b", conjugated)):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(run_cli(["double", s])[1])
    code, text = run_cli(["sequiv", *map(str, files)])
    assert code == 0 and docs.loads(text)["payload"]["found"] is True
    assert _payload_digest(text) == digest


# sha256 of the `analyze` payload of each ring's document, with the rule that
# fires, recorded while the catalog still derived its FPdims and types and R4
# rebuilt Rep(D_n) on every verdict.  Rep(D_n) documents come from `repring`;
# F21 is C7:C3 and reaches R7 without a match, as Rep(S4) does.
PINNED_VERDICTS = [
    ("D3", "R4", "2722a337c75b30bf5aac6636045642a45d02dd908262fa7275e233313c26de27"),
    ("D4", "R3", "f976339aa6b404c27d0c95e458bfa14dfee2f3b07679b8c287f07fdc4c38e85a"),
    ("D5", "R4", "614003141382d73a665a15c04c9e68568991dc1ed473cd725d882c89aafadbe9"),
    ("D6", "R4", "68e0b3e08b71eb2852c52008492431566eb91d8fba09f09df32ce6cccea64d11"),
    ("D7", "R4", "413cee5a46507fd5cb6c4d800fb7ab689c67d7a05f52588add61080cb372d088"),
    ("D8", "R3", "6ac12893a3c9bb061e03e85cb0f95ec761bb76bf974bade97683e416b5ebb461"),
    ("custom:7:(1 2 3 4 5 6 7)|(2 3 5)(4 7 6)", None,
     "49ca3704f63bb70882851f17c10a68c2b6eb89750e8517c8058f0ddc6263c623"),
    ("S4", None, "d850c3ff2aad05b8a5cb3db96d7d92ae6e7a85b7111b822cba53ca809c0c84a5"),
    ("J5", "R7", "f99ee14792031f2eabdb226c953fc35a6a76ce6ee5e350f11570b4e4e9e635ad"),
    ("K5", "R7", "35173b42bee4fea6effb3442f0f9b509df7c2c927a12efcd1d60be59e909487d"),
    ("H5", "R7", "75feb3fcccd1c74e638379ff1b3d4187581e485f4820f14ea9f19f813df0eb12"),
    ("B5", "R7", "56af2858562f008d9e2176c3f19f6cb94060568228d5b002f87a51513b3cd4ad"),
    ("B5 dual", "R5", "5f68cf11db0f7eebeea351daab0da3b73dd820895c6dad725cf53f8305ba19a6"),
    ("L5", "R6", "278884e8d38ae63dee2061241824f8d25d81765c921d0ac305825dd27b6bd211"),
]


def _split_ring_document(name):
    """The fusionring document of the split ring called name in PINNED_VERDICTS,
    or None when name is a group spec."""
    from fusionrings.bicross import split_fusion_ring
    from fusionrings.catalog import pair_cyclic_alternating, pair_cyclic_symmetric, pair_transposition_alternating

    pairs = {
        "J5": lambda: pair_cyclic_symmetric(5),
        "K5": lambda: pair_cyclic_alternating(5),
        "H5": lambda: pair_cyclic_symmetric(5).dual(),
        "B5": lambda: pair_transposition_alternating(5),
        "B5 dual": lambda: pair_transposition_alternating(5).dual(),
        "L5": lambda: pair_cyclic_alternating(5).dual(),
    }
    if name not in pairs:
        return None
    return docs.dumps(docs.document("fusionring", docs.ring_payload(split_fusion_ring(pairs[name]()))))


@pytest.mark.parametrize("ring, rule, digest", PINNED_VERDICTS, ids=[case[0] for case in PINNED_VERDICTS])
def test_analyze_verdicts_are_pinned(tmp_path, ring, rule, digest):
    text = _split_ring_document(ring)
    if text is None:
        code, text = run_cli(["repring", ring])
        assert code == 0
    path = tmp_path / "ring.json"
    path.write_text(text)
    code, text = run_cli(["analyze", str(path)])
    assert code == 0
    verdict = docs.loads(text)["payload"]
    assert (verdict["trace"][-1][0] if verdict["verdict"] != "UNKNOWN" else None) == rule
    assert _payload_digest(text) == digest


def _value(q, conductor=1, exponent=0):
    """The modulardata form of q * zeta_conductor^exponent (q a "p/q" string or 0)."""
    return {"conductor": conductor, "coeffs": [[exponent, q]] if q else []}


def _set_s(p, x, y, value, symmetric=True):
    p["s"][x][y] = value
    if symmetric:
        p["s"][y][x] = value


def _break_global_dim(p):
    p["global_dim"] = 35


def _break_unit_twist(p):
    p["t"][0] = _value("-1/1")


def _break_twist_root(p):
    p["t"][7] = _value("-1/1", 3, 1)  # -zeta_3, a root of unity of order 6: still fine
    p["t"][3] = {"conductor": 4, "coeffs": [[0, "3/5"], [1, "4/5"]]}  # modulus 1, not a root of unity
    p["t"][6] = _value("2/1")


def _break_twist_signs(p):
    p["t"][4] = {"conductor": 3, "coeffs": [[0, "1/1"], [1, "-1/1"]]}  # 1 - zeta_3: +-1 at each coordinate


def _break_twist_half(p):
    p["t"][5] = _value("1/2")


def _break_dimension_entry(p):
    _set_s(p, 0, 2, _value("3/1"))
    _set_s(p, 4, 6, _value("1/1"), symmetric=False)  # a later symmetry failure


def _break_zero_dim(p):
    p["dims"][7] = 0
    p["global_dim"] = 27
    _set_s(p, 0, 7, _value(0))


def _break_symmetry(p):
    _set_s(p, 4, 1, _value("5/1"), symmetric=False)
    _set_s(p, 6, 2, _value("7/1"), symmetric=False)
    _set_s(p, 0, 3, _value("5/1"))  # a dimension row failure at a later label


def _break_symmetry_first_in_row(p):
    _set_s(p, 2, 7, _value("1/1"), symmetric=False)
    _set_s(p, 2, 5, _value("1/1"), symmetric=False)


def _break_s_squared(p):
    _set_s(p, 2, 5, _value("-1/1"))


@pytest.mark.parametrize(
    "breaker, message",
    [
        (_break_global_dim, "global_dim failed: squared dims do not sum to |G|^2"),
        (_break_unit_twist, "unit_twist failed"),
        (_break_twist_root, "twist_not_root_of_unity failed: T[3]"),
        (_break_twist_signs, "twist_not_root_of_unity failed: T[4]"),
        (_break_twist_half, "twist_not_root_of_unity failed: T[5]"),
        (_break_dimension_entry, "dimension_row failed: S[0][2] != dim"),
        (_break_zero_dim, "dimension_row failed: dim 7 is zero"),
        (_break_symmetry, "symmetry failed: S[1][4]"),
        (_break_symmetry_first_in_row, "symmetry failed: S[2][5]"),
        (_break_s_squared, "s_squared failed: entry (0,2) is neither 0 nor the global dimension"),
    ],
    ids=["global_dim", "unit_twist", "twist_root", "twist_signs", "twist_half", "dimension_entry", "zero_dim",
         "symmetry", "symmetry_first_in_row", "s_squared"],
)
def test_cli_modular_invariants_fail_at_their_first_entry(tmp_path, capsys, breaker, message):
    """Well-formed modulardata documents that break one certified invariant
    of D(S3) exit 4 naming the invariant and its first failing entry."""
    doc = docs.loads(run_cli(["double", "S3"])[1])
    breaker(doc["payload"])
    bad = tmp_path / "bad.json"
    bad.write_text(docs.dumps(doc))
    capsys.readouterr()
    assert run_cli(["verlinde", str(bad)]) == (4, "")
    assert capsys.readouterr().err == f"error: invariant: {message}\n"


def test_cli_modular_twists_may_be_any_root_of_unity(tmp_path):
    doc = docs.loads(run_cli(["double", "S3"])[1])
    doc["payload"]["t"][7] = _value("-1/1", 3, 1)  # -zeta_3: conductor 3, order 6
    good = tmp_path / "good.json"
    good.write_text(docs.dumps(doc))
    assert run_cli(["verlinde", str(good)])[0] == 0


def _relabelled_j5_document(tmp_path):
    """The J5 ring with its non-unit simples shuffled, so that it differs from
    the catalog's J5, written as a fusionring document; returns (ring, path)."""
    import random

    from fusionrings.bicross import split_fusion_ring
    from fusionrings.catalog import pair_cyclic_symmetric

    ring = split_fusion_ring(pair_cyclic_symmetric(5))
    relabelled = ring.relabel([0] + random.Random(5).sample(range(1, ring.size), ring.size - 1))
    path = tmp_path / "j5.json"
    path.write_text(docs.dumps(docs.document("fusionring", docs.ring_payload(relabelled))))
    return relabelled, path


def test_analyze_computes_invertibles_and_grading_once_per_ring(tmp_path, monkeypatch):
    """analyze on a relabelled J5 document: the verdict's rules, the
    fingerprint of R7's catalog match and the analysis read each ring's
    invertibles and universal grading from the ring, computed once."""
    relabelled, path = _relabelled_j5_document(tmp_path)
    seen = {"_invertibles": [], "_universal_grading": []}
    for name, calls in seen.items():
        def counted(r, compute=getattr(rings, name), calls=calls):
            calls.append(r)  # holding the ring keeps its id from being reused
            return compute(r)

        monkeypatch.setattr(rings, name, counted)
    code, out = run_cli(["analyze", str(path)])
    assert code == 0 and docs.loads(out)["payload"]["verdict"] == "NOT_SOLVABLE"
    for name, calls in seen.items():
        ids = [id(r) for r in calls]
        assert len(ids) == len(set(ids)), name
        assert [r.labels for r in calls].count(relabelled.labels) == 1, name


def test_analyze_grades_each_distinct_ring_once(tmp_path, monkeypatch):
    """R3 and the analysis share one cyclic-nilpotency answer: analyze on a
    relabelled J5 document grades every ring it meets once, the document's
    ring and its 12-simple neutral subring among them, and its payload is
    the recorded one."""
    relabelled, path = _relabelled_j5_document(tmp_path)
    graded = Counter()
    compute = rings._universal_grading

    def counted(r):
        graded[r.labels, r.N.tobytes()] += 1
        return compute(r)

    monkeypatch.setattr(rings, "_universal_grading", counted)
    code, out = run_cli(["analyze", str(path)])
    assert code == 0
    assert set(graded.values()) == {1}
    assert (relabelled.labels, relabelled.N.tobytes()) in graded
    assert 12 in {len(labels) for labels, _ in graded}  # the neutral subring
    payload = docs.dumps(docs.loads(out)["payload"]).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "f99ee14792031f2eabdb226c953fc35a6a76ce6ee5e350f11570b4e4e9e635ad"
    )


def test_cli_double_builds_one_table_per_distinct_centralizer(monkeypatch):
    """Every centralizer in C3 is C3 itself: one character table, and the
    recorded payload."""
    from fusionrings import doubles

    built = []
    compute = doubles.character_table
    monkeypatch.setattr(doubles, "character_table", lambda g: built.append(g) or compute(g))
    code, out = run_cli(["double", "C3"])
    assert code == 0 and len(built) == 1
    payload = docs.dumps(docs.loads(out)["payload"]).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "eb323d4269349f725329f8268c33e896eea3415a3fcf44c550723f3d5f020e88"
    )


def test_cli_closure_cap_reports_how_far_the_closure_got(capsys):
    code, out = run_cli(["group", "custom:8:(1 2)|(1 2 3 4 5 6 7 8)"])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    reached = re.fullmatch(
        r"error: budget: closure exceeds cap 10000: reached (\d+) elements from 2 generators\n", err
    )
    assert reached and 10_000 < int(reached[1]) < 40_320


@pytest.mark.parametrize(
    "spec, order", [("S8", "40320"), ("A8", "20160"), ("S9", "at least 40320"), ("A10", "at least 20160")]
)
def test_cli_family_cap_names_the_order_it_refused(capsys, spec, order):
    code, out = run_cli(["group", spec])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: budget: group order {order} exceeds cap 10000\n"


def _analyze_ring(tmp_path, labels, products):
    """analyze on the fusionring document of the ring whose non-unit
    products are ``products``: {(i, j): support of i*j}, multiplicity 1."""
    n = len(labels)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    tensor[0, range(n), range(n)] = tensor[range(n), 0, range(n)] = 1
    for (i, j), support in products.items():
        tensor[i, j, support] = 1
    path = tmp_path / "ring.json"
    ring = rings.FusionRing(labels, tensor)
    path.write_text(docs.dumps(docs.document("fusionring", docs.ring_payload(ring))))
    code, out = run_cli(["analyze", str(path)])
    assert code == 0
    return docs.loads(out)["payload"]["analysis"]


def test_analyze_invertibles_of_non_integral_rings(tmp_path):
    """x is invertible exactly when x*x^* = 1, whatever the dimensions."""
    ising = _analyze_ring(
        tmp_path, ("1", "psi", "sigma"), {(1, 1): [0], (1, 2): [2], (2, 1): [2], (2, 2): [0, 1]}
    )
    assert ising["invertibles"] == {"order": 2, "name": "C2"} and "type" not in ising
    fibonacci = _analyze_ring(tmp_path, ("1", "tau"), {(1, 1): [0, 1]})
    assert fibonacci["invertibles"] == {"order": 1, "name": "1"} and "type" not in fibonacci


@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_cli_deeply_nested_documents_are_usage_errors(tmp_path, capsys, opener):
    path = tmp_path / "deep.json"
    path.write_text(opener * 100_000)
    for command in ("analyze", "verlinde"):
        assert run_cli([command, str(path)]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and "Traceback" not in err


@pytest.mark.parametrize("dims", [[1, 7, 9], [2, 1, 1], [1, 1, -2], [1, 1, 2**64]])
def test_cli_wrong_ring_dims_name_the_claim(tmp_path, capsys, dims):
    doc = docs.loads(run_cli(["repring", "S3"])[1])
    assert doc["payload"]["dims"] == [1, 1, 2]
    doc["payload"]["dims"] = dims
    path = tmp_path / "ring.json"
    path.write_text(docs.dumps(doc))
    assert run_cli(["analyze", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: usage: fusionring dims {dims} are not the tensor's dimensions\n"


def test_certified_rings_and_their_documents_skip_the_dimension_search(monkeypatch):
    """Rep G, split and Verlinde rings carry their dims certified, and so do
    documents that state them; only a document without dims searches."""
    from fusionrings.bicross import split_fusion_ring
    from fusionrings.catalog import pair_cyclic_alternating
    from fusionrings.doubles import verlinde_fusion

    def search(ring):
        raise AssertionError("eigenvector search for known dimensions")

    monkeypatch.setattr(rings, "_search_dims", search)
    for ring in (
        rep_g_fusion_ring(character_table(symmetric_group(4))),
        split_fusion_ring(pair_cyclic_alternating(5)),
        verlinde_fusion(double_modular_data(symmetric_group(3))),
    ):
        dims = rings.fp_dims(ring)
        assert dims.exact
        payload = docs.loads(docs.dumps(docs.document("fusionring", docs.ring_payload(ring))))["payload"]
        assert payload["dims"] == list(dims.dims)
        assert rings.fp_dims(docs.ring_from_payload(payload)) == dims
        del payload["dims"]
        with pytest.raises(AssertionError, match="eigenvector search"):
            rings.fp_dims(docs.ring_from_payload(payload))
