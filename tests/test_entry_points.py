"""Entry points that live outside the library: the benchmark tracer and the demos."""

import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusionrings import cli

ROOT = Path(__file__).resolve().parents[1]


def load_tracer_module():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_group_layer_buckets():
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["chartab", "S4"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "perms.closure" in tracer.self_time
    assert "perms.classes" in tracer.self_time


def test_tracer_records_both_searches_in_their_callers_buckets(tmp_path):
    files = {}
    for name, argv in (("ring", ["repring", "S4"]), ("md", ["double", "S3"])):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(out.getvalue())
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["equiv", str(files["ring"]), str(files["ring"])]),
                cli.main(["sequiv", str(files["md"]), str(files["md"])]),
            ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert tracer.self_time["equivalence.search"] > 0
    assert tracer.self_time["doubles.sequiv"] > 0
    assert tracer.counts["equivalence.found"] == 1
    # the shared search is private: no public equivalence function beyond
    # the listed buckets is traced
    assert "equivalence.other" not in tracer.self_time


def test_tracer_puts_the_decomposition_kernel_in_its_callers_buckets(tmp_path):
    files = {}
    for name, argv in (("md", ["double", "S3"]), ("pair", ["pair", "A5", "C5", "A4"])):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(out.getvalue())
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["repring", "S5"]),
                cli.main(["verlinde", str(files["md"])]),
                cli.main(["bicross", str(files["pair"]), "--ring"]),
            ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    for bucket in ("chartab.rep_ring", "doubles.verlinde", "bicross.ring"):
        assert tracer.self_time[bucket] > 0
    # the kernel is private to rings: no public rings function beyond the
    # listed buckets is traced
    assert "rings.other" not in tracer.self_time


def test_tracer_puts_the_whole_table_in_chartab_table():
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["chartab", "C60"])
    finally:
        tracer.uninstall()
    assert code == 0
    st = tracer.self_time
    assert st["chartab.table"] > 0
    assert "rings.other" not in st and "cyclo.ops" not in st
    # every helper of the table is private: the only traced call inside it
    # reads the group's class map, so cyclo.other comes only from the
    # document boundary
    spans = tracer.span_records()
    name = {s["id"]: s["name"] for s in spans}
    table = {s["id"] for s in spans if s["name"] == "chartab.character_table"}
    assert len(table) == 1
    assert {s["name"] for s in spans if s["parent"] in table} <= {"perms.PermGroup.class_index_map"}
    assert {name[s["parent"]] for s in spans if s["name"].startswith("cyclo.")} <= {"docs.chartab_payload"}



# pair -> bicross x3 -> analyze -> equiv, plus repring, double, verlinde and
# sequiv: (output file, argv), "@name" the path of an earlier output
TRACED_CHAIN = [
    ("pair.json", ["pair", "A5", "C5", "A4"]),
    ("type.json", ["bicross", "@pair.json", "--type"]),
    ("k5.json", ["bicross", "@pair.json", "--ring"]),
    ("dual.json", ["bicross", "@pair.json", "--dual-invertibles"]),
    ("verdict.json", ["analyze", "@k5.json"]),
    ("witness.json", ["equiv", "@k5.json", "@k5.json"]),
    ("s4.json", ["repring", "S4"]),
    ("md.json", ["double", "S3"]),
    ("verlinde.json", ["verlinde", "@md.json"]),
    ("switness.json", ["sequiv", "@md.json", "@md.json"]),
]


def _run_chain(tmp_path):
    outputs = {}
    for name, argv in TRACED_CHAIN:
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0, argv
        (tmp_path / name).write_text(out.getvalue())
        outputs[name] = out.getvalue()
    return outputs


def test_traced_commands_emit_the_untraced_bytes(tmp_path):
    untraced = _run_chain(tmp_path)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        traced = _run_chain(tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.counts["cli.commands"] == len(TRACED_CHAIN)
    assert traced == untraced

# sha256 of each demo's stdout, recorded before the catalog stored its FPdims
# and types; every demo prints the same bytes on every run
DEMO_STDOUT = {
    "01_permutation_groups": "df2f769046270b32161b1b736b5ab6cc5230364407e6f74d78e9a329fb3679de",
    "02_cyclotomic_arithmetic": "68b7815f7695dc62e714c1d40e4d9b7e40ec92158a75f1a9b2195cd44c398531",
    "03_character_tables": "98d5fe897bddcd2762e44e25fb6f164504b30423371dcd41c9bf8de3ea754967",
    "04_bicrossed_products": "c1c361b55eeecad06a31e2266237429d42d1cef285c46515abedb3a7273eb7b3",
    "05_solvability": "9719b9208e28c0eb93a2d6916441aabdaf86b15d75628e4c85bcc0967fc28518",
    "06_drinfeld_doubles": "c17f186832ebc3cf1d22516dd65c0724bf5e7e88af314c66494d677f7527e715",
}


def _src_env():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=_src_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo.stem]


# every CLI command once, in one process; prints whether numpy.ma was imported
ALL_COMMANDS = """
import contextlib, io, sys, tempfile
from pathlib import Path
from fusionrings import cli

tmp = Path(tempfile.mkdtemp())

def run(argv, name=None):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    if name:
        (tmp / name).write_text(out.getvalue())

run(["group", "S4"])
run(["chartab", "S4"])
run(["repring", "D6"], "d6.json")
run(["repring", "S4"], "s4.json")
run(["pair", "S5", "C5", "S4"], "pair.json")
for flag in ([], ["--ring"], ["--dual-invertibles"]):
    run(["bicross", str(tmp / "pair.json"), *flag], "j5.json" if flag == ["--ring"] else None)
for flag in ([], ["--smatrix"], ["--tmatrix"]):
    run(["double", "S3", *flag], None if flag else "md.json")
run(["verlinde", str(tmp / "md.json")])
for ring in ("d6", "s4", "j5"):  # R4, R7 without a match, R7 with one
    run(["analyze", str(tmp / f"{ring}.json")])
run(["equiv", str(tmp / "d6.json"), str(tmp / "d6.json")])
run(["sequiv", str(tmp / "md.json"), str(tmp / "md.json")])
run(["paper-suite"])
print("numpy.ma" in sys.modules)
"""


def test_no_cli_command_imports_numpy_ma():
    """numpy.ma costs a CLI process about 6 ms to import; np.unique imports
    it on its first plain call, so the library dedupes without it."""
    proc = subprocess.run(
        [sys.executable, "-c", ALL_COMMANDS], capture_output=True, text=True, env=_src_env(), timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
