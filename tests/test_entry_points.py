"""Entry points that live outside the library: the benchmark tracer and the demos."""

import contextlib
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


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
