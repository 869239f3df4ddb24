"""End-to-end benchmark of the fusionrings command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rep-pipeline --seed 1 --seconds 10 --trace 0

Each job is a chain of CLI commands run in-process through
``fusionrings.cli.main(argv)`` with stdout captured; documents pass between
commands as files in a temporary directory under ``.perfbench_out/``.  A run
imports the library, builds the solvability catalog, makes one untimed
warm-up pass and then timed passes, each over freshly relabelled inputs,
until ``--seconds`` have passed (at least three).  Every emitted payload is
checked after its pass.

End-to-end times are host-scaled: each command's wall time is scaled by the
host's speed, sampled with a fixed piece of work just before and just after
the command (see ``hostspeed.py``), to what it would take on the reference
host.  Raw wall times are printed alongside on the ``#`` report line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also makes one
traced pass and prints the per-layer metrics from it (see ``tracer.py``).
The last line of stdout is one JSON object.  ``--record`` rewrites
``expected/<workload>.json`` from the default seed instead of checking it.
"""

import os

# Pinned before numpy is imported: the scipy-openblas build allows 64
# threads, and split_fusion_ring calls np.linalg.lstsq.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
# At least three timed passes, so that job_tail_s has ten samples beyond it;
# each workload's job mix puts that rank inside one kind of job's samples,
# not between two kinds.
MIN_PASSES = 3
CATALOG_BUILDS = 3
RECORD_PASSES = 8  # passes of the default seed whose digests are committed
TAIL_BEYOND = 10  # job_tail_s: highest percentile with this many samples beyond it


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "fusionrings" / "cli.py").is_file():
        print(f"error: no fusionrings sources under {SRC}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    sys.path.insert(0, str(HERE))
    from hostspeed import Meter

    sys.path.insert(0, str(SRC))
    import_meter = Meter()
    import_meter.start()  # numpy is first imported here, as for a user
    import fusionrings.catalog
    import fusionrings.cli

    import_meter.lap()

    from workloads import NODE_BUDGET, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.workload in NODE_BUDGET:
        os.environ["WORKBENCH_NODE_BUDGET"] = str(NODE_BUDGET[args.workload])
    else:
        os.environ.pop("WORKBENCH_NODE_BUDGET", None)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.record:
            return record(runner)
        if args.trace:
            metrics, extra = traced_run(runner, args.seconds)
        else:
            metrics, extra = untraced_run(runner, args.seconds, import_meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(load_before, os.getloadavg())
    report(runner, metrics, extra, env)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# -- running jobs ---------------------------------------------------------------


class PassResult:
    def __init__(self, index, meter, job_laps, cli_time):
        self.index = index
        scaled = meter.scaled()
        bounds = list(zip(job_laps, job_laps[1:]))
        self.raw_latencies = [sum(meter.segments[a:b]) for a, b in bounds]
        self.latencies = [sum(scaled[a:b]) for a, b in bounds]  # host-scaled
        # wall time of the pass's jobs, calibration samples excluded
        self.wall = sum(self.raw_latencies)
        self.time = sum(self.latencies)  # host-scaled
        self.cli_time = cli_time  # time inside cli.main, measured by the runner


class Runner:
    def __init__(self, workload, seed, workdir, tamper=None):
        from fusionrings import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tamper = tamper  # (job, file name, text) -> text; used by the self-check
        self.calibrate = False  # sample host speed around every command (untraced runs)
        path = HERE / "expected" / f"{workload}.json"
        self.expected = json.loads(path.read_text()) if path.is_file() else None
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (pass index, job name, reason)

    def run_pass(self, index, check=True):
        from workloads import make_jobs

        return self.run_jobs(make_jobs(self.workload, self.seed, index), index, check)

    def run_jobs(self, jobs, index, check=True):
        """Time one pass over ``jobs``; check the outputs afterwards."""
        dirs = []
        for i, job in enumerate(jobs):
            d = self.workdir / f"p{index}-{i}"
            d.mkdir()
            for name, text in job.inputs.items():
                (d / name).write_text(text)
            dirs.append(d)
        from hostspeed import Meter

        self.cli_time = 0.0
        results = []
        meter = Meter(self.calibrate)
        job_laps = [0]  # job i is made of meter segments job_laps[i]:job_laps[i + 1]
        meter.start()
        for job, d in zip(jobs, dirs):
            outputs, error = self._run_job(job, d, meter)
            job_laps.append(len(meter.segments))
            results.append((job, outputs, error))
        cli_time = self.cli_time
        for d in dirs:
            shutil.rmtree(d)
        if check:
            for job, outputs, error in results:
                self.attempted += 1
                reason = error or self._check(job, outputs, index)
                if reason:
                    self.failed += 1
                    self.failures.append((index, job.name, reason))
        return PassResult(index, meter, job_laps, cli_time), results

    def _run_job(self, job, d, meter):
        """Run one job's steps; ``meter`` laps after every CLI command."""
        from workloads import relabel_perm, relabel_ring

        outputs = {}
        for step in job.steps:
            if step[0] == "relabel":
                _, src, dst, key = step
                n = len(json.loads(outputs[src])["payload"]["labels"])
                text = relabel_ring(outputs[src], relabel_perm(key, n))
                (d / dst).write_text(text)
                outputs[dst] = text
                continue
            _, argv, out = step
            argv = [str(d / a[1:]) if a.startswith("@") else a for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed job, not a failed benchmark
                rc = f"uncaught {type(exc).__name__}: {exc}"
            self.cli_time += time.perf_counter() - start
            meter.lap()
            if rc != 0:
                return outputs, f"{argv[0]} exit {rc}: {stderr.getvalue().strip()[:200]}"
            text = stdout.getvalue()
            if self.tamper is not None:
                text = self.tamper(job, out, text)
            (d / out).write_text(text)
            outputs[out] = text
        return outputs, None

    def _check(self, job, outputs, index):
        import checks

        try:
            problems = checks.verify(job.kind, job.inputs, outputs)
            if problems:
                return "; ".join(problems)
            if self.expected is None:
                return "no expected/<workload>.json to check against"
            got = json.loads(json.dumps(checks.invariants(job.kind, outputs)))
            want = self.expected["invariants"].get(job.name)
            if got != want:
                return f"invariants {got} != expected {want}"
            digests = self.expected["digests"].get(str(index))
            if self.seed == DEFAULT_SEED and digests is not None:
                if checks.job_digest(outputs) != digests.get(job.name):
                    return "payload digest differs from the committed default-seed set"
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None


def build_catalog():
    from fusionrings import catalog

    for entry in catalog.default_catalog():
        entry.type_signature()


def clear_catalog():
    from fusionrings import catalog

    for fn in (
        catalog.default_catalog,
        catalog.pair_cyclic_symmetric,
        catalog.pair_cyclic_alternating,
        catalog.pair_transposition_alternating,
    ):
        fn.cache_clear()


def timed_passes(runner, seconds, first_index):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(first_index + len(passes))[0])
    return passes


def untraced_run(runner, seconds, import_meter):
    from hostspeed import Meter

    runner.calibrate = True
    catalog_meter = Meter()
    catalog_meter.start()
    for k in range(CATALOG_BUILDS):
        if k:
            clear_catalog()
        build_catalog()
        catalog_meter.lap()
    warm, _ = runner.run_pass(0)
    import_s = import_meter.scaled()[0]
    catalog_s = catalog_meter.scaled()
    setup_s = import_s + statistics.median(catalog_s) + warm.time
    raw_setup_s = import_meter.segments[0] + statistics.median(catalog_meter.segments) + warm.wall
    passes = timed_passes(runner, seconds, 1)
    lat = sorted(x for p in passes for x in p.latencies)
    jobs_per_pass = len(passes[0].latencies)
    # Fixed per workload, so every run reads the same rank: with MIN_PASSES
    # passes exactly TAIL_BEYOND samples lie beyond it, more passes give more.
    q = 1 - TAIL_BEYOND / (jobs_per_pass * MIN_PASSES)
    tail = lat[math.ceil(q * len(lat)) - 1]
    raw_lat = sorted(x for p in passes for x in p.raw_latencies)
    metrics = {
        "run_s": _m(statistics.median(p.time for p in passes), "s"),
        "job_p50_s": _m(statistics.median(lat), "s"),
        "job_tail_s": _m(tail, "s"),
        "setup_s": _m(setup_s, "s"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "passes": len(passes),
        "job_samples": len(lat),
        "tail_percentile": round(100 * q, 2),
        "tail_samples_beyond": len(lat) - math.ceil(q * len(lat)),
        "import_s": import_s,
        "catalog_s": catalog_s,
        "warmup_s": warm.time,
        "pass_s": [p.time for p in passes],
        "raw_wall": {
            "run_s": statistics.median(p.wall for p in passes),
            "job_p50_s": statistics.median(raw_lat),
            "setup_s": raw_setup_s,
            "pass_s": [p.wall for p in passes],
        },
    }
    return metrics, extra


def traced_run(runner, seconds):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    build_catalog()
    runner.run_pass(0)
    catalog_build_s = tracer.inclusive["catalog.build"]
    catalog_rings = tracer.counts["catalog.rings_built"]
    tracer.uninstall()

    passes = timed_passes(runner, seconds, 1)
    run_s = statistics.median(p.wall for p in passes)

    tracer.reset()
    tracer.install()
    try:
        traced, _ = runner.run_pass(1 + len(passes))
    finally:
        tracer.uninstall()

    overhead = traced.wall - run_s
    gaps = traced.wall - traced.cli_time
    self_total = sum(tracer.self_time.values())
    tol = 1e-3 + 1e-3 * traced.wall
    accounting_error = self_total + gaps - traced.wall
    if abs(accounting_error) > tol:
        runner.failed += 1
        runner.failures.append((traced.index, "trace", f"self times miss the traced pass by {accounting_error:.4f} s"))
    if abs(self_total + gaps - run_s) > abs(overhead) + tol:
        runner.failed += 1
        runner.failures.append((traced.index, "trace", "self times plus gaps exceed run_s by more than the overhead"))

    st, c = tracer.self_time, tracer.counts
    layers = tracer.layer_self_times()
    values = {
        "perms.closure_s": st["perms.closure"],
        "perms.classes_s": st["perms.classes"],
        "perms.elements": c["perms.elements"],
        "perms.mul_calls": c["perms.mul_calls"],
        "chartab.table_s": st["chartab.table"],
        "chartab.tables": c["chartab.tables"],
        "chartab.classes": c["chartab.classes"],
        "chartab.rep_ring_s": st["chartab.rep_ring"],
        "cyclo.mul_calls": c["cyclo.mul_calls"],
        "cyclo.add_calls": c["cyclo.add_calls"],
        "cyclo.inverse_calls": c["cyclo.inverse_calls"],
        "doubles.build_s": st["doubles.build"],
        "doubles.verlinde_s": st["doubles.verlinde"],
        "doubles.sequiv_s": st["doubles.sequiv"],
        "doubles.labels": c["doubles.labels"],
        "docs.dump_s": st["docs.dump"],
        "docs.load_s": st["docs.load"],
        "docs.bytes_out": c["docs.bytes_out"],
        "docs.bytes_in": c["docs.bytes_in"],
        "bicross.pair_s": st["bicross.pair"],
        "bicross.irreps_s": st["bicross.irreps"],
        "bicross.ring_s": st["bicross.ring"],
        "bicross.dual_inv_s": st["bicross.dual_inv"],
        "bicross.simples": c["bicross.simples"],
        "equivalence.fingerprint_s": st["equivalence.fingerprint"],
        "equivalence.search_s": st["equivalence.search"],
        "equivalence.calls": c["equivalence.calls"],
        "equivalence.found": c["equivalence.found"],
        "equivalence.refuted": c["equivalence.refuted"],
        "equivalence.budget_hits": c["equivalence.budget_hits"],
        "rings.validate_s": st["rings.validate"],
        "rings.fp_dims_s": st["rings.fp_dims"],
        "rings.structure_s": st["rings.structure"],
        "catalog.build_s": catalog_build_s,
        "catalog.rings_built": catalog_rings,
        "solvability.verdicts": c["solvability.verdicts"],
        "cli.commands": c["cli.commands"],
        "trace.run_s": traced.wall,
        "trace.overhead_s": overhead,
        "trace.gaps_s": gaps,
    }
    for layer in ("perms", "tables", "cyclo", "chartab", "rings", "equivalence",
                  "solvability", "catalog", "bicross", "doubles", "docs", "cli"):
        values[f"{layer}.self_s"] = layers.get(layer, 0.0)
    metrics = {
        name: _m(v, "s" if name.endswith("_s") else ("B" if "bytes" in name else "count"))
        for name, v in values.items()
    }
    shares = {layer: t / traced.wall for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])}
    shares["(gaps)"] = gaps / traced.wall
    extra = {
        "untraced_run_s": run_s,
        "untraced_pass_s": [p.wall for p in passes],
        "self_time_shares": shares,
        "spans": len(tracer.spans),
        "buckets": dict(st),
        "counts": dict(c),
    }
    trace_file = OUT / f"trace-{runner.workload}-seed{runner.seed}.json"
    trace_file.write_text(json.dumps({**extra, "span_records": tracer.span_records()}))
    extra["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, extra


def record(runner):
    """Write expected/<workload>.json from the default seed's outputs."""
    import checks

    if runner.seed != DEFAULT_SEED:
        print("error: --record needs the default seed", file=sys.stderr)
        return 2
    build_catalog()
    invariants, digests = {}, {}
    for index in range(RECORD_PASSES):
        _, results = runner.run_pass(index, check=False)
        digests[str(index)] = {}
        for job, outputs, error in results:
            if error or checks.verify(job.kind, job.inputs, outputs):
                print(f"error: pass {index} job {job.name}: {error or 'check failed'}", file=sys.stderr)
                return 1
            inv = json.loads(json.dumps(checks.invariants(job.kind, outputs)))
            if invariants.setdefault(job.name, inv) != inv:
                print(f"error: invariants of {job.name} depend on the relabelling", file=sys.stderr)
                return 1
            digests[str(index)][job.name] = checks.job_digest(outputs)
    path = HERE / "expected" / f"{runner.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"invariants": invariants, "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


# -- reporting ------------------------------------------------------------------


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def environment(load_before, load_after):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }


def report(runner, metrics, extra, env):
    print(f"# fusionrings benchmark: workload={runner.workload} seed={runner.seed}")
    print("# env: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    ratio = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"{'fail_ratio':28s} {ratio:.6g} ratio ({runner.failed}/{runner.attempted} jobs)")
    for index, name, reason in runner.failures:
        print(f"# failed: pass {index} job {name}: {reason}")
    print("# " + json.dumps(extra, sort_keys=True, default=str))


if __name__ == "__main__":
    sys.exit(main())
