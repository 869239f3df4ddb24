"""Self-check of the benchmark's own failure accounting and trace arithmetic.

    python3 perfbench/selfcheck.py

Three cases, each printed as PASS or FAIL (exit status 1 on any FAIL):

1. corrupted payload: one structure constant of an emitted ring, flipped
   before the next command reads it, makes its job count as failed, while
   the same job untouched passes;
2. forced budget hit: ``equiv`` on the relabelled A5 group ring (60 simples,
   minutes to finish) under a 20k-node budget exits 3 and counts as failed;
3. trace arithmetic: in a traced run, layer self times plus untraced gaps
   add up to the traced pass, and to the untraced run_s within the measured
   tracing overhead.
"""

import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS thread count before numpy is imported


def _runner(workload, tamper=None):
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    return run.Runner(workload, run.DEFAULT_SEED, workdir, tamper), workdir


def corrupted_payload():
    from workloads import make_jobs

    job = next(j for j in make_jobs("rep-pipeline", run.DEFAULT_SEED, 0) if j.name == "D5")

    def flip(job, name, text):
        if name != "ring.json":
            return text
        doc = json.loads(text)
        n = len(doc["payload"]["labels"])
        doc["payload"]["tensor"][(n + 1) * n + 1] += 1  # N[1][1][1]
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    clean, d1 = _runner("rep-pipeline")
    tampered, d2 = _runner("rep-pipeline", flip)
    try:
        clean.run_jobs([job], 0)
        tampered.run_jobs([job], 0)
    finally:
        shutil.rmtree(d1)
        shutil.rmtree(d2)
    ok = clean.failed == 0 and tampered.failed == 1 and tampered.attempted == 1
    return ok, f"untouched D5 failed={clean.failed}; corrupted D5 failed={tampered.failed}: {tampered.failures}"


def forced_budget_hit():
    from workloads import equiv_job

    job = equiv_job("A5-relabelled", "A5", "A5", random.Random("selfcheck"))
    os.environ["WORKBENCH_NODE_BUDGET"] = "20000"
    runner, d = _runner("bicross-search")
    try:
        passed, _ = runner.run_jobs([job], 0)
    finally:
        shutil.rmtree(d)
        os.environ.pop("WORKBENCH_NODE_BUDGET")
    reason = runner.failures[0][2] if runner.failures else ""
    ok = runner.failed == 1 and "exit 3" in reason
    return ok, f"budget-hit jobs: A5-relabelled ({passed.wall:.2f} s, failed={runner.failed}: {reason})"


def trace_arithmetic():
    os.environ["WORKBENCH_NODE_BUDGET"] = "100000"
    runner, d = _runner("bicross-search")
    try:
        metrics, extra = run.traced_run(runner, 0)
    finally:
        shutil.rmtree(d)
        os.environ.pop("WORKBENCH_NODE_BUDGET")
    layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    gaps = metrics["trace.gaps_s"]["value"]
    traced = metrics["trace.run_s"]["value"]
    overhead = metrics["trace.overhead_s"]["value"]
    run_s = extra["untraced_run_s"]
    tol = 1e-3 + 1e-3 * traced
    ok = abs(layers + gaps - traced) <= tol and abs(layers + gaps - run_s) <= abs(overhead) + tol
    return ok, (
        f"self {layers:.4f} s + gaps {gaps:.4f} s = {layers + gaps:.4f} s; traced pass {traced:.4f} s; "
        f"untraced run_s {run_s:.4f} s; overhead {overhead:.4f} s"
    )


def main():
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    all_ok = True
    for case in (corrupted_payload, forced_budget_hit, trace_arithmetic):
        ok, detail = case()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {case.__name__}: {detail}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
