"""Benchmark of the koszul engine: seeded workloads, checked answers, and an
optional per-layer trace.

Run from the root of a checkout (Python 3.10+, standard library only)::

    python3 perfbench/run.py --workload tor-series --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One run sets up ``SETUP_REPEATS`` times (a fresh import of ``koszul`` from
``src/``, then generating, writing and parsing the ring documents) and then
repeats the workload's pass, in this process and on one thread, until
``--seconds`` would be exceeded, with at least ``MIN_PASSES`` passes.  A
workload may have several input variants (63ne has one per variable order);
pass k runs on variant k modulo their number.  Each
operation calls ``koszul.cli.main`` with stdout captured; no object survives
from one operation to the next, so no cache carries over.  Every answer is
checked after its pass (see ``checks.py``); an operation fails on a non-zero
exit, an exception or a failed check.

``--trace 0`` reports the end-to-end metrics: the medians of ``setup_s``,
``wall_s`` and ``cpu_s`` (process CPU time of a pass) and the process's
``peak_rss_mib``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracer.py``; it also checks that traced
answers equal untraced ones and that every traced pass reports the same exact
counts.  The spans of the last traced pass are written to
``.perfbench-out/spans-<workload>.csv.gz`` under the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds diagnostics, among them the per-operation wall times of every pass and
``fail_frac``.  ``--workload all`` runs every workload in its own process and
prints a table of the metrics as well.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_pass, load_reference
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


class SetupError(Exception):
    pass


def import_koszul():
    """Import ``koszul.cli`` afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "koszul" or n.startswith("koszul.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("koszul.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import koszul from {SRC}: {exc}")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"koszul was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int, workdir: Path):
    """Import koszul, generate, write and parse the ring documents.

    Returns the cli module and, per input variant, the documents and the
    paths they were written to.
    """
    cli = import_koszul()
    variants = []
    for k, docs in enumerate(workload.documents(seed)):
        paths = {}
        for name, doc in docs.items():
            path = workdir / f"{name}-{k}.json"
            path.write_text(json.dumps(doc))
            paths[name] = str(path)
            cli.load_ring(paths[name])
        variants.append((docs, paths))
    return cli, variants


def run_op(cli, op, paths):
    """Run one operation; returns ("ok", result document) or ("error", reason)."""
    try:
        if op.hilbert_degree is not None:
            ring, digest = cli.load_ring(paths[op.doc])
            return "ok", {"version": "1", "command": "hilbert", "ring": digest,
                          "bounds": {"max_degree": op.hilbert_degree},
                          "tables": {"hilbert": ring.hilbert_coeffs(op.hilbert_degree)},
                          "verdicts": {}, "timing": None}
        argv = [paths[a[1:]] if a.startswith("@") else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            return "error", f"exit {code}: {err.getvalue().strip()[-300:]}"
        return "ok", json.loads(out.getvalue())
    except Exception:  # an op that raises is counted as failed, not fatal
        return "error", traceback.format_exc(limit=3)[-600:]


def run_ops(cli, workload, paths):
    results, times = {}, {}
    for op in workload.ops:
        t0 = time.perf_counter()
        results[op.name] = run_op(cli, op, paths)
        times[op.name] = time.perf_counter() - t0
    return results, times


def untraced_pass(cli, workload, paths):
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    results, times = run_ops(cli, workload, paths)
    wall = time.perf_counter() - t0
    return {"wall": wall, "cpu": time.process_time() - c0, "times": times,
            "results": results}


def traced_pass(cli, workload, paths):
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        (results, times), root_ns = tracer.root_span(run_ops, cli, workload, paths)
    finally:
        tracer.uninstall()
    return {"wall": root_ns / 1e9, "times": times, "results": results,
            "tracer": tracer, "layers": tracer.layer_metrics(root_ns),
            "counts": tracer.exact_counts()}


class Ledger:
    """Checks each pass's answers and keeps the failure counts."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, pass_, variant: int, docs: dict) -> dict:
        outcome = check_pass(self.workload, self.reference, self.seed, variant, docs,
                             pass_["results"])
        for name, (_, problems) in outcome.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.append({name: problems})
        return {name: digest for name, (digest, _) in outcome.items()}


def write_spans(tracer: Tracer, workload: str) -> str:
    """Write the spans of one traced pass, gzipped CSV, one file per workload."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        for span in sorted(tracer.spans, key=lambda s: s[3]):
            fh.write(",".join(map(str, span)) + "\n")
    return str(path.relative_to(ROOT))


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, variants = setup(workload, seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    ledger = Ledger(workload, seed)
    diagnostics = {"workload": workload.name, "seed": seed, "generator": workload.generator,
                   "ops": {op.name: list(op.argv) or ["hilbert_coeffs", op.hilbert_degree]
                           for op in workload.ops},
                   "setup_s": setup_s}
    start = time.perf_counter()
    untraced, traced, self_checks = [], [], []

    def out_of_time(*groups):
        elapsed = time.perf_counter() - start
        return elapsed + sum(statistics.median(p["wall"] for p in g) for g in groups) > seconds

    while True:
        # traced runs stay on one variant, so that exact counts must repeat
        variant = 0 if trace else len(untraced) % len(variants)
        docs, paths = variants[variant]
        p = untraced_pass(cli, workload, paths)
        p["digests"] = ledger.check(p, variant, docs)
        untraced.append(p)
        if not trace:
            if len(untraced) >= MIN_PASSES and out_of_time(untraced):
                break
            continue
        t = traced_pass(cli, workload, paths)
        last_tracer = t.pop("tracer")  # keep the spans of one pass only
        t["digests"] = ledger.check(t, variant, docs)
        traced.append(t)
        if t["digests"] != p["digests"]:
            self_checks.append("traced answers differ from untraced answers")
        if t["counts"] != traced[0]["counts"]:
            self_checks.append("exact counts differ between traced passes")
        if len(traced) >= MIN_TRACED_PASSES and out_of_time(untraced, traced):
            break

    diagnostics["passes"] = len(untraced)
    diagnostics["per_op_wall_s"] = {op.name: [p["times"][op.name] for p in untraced]
                                    for op in workload.ops}
    if trace:
        u_wall = statistics.median(p["wall"] for p in untraced)
        t_wall = statistics.median(p["wall"] for p in traced)
        metrics = {}
        for name, (value, unit) in traced[-1]["layers"].items():
            if unit == "s" or name.startswith("trace."):
                value = statistics.median(p["layers"][name][0] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_frac"] = {"value": t_wall / u_wall - 1, "unit": "ratio"}
        diagnostics["traced_passes"] = len(traced)
        diagnostics["traced_per_op_wall_s"] = {
            op.name: [p["times"][op.name] for p in traced] for op in workload.ops}
        diagnostics["exact_counts"] = traced[-1]["counts"]
        diagnostics["trace_hook_s"] = last_tracer.self_ns["trace"] / 1e9
        diagnostics["spans"] = len(last_tracer.spans)
        diagnostics["spans_file"] = write_spans(last_tracer, workload.name)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
            "cpu_s": (statistics.median(p["cpu"] for p in untraced), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    diagnostics["fail_frac"] = ledger.failed / ledger.attempted
    diagnostics["failures"] = ledger.failures[:10]
    diagnostics["self_check_failures"] = sorted(set(self_checks))
    result = {"correct": ledger.failed == 0 and not self_checks,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    return result, diagnostics


def run_all(args) -> int:
    """Run every workload in its own process and tabulate the metrics."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        fail_frac = result["failed"] / result["attempted"]
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
        merged["metrics"][f"{name}/fail_frac"] = {"value": fail_frac, "unit": "ratio"}
        rows.append((name, result, fail_frac))
    for name, result, fail_frac in rows:
        cells = [f"{m} {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
        print(f"{name:16} " + "  ".join(cells) + f"  fail_frac {fail_frac:.6g}"
              + ("" if result["correct"] else "  INCORRECT"))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "koszul" / "__init__.py").is_file():
        print(f"error: no koszul package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, diagnostics = measure(WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
