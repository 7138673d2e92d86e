"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts one fresh worker process per pass
(``worker.py``), one after another, for about S seconds: a pass starts only
if, by the median duration of the earlier passes of its kind, at least half
of it fits before the deadline; at least one pass of each kind always runs.  With ``--trace 1`` untraced and
traced passes alternate, and the difference of their median ``solve_s`` is
the tracing overhead.  Besides the pass workers, import-only workers top
the ``setup_s`` samples up to MIN_SETUP_SAMPLES.

Prints a run record (machine, versions, commit, seed, parameters, every
sample) as one JSON line, then as the last line the result: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  Each
metric is the median over the run's passes; the record also gives the
highest percentile with at least ten samples beyond it, when a run has the
eleven samples that needs.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
WORK = CHECKOUT / ".bench_work"
MIN_SETUP_SAMPLES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metric -> unit; cache ratios are derived from worker.CACHES
PER_LAYER = {
    "cosets.self_s": "s", "cosets.p1_size": "count",
    "qf.self_s": "s", "qf.enumerate_calls": "count", "qf.classes": "count",
    "qf.canonical_key_hit_ratio": "ratio", "qf.canonical_key_lookups": "count",
    "qf.reuse_ratio": "ratio", "qf.disk_cache_writes": "count",
    "modsym.self_s": "s", "modsym.act_calls": "count",
    "dist.self_s": "s", "dist.act_calls": "count",
    "dist.act_blocks_hit_ratio": "ratio", "dist.act_blocks_lookups": "count",
    "dist.act_blocks_misses": "count", "dist.act_blocks_currsize": "count",
    "manin.self_s": "s", "manin.double_coset_calls": "count",
    "manin.path_terms_hit_ratio": "ratio", "manin.path_terms_lookups": "count",
    "manin.presentation_hit_ratio": "ratio",
    "manin.presentation_lookups": "count",
    "ocsymb.self_s": "s", "ocsymb.up_columns": "count",
    "ocsymb.stratum_action_hit_ratio": "ratio",
    "ocsymb.stratum_action_lookups": "count",
    "ocsymb.stratum_action_currsize": "count",
    "linalg.self_s": "s", "linalg.zpm_calls": "count",
    "linalg.zpm_cells": "count", "linalg.frac_calls": "count",
    "lifting.self_s": "s", "lifting.coeffs": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.solve_s": "s", "trace.span_coverage": "ratio",
    "trace.spans": "count",
}


def cache_metrics(caches):
    """Hit ratio with its base (lookups), misses and size of each cache."""
    out = {}
    for prefix, info in caches.items():
        lookups = info["hits"] + info["misses"]
        out[f"{prefix}_hit_ratio"] = info["hits"] / lookups if lookups else 0.0
        out[f"{prefix}_lookups"] = lookups
        out[f"{prefix}_misses"] = info["misses"]
        out[f"{prefix}_currsize"] = info["currsize"]
    return out


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def commit():
    """The checkout's commit, read from .git without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "sympy": importlib.metadata.version("sympy"),
        "platform": platform.platform(),
    }


class Runner:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.passes = []
        self.setup_only = []
        self.crashes = []

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def worker(self, extra):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("SHINTANI_CACHE_DIR", None)
        cmd = [sys.executable, str(BENCH / "worker.py"), *extra]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  cwd=CHECKOUT, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{' '.join(extra)}: timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.crashes.append(f"{' '.join(extra)}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}")
            return None
        return json.loads(lines[-1])

    def one_pass(self, traced):
        a = self.args
        extra = ["--workload", a.workload, "--seed", str(a.seed),
                 "--trace", str(int(traced))]
        cache_dir = None
        if a.workload in workloads.DISK_CACHE:
            cache_dir = WORK / f"cache-{os.getpid()}-{len(self.passes)}"
            shutil.rmtree(cache_dir, ignore_errors=True)
            extra += ["--cache-dir", str(cache_dir)]
        t0 = time.monotonic()
        try:
            result = self.worker(extra)
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        if result is None:
            return False
        result["traced"] = traced
        result["wall_s"] = time.monotonic() - t0
        self.passes.append(result)
        return True

    def run(self):
        kinds = [False, True] if self.args.trace else [False]
        i = 0
        while True:
            traced = kinds[i % len(kinds)]
            walls = [p["wall_s"] for p in self.passes if p["traced"] == traced]
            elapsed = time.monotonic() - self.started
            if i >= len(kinds) and (
                    not walls or elapsed + statistics.median(walls) / 2
                    > self.args.seconds):
                break
            if not self.one_pass(traced):
                break
            i += 1
        while (not self.crashes and self.remaining() > 10
               and len(self.setup_samples()) < MIN_SETUP_SAMPLES):
            result = self.worker(["--setup-only"])
            if result is None:
                break
            self.setup_only.append(result["setup_s"])
        return self

    def setup_samples(self):
        return [p["setup_s"] for p in self.passes] + self.setup_only

    def samples(self, key, traced):
        return [p[key] for p in self.passes if p["traced"] == traced]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (CHECKOUT / "src" / "shintani" / "cli.py").is_file():
        sys.stderr.write(f"error: {CHECKOUT} holds no src/shintani to "
                         "benchmark\n")
        return 2

    WORK.mkdir(exist_ok=True)
    runner = Runner(args).run()
    failures = [f"{o['key']}: {'; '.join(o['problems'])}"
                for p in runner.passes for o in p["ops"] if not o["ok"]]
    attempted = sum(len(p["ops"]) for p in runner.passes)
    failed = len(failures)
    if runner.crashes:
        # a pass that did not report counts every op it would have run
        n_ops = len(workloads.ops(args.workload, args.seed))
        attempted += n_ops * len(runner.crashes)
        failed += n_ops * len(runner.crashes)

    untraced = runner.samples("solve_s", False)
    metrics = {}
    if not args.trace and untraced:
        metrics = {
            "solve_s": statistics.median(untraced),
            "setup_s": statistics.median(runner.setup_samples()),
            "peak_rss_mb": statistics.median(
                runner.samples("peak_rss_mb", False)),
        }
    traced = [p for p in runner.passes if p["traced"]]
    if args.trace and traced and untraced:
        per_pass = [dict(p["trace"], **cache_metrics(p["caches"]))
                    for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in PER_LAYER if name in per_pass[0]}
        metrics["trace.overhead_s"] = (metrics["trace.solve_s"]
                                       - statistics.median(untraced))
    units = PER_LAYER if args.trace else END_TO_END
    complete = set(metrics) == set(units)

    record = {
        "machine": machine(),
        "commit": commit(),
        "workload": args.workload,
        "params": workloads.PARAMS[args.workload],
        "seed": args.seed,
        "threads": workloads.THREADS,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "solve_s": {"samples": untraced, "tail": tail(untraced)},
        "setup_s": {"samples": runner.setup_samples()},
        "peak_rss_mb": {"samples": runner.samples("peak_rss_mb", False)},
        "caches": cache_metrics(runner.passes[0]["caches"])
                  if runner.passes else None,
        "failures": failures[:20],
        "crashes": runner.crashes,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not runner.crashes and complete,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
