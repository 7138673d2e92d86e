"""Run and check the ops of one pass; the body of ``worker.py``.

The package's own output is captured, never printed.  An op fails on an
exception, a nonzero exit status, a ``verify`` report that does not end in
``RESULT: PASS``, ``--json`` output that is not schema-v1 JSON, a failed
library check, a sha256 that differs from the one recorded in
``digests.json`` for the same op, or when every expansion it computed is
identically zero.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import workloads
from spans import LiftGuard, Patches, Tracer

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")

# lru caches read from outside after a pass: metric prefix -> (module, name)
CACHES = {
    "dist.act_blocks": ("dist", "_act_blocks"),
    "ocsymb.stratum_action": ("ocsymb", "_stratum_action_matrix"),
    "qf.canonical_key": ("qf", "_canonical_key"),
    "manin.path_terms": ("manin", "_path_terms"),
    "manin.presentation": ("manin", "presentation"),
}


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# ops


def _run_cli(op, state):
    from shintani import cli

    argv = op["argv"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    out = buf.getvalue()
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    if argv[0] == "verify" and not out.rstrip().endswith("RESULT: PASS"):
        problems.append("verify report does not end in RESULT: PASS")
    if "--json" in argv:
        try:
            obj = json.loads(out)
        except ValueError:
            obj = None
        if not isinstance(obj, dict) or obj.get("schema_version") != 1:
            problems.append("--json output is not schema-v1 JSON")
    return out, problems


def _space(op, state):
    from shintani import ocsymb

    cfg = op["params"]
    tame = cfg["tame"]
    space = ocsymb.solve_oc_space(cfg["p"] * tame, tame,
                                  (cfg["prec"], cfg["moments"]))
    state["space"] = space
    text = json.dumps({"dimension": space.dimension,
                       "strata": [int(d) for d in space.strata],
                       "torsion": [int(v) for v in space.torsion]})
    return text, [] if space.dimension else ["empty symbol space"]


def _slope_report(op, state):
    from shintani import ocsymb

    cfg = op["params"]
    data = ocsymb.SlopeData(cfg["p"], cfg["prec"],
                            ocsymb.charpoly_strata(state["space"]))
    problems = [] if Fraction(0) in data.slopes else ["slope 0 is missing"]
    return data.dumps(), problems


def _lift(op, state):
    """Lift a seeded unit multiple of the level-p eigensymbol; check it."""
    from shintani import modsym, ocsymb
    from shintani.arith import DirichletChar
    from shintani.dist import ArithWeight

    cfg = op["params"]
    p, prec = cfg["p"], cfg["prec"]
    mod = p ** prec
    chi = DirichletChar.trivial(p)
    systems = modsym.eigensymbols(p, 0, chi, -1)
    if len(systems) != 1:
        return "", [f"expected one rational eigensystem, got {len(systems)}"]
    [(phi, emap)] = systems
    rng = random.Random(op["seed"])
    unit = rng.randrange(1, mod)
    while unit % p == 0:
        unit = rng.randrange(1, mod)
    kappa = ArithWeight(0, chi, p)
    lift, res = ocsymb.lift_eigensymbol(state["space"], phi.scale(unit), 1,
                                        kappa, sign=-1)
    state["lift"], state["emap"] = lift, emap
    problems = []
    if lift.is_zero():
        problems.append("vacuous: the eigensymbol lift is identically zero")
    if res < prec - 2:
        problems.append(f"residual valuation {res} < {prec - 2}")
    # specializing back gives a unit multiple of the classical symbol
    a = [int(x) for x in ocsymb.specialize_symbol(lift, kappa).coords()]
    b = [int(x) for x in ocsymb.classical_to_zpm(phi, p, prec).coords()]
    lead = next((i for i, x in enumerate(b) if x % p), None)
    scalar = 0 if lead is None else a[lead] * pow(b[lead], -1, mod) % mod
    if scalar % p == 0 or any((x - scalar * y) % mod for x, y in zip(a, b)):
        problems.append("specialization is not a unit multiple of the source")
    text = json.dumps({"residual": int(res),
                       "flat": [int(x) % mod for x in lift.flat()]})
    return text, problems


def _eigenvalue(op, state):
    from shintani import ocsymb

    cfg = op["params"]
    p, prec, ell = cfg["p"], cfg["prec"], cfg["ell"]
    lam = ocsymb.hecke_eigenvalue(state["lift"], ell)
    problems = []
    if (lam - state["emap"][ell]) % p ** (prec - 2):
        problems.append(f"T_{ell} eigenvalue {lam} is not "
                        f"{state['emap'][ell]} mod {p}^{prec - 2}")
    return str(lam), problems


LIB_OPS = {"space": _space, "slope-report": _slope_report, "lift": _lift,
           "eigenvalue": _eigenvalue}


def run_op(op, digests, guard, state):
    """Run and check one op; the check is inside the timed interval."""
    guard.reset()
    t0 = perf_counter()
    try:
        run = _run_cli if op["kind"] == "cli" else LIB_OPS[op["name"]]
        out, problems = run(op, state)
    except Exception:  # an op boundary: record the failure and go on
        out, problems = "", ["exception: " + traceback.format_exc(limit=4)]
    if guard.lifts and not guard.nonzero:
        problems.append(f"vacuous: all {guard.lifts} expansions computed "
                        "are identically zero")
    digest = hashlib.sha256(out.encode()).hexdigest()
    expected = digests.get(op["key"])
    if expected is not None and expected != digest:
        problems.append("output differs from the recorded sha256")
    return {"key": op["key"], "ok": not problems, "problems": problems,
            "seconds": perf_counter() - t0, "sha256": digest, "output": out}


def run_ops(ops, digests, tracer=None):
    """Run ops in order under the lift guard (and tracer); (results, solve_s)."""
    guard = LiftGuard()
    state = {}
    with Patches() as patches:
        guard.install(patches)
        if tracer is not None:
            tracer.install(patches)
        t0 = perf_counter()
        results = [run_op(op, digests, guard, state) for op in ops]
        solve_s = perf_counter() - t0
    return results, solve_s


# ---------------------------------------------------------------------------
# readouts


def cache_stats():
    out = {}
    for prefix, (module, name) in CACHES.items():
        info = getattr(importlib.import_module(f"shintani.{module}"),
                       name).cache_info()
        out[prefix] = {"hits": info.hits, "misses": info.misses,
                       "currsize": info.currsize}
    return out


def trace_metrics(tracer, solve_s, disk_writes):
    """Per-layer metrics of one traced pass (cache ratios are added later)."""
    from shintani import cosets

    self_s, spans = tracer.totals()
    counts = tracer.counts
    calls = counts["qf.enumerate_calls"]
    m = {f"{layer}.self_s": s for layer, s in self_s.items()}
    m.update({
        "cosets.p1_size": sum(len(cosets.p1_classes(M))
                              for M in tracer.p1_levels),
        "qf.enumerate_calls": calls,
        "qf.classes": counts["qf.classes"],
        "qf.reuse_ratio": 1 - len(tracer.enumerated) / calls if calls else 0.0,
        "qf.disk_cache_writes": disk_writes,
        "trace.solve_s": solve_s,
        "trace.span_coverage": tracer.top_s / solve_s,
        "trace.spans": spans,
    })
    for name in ("modsym.act_calls", "dist.act_calls",
                 "manin.double_coset_calls", "ocsymb.up_columns",
                 "linalg.zpm_calls", "linalg.zpm_cells", "linalg.frac_calls",
                 "lifting.coeffs"):
        m[name] = counts[name]
    return m


def main(setup_s, argv=None):
    """Run one pass after worker.py has imported the package."""
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", help="fresh directory for the disk cache")
    ap.add_argument("--setup-only", action="store_true",
                    help="only import the package and report setup_s")
    args = ap.parse_args(argv)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.workload is None:
            ap.error("--workload is required")
        if args.cache_dir:
            os.environ["SHINTANI_CACHE_DIR"] = args.cache_dir
        tracer = Tracer() if args.trace else None
        results, solve_s = run_ops(workloads.ops(args.workload, args.seed),
                                   load_digests(), tracer)
        disk_writes = (len(os.listdir(args.cache_dir))
                       if args.cache_dir and os.path.isdir(args.cache_dir)
                       else 0)
        for r in results:
            del r["output"]
        result.update({
            "solve_s": solve_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": results,
            "caches": cache_stats(),
            "disk_cache_writes": disk_writes,
            "trace": (trace_metrics(tracer, solve_s, disk_writes)
                      if tracer else None),
        })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
