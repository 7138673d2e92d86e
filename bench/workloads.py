"""The benchmark's four workloads: parameters and the ops of one pass.

Each pass is one closed-loop client in a fresh worker process: it runs
its ops one after another, each after the previous one has been checked.
An op is either a CLI call (``shintani.cli.main(argv)`` in-process) or,
where no subcommand exists, a library call.  Every CLI call passes
``--threads 2``; the seeded commands (``shintani oc``, ``verify
interpolation``, ``verify oc-hecke``) also get ``--seed``.

Why these workloads:

- ``class-tables``: ``cosets`` (the P^1(Z/M) tables) and ``qf`` (class
  enumeration) do almost all the work, the cost grows with the level, and
  no (M, disc) is requested twice, so nothing is reused.  The seed orders
  the 150 calls.
- ``classical-lift``: ``Fraction`` arithmetic in ``modsym`` dominates;
  many class enumerations hit few distinct (M, disc), so the disk cache in
  a fresh directory is written once and then read back.
- ``oc-lift``: building Sym^d blocks in ``dist._act_blocks`` dominates,
  with a block-cache hit ratio near 0.7, and the ``lifting`` thread pool
  runs.  The seed picks the random symbol of each command.
- ``slopes``: U_p assembly (``manin.apply_double_coset`` into
  ``dist.act_S0``, nearly every block a cache hit) and ``linalg`` Howell
  solves; no quadratic form is touched.  The seed picks the unit multiple
  of the classical eigensymbol that the eigensymbol lift starts from.

Sizes are below the acceptance-test sizes in ``--nmax`` and precision, so
that a pass takes a few seconds on a 2-core machine and several passes fit
in one run; each workload keeps the mix of layers described above.
"""

import random

THREADS = 2
# The CLI's default seed; outputs of seeded commands are recorded for it.
DEFAULT_SEED = 17

PARAMS = {
    "class-tables": {"levels": [11, 143, 221], "n_max": 100, "json_every": 10},
    "classical-lift": {
        "equivariance": {"level": 11, "weight": 1, "n_max": 10, "ells": "3"},
        "involution": {"level": 11, "weight": 1, "n_max": 20},
        "classical": {"level": 5, "weight": 1, "n_max": 40},
    },
    "oc-lift": {"p": 5, "tame": 1, "moments": 8, "prec": 8,
                "n_max_oc": 120, "n_max_hecke": 12, "n_max_interpolation": 12},
    "slopes": {"p": 11, "tame": 1, "prec": 6, "moments": 1, "ell": 2},
}

# Passes of these workloads run with SHINTANI_CACHE_DIR set to a fresh
# directory, so the class-enumeration disk cache starts empty.
DISK_CACHE = {"classical-lift"}


def _cli(*argv, seed=None):
    argv = [str(a) for a in argv] + ["--threads", str(THREADS)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"kind": "cli", "argv": argv, "key": "cli " + " ".join(argv)}


def _lib(name, params):
    text = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return {"kind": "lib", "name": name, "params": params,
            "key": f"lib {name} {text}"}


def class_tables(seed):
    cfg = PARAMS["class-tables"]
    ops = []
    for level in cfg["levels"]:
        for n in range(1, cfg["n_max"] + 1):
            disc = level * n
            if disc % 4 not in (0, 1):
                continue
            json_flag = ["--json"] if n % cfg["json_every"] == 0 else []
            ops.append(_cli("qf", "classes", "--level", level, "--disc", disc,
                            *json_flag))
    random.Random(seed).shuffle(ops)
    return ops


def classical_lift(seed):
    cfg = PARAMS["classical-lift"]
    eq, inv, cl = cfg["equivariance"], cfg["involution"], cfg["classical"]
    return [
        _cli("verify", "equivariance", "--level", eq["level"], "--weight",
             eq["weight"], "--nmax", eq["n_max"], "--ells", eq["ells"]),
        _cli("verify", "involution", "--level", inv["level"], "--weight",
             inv["weight"], "--nmax", inv["n_max"]),
        _cli("shintani", "classical", "--level", cl["level"], "--weight",
             cl["weight"], "--nmax", cl["n_max"], "--json"),
    ]


def oc_lift(seed):
    cfg = PARAMS["oc-lift"]
    profile = ["--p", cfg["p"], "--tame-n", cfg["tame"], "--moments",
               cfg["moments"], "--padic-prec", cfg["prec"]]
    return [
        _cli("shintani", "oc", *profile, "--nmax", cfg["n_max_oc"], "--json",
             seed=seed),
        _cli("verify", "oc-hecke", *profile, "--nmax", cfg["n_max_hecke"],
             seed=seed),
        _cli("verify", "interpolation", *profile, "--nmax",
             cfg["n_max_interpolation"], seed=seed),
    ]


def slopes(seed):
    cfg = PARAMS["slopes"]
    space = {k: cfg[k] for k in ("p", "tame", "prec", "moments")}
    return [
        _cli("modsym", "eigen", "--level", cfg["p"] * cfg["tame"], "--weight",
             0, "--json"),
        _lib("space", space),
        _lib("slope-report", space),
        dict(_lib("lift", space), seed=seed),
        _lib("eigenvalue", dict(space, ell=cfg["ell"])),
    ]


WORKLOADS = {
    "class-tables": class_tables,
    "classical-lift": classical_lift,
    "oc-lift": oc_lift,
    "slopes": slopes,
}


def ops(name, seed):
    """The ops of one pass of workload name, made from seed."""
    return WORKLOADS[name](seed)
