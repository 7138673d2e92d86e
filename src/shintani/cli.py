"""Command-line front end.

Subcommands expose class tables, symbol-space reports, the classical and
finite-slope liftings, slope reports and the verification suites.  All
output is deterministic: given the same arguments and seed, reruns are
byte-identical.  ``--json`` switches every report but the verification
suites' to a versioned JSON schema.  Exit status: 0 on success, 1 when a
verification fails (with a diff of the first failing coefficient), 2 on
usage errors.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import qf
from .arith import DirichletChar, is_prime
from .dist import ArithWeight
from .errors import KernelOverflow
from .linalg import _check_kernel_bounds
from .lifting import (
    _coeff_json,
    halfint_Tl2,
    qexp_hecke_Tl,
    qexp_hecke_Tll,
    realizable_index,
    specialize_qexp,
    theta_classical,
    theta_oc,
    verify_interpolation,
)
from .modsym import (
    eigensymbols,
    hecke_Tn,
    involution,
    involution_matrix,
    involution_split,
    sign_subspace,
    solve_symbol_space,
)
from .ocsymb import SlopeData, charpoly_strata, oc_hecke_Tll, oc_hecke_Tn, solve_oc_space

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Invalid parameter combination detected before dispatch."""


def _int_list(text):
    out = tuple(int(x) for x in text.split(",") if x)
    if not out:
        raise argparse.ArgumentTypeError("need a comma-separated integer list")
    return out


# Every option once: dest (its JobConfig field) -> (flag, add_argument
# keywords).  COMMANDS below names the options each subcommand takes.
OPTIONS = {
    "level": ("--level", dict(type=int, required=True)),
    "disc": ("--disc", dict(type=int, required=True)),
    "weight": ("--weight", dict(type=int, required=True)),
    "char_disc": ("--char", dict(
        type=int, default=0, metavar="CHAR",
        help="quadratic character discriminant (0 = trivial)")),
    "sign": ("--sign", dict(type=int, default=-1, choices=(1, -1))),
    "n_max": ("--nmax", dict(type=int, required=True, metavar="NMAX")),
    "p": ("--p", dict(type=int, required=True, help="working prime (>= 5)")),
    "tame": ("--tame-n", dict(type=int, default=1,
                              help="tame level N, coprime to p")),
    "moments": ("--moments", dict(type=int, default=6,
                                  help="moment degree bound T")),
    "prec": ("--padic-prec", dict(type=int, default=6,
                                  help="coefficient precision exponent")),
    "slope_bound": ("--h", dict(type=int, default=1,
                                help="report slopes up to this bound")),
    "ells": ("--ells", dict(type=_int_list, default=(3, 7))),
    "weights": ("--weights", dict(type=_int_list, default=(0, 1, 2))),
    "json_out": ("--json", dict(
        action="store_true",
        help="emit the versioned JSON schema instead of text")),
    "threads": ("--threads", dict(
        type=int, default=1,
        help="classical lift threads (default 1, at least 1), one pool "
             "task each over a strided slice of the q-slots; the output "
             "does not depend on it")),
    "seed": ("--seed", dict(
        type=int, default=17,
        help="seed for randomized reports and property checks")),
}


class JobConfig(argparse.Namespace):
    """Validated parameters of one CLI job, one field per option.

    A field is None when the subcommand does not take its option, and
    validate checks only the fields that are set.
    """

    def __init__(self, **fields):
        super().__init__(**{**dict.fromkeys(OPTIONS), **fields})

    def validate(self):
        if self.p is not None:
            if self.p < 5 or not is_prime(self.p):
                raise UsageError(f"p must be a prime >= 5, got {self.p}")
            if gcd(self.p, self.tame) != 1:
                raise UsageError(
                    f"p = {self.p} must be coprime to the tame level {self.tame}")
            if self.moments < 0:
                raise UsageError("moments must be nonnegative")
            if self.prec < 1:
                raise UsageError("padic-prec must be positive")
            try:
                _check_kernel_bounds(self.p, self.prec, self.moments)
            except KernelOverflow as exc:
                raise UsageError(f"{type(exc).__name__}: {exc}") from exc
        if any(x is not None and x < 1 for x in (self.level, self.tame)):
            raise UsageError("levels must be positive")
        if (self.weight or 0) < 0:
            raise UsageError("weight must be nonnegative")
        if (self.n_max or 0) < 0:
            raise UsageError("nmax must be nonnegative")
        if self.threads is not None and self.threads < 1:
            raise UsageError("threads must be positive")
        if self.sign not in (None, 1, -1):
            raise UsageError("sign must be 1 or -1")
        if self.char_disc and self.level % self.character().modulus:
            raise UsageError(f"character modulus {self.character().modulus} "
                             f"must divide the level {self.level}")
        for l in self.ells or ():
            if not is_prime(l):
                raise UsageError(f"ells must be primes, got {l}")
            if self.p is not None:
                if l == 2 and self.tame % 2:
                    raise UsageError("l = 2 needs an even tame level")
            elif l == 2 or self.level % l == 0:
                raise UsageError(f"l = {l} must be odd and prime to the "
                                 f"level {self.level}")
        for k in self.weights or ():
            if not 0 <= k <= self.moments // 2:
                raise UsageError(f"weights must lie in 0..{self.moments // 2} "
                                 f"for {self.moments} moments, got {k}")
        return self

    def character(self):
        if not self.char_disc:
            return DirichletChar.trivial()
        return DirichletChar.from_kronecker(self.char_disc)


# ---------------------------------------------------------------------------
# report plumbing


def _emit(text):
    sys.stdout.write(text + "\n")


def _emit_json(obj):
    _emit(json.dumps(obj, sort_keys=True, indent=2))


def _json_diff(a, b, path="$"):
    """Path and values of the first difference between two JSON trees."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                return _json_diff(a.get(key), b.get(key), f"{path}.{key}")
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _json_diff(x, y, f"{path}[{i}]")
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def _first_qexp_diff(lhs, rhs):
    """(n, lhs coeff, rhs coeff) of the first differing index, or None."""
    nm = min(lhs.n_max, rhs.n_max)
    for n in range(1, nm + 1):
        a, b = lhs.coeff(n), rhs.coeff(n)
        if a != b:
            return n, a, b
    return None


def _first_formal_diff(lhs, rhs):
    """First differing assembled index of two finite-precision expansions."""
    for n in sorted(set(lhs.indices) & set(rhs.indices)):
        a = _coeff_json(lhs, lhs.coeff(n))
        b = _coeff_json(rhs, rhs.coeff(n))
        if a != b:
            return n, _json_diff(a, b)
    return None


def _check(lines, ok, label, diff_text):
    lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    if not ok and diff_text:
        lines.append(f"         first failing coefficient: {diff_text}")
    return ok


def _report(lines, ok, live=True):
    """Print a verify report and return its exit status.

    live is false when every equality compared zero with zero: such a
    report ends in RESULT: VACUOUS and fails.
    """
    for line in lines:
        _emit(line)
    if ok and not live:
        _emit("RESULT: VACUOUS")
        return 1
    _emit("RESULT: PASS" if ok else "RESULT: FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_qf_classes(cfg):
    disc = cfg.disc
    if disc <= 0:
        raise UsageError("disc must be a positive integer")
    classes = qf.enumerate_classes(cfg.level, disc)
    if cfg.json_out:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "qf classes",
            "level": cfg.level,
            "disc": disc,
            "count": len(classes),
            "classes": [list(Q.triple()) for Q in classes],
        })
    else:
        _emit(f"class list  level={cfg.level}  disc={disc}")
        _emit(f"count: {len(classes)}")
        for Q in classes:
            _emit(f"  {Q.a} {Q.b} {Q.c}")
    return 0


def cmd_modsym_basis(cfg):
    chi = cfg.character()
    basis = solve_symbol_space(cfg.level, cfg.weight, chi)
    J = involution_matrix(basis) if basis else []
    plus, minus = (len(sign_subspace(J, sign)) for sign in (1, -1))
    if cfg.json_out:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "modsym basis",
            "level": cfg.level,
            "weight": cfg.weight,
            "character_disc": cfg.char_disc,
            "dimension": len(basis),
            "plus_dimension": plus,
            "minus_dimension": minus,
        })
    else:
        _emit(f"symbol space  level={cfg.level}  weight={cfg.weight}"
              f"  char={cfg.char_disc or 'trivial'}")
        _emit(f"dimension: {len(basis)}")
        _emit(f"plus dimension: {plus}")
        _emit(f"minus dimension: {minus}")
    return 0


def _format_system(system):
    return "  ".join(f"{l}:{lam}" for l, lam in sorted(system.items()))


def cmd_modsym_eigen(cfg):
    chi = cfg.character()
    systems = eigensymbols(cfg.level, cfg.weight, chi, cfg.sign)
    if cfg.json_out:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "modsym eigen",
            "level": cfg.level,
            "weight": cfg.weight,
            "character_disc": cfg.char_disc,
            "sign": cfg.sign,
            "count": len(systems),
            "systems": [{
                "eigenvalues": {str(l): int(lam)
                                for l, lam in sorted(sys_.items())},
                "coords": [int(c) for c in phi.coords()],
            } for phi, sys_ in systems],
        })
    else:
        _emit(f"eigensystems  level={cfg.level}  weight={cfg.weight}"
              f"  char={cfg.char_disc or 'trivial'}  sign={cfg.sign:+d}")
        _emit(f"count: {len(systems)}")
        for i, (phi, sys_) in enumerate(systems, 1):
            _emit(f"  [{i}]  {_format_system(sys_)}")
    return 0


def cmd_shintani_classical(cfg):
    # --weight is the lifting weight k (target weight k + 3/2); the
    # source symbols live at weight 2k.
    chi = cfg.character()
    systems = eigensymbols(cfg.level, 2 * cfg.weight, chi, cfg.sign)
    payload = []
    for phi, sys_ in systems:
        theta = theta_classical(phi, cfg.level, cfg.weight, chi,
                                cfg.n_max, threads=cfg.threads)
        payload.append((sys_, theta))
    if cfg.json_out:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "shintani classical",
            "level": cfg.level,
            "weight": cfg.weight,
            "character_disc": cfg.char_disc,
            "sign": cfg.sign,
            "n_max": cfg.n_max,
            "systems": [{
                "eigenvalues": {str(l): int(lam)
                                for l, lam in sorted(sys_.items())},
                "theta": theta.to_json(),
            } for sys_, theta in payload],
        })
        return 0
    _emit(f"classical lifting  level={cfg.level}  weight={cfg.weight}"
          f"  char={cfg.char_disc or 'trivial'}  sign={cfg.sign:+d}"
          f"  nmax={cfg.n_max}")
    _emit(f"eigensystems: {len(payload)}")
    for i, (sys_, theta) in enumerate(payload, 1):
        _emit(f"  [{i}]  {_format_system(sys_)}")
        _emit(f"       target weight {theta.weight[0]}/{theta.weight[1]}"
              f"  level {theta.level}")
        if theta.is_zero():
            _emit("       expansion: 0")
        else:
            for n in sorted(theta.coeffs):
                _emit(f"       n={n}  c={theta.coeffs[n]}")
    return 0


def _seeded_oc_symbol(space, seed):
    rng = random.Random(seed)
    mod = space.p ** space.prec
    return space.combination([rng.randrange(mod) for _ in range(space.dimension)])


def cmd_shintani_oc(cfg):
    space = solve_oc_space(cfg.p * cfg.tame, cfg.tame, (cfg.prec, cfg.moments))
    Phi = _seeded_oc_symbol(space, cfg.seed)
    e = theta_oc(Phi, cfg.n_max)
    # report the weight-1 specialization: the even-weight sector of the
    # lifting vanishes identically by anti-symmetry, so weight 1 is the
    # smallest informative cross-section of the expansion
    spec_k = 1 if e.Tp >= 1 else 0
    spec0 = specialize_qexp(e, ArithWeight(spec_k, DirichletChar.trivial(),
                                           cfg.p))
    if cfg.json_out:
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "command": "shintani oc",
            "p": cfg.p,
            "tame_level": cfg.tame,
            "moments": cfg.moments,
            "precision": cfg.prec,
            "n_max": cfg.n_max,
            "seed": cfg.seed,
            "space_dimension": space.dimension,
            "qexp": e.to_json(),
            "specialization_weight": spec_k,
            "specialization": spec0.to_json(),
        })
        return 0
    _emit(f"finite-slope lifting  p={cfg.p}  tame={cfg.tame}"
          f"  moments={cfg.moments}  prec={cfg.prec}  nmax={cfg.n_max}"
          f"  seed={cfg.seed}")
    _emit(f"space dimension: {space.dimension}")
    _emit("assembled indices: "
          + " ".join(str(n) for n in sorted(e.indices)))
    _emit(f"weight-{spec_k} specialization (mod {cfg.p}^{cfg.prec}):")
    for n in sorted(e.indices):
        _emit(f"  n={n}  c={spec0.coeff(n)}")
    return 0


def cmd_slopes(cfg):
    space = solve_oc_space(cfg.p * cfg.tame, cfg.tame, (cfg.prec, cfg.moments))
    poly = charpoly_strata(space)
    data = SlopeData(cfg.p, cfg.prec, poly)
    bound = Fraction(cfg.slope_bound)
    kept = [s for s in data.slopes if s <= bound]
    if cfg.json_out:
        obj = data.to_json()
        obj.update({
            "schema_version": SCHEMA_VERSION,
            "command": "slopes",
            "tame_level": cfg.tame,
            "moments": cfg.moments,
            "slope_bound": cfg.slope_bound,
            "slopes_kept": [[s.numerator, s.denominator] for s in kept],
        })
        _emit_json(obj)
        return 0
    _emit(f"slope report  p={cfg.p}  tame={cfg.tame}  moments={cfg.moments}"
          f"  prec={cfg.prec}")
    _emit(f"space dimension: {space.dimension}")
    _emit(f"charpoly degree: {len(data.charpoly) - 1}")
    _emit("newton vertices: "
          + " ".join(f"({x},{y})" for x, y in data.vertices))
    _emit(f"slopes <= {cfg.slope_bound}: "
          + " ".join(str(s) for s in kept))
    return 0


# ---------------------------------------------------------------------------
# verification suites


def cmd_verify_involution(cfg):
    chi = cfg.character()
    lines = [
        "verify: anti-symmetry of the classical lifting under the "
        "orientation involution",
        f"  level={cfg.level}  weight={cfg.weight}  nmax={cfg.n_max}",
    ]
    basis = solve_symbol_space(cfg.level, 2 * cfg.weight, chi)
    lines.append(f"  basis symbols: {len(basis)}")
    ok = True
    for i, phi in enumerate(basis, 1):
        lhs = theta_classical(involution(phi), cfg.level, cfg.weight, chi,
                              cfg.n_max, threads=cfg.threads)
        rhs = theta_classical(phi, cfg.level, cfg.weight, chi,
                              cfg.n_max, threads=cfg.threads).scale(-1)
        d = _first_qexp_diff(lhs, rhs)
        ok &= _check(lines, d is None, f"symbol {i}: lift(phi|iota) = -lift(phi)",
                     d and f"n={d[0]}: {d[1]} != {d[2]}")
        plus = involution_split(phi)[0]
        tplus = theta_classical(plus, cfg.level, cfg.weight, chi,
                                cfg.n_max, threads=cfg.threads)
        bad = None if tplus.is_zero() else min(tplus.coeffs)
        ok &= _check(lines, bad is None, f"symbol {i}: lift(phi^+) = 0",
                     bad and f"n={bad}: {tplus.coeffs[bad]} != 0")
    # lift(phi^+) = 0 claims a vanishing, so only an empty basis is vacuous
    return _report(lines, ok, live=bool(basis))


def cmd_verify_equivariance(cfg):
    chi = cfg.character()
    lines = [
        "verify: Hecke equivariance of the classical lifting "
        "(T_l on symbols vs the square-index operator on expansions)",
        f"  level={cfg.level}  weight={cfg.weight}  nmax={cfg.n_max}"
        f"  primes={','.join(map(str, cfg.ells))}",
    ]
    basis = solve_symbol_space(cfg.level, 2 * cfg.weight, chi)
    lines.append(f"  basis symbols: {len(basis)}")
    ok, live = True, False
    for l in cfg.ells:
        for i, phi in enumerate(basis, 1):
            lhs = theta_classical(hecke_Tn(phi, l), cfg.level, cfg.weight,
                                  chi, cfg.n_max, threads=cfg.threads)
            rhs = halfint_Tl2(
                theta_classical(phi, cfg.level, cfg.weight, chi,
                                cfg.n_max * l * l, threads=cfg.threads), l)
            d = _first_qexp_diff(lhs, rhs)
            ok &= _check(lines, d is None,
                         f"l={l} symbol {i}: lift(phi|T_{l}) = "
                         f"T_{l}^2-operator(lift(phi))",
                         d and f"n={d[0]}: {d[1]} != {d[2]}")
            live |= not (lhs.is_zero() and rhs.is_zero())
    return _report(lines, ok, live)


def cmd_verify_interpolation(cfg):
    lines = [
        "verify: weight interpolation of the finite-slope lifting "
        "(specialize the lift vs lift the specialization)",
        f"  p={cfg.p}  tame={cfg.tame}  moments={cfg.moments}"
        f"  prec={cfg.prec}  nmax={cfg.n_max}  seed={cfg.seed}",
    ]
    space = solve_oc_space(cfg.p * cfg.tame, cfg.tame, (cfg.prec, cfg.moments))
    Phi = _seeded_oc_symbol(space, cfg.seed)
    ok, live = True, False
    for k in cfg.weights:
        kappa = ArithWeight(k, DirichletChar.trivial(), cfg.p)
        report = verify_interpolation(Phi, kappa, cfg.n_max)
        need = report["precision"] - report["loss"]
        diff = None
        if not report["passed"]:
            n = report["failing_indices"][0]
            diff = f"n={n} disagrees mod {cfg.p}^{need}"
        ok &= _check(
            lines, report["passed"],
            f"weight k={k}: residual valuation "
            f"{report['residual_valuation']} >= {need}",
            diff)
        live |= report["live"]
    return _report(lines, ok, live)


def cmd_verify_oc_hecke(cfg):
    lines = [
        "verify: Hecke equivariance of the finite-slope lifting "
        "(operator on symbols vs operator on expansions, two code paths)",
        f"  p={cfg.p}  tame={cfg.tame}  moments={cfg.moments}"
        f"  prec={cfg.prec}  nmax={cfg.n_max}  seed={cfg.seed}"
        f"  primes={','.join(map(str, cfg.ells))}",
    ]
    level = cfg.p * cfg.tame
    space = solve_oc_space(level, cfg.tame, (cfg.prec, cfg.moments))
    Phi = _seeded_oc_symbol(space, cfg.seed)
    base = [n for n in range(1, cfg.n_max + 1) if realizable_index(level, n)]
    ok, live = True, False
    for l in cfg.ells:
        if level % l == 0:
            lines.append(f"  [SKIP] l={l} divides the level")
            continue
        idx = sorted({n for b in base for n in (b, l * l * b)}
                     | {b // (l * l) for b in base if b % (l * l) == 0})
        lhs = theta_oc(oc_hecke_Tn(Phi, l), cfg.n_max, indices=base)
        rhs = qexp_hecke_Tl(
            theta_oc(Phi, cfg.n_max * l * l, indices=idx), l)
        d = _first_formal_diff(lhs, rhs)
        ok &= _check(lines, d is None,
                     f"l={l}: lift(Phi|T_{l}) = T_{l}-operator(lift(Phi))",
                     d and f"n={d[0]}: {d[1]}")
        lhs2 = theta_oc(oc_hecke_Tll(Phi, l), cfg.n_max, indices=base)
        rhs2 = qexp_hecke_Tll(theta_oc(Phi, cfg.n_max, indices=base), l)
        d2 = _first_formal_diff(lhs2, rhs2)
        ok &= _check(lines, d2 is None,
                     f"l={l}: lift(Phi|T_{l},{l}) = "
                     f"T_{l},{l}-operator(lift(Phi))",
                     d2 and f"n={d2[0]}: {d2[1]}")
        live |= not all(e.is_zero() for e in (lhs, rhs, lhs2, rhs2))
    return _report(lines, ok, live)


# ---------------------------------------------------------------------------
# argument parsing


GROUPS = {"qf": "quadratic form class tables",
          "modsym": "symbol space reports",
          "shintani": "theta lifting computations",
          "verify": "verification suites"}
_PADIC = "p tame moments prec"

# Every subcommand: (group, action, help, handler, its options in help
# order).  slopes is a group without actions.
COMMANDS = (
    ("qf", "classes", "one orbit representative per class",
     cmd_qf_classes, "level disc json_out threads"),
    ("modsym", "basis", "solve the relation space",
     cmd_modsym_basis, "level weight char_disc json_out threads"),
    ("modsym", "eigen", "rational Hecke eigensystems",
     cmd_modsym_eigen, "level weight char_disc sign json_out threads"),
    ("shintani", "classical", "exact lift of eigensymbols",
     cmd_shintani_classical,
     "level weight char_disc sign n_max json_out threads"),
    ("shintani", "oc", "finite-precision lift of a seeded symbol",
     cmd_shintani_oc, f"{_PADIC} n_max json_out threads seed"),
    ("slopes", None, "U_p Newton polygon report",
     cmd_slopes, f"{_PADIC} slope_bound json_out threads"),
    ("verify", "involution", "anti-symmetry of the lift",
     cmd_verify_involution, "level weight char_disc n_max threads"),
    ("verify", "equivariance", "classical Hecke equivariance",
     cmd_verify_equivariance, "level weight char_disc n_max ells threads"),
    ("verify", "interpolation", "weight interpolation",
     cmd_verify_interpolation, f"{_PADIC} n_max weights threads seed"),
    ("verify", "oc-hecke", "finite-precision Hecke formula",
     cmd_verify_oc_hecke, f"{_PADIC} n_max ells threads seed"),
)


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="shintani",
        description="Exact classical and finite-slope theta liftings.")
    top = ap.add_subparsers(dest="group", required=True)
    actions = {}
    for group, action, hlp, handler, options in COMMANDS:
        if action is None:
            sp = top.add_parser(group, help=hlp)
        else:
            if group not in actions:
                g = top.add_parser(group, help=GROUPS[group])
                actions[group] = g.add_subparsers(dest="action", required=True)
            sp = actions[group].add_parser(action, help=hlp)
        for dest in options.split():
            flag, kwargs = OPTIONS[dest]
            sp.add_argument(flag, dest=dest, **kwargs)
        sp.set_defaults(handler=handler)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = JobConfig(**vars(args)).validate()
        return cfg.handler(cfg)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
