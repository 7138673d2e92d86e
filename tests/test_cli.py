"""Command-line interface: reports, schemas, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from collections import Counter

import pytest

import shintani
from shintani import cli, lifting, ocsymb
from shintani.arith import DirichletChar
from shintani.lifting import theta_classical


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# frozen command oracles


def test_qf_classes_disc5_level1(capsys):
    # a single class of discriminant 5 over the full group
    code, out = run_cli(capsys, "qf", "classes", "--level", "1",
                        "--disc", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert obj["count"] == 1
    assert len(obj["classes"]) == 1
    [(a, b, c)] = [tuple(t) for t in obj["classes"]]
    assert b * b - 4 * a * c == 5


def test_qf_classes_text(capsys):
    code, out = run_cli(capsys, "qf", "classes", "--level", "11",
                        "--disc", "33")
    assert code == 0
    assert "count: 2" in out
    assert "2 -11 11" in out


def test_modsym_basis_dimension(capsys):
    code, out = run_cli(capsys, "modsym", "basis", "--level", "11",
                        "--weight", "0")
    assert code == 0
    assert "dimension: 3" in out


def test_modsym_basis_sign_split(capsys):
    code, out = run_cli(capsys, "modsym", "basis", "--level", "11",
                        "--weight", "0", "--json")
    obj = json.loads(out)
    assert obj["dimension"] == 3
    assert obj["plus_dimension"] + obj["minus_dimension"] == 3
    assert obj["minus_dimension"] == 1


def test_modsym_eigen_level11(capsys):
    code, out = run_cli(capsys, "modsym", "eigen", "--level", "11",
                        "--weight", "0", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["systems"][0]["eigenvalues"] == {
        "2": -2, "3": -1, "5": 1, "7": -2}


def test_shintani_classical_level5(capsys):
    code, out = run_cli(capsys, "shintani", "classical", "--level", "5",
                        "--weight", "1", "--nmax", "20", "--json")
    assert code == 0
    obj = json.loads(out)
    [system] = obj["systems"]
    assert system["eigenvalues"] == {"2": -4, "3": 2, "5": -5, "7": 6}
    assert system["theta"]["coeffs"] == {
        "1": "-10", "4": "20", "5": "-10", "8": "40", "9": "-50",
        "12": "-80", "13": "-20", "17": "140", "20": "60"}
    assert system["theta"]["weight_num"] == 5


def test_shintani_oc_report(capsys):
    code, out = run_cli(capsys, "shintani", "oc", "--p", "5",
                        "--tame-n", "1", "--moments", "4",
                        "--padic-prec", "4", "--nmax", "8", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["space_dimension"] > 0
    assert obj["specialization_weight"] == 1
    spec = obj["specialization"]["coeffs"]
    assert any(v != "0" for v in spec.values())


def test_slopes_report(capsys):
    code, out = run_cli(capsys, "slopes", "--p", "11", "--tame-n", "1",
                        "--moments", "2", "--padic-prec", "4", "--h", "0",
                        "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    # ordinary (slope-zero) part is present
    assert [0, 1] in obj["slopes_kept"]


@pytest.mark.parametrize("argv", [
    "qf classes --level 11 --disc 33",
    "modsym basis --level 11 --weight 0",
    "modsym eigen --level 11 --weight 0",
    "shintani classical --level 5 --weight 1 --nmax 4",
    "shintani oc --p 5 --moments 2 --padic-prec 3 --nmax 4",
    "slopes --p 11 --moments 2 --padic-prec 3",
])
def test_json_reports_carry_one_envelope(capsys, argv):
    # every JSON report names the schema version and its command, the
    # group and the action as typed
    code, out = run_cli(capsys, *argv.split(), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    words = argv.split()
    assert obj["command"] == " ".join(words[:1 if words[0] == "slopes" else 2])


# ---------------------------------------------------------------------------
# verify suites: exit codes and report shape


def test_verify_involution_passes(capsys):
    code, out = run_cli(capsys, "verify", "involution", "--level", "11",
                        "--weight", "0", "--nmax", "12")
    assert code == 0
    assert out.startswith("verify: anti-symmetry")
    assert "RESULT: PASS" in out


def test_verify_equivariance_passes(capsys):
    code, out = run_cli(capsys, "verify", "equivariance", "--level", "5",
                        "--weight", "1", "--nmax", "5", "--ells", "3")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_interpolation_passes(capsys):
    code, out = run_cli(capsys, "verify", "interpolation", "--p", "5",
                        "--tame-n", "1", "--moments", "4",
                        "--padic-prec", "4", "--nmax", "5",
                        "--weights", "0,1")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_oc_hecke_passes(capsys):
    code, out = run_cli(capsys, "verify", "oc-hecke", "--p", "5",
                        "--tame-n", "1", "--moments", "4",
                        "--padic-prec", "4", "--nmax", "4", "--ells", "3")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    # corrupt one coefficient downstream of the real computation: the
    # suite must exit 1 and point at the first failing index
    real = theta_classical

    def crooked(phi, M, k, chi, n_max, threads=1):
        e = real(phi, M, k, chi, n_max, threads=threads)
        co = dict(e.coeffs)
        co[1] = co.get(1, 0) + 1
        return e._like(co)

    monkeypatch.setattr(cli, "theta_classical", crooked)
    code, out = run_cli(capsys, "verify", "involution", "--level", "5",
                        "--weight", "1", "--nmax", "8")
    assert code == 1
    assert "RESULT: FAIL" in out
    assert "first failing coefficient" in out
    assert "n=1" in out


def test_verify_oc_hecke_failure_names_the_first_moment(capsys, monkeypatch):
    # a T_l that doubles its output: the report points at the first
    # differing moment by its path in the coefficient's JSON
    real = cli.qexp_hecke_Tl
    monkeypatch.setattr(cli, "qexp_hecke_Tl", lambda e, l: real(e, l).scale(2))
    code, out = run_cli(capsys, "verify", "oc-hecke", "--p", "5",
                        "--tame-n", "3", "--moments", "4", "--padic-prec", "4",
                        "--nmax", "20", "--ells", "7")
    assert code == 1
    assert ("         first failing coefficient: n=3: "
            "$.right.components.1[0][1]: 565 != 505") in out.splitlines()
    assert out.endswith("RESULT: FAIL\n")


def test_two_tag_oc_json_is_pinned(capsys):
    # the benchmark's digests cover tame level 1 only; this pins the JSON
    # of a lift with two tame tags byte for byte
    code, out = run_cli(capsys, "shintani", "oc", "--p", "7", "--tame-n", "3",
                        "--moments", "4", "--padic-prec", "4", "--nmax", "30",
                        "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3a651a2d918ab2777ce330624d2392d1348562c03bb4847ecfdc3395fb81190e")


def test_classical_json_is_pinned(capsys):
    # the benchmark's digests cover level 11 weight 0 and the level-5
    # lift only; these pin eigensystems with coordinates at level 7
    # weight 2, and a basis under a quadratic character whose involution
    # split has halves
    cases = [
        (("modsym", "eigen", "--level", "7", "--weight", "2", "--sign", "1"),
         "ad2c77ba7cdffce08510a53c849070da1488ef69d8dabc5ae2fa16f00b80afd4"),
        (("modsym", "basis", "--level", "13", "--weight", "2", "--char",
          "13"),
         "cacbd46238816dc55fb6c0d78d1c256ca88c0349a939518c55c167aaae1a7efb"),
    ]
    for argv, digest in cases:
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_zero_against_zero_is_vacuous(capsys):
    # every lift at lifting weight 0 vanishes: an equivariance report that
    # only compared zero with zero ends in VACUOUS and exits 1
    code, out = run_cli(capsys, "verify", "equivariance", "--level", "11",
                        "--weight", "0", "--nmax", "10")
    assert code == 1
    assert out.count("[PASS]") == 6 and "[FAIL]" not in out
    assert out.endswith("\nRESULT: VACUOUS\n")
    # lift(phi^+) = 0 claims a vanishing, so the involution report passes
    code, out = run_cli(capsys, "verify", "involution", "--level", "11",
                        "--weight", "0", "--nmax", "10")
    assert code == 0 and out.endswith("\nRESULT: PASS\n")
    # some comparisons zero with zero, some not: the report passes
    code, out = run_cli(capsys, "verify", "equivariance", "--level", "11",
                        "--weight", "1", "--nmax", "10", "--ells", "3")
    assert code == 0 and out.endswith("\nRESULT: PASS\n")


@pytest.mark.parametrize("command", ["oc-hecke", "interpolation"])
def test_verify_finite_precision_empty_is_vacuous(capsys, command):
    # at p = 7 no slot up to 2 is realizable, so both sides of every
    # comparison are empty expansions
    code, out = run_cli(capsys, "verify", command, "--p", "7", "--tame-n",
                        "1", "--moments", "4", "--padic-prec", "4",
                        "--nmax", "2")
    assert code == 1
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.endswith("\nRESULT: VACUOUS\n")


def test_usage_error_small_p(capsys):
    code = cli.main(["verify", "interpolation", "--p", "3", "--tame-n", "1",
                     "--nmax", "4"])
    assert code == 2


def test_usage_error_p_divides_tame(capsys):
    code = cli.main(["shintani", "oc", "--p", "5", "--tame-n", "10",
                     "--nmax", "4"])
    assert code == 2


def test_usage_error_int64_overflow(capsys):
    # 31^9 is about 2^44.6: the int64 kernels would overflow silently
    code = cli.main(["slopes", "--p", "31", "--padic-prec", "9",
                     "--moments", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "KernelOverflow" in captured.err


@pytest.mark.parametrize("argv", [
    "verify equivariance --level 11 --weight 1 --nmax 5 --ells 0",
    "verify equivariance --level 11 --weight 1 --nmax 5 --ells 4",
    "verify equivariance --level 11 --weight 1 --nmax 5 --ells 11",
    "verify oc-hecke --p 5 --moments 2 --padic-prec 2 --nmax 5 --ells 0",
    "verify oc-hecke --p 5 --moments 2 --padic-prec 2 --nmax 5 --ells 2",
    "shintani oc --p 6 --moments 2 --padic-prec 2 --nmax 3",
    "shintani oc --p 0 --nmax 4",
    "slopes --p 0",
    "slopes --p 11 --moments 2 --padic-prec 0",
    "slopes --p 11 --moments -1 --padic-prec 2",
    "verify interpolation --p 5 --moments 1 --padic-prec 3 --nmax 5 "
    "--weights 2",
    "verify interpolation --p 5 --moments 2 --padic-prec 2 --nmax 12 "
    "--weights 1",
    "verify interpolation --p 5 --moments 4 --padic-prec 1 --nmax 5",
    "modsym basis --level 11 --weight 0 --char 3",
    "verify involution --level 11 --weight 1 --nmax 5 --threads 0",
    "verify involution --level 11 --weight 1 --nmax 5 --threads -1",
])
def test_usage_error_one_line_exit_two(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_usage_error_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main(["qf"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# determinism and cache plumbing


def test_one_parser_serves_every_call(capsys):
    # build_parser is cached: a usage error, then --json, then plain text,
    # must each print what a fresh process prints
    def fresh(argv):
        return subprocess.run([sys.executable, "-m", "shintani", *argv],
                              capture_output=True, text=True).stdout

    with pytest.raises(SystemExit) as exc:
        cli.main(["qf", "classes", "--level", "11"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == fresh(["qf", "classes", "--level", "11"])
    for argv in (["qf", "classes", "--level", "11", "--disc", "33", "--json"],
                 ["qf", "classes", "--level", "11", "--disc", "33"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == fresh(argv)
    assert cli.build_parser() is cli.build_parser()


def test_json_reruns_byte_identical(capsys):
    args = ("shintani", "classical", "--level", "5", "--weight", "1",
            "--nmax", "12", "--json")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_thread_count_invariant_output(capsys):
    base = ("verify", "involution", "--level", "5", "--weight", "1",
            "--nmax", "8")
    _, out1 = run_cli(capsys, *base, "--threads", "1")
    _, out2 = run_cli(capsys, *base, "--threads", "4")
    assert out1 == out2


def test_equivariance_builds_each_kernel_once(capsys, monkeypatch):
    # 12 lifts, of depth 10 and 90, each split between two pool tasks:
    # every slot's kernel is built by one task, then read from the cache
    built, lock = Counter(), threading.Lock()
    real = lifting._build_kernels

    def counted(M, k, chi, phi_chi, ns):
        with lock:
            built.update((M, k, chi, phi_chi, n) for n in ns)
        return real(M, k, chi, phi_chi, ns)

    monkeypatch.setattr(lifting, "_build_kernels", counted)
    lifting._kernel_cell.cache_clear()
    code, out = run_cli(capsys, "verify", "equivariance", "--level", "11",
                        "--weight", "1", "--nmax", "10", "--ells", "3",
                        "--threads", "2")
    assert code == 0 and out.endswith("RESULT: PASS\n")
    assert sorted(key[-1] for key in built) == list(range(1, 91))
    assert set(built.values()) == {1}


def test_console_entry_subprocess():
    # end-to-end through the module entry point
    out = subprocess.run(
        [sys.executable, "-m", "shintani", "modsym", "basis",
         "--level", "11", "--weight", "0"],
        capture_output=True, text=True, check=True)
    assert "dimension: 3" in out.stdout


OC_PROFILE = ("--p", "5", "--tame-n", "1", "--moments", "2",
              "--padic-prec", "3")


def test_oc_commands_share_one_solved_space(capsys, monkeypatch):
    # one process solves each overconvergent space once
    spaces = []

    def recorded(*args):
        spaces.append(ocsymb.solve_oc_space(*args))
        return spaces[-1]

    monkeypatch.setattr(cli, "solve_oc_space", recorded)
    ocsymb.solve_oc_space.cache_clear()
    args = ("shintani", "oc", *OC_PROFILE, "--nmax", "8", "--json")
    _, first = run_cli(capsys, *args)
    code, report = run_cli(capsys, "verify", "oc-hecke", *OC_PROFILE,
                           "--nmax", "8")
    _, again = run_cli(capsys, *args)
    assert code == 0 and report.rstrip().endswith("RESULT: PASS")
    assert len(spaces) == 3 and spaces[0] is spaces[1] is spaces[2]
    assert ocsymb.solve_oc_space.cache_info().misses == 1
    ocsymb.solve_oc_space.cache_clear()
    _, fresh = run_cli(capsys, *args)
    assert spaces[3] is not spaces[0]
    assert first == again == fresh


# sympy is only a test oracle: the CLI must import and run without it
NUMPY_ONLY = """
import contextlib, io, json, sys
import shintani.cli
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("sympy", "mpmath"))
sys.modules["sympy"] = None  # any later "import sympy" fails
runs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = shintani.cli.main(argv)
    runs.append([code, buf.getvalue()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def test_runtime_needs_numpy_only(capsys):
    argvs = [["modsym", "eigen", "--level", "11", "--weight", "0", "--json"],
             ["shintani", "classical", "--level", "5", "--weight", "1",
              "--nmax", "40", "--json"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(shintani.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, json.dumps(argvs)],
        capture_output=True, text=True, check=True, env=env, timeout=300)
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    assert got["runs"] == [[0, run_cli(capsys, *argv)[1]] for argv in argvs]


# np.unique's first call imports numpy.ma, which costs milliseconds and
# over a megabyte of peak RSS; the overconvergent commands never need it
NO_MASKED_ARRAYS = """
import contextlib, io, json, sys
import shintani.cli
at_import = "numpy.ma" in sys.modules
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(shintani.cli.main(argv))
print(json.dumps([at_import, codes, "numpy.ma" in sys.modules]))
"""


def test_oc_commands_import_no_masked_arrays():
    argvs = [["verify", "oc-hecke", *OC_PROFILE, "--nmax", "8"],
             ["slopes", "--p", "11", "--tame-n", "1", "--moments", "1",
              "--padic-prec", "4", "--h", "1"],
             ["shintani", "oc", *OC_PROFILE, "--nmax", "8", "--json"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(shintani.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, json.dumps(argvs)],
        capture_output=True, text=True, check=True, env=env, timeout=300)
    at_import, codes, loaded = json.loads(proc.stdout)
    if at_import:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert codes == [0, 0, 0]
    assert not loaded


# ---------------------------------------------------------------------------
# the option and command tables


def parse_config(argv):
    """What main hands a handler: the parsed and validated config."""
    return cli.JobConfig(**vars(cli.build_parser().parse_args(argv))).validate()


README_COMMANDS = {
    "qf classes --level 11 --disc 33": dict(
        handler=cli.cmd_qf_classes, level=11, disc=33, json_out=False,
        threads=1),
    "qf classes --level 225 --disc 900": dict(
        handler=cli.cmd_qf_classes, level=225, disc=900, json_out=False,
        threads=1),
    "modsym basis --level 11 --weight 0": dict(
        handler=cli.cmd_modsym_basis, level=11, weight=0, char_disc=0,
        json_out=False, threads=1),
    "modsym eigen --level 11 --weight 0": dict(
        handler=cli.cmd_modsym_eigen, level=11, weight=0, char_disc=0,
        sign=-1, json_out=False, threads=1),
    "shintani classical --level 5 --weight 1 --nmax 20": dict(
        handler=cli.cmd_shintani_classical, level=5, weight=1, char_disc=0,
        sign=-1, n_max=20, json_out=False, threads=1),
    "shintani oc --p 5 --tame-n 1 --moments 8 --padic-prec 8 --nmax 20": dict(
        handler=cli.cmd_shintani_oc, p=5, tame=1, moments=8, prec=8,
        n_max=20, json_out=False, threads=1, seed=17),
    "slopes --p 11 --tame-n 1 --moments 4 --padic-prec 4 --h 1": dict(
        handler=cli.cmd_slopes, p=11, tame=1, moments=4, prec=4,
        slope_bound=1, json_out=False, threads=1),
    "verify involution --level 11 --weight 1 --nmax 50": dict(
        handler=cli.cmd_verify_involution, level=11, weight=1, char_disc=0,
        n_max=50, threads=1),
    "verify equivariance --level 11 --weight 1 --nmax 60": dict(
        handler=cli.cmd_verify_equivariance, level=11, weight=1,
        char_disc=0, n_max=60, ells=(3, 7), threads=1),
    "verify interpolation --p 5 --tame-n 1 --moments 8 --padic-prec 8 "
    "--nmax 20": dict(
        handler=cli.cmd_verify_interpolation, p=5, tame=1, moments=8,
        prec=8, n_max=20, weights=(0, 1, 2), threads=1, seed=17),
    "verify oc-hecke --p 5 --tame-n 1 --moments 8 --padic-prec 8 --nmax 40":
    dict(
        handler=cli.cmd_verify_oc_hecke, p=5, tame=1, moments=8, prec=8,
        n_max=40, ells=(3, 7), threads=1, seed=17),
}


def readme_commands():
    """The shintani command lines of the README's command-line section."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [" ".join(line.split("#")[0].split()[1:])
            for line in block.splitlines() if line.startswith("shintani ")]


def test_readme_commands_parse_to_pinned_configs():
    # every field of each README command's config: a drifted default, a
    # lost option or a field a subcommand should not set shows here
    assert readme_commands() == list(README_COMMANDS)
    for line, fields in README_COMMANDS.items():
        argv = line.split()
        expected = {**dict.fromkeys(cli.OPTIONS), **fields, "group": argv[0]}
        if argv[0] != "slopes":
            expected["action"] = argv[1]
        assert vars(parse_config(argv)) == expected, line


DROPPED_PAIRS = [
    "qf classes --level 11 --disc 33 --seed 3",
    "modsym basis --level 11 --weight 0 --seed 3",
    "modsym eigen --level 11 --weight 0 --seed 3",
    "shintani classical --level 5 --weight 1 --nmax 6 --seed 3",
    "slopes --p 11 --moments 2 --padic-prec 3 --seed 3",
    "verify involution --level 11 --weight 0 --nmax 4 --seed 3",
    "verify equivariance --level 11 --weight 0 --nmax 4 --seed 3",
    "verify involution --level 11 --weight 0 --nmax 4 --json",
    "verify equivariance --level 11 --weight 0 --nmax 4 --json",
    "verify interpolation --p 5 --moments 2 --padic-prec 3 --nmax 4 --json",
    "verify oc-hecke --p 5 --moments 2 --padic-prec 3 --nmax 4 --json",
]


@pytest.mark.parametrize("argv", DROPPED_PAIRS)
def test_option_a_subcommand_ignores_is_refused(capsys, argv):
    # --seed only where a seeded symbol is drawn, --json only where a
    # report has a JSON schema
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    dropped = "--" + argv.rsplit(" --", 1)[1]
    assert captured.err.endswith(f"error: unrecognized arguments: {dropped}\n")


@pytest.mark.parametrize("option", ["--ells", "--weights"])
def test_empty_int_list_message(capsys, option):
    # --weights are weights, not primes: the list parser names neither
    argv = ["verify", "interpolation" if option == "--weights" else "oc-hecke",
            "--p", "5", "--nmax", "4", option, ","]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {option}: need a comma-separated "
                        "integer list\n")
    assert "prime" not in err


def test_jobconfig_character():
    cfg = cli.JobConfig(char_disc=5)
    chi = cfg.character()
    assert chi(2) == DirichletChar.from_kronecker(5)(2) == -1
    assert cli.JobConfig().character()(2) == 1
    # D = 0 is the trivial character itself: equal, with the same hash
    for disc in (None, 0):
        triv = cli.JobConfig(char_disc=disc).character()
        assert triv == DirichletChar.trivial()
        assert hash(triv) == hash(DirichletChar.trivial())


def test_char_one_is_the_trivial_character(capsys):
    # --char 1 is kronecker(1, .), the trivial character: its report has
    # the dimension lines of --char 0, not those of the zero function
    def dimensions(char):
        code, out = run_cli(capsys, "modsym", "basis", "--level", "11",
                            "--weight", "0", "--char", char)
        assert code == 0
        return [line for line in out.splitlines() if "dimension" in line]

    assert dimensions("1") == dimensions("0") == [
        "dimension: 3", "plus dimension: 2", "minus dimension: 1"]


def test_json_diff_helper():
    a = {"x": [1, 2], "y": {"z": 3}}
    b = {"x": [1, 5], "y": {"z": 3}}
    assert cli._json_diff(a, b) == "$.x[1]: 2 != 5"
    assert cli._json_diff(a, a) is None
