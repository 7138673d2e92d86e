"""Exact and finite-precision lifts to half-integral-weight expansions."""

import ast
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from math import gcd

import numpy as np
import pytest

import shintani
from shintani.arith import DirichletChar, RationalCusp, kronecker
from shintani.cosets import _units
from shintani.dist import ArithWeight, _pairs
from shintani.errors import (
    BadIndex,
    BadLevel,
    DegreeMismatch,
    InsufficientMoments,
    NotInFM,
    OperandMismatch,
    PrecisionMismatch,
)
from shintani.lifting import (
    FormalQExp,
    HalfIntQExp,
    _dirac_convolve,
    delta_of_index,
    halfint_Tl2,
    qexp_hecke_Tl,
    qexp_hecke_Tll,
    quad_power,
    realizable_index,
    specialize_qexp,
    theta_classical,
    theta_oc,
    verify_interpolation,
)
from shintani.modsym import (
    ModularSymbol,
    SymPoly,
    eigensymbols,
    hecke_Tn,
    involution,
    involution_split,
    ring_reduce,
    solve_symbol_space,
)
from shintani.ocsymb import (
    OCSymbol,
    oc_hecke_Tll,
    oc_hecke_Tn,
    solve_oc_space,
    specialize_symbol,
)
from shintani import lifting, manin
from shintani.qf import QuadForm, act, enumerate_classes

from oracles import (
    J_classical,
    J_oc,
    J_oc_values,
    MetaCoeff,
    basis_over,
    convolve_distN,
    data_of,
    dirac_distN,
    eval_weight_meta,
    meta_of,
    meta_zero,
    qexp_module_action,
    row_of,
    scalar_action,
    theta_kernel_by_slot,
    values_of,
)

T5 = DirichletChar.trivial(5)
T11 = DirichletChar.trivial(11)


@pytest.fixture(scope="module")
def basis51():
    return solve_symbol_space(5, 2, T5.squared())


@pytest.fixture(scope="module")
def eigen51():
    [(phi, emap)] = eigensymbols(5, 2, T5.squared(), -1)
    return phi, emap


@pytest.fixture(scope="module")
def eigen11(ms11_basis=None):
    [(phi, emap)] = eigensymbols(11, 0, T11.squared(), -1)
    return phi, emap


@pytest.fixture(scope="module")
def ocsp5():
    return solve_oc_space(5, 1, (6, 6))


@pytest.fixture(scope="module")
def ocphi5(ocsp5):
    rng = random.Random(11)
    return ocsp5.combination(
        [rng.randrange(5**6) for _ in range(ocsp5.dimension)])


def gamma0_elements(M, count, seed=5):
    """Deterministic sample of level-M group elements, modest entries."""
    rng = random.Random(seed)
    gens = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, M, 1), (1, 0, -M, 1)]
    out = []
    while len(out) < count:
        g = (1, 0, 0, 1)
        for _ in range(rng.randrange(1, 5)):
            a, b, c, d = g
            r, s, t, u = rng.choice(gens)
            g = (a * r + b * t, a * s + b * u, c * r + d * t, c * s + d * u)
        if g != (1, 0, 0, 1):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# index bookkeeping and the coefficient container


def test_delta_of_index():
    assert delta_of_index(11, 3) == 33
    assert delta_of_index(5, 4) == 20
    assert delta_of_index(4, 1) == 16
    assert delta_of_index(6, 2) == 48


def test_realizable_index():
    # odd M: delta = M*n must be 0 or 1 mod 4
    assert [n for n in range(1, 13) if realizable_index(11, n)] == \
        [3, 4, 7, 8, 11, 12]
    assert [n for n in range(1, 13) if realizable_index(5, n)] == \
        [1, 4, 5, 8, 9, 12]
    # even M: delta = 4*M*n is always 0 mod 4
    assert all(realizable_index(6, n) for n in range(1, 10))


def test_halfint_container_semantics():
    e = HalfIntQExp(11, 0, T11, {3: Fraction(2), 4: 0}, 10)
    assert e.level == 44 and e.weight == (3, 2)
    assert e.coeff(3) == 2
    assert e.coeff(4) == 0 and 4 not in e.coeffs  # zero is dropped
    with pytest.raises(BadIndex):
        e.coeff(11)
    with pytest.raises(BadIndex):
        HalfIntQExp(11, 0, T11, {11: 1}, 10)
    f = HalfIntQExp(11, 0, T11, {3: 1}, 6)
    s = e + f
    assert s.n_max == 6 and s.coeff(3) == 3
    assert (e - e).is_zero()
    assert e.scale(3).coeff(3) == 6 and (-e).coeff(3) == -2


def test_halfint_nebentype_values():
    # level parameter 11, weight 3/2: chi'(d) = kronecker(-11, d)
    e = HalfIntQExp(11, 0, T11, {}, 4)
    assert e.character(3) == kronecker(-11, 3) == 1
    assert e.character(7) == kronecker(-11, 7) == -1


def test_halfint_Tl2_delta_series():
    # point series at n=1, level parameter 11, weight 3/2: the middle
    # Hecke term contributes kronecker(-1,3) * kronecker(1,3) = -1
    e = HalfIntQExp(11, 0, T11, {1: 1}, 9)
    t = halfint_Tl2(e, 3)
    assert t.n_max == 1
    assert t.coeff(1) == -1


def test_halfint_Tl2_rejects():
    e = HalfIntQExp(5, 1, T5, {}, 50)
    with pytest.raises(BadIndex):
        halfint_Tl2(e, 2)
    with pytest.raises(BadIndex):
        halfint_Tl2(e, 5)  # divides the level parameter
    with pytest.raises(BadIndex):
        halfint_Tl2(e, 9)  # not prime


def test_quad_power_vectors():
    # position m holds the X^m Y^(2k-m) coefficient
    Q = QuadForm(2, -11, 11)
    p1 = quad_power(Q, 1)
    assert list(p1) == [11, -11, 2]
    p2 = quad_power(Q, 2)
    assert list(p2) == [121, -242, 165, -44, 4]


# ---------------------------------------------------------------------------
# the exact lift where it is nonzero: level parameter 5, weight 5/2


def test_theta_nonzero_eigen_coefficients(eigen51):
    phi, emap = eigen51
    assert {l: emap[l] for l in (2, 3, 5, 7)} == {2: -4, 3: 2, 5: -5, 7: 6}
    th = theta_classical(phi, 5, 1, T5, 30)
    assert dict(sorted(th.coeffs.items())) == {
        1: -10, 4: 20, 5: -10, 8: 40, 9: -50, 12: -80, 13: -20,
        17: 140, 20: 60, 21: 20, 24: 120, 25: 50, 28: -80, 29: -80,
    }
    # support only on realizable indices
    assert all(realizable_index(5, n) for n in th.coeffs)


def test_theta_antisymmetry_level5(basis51):
    for phi in basis51:
        th = theta_classical(phi, 5, 1, T5, 20)
        ti = theta_classical(involution(phi), 5, 1, T5, 20)
        assert ti == -th
        plus, _minus = involution_split(phi)
        assert theta_classical(plus, 5, 1, T5, 20).is_zero()


def test_theta_linearity(basis51):
    a, b = basis51[2], basis51[3]
    th = theta_classical(a + b.scale(3), 5, 1, T5, 16)
    ta = theta_classical(a, 5, 1, T5, 16)
    tb = theta_classical(b, 5, 1, T5, 16)
    assert th == ta + tb.scale(3)


def test_theta_hecke_equivariance_level5(basis51):
    for phi in basis51:
        lhs = theta_classical(hecke_Tn(phi, 3), 5, 1, T5, 12)
        rhs = halfint_Tl2(theta_classical(phi, 5, 1, T5, 108), 3)
        assert lhs.coeffs == rhs.coeffs


def test_theta_eigen_level5(eigen51):
    phi, emap = eigen51
    th = theta_classical(phi, 5, 1, T5, 90)
    t9 = halfint_Tl2(th, 3)
    assert not t9.is_zero()
    for n in range(1, 11):
        assert t9.coeff(n) == emap[3] * th.coeff(n)


# ---------------------------------------------------------------------------
# the weight-3/2 sector: classwise values are nonzero, class sums cancel


def test_J_classwise_values_level11(eigen11):
    phi, emap = eigen11
    assert {l: emap[l] for l in (2, 3, 5, 7)} == {2: -2, 3: -1, 5: 1, 7: -2}
    assert J_classical(phi, QuadForm(2, -11, 11), 0, T11) == -2
    # global sign flip of the form flips the cycle orientation
    assert J_classical(phi, QuadForm(-2, 11, -11), 0, T11) == 2
    assert J_classical(phi, QuadForm(3, -33, 88), 0, T11) == 2
    reps = enumerate_classes(11, 33)
    assert len(reps) == 2
    assert sum(J_classical(phi, Q, 0, T11) for Q in reps) == 0


def test_J_sign_flip_pairing(eigen11):
    # J(phi, -Q) = -J(phi, Q) at weight parameter 0 with trivial character
    phi, _ = eigen11
    for Q in [QuadForm(1, -11, 0), QuadForm(2, -11, 11), QuadForm(7, -33, 33),
              QuadForm(3, -33, 88), QuadForm(1, 0, -11)]:
        mQ = QuadForm(*(-x for x in Q.triple()))
        assert J_classical(phi, mQ, 0, T11) == -J_classical(phi, Q, 0, T11)


def test_theta_vanishes_weight_three_halves(eigen11):
    # the paired class sums cancel at every index in this sector
    phi, _ = eigen11
    assert theta_classical(phi, 11, 0, T11, 24).is_zero()


def test_theta_eigen_identity_level11(eigen11):
    # the Hecke identity theta|T_9 = a_3 * theta holds in this sector
    # with both sides assembled from the canceling class sums
    phi, emap = eigen11
    th = theta_classical(phi, 11, 0, T11, 18)
    t9 = halfint_Tl2(theta_classical(phi, 11, 0, T11, 162), 3)
    assert t9.coeffs == th.scale(emap[3]).coeffs


def test_J_orbit_invariance(eigen51, eigen11):
    phi5, _ = eigen51
    for Q in [QuadForm(1, 0, -5), QuadForm(2, -5, -5), QuadForm(1, -5, 5)]:
        v = J_classical(phi5, Q, 1, T5)
        for g in gamma0_elements(5, 6):
            assert J_classical(phi5, act(Q, g), 1, T5) == v
    phi11, _ = eigen11
    Q = QuadForm(2, -11, 11)
    v = J_classical(phi11, Q, 0, T11)
    assert v != 0
    for g in gamma0_elements(11, 6):
        assert J_classical(phi11, act(Q, g), 0, T11) == v


def test_J_base_independence(eigen51):
    phi, _ = eigen51
    for Q in [QuadForm(1, 0, -5), QuadForm(2, -5, -5)]:
        v = J_classical(phi, Q, 1, T5)
        assert J_classical(phi, Q, 1, T5, base=RationalCusp(0)) == v
        assert J_classical(phi, Q, 1, T5, base=RationalCusp(2, 3)) == v


def test_J_degree_mismatch(eigen51):
    phi, _ = eigen51
    with pytest.raises(DegreeMismatch):
        J_classical(phi, QuadForm(1, 0, -5), 0, T5)
    with pytest.raises(DegreeMismatch):
        theta_classical(phi, 5, 0, T5, 4)


@pytest.mark.parametrize("ring", ["Q", ("zpm", 7, 3)])
def test_theta_classical_matches_J_classical_oracle(ring):
    # the cached kernels against the class-by-class cycle pairing, with a
    # quadratic character on the symbols, on the lift, and on only the lift
    quad = DirichletChar.from_kronecker(5)
    nonzero = 0
    for sym_chi, chi, k in ((T5, T5, 1), (quad, quad, 2), (T5, quad, 1)):
        basis = basis_over(5, 2 * k, sym_chi, ring)
        # halving one summand mixes the coordinates' denominators
        half = Fraction(1, 2)
        for phi in basis + [b.scale(half) + basis[0] for b in basis[1:]]:
            th = theta_classical(phi, 5, k, chi, 24)
            for n in range(1, 25):
                classes = enumerate_classes(5, delta_of_index(5, n))
                oracle = sum(J_classical(phi, Q, k, chi) for Q in classes)
                assert th.coeff(n) == ring_reduce(ring, oracle), (chi, n)
            nonzero += not th.is_zero()
    assert nonzero >= 3


@pytest.mark.parametrize("M, k, ns", [
    (11, 1, range(1, 61)),
    (5, 1, range(1, 41)),
    (11, 0, range(1, 41)),
    (11, 1, range(500, 521)),
], ids=["11-1-n60", "5-1-n40", "11-0-n40", "11-1-n500-520"])
def test_batched_kernels_match_per_slot_oracle(M, k, ns):
    # one batch over every slot, then through the cache: 32-slot batches
    # on the strided slices of one and of three threads
    chi, ns = DirichletChar.trivial(), list(ns)
    oracle = [theta_kernel_by_slot(M, k, chi, chi, n) for n in ns]
    assert any(any(K_n) for K_n in oracle)
    assert lifting._build_kernels(M, k, chi, chi, ns) == oracle
    for threads in (1, 3):
        lifting._kernel_cell.cache_clear()
        slices = partial(lifting._theta_kernels, M, k, chi, chi)
        assert lifting._map_indices(slices, ns, threads) == oracle


def test_theta_classical_independent_of_threads():
    # with 3 and 7 threads the strided slices of most slot counts have
    # unequal lengths, and 7 threads exceed the slots of n_max <= 5; a
    # short switch interval interleaves the tasks' cache reads and builds
    basis = solve_symbol_space(11, 2, DirichletChar.trivial())
    phi = basis[0] + basis[-1].scale(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n_max in (0, 1, 2, 5, 40):
            lifts = []
            for threads in (1, 2, 3, 7):
                lifting._kernel_cell.cache_clear()
                lifts.append(theta_classical(phi, 11, 1,
                                             DirichletChar.trivial(), n_max,
                                             threads=threads))
            assert all(e == lifts[0] for e in lifts[1:]), n_max
            assert all(e.n_max == n_max for e in lifts)
    finally:
        sys.setswitchinterval(interval)
    assert not lifts[0].is_zero()


# ---------------------------------------------------------------------------
# tensor-coefficient expansions


OPTIMIZED_GUARDS = """
from fractions import Fraction

import numpy as np
from shintani.arith import DirichletChar, crt
from shintani.dist import ArithWeight
from shintani.errors import ShintaniError
from shintani import modsym
from shintani.lifting import (
    FormalQExp, HalfIntQExp, specialize_qexp, theta_classical)
from shintani.linalg import matmul_mod, zpm_solve
from shintani.modsym import (
    ModularSymbol, SymPoly, eigensymbols, ring_reduce,
    solve_symbol_space)
from shintani.ocsymb import (
    OCSpace, OCSymbol, lift_eigensymbol, oc_hecke_Tll, oc_sign_project,
    solve_oc_space, up_matrix)
from shintani.qf import QuadForm, enumerate_classes

from oracles import Divisor0, J_classical, J_oc, basis_symbols

T = DirichletChar.trivial(1)
bad = QuadForm(2, 1, -3)  # in neither F_5 nor F_11
sym5, sym11 = solve_symbol_space(5, 2, T)[0], solve_symbol_space(11, 2, T)[0]
sp5 = solve_oc_space(5, 1, (2, 2))
oc5, oc5_prec3 = (basis_symbols(space)[0] for space in
                  (sp5, solve_oc_space(5, 1, (3, 2))))
# coefficient arrays (slot, tag, disc, moment) for q-slots 1..4 at
# (p, M, Tp) = (5, 2, 1); the second carries mass at slot 2 (disc 10)
zeros = np.zeros((4, 1, 4, 2), dtype=np.int64)
at2 = zeros.copy()
at2[1, 0, 0, 0] = 1
# a one-symbol "space" whose U_p image leaves its span
unit = np.zeros((1,) + oc5.data.shape, dtype=np.int64)
unit[0, 0, 0, 0, 0] = 1
not_stable = OCSpace(5, 1, 5, 2, 2, unit, [0], [0])
# value 1 on one generator breaks the weight-0 relations
off_image = ModularSymbol(5, 0, T, ("zpm", 5, 2), [1, 0, 0, 0, 0, 0])


def corrupted(kernel, fake, *args):
    # solve_symbol_space with its kernel routine replaced by a fake
    real = getattr(modsym, kernel)
    setattr(modsym, kernel, fake)
    try:
        return solve_symbol_space(*args)
    finally:
        setattr(modsym, kernel, real)


cases = {
    "J_classical": lambda: J_classical(
        solve_symbol_space(11, 0, T)[0], bad, 0, T),
    "J_oc": lambda: J_oc(oc5, bad),
    "HalfIntQExp": lambda: (HalfIntQExp(11, 0, T, {}, 4)
                            + HalfIntQExp(11, 1, T, {}, 4)),
    "FormalQExp": lambda: (FormalQExp(5, 1, 5, 2, 1, zeros, 4)
                           + FormalQExp(5, 1, 5, 3, 1, zeros, 4)),
    "theta_classical": lambda: theta_classical(sym5, 11, 1, T, 4),
    "SymPoly": lambda: (SymPoly(5, 2, sym5.coords()[:3], T)
                        + SymPoly(11, 2, sym11.coords()[:3], T)),
    "ModularSymbol": lambda: sym5 + sym11,
    "Divisor0": lambda: Divisor0([((1, 2), 1)]),
    "oc_hecke_Tll": lambda: oc_hecke_Tll(oc5, 5),
    "solve_oc_space(25, 5)": lambda: solve_oc_space(25, 5, (2, 2)),
    "solve_oc_space(3, 1)": lambda: solve_oc_space(3, 1, (2, 2)),
    "FormalQExp(level)": lambda: FormalQExp(10, 1, 5, 2, 1, zeros, 4),
    "FormalQExp(indices)": lambda: FormalQExp(5, 1, 5, 2, 1, zeros[:1], 4,
                                              [5]),
    "FormalQExp(slot)": lambda: FormalQExp(5, 1, 5, 2, 1, zeros, 4, [1]),
    "FormalQExp(coeff)": lambda: FormalQExp(5, 1, 5, 2, 1, zeros[..., :1],
                                            4),
    "FormalQExp(disc)": lambda: FormalQExp(5, 1, 5, 2, 1, at2, 4),
    "FormalQExp(overflow)": lambda: FormalQExp(5, 1, 5, 13, 1, zeros, 4),
    "specialize_qexp": lambda: specialize_qexp(
        FormalQExp(5, 1, 5, 2, 1, zeros[:1], 4, [1]), ArithWeight(0, T, 5)),
    "OCSymbol(level)": lambda: OCSymbol(10, 1, 5, 2, 2, oc5.data),
    "OCSymbol(shape)": lambda: OCSymbol(5, 1, 5, 2, 2, oc5.data[1:]),
    "OCSymbol(+)": lambda: oc5 + oc5_prec3,
    "OCSymbol(-)": lambda: oc5 - oc5_prec3,
    "combination": lambda: OCSpace(
        5, 1, 5, 2, 2, sp5.data[:0], [], []).combination([]),
    "up_matrix": lambda: up_matrix(not_stable, 0),
    "lift_eigensymbol(stratum)": lambda: lift_eigensymbol(
        sp5, sym5, 1, ArithWeight(3, T, 5)),
    "lift_eigensymbol(image)": lambda: lift_eigensymbol(
        sp5, off_image, 1, ArithWeight(0, T, 5)),
    "lift_eigensymbol(level)": lambda: lift_eigensymbol(
        sp5, sym11, 1, ArithWeight(2, T, 5)),
    "lift_eigensymbol(weight)": lambda: lift_eigensymbol(
        sp5, off_image, 1, ArithWeight(1, T, 5)),
    "lift_eigensymbol(character)": lambda: lift_eigensymbol(
        sp5, off_image, 1, ArithWeight(0, DirichletChar.from_kronecker(5), 5)),
    "oc_sign_project": lambda: oc_sign_project(oc5, 2),
    "matmul_mod": lambda: matmul_mod(np.ones((2, 3)), np.ones((5, 2)), 7),
    "zpm_solve(3^30)": lambda: zpm_solve(np.eye(2), np.ones(2), 3, 30),
    "zpm_solve(shape)": lambda: zpm_solve(np.eye(3), [1, 2], 5, 2),
    # one all-ones "kernel" vector breaks the weight-0 S-pair relations
    "solve_symbol_space(Q kernel)": lambda: corrupted(
        "frac_nullspace", lambda rows, n: [[1] * n], 11, 0, T),
    "eigensymbols(sign)": lambda: eigensymbols(11, 0, T, 0),
    "HalfIntQExp(level)": lambda: HalfIntQExp(0, 0, T, {}, 4),
    "HalfIntQExp(n_max)": lambda: HalfIntQExp(11, 0, T, {}, -1),
    "ModularSymbol(gens)": lambda: ModularSymbol(
        5, 2, T, "Q", sym5.coords()[:-1]),
    "ModularSymbol(chi)": lambda: sym5 + ModularSymbol(
        5, 2, DirichletChar.from_kronecker(5), "Q", sym5.coords()),
    # 1/5 has no image in Z/5^2
    "ring_reduce": lambda: ring_reduce(("zpm", 5, 2), Fraction(1, 5)),
    "ArithWeight": lambda: ArithWeight(-1, T, 5),
    "enumerate_classes": lambda: enumerate_classes(11, -11),
    "crt": lambda: crt(1, 4, 3, 6),
    "DirichletChar": lambda: DirichletChar(0, {}),
}
print("debug", __debug__)
for name, call in cases.items():
    try:
        call()
        print(name, "accepted")
    except ShintaniError as exc:
        print(name, type(exc).__name__)
"""


def test_input_guards_survive_optimize():
    # python -O strips asserts; the caller-input guards must still raise.
    # tests/ is on the path for the oracles' J_classical and Divisor0.
    src = os.path.dirname(os.path.dirname(os.path.abspath(shintani.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_GUARDS],
                         capture_output=True, text=True, check=True, env=env,
                         timeout=300).stdout.split("\n")
    assert out[:45] == [
        "debug False",
        "J_classical NotInFM",
        "J_oc NotInFM",
        "HalfIntQExp OperandMismatch",
        "FormalQExp OperandMismatch",
        "theta_classical OperandMismatch",
        "SymPoly OperandMismatch",
        "ModularSymbol OperandMismatch",
        "Divisor0 DegreeMismatch",
        "oc_hecke_Tll BadIndex",
        "solve_oc_space(25, 5) BadLevel",
        "solve_oc_space(3, 1) BadCharacteristic",
        "FormalQExp(level) BadLevel",
        "FormalQExp(indices) BadIndex",
        "FormalQExp(slot) DegreeMismatch",
        "FormalQExp(coeff) DegreeMismatch",
        "FormalQExp(disc) BadIndex",
        "FormalQExp(overflow) KernelOverflow",
        "specialize_qexp BadIndex",
        "OCSymbol(level) BadLevel",
        "OCSymbol(shape) DegreeMismatch",
        "OCSymbol(+) PrecisionMismatch",
        "OCSymbol(-) PrecisionMismatch",
        "combination OperandMismatch",
        "up_matrix OperandMismatch",
        "lift_eigensymbol(stratum) DegreeMismatch",
        "lift_eigensymbol(image) OperandMismatch",
        "lift_eigensymbol(level) BadLevel",
        "lift_eigensymbol(weight) DegreeMismatch",
        "lift_eigensymbol(character) OperandMismatch",
        "oc_sign_project BadIndex",
        "matmul_mod OperandMismatch",
        "zpm_solve(3^30) KernelOverflow",
        "zpm_solve(shape) OperandMismatch",
        "solve_symbol_space(Q kernel) OperandMismatch",
        "eigensymbols(sign) BadIndex",
        "HalfIntQExp(level) BadIndex",
        "HalfIntQExp(n_max) BadIndex",
        "ModularSymbol(gens) DegreeMismatch",
        "ModularSymbol(chi) OperandMismatch",
        "ring_reduce BadCharacteristic",
        "ArithWeight BadIndex",
        "enumerate_classes BadIndex",
        "crt BadIndex",
        "DirichletChar BadIndex",
    ]


def exact_values():
    """Per value type: two values of one module and one of another."""
    T = DirichletChar.trivial(1)
    rng = np.random.default_rng(7)
    # (generator, tag, disc, moment) at level 5 = 1 * 5 with T = 2
    sym_shape = (manin.presentation(5).ngens, 1, 4, len(_pairs(2)[0]))
    # (slot, tag, disc, moment) for q-slots 1..4: only 1 and 4 carry discs
    slots = np.zeros((4, 1, 4, 2), dtype=np.int64)
    slots[[0, 3]] = rng.integers(0, 25, (2, 1, 4, 2))
    return {
        "SymPoly": (SymPoly(5, 2, [1, 2, 3], T),
                    SymPoly(5, 2, [0, Fraction(1, 2), -4], T),
                    SymPoly(11, 2, [1, 2, 3], T)),
        "ModularSymbol": (ModularSymbol(5, 0, T, "Q", range(6)),
                          ModularSymbol(5, 0, T, "Q", [3, 1, 4, 1, 5, 9]),
                          ModularSymbol(5, 0, T, ("zpm", 5, 2), range(6))),
        "OCSymbol": (OCSymbol(5, 1, 5, 2, 2, rng.integers(0, 25, sym_shape)),
                     OCSymbol(5, 1, 5, 2, 2, rng.integers(0, 25, sym_shape)),
                     OCSymbol(5, 1, 5, 3, 2, rng.integers(0, 125, sym_shape))),
        # the second operand is known to a higher n_max, or on fewer slots
        "HalfIntQExp": (HalfIntQExp(11, 0, T, {1: 2, 3: Fraction(5, 3)}, 4),
                        HalfIntQExp(11, 0, T, {1: -2, 2: 7, 6: 1}, 6),
                        HalfIntQExp(11, 1, T, {1: 2}, 4)),
        "FormalQExp": (FormalQExp(5, 1, 5, 2, 1, slots, 4),
                       FormalQExp(5, 1, 5, 2, 1, 3 * slots[[0, 3]], 4, [1, 4]),
                       FormalQExp(5, 1, 5, 3, 1, slots, 4)),
    }


@pytest.mark.parametrize("name", list(exact_values()))
def test_exact_value_contract(name):
    a, b, other = exact_values()[name]
    assert type(a).__name__ == name and not a.is_zero()
    assert a - b == a + b.scale(-1) and a - b != a
    assert -a == a.scale(-1) and -(-a) == a
    assert a + a.zero_like() == a and a.zero_like().is_zero()
    assert (a - a).is_zero() and a != b and a != other
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(type(a)._mismatch):
            op(a, other)
        with pytest.raises(type(a)._mismatch):
            op(other, a)


def test_exact_values_of_two_types_do_not_add():
    values = [v[0] for v in exact_values().values()]
    for a in values:
        for b in values + [1, None]:
            if type(a) is not type(b):
                with pytest.raises(type(a)._mismatch):
                    a + b
                with pytest.raises(type(a)._mismatch):
                    a - b
    sym = exact_values()["ModularSymbol"][0]
    with pytest.raises(OperandMismatch):
        sym + HalfIntQExp(5, 0, DirichletChar.trivial(1), {}, 4)


def test_theta_oc_evaluates_each_primitive_class_once(monkeypatch, ocphi5):
    # one path-term evaluation per primitive class, shared between indices
    n_max = 40
    prims = {Q.primitive_part().triple() for n in range(1, n_max + 1)
             for Q in enumerate_classes(5, delta_of_index(5, n))}
    original = lifting._cycle_terms
    calls = []

    def counted(Q, M):
        calls.append(Q.triple())
        return original(Q, M)

    monkeypatch.setattr(lifting, "_cycle_terms", counted)
    assert not theta_oc(ocphi5, n_max).is_zero()
    assert len(calls) == len(prims) == len(set(calls))


@pytest.mark.parametrize("M, chi, n_max", [
    (11, DirichletChar.trivial(), 90),
    (5, DirichletChar.from_kronecker(5), 40),
], ids=["11-trivial-n90", "5-quadratic-n40"])
def test_theta_classical_evaluates_each_primitive_class_once(monkeypatch, M,
                                                             chi, n_max):
    # each kernel build takes the cycle terms of primitive forms only, each
    # at most once; the imprimitive classes reuse their primitive part's
    real_build, real_terms = lifting._build_kernels, lifting._cycle_terms
    builds, scaled = [], 0

    def build(*args):
        builds.append([])
        return real_build(*args)

    def terms(Q, level):
        builds[-1].append(Q.triple())
        return real_terms(Q, level)

    for n in range(1, n_max + 1):
        scaled += sum(Q.content() > 1
                      for Q in enumerate_classes(M, delta_of_index(M, n)))
    assert scaled
    monkeypatch.setattr(lifting, "_build_kernels", build)
    monkeypatch.setattr(lifting, "_cycle_terms", terms)
    lifting._kernel_cell.cache_clear()
    basis = solve_symbol_space(M, 2, DirichletChar.trivial())
    phi = basis[0] + basis[-1].scale(3)
    assert not theta_classical(phi, M, 1, chi, n_max).is_zero()
    assert builds and all(builds)
    for calls in builds:
        assert len(calls) == len(set(calls))
        assert all(gcd(*Q) == 1 for Q in calls)


def test_formal_qexp_container(ocphi5):
    e = theta_oc(ocphi5, 8, indices=[5, 1, 4])
    assert e.indices == (1, 4, 5)
    # one read-only int64 array (slot, tag, disc, moment) mod 5^6, Tp = 3
    assert e.data.dtype == np.int64 and e.data.shape == (3, 1, 4, 4)
    assert not e.data.flags.writeable
    assert 0 <= e.data.min() and e.data.max() < 5**6
    assert np.array_equal(e.coeff(4), e.data[1])
    with pytest.raises(BadIndex):
        e.coeff(8)  # not assembled
    z = e - e
    assert z.is_zero() and not e.is_zero()
    assert e + z == e


def test_formal_qexp_realizability_guard(ocphi5):
    e = theta_oc(ocphi5, 8, indices=[1, 4])
    data = np.zeros((8,) + e.data.shape[1:], dtype=np.int64)
    data[1] = e.coeff(1)
    with pytest.raises(BadIndex):
        FormalQExp(5, 1, 5, e.prec, e.Tp, data, 8)  # 10 is not a disc
    with pytest.raises(DegreeMismatch):
        FormalQExp(5, 1, 5, e.prec, e.Tp, data[:, :, :, :-1], 8)


def test_theta_oc_zero_and_linearity(ocsp5, ocphi5):
    zero = ocphi5.zero_like()
    assert theta_oc(zero, 6, indices=[1, 4, 5]).is_zero()
    rng = random.Random(3)
    Psi = ocsp5.combination(
        [rng.randrange(5**6) for _ in range(ocsp5.dimension)])
    idx = [1, 4, 5, 8]
    lhs = theta_oc(ocphi5 + Psi.scale(2), 8, indices=idx)
    rhs = theta_oc(ocphi5, 8, indices=idx) + theta_oc(Psi, 8, indices=idx).scale(2)
    assert lhs == rhs


def test_theta_oc_on_slots_without_classes(ocphi5):
    # 5 n is 2 or 3 mod 4 for n = 2, 3, so no form has that discriminant;
    # the lift there, and on no slots at all, is zero rather than an error
    e = theta_oc(ocphi5, 3, indices=[2, 3])
    assert e.indices == (2, 3) and e.is_zero()
    assert theta_oc(ocphi5, 3, indices=[]).data.shape == (0, 1, 4, 4)


def test_J_oc_orbit_invariance(ocphi5):
    for Q in [QuadForm(1, 0, -5), QuadForm(2, -5, -5)]:
        v = J_oc(ocphi5, Q)
        assert v.any()
        for g in gamma0_elements(5, 4):
            assert np.array_equal(J_oc(ocphi5, act(Q, g)), v)


@pytest.fixture(scope="module")
def oc_lift_cases(ocsp5, ocphi5):
    """(symbol, q-slots) at p = 5 with N = 1 and 3, and p = 7 with odd T."""
    rng = random.Random(29)
    out = [(ocphi5, [1, 4, 5, 9, 11, 16, 20, 36])]
    for level, N, precision, idx in ((15, 3, (4, 3), [3, 4, 12, 15, 16]),
                                     (7, 1, (5, 5), [3, 4, 12, 19, 27])):
        space = solve_oc_space(level, N, precision)
        mod = space.p**space.prec
        out.append((space.combination(
            [rng.randrange(mod) for _ in range(space.dimension)]), idx))
    return out


def test_theta_oc_matches_value_by_value_oracle(oc_lift_cases):
    # every coefficient against the sum over all classes of the slot,
    # imprimitive ones evaluated directly at the scaled form, each class
    # through Phi(D_Q) value by value and tilde_JQ
    scaled = 0
    for Phi, idx in oc_lift_cases:
        Np, Tp = Phi.level, Phi.T // 2
        want = {}
        for n in idx:
            acc = meta_zero(Phi.N, Phi.p, Phi.prec, Tp)
            for Q in enumerate_classes(Np, delta_of_index(Np, n)):
                scaled += Q.content() > 1
                acc = acc + J_oc_values(Phi, Q)
            want[n] = acc
        assert sum(not v.is_zero() for v in want.values()) >= 3
        e = theta_oc(Phi, max(idx) + 1, indices=idx)
        assert e.indices == tuple(idx)
        for n in idx:
            assert np.array_equal(e.coeff(n), row_of(want[n])), (Phi, n)
    assert scaled >= 3


def test_J_oc_matches_value_by_value_oracle(oc_lift_cases):
    for Phi, idx in oc_lift_cases:
        Np = Phi.level
        forms = [Q for n in idx[:3]
                 for Q in enumerate_classes(Np, delta_of_index(Np, n))]
        for Q in forms:
            assert np.array_equal(J_oc(Phi, Q), row_of(J_oc_values(Phi, Q)))
        # the lift reads the cycle from infinity; the oracle's from 2/3
        # gives the same tensor
        assert np.array_equal(
            J_oc(Phi, forms[-1]),
            row_of(J_oc_values(Phi, forms[-1], RationalCusp(2, 3))))
        tags = {t for v in values_of(Phi) for t in v.comps}
        assert len(tags) == len(_units(Phi.N))  # every tag carries mass


def test_theta_oc_refuses_forms_outside_FM(monkeypatch, ocphi5):
    from shintani import lifting

    with pytest.raises(NotInFM):
        J_oc(ocphi5, QuadForm(2, 1, -3))
    monkeypatch.setattr(lifting, "enumerate_classes",
                        lambda M, disc: [QuadForm(1, 0, -5),
                                         QuadForm(2, 1, -3)])
    with pytest.raises(NotInFM):
        theta_oc(ocphi5, 4, indices=[1])


def test_J_oc_imprimitive_convolution(ocphi5):
    # a scaled form contributes the primitive tensor convolved with the
    # point mass at the scale
    for Q, m in [(QuadForm(1, 0, -5), 2), (QuadForm(2, -5, -5), 3)]:
        mQ = QuadForm(*(m * x for x in Q.triple()))
        direct = J_oc(ocphi5, mQ)
        shortcut = _dirac_convolve(J_oc(ocphi5, Q), m, 1, 5, 6)
        assert direct.any() and np.array_equal(direct, shortcut)


def _conv_meta(s, mc):
    """mc with its right factor convolved with the point mass at s."""
    r = mc.right
    return MetaCoeff(mc.left, convolve_distN(
        dirac_distN(s, r.N, r.p, r.prec, r.Tp), r))


def _metas(e):
    """The oracle coefficients of e, one MetaCoeff per assembled slot."""
    return {n: meta_of(row, e.N, e.p, e.prec, e.Tp)
            for n, row in zip(e.indices, e.data)}


def test_dirac_convolve_matches_oracle(oc_lift_cases):
    # point masses at units and at non-units of N p: 3 divides the tame
    # level 3, and 5, 7, 10, 21 and 49 are divisible by p
    for Phi, idx in oc_lift_cases:
        e = theta_oc(Phi, max(idx), indices=idx)
        metas = _metas(e)
        for s in (1, 2, 3, 4, 5, 7, 9, 10, 11, 21, 49):
            got = _dirac_convolve(e.data, s, e.N, e.p, e.prec)
            want = [row_of(_conv_meta(s, metas[n])) for n in e.indices]
            assert np.array_equal(got, np.array(want)), (e, s)
            assert got.any() == (gcd(s, e.level) == 1), (e, s)


def _hecke_Tl_oracle(e, l):
    """qexp_hecke_Tl on the oracle coefficients, slot by slot."""
    co, ll, out = _metas(e), l * l, {}
    for n in range(1, e.n_max // ll + 1):
        if n * ll in co and n in co and (n % ll or n // ll in co):
            mc = co[n * ll] + _conv_meta(l, co[n]).scale(
                kronecker(e.level * n, l))
            if n % ll == 0:
                mc = mc + _conv_meta(ll, co[n // ll]).scale(l)
            out[n] = mc
    return out


def test_qexp_hecke_matches_oracle(oc_lift_cases):
    # T_l at primes that are units and non-units of N p (l = 3 divides the
    # tame level 3, l = p), and T_{l,l} at units, against the MetaCoeff sums
    for Phi, _ in oc_lift_cases:
        Np = Phi.level
        base = [n for n in range(1, 13) if realizable_index(Np, n)]
        for l in (3, 5, 7):
            idx = sorted({n for b in base for n in (b, l * l * b)}
                         | {b // (l * l) for b in base if b % (l * l) == 0})
            e = theta_oc(Phi, 12 * l * l, indices=idx)
            got, want = qexp_hecke_Tl(e, l), _hecke_Tl_oracle(e, l)
            assert got.indices == tuple(want) and not got.is_zero(), (e, l)
            for n, mc in want.items():
                assert np.array_equal(got.coeff(n), row_of(mc)), (e, l, n)
        e = theta_oc(Phi, 12, indices=base)
        for l in (2, 11):
            got = qexp_hecke_Tll(e, l)
            assert not got.is_zero()
            for n, mc in _metas(e).items():
                assert np.array_equal(got.coeff(n),
                                      row_of(_conv_meta(l * l, mc))), (e, l)


def test_specialize_qexp_matches_oracle(oc_lift_cases):
    # eval_weight_meta on every coefficient, at every weight the moments
    # reach, with tame and wild quadratic characters; the tame character
    # mod 3 is defined at tame level 3 only, and both refuse it at N = 1
    live = 0
    for Phi, _ in oc_lift_cases:
        p = Phi.p
        e = theta_oc(Phi, 12)
        metas = _metas(e)
        D = 5 if p == 5 else -7
        tame = DirichletChar.from_kronecker(-3)
        wild = DirichletChar.from_kronecker(D)
        both = DirichletChar.from_kronecker(-3 * D)   # tame times wild
        for k in range(e.Tp + 1):
            for chi in (DirichletChar.trivial(), tame, wild, both):
                kt = ArithWeight(k, chi, p)
                if Phi.N % 3 and chi.modulus % 3 == 0:
                    with pytest.raises(BadLevel):
                        specialize_qexp(e, kt)
                    with pytest.raises(BadLevel):
                        eval_weight_meta(metas[1], kt)
                    continue
                got = specialize_qexp(e, kt)
                want = {n: eval_weight_meta(mc, kt) for n, mc in metas.items()}
                assert {n: got.coeff(n) for n in e.indices} == want, (e, kt)
                live += any(want.values())
        beyond = ArithWeight(e.Tp + 1, DirichletChar.trivial(), p)
        with pytest.raises(InsufficientMoments):
            specialize_qexp(e, beyond)
        with pytest.raises(InsufficientMoments):
            eval_weight_meta(metas[1], beyond)
    assert live >= 10


def test_theta_oc_module_linearity(ocsp5, ocphi5):
    r = dirac_distN(3, 1, 5, 6, 6)
    acted = OCSymbol(ocsp5.level, ocsp5.N, ocsp5.p, ocsp5.prec, ocsp5.T,
                     data_of([scalar_action(r, v) for v in values_of(ocphi5)]))
    idx = [1, 4, 5, 8]
    lhs = theta_oc(acted, 8, indices=idx)
    rhs = qexp_module_action(r, theta_oc(ocphi5, 8, indices=idx))
    assert lhs == rhs


def test_oc_hecke_equivariance_sparse(ocphi5):
    base = [1, 4, 5, 8]
    idx = sorted(set(base) | {9 * n for n in base})
    lhs = theta_oc(oc_hecke_Tn(ocphi5, 3), 8, indices=base)
    rhs = qexp_hecke_Tl(theta_oc(ocphi5, 72, indices=idx), 3)
    assert lhs == rhs
    # nonzero at every slot, not a vacuous identity
    assert all(lhs.coeff(n).any() for n in base)


def test_oc_hecke_Tll_equivariance(ocphi5):
    base = [1, 4, 5, 8]
    lhs = theta_oc(oc_hecke_Tll(ocphi5, 3), 8, indices=base)
    rhs = qexp_hecke_Tll(theta_oc(ocphi5, 8, indices=base), 3)
    assert lhs == rhs


def test_qexp_hecke_index_bookkeeping(ocphi5):
    e = theta_oc(ocphi5, 45, indices=[1, 4, 9, 36, 45])
    t = qexp_hecke_Tl(e, 3)
    # kept: n with n and 9n assembled (and n/9 when 9 | n)
    assert t.indices == (1, 4)
    with pytest.raises(BadIndex):
        qexp_hecke_Tl(e, 2)  # odd tame level
    with pytest.raises(BadIndex):
        qexp_hecke_Tl(e, 4)  # not prime
    with pytest.raises(BadIndex):
        qexp_hecke_Tll(e, 5)  # divides the level


# ---------------------------------------------------------------------------
# weight evaluation ties the two constructions together


def test_weight_evaluation_refuses_a_weight_at_another_prime(ocphi5):
    # the trivial weight at p = 7 has only its prime to refuse: without
    # the prime check p = 5 data evaluates to the trivial values
    kappa = ArithWeight(2, DirichletChar.trivial(), 7)
    with pytest.raises(BadLevel):
        specialize_symbol(ocphi5, kappa)
    with pytest.raises(BadLevel):
        specialize_qexp(theta_oc(ocphi5, 8), kappa)


def test_weight_evaluation_refuses_a_tame_character_off_the_level():
    # (-3/.) is tame at p = 5 but not defined mod N = 1; read at 1, it
    # gave exactly the values of the trivial weight
    space = solve_oc_space(5, 1, (4, 4))
    Phi = space.combination([1] * space.dimension)
    kappa = ArithWeight(2, DirichletChar.from_kronecker(-3), 5)
    assert not specialize_symbol(Phi, ArithWeight(2, T5, 5)).is_zero()
    with pytest.raises(BadLevel):
        specialize_symbol(Phi, kappa)
    with pytest.raises(BadLevel):
        specialize_qexp(theta_oc(Phi, 8), kappa)


def test_specialize_qexp_linearity(ocsp5, ocphi5):
    rng = random.Random(23)
    Psi = ocsp5.combination(
        [rng.randrange(5**6) for _ in range(ocsp5.dimension)])
    kt = ArithWeight(1, T5, 5)
    a = specialize_qexp(theta_oc(ocphi5, 8), kt)
    b = specialize_qexp(theta_oc(Psi, 8), kt)
    c = specialize_qexp(theta_oc(ocphi5 + Psi, 8), kt)
    for n in range(1, 9):
        assert c.coeff(n) == (a.coeff(n) + b.coeff(n)) % 5**6


def test_specialize_requires_full_assembly(ocphi5):
    e = theta_oc(ocphi5, 8, indices=[1, 4])
    with pytest.raises(BadIndex):
        specialize_qexp(e, ArithWeight(1, T5, 5))


def test_interpolation_report(ocphi5):
    for k in (0, 1, 2):
        rep = verify_interpolation(ocphi5, ArithWeight(k, T5, 5), 8)
        assert rep["passed"], rep
        assert rep["residual_valuation"] >= rep["precision"] - rep["loss"]
        assert rep["failing_indices"] == []
        assert rep["weight_k"] == k and rep["level"] == 5


def test_interpolation_refuses_a_precision_that_checks_nothing():
    # agreement mod p^(prec - LOSS) holds for anything at prec <= LOSS,
    # so such a report would pass whatever the symbol
    for prec in (1, 2):
        space = solve_oc_space(5, 1, (prec, 2))
        sym = space.combination(range(1, space.dimension + 1))
        with pytest.raises(PrecisionMismatch):
            verify_interpolation(sym, ArithWeight(1, T5, 5), 12)


def test_interpolation_nonzero_sector(ocphi5):
    # at weight parameter 1 both routes produce nonzero expansions
    kt = ArithWeight(1, T5, 5)
    lifted = specialize_qexp(theta_oc(ocphi5, 8), kt)
    assert any(lifted.coeff(n) % 5**4 for n in range(1, 9))


# ---------------------------------------------------------------------------
# serialization


def test_halfint_json_deterministic(eigen51):
    phi, _ = eigen51
    a = theta_classical(phi, 5, 1, T5, 12).to_json()
    b = theta_classical(phi, 5, 1, T5, 12).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["level"] == 20 and a["weight_num"] == 5


def test_formal_json_deterministic(ocphi5):
    a = theta_oc(ocphi5, 5, indices=[1, 4, 5]).to_json()
    b = theta_oc(ocphi5, 5, indices=[1, 4, 5]).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["p"] == 5 and a["moment_degree"] == 3


# ---------------------------------------------------------------------------
# source surface

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shintani"


def _references(node):
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _definitions():
    """Top-level definitions and class methods of src/, and the names
    module-level code uses.

    Returns ({(module, name): names referenced inside it}, names), where
    names are those that module-level statements other than imports
    reference, and a method's name is "Class.method".  A reference is a
    bare name or an attribute name, so a name reaches every definition of
    that name, function or method, in any module.  Dunder methods are
    called by the language, so they count as referenced.
    """
    defs, seeds = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[path.stem, node.name] = _references(node)
            else:
                seeds |= _references(node)
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef):
                        defs[path.stem, f"{node.name}.{meth.name}"] = (
                            _references(meth))
                        if meth.name.startswith("__"):
                            seeds.add(meth.name)
    return defs, seeds


def _reached():
    """Definitions of src/ reached from cli.main, module-level code or a
    name that bench/ or the README uses, through the names each reached
    one references; returns (definitions, reached)."""
    defs, names = _definitions()
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    texts = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    names |= {name for name in by_name
              if any(re.search(rf"\b{re.escape(name)}\b", t) for t in texts)}
    todo = [("cli", "main")] + [key for n in names for key in by_name.get(n, ())]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [k for n in defs[key] for k in by_name.get(n, ())]
    return defs, reached


@pytest.mark.parametrize("module", sorted({m for m, _ in _definitions()[0]}))
def test_public_names_have_callers_outside_the_tests(module):
    # every function and class of the module, private or cached ones
    # included, is reached from outside the tests (see _reached)
    defs, reached = _reached()
    unreached = sorted(f"{m}.{n}" for m, n in set(defs) - reached
                       if m == module)
    assert unreached == [], f"only the tests reach {unreached}"


def test_src_has_no_assert():
    # python -O strips assert statements, so checks raise errors.py classes
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "AssertionError")]
    assert found == []
