"""Acceptance battery: headline properties at full production size.

Every test here pins one end-to-end guarantee of the package at its
full advertised parameter set, asserts exactness (never approximate
closeness), and enforces a wall-clock budget.  The building blocks are
each validated separately in the per-module suites; this file checks
that the assembled pipeline delivers.
"""

import random
import time
from fractions import Fraction
from math import gcd

import numpy as np

from oracles import act_S0, convolve, dirac, random_moments2
from test_dist import rand_dist1, rand_s0
from test_qf import bfs_orbit, box_forms

from shintani.arith import DirichletChar, mat_mul
from shintani.cosets import _units
from shintani.dist import ArithWeight
from shintani.lifting import (
    halfint_Tl2,
    qexp_hecke_Tl,
    qexp_hecke_Tll,
    realizable_index,
    theta_classical,
    theta_oc,
    verify_interpolation,
)
from shintani.modsym import (
    eigensymbols,
    hecke_Tn,
    involution,
    involution_split,
    solve_symbol_space,
)
from shintani.ocsymb import (
    SlopeData,
    _stratum_action_matrix,
    charpoly_strata,
    classical_to_zpm,
    hecke_eigenvalue,
    lift_eigensymbol,
    oc_hecke_Tll,
    oc_hecke_Tn,
    solve_oc_space,
    specialize_symbol,
)
from shintani.qf import QuadForm, enumerate_classes, in_FM

THREADS = 4


def _seeded_symbol(space, seed=17):
    rng = random.Random(seed)
    mod = space.p ** space.prec
    return space.combination(
        [rng.randrange(mod) for _ in range(space.dimension)])


# ---------------------------------------------------------------------------
# 1. anti-symmetry of the classical lifting, exact over Q


def test_acceptance_antisymmetry_classical():
    t0 = time.monotonic()
    for M, k in ((11, 0), (5, 1)):
        chi = DirichletChar.trivial(M)
        basis = solve_symbol_space(M, 2 * k, chi)
        assert basis
        for phi in basis:
            th = theta_classical(phi, M, k, chi, 50, threads=THREADS)
            ti = theta_classical(involution(phi), M, k, chi, 50,
                                 threads=THREADS)
            assert ti == th.scale(-1)
            plus = involution_split(phi)[0]
            assert theta_classical(plus, M, k, chi, 50,
                                   threads=THREADS).is_zero()
    # the identity is not vacuous: the odd-weight family has mass
    chi5 = DirichletChar.trivial(5)
    some = solve_symbol_space(5, 2, chi5)
    assert any(not theta_classical(phi, 5, 1, chi5, 50,
                                   threads=THREADS).is_zero()
               for phi in some)
    assert time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# 2. classical Hecke equivariance: T_l on symbols matches the
#    square-index operator on expansions, exact over Q


def test_acceptance_classical_hecke_equivariance():
    t0 = time.monotonic()
    M, k = 11, 1
    chi = DirichletChar.trivial(M)
    basis = solve_symbol_space(M, 2 * k, chi)
    assert len(basis) == 6
    living = 0
    for phi in basis:
        deep = theta_classical(phi, M, k, chi, 60 * 49, threads=THREADS)
        living += any(deep.coeff(n) for n in range(1, 61))
        for l in (3, 7):
            lhs = theta_classical(hecke_Tn(phi, l), M, k, chi, 60,
                                  threads=THREADS)
            rhs = halfint_Tl2(deep, l)
            assert rhs.n_max >= 60
            for n in range(1, 61):
                assert lhs.coeff(n) == rhs.coeff(n), (l, n)
    # the identity is not vacuous: some lift has mass below q^61
    assert living >= 1
    assert time.monotonic() - t0 < 120


# ---------------------------------------------------------------------------
# 3. the rational eigensystem at level 5, weight 2 lifts to an eigenform
#    of the square-index operators with the same eigenvalues


def test_acceptance_eigen_lift_property():
    chi = DirichletChar.trivial(5)
    [(phi, emap)] = eigensymbols(5, 2, chi, -1)
    assert emap == {2: -4, 3: 2, 5: -5, 7: 6}
    th = theta_classical(phi, 5, 1, chi, 60 * 49, threads=THREADS)
    # the identity is not vacuous
    assert sum(1 for n in range(1, 61) if th.coeff(n)) >= 20
    for l in (3, 7):
        out = halfint_Tl2(th, l)
        assert out.n_max >= 60
        for n in range(1, 61):
            assert out.coeff(n) == emap[l] * th.coeff(n), (l, n)


# ---------------------------------------------------------------------------
# 4. finite-precision Hecke formula, two independent code paths,
#    exact mod p^8


def test_acceptance_oc_hecke_formula():
    t0 = time.monotonic()
    p = 5
    for N in (1, 3):
        level = p * N
        space = solve_oc_space(level, N, (8, 8))
        Phi = _seeded_symbol(space)
        base = [n for n in range(1, 41) if realizable_index(level, n)]
        checked = 0
        for l in (3, 7):
            if level % l == 0:
                continue
            idx = sorted({n for b in base for n in (b, l * l * b)}
                         | {b // (l * l) for b in base if b % (l * l) == 0})
            lhs = theta_oc(oc_hecke_Tn(Phi, l), 40, indices=base)
            rhs = qexp_hecke_Tl(theta_oc(Phi, 40 * l * l, indices=idx), l)
            assert set(base) <= set(rhs.indices)
            for n in base:
                assert np.array_equal(lhs.coeff(n), rhs.coeff(n)), (N, l, n)
            assert not lhs.is_zero(), (N, l)  # not a vacuous identity
            lhs2 = theta_oc(oc_hecke_Tll(Phi, l), 40, indices=base)
            rhs2 = qexp_hecke_Tll(theta_oc(Phi, 40, indices=base), l)
            assert lhs2 == rhs2, (N, l)
            checked += 1
        assert checked == (2 if N == 1 else 1)
    assert time.monotonic() - t0 < 300


# ---------------------------------------------------------------------------
# 5. weight interpolation: specializing the finite-precision lift
#    equals lifting the specialized symbol, mod p^(prec-2)


def test_acceptance_interpolation():
    t0 = time.monotonic()
    # a seeded random symbol ...
    space5 = solve_oc_space(5, 1, (8, 8))
    Phi = _seeded_symbol(space5)
    for k in (0, 1, 2):
        kappa = ArithWeight(k, DirichletChar.trivial(1), 5)
        report = verify_interpolation(Phi, kappa, 20)
        assert report["passed"], report
        assert report["residual_valuation"] >= report["precision"] - 2
    # ... and a lifted eigensymbol
    space11 = solve_oc_space(11, 1, (8, 8))
    [(phi, _)] = eigensymbols(11, 0, DirichletChar.trivial(11), -1)
    kappa0 = ArithWeight(0, DirichletChar.trivial(11), 11)
    Lift, res = lift_eigensymbol(space11, phi, 1, kappa0, sign=-1)
    assert res >= 6
    for k in (0, 1, 2):
        kappa = ArithWeight(k, DirichletChar.trivial(1), 11)
        report = verify_interpolation(Lift, kappa, 20)
        assert report["passed"], report
    assert time.monotonic() - t0 < 300


# ---------------------------------------------------------------------------
# 6. ordinary locus and eigensymbol lift at p = 11


def test_acceptance_slopes_and_eigensymbol():
    t0 = time.monotonic()
    p = 11
    space = solve_oc_space(p, 1, (8, 8))
    data = SlopeData(p, 8, charpoly_strata(space))
    assert Fraction(0) in data.slopes
    [(phi, emap)] = eigensymbols(p, 0, DirichletChar.trivial(p), -1)
    assert emap[2] == -2
    kappa = ArithWeight(0, DirichletChar.trivial(p), p)
    Lift, res = lift_eigensymbol(space, phi, 1, kappa, sign=-1)
    assert res >= 8 - 2
    # specialization back to weight zero is proportional to the
    # classical eigensymbol, with a unit scalar
    mod = p ** 8
    a = [int(x) for x in specialize_symbol(Lift, kappa).coords()]
    b = [int(x) for x in classical_to_zpm(phi, p, 8).coords()]
    lead = next(i for i, x in enumerate(b) if x % p)
    scalar = a[lead] * pow(b[lead], -1, mod) % mod
    assert scalar % p != 0
    assert all((x - scalar * y) % mod == 0 for x, y in zip(a, b))
    lam = hecke_eigenvalue(Lift, 2)
    assert (lam - emap[2]) % p ** (8 - 2) == 0
    assert time.monotonic() - t0 < 600


# ---------------------------------------------------------------------------
# 7. class enumeration agrees with a bounded breadth-first orbit oracle


def _square_axis_forms(M, delta, cap):
    """Forms with a = 0 (square discriminant), invisible to box_forms."""
    out = []
    r = int(delta ** 0.5 + 0.5)
    if r * r != delta:
        return out
    for b in (r, -r):
        for c in range(-cap, cap + 1):
            Q = QuadForm(0, b, c)
            if in_FM(Q, M) and gcd(Q.content(), M) == 1:
                out.append(Q)
    return out


def test_acceptance_class_enumeration_vs_bfs():
    t0 = time.monotonic()
    box_cap = 24
    for M in (1, 5, 11, 15):
        for delta in range(1, 201):
            reps = enumerate_classes(M, delta)
            cand = box_forms(M, delta, box_cap) + _square_axis_forms(
                M, delta, box_cap)
            if not reps:
                assert not cand, (M, delta)
                continue
            top = max(max(abs(Q.a), abs(Q.b), abs(Q.c)) for Q in reps)
            cap = 2 * max(box_cap, top) + 10
            orbits = [bfs_orbit(R, M, cap, max_size=10 ** 6) for R in reps]
            # no duplicates: distinct representatives stay in
            # distinct bounded orbits
            for i, R in enumerate(reps):
                for j, orb in enumerate(orbits):
                    assert (R in orb) == (i == j), (M, delta, i, j)
            # no omissions: every boxed form of this discriminant is
            # reached from some representative
            covered = set().union(*orbits)
            for Q in cand:
                if Q in covered:
                    continue
                # connecting paths can climb well above the box before
                # descending, so escalate the search radius
                found = False
                for deep_cap in (4 * cap, 20 * cap, 100 * cap):
                    deep = bfs_orbit(Q, M, deep_cap, max_size=10 ** 6)
                    if any(R in deep for R in reps):
                        found = True
                        break
                assert found, (M, delta, Q)
    assert time.monotonic() - t0 < 300


# ---------------------------------------------------------------------------
# 8. distribution calculus: point masses, convolution, matrix action


def test_acceptance_distribution_calculus():
    t0 = time.monotonic()
    p, prec, Tp = 5, 8, 8
    mod = p ** prec
    assert convolve(dirac(2, p, prec, Tp), dirac(3, p, prec, Tp)) == \
        dirac(6, p, prec, Tp)
    rng = random.Random(8)
    one = dirac(1, p, prec, Tp)
    for _ in range(20):
        nu = rand_dist1(rng, p, prec, Tp)
        assert convolve(one, nu) == nu
        assert convolve(nu, one) == nu
    for _ in range(100):
        a = rand_dist1(rng, p, prec, Tp)
        b = rand_dist1(rng, p, prec, Tp)
        c = rand_dist1(rng, p, prec, Tp)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
        assert convolve(a, b) == convolve(b, a)
        assert convolve(a + b, c) == convolve(a, c) + convolve(b, c)
    mu = random_moments2(rng, p, prec, Tp)
    nu = random_moments2(rng, p, prec, Tp)
    assert act_S0(mu, (1, 0, 0, 1)) == mu
    for _ in range(100):
        g, h = rand_s0(rng), rand_s0(rng)
        assert act_S0(act_S0(mu, g), h) == act_S0(mu, mat_mul(g, h))
        assert act_S0(mu + nu, g) == act_S0(mu, g) + act_S0(nu, g)
        assert act_S0(mu.scale(7), g) == act_S0(mu, g).scale(7)
    # the same four axioms on the package's value action, sector by
    # sector on random stacked values indexed (sector, (tag, moment),
    # column), every stratum: a right action, so S(g h) = S(h) S(g)
    gen = np.random.default_rng(8)
    for N in (1, 3):
        for _ in range(50):
            g, h = rand_s0(rng, p, N), rand_s0(rng, p, N)
            for d in range(Tp + 1):
                def S(g):
                    return _stratum_action_matrix(g, N, p, prec, Tp, d)

                shape = (p - 1, len(_units(N)) * (d + 1), 3)
                Y, Z = gen.integers(0, mod, size=(2,) + shape)
                assert (S((1, 0, 0, 1)) == np.eye(shape[1])).all()
                assert np.array_equal(S(mat_mul(g, h)),
                                      S(h) @ S(g) % mod)
                assert np.array_equal(S(g) @ ((Y + Z) % mod) % mod,
                                      (S(g) @ Y + S(g) @ Z) % mod)
                assert np.array_equal(S(g) @ (7 * Y % mod) % mod,
                                      7 * (S(g) @ Y % mod) % mod)
    assert time.monotonic() - t0 < 60
