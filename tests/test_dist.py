"""Moment distributions: actions, convolution, pushforwards, evaluation."""

import json
import random
from math import comb, gcd

import numpy as np
import pytest
import sympy

from shintani.arith import DirichletChar, mat_mul
from shintani.errors import (
    BadIndex,
    BadSemigroupElement,
    InsufficientMoments,
    KernelOverflow,
    OperandMismatch,
    PrecisionMismatch,
)
from shintani.dist import ArithWeight, _act_blocks, _sym_blocks, specialize
from shintani.lifting import FormalQExp
from shintani.linalg import _check_kernel_bounds
from shintani.modsym import SymPoly, check_ring
from shintani.qf import QuadForm, gamma_Q

from oracles import (
    DistN,
    JQ_dist,
    MetaCoeff,
    MomentDist1,
    MomentDist2,
    TaggedDist2,
    act_blocks_formula,
    act_S0,
    convolve,
    data_of,
    dirac,
    dirac_distN,
    eval_weight,
    eval_weight_meta,
    gamma0_generators,
    meta_zero,
    moments2_dumps,
    moments2_from_json,
    moments2_to_json,
    pairing,
    random_moments2,
    scalar_action,
    sigma_distN,
    sigma_moments,
    tilde_JQ,
)

P, PREC, T = 5, 8, 8
MOD = P**PREC
TRIV = DirichletChar.trivial(1)


def rand_s0(rng, p=P, tame=1):
    level = p * tame
    while True:
        A = rng.randrange(1, 4 * level)
        if gcd(A, level) != 1:
            continue
        B = rng.randrange(-6, 7)
        C = level * rng.randrange(-2, 3)
        D = rng.randrange(-6, 7)
        if A * D - B * C > 0:
            return (A, B, C, D)


def rand_dist1(rng, p=P, prec=PREC, Tp=4):
    data = np.array([[rng.randrange(p**prec) for _ in range(Tp + 1)]
                     for _ in range(p - 1)], dtype=np.int64)
    return MomentDist1(p, prec, Tp, data)


# ---------------------------------------------------------------- act_S0

def test_act_up_summand_formula():
    rng = random.Random(1)
    mu = random_moments2(rng, P, PREC, T)
    for i0 in range(P):
        out = act_S0(mu, (1, i0, 0, P))
        for c in (1, 2, 4):
            for a in (0, 1, 3):
                for b in (0, 2, 5):
                    if a + b > T:
                        continue
                    want = sum(comb(b, j) * i0 ** (b - j) * P**j
                               * mu.m(c, a + b - j, j)
                               for j in range(b + 1)) % MOD
                    assert out.m(c, a, b) == want


def test_act_identity_and_composition():
    rng = random.Random(2)
    mu = random_moments2(rng, P, PREC, T)
    assert act_S0(mu, (1, 0, 0, 1)) == mu
    for _ in range(100):
        g, h = rand_s0(rng), rand_s0(rng)
        assert act_S0(act_S0(mu, g), h) == act_S0(mu, mat_mul(g, h))


def test_act_preserves_degree_strata():
    rng = random.Random(3)
    for _ in range(20):
        g = rand_s0(rng)
        d = rng.randrange(T + 1)
        entries = [(c, a, d - a, rng.randrange(MOD))
                   for c in range(1, P) for a in range(d + 1)]
        mu = MomentDist2.from_entries(P, PREC, T, entries)
        out = act_S0(mu, g)
        for c in range(1, P):
            for a in range(T + 1):
                for b in range(T + 1 - a):
                    if a + b != d:
                        assert out.m(c, a, b) == 0


def test_act_rejects_bad_elements():
    mu = MomentDist2(P, PREC, T)
    with pytest.raises(BadSemigroupElement):
        act_S0(mu, (1, 0, 0, -1))
    with pytest.raises(BadSemigroupElement):
        act_S0(mu, (1, 0, 1, 1))
    with pytest.raises(BadSemigroupElement):
        act_S0(mu, (P, 0, 0, 1))
    with pytest.raises(BadSemigroupElement):
        act_S0(mu, (1, 0, P, 1), tame=3)  # lower-left must vanish mod 15


# ------------------------------------------------------------ Sym^d blocks

def test_sym_blocks_match_the_entry_formula():
    # the numpy recurrence against the entry-by-entry formula, for
    # negative entries, an automorph of discriminant 4 * 94 (entries near
    # 4e7) and 40-digit entries, with moduli up to just below the 2^28
    # kernel bound; a batch equals its matrices built one at a time
    rng = random.Random(21)
    automorph = gamma_Q(QuadForm(1, 0, -94), 1)
    assert max(map(abs, automorph)) > 10**7
    for p, prec in ((5, 8), (7, 5), (11, 4), (5, 12), (16381, 2)):
        assert p**prec < 2**28
        gs = [rand_s0(rng, p) for _ in range(4)]
        gs += [automorph, (-3, 5, -7, -2), (-1, 0, 0, -1),
               tuple(rng.randrange(-10**40, 10**40) for _ in range(4))]
        for T in (0, 1, 3, 8):
            batch = _sym_blocks(gs, range(T + 1), p**prec)
            evens = _sym_blocks(gs, range(0, T + 1, 2), p**prec)
            assert sorted(batch) == list(range(T + 1))
            assert sorted(evens) == list(range(0, T + 1, 2))
            for k, g in enumerate(gs):
                want = act_blocks_formula(g, p, prec, T)
                one = _act_blocks(g, p, prec, T)
                for d in range(T + 1):
                    assert batch[d].shape == (len(gs), d + 1, d + 1)
                    assert np.array_equal(batch[d][k], want[d]), (p, T, g, d)
                    assert np.array_equal(one[d], want[d]), (p, T, g, d)
                    if d % 2 == 0:
                        assert np.array_equal(evens[d][k], want[d])


def test_exact_sym_blocks_reduce_to_the_int64_blocks():
    # without a modulus the blocks are exact Python integers, also past
    # 2^63; reduced mod p^M they are the int64 blocks
    rng = random.Random(29)
    gs = [tuple(rng.randrange(-2**80, 2**80) for _ in range(4))
          for _ in range(6)] + [rand_s0(rng) for _ in range(6)]
    exact = _sym_blocks(gs, range(9))
    assert exact[8].dtype == object
    assert max(abs(x) for x in exact[8].flat) > 2**63
    assert all(type(x) is int for x in exact[8].flat)
    for p, prec in ((5, 8), (11, 4), (16381, 2)):
        mod = p**prec
        reduced = _sym_blocks(gs, range(0, 9, 2), mod)
        for d in range(0, 9, 2):
            assert reduced[d].dtype == np.int64
            assert np.array_equal((exact[d] % mod).astype(np.int64),
                                  reduced[d])


def test_sym_blocks_empty_batch():
    out = _sym_blocks([], range(0, 5, 2), MOD)
    assert [out[d].shape for d in (0, 2, 4)] == [(0, 1, 1), (0, 3, 3),
                                                 (0, 5, 5)]


def test_precision_mismatch():
    a = MomentDist2(5, 8, 8)
    b = MomentDist2(5, 8, 6)
    with pytest.raises(PrecisionMismatch):
        a + b


@pytest.mark.parametrize("p, prec", [(5, 13), (11, 9), (31, 9)])
def test_int64_overflowing_profiles_are_refused(p, prec):
    # 5^13 is about 2^30.2, the others exceed 2^31
    with pytest.raises(KernelOverflow):
        MomentDist2(p, prec, 2)
    with pytest.raises(KernelOverflow):
        FormalQExp(p, 1, p, prec, 2, [], 1)
    with pytest.raises(KernelOverflow):
        check_ring(("zpm", p, prec))


def test_int64_moment_degree_bound():
    # (T + 1) products of residues below 5^12 must sum below 2^63
    _check_kernel_bounds(11, 8, 8)
    _check_kernel_bounds(5, 12, 100)
    with pytest.raises(KernelOverflow):
        _check_kernel_bounds(5, 12, 154)


# ----------------------------------------------------- dirac, convolution

def test_dirac_convolution_group_law():
    d2 = dirac(2, P, PREC, 4)
    d3 = dirac(3, P, PREC, 4)
    d6 = dirac(6, P, PREC, 4)
    assert convolve(d2, d3) == d6
    assert dirac(10, P, PREC, 4).is_zero()
    # delta_1 is the identity
    rng = random.Random(4)
    nu = rand_dist1(rng)
    assert convolve(dirac(1, P, PREC, 4), nu) == nu


def test_convolution_commutes_and_associates():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = rand_dist1(rng), rand_dist1(rng), rand_dist1(rng)
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_dirac_translation_rotates_discs():
    rng = random.Random(6)
    nu = rand_dist1(rng)
    s = 3
    out = convolve(dirac(s, P, PREC, 4), nu)
    for c in range(1, P):
        for n in range(5):
            want = (pow(s, n, MOD) * nu.m(pow(s, -1, P) * c % P, n)) % MOD
            assert out.m(c, n) == want


def teichmuller(a, p, M):
    """Teichmuller lift of a mod p, as a residue mod p^M (0 if p | a)."""
    x = a % p
    if x == 0:
        return 0
    pm = p**M
    while True:
        y = pow(x, p, pm)
        if y == x:
            return x
        x = y


def test_teichmuller():
    p, M = 5, 6
    pm = p**M
    for a in range(p):
        t = teichmuller(a, p, M)
        if a == 0:
            assert t == 0
        else:
            assert t % p == a
            assert pow(t, p - 1, pm) == 1
            assert pow(t, p, pm) == t


def test_twisted_moments_multiply():
    # against every Teichmueller power character of the disc group
    rng = random.Random(7)
    omega = [teichmuller(c, P, PREC) for c in range(P)]

    def twisted(nu, j, n):
        return sum(pow(omega[c], j, MOD) * nu.m(c, n)
                   for c in range(1, P)) % MOD

    for _ in range(10):
        a, b = rand_dist1(rng), rand_dist1(rng)
        conv = convolve(a, b)
        for j in range(P - 1):
            for n in range(5):
                assert twisted(conv, j, n) == twisted(a, j, n) * twisted(b, j, n) % MOD


def test_sigma_on_dirac_and_eval_duality():
    d7 = dirac(7, P, PREC, 8)
    assert sigma_moments(d7) == dirac(49, P, PREC, 4)
    # eval_weight(sigma(r), kt) == eval_weight(r, kt o sigma)
    rng = random.Random(8)
    chi = DirichletChar.from_kronecker(5)
    for _ in range(10):
        r = DistN(1, P, PREC, 8, {0: rand_dist1(rng, Tp=8)})
        for k in (0, 1, 2):
            kt = ArithWeight(k, chi if k % 2 else TRIV, P)
            lhs = eval_weight(sigma_distN(r), kt)
            rhs = eval_weight(r, kt.doubled())
            assert lhs == rhs


# -------------------------------------------------------- tagged objects

def test_tagged_action_multiplies_tags():
    rng = random.Random(9)
    N = 3
    mu = random_moments2(rng, P, PREC, T)
    v = TaggedDist2(N, P, PREC, T, {1: mu})
    g = (2, 1, 15, 8)  # det 1, in S0(15)
    out = v.act(g)
    assert sorted(out.comps) == [2]
    assert out.component(2) == act_S0(mu, g, tame=N)


def test_scalar_action_identity_and_commutation():
    rng = random.Random(10)
    N = 3
    one = dirac_distN(1, N, P, PREC, T)
    v = TaggedDist2(N, P, PREC, T, {1: random_moments2(rng, P, PREC, T),
                                    2: random_moments2(rng, P, PREC, T)})
    assert scalar_action(one, v) == v
    for _ in range(10):
        s = rng.choice([1, 2, 7, 11, 13])
        nu = dirac_distN(s, N, P, PREC, T)
        g = rand_s0(rng, tame=N)
        lhs = scalar_action(nu, v.act(g))
        rhs = scalar_action(nu, v).act(g)
        assert lhs == rhs


def test_scalar_action_insufficient_moments():
    v = TaggedDist2(1, P, PREC, T, {0: MomentDist2(P, PREC, T)})
    short = DistN(1, P, PREC, T - 1, {0: MomentDist1(P, PREC, T - 1)})
    with pytest.raises(InsufficientMoments):
        scalar_action(short, v)


def test_scalar_action_degree_weights():
    # a dirac scalar multiplies each stratum-d moment by s^d and turns discs
    rng = random.Random(11)
    mu = random_moments2(rng, P, PREC, T)
    v = TaggedDist2(1, P, PREC, T, {0: mu})
    s = 7
    out = scalar_action(dirac_distN(s, 1, P, PREC, T), v).component(0)
    for c in (1, 3):
        for a in (0, 2, 4):
            for b in (0, 1, 3):
                want = (pow(s, a + b, MOD)
                        * mu.m(pow(s, -1, P) * c % P, a, b)) % MOD
                assert out.m(c, a, b) == want


# ---------------------------------------------------------- specialize

def test_specialize_low_weights():
    rng = random.Random(12)
    mu = random_moments2(rng, P, PREC, T)
    [x] = data_of([TaggedDist2(1, P, PREC, T, {0: mu})])
    k0 = tuple(specialize(x, ArithWeight(0, TRIV, P), 1, P, PREC, T))
    assert k0[0] == sum(mu.m(c, 0, 0) for c in range(1, P)) % MOD
    k1 = tuple(specialize(x, ArithWeight(1, TRIV, P), 1, P, PREC, T))
    # e_0 = Y coefficient, e_1 = X coefficient with a sign
    assert k1[0] == sum(mu.m(c, 1, 0) for c in range(1, P)) % MOD
    assert k1[1] == (-sum(mu.m(c, 0, 1) for c in range(1, P))) % MOD
    chi5 = DirichletChar.from_kronecker(5)
    k1t = tuple(specialize(x, ArithWeight(1, chi5, P), 1, P, PREC, T))
    assert k1t[0] == sum(chi5(c) * mu.m(c, 1, 0) for c in range(1, P)) % MOD


def test_specialize_insufficient_moments():
    [x] = data_of([TaggedDist2(1, P, PREC, 2, {0: MomentDist2(P, PREC, 2)})])
    with pytest.raises(InsufficientMoments):
        specialize(x, ArithWeight(3, TRIV, P), 1, P, PREC, 2)


def test_specialize_equivariance():
    rng = random.Random(13)
    N = 3
    chi = DirichletChar.from_kronecker(-3) * DirichletChar.from_kronecker(5)
    gens = gamma0_generators(15)
    v = TaggedDist2(N, P, PREC, T, {1: random_moments2(rng, P, PREC, T),
                                    2: random_moments2(rng, P, PREC, T)})
    for k in (0, 1, 2, 3):
        kappa = ArithWeight(k, chi, P)
        for _ in range(8):
            g = (1, 0, 0, 1)
            for _ in range(rng.randrange(1, 5)):
                g = mat_mul(g, rng.choice(gens))
            x, y = data_of([v.act(g), v])
            lhs = tuple(specialize(x, kappa, N, P, PREC, T))
            rhs = SymPoly(N * P, k,
                          tuple(specialize(y, kappa, N, P, PREC, T)),
                          kappa.chi, "L", ("zpm", P, PREC)).act(g)
            assert lhs == rhs.coeffs


# ------------------------------------------------------------- JQ, tilde

def qf_15(a, b, c):
    q = QuadForm(a, b, c)
    assert b % 15 == 0 and c % 15 == 0 and gcd(a, 15) == 1
    return q


def test_JQ_low_moments():
    rng = random.Random(14)
    mu = random_moments2(rng, P, PREC, T)
    Q = QuadForm(1, 0, -5)
    out = JQ_dist(mu, Q)
    # n = 0: total mass lands on disc a*c^2
    for cp in range(1, P):
        want = sum(mu.m(cx, 0, 0) for cx in range(1, P)
                   if (cx * cx) % P == cp) % MOD
        assert out.m(cp, 0) == want
    # n = 1: m(2,0) + b m(1,1) + c m(0,2) with b = 0
    for cp in range(1, P):
        want = sum((mu.m(cx, 2, 0) - 5 * mu.m(cx, 0, 2)) % MOD
                   for cx in range(1, P) if (cx * cx) % P == cp) % MOD
        assert out.m(cp, 1) == want


def test_JQ_quadratic_term_symbolic():
    # n = 2 six-term expansion against a symbolic oracle
    rng = random.Random(15)
    mu = random_moments2(rng, P, PREC, T)
    qa, qb, qc = 2, 5, -10
    Q = QuadForm(qa, qb, qc)
    x, y = sympy.symbols("x y")
    poly = sympy.Poly(sympy.expand((qa * x**2 + qb * x * y + qc * y**2) ** 2), x, y)
    out = JQ_dist(mu, Q)
    for cp in range(1, P):
        want = 0
        for (ea, eb), coeff in zip(poly.monoms(), poly.coeffs()):
            for cx in range(1, P):
                if (qa * cx * cx) % P == cp % P:
                    want += int(coeff) * mu.m(cx, ea, eb)
        assert out.m(cp, 2) == want % MOD


def test_tilde_JQ_tags_and_interpolation():
    rng = random.Random(16)
    N = 3
    Q = qf_15(2, 15, -15)
    v = TaggedDist2(N, P, PREC, T, {1: random_moments2(rng, P, PREC, T),
                                    2: random_moments2(rng, P, PREC, T)})
    mc = tilde_JQ(v, Q)
    # single-tag input: right factor carries tag t^2 * a mod N
    v1 = TaggedDist2(N, P, PREC, T, {1: v.component(1)})
    mc1 = tilde_JQ(v1, Q)
    assert sorted(mc1.right.comps) == [2]  # 1 * 2 mod 3
    assert mc1.right.component(2) == JQ_dist(v.component(1), Q)

    # interpolation: evaluation at (k, chi) equals chi(a) * <specialize, Q^k>
    chi = DirichletChar.from_kronecker(-3) * DirichletChar.from_kronecker(5)
    for k, ch in ((0, TRIV), (1, chi), (2, chi), (1, TRIV)):
        kt = ArithWeight(k, ch, P)
        lhs = eval_weight_meta(mc, kt)
        kappa = kt.doubled()
        gen = data_of([v])[0]
        sp = SymPoly(N * P, kappa.k, specialize(gen, kappa, N, P, PREC, T),
                     kappa.chi, "L", ("zpm", P, PREC))
        qpow = quadratic_power_poly(Q, k, 15, kappa.chi)
        rhs = (ch(Q.triple()[0]) * pairing(sp, qpow)) % MOD
        assert lhs == rhs


def quadratic_power_poly(Q, k, level, chi):
    """Q(X, Y)^k as a monomial-side vector over Z/p^M."""
    qa, qb, qc = Q.triple()
    coeffs = [0] * (2 * k + 1)
    from math import factorial
    for i in range(k + 1):
        for j in range(k - i + 1):
            kk = k - i - j
            mult = factorial(k) // (factorial(i) * factorial(j) * factorial(kk))
            coeffs[2 * i + j] += mult * qa**i * qb**j * qc**kk
    return SymPoly(level, 2 * k, coeffs, chi, "Lstar", ("zpm", P, PREC))


# --------------------------------------------------------- eval, meta

def test_eval_weight_dirac():
    for s in (2, 3, 7):
        d = dirac_distN(s, 1, P, PREC, 4)
        for k in range(4):
            assert eval_weight(d, ArithWeight(k, TRIV, P)) == pow(s, k, MOD)
    # tame tag twist by a quadratic character mod 3
    chiN = DirichletChar.from_kronecker(-3)
    d = dirac_distN(2, 3, P, PREC, 4)
    assert eval_weight(d, ArithWeight(1, chiN, P)) == (chiN(2) * 2) % MOD


def test_eval_weight_insufficient():
    d = dirac_distN(2, 1, P, PREC, 2)
    with pytest.raises(InsufficientMoments):
        eval_weight(d, ArithWeight(3, TRIV, P))


def test_meta_canonicalize_preserves_evaluation():
    rng = random.Random(17)
    N = 3
    chi = DirichletChar.from_kronecker(-3)
    for s in (2, 7, 11):
        left = dirac_distN(s, N, P, PREC, 8)
        right = DistN(N, P, PREC, 4,
                      {1: rand_dist1(rng), 2: rand_dist1(rng)})
        mc = MetaCoeff(left, right)
        canon = mc.canonicalize()
        assert sorted(canon.left.comps) == [1]
        for k, ch in ((0, TRIV), (1, chi), (2, TRIV)):
            kt = ArithWeight(k, ch, P)
            assert eval_weight_meta(mc, kt) == eval_weight_meta(canon, kt)


def test_meta_addition_requires_matching_left():
    z = meta_zero(1, P, PREC, 4)
    other = MetaCoeff(dirac_distN(2, 1, P, PREC, 4), DistN(1, P, PREC, 4))
    with pytest.raises(OperandMismatch):
        z + other


def test_arith_weight_validation():
    chi15 = DirichletChar.from_kronecker(-15)
    w = ArithWeight(2, chi15, 5)
    assert w.chi_N.modulus == 3 and w.chi_p.modulus == 5
    assert w.doubled().k == 4
    chi25 = DirichletChar.trivial(25)
    with pytest.raises(BadIndex):
        ArithWeight(1, chi25, 5)


# ---------------------------------------------------------------- JSON

def test_json_round_trip_and_determinism():
    rng = random.Random(18)
    mu = random_moments2(rng, P, PREC, T)
    assert moments2_from_json(moments2_to_json(mu)) == mu
    s1 = moments2_dumps(mu)
    s2 = moments2_dumps(moments2_from_json(json.loads(s1)))
    assert s1 == s2
    doc = moments2_to_json(mu)
    keys = [(e["disc"], e["a"], e["b"]) for e in doc["moments"]]
    assert keys == sorted(keys)
