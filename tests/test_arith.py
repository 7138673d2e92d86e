"""Base arithmetic layer: symbols, p-adics, characters, cusp paths."""

from math import gcd

import pytest
from hypothesis import example, given, strategies as st
from sympy import isprime, jacobi_symbol

from shintani.arith import (
    DirichletChar,
    RationalCusp,
    crt,
    is_prime,
    kronecker,
    mat_det,
    mat_inv,
    mat_mul,
    sl2_chain,
    valuation,
    xgcd,
)
from shintani.errors import BadIndex, PrimalityUnproven

from oracles import sign_a_plus_b_sqrt


def legendre_exhaustive(a, p):
    """Legendre symbol by listing the squares mod an odd prime p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def test_xgcd():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, x, y = xgcd(a, b)
            assert g == gcd(a, b)
            assert a * x + b * y == g


def test_crt():
    assert crt(2, 3, 3, 5) == 8
    for r1 in range(7):
        for r2 in range(11):
            v = crt(r1, 7, r2, 11)
            assert v % 7 == r1 and v % 11 == r2


def test_kronecker_examples():
    assert kronecker(1, 3) == 1
    assert kronecker(-1, 3) == legendre_exhaustive(-1, 3) == -1
    assert kronecker(2, 15) == legendre_exhaustive(2, 3) * legendre_exhaustive(2, 5) == 1


def test_kronecker_matches_legendre_for_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-2 * p, 2 * p + 1):
            assert kronecker(a, p) == legendre_exhaustive(a, p), (a, p)


def test_kronecker_matches_sympy_jacobi():
    for n in range(1, 60, 2):
        for a in range(-40, 41):
            assert kronecker(a, n) == jacobi_symbol(a, n), (a, n)


# Carmichael numbers below 10^6; each passes the Korselt check below
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
    172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001,
    410041, 449065, 488881, 512461, 530881, 552721, 656601, 658801, 670033,
    748657, 825265, 838201, 852841, 997633)


def test_is_prime_matches_sympy():
    assert all(is_prime(n) == isprime(n) for n in range(-10, 10**5))


def test_is_prime_rejects_carmichael_and_strong_pseudoprimes():
    from sympy import factorint

    for n in CARMICHAEL:
        factors = factorint(n)
        assert len(factors) >= 3 and set(factors.values()) == {1}
        assert all((n - 1) % (q - 1) == 0 for q in factors)
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7;
    # 3825123056546413051 to every prime base up to 31
    for n in CARMICHAEL + (3215031751, 3825123056546413051):
        assert is_prime(n) is False and not isprime(n), n


def test_is_prime_large_and_out_of_range():
    from sympy import prevprime

    bound = 3317044064679887385961981
    top = prevprime(bound)
    for n in (2**61 - 1, 2**64 - 59, 2**64 + 1, 2**81 - 1, top, top + 2):
        assert is_prime(n) == isprime(n), n
    with pytest.raises(PrimalityUnproven):
        is_prime(2**89 - 1)


def test_kronecker_multiplicative_bottom():
    for a in range(-50, 51):
        for m in range(-50, 51):
            for n in (-7, -2, 2, 3, 9, 50):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_multiplicative_top():
    for a in range(-20, 21):
        for b in range(-20, 21):
            for n in (-9, -2, 1, 2, 15, 49):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_edge_cases():
    # bottom 0 vanishes identically, keeping multiplicativity unconditional
    assert kronecker(1, 0) == 0
    assert kronecker(-1, 0) == 0
    assert kronecker(5, 0) == 0
    # (a/2) table by a mod 8
    for a, v in ((1, 1), (3, -1), (5, -1), (7, 1), (0, 0), (2, 0)):
        assert kronecker(a, 2) == v
    # (a/-1) is the sign
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_kronecker_multiplicative_random(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_sign_a_plus_b_sqrt():
    from math import sqrt

    for a in range(-12, 13):
        for b in range(-12, 13):
            for d in (0, 1, 2, 5, 13, 661):
                got = sign_a_plus_b_sqrt(a, b, d)
                approx = a + b * sqrt(d)
                if abs(approx) > 1e-9:
                    assert got == (1 if approx > 0 else -1)
                else:
                    assert got == 0


# ---------------------------------------------------------------------------


def test_padic_valuation():
    p, M = 7, 5
    assert valuation(0, p, M) == M
    assert valuation(7**M, p, M) == M
    assert valuation(1, p, M) == 0
    assert valuation(-1, p, M) == 0
    assert valuation(7**3 * 2, p, M) == 3
    x, y = 7 * 3, 7**2 * 5
    assert valuation(x * y, p, M) == valuation(x, p, M) + valuation(y, p, M)
    assert valuation(x + y, p, M) >= min(valuation(x, p, M), valuation(y, p, M))


@given(st.integers(0, 5**6 - 1), st.integers(0, 5**6 - 1))
def test_padic_valuation_properties(u, v):
    p, M = 5, 6
    vu, vv = valuation(u, p, M), valuation(v, p, M)
    assert valuation(u + v, p, M) >= min(vu, vv)
    assert valuation(u * v, p, M) >= min(M, vu + vv)
    if vu + vv < M:
        assert valuation(u * v, p, M) == vu + vv


# ---------------------------------------------------------------------------


def test_char_trivial_mod_1():
    chi = DirichletChar.trivial(1)
    assert chi(7) == 1
    assert chi(0) == 1
    # the period-1 Kronecker characters are trivial, not the zero function
    assert DirichletChar.from_kronecker(1) == chi
    assert DirichletChar.from_kronecker(0) == chi


def test_char_quadratic_mod_4():
    chi = DirichletChar.from_kronecker(-4)
    assert chi.modulus == 4
    for a in range(1, 40, 2):
        assert chi(a) == (-1) ** ((a - 1) // 2)
    assert chi(3) == -1


def test_char_zero_on_nonunits():
    chi = DirichletChar.trivial(12)
    assert chi(6) == 0
    assert chi(8) == 0
    assert chi(35) == 1


def test_char_multiplicative():
    for D in (-4, 5, -3, 13, 12):
        chi = DirichletChar.from_kronecker(D)
        m = chi.modulus
        for a in range(2 * m):
            for b in range(m):
                assert chi(a * b) == chi(a) * chi(b)
        # periodicity
        for a in range(m):
            assert chi(a) == chi(a + m) == chi(a + 7 * m)


def test_char_product_and_square():
    chi1 = DirichletChar.from_kronecker(-4)
    chi2 = DirichletChar.from_kronecker(5)
    prod = chi1 * chi2
    assert prod.modulus == 20
    for a in range(40):
        assert prod(a) == chi1(a) * chi2(a)
    sq = chi2.squared()
    for a in range(20):
        expect = 1 if gcd(a, 5) == 1 else 0
        assert sq(a) == expect


def test_char_tame_wild_factorization():
    # character mod 15 = (mod 3 part) * (mod 5 part), with 5 the wild prime
    chi = DirichletChar.from_kronecker(-15)
    tame, wildp = chi.factor(5)
    assert tame.modulus == 3 and wildp.modulus == 5
    for a in range(60):
        assert chi(a) == tame(a) * wildp(a)
    assert chi.factor(5) == (tame, wildp)
    # trivial wild part
    chi3 = DirichletChar.from_kronecker(-3)
    tame3, wild3 = chi3.factor(5)
    assert tame3.modulus == 3 and wild3.modulus == 1
    for a in range(30):
        assert chi3(a) == tame3(a) * wild3(a)


# ---------------------------------------------------------------------------


def test_cusp_canonical_form():
    assert RationalCusp(2, 4) == RationalCusp(1, 2)
    assert RationalCusp(-3, -6) == RationalCusp(1, 2)
    assert RationalCusp(3, -6) == RationalCusp(-1, 2)
    assert RationalCusp(5, 0) == RationalCusp.infinity()
    assert RationalCusp(0, 7) == RationalCusp(0, 1)
    assert RationalCusp(1, 2) != RationalCusp(1, 3)
    assert (RationalCusp(14, 6).num, RationalCusp(14, 6).den) == (7, 3)


def test_cusp_moebius_action():
    g = (2, 1, 1, 1)
    assert RationalCusp.infinity().apply(g) == RationalCusp(2, 1)
    assert RationalCusp(0).apply(g) == RationalCusp(1, 1)
    assert RationalCusp(1, 1).apply((1, 1, 0, 1)) == RationalCusp(2, 1)
    # matrix action is associative with multiplication
    h = (1, 0, 3, 1)
    c = RationalCusp(5, 7)
    assert c.apply(h).apply(g) == c.apply(mat_mul(g, h))


def test_mat_helpers():
    g = (2, 1, 1, 1)
    assert mat_det(g) == 1
    assert mat_mul(g, mat_inv(g)) == (1, 0, 0, 1)
    j = (1, 0, 0, -1)
    assert mat_det(j) == -1
    assert mat_mul(j, mat_inv(j)) == (1, 0, 0, 1)


# the convergents of 0, 1/2 and 5/3 = [1; 1, 2], after oo = (1, 0)
CONVERGENTS = {(0, 1): [(1, 0), (0, 1)],
               (1, 2): [(1, 0), (0, 1), (1, 2)],
               (5, 3): [(1, 0), (1, 1), (2, 1), (5, 3)]}


@given(st.integers(-10**4, 10**4), st.integers(1, 10**4))
@example(0, 1)
@example(1, 2)
@example(5, 3)
def test_sl2_chain_identity(num, den):
    g = gcd(num, den)
    num, den = num // max(g, 1), den // max(g, 1)
    cusp = RationalCusp(num, den)
    chain = sl2_chain(cusp)
    # every chain element is in SL2(Z)
    for m in chain:
        assert mat_det(m) == 1
    # first columns run through the convergents from oo to the cusp, and
    # each second column is the convergent before, up to sign
    cols = [(1, 0)] + [(m[0], m[2]) for m in chain]
    assert cols[-1] == (num, den)
    for prev, m in zip(cols, chain):
        assert (m[1], m[3]) in (prev, (-prev[0], -prev[1]))
    if (num, den) in CONVERGENTS:
        assert cols == CONVERGENTS[num, den]
    with pytest.raises(BadIndex):
        sl2_chain(RationalCusp.infinity())
    # {cusp} - {oo} = -sum ({g 0} - {g oo}) as formal divisors
    totals = {}
    inf = RationalCusp.infinity()

    def add(c, n):
        totals[c] = totals.get(c, 0) + n
        if totals[c] == 0:
            del totals[c]

    add(cusp, 1)
    add(inf, -1)
    for m in chain:
        add(m and RationalCusp(m[1], m[3]), 1)   # g 0 = second column
        add(RationalCusp(m[0], m[2]), -1)        # g oo = first column
    assert totals == {}
