"""Linear algebra over Q and Z/p^M against brute-force and sympy oracles."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy

import shintani
from shintani import linalg, manin, modsym
from shintani.arith import DirichletChar
from shintani.errors import KernelOverflow, NoConvergence, OperandMismatch
from shintani.linalg import (
    berkowitz_charpoly,
    frac_nullspace,
    frac_rref,
    lower_convex_hull,
    matmul_mod,
    poly_mul_mod,
    zpm_block_kernel,
    zpm_kernel,
    zpm_solve,
    zpm_span_basis,
)

from oracles import (
    frac_nullspace_gauss, frac_rref_gauss, frac_solve_many, rank_mod_p,
    zpm_in_span, zpm_solve_by_column)

rng = random.Random(20260822)


def test_matmul_mod_matches_bigint():
    mod = 11**8
    r = np.random.default_rng(7)
    A = r.integers(0, mod, size=(40, 300))
    B = r.integers(0, mod, size=(300, 30))
    got = matmul_mod(A, B, mod)
    want = (A.astype(object) @ B.astype(object)) % mod
    assert (got.astype(object) == want).all()


@pytest.mark.parametrize("ashape, bshape", [
    ((3, 4, 5), (3, 5, 2)),        # one product per stack entry
    ((2, 1, 4, 5), (3, 5, 6)),     # stacks broadcast against each other
    ((4, 5), (3, 5, 2)),           # a plain matrix against a stack
    ((5,), (3, 5, 2)),             # a row against a stack
    ((3, 4, 5), (5,)),             # a stack against a column
    ((5,), (5,)),                  # a dot product
    ((2, 3, 300), (300, 4)),       # inner dimension above _CHUNK
    ((2, 3, 0), (2, 0, 4)),        # empty inner dimension
])
def test_stacked_matmul_mod_matches_bigint(ashape, bshape):
    mod = 13**7
    r = np.random.default_rng(11)
    A = r.integers(0, mod, size=ashape)
    B = r.integers(0, mod, size=bshape)
    got = matmul_mod(A, B, mod)
    want = np.matmul(A.astype(object), B.astype(object)) % mod
    if np.ndim(want) == 0:
        assert type(got) is int and got == want
    else:
        assert got.dtype == np.int64 and got.shape == want.shape
        assert (got.astype(object) == want).all()
    with pytest.raises(OperandMismatch, match="inner dimensions"):
        matmul_mod(A, np.ones(A.shape[-1] + 1), mod)


def test_frac_rref_and_nullspace_vs_sympy():
    for trial in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
        basis = frac_nullspace(rows, n)
        S = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
        want = S.nullspace()
        assert len(basis) == len(want)
        for v in basis:
            prod = [sum(r[i] * v[i] for i in range(n)) for r in rows]
            assert all(x == 0 for x in prod)
        # spans agree: each sympy vector solves into my basis
        if basis:
            B = [[basis[j][i] for j in range(len(basis))] for i in range(n)]
            for w in want:
                assert frac_solve_many(B, [[Fraction(x) for x in w]])[0] \
                    is not None


def test_frac_solve():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    [x] = frac_solve_many(rows, [[Fraction(5), Fraction(10)]])
    assert x == [Fraction(1), Fraction(3)]
    assert frac_solve_many([[1, 1], [2, 2]], [[1, 3]]) == [None]
    assert frac_solve_many([[1, 1], [2, 2]], [[1, 2]])[0] is not None


def relation_rows(M, k):
    rows = modsym._term_rows(M, k, DirichletChar.trivial(),
                             manin.presentation(M).relations)
    return rows.reshape(-1, rows.shape[-1])


def assert_matches_gauss(rows, ncols):
    got = frac_rref(rows, ncols)
    assert got == frac_rref_gauss(rows, ncols)
    assert all(type(x) is Fraction for row in got[0] for x in row)
    assert frac_nullspace(rows, ncols) == frac_nullspace_gauss(rows, ncols)


@pytest.fixture
def primes_drawn(monkeypatch):
    """How many primes each frac_rref call drew, newest last."""
    drawn = []

    def counted():
        drawn.append(0)
        for q in real():
            drawn[-1] += 1
            yield q

    real = linalg._primes
    monkeypatch.setattr(linalg, "_primes", counted)
    return drawn


@pytest.mark.parametrize("M, k", [(11, 0), (5, 2), (11, 2), (37, 2)])
def test_frac_rref_matches_gauss_on_relation_rows(M, k):
    rows = relation_rows(M, k)
    assert_matches_gauss(rows, rows.shape[1])


def test_frac_rref_matches_gauss_on_90_bit_integers(primes_drawn):
    r = random.Random(20261019)
    for _ in range(50):
        m, n = r.randint(1, 6), r.randint(1, 7)
        rows = [[r.randint(-2**90, 2**90) for _ in range(n)] for _ in range(m)]
        assert_matches_gauss(rows, n)
    # minors of 90-bit entries need several 28-bit primes
    assert max(primes_drawn) >= 4


def test_frac_rref_matches_gauss_on_fractions():
    r = random.Random(5)
    for _ in range(25):
        m, n = r.randint(1, 5), r.randint(1, 6)
        rows = [[Fraction(r.randint(-40, 40), r.randint(1, 30))
                 for _ in range(n)] for _ in range(m)]
        rows[0][0] = Fraction(0)
        assert_matches_gauss(rows, n)


@pytest.mark.parametrize("rows, ncols", [
    ([], 3), ([[0, 0, 0]], 3), ([[0, 0], [0, 0], [0, 0]], 2),
    ([[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6]], 3),
    ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 3), ([[5]], 1), ([[0, 7]], 2)],
    ids=["no rows", "zero row", "zero matrix", "zero rows", "full rank",
         "1x1", "late pivot"])
def test_frac_rref_matches_gauss_on_edge_cases(rows, ncols):
    assert_matches_gauss(rows, ncols)


@pytest.mark.parametrize("unlucky", ["pivot moves right", "rank drops"])
def test_frac_rref_recovers_from_an_unlucky_prime(primes_drawn, unlucky):
    # mod the first prime q the pivot of column 0 moves to column 1, or
    # the second row vanishes; that pivot set is dropped once a prime sees
    # the pivots over Q
    q = linalg._prime(0)
    if unlucky == "pivot moves right":
        rows = [[q, 1, 0], [0, 0, 0], [2 * q, 2, 1]]
        assert frac_rref(rows, 3)[0][0][1] == Fraction(1, q)
    else:
        rows = [[1, 0, 1], [0, q, q]]
        assert frac_rref(rows, 3)[1] == [0, 1]
    assert primes_drawn[0] >= 2
    assert_matches_gauss(rows, 3)


def test_frac_rref_refuses_when_the_primes_run_out(monkeypatch):
    q = linalg._prime(0)
    rows = [[q, 1, 0], [2 * q, 2, 1]]
    monkeypatch.setattr(linalg, "_primes", lambda: iter([q]))
    with pytest.raises(NoConvergence):
        frac_rref(rows, 3)


def test_certificate_refuses_a_corrupted_reconstruction(monkeypatch):
    real = linalg._rational
    monkeypatch.setattr(linalg, "_rational",
                        lambda a, m: real(a, m) + Fraction(1, 3))
    with pytest.raises(NoConvergence):
        frac_rref([[1, 2, 3], [4, 5, 6]], 3)


def test_importing_tests_no_prime():
    # the prime supply is built on first use, so import costs nothing
    src = os.path.dirname(os.path.dirname(os.path.abspath(shintani.__file__)))
    code = ("import shintani.cli, shintani.linalg as L; "
            "print(L._prime.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "0\n"


def brute_kernel(A, p, M):
    """All kernel vectors of a tiny matrix by enumeration."""
    pm = p**M
    m, n = A.shape
    out = set()
    for x in itertools.product(range(pm), repeat=n):
        v = np.array(x, dtype=np.int64)
        if not ((A @ v) % pm).any():
            out.add(x)
    return out


def span_set(basis, p, M, n):
    pm = p**M
    out = set()
    if not basis:
        return {(0,) * n}
    for coeffs in itertools.product(range(pm), repeat=len(basis)):
        v = np.zeros(n, dtype=np.int64)
        for c, b in zip(coeffs, basis):
            v = (v + c * b) % pm
        out.add(tuple(int(x) for x in v))
    return out


def test_zpm_kernel_exhaustive_small():
    p, M = 3, 2
    cases = [
        np.array([[3, 0], [0, 1]]),
        np.array([[1, 2], [2, 4]]),
        np.array([[3, 3], [3, 3]]),
        np.array([[0, 0], [0, 0]]),
        np.array([[2, 1], [5, 7]]),
        np.array([[6, 3, 1]]),
        np.array([[3], [6]]),
    ]
    for A in cases:
        A = A.astype(np.int64)
        basis, torsion = zpm_kernel(A, p, M)
        want = brute_kernel(A, p, M)
        got = span_set(basis, p, M, A.shape[1])
        assert got == want, A
        # torsion accounting: kernel size is p^sum(M - v)
        assert len(want) == p ** sum(M - v for v in torsion)


def test_zpm_block_kernel_matches_zpm_kernel_on_random_stacks():
    # groups 0 and 1 are eliminated, group 0 through x_1, so x_0 is
    # expanded after x_1; group 2 (the identity in the first member only),
    # group 3 (the identity at generator 0, eliminated before it) and
    # group 4 (no identity) are not, and the expanded generators span each
    # member's whole kernel
    p, M, k, ngens = 3, 3, 2, 7
    pm = p**M
    r = np.random.default_rng(29)
    pivots = [0, 1, 2, 0, 3]
    support = [(0, 1, 5, 6), (1, 5, 6), (2, 5, 6), (0, 3, 6), range(ngens)]
    groups = len(pivots)
    for trial in range(12):
        W = np.zeros((2, groups, k, ngens, k), dtype=np.int64)
        for i, gens in enumerate(support):
            for g in gens:
                W[:, i, :, g] = r.integers(0, pm, size=(2, k, k)) // p**(
                    trial % 3)
            if i < 4:
                W[:, i, :, pivots[i]] = np.eye(k)
        W[:, 4, :, 3] *= p
        W[1, 2, :, 2] += p
        gens = zpm_block_kernel(W, pivots, p, M)
        for Ws, y in zip(W, gens):
            A = Ws.reshape(groups * k, ngens * k)
            assert not (matmul_mod(A, np.reshape(y, (-1, ngens * k)).T,
                                   pm)).any()
            want = zpm_kernel(A, p, M)
            got = zpm_span_basis(y, ngens * k, p, M)
            assert got[1] == want[1]
            assert np.array_equal(np.reshape(got[0], (-1, ngens * k)),
                                  np.reshape(want[0], (-1, ngens * k)))


def test_graph_kernel_is_already_its_howell_basis():
    # the rows of the graph's one Howell form with pivot column >= m, cut
    # to their last n entries, are the kernel's unique Howell basis: a
    # second reduction changes no row and no torsion entry
    r = np.random.default_rng(2000)
    for _ in range(300):
        p, M = int(r.choice([2, 3, 5, 7])), int(r.integers(1, 5))
        m, n = int(r.integers(1, 6)), int(r.integers(1, 6))
        A = r.integers(0, p**M, size=(m, n)) * p ** r.integers(
            0, M + 1, size=(m, n)) % p**M
        basis, torsion = linalg._graph(A, p, M)[1]
        again, again_torsion = zpm_span_basis(basis, n, p, M)
        assert again_torsion == torsion
        assert np.array_equal(np.reshape(again, (-1, n)),
                              np.reshape(basis, (-1, n)))


def test_zpm_kernel_random_membership():
    p, M = 5, 4
    pm = p**M
    r = np.random.default_rng(11)
    for _ in range(15):
        m, n = int(r.integers(2, 6)), int(r.integers(2, 6))
        A = r.integers(0, pm, size=(m, n)).astype(np.int64)
        # plant some p-divisibility to exercise torsion
        A[0] = A[0] // p * p
        basis, _ = zpm_kernel(A, p, M)
        for b in basis:
            assert not ((A @ b) % pm).any()
        # random combinations stay in the kernel
        for _ in range(5):
            if basis:
                coeffs = r.integers(0, pm, size=len(basis))
                v = np.zeros(n, dtype=np.int64)
                for c, b in zip(coeffs, basis):
                    v = (v + int(c) * b) % pm
                assert not ((A @ v) % pm).any()


def test_zpm_solve():
    p, M = 5, 6
    pm = p**M
    r = np.random.default_rng(3)
    for _ in range(20):
        m, n = int(r.integers(1, 6)), int(r.integers(1, 6))
        A = r.integers(0, pm, size=(m, n)).astype(np.int64)
        x0 = r.integers(0, pm, size=n).astype(np.int64)
        b = (A @ x0.astype(object) % pm).astype(np.int64)
        x = zpm_solve(A, b, p, M)
        assert x is not None
        assert not ((A.astype(object) @ x.astype(object) - b) % pm).any()
    # unsolvable: p * x = 1
    assert zpm_solve(np.array([[p]]), np.array([1]), p, M) is None


def test_zpm_solve_refuses_a_right_hand_side_of_the_wrong_length():
    # one right-hand side entry, or row, per equation
    with pytest.raises(OperandMismatch, match="right-hand sides"):
        zpm_solve(np.eye(3), [1, 2], 5, 2)
    with pytest.raises(OperandMismatch, match="right-hand sides"):
        zpm_solve(np.eye(3), np.ones((4, 2)), 5, 2)


def torsion_system(r, p, M, m, n, k):
    """A with columns scaled by p^0, p^1 or p^(M-1), and B = A X0."""
    pm = p**M
    A = r.integers(0, pm, size=(m, n)) * p ** r.choice([0, 1, M - 1], n)
    A = (A % pm).astype(np.int64)
    X0 = r.integers(0, pm, size=(n, k)).astype(object)
    return A, (A.astype(object) @ X0 % pm).astype(np.int64)


def test_zpm_solve_matrix_matches_column_by_column():
    p, M = 3, 4
    pm = p**M
    r = np.random.default_rng(5)
    torsion = 0
    for _ in range(30):
        m, n = int(r.integers(1, 7)), int(r.integers(1, 7))
        A, B = torsion_system(r, p, M, m, n, int(r.integers(1, 5)))
        torsion += any(zpm_kernel(A, p, M)[1])
        X = zpm_solve(A, B, p, M)
        assert X.shape == (n, B.shape[1])
        for x, y in zip(X.T, B.T):
            assert np.array_equal(x, zpm_solve(A, y, p, M))
            assert np.array_equal(x, zpm_solve_by_column(A, y, p, M))
    assert torsion >= 5   # kernels with rows of positive valuation
    # one column outside the image makes the whole solve None
    A = r.integers(0, pm, size=(4, 3)) * [[p], [1], [1], [1]] % pm
    B = (A @ r.integers(0, pm, size=(3, 3)).astype(object) % pm
         ).astype(np.int64)
    B[0, 1] = 1   # row 0 of A is divisible by p
    assert zpm_solve_by_column(A, B[:, 1], p, M) is None
    assert zpm_solve(A, B, p, M) is None
    assert zpm_solve(A, B[:, 1], p, M) is None
    # a vector b gives a vector x
    x = zpm_solve(A, B[:, 0], p, M)
    assert x.shape == (3,)
    assert np.array_equal(x, zpm_solve_by_column(A, B[:, 0], p, M))


def test_zpm_routines_refuse_moduli_above_the_int64_bound():
    # 3^30 >= 2^28: reductions would overflow int64 and answer wrongly
    p, M = 3, 30
    A = np.array([[1, 2, 0], [0, 3, 1], [5, 0, 7]], dtype=np.int64)
    b = A @ np.array([1, 2, 3], dtype=np.int64)
    for call in (lambda: zpm_kernel(A, p, M),
                 lambda: zpm_span_basis(list(A), 3, p, M),
                 lambda: zpm_solve(A, b, p, M)):
        with pytest.raises(KernelOverflow):
            call()


def test_zpm_in_span():
    p, M = 5, 3
    v1 = np.array([1, 0, 5], dtype=np.int64)
    v2 = np.array([0, 25, 0], dtype=np.int64)
    assert zpm_in_span([v1, v2], np.array([2, 25, 10]), p, M)
    assert not zpm_in_span([v1, v2], np.array([0, 5, 0]), p, M)
    assert zpm_in_span([], np.array([0, 0]), p, M)
    assert not zpm_in_span([], np.array([1, 0]), p, M)


def test_berkowitz_vs_sympy():
    mod = 5**8
    r = np.random.default_rng(23)
    lam = sympy.Symbol("lam")
    for n in (1, 2, 3, 5, 8):
        A = r.integers(0, mod, size=(n, n)).astype(np.int64)
        got = berkowitz_charpoly(A, mod)
        S = sympy.Matrix(A.tolist())
        want = sympy.Poly(S.charpoly(lam).as_expr(), lam).all_coeffs()
        assert len(got) == n + 1
        assert got == [int(c) % mod for c in want]


def test_berkowitz_exact_vs_sympy():
    # mod=None: exact Python-int coefficients, far beyond int64
    r = random.Random(29)
    lam = sympy.Symbol("lam")
    for n in (0, 1, 2, 3, 5, 8):
        for bits in (4, 40, 200):
            A = [[r.randrange(-2**bits, 2**bits) for _ in range(n)]
                 for _ in range(n)]
            got = berkowitz_charpoly(A)
            want = sympy.Poly(sympy.Matrix(n, n, sum(A, [])).charpoly(lam)
                              .as_expr(), lam).all_coeffs()
            assert got == [int(c) for c in want]
            assert all(type(c) is int for c in got)


def test_berkowitz_block_diagonal_multiplies():
    # charpoly of a block diagonal matrix is the product of block charpolys
    mod = 5**8
    r = np.random.default_rng(5)
    A = r.integers(0, mod, size=(3, 3)).astype(np.int64)
    B = r.integers(0, mod, size=(2, 2)).astype(np.int64)
    big = np.zeros((5, 5), dtype=np.int64)
    big[:3, :3] = A
    big[3:, 3:] = B
    want = poly_mul_mod(berkowitz_charpoly(A, mod), berkowitz_charpoly(B, mod), mod)
    assert berkowitz_charpoly(big, mod) == want


def test_rank_mod_p():
    p = 7
    assert rank_mod_p(np.array([[1, 2], [2, 4]]), p) == 1
    assert rank_mod_p(np.array([[7, 0], [0, 7]]), p) == 0
    assert rank_mod_p(np.eye(4, dtype=np.int64), p) == 4
    r = np.random.default_rng(2)
    for _ in range(10):
        m, n = int(r.integers(1, 7)), int(r.integers(1, 7))
        A = r.integers(0, 7, size=(m, n)).astype(np.int64)
        S = sympy.Matrix(A.tolist())
        # oracle: rank over F_p via rref of the integer matrix in GF(p)
        want = len(S.rref(iszerofunc=lambda v: v % p == 0, simplify=lambda v: v % p)[1])
        assert rank_mod_p(A, p) == want


def test_lower_convex_hull():
    pts = [(0, 0), (1, 2), (2, 0), (3, 5), (4, 2)]
    hull = lower_convex_hull(pts)
    assert hull == [(0, 0), (2, 0), (4, 2)]
    # collinear interior points are not vertices
    assert lower_convex_hull([(0, 0), (2, 1), (4, 2)]) == [(0, 0), (4, 2)]
    assert lower_convex_hull([(0, 3), (1, 1), (2, 0), (3, 0), (4, 1)]) == [
        (0, 3),
        (1, 1),
        (2, 0),
        (3, 0),
        (4, 1),
    ]
    assert lower_convex_hull([(0, 0), (5, 0)]) == [(0, 0), (5, 0)]
