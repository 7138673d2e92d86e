"""Finite-precision p-adic distributions via truncated moment tables.

A two-variable distribution is stored as the moments m_c(a, b) of
x^a y^b over the disc x = c mod p, for units c and total degree
a + b <= T, with values mod p^M.  The semigroup action substitutes a
linear change of variables, which is homogeneous, so the degree-T
truncation is exact: no error enters except through the base ring.
Here live the Sym^d blocks of that substitution and the one fold of
(generator, matrix, weight) path terms into blocks, exact for classical
symbols and mod p^M for distribution values; the values themselves,
tagged by the tame units, are the int64 arrays of ``ocsymb.OCSymbol``.

One-variable distributions on the units carry moments m_c(n), n <= T',
one table per tame tag: the coefficients of the finite-precision lift,
stored as rows of ``lifting.FormalQExp.data``.  Here live the arithmetic
weights and the one contraction that evaluates both kinds at a weight.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .cosets import _units
from .errors import (BadIndex, BadLevel, BadSemigroupElement,
                     InsufficientMoments)


@lru_cache(maxsize=None)
def _pairs(T):
    """Lexicographic (a, b) with a + b <= T, plus the position lookup."""
    pairs = tuple((a, b) for a in range(T + 1) for b in range(T + 1 - a))
    pos = {ab: i for i, ab in enumerate(pairs)}
    return pairs, pos


@lru_cache(maxsize=None)
def _stratum_cols(T, d):
    """Flat positions of (n, d - n) for n = 0..d."""
    _, pos = _pairs(T)
    return tuple(pos[(n, d - n)] for n in range(d + 1))


def _check_s0(g, level):
    A, B, C, D = g
    if A * D - B * C <= 0:
        raise BadSemigroupElement(f"determinant of {g} is not positive")
    if C % level != 0:
        raise BadSemigroupElement(f"{g} not upper triangular mod {level}")
    if gcd(A, level) != 1:
        raise BadSemigroupElement(f"upper-left of {g} not a unit mod {level}")


def _sym_blocks(gs, strata, mod=None):
    """Sym^d blocks of the substitutions (x, y) -> ((x, y) g) for a batch gs.

    Returns {d: array (len(gs), d + 1, d + 1)} for d in strata; row a of a
    stratum-d block holds the coefficients of x^n y^(d-n) in
    (A x + C y)^a (B x + D y)^(d-a).  Degree d + 1 follows from degree d:
    row a >= 1 is row a - 1 times (A x + C y), row 0 is row 0 times
    (B x + D y).  With mod None the blocks are exact, Python integers in
    object arrays.  Otherwise they are int64 mod ``mod``, each entry a sum
    of two residue products below 2^57, and g is reduced in Python first,
    since its entries need not fit in int64.
    """
    if mod is None:
        red, G = (lambda X: X), np.array(gs, dtype=object)
    else:
        red = (lambda X: X % mod)
        G = np.array([[x % mod for x in g] for g in gs], dtype=np.int64)
    G = G.reshape(-1, 4, 1, 1)
    A, B, C, D = (G[:, i] for i in range(4))
    V = red(np.ones((len(G), 1, 1), dtype=G.dtype))
    top = max(strata, default=-1)
    out = {}
    for d in range(top + 1):
        if d in strata:
            out[d] = V
        if d == top:
            break
        W = np.zeros((len(G), d + 2, d + 2), dtype=G.dtype)
        W[:, 1:, 1:] = A * V
        W[:, 1:, :-1] += C * V
        W[:, :1, 1:] += B * V[:, :1]
        W[:, :1, :-1] += D * V[:, :1]
        V = red(W)
    return out


def _indexed_terms(groups, level, mod=None):
    """Terms (c, g, w) of groups as int64 rows (group, c, matrix, w), w
    reduced mod ``mod`` if one is given, and the distinct matrices as
    given, each checked once to act at ``level``."""
    mats = {}
    rows = [(i, c, mats.setdefault(g, len(mats)),
             w if mod is None else w % mod)
            for i, group in enumerate(groups) for c, g, w in group]
    for g in mats:
        _check_s0(g, level)
    return np.array(rows, dtype=np.int64).reshape(-1, 4), list(mats)


def _fold(rows, S, ngroups, ngens, mod=None):
    """Blocks (sector, group, row, (generator, column)): per group the sum
    of w S[matrix] (sector, row, column) in column c over its _indexed_terms
    rows (group, c, matrix, w), in any order; exact when mod is None."""
    red = (lambda X: X) if mod is None else (
        lambda X: np.remainder(X, mod, out=X))
    out = np.zeros((ngroups, ngens) + S.shape[1:], dtype=S.dtype)
    terms = S[rows[:, 2]]
    # w * block < (p^prec)^2 < 2^56, reduced in place before it is added
    terms *= rows[:, 3].reshape(-1, 1, 1, 1)
    np.add.at(out, (rows[:, 0], rows[:, 1]), red(terms))
    return red(out).transpose(2, 0, 3, 1, 4).reshape(
        S.shape[1], ngroups, S.shape[2], ngens * S.shape[3])


@lru_cache(maxsize=8192)
def _act_blocks(g, p, prec, T):
    """The stratum blocks of one matrix g: the one-matrix _sym_blocks."""
    blocks = _sym_blocks([g], range(T + 1), p**prec)
    return tuple(blocks[d][0] for d in range(T + 1))


class ArithWeight:
    """Weight k >= 0 with a character split into tame and wild parts."""

    __slots__ = ("k", "chi", "p", "chi_N", "chi_p")

    def __init__(self, k, chi, p):
        if k < 0:
            raise BadIndex(f"weight must be >= 0, got {k}")
        tame, wild = chi.factor(p)
        if wild.modulus not in (1, p):
            raise BadIndex(f"wild part must have modulus dividing {p}, "
                           f"got {wild.modulus}")
        self.k = k
        self.chi = chi
        self.p = p
        self.chi_N = tame
        self.chi_p = wild

    def doubled(self):
        """The sigma-composed signature (2k, chi^2)."""
        return ArithWeight(2 * self.k, self.chi.squared(), self.p)

    def __repr__(self):
        return f"ArithWeight(k={self.k}, chi mod {self.chi.modulus}, p={self.p})"


def _at_weight(X, kappa, N, p):
    """sum_t chi_N(t) * sum_c chi_p(c) * X[..., t, c, :] for X indexed
    (..., tag, disc, moment), for kappa at p with chi_N defined mod N."""
    if kappa.p != p or N % kappa.chi_N.modulus:
        raise BadLevel(f"{kappa!r} evaluates no data at N = {N}, p = {p}")
    ct = [kappa.chi_N(t) for t in _units(N)]
    cc = [kappa.chi_p(c) for c in range(1, p)]
    # character values are 0 or +-1
    return np.einsum("t,c,...tcm->...m", ct, cc, X)


def specialize(X, kappa, N, p, prec, T):
    """Project tagged moments to the k + 1 coefficients of a weight-k
    polynomial on side L, mod p^prec.

    X is indexed (..., tag, disc, moment), as the data of an OCSymbol or
    of a whole space, and the result (..., k + 1).  Coefficient of the
    i-th divided basis vector:
    (-1)^i * sum_t chi_N(t) * sum_c chi_p(c) * m_{t,c}(k - i, i).
    """
    k = kappa.k
    if k > T:
        raise InsufficientMoments(f"weight {k} exceeds moment degree {T}")
    # the moments (k - i, i), i = 0..k
    inner = _at_weight(X[..., list(_stratum_cols(T, k))[::-1]], kappa, N, p)
    return inner * (-1) ** np.arange(k + 1) % p**prec
