"""Finite-precision p-adic distributions via truncated moment tables.

A two-variable distribution is stored as the moments m_c(a, b) of
x^a y^b over the disc x = c mod p, for units c and total degree
a + b <= T, with values mod p^M.  The semigroup action substitutes a
linear change of variables, which is homogeneous, so the degree-T
truncation is exact: no error enters except through the base ring.
Here live the Sym^d blocks of that substitution; the values themselves,
tagged by the tame units, are the int64 arrays of ``ocsymb.OCSymbol``.

One-variable distributions on the units carry moments m_c(n), n <= T',
one table per tame tag: the coefficients of the finite-precision lift,
stored as rows of ``lifting.FormalQExp.data``.  Here live the arithmetic
weights and the character vectors that evaluate both kinds at a weight.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .cosets import _units
from .errors import BadIndex, BadSemigroupElement, InsufficientMoments


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


def _indexed_terms(groups, N, p, prec):
    """Terms (c, g, w) of groups as int64 rows (group, c, matrix, w mod
    p^prec), and the distinct matrices, checked once each, mod N p^prec."""
    mod, mats = p**prec, {}
    rows = [(i, c, mats.setdefault(g, len(mats)), w % mod)
            for i, group in enumerate(groups) for c, g, w in group]
    for g in mats:
        _check_s0(g, N * p)
    return (np.array(rows, dtype=np.int64).reshape(-1, 4),
            [tuple(x % (N * mod) for x in g) for g in mats])


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
            raise ValueError(f"wild part must have modulus dividing {p}, "
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


def _char_vectors(kappa, N, p):
    """(tag vector, disc vector) of a weight's character, entries 0 or +-1.

    The tag vector holds chi_N(t) over the tame units t, or chi_N(1) at
    tame level 1; the disc vector holds chi_p(c) over the discs 1..p-1.
    """
    ct = [kappa.chi_N(t) if N > 1 else kappa.chi_N(1) for t in _units(N)]
    return ct, [kappa.chi_p(c) for c in range(1, p)]


def specialize(gen, kappa, N, p, prec, T):
    """Project one generator's tagged moments to the k + 1 coefficients of
    a weight-k polynomial on side L, mod p^prec.

    gen is indexed (tag, disc, moment), one generator of an OCSymbol's
    data.  Coefficient of the i-th divided basis vector:
    (-1)^i * sum_t chi_N(t) * sum_c chi_p(c) * m_{t,c}(k - i, i).
    """
    k = kappa.k
    if k > T:
        raise InsufficientMoments(f"weight {k} exceeds moment degree {T}")
    ct, cc = _char_vectors(kappa, N, p)
    # the moments (k - i, i), i = 0..k; character values are 0 or +-1
    inner = np.einsum("t,c,tci->i", ct, cc,
                      gen[..., list(_stratum_cols(T, k))[::-1]])
    return tuple((-1) ** i * int(x) % p**prec for i, x in enumerate(inner))
