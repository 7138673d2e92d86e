"""Finite-precision p-adic distributions via truncated moment tables.

A two-variable distribution is stored as the moments m_c(a, b) of
x^a y^b over the disc x = c mod p, for units c and total degree
a + b <= T, with values mod p^M.  The semigroup action substitutes a
linear change of variables, which is homogeneous, so the degree-T
truncation is exact: no error enters except through the base ring.
Here live the Sym^d blocks of that substitution; the values themselves,
tagged by the tame units, are the int64 arrays of ``ocsymb.OCSymbol``.

One-variable distributions on the units carry moments m_c(n), n <= T'.
Tame level N enters as a finite group algebra tag in {0,...,N-1} units,
giving the tagged container DistN, the lift's coefficient ring.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .cosets import _units
from .errors import (
    BadIndex,
    BadSemigroupElement,
    DegreeMismatch,
    InsufficientMoments,
    OperandMismatch,
    PrecisionMismatch,
)
from .linalg import _check_kernel_bounds


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


@lru_cache(maxsize=8192)
def _act_blocks(g, p, prec, T):
    """The stratum blocks of one matrix g: the one-matrix _sym_blocks."""
    blocks = _sym_blocks([g], range(T + 1), p**prec)
    return tuple(blocks[d][0] for d in range(T + 1))


class MomentDist1:
    """Moments m_c(n) mod p^M over unit discs, n <= Tprime."""

    __slots__ = ("p", "prec", "Tp", "data")

    def __init__(self, p, prec, Tp, data=None):
        _check_kernel_bounds(p, prec, Tp)
        if data is None:
            data = np.zeros((p - 1, Tp + 1), dtype=np.int64)
        else:
            data = np.asarray(data, dtype=np.int64) % p**prec
            if data.shape != (p - 1, Tp + 1):
                raise DegreeMismatch(f"moment table of shape {data.shape}, "
                                     f"expected {(p - 1, Tp + 1)}")
        data.flags.writeable = False
        self.p = p
        self.prec = prec
        self.Tp = Tp
        self.data = data

    def m(self, c, n):
        return int(self.data[c % self.p - 1, n])

    def _like(self, data, Tp=None):
        return MomentDist1(self.p, self.prec, self.Tp if Tp is None else Tp, data)

    def zero_like(self):
        return MomentDist1(self.p, self.prec, self.Tp)

    def _compat(self, other):
        if (self.p, self.prec, self.Tp) != (other.p, other.prec, other.Tp):
            raise PrecisionMismatch(
                f"({self.p},{self.prec},{self.Tp}) vs ({other.p},{other.prec},{other.Tp})")

    def __add__(self, other):
        self._compat(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._compat(other)
        return self._like(self.data - other.data)

    def __neg__(self):
        return self._like(-self.data)

    def scale(self, r):
        return self._like(self.data * (int(r) % self.p**self.prec))

    def is_zero(self):
        return not self.data.any()

    def __eq__(self, other):
        if not isinstance(other, MomentDist1):
            return NotImplemented
        return ((self.p, self.prec, self.Tp) == (other.p, other.prec, other.Tp)
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.p, self.prec, self.Tp, self.data.tobytes()))

    def __repr__(self):
        nz = int(np.count_nonzero(self.data))
        return f"MomentDist1(p={self.p}, M={self.prec}, T'={self.Tp}, {nz} nonzero)"


def dirac(s, p, prec, Tp):
    """Point mass at the integer s; zero when p divides s."""
    out = MomentDist1(p, prec, Tp)
    if s % p == 0:
        return out
    mod = p**prec
    data = np.zeros((p - 1, Tp + 1), dtype=np.int64)
    data[s % p - 1, :] = [pow(s, n, mod) for n in range(Tp + 1)]
    return MomentDist1(p, prec, Tp, data)


def convolve(nu1, nu2):
    """Multiplicative convolution on the units.

    Twisted moments multiply: for any character omega of the disc group,
    sum_c omega(c) m_c(n) is multiplicative in the two factors.
    """
    nu1._compat(nu2)
    p, mod = nu1.p, nu1.p**nu1.prec
    data = np.zeros((p - 1, nu1.Tp + 1), dtype=np.int64)
    for c1 in range(1, p):
        row1 = nu1.data[c1 - 1]
        if not row1.any():
            continue
        for c2 in range(1, p):
            c = (c1 * c2) % p
            data[c - 1] = (data[c - 1] + row1 * nu2.data[c2 - 1]) % mod
    return MomentDist1(p, nu1.prec, nu1.Tp, data)


def sigma_moments(nu):
    """Push forward along t -> t^2; moments appear at doubled index."""
    p = nu.p
    Tp = nu.Tp // 2
    data = np.zeros((p - 1, Tp + 1), dtype=np.int64)
    for c in range(1, p):
        c2 = (c * c) % p
        data[c2 - 1] = (data[c2 - 1] + nu.data[c - 1, 0:2 * Tp + 1:2]) % p**nu.prec
    return MomentDist1(p, nu.prec, Tp, data)


class DistN:
    """Finite formal sum of tame tags with one-variable distributions."""

    __slots__ = ("N", "p", "prec", "Tp", "comps")

    def __init__(self, N, p, prec, Tp, comps=None):
        self.N = N
        self.p = p
        self.prec = prec
        self.Tp = Tp
        clean = {}
        for t, nu in (comps or {}).items():
            if gcd(t, N) != 1 and N != 1:
                raise BadIndex(f"tag {t} is not a unit mod {N}")
            if (nu.p, nu.prec, nu.Tp) != (p, prec, Tp):
                raise PrecisionMismatch(
                    f"component ({nu.p},{nu.prec},{nu.Tp}) in ({p},{prec},{Tp})")
            if not nu.is_zero():
                clean[t % N] = nu
        self.comps = clean

    def zero_like(self):
        return DistN(self.N, self.p, self.prec, self.Tp)

    def component(self, t):
        return self.comps.get(t % self.N,
                              MomentDist1(self.p, self.prec, self.Tp))

    def _compat(self, other):
        if (self.N, self.p, self.prec, self.Tp) != (other.N, other.p,
                                                    other.prec, other.Tp):
            raise PrecisionMismatch("tame/moment profiles differ")

    def __add__(self, other):
        self._compat(other)
        comps = dict(self.comps)
        for t, nu in other.comps.items():
            comps[t] = comps[t] + nu if t in comps else nu
        return DistN(self.N, self.p, self.prec, self.Tp, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, r):
        return DistN(self.N, self.p, self.prec, self.Tp,
                     {t: nu.scale(r) for t, nu in self.comps.items()})

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, DistN):
            return NotImplemented
        return ((self.N, self.p, self.prec, self.Tp) ==
                (other.N, other.p, other.prec, other.Tp)
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.N, self.p, self.prec, self.Tp,
                     tuple(sorted((t, hash(nu)) for t, nu in self.comps.items()))))

    def __repr__(self):
        return (f"DistN(N={self.N}, p={self.p}, tags={sorted(self.comps)})")


def dirac_distN(s, N, p, prec, Tp):
    """Point mass at s on the N-tame, p-wild unit group.

    Zero when s shares a factor with Np, following the convention that
    point masses at non-units vanish.
    """
    if gcd(s, N) != 1 or s % p == 0:
        return DistN(N, p, prec, Tp)
    return DistN(N, p, prec, Tp, {s % N: dirac(s, p, prec, Tp)})


def convolve_distN(d1, d2):
    d1._compat(d2)
    out = d1.zero_like()
    for t1, n1 in d1.comps.items():
        for t2, n2 in d2.comps.items():
            piece = DistN(d1.N, d1.p, d1.prec, d1.Tp,
                          {(t1 * t2) % d1.N: convolve(n1, n2)})
            out = out + piece
    return out


def sigma_distN(d):
    """The squaring pushforward on tags and discs simultaneously."""
    comps = {}
    Tp = d.Tp // 2
    out = DistN(d.N, d.p, d.prec, Tp, comps)
    for t, nu in d.comps.items():
        piece = DistN(d.N, d.p, d.prec, Tp, {(t * t) % d.N: sigma_moments(nu)})
        out = out + piece
    return out


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


def eval_weight(d, kappa):
    """Integrate chi(t) * t_p^k against a tagged one-variable distribution."""
    if kappa.k > d.Tp:
        raise InsufficientMoments(f"weight {kappa.k} exceeds moment range {d.Tp}")
    mod = d.p**d.prec
    tot = 0
    for t, nu in d.comps.items():
        ct = kappa.chi_N(t) if d.N > 1 else kappa.chi_N(1)
        if ct == 0:
            continue
        inner = 0
        for c in range(1, d.p):
            cc = kappa.chi_p(c)
            if cc:
                inner += cc * nu.m(c, kappa.k)
        tot += ct * inner
    return tot % mod


class MetaCoeff:
    """Pure tensor left x right of tagged distributions.

    Evaluation at a signature (k, chi) sends the left factor through the
    squaring map first: value = kappa(left) * kappa~(right) with
    kappa = kappa~ o sigma of signature (2k, chi^2).
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if not (isinstance(left, DistN) and isinstance(right, DistN)):
            raise OperandMismatch("a MetaCoeff is a tensor of two DistN")
        self.left = left
        self.right = right

    def _compat(self, other):
        if self.left != other.left:
            raise OperandMismatch("sum requires matching left factors")

    def __add__(self, other):
        self._compat(other)
        return MetaCoeff(self.left, self.right + other.right)

    def __sub__(self, other):
        self._compat(other)
        return MetaCoeff(self.left, self.right - other.right)

    def __neg__(self):
        return MetaCoeff(self.left, -self.right)

    def scale(self, r):
        return MetaCoeff(self.left, self.right.scale(r))

    def is_zero(self):
        return self.right.is_zero()

    def canonicalize(self):
        """Move the left factor through sigma into the right factor."""
        moved = convolve_distN(sigma_distN(self.left), self.right)
        one = dirac_distN(1, moved.N, moved.p, moved.prec, 2 * moved.Tp)
        return MetaCoeff(one, moved)

    def __eq__(self, other):
        if not isinstance(other, MetaCoeff):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __repr__(self):
        return f"MetaCoeff(left tags {sorted(self.left.comps)}, right tags {sorted(self.right.comps)})"


def eval_weight_meta(mc, kappa_tilde):
    kappa = kappa_tilde.doubled()
    mod = mc.right.p**mc.right.prec
    return (eval_weight(mc.left, kappa) * eval_weight(mc.right, kappa_tilde)) % mod


def meta_zero(N, p, prec, Tp):
    """The zero coefficient with the standard identity left factor.

    The left factor's moment range is doubled: left evaluations go
    through the squaring map, which halves the range.
    """
    one = dirac_distN(1, N, p, prec, 2 * Tp)
    return MetaCoeff(one, DistN(N, p, prec, Tp))


def specialize(gen, kappa, N, p, prec, T):
    """Project one generator's tagged moments to a weight-k polynomial.

    gen is indexed (tag, disc, moment), one generator of an OCSymbol's
    data.  Coefficient of the i-th divided basis vector:
    (-1)^i * sum_t chi_N(t) * sum_c chi_p(c) * m_{t,c}(k - i, i).
    """
    from .modsym import SymPoly
    k = kappa.k
    if k > T:
        raise InsufficientMoments(f"weight {k} exceeds moment degree {T}")
    ct = [kappa.chi_N(t) if N > 1 else kappa.chi_N(1) for t in _units(N)]
    cc = [kappa.chi_p(c) for c in range(1, p)]
    # the moments (k - i, i), i = 0..k; character values are 0 or +-1
    inner = np.einsum("t,c,tci->i", ct, cc,
                      gen[..., list(_stratum_cols(T, k))[::-1]])
    coeffs = [(-1) ** i * int(x) % p**prec for i, x in enumerate(inner)]
    return SymPoly(N * p, k, coeffs, kappa.chi, "L", ("zpm", p, prec))
