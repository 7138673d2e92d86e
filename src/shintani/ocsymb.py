"""Overconvergent modular symbols with moment-distribution values.

The value module is graded by total moment degree and every operator in
sight (the congruence group, Hecke sums, the involution) is homogeneous,
so the solution space, the U_p matrix and the slope theory all decompose
stratum by stratum.  Linear algebra happens per stratum; a general symbol
is a sum of stratum-supported pieces.

The relations are solved per stratum and Teichmuller sector.  The disc
axis carries the regular representation of (Z/p)^x, whose characters
omega^j are defined over Z/p^M (D(Z_p^x) = sum_j omega^j D(1 + pZ_p), as
in Stevens' rigid analytic modular symbols), so each stratum's relations
split into p - 1 independent blocks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from . import manin
from .arith import crt, valuation
from .cosets import _units
from .dist import _act_blocks, _check_s0, _pairs, _stratum_cols, specialize
from .errors import (
    BadIndex,
    BadLevel,
    CriticalSlope,
    DegreeMismatch,
    NoConvergence,
    NotEigen,
    OperandMismatch,
    PrecisionMismatch,
    SlopeGapUnresolvable,
)
from .linalg import (
    _check_kernel_bounds,
    berkowitz_charpoly,
    lower_convex_hull,
    matmul_mod,
    poly_mul_mod,
    zpm_kernel,
    zpm_solve,
    zpm_span_basis,
)
from .modsym import ModularSymbol, SymPoly, check_ring


class OCSymbol:
    """Generator values in the tagged two-variable distribution module.

    data is one read-only int64 array indexed (generator, tag, disc,
    moment), reduced mod p^prec: tags run over the units mod N, discs over
    1..p-1 and moments over the (a, b) of dist._pairs(T).
    """

    __slots__ = ("level", "N", "p", "prec", "T", "data")

    def __init__(self, level, N, p, prec, T, data):
        _check_shape(level, N, p, prec, T, np.shape(data))
        data = np.asarray(data, dtype=np.int64) % p**prec
        data.flags.writeable = False
        self.level = level
        self.N = N
        self.p = p
        self.prec = prec
        self.T = T
        self.data = data

    @classmethod
    def _view(cls, space, data):
        """A symbol of space on data already checked, reduced and read-only."""
        sym = cls.__new__(cls)
        sym.level, sym.N, sym.p = space.level, space.N, space.p
        sym.prec, sym.T, sym.data = space.prec, space.T, data
        return sym

    def _like(self, data):
        return OCSymbol(self.level, self.N, self.p, self.prec, self.T, data)

    def _compat(self, other):
        if (self.N, self.p, self.prec, self.T) != (other.N, other.p,
                                                   other.prec, other.T):
            raise PrecisionMismatch(f"{self!r} and {other!r} do not add")

    def zero_like(self):
        return self._like(np.zeros_like(self.data))

    def __add__(self, other):
        self._compat(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._compat(other)
        return self._like(self.data - other.data)

    def scale(self, r):
        return self._like(self.data * (int(r) % self.p**self.prec))

    def is_zero(self):
        return not self.data.any()

    def flat(self):
        """Concatenated moment vector: generator, tag, disc, (a, b) order."""
        return self.data.reshape(-1)

    def flat_stratum(self, d):
        return self.data[..., list(_stratum_cols(self.T, d))].reshape(-1)

    def __repr__(self):
        return (f"OCSymbol(level={self.level}, N={self.N}, p={self.p}, "
                f"M={self.prec}, T={self.T})")


def _check_shape(level, N, p, prec, T, shape):
    """Raise unless arrays of this shape hold the data of such a symbol."""
    if level != N * p:
        raise BadLevel(f"level {level} is not {N} * {p}")
    _check_kernel_bounds(p, prec, T)
    need = (manin.presentation(level).ngens, len(_units(N)), p - 1,
            len(_pairs(T)[0]))
    if tuple(shape) != need:
        raise DegreeMismatch(f"data of shape {tuple(shape)}, need {need}")


def _sources(g, N, p):
    """Source positions (tags, discs) of the value action of g.

    Tags and discs move by the upper-left entry a: output tag t and disc
    c read input tag a^-1 t and disc a^-1 c.
    """
    ainv = pow(g[0], -1, N * p)
    tags = _units(N)
    return ([tags.index(ainv * t % N) for t in tags],
            [ainv * c % p - 1 for c in range(1, p)])


def _act_stratum(g, Y, N, p, prec, T, d):
    """Value action of g on stacked stratum-d coordinates.

    Y is indexed (tag, disc, moment, column).  Tags and discs move as
    _sources says, moments by the stratum-d block of _act_blocks, on
    every column at once.  The product sums d + 1 <= T + 1 residue
    products, inside the int64 bound.
    """
    _check_s0(g, N * p)
    mod = p**prec
    g = tuple(x % (N * mod) for x in g)
    tsrc, dsrc = _sources(g, N, p)
    V = _act_blocks(g, p, prec, T)[d]
    return (V @ Y.take(tsrc, axis=0).take(dsrc, axis=1)) % mod


@lru_cache(maxsize=None)
def _characters(p, prec):
    """Teichmuller characters mod p^prec: row j is omega^j on discs 1..p-1.

    omega(c) = c^(p^(prec-1)) is the (p-1)-th root of unity congruent to
    c mod p, so the rows are the p - 1 characters of (Z/p)^x.  The table
    is invertible over Z/p^prec, p - 1 being a unit: its inverse has
    entry omega^-j(c) / (p - 1) at (c, j).
    """
    mod = p**prec
    omega = [pow(c, p ** (prec - 1), mod) for c in range(1, p)]
    return np.array([[pow(w, j, mod) for w in omega] for j in range(p - 1)],
                    dtype=np.int64)


@lru_cache(maxsize=4096)
def _stratum_action_matrix(g, N, p, prec, T, d):
    """The value action of g on one stratum, one block per sector.

    A disc vector c -> omega^j(c) is an eigenvector of the disc gather of
    _act_stratum: reading disc a^-1 c gives omega^j(a^-1 c), that is
    omega^j(a)^-1 times it.  So in sector j the action is omega^j(a)^-1
    times the tag gather tensor the stratum-d block of _act_blocks.
    Indexed (sector, (tag, moment), (tag, moment)).
    """
    _check_s0(g, N * p)
    mod = p**prec
    g = tuple(x % (N * mod) for x in g)
    tsrc, _ = _sources(g, N, p)
    tags = np.eye(len(tsrc), dtype=np.int64)[tsrc]
    block = np.kron(tags, _act_blocks(g, p, prec, T)[d])
    twist = _characters(p, prec)[:, pow(g[0], -1, p) - 1]
    return (twist[:, None, None] * block) % mod


def _sector_relation_blocks(level, N, p, prec, T, d):
    """The stratum-d relation matrix as its p - 1 sector blocks.

    Block j has rows (relation, tag, moment) and columns (generator, tag,
    moment); x solves it exactly when the generator values with disc c
    entry omega^j(c) x satisfy the relations.
    """
    pres = manin.presentation(level)
    blockdim = len(_units(N)) * (d + 1)
    mod = p**prec

    def add(block, c, g, w):
        S = _stratum_action_matrix(g, N, p, prec, T, d)
        sl = slice(c * blockdim, (c + 1) * blockdim)
        block[:, :, sl] = (block[:, :, sl] + w * S) % mod
        return block

    return np.concatenate([
        manin.weighted_sum(rel, add, np.zeros(
            (p - 1, blockdim, pres.ngens * blockdim), dtype=np.int64))
        for rel in pres.relations], axis=1)


def _coset_stratum(level, N, p, prec, T, d, X, reps):
    """manin.double_coset on stacked stratum-d coordinates.

    X is indexed (generator, tag, disc, moment, column); each column is
    one symbol's stratum-d part, and the result has the same layout.
    Every path matrix and every rep goes through _act_stratum's check;
    MAT_IOTA, of determinant -1, twists by the sign (-1)^b of the moment
    x^a y^b instead.
    """
    mod = p**prec

    def act(g, Y):
        return _act_stratum(g, Y, N, p, prec, T, d)

    def add(acc, c, g, w):
        return (acc + (w % mod) * act(g, X[c])) % mod

    def evaluate(D):
        return manin.weighted_sum(manin.divisor_terms(level, D), add,
                                  np.zeros_like(X[0]))

    sign = np.array([(-1) ** (d - n) for n in range(d + 1)],
                    dtype=np.int64)[:, None]

    def twist(acc, alpha, Y):
        moved = Y * sign if alpha == manin.MAT_IOTA else act(alpha, Y)
        return (acc + moved) % mod

    return np.stack(manin.double_coset(level, reps, evaluate, twist,
                                       lambda: np.zeros_like(X[0])))


def _apply_coset(sym, reps):
    """The double coset of reps on a symbol, stratum by stratum."""
    out = np.zeros_like(sym.data)
    for d in range(sym.T + 1):
        cols = list(_stratum_cols(sym.T, d))
        X = sym.data[..., cols, None]
        if X.any():
            out[..., cols] = _coset_stratum(sym.level, sym.N, sym.p, sym.prec,
                                            sym.T, d, X, reps)[..., 0]
    return sym._like(out)


class OCSpace:
    """Solved symbol space, basis grouped by moment stratum.

    data stacks the basis symbols' data along a leading basis axis, and
    each basis symbol's data is a read-only view of its row.
    """

    __slots__ = ("level", "N", "p", "prec", "T", "data", "basis", "strata",
                 "torsion")

    def __init__(self, level, N, p, prec, T, data, strata, torsion):
        _check_shape(level, N, p, prec, T, np.shape(data)[1:])
        self.level = level
        self.N = N
        self.p = p
        self.prec = prec
        self.T = T
        self.data = np.asarray(data, dtype=np.int64) % p**prec
        self.data.flags.writeable = False
        self.basis = tuple(OCSymbol._view(self, x) for x in self.data)
        self.strata = tuple(strata)
        self.torsion = tuple(torsion)

    @property
    def dimension(self):
        return len(self.basis)

    def stratum_indices(self, d):
        return [i for i, s in enumerate(self.strata) if s == d]

    def stratum_matrix(self, d):
        """Columns are the stratum-d flats of the stratum-d basis symbols."""
        idx = self.stratum_indices(d)
        block = self.data[idx][..., list(_stratum_cols(self.T, d))]
        return block.reshape(len(idx), -1).T

    def combination(self, coeffs):
        """The symbol sum_i coeffs[i] * basis[i]."""
        mod = self.p**self.prec
        coeffs = [int(c) % mod for c in coeffs]
        if not self.basis or len(coeffs) != self.dimension:
            raise OperandMismatch(f"{len(coeffs)} coefficients for a basis "
                                  f"of {self.dimension}")
        flat = matmul_mod(coeffs, self.data.reshape(self.dimension, -1), mod)
        return OCSymbol(self.level, self.N, self.p, self.prec, self.T,
                        flat.reshape(self.data.shape[1:]))


def solve_oc_space(Np, N, precision):
    """Exact solution space of the relations, per stratum and sector.

    precision = (prec, T): values mod p^prec with moments of total degree
    up to T.  Each sector block's kernel goes back to disc coordinates
    through the character table, and the union is Howell-reduced once per
    stratum; that basis is unique, so it is the basis of the full stratum
    matrix.  The returned basis symbols are stratum-supported and
    generate the full space; a nonzero torsion entry marks a generator
    only defined modulo a smaller power of p.
    """
    p = Np // N
    if N * p != Np or gcd(p, N) != 1:
        raise BadLevel(f"{Np} is not {N} times a prime coprime to {N}")
    prec, T = precision
    check_ring(("zpm", p, prec))
    mod = p**prec
    chars = _characters(p, prec)
    shape = (manin.presentation(Np).ngens, len(_units(N)), p - 1)
    blocks, strata, torsion = [], [], []
    for d in range(T + 1):
        rows = []
        for j, B in enumerate(_sector_relation_blocks(Np, N, p, prec, T, d)):
            for y in zpm_kernel(B, p, prec)[0]:
                x = y.reshape(shape[:2] + (1, d + 1)) * chars[j][:, None]
                rows.append((x % mod).reshape(-1))
        kernel, tors = zpm_span_basis(rows, prod(shape) * (d + 1), p,
                                      prec)
        for vec, v in zip(kernel, tors):
            blocks.append((d, vec.reshape(shape + (d + 1,))))
            strata.append(d)
            torsion.append(v)
    data = np.zeros((len(blocks),) + shape + (len(_pairs(T)[0]),),
                    dtype=np.int64)
    for i, (d, block) in enumerate(blocks):
        data[i][..., list(_stratum_cols(T, d))] = block
    return OCSpace(Np, N, p, prec, T, data, strata, torsion)


def oc_hecke_Tn(sym, n):
    return _apply_coset(sym, manin.hecke_reps(n, sym.level))


def oc_hecke_Up(sym):
    return oc_hecke_Tn(sym, sym.p)


def oc_hecke_Tll(sym, l):
    if gcd(l, sym.level) != 1:
        raise BadIndex(f"{l} must be coprime to the level {sym.level}")
    return _apply_coset(sym, [(l, 0, 0, l)])


def oc_involution(sym):
    """Phi|iota for iota = diag(1, -1)."""
    return _apply_coset(sym, [manin.MAT_IOTA])


def oc_sign_project(sym, sign):
    """(1 + sign * iota) / 2 applied to the symbol."""
    half = pow(2, -1, sym.p**sym.prec)
    flip = oc_involution(sym)
    if sign < 0:
        flip = flip.scale(-1)
    return (sym + flip).scale(half)


def disc_sector_project(sym, d):
    """Average of unit disc rotations on a stratum-d supported symbol.

    Rescaling the units by s acts on stratum d as s^d times a pure disc
    rotation; dividing the weight back out leaves the rotation, and
    averaging over s projects onto the rotation-invariant sector.
    Commutes with every Hecke operator and with the involution.  With
    s = 1 mod N the tags stay put; disc c reads disc s^-1 c, and the
    moment x^a y^b is weighted by s^(a + b - d).
    """
    p, N = sym.p, sym.N
    mod = p**sym.prec
    degrees = np.array([a + b - d for a, b in _pairs(sym.T)[0]])
    acc = np.zeros_like(sym.data)
    for c in range(1, p):
        s = crt(1, N, c, p) if N > 1 else c
        weight = np.array([pow(s, int(e), mod) for e in degrees],
                          dtype=np.int64)
        discs = [pow(s, -1, p) * x % p - 1 for x in range(1, p)]
        acc = (acc + sym.data.take(discs, axis=2) * weight) % mod
    return sym._like(acc * pow(p - 1, -1, mod))


def up_matrix(space, d, n=None):
    """Matrix of U_p (or T_n when n is given) on one stratum's basis.

    Operators are degree-homogeneous, so each stratum carries its own
    square matrix.  T_n acts once on all basis columns of the stratum.
    """
    idx = space.stratum_indices(d)
    if not idx:
        return np.zeros((0, 0), dtype=np.int64)
    p, N = space.p, space.N
    reps = manin.hecke_reps(p if n is None else n, space.level)
    A = space.stratum_matrix(d)
    X = A.reshape(-1, len(_units(N)), p - 1, d + 1, len(idx))
    img = _coset_stratum(space.level, N, p, space.prec, space.T, d, X,
                         reps).reshape(A.shape)
    cols = []
    for j in range(len(idx)):
        x = zpm_solve(A, img[:, j], p, space.prec)
        if x is None:
            raise OperandMismatch("Hecke image left the solved space")
        cols.append(x)
    return np.stack(cols, axis=1)


def charpoly_strata(space, dmax=None):
    """Product of per-stratum U_p characteristic polynomials.

    Restricting to strata <= dmax yields an honest divisor of the full
    characteristic polynomial, so the slopes it produces form a
    sub-multiset of the full slope multiset.
    """
    mod = space.p**space.prec
    poly = [1]
    for d in range(space.T + 1):
        if dmax is not None and d > dmax:
            continue
        B = up_matrix(space, d)
        if B.shape[0]:
            poly = poly_mul_mod(poly, berkowitz_charpoly(B, mod), mod)
    return poly


def newton_slopes(charpoly, p, prec):
    """Slope multiset of the reversed-series polygon, capped at precision.

    charpoly is [1, c_{n-1}, ..., c_0] for det(X - U); its i-th entry is
    also the degree-i coefficient of det(1 - XU), whose polygon from the
    origin has the eigenvalue valuations as slopes.  A coefficient that
    vanishes mod p^prec only bounds its valuation below, so any slope
    reaching such a point is reported capped at prec.
    """
    n = len(charpoly) - 1
    pts = [(i, valuation(charpoly[i], p, prec)) for i in range(n + 1)]
    hull = lower_convex_hull(pts)
    slopes = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        s = Fraction(y1 - y0, x1 - x0)
        if s >= prec:
            s = Fraction(prec)
        slopes.extend([s] * (x1 - x0))
    return sorted(slopes), list(hull)


# ---------------------------------------------------------------------------
# polynomial helpers over Z / p^M, ascending coefficient lists


def _padd(a, b, mod):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [(x + y) % mod for x, y in zip(a, b)]


def _pscale(a, s, mod):
    return [(x * s) % mod for x in a]


def _ptrim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _pquo_rem(a, b, mod):
    """Division with remainder by a monic polynomial."""
    assert b[-1] == 1
    a = [x % mod for x in a]
    if len(a) < len(b):
        return [0], _ptrim(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] % mod
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % mod
    return _ptrim(q), _ptrim(a[:len(b) - 1] or [0])


def _bezout_mod_p(a, b, p):
    """s, t with s a + t b = 1 over F_p, deg s < deg b and deg t < deg a.

    a and b are coprime; extended Euclid on the coefficient lists.  The
    degree bounds make the pair unique.
    """
    r0, r1 = _ptrim([x % p for x in a]), _ptrim([x % p for x in b])
    s0, s1, t0, t1 = [1], [0], [0], [1]
    while r1 != [0]:
        inv = pow(r1[-1], -1, p)
        q, r = _pquo_rem(r0, _pscale(r1, inv, p), p)
        minus_q = _pscale(q, -inv, p)   # r0 = -minus_q r1 + r
        r0, r1 = r1, r
        s0, s1 = s1, _ptrim(_padd(s0, poly_mul_mod(minus_q, s1, p), p))
        t0, t1 = t1, _ptrim(_padd(t0, poly_mul_mod(minus_q, t1, p), p))
    assert len(r0) == 1, "polynomials are not coprime"
    inv = pow(r0[0], -1, p)
    return _pscale(s0, inv, p), _pscale(t0, inv, p)


def _hensel_pair(f, g0, h0, s0, t0, p, prec):
    """Lift f = g h, s g + t h = 1 from mod p to mod p^prec.

    g and h monic with deg f = deg g + deg h; quadratic steps.
    """
    g, h, s, t = (list(map(int, v)) for v in (g0, h0, s0, t0))
    m = p
    while m < p**prec:
        m = min(m * m, p**prec)
        e = _padd(f, _pscale(poly_mul_mod(g, h, m), -1, m), m)
        q, r = _pquo_rem(poly_mul_mod(s, e, m), h, m)
        g = _ptrim(_padd(_padd(g, poly_mul_mod(t, e, m), m),
                         poly_mul_mod(q, g, m), m))
        h = _ptrim(_padd(h, r, m))
        b = _padd(_padd(poly_mul_mod(s, g, m), poly_mul_mod(t, h, m), m),
                  [m - 1], m)
        c, dd = _pquo_rem(poly_mul_mod(s, b, m), h, m)
        s = _ptrim(_padd(s, _pscale(dd, -1, m), m))
        t = _ptrim(_padd(_padd(t, _pscale(poly_mul_mod(t, b, m), -1, m), m),
                         _pscale(poly_mul_mod(c, g, m), -1, m), m))
    assert g[-1] == 1 and h[-1] == 1
    return g, h, s, t


def _poly_eval_matrix(coeffs, matrix, mod):
    """Evaluate an ascending-coefficient polynomial at a matrix, Horner."""
    n = matrix.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    matrix = np.asarray(matrix, dtype=object)
    for c in reversed(coeffs):
        out = np.asarray((np.asarray(out, dtype=object) @ matrix) % mod,
                         dtype=np.int64)
        cc = int(c) % mod
        if cc:
            out = (out + cc * eye) % mod
    return out


def slope_projector(matrix, p, prec, h=0):
    """Idempotent onto the slope <= h part of the operator, exact mod p^prec.

    Factors the characteristic polynomial as (non-unit-root part) times
    (unit-root part) by Hensel lifting from the residue field, then
    evaluates the Bezout complement at the matrix.  Only h = 0 has a
    canonical integral splitting at every precision; asking for more
    raises SlopeGapUnresolvable.
    """
    if h != 0:
        raise SlopeGapUnresolvable(
            f"no canonical splitting separates slope {h} from above at "
            f"precision {prec}; only h = 0 is supported")
    mod = p**prec
    n = matrix.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    cp = berkowitz_charpoly(matrix, mod)
    f = [int(c) % mod for c in reversed(cp)]
    fp = [c % p for c in f]
    a = 0
    while a <= n and fp[a] == 0:
        a += 1
    if a == 0:
        return np.eye(n, dtype=np.int64)
    if a > n:
        return np.zeros((n, n), dtype=np.int64)
    qb = fp[a:]
    rb = [0] * a + [1]
    s0, t0 = _bezout_mod_p(rb, qb, p)
    g_, h_, s_, t_ = _hensel_pair(f, rb, qb, s0, t0, p, prec)
    # s g + t h = 1 and f(U) = 0, so (s g)(U) is the identity on the
    # unit-root kernel of h(U) and zero on the complement
    return _poly_eval_matrix(poly_mul_mod(s_, g_, mod), matrix, mod)


class SlopeData:
    """Characteristic data of U_p at one precision, JSON-exportable."""

    __slots__ = ("p", "prec", "charpoly", "vertices", "slopes")

    def __init__(self, p, prec, charpoly):
        self.p = p
        self.prec = prec
        self.charpoly = [int(c) for c in charpoly]
        self.slopes, self.vertices = newton_slopes(self.charpoly, p, prec)

    def to_json(self):
        return {
            "p": self.p,
            "precision": self.prec,
            "charpoly": self.charpoly,
            "newton_vertices": [[int(x), int(y)] for x, y in self.vertices],
            "slopes": [[s.numerator, s.denominator] for s in self.slopes],
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))


def specialize_symbol(sym, kappa):
    """Generator-wise projection to the classical weight-k symbol space."""
    vals = [specialize(gen, kappa, sym.N, sym.p, sym.prec, sym.T)
            for gen in sym.data]
    return ModularSymbol(sym.level, kappa.k, kappa.chi,
                         ("zpm", sym.p, sym.prec), vals)


def classical_to_zpm(phi, p, prec):
    """Reduce an integral classical symbol into the mod p^prec model."""
    vals = []
    for v in phi.values:
        ints = [int(x) for x in v.coeffs]
        vals.append(SymPoly(phi.level, phi.k, ints, phi.chi, v.side,
                            ("zpm", p, prec)))
    return ModularSymbol(phi.level, phi.k, phi.chi, ("zpm", p, prec), vals)


def _leading_unit_index(flatvec, p):
    for i, x in enumerate(flatvec):
        if int(x) % p:
            return i
    return None


def lift_eigensymbol(space, phi, alpha, kappa, sign=-1, n_iter=None,
                     perturb=None, target_loss=2):
    """Lift a classical U_p eigensymbol into the solved moment space.

    Seeds a stratum-k preimage of phi under specialization, then iterates
    alpha^{-1} U_p composed with the sign and disc-sector projections;
    every component off the target eigenline either lies in a
    projected-away sector or carries positive relative slope and decays.
    Requires the non-critical condition v_p(alpha) < k + 1.  Returns the
    stratum-supported eigensymbol, scaled so its first unit coordinate is
    1, together with the achieved residual valuation.
    """
    p, prec = space.p, space.prec
    mod = p**prec
    k = kappa.k
    if valuation(alpha, p, prec) >= k + 1:
        raise CriticalSlope(
            f"v_p({alpha}) >= {k + 1} is critical at weight {k}")
    ainv = pow(int(alpha) % mod, -1, mod)
    phi_z = phi if phi.ring != "Q" else classical_to_zpm(phi, p, prec)

    idx = space.stratum_indices(k)
    if not idx:
        raise DegreeMismatch(f"no basis symbol of moment degree {k}")
    S = np.stack(
        [np.array([int(c) for c in
                   specialize_symbol(space.basis[i], kappa).coords()],
                  dtype=np.int64) for i in idx], axis=1)
    target = np.array([int(c) for c in phi_z.coords()], dtype=np.int64)
    x = zpm_solve(S, target, p, prec)
    if x is None:
        raise OperandMismatch(
            "classical symbol is not in the specialization image")
    coeffs = np.zeros(space.dimension, dtype=np.int64)
    coeffs[idx] = x
    seed = space.combination(coeffs)
    if perturb is not None:
        seed = seed + perturb
    if n_iter is None:
        n_iter = 2 * (prec + 2)
    y = seed
    for _ in range(n_iter):
        y = oc_hecke_Up(y).scale(ainv)
        y = oc_sign_project(y, sign)
        y = disc_sector_project(y, k)
    residual = oc_hecke_Up(y) - y.scale(int(alpha) % mod)
    res_val = min((valuation(v, p, prec) for v in residual.flat()),
                  default=prec)
    if res_val < prec - target_loss:
        raise NoConvergence(
            f"iteration stalled: residual valuation {res_val} < "
            f"{prec - target_loss}")
    lead = _leading_unit_index(y.flat(), p)
    if lead is not None:
        y = y.scale(pow(int(y.flat()[lead]) % mod, -1, mod))
    return y, res_val


def hecke_eigenvalue(sym, n, loss=2):
    """Scalar of T_n on an eigensymbol, verified against the residual."""
    p, prec = sym.p, sym.prec
    mod = p**prec
    img = oc_hecke_Tn(sym, n)
    flat = sym.flat()
    lead = _leading_unit_index(flat, p)
    if lead is None:
        raise NotEigen("symbol has no unit coordinate")
    lam = (int(img.flat()[lead]) * pow(int(flat[lead]), -1, mod)) % mod
    residual = img - sym.scale(lam)
    res_val = min((valuation(v, p, prec) for v in residual.flat()),
                  default=prec)
    if res_val < prec - loss:
        raise NotEigen(f"residual valuation {res_val} below {prec - loss}")
    return lam
