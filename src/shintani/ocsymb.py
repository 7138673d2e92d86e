"""Overconvergent modular symbols with moment-distribution values.

The value module is graded by total moment degree and every operator in
sight (the congruence group, Hecke sums, the involution) is homogeneous,
so the solution space, the U_p matrix and the slope theory all decompose
stratum by stratum.  Linear algebra happens per stratum; a general symbol
is a sum of stratum-supported pieces, added and scaled as arrays mod p^M.

The disc axis carries the regular representation of (Z/p)^x, whose
characters omega^j are defined over Z/p^M (D(Z_p^x) = sum_j omega^j
D(1 + pZ_p), as in Stevens' rigid analytic modular symbols), so each
stratum splits into p - 1 Teichmuller sectors.  The relations are solved,
and every Hecke operator is applied, one sector block at a time; both
build the sector blocks of a call's distinct path matrices from one
``_sym_blocks`` batch and sum them with ``dist._fold``.  The solve first
eliminates the generators whose relation block is an identity pivot.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import numpy as np

from . import manin
from .arith import ExactValue, valuation
from .cosets import _units
from .dist import (_act_blocks, _at_weight, _check_s0, _fold, _indexed_terms,
                   _pairs, _stratum_cols, _sym_blocks, specialize)
from .errors import (
    BadIndex,
    BadLevel,
    CriticalSlope,
    DegreeMismatch,
    NoConvergence,
    NotEigen,
    OperandMismatch,
    PrecisionMismatch,
)
from .linalg import (
    _check_kernel_bounds,
    berkowitz_charpoly,
    lower_convex_hull,
    matmul_mod,
    poly_mul_mod,
    zpm_block_kernel,
    zpm_solve,
    zpm_span_basis,
)
from .modsym import ModularSymbol, check_ring


class OCSymbol(ExactValue):
    """Generator values in the tagged two-variable distribution module.

    data is one read-only int64 array indexed (generator, tag, disc,
    moment), reduced mod p^prec: tags run over the units mod N, discs over
    1..p-1 and moments over the (a, b) of dist._pairs(T).
    """

    __slots__ = ("level", "N", "p", "prec", "T", "data")
    _mismatch = PrecisionMismatch

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

    def _key(self):
        return (self.N, self.p, self.prec, self.T)

    def _state(self):
        return self.data.tolist()

    def _like(self, data):
        return OCSymbol(self.level, self.N, self.p, self.prec, self.T, data)

    def _add(self, other):
        return self._like(self.data + other.data)

    def scale(self, r):
        return self._like(self.data * (int(r) % self.p**self.prec))

    def is_zero(self):
        return not self.data.any()

    def flat(self):
        """Concatenated moment vector: generator, tag, disc, (a, b) order."""
        return self.data.reshape(-1)

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


def _sector_blocks(gs, V, N, p, prec):
    """Sector blocks (g, sector, (tag, moment), (tag, moment)) of reduced
    matrices gs with Sym^d blocks V.  Reading disc a^-1 c multiplies
    c -> omega^j(c) by omega^j(a)^-1, so sector j of g is omega^j(a)^-1
    times the _sources tag gather tensor its block.
    """
    n, k, ntags = len(V), V.shape[1], len(_units(N))
    tsrc = np.array([_sources(g, N, p)[0] for g in gs],
                    dtype=np.int64).reshape(n, ntags)
    twist = _characters(p, prec)[:, [pow(g[0], -1, p) - 1 for g in gs]].T
    out = np.zeros((n, p - 1, ntags, k, ntags, k), dtype=np.int64)
    # every twist * block entry is below (p^prec)^2 < 2^56
    out[np.arange(n)[:, None], :, np.arange(ntags), :, tsrc] = (
        twist[:, None, :, None, None] * V[:, None, None] % p**prec)
    return out.reshape(n, p - 1, ntags * k, ntags * k)


@lru_cache(maxsize=4096)
def _stratum_action_matrix(g, N, p, prec, T, d):
    """The one-matrix _sector_blocks, on the cached _act_blocks."""
    V = _act_blocks(g, p, prec, T)[d]
    return _sector_blocks([g], V[None], N, p, prec)[0]


def _term_blocks(groups, ngens, N, p, prec, d):
    """Each group's sum_(c, g, w) w * x_c|g on stratum d as sector blocks
    (sector, group, (tag, moment), (generator, tag, moment)), from one
    _sym_blocks batch of the distinct path matrices."""
    rows, gs = _indexed_terms(groups, N * p, p**prec)
    S = _sector_blocks(gs, _sym_blocks(gs, [d], p**prec)[d], N, p, prec)
    return _fold(rows, S, 0, len(groups), ngens, p**prec)


@lru_cache(maxsize=64)
def _coset_blocks(level, N, p, prec, T, d, reps):
    """The double coset of reps on stratum d, one read-only block per sector.

    Block j acts on (generator, tag, moment); its block row b is the sum
    over alpha of S_j(alpha) E_j(alpha . base_b), E folded one base at a
    time from one _sym_blocks batch of all path matrices, and S from
    _stratum_action_matrix: for MAT_IOTA, the one rep checked against no
    semigroup, that is the moment sign (-1)^(d - n) of x^n y^(d - n).  At
    most 64 are kept, of (p - 1) (ngens phi(N) (d + 1))^2 entries each.
    """
    for alpha in set(reps) - {manin.MAT_IOTA}:
        _check_s0(alpha, level)
    ngens, mod, k = manin.presentation(level).ngens, p**prec, len(reps)
    S = np.stack([_stratum_action_matrix(alpha, N, p, prec, T, d)
                  for alpha in reps], axis=1)
    rows, gs = _indexed_terms(manin.coset_terms(level, reps), level, mod)
    paths = _sector_blocks(gs, _sym_blocks(gs, [d], mod)[d], N, p, prec)
    folds = (_fold(rows, paths, b * k, k, ngens, mod) for b in range(ngens))
    op = np.concatenate([matmul_mod(S, E, mod).sum(axis=1) % mod
                         for E in folds], axis=1)
    op.flags.writeable = False
    return op


def _apply_coset(space, X, reps):
    """The double coset of reps on data X of space, stratum by stratum.

    space is a symbol or an OCSpace, for its N, p, prec and T.  X is
    indexed (..., generator, tag, disc, moment), one symbol or a stack of
    them, and so is the result.  On each stratum the inverse character
    table maps discs to sectors, each sector takes one product with its
    _coset_blocks block, and the table maps back.
    """
    N, p, prec, T = space.N, space.p, space.prec, space.T
    mod, chars = p**prec, _characters(p, prec)
    # row j of the inverse table is omega^-j / (p - 1) = omega^(p-1-j) / (p - 1)
    to_sectors = chars[-np.arange(p - 1) % (p - 1)] * pow(p - 1, -1, mod) % mod
    out = np.zeros_like(X)
    for d in range(T + 1):
        cols = list(_stratum_cols(T, d))
        # (disc, ..., generator, tag, moment); the blocks act from the right
        discs = np.moveaxis(X[..., cols], -2, 0)
        if not discs.any():
            continue
        op = _coset_blocks(N * p, N, p, prec, T, d, tuple(reps))
        sectors = matmul_mod(to_sectors, discs.reshape(p - 1, -1), mod)
        images = matmul_mod(sectors.reshape(p - 1, -1, op.shape[2]),
                            op.transpose(0, 2, 1), mod)
        back = matmul_mod(chars.T, images.reshape(p - 1, -1), mod)
        out[..., cols] = np.moveaxis(back.reshape(discs.shape), 0, -2)
    return out


class OCSpace:
    """Solved symbol space, basis grouped by moment stratum.

    data stacks the basis symbols' data, read-only, along a leading basis
    axis; strata and torsion run along the same axis.
    """

    __slots__ = ("level", "N", "p", "prec", "T", "data", "strata", "torsion")

    def __init__(self, level, N, p, prec, T, data, strata, torsion):
        _check_shape(level, N, p, prec, T, np.shape(data)[1:])
        self.level = level
        self.N = N
        self.p = p
        self.prec = prec
        self.T = T
        self.data = np.asarray(data, dtype=np.int64) % p**prec
        self.data.flags.writeable = False
        self.strata = tuple(strata)
        self.torsion = tuple(torsion)

    @property
    def dimension(self):
        return len(self.strata)

    def stratum_indices(self, d):
        return [i for i, s in enumerate(self.strata) if s == d]

    def stratum_matrix(self, d):
        """Columns are the stratum-d flats of the stratum-d basis symbols."""
        idx = self.stratum_indices(d)
        block = self.data[idx][..., list(_stratum_cols(self.T, d))]
        return block.reshape(len(idx), -1).T

    def combination(self, coeffs):
        """The symbol with data sum_i coeffs[i] * data[i]."""
        mod = self.p**self.prec
        coeffs = [int(c) % mod for c in coeffs]
        if not self.dimension or len(coeffs) != self.dimension:
            raise OperandMismatch(f"{len(coeffs)} coefficients for a basis "
                                  f"of {self.dimension}")
        flat = matmul_mod(coeffs, self.data.reshape(self.dimension, -1), mod)
        return OCSymbol(self.level, self.N, self.p, self.prec, self.T,
                        flat.reshape(self.data.shape[1:]))


@lru_cache(maxsize=1)
def solve_oc_space(Np, N, precision):
    """Exact solution space of the relations, per stratum and sector.

    precision = (prec, T): values mod p^prec with moments of total degree
    up to T.  zpm_block_kernel solves each sector block after it
    eliminates the generators whose relation still starts with an
    identity block.  The kernels go back to disc coordinates through the
    character table, and the union is Howell-reduced once per stratum;
    that basis is unique, so it is the basis of the full stratum matrix.
    The returned basis symbols are stratum-supported and generate the
    full space; a nonzero torsion entry marks a generator only defined
    modulo a smaller power of p.  The space is immutable, so the last one
    solved is cached and shared.
    """
    p = Np // N
    if N * p != Np or gcd(p, N) != 1:
        raise BadLevel(f"{Np} is not {N} times a prime coprime to {N}")
    prec, T = precision
    check_ring(("zpm", p, prec))
    mod = p**prec
    chars = _characters(p, prec)
    pres = manin.presentation(Np)
    shape = (pres.ngens, len(_units(N)), p - 1)
    pivots = [group[0][0] for group in pres.relations]
    blocks, strata, torsion = [], [], []
    for d in range(T + 1):
        rel = _term_blocks(pres.relations, pres.ngens, N, p, prec, d)
        W = rel.reshape(rel.shape[:3] + (pres.ngens, -1))
        rows, width = [], prod(shape) * (d + 1)
        for j, Y in enumerate(zpm_block_kernel(W, pivots, p, prec)):
            X = Y.reshape((-1,) + shape[:2] + (1, d + 1)) * chars[j][:, None]
            rows.extend(X.reshape(-1, width) % mod)
        kernel, tors = zpm_span_basis(rows, width, p, prec)
        blocks.extend(vec.reshape(shape + (d + 1,)) for vec in kernel)
        strata.extend([d] * len(kernel))
        torsion.extend(tors)
    data = np.zeros((len(blocks),) + shape + (len(_pairs(T)[0]),),
                    dtype=np.int64)
    for i, (d, block) in enumerate(zip(strata, blocks)):
        data[i][..., list(_stratum_cols(T, d))] = block
    return OCSpace(Np, N, p, prec, T, data, strata, torsion)


def oc_hecke_Tn(sym, n):
    return sym._like(_apply_coset(sym, sym.data,
                                  manin.hecke_reps(n, sym.level)))


def oc_hecke_Up(sym):
    return oc_hecke_Tn(sym, sym.p)


def oc_hecke_Tll(sym, l):
    if gcd(l, sym.level) != 1:
        raise BadIndex(f"{l} must be coprime to the level {sym.level}")
    return sym._like(_apply_coset(sym, sym.data, [(l, 0, 0, l)]))


def oc_involution(sym):
    """Phi|iota for iota = diag(1, -1)."""
    return sym._like(_apply_coset(sym, sym.data, [manin.MAT_IOTA]))


def oc_sign_project(sym, sign):
    """(1 + sign * iota) / 2 applied to the symbol, for sign 1 or -1."""
    if sign not in (1, -1):
        raise BadIndex(f"sign must be 1 or -1, got {sign!r}")
    half = pow(2, -1, sym.p**sym.prec)
    return (sym + oc_involution(sym).scale(sign)).scale(half)


def character_project(sym, kappa):
    """Projection onto the part of kappa's character chi = chi_N chi_p.

    On stratum d, averaging chi(s) s^-d times the unit s (tag t reads
    s^-1 t, disc c reads s^-1 c) over s mod N p sends x to (t, c) ->
    chi_N(t) chi_p(c) A / (phi(N) (p - 1)), A = dist._at_weight(x).  Taken
    on every stratum, that is idempotent (chi = +-1 on units) and commutes
    with every double coset and the involution, which rotate tags and
    discs by their upper-left entry and leave the moments alone.  Raises
    BadLevel when p divides phi(N) (p - 1).
    """
    N, p, mod = sym.N, sym.p, sym.p**sym.prec
    size = len(_units(N)) * (p - 1)
    if size % p == 0:
        raise BadLevel(f"{p} divides phi({N}) ({p} - 1)")
    chars = np.multiply.outer([kappa.chi_N(t) for t in _units(N)],
                              [kappa.chi_p(c) for c in range(1, p)])
    # A is reduced first, so A times the inverse stays below (p^prec)^2
    A = _at_weight(sym.data, kappa, N, p) % mod * pow(size, -1, mod) % mod
    return sym._like(chars[..., None] * A[..., None, None, :])


def up_matrix(space, d):
    """Matrix of U_p on one stratum's basis.

    Operators are degree-homogeneous, so each stratum carries its own
    square matrix.  U_p's cached sector blocks act on all basis symbols of
    the stratum at once, and one zpm_solve solves them all.  B is the
    solution the Howell basis of ker[A | y] picks for each image y; where
    ker A != 0, every B + K C also represents the operator, and its
    characteristic polynomial can differ.
    """
    idx = space.stratum_indices(d)
    if not idx:
        return np.zeros((0, 0), dtype=np.int64)
    reps = manin.hecke_reps(space.p, space.level)
    img = _apply_coset(space, space.data[idx], reps)
    img = img[..., list(_stratum_cols(space.T, d))].reshape(len(idx), -1).T
    B = zpm_solve(space.stratum_matrix(d), img, space.p, space.prec)
    if B is None:
        raise OperandMismatch("Hecke image left the solved space")
    return B


def charpoly_strata(space):
    """Product of per-stratum U_p characteristic polynomials."""
    mod = space.p**space.prec
    poly = [1]
    for d in range(space.T + 1):
        B = up_matrix(space, d)
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
        s = min(Fraction(y1 - y0, x1 - x0), Fraction(prec))
        slopes.extend([s] * (x1 - x0))
    return sorted(slopes), list(hull)


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
    coords = specialize(sym.data, kappa, sym.N, sym.p, sym.prec, sym.T)
    return ModularSymbol(sym.level, kappa.k, kappa.chi,
                         ("zpm", sym.p, sym.prec), coords.reshape(-1).tolist())


def classical_to_zpm(phi, p, prec):
    """Reduce a classical symbol, p-integral, into the mod p^prec model."""
    return ModularSymbol(phi.level, phi.k, phi.chi, ("zpm", p, prec),
                         phi.coords())


def _leading_unit_index(flatvec, p):
    return next((i for i, x in enumerate(flatvec) if int(x) % p), None)


# p-adic digits a finite-precision check may lose: Hecke eigenvalues and
# lifting.verify_interpolation hold mod p^(prec - LOSS)
LOSS = 2


def lift_eigensymbol(space, phi, alpha, kappa, sign=-1):
    """Lift a classical U_p eigensymbol into the solved moment space.

    Seeds a stratum-k preimage of phi under specialization and projects it
    onto the sign and with character_project P, once.  The result y is an
    eigensymbol mod p^prec exactly: P commutes with U_p and the involution,
    specialize . P = specialize (chi^2 = 1 on units), and on the image of P
    in stratum k specialization is injective, P x being determined by the
    A it reads; so specialize(U_p y - alpha y), which is U_p - alpha on
    phi's sign part, is 0, and U_p y = alpha y.  Requires alpha a unit mod
    p.  Returns y, scaled so its first unit coordinate is 1, and the
    residual valuation prec; raises NoConvergence unless U_p y = alpha y
    and y specializes to a unit multiple of phi (phi needs a unit
    coordinate) mod p^prec, so a zero lift is never returned.  phi lives
    over Q or over Z/p^m with m >= prec, at the space's level and kappa's
    weight and character.
    """
    p, prec, N, T, k = space.p, space.prec, space.N, space.T, kappa.k
    mod = p**prec
    if phi.ring != "Q" and (phi.ring[1] != p or phi.ring[2] < prec):
        raise PrecisionMismatch(f"a symbol over {phi.ring} does not reduce "
                                f"to Z/{p}^{prec}")
    if int(alpha) % p == 0:
        raise CriticalSlope(f"v_p({alpha}) > 0: the lift needs a unit alpha")
    if phi.level != space.level:
        raise BadLevel(f"phi has level {phi.level}, the space {space.level}")
    if phi.k != k:
        raise DegreeMismatch(f"phi has weight {phi.k}, kappa weight {k}")
    if any(phi.chi(a) != kappa.chi(a) for a in _units(space.level)):
        raise OperandMismatch("phi and kappa differ in character")

    idx = space.stratum_indices(k)
    if not idx:
        raise DegreeMismatch(f"no basis symbol of moment degree {k}")
    S = specialize(space.data[idx], kappa, N, p, prec, T)
    S = S.reshape(len(idx), -1).T
    target = np.array(classical_to_zpm(phi, p, prec).coords(),
                      dtype=np.int64)
    x = zpm_solve(S, target, p, prec)
    if x is None:
        raise OperandMismatch(
            "classical symbol is not in the specialization image")
    coeffs = np.zeros(space.dimension, dtype=np.int64)
    coeffs[idx] = x
    y = character_project(oc_sign_project(space.combination(coeffs), sign),
                          kappa)
    residual = (oc_hecke_Up(y) - y.scale(int(alpha) % mod)).flat()
    if residual.any():
        raise NoConvergence(f"U_p y - alpha y has valuation "
                            f"{min(valuation(v, p, prec) for v in residual)}"
                            f" < {prec}")
    spec = specialize(y.data, kappa, N, p, prec, T).reshape(-1)
    i = _leading_unit_index(spec, p)
    if i is None or target[i] % p == 0 or (
            (spec * target[i] - target * spec[i]) % mod).any():
        raise NoConvergence(f"the lift does not specialize to a unit "
                            f"multiple of phi mod {p}^{prec}")
    # y has a unit coordinate, since its specialization has one
    lead = _leading_unit_index(y.flat(), p)
    return y.scale(pow(int(y.flat()[lead]) % mod, -1, mod)), prec


def hecke_eigenvalue(sym, n):
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
    if res_val < prec - LOSS:
        raise NotEigen(f"residual valuation {res_val} below {prec - LOSS}")
    return lam
