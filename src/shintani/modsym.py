"""Modular symbols with polynomial values and their Hecke theory.

Values live in one of two weight-k modules over the base ring:

* side "L": coefficients in the divided basis X^i Y^(k-i) / (i! (k-i)!),
  matrix action twisted by chi(upper-left);
* side "Lstar": plain monomial coefficients, twisted by chi(lower-right).

The two sides pair to the base ring, and the pairing is invariant under
the level-M group.  Base rings are exact: "Q" (Fraction coefficients) or
("zpm", p, prec) with p >= 5.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul

import numpy as np
import sympy

from .arith import RationalCusp, mat_det
from .cosets import p1_classes
from .errors import (
    BadCharacteristic,
    BadIndex,
    BadSemigroupElement,
    DegreeMismatch,
    OperandMismatch,
    TwoNotInvertible,
)
from .linalg import (
    _check_kernel_bounds,
    frac_nullspace,
    frac_rref,
    frac_solve,
    zpm_kernel,
)
from . import manin


def ring_is_zpm(ring):
    return isinstance(ring, tuple) and ring[0] == "zpm"


@lru_cache(maxsize=None)
def check_ring(ring):
    if ring == "Q":
        return
    if ring_is_zpm(ring):
        _, p, prec = ring
        if p < 5 or not sympy.isprime(p) or prec < 1:
            raise BadCharacteristic(f"need Z/p^M with prime p >= 5, got {ring}")
        _check_kernel_bounds(p, prec)
        return
    raise BadCharacteristic(f"unsupported coefficient ring {ring!r}")


def ring_reduce(ring, x):
    if ring == "Q":
        return x if isinstance(x, Fraction) else Fraction(x)
    _, p, prec = ring
    return int(x) % p**prec


def ring_half(ring):
    """1/2 in the ring; the involution split needs it."""
    if ring == "Q":
        return Fraction(1, 2)
    _, p, prec = ring
    if p == 2:
        raise TwoNotInvertible(f"2 is not a unit in Z/{p}^{prec}")
    return pow(2, -1, p**prec)


@lru_cache(maxsize=None)
def _act_matrix_L(g, k):
    """Divided-basis matrix of F -> F((X,Y) adj(g)), rows j, cols i."""
    a, b, c, d = g
    rows = []
    for j in range(k + 1):
        row = []
        for i in range(k + 1):
            s_lo = max(0, i + j - k)
            s_hi = min(i, j)
            tot = 0
            for s in range(s_lo, s_hi + 1):
                tot += (comb(j, s) * comb(k - j, i - s)
                        * d**s * (-c) ** (i - s) * (-b) ** (j - s)
                        * a ** (k - i - j + s))
            row.append(tot)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _act_matrix_Lstar(g, k):
    """Monomial-basis matrix of the same substitution, rows m, cols n."""
    a, b, c, d = g
    rows = []
    for m in range(k + 1):
        row = []
        for n in range(k + 1):
            s_lo = max(0, m - (k - n))
            s_hi = min(n, m)
            tot = 0
            for s in range(s_lo, s_hi + 1):
                tot += (comb(n, s) * comb(k - n, m - s)
                        * d**s * (-c) ** (n - s) * (-b) ** (m - s)
                        * a ** (k - n - m + s))
            row.append(tot)
        rows.append(tuple(row))
    return tuple(rows)


def _check_semigroup(g, level):
    """Refuse g unless it acts at this level: det > 0, c = 0 mod level, a a unit."""
    a, _, c, _ = g
    if mat_det(g) <= 0:
        raise BadSemigroupElement(f"determinant of {g} is not positive")
    if c % level != 0:
        raise BadSemigroupElement(f"{g} is not upper triangular mod {level}")
    if gcd(a, level) != 1:
        raise BadSemigroupElement(f"upper-left of {g} shares a factor with {level}")


class SymPoly:
    """A weight-k coefficient vector on one side of the pairing."""

    __slots__ = ("level", "k", "coeffs", "chi", "side", "ring")

    def __init__(self, level, k, coeffs, chi, side="L", ring="Q"):
        check_ring(ring)
        if side not in ("L", "Lstar"):
            raise ValueError(f"side must be 'L' or 'Lstar', got {side!r}")
        if len(coeffs) != k + 1:
            raise DegreeMismatch(f"degree {k} needs {k + 1} coefficients")
        self.level = level
        self.k = k
        self.coeffs = tuple(ring_reduce(ring, x) for x in coeffs)
        self.chi = chi
        self.side = side
        self.ring = ring

    def _compat(self, other):
        if ((self.level, self.k, self.side, self.ring, self.chi) !=
                (other.level, other.k, other.side, other.ring, other.chi)):
            raise OperandMismatch(f"{self!r} and {other!r} do not add")

    def zero_like(self):
        return SymPoly(self.level, self.k, (0,) * (self.k + 1),
                       self.chi, self.side, self.ring)

    def __add__(self, other):
        self._compat(other)
        return SymPoly(self.level, self.k,
                       [x + y for x, y in zip(self.coeffs, other.coeffs)],
                       self.chi, self.side, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, r):
        return SymPoly(self.level, self.k, [r * x for x in self.coeffs],
                       self.chi, self.side, self.ring)

    def is_zero(self):
        return all(x == 0 for x in self.coeffs)

    def act(self, g):
        """Right weight action by g with positive determinant.

        g must have lower-left divisible by the level and upper-left
        coprime to it; the character factor is chi(a) on side L and
        chi(d) on side Lstar.
        """
        a, b, c, d = g
        _check_semigroup(g, self.level)
        if self.side == "L":
            mat = _act_matrix_L(g, self.k)
            factor = self.chi(a)
        else:
            mat = _act_matrix_Lstar(g, self.k)
            factor = self.chi(d)
        out = [factor * sum(mat[j][i] * self.coeffs[i] for i in range(self.k + 1))
               for j in range(self.k + 1)]
        return SymPoly(self.level, self.k, out, self.chi, self.side, self.ring)

    def act_involution(self):
        """Weight action of diag(1,-1); determinant -1 needs its own path."""
        if self.side == "L":
            out = [x if i % 2 == 0 else -x for i, x in enumerate(self.coeffs)]
        else:
            f = self.chi(-1)
            out = [f * x if n % 2 == 0 else -f * x
                   for n, x in enumerate(self.coeffs)]
        return SymPoly(self.level, self.k, out, self.chi, self.side, self.ring)

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return (self.level, self.k, self.side, self.ring, self.chi,
                self.coeffs) == (other.level, other.k, other.side,
                                 other.ring, other.chi, other.coeffs)

    def __hash__(self):
        return hash((self.level, self.k, self.side, self.coeffs))

    def __repr__(self):
        return f"SymPoly(k={self.k}, side={self.side}, {list(self.coeffs)})"


def pairing(F, P):
    """Pair a side-L vector against a side-Lstar vector of equal degree."""
    if F.k != P.k:
        raise DegreeMismatch(f"degrees {F.k} and {P.k} do not pair")
    if F.side != "L" or P.side != "Lstar":
        raise ValueError("pairing takes (L, Lstar) in that order")
    k = F.k
    tot = sum((-1) ** i * F.coeffs[i] * P.coeffs[k - i] for i in range(k + 1))
    return ring_reduce(F.ring, tot)


def dirac_poly(a, b, k, level, chi, ring="Q"):
    """(aY - bX)^k / k! on side L; pairs with P to give P(a, b)."""
    coeffs = [(-b) ** i * a ** (k - i) for i in range(k + 1)]
    return SymPoly(level, k, coeffs, chi, "L", ring)


class Divisor0:
    """Degree-zero divisor on the rational cusps, stored sorted."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        merged = {}
        for cusp, mult in pairs:
            if not isinstance(cusp, RationalCusp):
                cusp = RationalCusp(*cusp) if isinstance(cusp, tuple) else RationalCusp(cusp)
            if mult:
                merged[cusp] = merged.get(cusp, 0) + mult
        items = [(c, m) for c, m in merged.items() if m != 0]
        if sum(m for _, m in items) != 0:
            raise DegreeMismatch("divisor must have degree zero")
        items.sort(key=lambda cm: cm[0].sort_key())
        self.pairs = tuple(items)

    @classmethod
    def path(cls, src, dst):
        """{src} - {dst} for cusps or things coercible to cusps."""
        return cls([(src, 1), (dst, -1)])

    def apply(self, g):
        return Divisor0([(c.apply(g), m) for c, m in self.pairs])

    def __add__(self, other):
        return Divisor0(self.pairs + other.pairs)

    def __neg__(self):
        return Divisor0([(c, -m) for c, m in self.pairs])

    def __sub__(self, other):
        return self + (-other)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Divisor0) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Divisor0({list(self.pairs)})"


class ModularSymbol:
    """Generator values of one symbol; the presentation does the rest."""

    __slots__ = ("level", "k", "chi", "ring", "values")

    def __init__(self, level, k, chi, ring, values):
        values = tuple(values)
        assert len(values) == len(p1_classes(level))
        for v in values:
            assert (v.level, v.k, v.ring) == (level, k, ring)
        self.level = level
        self.k = k
        self.chi = chi
        self.ring = ring
        self.values = values

    def zero_like(self):
        z = self.values[0].zero_like()
        return ModularSymbol(self.level, self.k, self.chi, self.ring,
                             [z] * len(self.values))

    def __add__(self, other):
        if (self.level, self.k, self.ring) != (other.level, other.k, other.ring):
            raise OperandMismatch(f"{self!r} and {other!r} do not add")
        return ModularSymbol(self.level, self.k, self.chi, self.ring,
                             [x + y for x, y in zip(self.values, other.values)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, r):
        return ModularSymbol(self.level, self.k, self.chi, self.ring,
                             [v.scale(r) for v in self.values])

    def is_zero(self):
        return all(v.is_zero() for v in self.values)

    def evaluate(self, divisor):
        return manin.evaluate_values(self.level, self.values, divisor)

    def coords(self):
        """Flat coefficient vector, generator blocks in order."""
        out = []
        for v in self.values:
            out.extend(v.coeffs)
        return tuple(out)

    def __repr__(self):
        return (f"ModularSymbol(level={self.level}, k={self.k}, "
                f"ring={self.ring!r}, {len(self.values)} generators)")


def _from_flat(M, k, chi, ring, flat):
    step = k + 1
    vals = [SymPoly(M, k, flat[i * step:(i + 1) * step], chi, "L", ring)
            for i in range(len(flat) // step)]
    return ModularSymbol(M, k, chi, ring, vals)


def _zero_rows(M, k):
    return [[0] * (manin.presentation(M).ngens * (k + 1)) for _ in range(k + 1)]


def _add_rows(M, k, chi):
    """Step of manin.weighted_sum on integer rows of a level-M symbol.

    Adds w * chi(g_a) * _act_matrix_L(g) into generator block c.
    """
    step = k + 1

    def add(rows, c, g, w):
        _check_semigroup(g, M)
        tm = _act_matrix_L(g, k)
        f = w * chi(g[0])
        at = c * step
        for j in range(step):
            row, tj = rows[j], tm[j]
            for i in range(step):
                row[at + i] += f * tj[i]
        return rows

    return add


def _relation_rows(M, k, chi):
    """Integer relation matrix for the generator coefficient vector."""
    add = _add_rows(M, k, chi)
    rows = []
    for rel in manin.presentation(M).relations:
        rows.extend(manin.weighted_sum(rel, add, _zero_rows(M, k)))
    return rows


def _divisor_rows(M, k, chi, divisor):
    """Integer matrix E with phi(D) = E . phi.coords() for symbols twisted by chi.

    D is ((cusp, mult), ...); each generator term w * w_c|gamma adds
    w * chi(gamma_a) * _act_matrix_L(gamma) into block c.
    """
    return manin.weighted_sum(manin.divisor_terms(M, divisor),
                              _add_rows(M, k, chi), _zero_rows(M, k))


@lru_cache(maxsize=256)
def _coset_rows(M, k, chi, reps):
    """Integer matrix of the double coset operator of reps on phi.coords().

    Block row b is sum_alpha chi(alpha_a) * _act_matrix_L(alpha) *
    E_{alpha . base_b}.  For MAT_IOTA the twist _act_matrix_L is
    diag((-1)^j), which is SymPoly.act_involution on side L.
    """
    step = k + 1

    def twist(block, alpha, E):
        tm = _act_matrix_L(alpha, k)
        f = chi(alpha[0])
        for j in range(step):
            row = block[j]
            for m in range(step):
                x = f * tm[j][m]
                if x:
                    for col, e in enumerate(E[m]):
                        row[col] += x * e
        return block

    blocks = manin.double_coset(M, reps, lambda D: _divisor_rows(M, k, chi, D),
                                twist, lambda: _zero_rows(M, k))
    return tuple(tuple(row) for block in blocks for row in block)


def _hecke_rows(M, k, chi, reps):
    """_coset_rows for reps in the acting semigroup, each one checked."""
    for alpha in reps:
        _check_semigroup(alpha, M)
    return _coset_rows(M, k, chi, tuple(reps))


def _apply_int_matrix(rows, phi):
    """Exact rows . phi.coords(), summed over one common denominator."""
    coords = phi.coords()
    if phi.ring != "Q":
        return [sum(map(mul, row, coords)) for row in rows]
    den = lcm(*(x.denominator for x in coords))
    ints = [x.numerator * (den // x.denominator) for x in coords]
    return [Fraction(sum(map(mul, row, ints)), den) for row in rows]


def _apply_rows(phi, rows):
    return _from_flat(phi.level, phi.k, phi.chi, phi.ring,
                      _apply_int_matrix(rows, phi))


def solve_symbol_space(M, k, chi, ring="Q"):
    """Basis of the space of level-M weight-k symbols over the ring.

    Unknowns are the generator values; the returned symbols satisfy the
    S-pair, triple and minus relations exactly, hence extend to genuine
    equivariant maps on degree-zero cusp divisors.
    """
    check_ring(ring)
    if chi.modulus > 1 and M % chi.modulus != 0:
        raise ValueError(f"character modulus {chi.modulus} must divide {M}")
    rows = _relation_rows(M, k, chi)
    ncols = manin.presentation(M).ngens * (k + 1)
    if ring == "Q":
        basis = frac_nullspace([[Fraction(x) for x in row] for row in rows], ncols)
        out = [_from_flat(M, k, chi, ring, _normalize_content(vec))
               for vec in basis]
    else:
        _, p, prec = ring
        mod = p**prec
        A = np.array([[x % mod for x in row] for row in rows], dtype=np.int64)
        basis, _ = zpm_kernel(A, p, prec)
        out = [_from_flat(M, k, chi, ring, [int(x) for x in vec]) for vec in basis]
    for sym in out:
        assert manin.check_relations(sym)
    return out


def hecke_Tn(phi, n):
    """Phi|T_n via the upper triangular determinant-n representatives."""
    return _apply_rows(phi, _hecke_rows(phi.level, phi.k, phi.chi,
                                        manin.hecke_reps(n, phi.level)))


def hecke_Up(phi, p):
    if phi.level % p != 0:
        raise BadIndex(f"{p} does not divide the level {phi.level}")
    return hecke_Tn(phi, p)


def hecke_Tll(phi, l):
    """Diamond-scaled operator for l coprime to the level: one scalar rep."""
    if gcd(l, phi.level) != 1:
        raise BadIndex(f"{l} must be coprime to the level {phi.level}")
    return _apply_rows(phi, _hecke_rows(phi.level, phi.k, phi.chi,
                                        [(l, 0, 0, l)]))


def involution(phi):
    """Phi|iota for iota = diag(1, -1)."""
    return _apply_rows(phi, _coset_rows(phi.level, phi.k, phi.chi,
                                        (manin.MAT_IOTA,)))


def involution_split(phi):
    """(Phi^+, Phi^-) with Phi^{+-} = (Phi +- Phi|iota) / 2."""
    half = ring_half(phi.ring)
    pi = involution(phi)
    plus = (phi + pi).scale(half)
    minus = (phi + pi.scale(-1)).scale(half)
    return plus, minus


def _coords_in_basis(basis_flat, target_flat):
    """Coordinates of target in the span of the basis rows, or None."""
    ncols = len(basis_flat)
    rows = [[Fraction(basis_flat[j][i]) for j in range(ncols)]
            for i in range(len(target_flat))]
    return frac_solve(rows, [Fraction(x) for x in target_flat])


def hecke_matrix(basis, n, op=hecke_Tn):
    """Matrix of an operator on a basis of symbols, columns = images."""
    flats = [sym.coords() for sym in basis]
    cols = []
    for sym in basis:
        img = op(sym, n).coords()
        x = _coords_in_basis(flats, img)
        if x is None:
            raise OperandMismatch("Hecke image left the solved space")
        cols.append(x)
    dim = len(basis)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def involution_matrix(basis):
    return hecke_matrix(basis, None, lambda sym, _: involution(sym))


def _normalize_content(flat):
    """Scale a rational vector to integer entries with unit content."""
    den = 1
    for x in flat:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in flat]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    return ints


def eigensymbols(M, k, chi, sign, lbound=7):
    """Rational Hecke eigensystems in one sign eigenspace.

    Splits the sign subspace by T_l (U_l when l divides M) for primes
    l <= lbound and keeps the pieces where every eigenvalue is rational;
    systems with irrational eigenvalues are skipped with a warning.
    Returns a list of (symbol, {l: eigenvalue}) pairs, each symbol scaled
    to integer coefficients with content one.
    """
    assert sign in (1, -1)
    basis = solve_symbol_space(M, k, chi, "Q")
    dim = len(basis)
    if dim == 0:
        return []
    flats = [sym.coords() for sym in basis]

    def op_matrix(l):
        return hecke_matrix(basis, l)

    J = involution_matrix(basis)
    # column space of (I + sign*J)/2 inside coordinate space
    proj = [[(Fraction(1 if i == j else 0) + sign * J[i][j]) / 2
             for j in range(dim)] for i in range(dim)]
    cols = [[proj[i][j] for i in range(dim)] for j in range(dim)]
    reduced, pivots = frac_rref([row[:] for row in cols], dim)
    subspace = [list(reduced[r]) for r in range(len(pivots))]
    if not subspace:
        return []

    primes = list(sympy.primerange(2, lbound + 1))
    spaces = [subspace]
    maps = [dict()]
    for l in primes:
        A = op_matrix(l)
        new_spaces, new_maps = [], []
        for space, emap in zip(spaces, maps):
            r = len(space)
            imgs = []
            for v in space:
                imgs.append([sum(A[i][j] * v[j] for j in range(dim))
                             for i in range(dim)])
            rows = [[Fraction(space[j][i]) for j in range(r)] for i in range(dim)]
            R = sympy.zeros(r, r)
            for idx, img in enumerate(imgs):
                x = frac_solve([row[:] for row in rows], [Fraction(t) for t in img])
                if x is None:
                    raise OperandMismatch("Hecke image left the solved space")
                for i in range(r):
                    R[i, idx] = sympy.Rational(x[i].numerator, x[i].denominator)
            for lam, _, _vecs in R.eigenvects():
                if not lam.is_Rational:
                    warnings.warn(
                        f"skipping irrational eigenvalue of T_{l} at level {M}",
                        RuntimeWarning)
                    continue
                lamf = Fraction(int(lam.p), int(lam.q))
                for piece in _rational_eigenspace(R, lam, r):
                    vec = [sum(Fraction(piece[j]) * space[j][i] for j in range(r))
                           for i in range(dim)]
                    new_spaces.append([vec])
                    new_maps.append({**emap, l: lamf})
        spaces, maps = _merge_eigen(new_spaces, new_maps)
    out = []
    for space, emap in zip(spaces, maps):
        v = space[0]
        flat = [sum(v[i] * Fraction(flats[i][j]) for i in range(dim))
                for j in range(len(flats[0]))]
        ints = _normalize_content(flat)
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        sym = _from_flat(M, k, chi, "Q", ints)
        clean = {l: (int(x) if x.denominator == 1 else x) for l, x in emap.items()}
        out.append((sym, clean))
    out.sort(key=lambda se: tuple(se[1][l] for l in primes))
    return out


def _rational_eigenspace(R, lam, r):
    """Basis of ker(R - lam) as rational row vectors."""
    Mm = R - lam * sympy.eye(r)
    rows = [[Fraction(int(Mm[i, j].p), int(Mm[i, j].q)) for j in range(r)]
            for i in range(r)]
    return frac_nullspace(rows, r)


def _merge_eigen(spaces, maps):
    """Recombine split vectors that carry identical eigenvalue maps."""
    merged = []
    for space, emap in zip(spaces, maps):
        for mspace, mmap in merged:
            if mmap == emap:
                mspace.extend(space)
                break
        else:
            merged.append((list(space), dict(emap)))
    return [s for s, _ in merged], [m for _, m in merged]
