"""Modular symbols with polynomial values and their Hecke theory.

Values live in one of two weight-k modules over the base ring:

* side "L": coefficients in the divided basis X^i Y^(k-i) / (i! (k-i)!),
  matrix action twisted by chi(upper-left);
* side "Lstar": plain monomial coefficients, twisted by chi(lower-right).

The two sides pair to the base ring, and the pairing is invariant under
the level-M group.  Both action matrices are exact Sym^k blocks of
``dist._sym_blocks``.  Base rings are exact: "Q" (Fraction coefficients)
or ("zpm", p, prec) with p >= 5.

A symbol is one tuple of flat coordinates, one side-L block per
generator, and an ``arith.ExactValue``; everything else goes through
integer rows acting on it: the relation rows that the solver's kernel is
checked against, the evaluation matrices of divisors (``_term_rows``, the
exact one-sector case of ``dist._fold``) and one cached matrix per Hecke
operator or involution (``_coset_rows``), applied to a whole basis in one
exact product and read off private columns.  ``SymPoly``, one weight-k
vector on either side, is the value type of the tests' oracles, the
value-by-value evaluation and the pairing; it stays here because the
benchmark's tracer wraps ``SymPoly.act``.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count, dropwhile
from math import gcd, lcm
from operator import add, mul

import numpy as np

from .arith import ExactValue, is_prime
from .cosets import p1_classes
from .dist import _check_s0, _fold, _indexed_terms, _sym_blocks
from .errors import (
    BadCharacteristic,
    BadIndex,
    BadLevel,
    DegreeMismatch,
    OperandMismatch,
)
from .linalg import (
    _check_kernel_bounds,
    _over_denominator,
    berkowitz_charpoly,
    frac_nullspace,
    frac_rref,
)
from . import manin


@lru_cache(maxsize=None)
def check_ring(ring):
    if ring == "Q":
        return
    if isinstance(ring, tuple) and ring[0] == "zpm":
        _, p, prec = ring
        if p < 5 or not is_prime(p) or prec < 1:
            raise BadCharacteristic(f"need Z/p^M with prime p >= 5, got {ring}")
        _check_kernel_bounds(p, prec)
        return
    raise BadCharacteristic(f"unsupported coefficient ring {ring!r}")


def ring_reduce(ring, x):
    """x in the ring; a fraction a/b goes to a * b^-1 mod p^M."""
    if ring == "Q":
        return x if isinstance(x, Fraction) else Fraction(x)
    _, p, prec = ring
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise BadCharacteristic(f"{x} has no image in Z/{p}^{prec}: "
                                    f"its denominator is not a unit")
        return x.numerator * pow(x.denominator, -1, p**prec) % p**prec
    return int(x) % p**prec


def _L_blocks(gs, k):
    """_act_matrix_L of every g in gs, exact, from one _sym_blocks call.

    The substitution (X, Y) -> (X, Y) adj(g) is the Sym^k block of the
    transposed adjugate (d, -c, -b, a).
    """
    return _sym_blocks([(d, -c, -b, a) for a, b, c, d in gs], (k,))[k]


@lru_cache(maxsize=None)
def _act_matrix_L(g, k):
    """Divided-basis matrix of F -> F((X,Y) adj(g)), rows j, cols i."""
    return tuple(map(tuple, _L_blocks([g], k)[0].tolist()))


@lru_cache(maxsize=None)
def _act_matrix_Lstar(g, k):
    """Monomial-basis matrix of the same substitution, rows m, cols n.

    The transpose of the Sym^k block of adj(g) = (d, -b, -c, a).
    """
    a, b, c, d = g
    block = _sym_blocks([(d, -b, -c, a)], (k,))[k][0]
    return tuple(map(tuple, block.T.tolist()))


class SymPoly(ExactValue):
    """A weight-k coefficient vector on one side of the pairing."""

    __slots__ = ("level", "k", "coeffs", "chi", "side", "ring")

    def __init__(self, level, k, coeffs, chi, side="L", ring="Q"):
        check_ring(ring)
        if side not in ("L", "Lstar"):
            raise BadIndex(f"side must be 'L' or 'Lstar', got {side!r}")
        if len(coeffs) != k + 1:
            raise DegreeMismatch(f"degree {k} needs {k + 1} coefficients")
        self.level = level
        self.k = k
        self.coeffs = tuple(ring_reduce(ring, x) for x in coeffs)
        self.chi = chi
        self.side = side
        self.ring = ring

    def _key(self):
        return (self.level, self.k, self.side, self.ring, self.chi)

    def _state(self):
        return self.coeffs

    def _like(self, coeffs):
        return SymPoly(self.level, self.k, coeffs, self.chi, self.side,
                       self.ring)

    def _add(self, other):
        return self._like(list(map(add, self.coeffs, other.coeffs)))

    def scale(self, r):
        return self._like([r * x for x in self.coeffs])

    def is_zero(self):
        return all(x == 0 for x in self.coeffs)

    def act(self, g):
        """Right weight action by g with positive determinant.

        g must have lower-left divisible by the level and upper-left
        coprime to it; the character factor is chi(a) on side L and
        chi(d) on side Lstar.
        """
        a, b, c, d = g
        _check_s0(g, self.level)
        if self.side == "L":
            mat = _act_matrix_L(g, self.k)
            factor = self.chi(a)
        else:
            mat = _act_matrix_Lstar(g, self.k)
            factor = self.chi(d)
        out = [factor * sum(mat[j][i] * self.coeffs[i] for i in range(self.k + 1))
               for j in range(self.k + 1)]
        return self._like(out)

    def __hash__(self):
        return hash((self._key(), self.coeffs))

    def __repr__(self):
        return f"SymPoly(k={self.k}, side={self.side}, {list(self.coeffs)})"


class ModularSymbol(ExactValue):
    """One symbol as its flat coordinates; the presentation does the rest.

    ``coords()`` is a tuple of ngens * (k + 1) ring-reduced coefficients:
    one block per generator in ``p1_classes`` order, each in the divided
    basis of side L.
    """

    __slots__ = ("level", "k", "chi", "ring", "_flat")

    def __init__(self, level, k, chi, ring, coords):
        check_ring(ring)
        coords = tuple(coords)
        n = len(p1_classes(level)) * (k + 1)
        if len(coords) != n:
            raise DegreeMismatch(f"level {level}, weight {k} needs {n} "
                                 f"coordinates, got {len(coords)}")
        self.level = level
        self.k = k
        self.chi = chi
        self.ring = ring
        self._flat = tuple(ring_reduce(ring, x) for x in coords)

    def _key(self):
        return (self.level, self.k, self.chi, self.ring)

    def _state(self):
        return self._flat

    def _like(self, coords):
        return ModularSymbol(self.level, self.k, self.chi, self.ring, coords)

    def _add(self, other):
        return self._like(map(add, self._flat, other._flat))

    def scale(self, r):
        return self._like(r * x for x in self._flat)

    def is_zero(self):
        return not any(self._flat)

    def coords(self):
        """Flat coefficient vector, generator blocks in order."""
        return self._flat

    def __repr__(self):
        return (f"ModularSymbol(level={self.level}, k={self.k}, "
                f"ring={self.ring!r}, {len(self._flat) // (self.k + 1)} "
                f"generators)")


def _term_rows(M, k, chi, groups):
    """Integer rows of sum_(c, g, w) w * chi(g_a) * _act_matrix_L(g) in
    generator block c: an object array (len(groups), k + 1, ncols).

    For a relation of the presentation these are its relation rows; for
    the terms of a divisor D (``manin.divisor_terms``) they are the matrix
    E_D with phi(D) = E_D . phi.coords().  The exact one-sector case of
    ``dist._fold``, on one _sym_blocks batch of the distinct matrices,
    each checked once to act at level M.
    """
    rows, gs = _indexed_terms(groups, M)
    chis = np.array([chi(g[0]) for g in gs], dtype=object)
    S = _L_blocks(gs, k) * chis.reshape(-1, 1, 1)
    return _fold(rows, S[:, None], len(groups),
                 manin.presentation(M).ngens)[0]


@lru_cache(maxsize=256)
def _coset_rows(M, k, chi, reps):
    """Integer matrix of the double coset operator of reps on phi.coords().

    Block row b is sum_alpha chi(alpha_a) * _act_matrix_L(alpha) *
    E_{alpha . base_b}, all E from one _term_rows call on
    ``manin.coset_terms``.  For MAT_IOTA the twist _act_matrix_L is
    diag((-1)^j), the weight action of diag(1, -1) on side L.
    """
    chis = np.array([chi(alpha[0]) for alpha in reps], dtype=object)
    twists = _L_blocks(reps, k) * chis[:, None, None]
    E = _term_rows(M, k, chi, manin.coset_terms(M, reps))
    E = E.reshape(-1, len(reps), k + 1, E.shape[-1])
    rows = np.matmul(twists, E).sum(axis=1).reshape(-1, E.shape[-1])
    return tuple(map(tuple, rows.tolist()))


def _hecke_rows(M, k, chi, reps):
    """_coset_rows for reps in the acting semigroup, each one checked."""
    for alpha in reps:
        _check_s0(alpha, M)
    return _coset_rows(M, k, chi, tuple(reps))


def _apply_int_matrix(rows, syms):
    """Exact rows . sym.coords() for symbols of one space: one product
    with the stacked coordinates, each symbol's over its least
    denominator."""
    dens, ints = zip(*(_over_denominator(sym.coords()) for sym in syms))
    rows = np.array(rows, dtype=object).reshape(-1, len(ints[0]))
    images = np.array(ints, dtype=object).dot(rows.T)
    return [[Fraction(x, den) for x in img]
            for den, img in zip(dens, images.tolist())]


def _apply_rows(syms, rows):
    """Each symbol's image under integer operator rows."""
    images = _apply_int_matrix(rows, syms)
    return [sym._like(img) for sym, img in zip(syms, images)]


def solve_symbol_space(M, k, chi):
    """Basis of the space of level-M weight-k symbols over Q.

    Unknowns are the generator values; the returned symbols satisfy the
    S-pair, triple and minus relations exactly, hence extend to genuine
    equivariant maps on degree-zero cusp divisors.  One exact product of
    the relation rows with the integer basis vectors checks that on every
    call.
    """
    if chi.modulus > 1 and M % chi.modulus != 0:
        raise BadLevel(f"character modulus {chi.modulus} must divide {M}")
    rows = _term_rows(M, k, chi, manin.presentation(M).relations)
    n = rows.shape[-1]
    rows = rows.reshape(-1, n)
    basis = [_normalize_content(vec) for vec in frac_nullspace(rows, n)]
    if np.any(rows.dot(np.array(basis, dtype=object).reshape(-1, n).T)):
        raise OperandMismatch(f"a solved level-{M} weight-{k} symbol "
                              f"breaks the relations")
    return [ModularSymbol(M, k, chi, "Q", [int(x) for x in vec])
            for vec in basis]


def hecke_Tn(phi, n):
    """Phi|T_n via the upper triangular determinant-n representatives."""
    return _apply_rows([phi], _hecke_rows(phi.level, phi.k, phi.chi,
                                          manin.hecke_reps(n, phi.level)))[0]


def involution(phi):
    """Phi|iota for iota = diag(1, -1)."""
    return _apply_rows([phi], _coset_rows(phi.level, phi.k, phi.chi,
                                          (manin.MAT_IOTA,)))[0]


def involution_split(phi):
    """(Phi^+, Phi^-) with Phi^{+-} = (Phi +- Phi|iota) / 2."""
    pi = involution(phi)
    return (phi + pi).scale(Fraction(1, 2)), (phi - pi).scale(Fraction(1, 2))


def _coords(basis, targets):
    """Coordinates of each target vector in the basis vectors' span.

    Every basis vector needs a private column, where all the other basis
    vectors are zero: a free column of a nullspace basis, or a pivot of a
    row echelon form.  A target's coordinate on a basis vector is its
    entry in that column over the vector's, and the combination is then
    checked against the whole target exactly, in integers: with the basis
    vectors and the target scaled to integer vectors B_i and u, and L the
    lcm of the private entries B_i[c_i], the target is the combination
    exactly when sum_i u[c_i] (L / B_i[c_i]) B_i = L u.
    """
    scaled = [_over_denominator(v) for v in basis]
    cols = list(zip(*(B for _, B in scaled)))
    private = {}
    for c, col in enumerate(cols):
        owners = [i for i, x in enumerate(col) if x]
        if len(owners) == 1:
            private.setdefault(owners[0], c)
    if len(private) < len(basis):
        raise OperandMismatch("a basis vector has no private column")
    pivots = [B[private[i]] for i, (_, B) in enumerate(scaled)]
    L = lcm(*pivots)
    out = []
    for t in targets:
        den, u = _over_denominator(t)
        y = [u[private[i]] * (L // P) for i, P in enumerate(pivots)]
        if any(sum(map(mul, y, col)) != L * z for col, z in zip(cols, u)):
            raise OperandMismatch("Hecke image left the solved space")
        out.append([Fraction(u[private[i]] * D, den * P)
                    for i, ((D, _), P) in enumerate(zip(scaled, pivots))])
    return out


def _operator_matrix(basis, rows):
    """Matrix of integer operator rows on a basis of symbols, columns =
    images, all taken in one exact product."""
    cols = _coords([sym.coords() for sym in basis],
                   [img.coords() for img in _apply_rows(basis, rows)])
    return [list(row) for row in zip(*cols)]


def hecke_matrix(basis, n):
    """Matrix of T_n on a basis of symbols, columns = images."""
    M, k, chi = basis[0].level, basis[0].k, basis[0].chi
    return _operator_matrix(basis, _hecke_rows(M, k, chi,
                                               manin.hecke_reps(n, M)))


def involution_matrix(basis):
    M, k, chi = basis[0].level, basis[0].k, basis[0].chi
    return _operator_matrix(basis, _coset_rows(M, k, chi, (manin.MAT_IOTA,)))


def sign_subspace(J, sign):
    """Row echelon basis of the sign eigenspace of the involution matrix J:
    the column space of (I + sign*J)/2, in the coordinates J acts on."""
    dim = len(J)
    cols = [[(Fraction(1 if i == j else 0) + sign * J[i][j]) / 2
             for i in range(dim)] for j in range(dim)]
    return frac_rref(cols, dim)[0]


def _normalize_content(flat):
    """Scale a rational vector to integer entries with unit content."""
    ints = _over_denominator(flat)[1]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


def eigensymbols(M, k, chi, sign):
    """Rational Hecke eigensystems in one sign eigenspace.

    Splits the sign subspace by T_l (U_l when l divides M) for the primes
    l <= 7 and keeps the pieces where every eigenvalue is rational;
    systems with irrational eigenvalues are skipped with a warning.
    Returns a list of (symbol, {l: eigenvalue}) pairs, each symbol scaled
    to integer coefficients with content one.
    """
    if sign not in (1, -1):
        raise BadIndex(f"sign must be 1 or -1, got {sign!r}")
    basis = solve_symbol_space(M, k, chi)
    dim = len(basis)
    if dim == 0:
        return []
    flats = [sym.coords() for sym in basis]
    subspace = sign_subspace(involution_matrix(basis), sign)
    if not subspace:
        return []

    primes = (2, 3, 5, 7)
    spaces = [subspace]
    maps = [dict()]
    for l in primes:
        A = hecke_matrix(basis, l)
        new_spaces, new_maps = [], []
        for space, emap in zip(spaces, maps):
            r = len(space)
            imgs = [[sum(A[i][j] * v[j] for j in range(dim)) for i in range(dim)]
                    for v in space]
            R = [list(row) for row in zip(*_coords(space, imgs))]
            for lam in _rational_eigenvalues(R, l, M):
                shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(R)]
                new_spaces.append(
                    [[sum(Fraction(piece[j]) * space[j][i] for j in range(r))
                      for i in range(dim)]
                     for piece in frac_nullspace(shifted, r)])
                new_maps.append({**emap, l: lam})
        spaces, maps = new_spaces, new_maps
    out = []
    for space, emap in zip(spaces, maps):
        v = space[0]
        flat = [sum(v[i] * Fraction(flats[i][j]) for i in range(dim))
                for j in range(len(flats[0]))]
        ints = _normalize_content(flat)
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        sym = ModularSymbol(M, k, chi, "Q", ints)
        clean = {l: (int(x) if x.denominator == 1 else x) for l, x in emap.items()}
        out.append((sym, clean))
    out.sort(key=lambda se: tuple(se[1][l] for l in primes))
    return out


def _rational_eigenvalues(R, l, M):
    """Distinct rational eigenvalues of the Fraction matrix R.

    With D the common denominator of R, the square-free part g of chi_A,
    A = D R, is monic in Z[y] (Gauss's lemma), so a rational eigenvalue of
    R is a / D for an integer root a of g, with |a| <= 2t if t^i bounds
    the coefficient of y^(n-i) for every i (Fujiwara).  At the least
    prime q where all roots of g mod q are simple, each root has one
    Newton lift mod q^(2^j) > 4t, and its symmetric residue is the only
    integer root it can give.  Warns once per irrational eigenvalue.
    """
    D = lcm(*(x.denominator for row in R for x in row))
    f = berkowitz_charpoly([[int(x * D) for x in row] for row in R])
    a, b = f, _derivative(f)
    while any(b):
        b = [Fraction(x) / b[0] for x in dropwhile(lambda x: x == 0, b)]
        a, b = b, _divide_monic(a, b)[1]
    g = [int(x) for x in _divide_monic(f, a)[0]]
    dg, t = _derivative(g), 1
    while any(abs(x) > t**i for i, x in enumerate(g)):
        t *= 2
    for mod in filter(is_prime, count(2)):
        lifts = [r for r in range(mod) if _horner(g, r) % mod == 0]
        if all(_horner(dg, r) % mod for r in lifts):
            break
    while mod <= 4 * t:
        mod *= mod
        lifts = [(r - _horner(g, r) * pow(_horner(dg, r), -1, mod)) % mod
                 for r in lifts]
    roots = [r - mod if 2 * r > mod else r for r in lifts]
    roots = [y for y in roots if _horner(g, y) == 0]
    for _ in range(len(g) - 1 - len(roots)):
        warnings.warn(f"skipping irrational eigenvalue of T_{l} at level {M}",
                      RuntimeWarning)
    return [Fraction(y, D) for y in roots]


def _derivative(f):
    """f' for f given by its coefficients, highest first, as below."""
    return [x * (len(f) - 1 - i) for i, x in enumerate(f[:-1])]


def _horner(f, x):
    return reduce(lambda acc, c: acc * x + c, f, 0)


def _divide_monic(f, g):
    """(quotient, remainder) of f by a monic g."""
    quot = []
    while len(f) >= len(g):
        quot.append(c := f[0])
        f = [x - c * y for x, y in zip(f[1:], g[1:] + [0] * len(f))]
    return quot, f

