"""Coset presentation of modular symbols and the generic evaluation engine.

A symbol is stored by its values on the standard paths attached to a
section of the right cosets of P^1(Z/M).  Everything here is agnostic
about what those values are: any type with ``act(g)``, ``scale(n)``,
``zero_like()`` and ``+`` works, so the classical and the distribution
valued symbols share one engine.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import RationalCusp, mat_det, mat_inv, mat_mul, sl2_chain
from .cosets import coset_index, coset_section
from .errors import BadIndex

MAT_S = (0, -1, 1, 0)
MAT_T = (0, -1, 1, -1)
MAT_MINUS_ID = (-1, 0, 0, -1)


class Presentation:
    """Generators and relations for symbols of one level.

    Each generator c corresponds to the path {g_c.0} - {g_c.oo} for the
    section matrix g_c.  Relations are stored structurally, as lists of
    (generator, matrix) terms whose twisted sum must vanish; the matrices
    all lie in the level-M congruence group, so any value module can
    realize them.
    """

    __slots__ = ("level", "section", "spairs", "ttriples", "base_divisors")

    def __init__(self, level, section, spairs, ttriples, base_divisors):
        self.level = level
        self.section = section
        self.spairs = spairs
        self.ttriples = ttriples
        self.base_divisors = base_divisors

    @property
    def ngens(self):
        return len(self.section)

    def relation_terms(self):
        """All relations as lists of signed (gen_index, matrix, coeff) terms.

        A relation [(c0,m0,n0),(c1,m1,n1),...] asserts
        sum_i n_i * w_{ci}|m_i = 0.  The minus relation uses -I, which is
        a legal semigroup element, so every matrix here acts through the
        ordinary weight action.
        """
        ident = (1, 0, 0, 1)
        out = []
        for c in range(self.ngens):
            out.append([(c, ident, 1), (c, MAT_MINUS_ID, -1)])
        for c, c2, m in self.spairs:
            out.append([(c, ident, 1), (c2, m, 1)])
        for c, c1, m1, c2, m2 in self.ttriples:
            out.append([(c, ident, 1), (c1, m1, 1), (c2, m2, 1)])
        return out


def _assert_gamma0(g, M):
    assert mat_det(g) == 1 and g[2] % M == 0, (g, M)


@lru_cache(maxsize=None)
def presentation(M):
    section = coset_section(M)
    spairs = []
    ttriples = []
    for c, g in enumerate(section):
        gS = mat_mul(g, MAT_S)
        c2 = coset_index(gS, M)
        gamma = mat_mul(gS, mat_inv(section[c2]))
        _assert_gamma0(gamma, M)
        spairs.append((c, c2, mat_inv(gamma)))
    T2 = mat_mul(MAT_T, MAT_T)
    for c, g in enumerate(section):
        gT = mat_mul(g, MAT_T)
        c1 = coset_index(gT, M)
        g1 = mat_mul(gT, mat_inv(section[c1]))
        _assert_gamma0(g1, M)
        gTT = mat_mul(g, T2)
        c2 = coset_index(gTT, M)
        g2 = mat_mul(gTT, mat_inv(section[c2]))
        _assert_gamma0(g2, M)
        ttriples.append((c, c1, mat_inv(g1), c2, mat_inv(g2)))
    base = []
    for g in section:
        a, b, cc, d = g
        base.append((((RationalCusp(b, d)), 1), ((RationalCusp(a, cc)), -1)))
    return Presentation(M, section, tuple(spairs), tuple(ttriples), tuple(base))


@lru_cache(maxsize=None)
def _path_terms(M, cusp):
    """Decompose {cusp} - {oo} into generator paths.

    Returns ((gen_index, gamma, sign), ...) with gamma in the level-M
    group, meaning  Phi({cusp}-{oo}) = sum sign * w_gen|gamma.
    """
    pres = presentation(M)
    out = []
    for g in sl2_chain(cusp):
        c = coset_index(g, M)
        gamma = mat_mul(pres.section[c], mat_inv(g))
        _assert_gamma0(gamma, M)
        out.append((c, gamma, -1))
    return tuple(out)


def divisor_terms(M, divisor):
    """Flatten a degree-zero divisor into weighted generator terms."""
    out = []
    for cusp, mult in divisor:
        if mult == 0 or cusp.is_infinity:
            continue
        for c, gamma, sign in _path_terms(M, cusp):
            out.append((c, gamma, sign * mult))
    return out


def evaluate_values(M, values, divisor):
    """Phi(D) from generator values; D is ((cusp, mult), ...)."""
    total = values[0].zero_like()
    for c, gamma, weight in divisor_terms(M, divisor):
        total = total + values[c].act(gamma).scale(weight)
    return total


def check_relations(sym):
    """Exact check of the defining relations on a symbol's generator values."""
    values = sym.values
    for rel in presentation(sym.level).relation_terms():
        acc = values[0].zero_like()
        for c, mat, coeff in rel:
            acc = acc + values[c].act(mat).scale(coeff)
        if not acc.is_zero():
            return False
    return True


def hecke_reps(n, M):
    """Upper triangular coset representatives for the n-th Hecke operator.

    For prime l coprime to M this is the usual l+1 matrices; for l
    dividing M the determinant-l reps with unit upper-left are dropped,
    which is exactly the U_l list.
    """
    if n < 1:
        raise BadIndex(f"Hecke index must be positive, got {n}")
    reps = []
    for a in range(1, n + 1):
        if n % a or gcd(a, M) != 1:
            continue
        d = n // a
        for b in range(d):
            reps.append((a, b, 0, d))
    if not reps:
        raise BadIndex(f"no determinant-{n} representatives at level {M}")
    return reps


def apply_double_coset(M, values, reps):
    """Generator values of Phi|Op for Op given by right coset reps.

    (Phi|Op)(D) = sum_i Phi(alpha_i D)|alpha_i; only the final twist
    involves a non-unimodular matrix, so evaluation stays inside the
    presentation.
    """
    pres = presentation(M)
    out = []
    for base in pres.base_divisors:
        acc = values[0].zero_like()
        for alpha in reps:
            moved = tuple((cusp.apply(alpha), mult) for cusp, mult in base)
            acc = acc + evaluate_values(M, values, moved).act(alpha)
        out.append(acc)
    return out


def apply_involution(M, values, act_invol):
    """Generator values of Phi|iota for iota = diag(1,-1).

    act_invol(value) must realize the weight action of iota on values;
    the divisor side is the cusp map x/y -> -x/y.
    """
    iota = (1, 0, 0, -1)
    pres = presentation(M)
    out = []
    for base in pres.base_divisors:
        moved = tuple((cusp.apply(iota), mult) for cusp, mult in base)
        out.append(act_invol(evaluate_values(M, values, moved)))
    return out
