"""Coset presentation of modular symbols and the divisors of a double coset.

A symbol is stored by its values on the standard paths attached to a
section of the right cosets of P^1(Z/M).  Everything here is agnostic
about what those values are.  The relations of the presentation,
``divisor_terms`` and ``coset_terms`` are lists of (generator, matrix,
weight) terms, which ``modsym`` folds into integer rows and ``ocsymb``
into Teichmuller sector blocks, each with one array fold; both kinds of
symbol build their Hecke operators and the involution from the same
``coset_terms``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import RationalCusp, mat_det, mat_inv, mat_mul, sl2_chain
from .cosets import coset_index, coset_section
from .errors import BadIndex, BadSemigroupElement

MAT_S = (0, -1, 1, 0)
MAT_T = (0, -1, 1, -1)
MAT_MINUS_ID = (-1, 0, 0, -1)
MAT_IOTA = (1, 0, 0, -1)


class Presentation:
    """Generators and relations for symbols of one level.

    Each generator c corresponds to the path {g_c.0} - {g_c.oo} for the
    section matrix g_c.  A relation ((c0, m0, n0), (c1, m1, n1), ...)
    states sum_i n_i * w_{ci}|m_i = 0: the minus relations, then the
    S-pairs, then the T-triples.  The matrices all lie in the level-M
    congruence group (the minus relation uses -I), so any value module
    realizes them through its ordinary weight action.
    """

    __slots__ = ("level", "section", "relations", "base_divisors")

    def __init__(self, level, section, relations, base_divisors):
        self.level = level
        self.section = section
        self.relations = relations
        self.base_divisors = base_divisors

    @property
    def ngens(self):
        return len(self.section)


def _coset_term(M, g):
    """(c, gamma) for g in coset c: gamma = g_c * g^-1 is in the level group."""
    c = coset_index(g, M)
    gamma = mat_mul(coset_section(M)[c], mat_inv(g))
    if mat_det(gamma) != 1 or gamma[2] % M:
        raise BadSemigroupElement(f"{gamma} is not in the level-{M} group")
    return c, gamma


@lru_cache(maxsize=None)
def presentation(M):
    section = coset_section(M)
    ident = (1, 0, 0, 1)
    T2 = mat_mul(MAT_T, MAT_T)
    minus, spairs, ttriples = [], [], []
    for c, g in enumerate(section):
        minus.append(((c, ident, 1), (c, MAT_MINUS_ID, -1)))
        spairs.append(((c, ident, 1), (*_coset_term(M, mat_mul(g, MAT_S)), 1)))
        ttriples.append(((c, ident, 1),
                         (*_coset_term(M, mat_mul(g, MAT_T)), 1),
                         (*_coset_term(M, mat_mul(g, T2)), 1)))
    base = tuple(((RationalCusp(b, d), 1), (RationalCusp(a, cc), -1))
                 for a, b, cc, d in section)
    return Presentation(M, section, tuple(minus + spairs + ttriples), base)


@lru_cache(maxsize=None)
def _path_terms(M, cusp):
    """Decompose {cusp} - {oo} into generator paths.

    Returns ((gen_index, gamma, sign), ...) with gamma in the level-M
    group, meaning  Phi({cusp}-{oo}) = sum sign * w_gen|gamma.
    """
    return tuple((*_coset_term(M, g), -1) for g in sl2_chain(cusp))


def divisor_terms(M, divisor):
    """Flatten a degree-zero divisor into weighted generator terms."""
    out = []
    for cusp, mult in divisor:
        if mult == 0 or cusp.is_infinity:
            continue
        for c, gamma, sign in _path_terms(M, cusp):
            out.append((c, gamma, sign * mult))
    return out


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
    return reps


def coset_terms(M, reps):
    """Terms of the divisors alpha . base_b, base-major, for right coset reps.

    (Phi|Op)(D) = sum_alpha Phi(alpha D)|alpha, so block row b of Op is
    the sum over alpha of the twist by alpha of the evaluation at
    alpha . base_b, entry b * len(reps) + i here for alpha = reps[i].
    Only the twist involves a non-unimodular matrix, so evaluation stays
    inside the presentation.  The involution is the one-rep case MAT_IOTA.
    """
    return [divisor_terms(M, tuple((cusp.apply(alpha), mult)
                                   for cusp, mult in base))
            for base in presentation(M).base_divisors for alpha in reps]
