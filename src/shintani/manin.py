"""Coset presentation of modular symbols and the generic evaluation engine.

A symbol is stored by its values on the standard paths attached to a
section of the right cosets of P^1(Z/M).  Everything here is agnostic
about what those values are.  The two loops, ``weighted_sum`` over
(generator, matrix, weight) terms and ``double_coset``, take the value
arithmetic as callbacks, so integer row blocks, stacked coordinate
arrays and generator values (any type with ``act(g)``, ``scale(n)``,
``zero_like()`` and ``+``) all run through the same code.
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
MAT_IOTA = (1, 0, 0, -1)


class Presentation:
    """Generators and relations for symbols of one level.

    Each generator c corresponds to the path {g_c.0} - {g_c.oo} for the
    section matrix g_c.  A relation ((c0, m0, n0), (c1, m1, n1), ...)
    asserts sum_i n_i * w_{ci}|m_i = 0: the minus relations, then the
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
    assert mat_det(gamma) == 1 and gamma[2] % M == 0, (gamma, M)
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


def weighted_sum(terms, add, acc):
    """Fold the terms of sum_(c, g, w) w * x_c|g into acc.

    add(acc, c, g, w) adds one term and returns the accumulator; the value
    type decides what x_c|g is (a generator value, a block of integer rows,
    stacked coordinates) and whether acc is updated in place.
    """
    for c, g, w in terms:
        acc = add(acc, c, g, w)
    return acc


def _add_value(values):
    return lambda acc, c, g, w: acc + values[c].act(g).scale(w)


def evaluate_values(M, values, divisor):
    """Phi(D) from generator values; D is ((cusp, mult), ...) or a Divisor0."""
    divisor = getattr(divisor, "pairs", divisor)
    return weighted_sum(divisor_terms(M, divisor), _add_value(values),
                        values[0].zero_like())


def check_relations(sym):
    """Exact check of the defining relations on a symbol's generator values."""
    add = _add_value(sym.values)
    zero = sym.values[0].zero_like()
    return all(weighted_sum(rel, add, zero).is_zero()
               for rel in presentation(sym.level).relations)


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


def double_coset(M, reps, evaluate, twist, zero):
    """Block rows of Phi|Op for Op given by right coset reps alpha.

    (Phi|Op)(D) = sum_alpha Phi(alpha D)|alpha, so block row b folds
    acc = twist(acc, alpha, Phi(alpha . base_b)) over the reps, starting
    from zero(); evaluate maps the list of all divisors alpha . base_b,
    b-major, to an iterable of their values, in one batch or lazily.  Only
    the twist involves a non-unimodular matrix, so evaluation stays inside
    the presentation.  The involution is the one-rep case MAT_IOTA.
    """
    bases = presentation(M).base_divisors
    values = iter(evaluate([tuple((cusp.apply(alpha), mult)
                                  for cusp, mult in base)
                            for base in bases for alpha in reps]))
    out = []
    for _ in bases:
        acc = zero()
        for alpha in reps:
            acc = twist(acc, alpha, next(values))
        out.append(acc)
    return out
