"""The projective line over Z/M and coset sections of Gamma0(M) in SL2(Z).

Right cosets Gamma0(M) g are classified by the bottom row of g modulo M,
up to unit scaling; this gives the bijection with P^1(Z/M) used everywhere
below.
"""

from functools import lru_cache
from math import gcd

from .arith import MAT_ID, mat_inv, mat_mul, xgcd


@lru_cache(maxsize=None)
def _units(M):
    return tuple(t for t in range(M) if gcd(t, M) == 1)


@lru_cache(maxsize=None)
def _p1_table(M):
    """Sorted canonical classes of P^1(Z/M) and the map (u, v) -> class index.

    One walk over the pairs in lexicographic order: the first pair of each
    unit orbit met is the orbit's minimum, hence its canonical
    representative, and spanning the orbit from it labels every member.
    """
    units = _units(M)
    classes = []
    table = {}
    for u in range(M):
        for v in range(M):
            if (u, v) in table or gcd(gcd(u, v), M) != 1:
                continue
            for t in units:
                table[((t * u) % M, (t * v) % M)] = len(classes)
            classes.append((u, v))
    return tuple(classes), table


@lru_cache(maxsize=None)
def p1_classes(M):
    """Canonical representatives of P^1(Z/M), sorted."""
    if M == 1:
        return ((0, 1),)
    return _p1_table(M)[0]


def coset_index(g, M):
    """Index of the coset Gamma0(M) g, read off the bottom row mod M."""
    if M == 1:
        return 0
    return _p1_table(M)[1][(g[2] % M, g[3] % M)]


def _lift_coprime(u, v, M):
    """Integers (u0, v0) congruent to (u, v) mod M with gcd(u0, v0) = 1."""
    for k in range(4 * M + 2):
        v0 = v + k * M
        if gcd(u, v0) == 1:
            return u, v0
    raise AssertionError("coprime lift not found")


@lru_cache(maxsize=None)
def coset_section(M):
    """One SL2(Z) matrix per coset, bottom row lifting the P^1 class.

    The class of (0, 1) lifts to the identity, so the section contains 1
    and Schreier's lemma applies.
    """
    out = []
    for u, v in p1_classes(M):
        u0, v0 = _lift_coprime(u, v, M)
        g0, x, y = xgcd(v0, u0)
        assert g0 == 1
        g = (x, -y, u0, v0)
        assert g[0] * g[3] - g[1] * g[2] == 1
        out.append(g)
    assert out[coset_index(MAT_ID, M)] == MAT_ID
    return tuple(out)


@lru_cache(maxsize=None)
def left_coset_reps(M):
    """Matrices h_j with SL2(Z) the disjoint union of the h_j Gamma0(M)."""
    return tuple(mat_inv(g) for g in coset_section(M))


@lru_cache(maxsize=None)
def gamma0_generators(M):
    """A finite generating set of Gamma0(M), by Schreier's lemma.

    SL2(Z) is generated by S and T; for each section element g and each
    generator x, the element g x h^{-1} (h the section rep of the coset of
    g x) lies in Gamma0(M), and together these generate it.
    """
    S = (0, -1, 1, 0)
    T = (1, 1, 0, 1)
    section = coset_section(M)
    gens = set()
    for g in section:
        for x in (S, T):
            gx = mat_mul(g, x)
            h = section[coset_index(gx, M)]
            gamma = mat_mul(gx, mat_inv(h))
            assert gamma[2] % M == 0
            if gamma != MAT_ID:
                gens.add(gamma)
    return tuple(sorted(gens))
