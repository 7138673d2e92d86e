"""The projective line over Z/M and coset sections of Gamma0(M) in SL2(Z).

Right cosets Gamma0(M) g are classified by the bottom row of g modulo M,
up to unit scaling; this gives the bijection with P^1(Z/M) used everywhere
below.  Each class is written as its least unit multiple, found in closed
form (the P^1(Z/N) normalization of Cremona, Algorithms for Modular
Elliptic Curves, section 2.2), so no table of pairs is kept.
"""

from bisect import bisect_left
from functools import lru_cache
from math import gcd

from .arith import MAT_ID, mat_det, xgcd
from .errors import BadIndex, NonUnimodular


@lru_cache(maxsize=None)
def _units(M):
    return tuple(t for t in range(M) if gcd(t, M) == 1)


def _canonical(u, v, M):
    """The least unit multiple of (u : v) in P^1(Z/M).

    With g = gcd(u, M), the least first coordinate of a unit multiple is g
    (0 when g = M, and then v is a unit); the units s with s*u = g mod M
    are those s = (u/g)^-1 mod M/g, and the pair is (g, least s*v mod M).
    """
    if gcd(gcd(u, v), M) != 1:
        raise BadIndex(f"({u} : {v}) is not a point of P^1(Z/{M})")
    g = gcd(u, M)
    if g == M:
        return 0, 1
    step = M // g
    return g, min(s * v % M for s in range(pow(u // g, -1, step), M, step)
                  if gcd(s, M) == 1)


@lru_cache(maxsize=None)
def p1_classes(M):
    """Canonical representatives of P^1(Z/M), sorted."""
    return tuple(sorted({_canonical(g, v, M) for g in range(1, M + 1)
                         if M % g == 0 for v in range(M) if gcd(g, v) == 1}))


def coset_index(g, M):
    """Index of the coset Gamma0(M) g, read off the bottom row mod M."""
    return bisect_left(p1_classes(M), _canonical(g[2], g[3], M))


def _lift_coprime(u, v, M):
    """Integers (u0, v0) congruent to (u, v) mod M with gcd(u0, v0) = 1."""
    for k in range(4 * M + 2):
        v0 = v + k * M
        if gcd(u, v0) == 1:
            return u, v0
    raise BadIndex(f"({u} : {v}) is not a point of P^1(Z/{M})")


@lru_cache(maxsize=None)
def coset_section(M):
    """One SL2(Z) matrix per coset, bottom row lifting the P^1 class.

    The class of (0, 1) lifts to the identity, so the section contains 1
    and Schreier's lemma applies.
    """
    out = []
    for u, v in p1_classes(M):
        u0, v0 = _lift_coprime(u, v, M)
        _, x, y = xgcd(v0, u0)
        g = (x, -y, u0, v0)
        if mat_det(g) != 1:   # det g = gcd(u0, v0)
            raise NonUnimodular(f"section matrix {g} of ({u} : {v})")
        out.append(g)
    identity = out[coset_index(MAT_ID, M)]
    if identity != MAT_ID:
        raise BadIndex(f"the coset of 1 in Gamma0({M}) has section "
                       f"{identity}")
    return tuple(out)
