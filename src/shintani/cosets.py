"""The projective line over Z/M and coset sections of Gamma0(M) in SL2(Z).

Right cosets Gamma0(M) g are classified by the bottom row (u : v) of g in
P^1(Z/M), pairs mod M up to unit scaling.  By CRT, P^1(Z/M) is the
product of the local lines P^1(Z/q) over the prime powers q = p^e of M
(Cremona, Algorithms for Modular Elliptic Curves, section 2.2).  The
local indices of a point, each in closed form, are the digits of its
mixed-radix code, and one table of |P^1(Z/M)| entries maps the code to
the point's place among the sorted least unit multiples.
"""

from functools import lru_cache
from math import gcd

from .arith import MAT_ID, mat_det, xgcd
from .errors import BadIndex, NonUnimodular


@lru_cache(maxsize=None)
def _units(M):
    return tuple(t for t in range(M) if gcd(t, M) == 1)


@lru_cache(maxsize=None)
def _local_lines(M):
    """(p, q, points, inverse) for each prime power q = p^e of M, by
    increasing p: points is P^1(Z/q) in local index order, (1 : t) for
    t < q and then (p*t : 1) for t < q/p, and inverse[t] is 1/t mod q, or
    0 when p divides t."""
    out, rest = [], M
    for p in range(2, M + 1):
        q = 1
        while rest % p == 0:
            rest, q = rest // p, q * p
        if q > 1:
            out.append((p, q, tuple([(1, t) for t in range(q)]
                                    + [(p * t, 1) for t in range(q // p)]),
                        tuple(pow(t, -1, q) if t % p else 0
                              for t in range(q))))
    return tuple(out)


def _code(u, v, lines):
    """Mixed-radix code of (u : v): its local index mod q is v/u mod q if
    p does not divide u, else q + (u/v mod q)/p."""
    code = 0
    for p, q, points, inverse in lines:
        if inverse[u % q]:
            i = v * inverse[u % q] % q
        elif inverse[v % q]:
            i = q + u * inverse[v % q] % q // p
        else:
            raise BadIndex(f"({u} : {v}) is not a point of P^1(Z/{q})")
        code = code * len(points) + i
    return code


@lru_cache(maxsize=None)
def _p1(M):
    """(classes, place, lines): the sorted least unit multiples, the index
    in classes of the point with each code, and the local lines.

    A unit multiple keeps gcd(u, M), so a scan of the coprime pairs (g, v)
    with g | M, in lexicographic order, meets each class first at its
    least unit multiple; the class of (M : v) is written (0, 1).
    """
    lines, first = _local_lines(M), {}
    for g in range(1, M + 1):
        if M % g == 0:
            for v in range(M):
                if gcd(g, v) == 1:
                    first.setdefault(_code(g, v, lines),
                                     (g, v) if g < M else (0, 1))
    classes = sorted(first.values())
    index = {c: i for i, c in enumerate(classes)}
    place = tuple(index[first[k]] for k in range(len(first)))
    return tuple(classes), place, lines


def p1_classes(M):
    """Canonical representatives of P^1(Z/M), sorted."""
    return _p1(M)[0]


def coset_index(g, M):
    """Index of the coset Gamma0(M) g, read off the bottom row mod M."""
    _, place, lines = _p1(M)
    return place[_code(g[2], g[3], lines)]


@lru_cache(maxsize=None)
def coset_section(M):
    """One SL2(Z) matrix per coset, its bottom row the class's coprime
    representative.

    The class of (0, 1) lifts to the identity, so the section contains 1
    and Schreier's lemma applies.
    """
    out = []
    for u, v in p1_classes(M):
        _, x, y = xgcd(v, u)
        g = (x, -y, u, v)
        if mat_det(g) != 1:   # det g = gcd(u, v)
            raise NonUnimodular(f"section matrix {g} of ({u} : {v})")
        out.append(g)
    identity = out[coset_index(MAT_ID, M)]
    if identity != MAT_ID:
        raise BadIndex(f"the coset of 1 in Gamma0({M}) has section "
                       f"{identity}")
    return tuple(out)
