"""Integral indefinite binary quadratic forms.

Covers the congruence families F_M, the unimodular right action, reduced
cycles, automorphs with their orientation normalization, geodesic
boundary divisors, canonical keys of SL2(Z) classes, and deterministic
class enumeration.

One walk of reduced cycles on integer triples serves all of them: each
primitive SL2(Z) class is represented, and sorted, by the least triple
of its cycle, and every automorph of discriminant d is read in closed
form off one unit t^2 - d u^2 = 4 from the principal cycle.  Class
enumeration never scans the cosets of Gamma0(M).  The left cosets
h Gamma0(M) whose form m*P|h can lie in F_M are the roots mod M, in h's
first column (alpha : gamma), of the congruences that make its b- and
c-coefficients vanish; they are found one prime power of M at a time and
combined by CRT, and the exact F_M test runs on those cosets only.
"""

from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from operator import itemgetter

from .arith import (
    RationalCusp, mat_det, mat_inv, mat_mul, sign_a_plus_b_sqrt, xgcd)
from .cosets import _p1_table, left_coset_reps
from .errors import (
    BadIndex, BadSemigroupElement, NoConvergence, NonUnimodular,
    SquareDiscriminant)


class QuadForm:
    """aX^2 + bXY + cY^2 with integer coefficients."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("QuadForm is immutable")

    def discriminant(self):
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def content(self):
        return gcd(gcd(self.a, self.b), self.c)

    def is_primitive(self):
        return self.content() == 1

    def primitive_part(self):
        m = self.content()
        return QuadForm(self.a // m, self.b // m, self.c // m) if m > 1 else self

    def scale(self, m):
        return QuadForm(m * self.a, m * self.b, m * self.c)

    def triple(self):
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        if not isinstance(other, QuadForm):
            return NotImplemented
        return self.triple() == other.triple()

    def __hash__(self):
        return hash(self.triple())

    def __repr__(self):
        return f"QuadForm{self.triple()}"


def act(Q, g):
    """Right action Q|g = Q((X,Y) g^{-1}); g must lie in SL2(Z)."""
    if mat_det(g) != 1:
        raise NonUnimodular(f"determinant {mat_det(g)}")
    al, be, ga, de = g
    a, b, c = Q.a, Q.b, Q.c
    return QuadForm(
        a * de * de - b * be * de + c * be * be,
        -2 * a * ga * de + b * (al * de + be * ga) - 2 * c * al * be,
        a * ga * ga - b * al * ga + c * al * al,
    )


def in_FM(Q, M):
    """Congruence test for membership in F_M."""
    if gcd(Q.a, M) != 1:
        return False
    if M % 2 == 1:
        return Q.b % M == 0 and Q.c % M == 0
    return Q.b % (2 * M) == 0 and Q.c % M == 0


# ---------------------------------------------------------------------------
# reduced cycles and automorphs for indefinite nonsquare discriminant


def _rho_step(a, b, c, d, s):
    """One reduction / cycle step on the triple (a, b, c) of discriminant d.

    s = isqrt(d).  Returns (c, r, c', m): the next triple (c, r, c') and
    the m for which (a, b, c) acted by (-m, -1; 1, 0) is that triple.
    """
    if c == 0:
        raise BadIndex(f"reduction step on ({a}, {b}, {c}): c = 0")
    ac = abs(c)
    if ac > s:
        lo = -ac + 1          # -|c| < r <= |c|
    else:
        lo = s - 2 * ac + 1   # sqrt(d) - 2|c| < r <= sqrt(d)
    t = 2 * c
    r = lo + ((-b - lo) % abs(t))
    return c, r, (r * r - d) // (4 * c), (-b - r) // t


def _reduced_cycle(a, b, c):
    """Reduce the triple (a, b, c) by rho steps, then walk its cycle once.

    Reduced means 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b.
    Returns (members, (x, y)): the reduced triples around the cycle, from
    the first one reached, and the first row of the cycle product h, the
    product of the steps' (-m, -1; 1, 0), which fixes members[0].
    """
    d = b * b - 4 * a * c
    s = isqrt(max(d, 0))
    if d <= 0 or s * s == d:
        raise SquareDiscriminant(f"discriminant {d}")
    for _ in range(10_000):
        if 1 <= b <= s and s + 1 - b <= 2 * abs(a) <= s + b:
            break
        a, b, c, _m = _rho_step(a, b, c, d, s)
    else:
        raise NoConvergence(f"({a}, {b}, {c}) not reduced after 10000 steps")
    start = (a, b, c)
    members, x, y = [], 1, 0
    for _ in range(100_000):
        members.append((a, b, c))
        a, b, c, m = _rho_step(a, b, c, d, s)
        x, y = y - m * x, -x
        if (a, b, c) == start:
            return members, (x, y)
    raise NoConvergence(f"cycle of {start} open after 100000 steps")


@lru_cache(maxsize=None)
def _unit(d):
    """The least solution (t, u), t > 2 and u > 0, of t^2 - d u^2 = 4.

    The cycle product h of the principal form's reduced cycle generates
    the automorphs of the cycle's first member (a, b, c) up to sign, so
    its first row is +-((t + bu)/2, -au).
    """
    members, (x, y) = _reduced_cycle(1, d % 2, (d % 2 - d) // 4)
    a, b, _ = members[0]
    u = y // a
    t, u = abs(2 * x + b * u), abs(u)
    if t <= 2 or t * t - d * u * u != 4:
        raise NoConvergence(f"the principal cycle of discriminant {d} "
                            f"closed on ({t}, {u}), not a unit")
    return t, u


def fundamental_automorph(Q):
    """Generator of the SL2(Z) automorphs of Q, up to sign, of trace t > 2.

    With P = (a, b, c) the primitive part of Q and (t, u) = _unit(disc P),
    it is ((t + bu)/2, -au; cu, (t - bu)/2), the one P's own cycle product
    gives; the automorphs of P, and so of Q, are +-its powers (Cohen 1993,
    5.6-5.7; Buchmann-Vollmer 2007).
    """
    P = Q.primitive_part()
    a, b, c = P.triple()
    t, u = _unit(P.discriminant())
    A = ((t + b * u) // 2, -a * u, c * u, (t - b * u) // 2)
    if act(P, A) != P:
        raise NoConvergence(f"the unit ({t}, {u}) gives {A}, "
                            f"not an automorph of {P}")
    return A


def _is_normalized(Q, g):
    """The orientation condition r - t*omega_Q > 1 on g = [[r, s], [t, u]].

    omega_Q = (b + sqrt(d)) / (2c); multiplying through by 2c reduces the
    inequality to an exact integer-plus-surd sign test.
    """
    d = Q.discriminant()
    r, _, t, _ = g
    c2 = 2 * Q.c
    if c2 == 0:
        raise BadIndex(f"orientation of {Q} needs c != 0")
    lhs = sign_a_plus_b_sqrt(c2 * (r - 1) - t * Q.b, -t, d)
    return lhs == (1 if c2 > 0 else -1)


def gamma_Q(Q, M):
    """The fundamental automorph of Q, orientation-normalized, in Gamma0(M).

    For Q = m*P in F_M, P = (a, b, c) primitive, m divides Q.a, which is
    prime to M, so M | m*c gives M | c: the lower-left entry cu of
    fundamental_automorph(Q) is divisible by M, and no power is needed.
    Forms whose fundamental automorph leaves Gamma0(M) are refused.
    """
    g = fundamental_automorph(Q)
    if not _is_normalized(Q, g):
        g = mat_inv(g)
        if not _is_normalized(Q, g):
            raise BadSemigroupElement(
                f"neither {g} nor its inverse is oriented for {Q}")
    if g[2] % M or act(Q, g) != Q:
        raise BadSemigroupElement(f"{g} is not an automorph of {Q} "
                                  f"in Gamma0({M})")
    return g


# ---------------------------------------------------------------------------
# boundary divisors of geodesic cycles


def square_endpoints(Q):
    """Oriented endpoint pair (omega, omega') for square discriminant."""
    d = Q.discriminant()
    if d <= 0 or isqrt(d) ** 2 != d:
        raise BadIndex(f"endpoints need a positive square discriminant, "
                       f"got {d}")
    e = isqrt(d)
    if Q.c != 0:
        return (
            RationalCusp(Q.b + e, 2 * Q.c),
            RationalCusp(Q.b - e, 2 * Q.c),
        )
    if Q.b > 0:
        return RationalCusp.infinity(), RationalCusp(Q.a, Q.b)
    return RationalCusp(Q.a, Q.b), RationalCusp.infinity()


def cycle_divisor(Q, M, omega):
    """Boundary divisor of the oriented cycle of Q at level M, as the pairs
    (cusp, coefficient): the endpoints at square discriminant, else
    {gamma_Q omega} - {omega}."""
    d = Q.discriminant()
    e = isqrt(d)
    if e * e == d:
        w1, w2 = square_endpoints(Q)
        return ((w1, 1), (w2, -1))
    g = gamma_Q(Q, M)
    moved = omega.apply(g)
    if moved == omega:
        raise BadSemigroupElement(f"{g} fixes the base cusp {omega}")
    return ((moved, 1), (omega, -1))


# ---------------------------------------------------------------------------
# canonical keys of SL2(Z) classes


def _root_directions(Q):
    """Primitive integer vectors spanning the two rational root lines."""
    d = Q.discriminant()
    e = isqrt(max(d, 0))
    if d <= 0 or e * e != d:
        raise BadIndex(f"root directions need a positive square "
                       f"discriminant, got {d}")
    if Q.a == 0:
        dirs = [(1, 0), (-Q.c, Q.b)]
    else:
        dirs = [(-Q.b + e, 2 * Q.a), (-Q.b - e, 2 * Q.a)]
    out = []
    for x, y in dirs:
        g = gcd(x, y)
        if g == 0:
            raise BadIndex(f"{Q} has a zero root direction")
        out.append((x // g, y // g))
    return out


def _square_canonical(P):
    """Canonical form (0, e, c0) of a primitive square-discriminant form.

    Returns (canonical QuadForm, t) with act(P, t) = canonical; two such
    forms are SL2(Z)-equivalent iff their canonicals coincide.
    """
    if not P.is_primitive():
        raise BadIndex(f"{P} is not primitive")
    dirs = _root_directions(P)
    e = isqrt(P.discriminant())
    for px, qx in dirs:
        _, s, t = xgcd(px, qx)
        g = mat_inv((px, qx, -t, s))   # NonUnimodular unless gcd is 1
        F = act(P, g)
        if F.a != 0 or abs(F.b) != e:
            raise BadIndex(f"{P} moved by {g} to {F}, not (0, +-{e}, c)")
        if F.b == e:
            c0 = F.c % e if e > 0 else F.c
            m = (c0 - F.c) // e
            tr = (1, 0, -m, 1)
            total = mat_mul(g, tr)
            canon = act(P, total)
            if canon.triple() != (0, e, c0):
                raise BadIndex(f"{P} moved by {total} to {canon}, "
                               f"not (0, {e}, {c0})")
            return canon, total
    raise NoConvergence(f"no root direction of {P} gives the +{e} "
                        f"orientation")


# ---------------------------------------------------------------------------
# class enumeration


def _primitive_sl2_classes(d):
    """Representatives of primitive SL2(Z) classes of discriminant d > 0.

    Each representative is its class's canonical triple, the one
    _canonical_key returns.  Scan and cycle walk run on integer triples;
    only the returned representatives become QuadForms.
    """
    if d <= 0 or d % 4 not in (0, 1):
        return []
    s = isqrt(d)
    if s * s == d:
        return [QuadForm(0, s, c) for c in range(s) if gcd(s, c) == 1]
    reduced = set()
    for b in range(1, s + 1):
        if (b * b - d) % 4:
            continue
        prod = (b * b - d) // 4   # equals a*c, negative
        for aa in range(max(1, (s + 2 - b) // 2), (s + b) // 2 + 1):
            if prod % aa:
                continue
            for a in (aa, -aa):
                c = prod // a
                if gcd(gcd(a, b), c) == 1:
                    reduced.add((a, b, c))
    classes = []
    for start in sorted(reduced):
        if start in reduced:
            members, _ = _reduced_cycle(*start)
            reduced.difference_update(members)
            classes.append(min(members))
    return [QuadForm(*t) for t in sorted(classes)]


@lru_cache(maxsize=None)
def _canonical_key(P):
    """Deterministic per-SL2-class key of a primitive form.

    The least member of P's reduced cycle, or (0, e, c) with 0 <= c < e
    for square discriminant e^2.  Class enumeration reads it off
    _primitive_sl2_classes instead; the benchmark reads its cache.
    """
    d = P.discriminant()
    e = isqrt(d)
    if e * e == d:
        return _square_canonical(P)[0].triple()
    return min(_reduced_cycle(P.a, P.b, P.c)[0])


@lru_cache(maxsize=None)
def _local_lines(M):
    """P^1 over each prime power q of M, with the CRT idempotent of q.

    A tuple of (q, points, e): points are the (alpha, gamma) of P^1(Z/q),
    (1, t) for t < q and (p*t, 1) for t < q/p, and e = 1 mod q,
    e = 0 mod M/q.
    """
    out = []
    rest, p = M, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            points = ([(1, t) for t in range(q)]
                      + [(p * t, 1) for t in range(q // p)])
            out.append((q, tuple(points), M // q * pow(M // q, -1, q) % M))
        p += 1
    return tuple(out)


def _bucket_dedupe(P, m, M):
    """Gamma0(M)-inequivalent members of the SL2-orbit of m*P inside F_M.

    One member per left coset h Gamma0(M) whose form Q|h (Q = m*P) lies
    in F_M.  With h = (alpha, beta; gamma, delta), Q|h(X, Y) is
    Q(X*v1 + Y*v2) for v1 = (delta, -beta) and v2 = (-gamma, alpha), so
    its c-coefficient is Q(v2) = Q(gamma, -alpha) and its b-coefficient
    B(v1, v2), B the bilinear form of Q.  The coset is fixed by h's first
    column (alpha : gamma) in P^1(Z/M).  Given M | Q(v2), M | B(v1, v2)
    holds iff B(., v2) vanishes mod M, because v1 and v2 span Z^2: two
    linear congruences in (alpha, gamma).  The common roots of the three
    congruences are found on P^1(Z/q) for each prime power q of M and
    combined by CRT; each root's representative is the coset section's
    h, whose bottom-left class is (-gamma, alpha).  The congruences are
    necessary, not sufficient (F_M also asks that a' be a unit and, for
    even M, that 2M divide b'), so the exact in_FM test on Q|h stays.

    Q|h and Q|h' are equivalent iff h' lies in h Stab(Q|h) Gamma0(M).
    The automorphs of a form in F_M lie in Gamma0(M) (fundamental_automorph
    and gamma_Q), so that double coset is h Gamma0(M): distinct cosets
    give inequivalent forms.
    """
    a, b, c = m * P.a, m * P.b, m * P.c
    local = []
    for q, points, e in _local_lines(M):
        roots = [(al * e, ga * e) for al, ga in points
                 if (2 * a * ga - b * al) % q == 0
                 and (b * ga - 2 * c * al) % q == 0
                 and (a * ga * ga - b * al * ga + c * al * al) % q == 0]
        if not roots:
            return []
        local.append(roots)
    Qm = QuadForm(a, b, c)
    reps, index = left_coset_reps(M), _p1_table(M)[1]
    out = []
    for combo in product(*local):
        al = sum(x for x, _ in combo) % M
        ga = sum(y for _, y in combo) % M
        Q = act(Qm, reps[index[(-ga % M, al)]])
        if in_FM(Q, M):
            out.append(Q)
    return out


@lru_cache(maxsize=8192)
def enumerate_classes(M, delta):
    """Complete, duplicate-free Gamma0(M)-class list for {Q in F_M, disc = delta}.

    Includes imprimitive forms m*Q with content m coprime to M.
    Deterministic order: lexicographic on the canonical reduced triple of
    the class (scaled by the content), ties broken by the representative.
    The tuple is memoized, at most 8192 of them.
    """
    if delta <= 0:
        raise BadIndex(f"discriminant {delta} is not positive")
    if delta % (M if M % 2 else 4 * M):
        return ()
    keyed = []
    m = 1
    while m * m <= delta:
        if delta % (m * m) == 0 and gcd(m, M) == 1:
            for P in _primitive_sl2_classes(delta // (m * m)):
                # P is _canonical_key of every form in its bucket
                key = (m * P.a, m * P.b, m * P.c)
                keyed.extend(((key, Q.triple()), Q)
                             for Q in _bucket_dedupe(P, m, M))
        m += 1
    keyed.sort(key=itemgetter(0))
    return tuple(Q for _, Q in keyed)
