"""Integral indefinite binary quadratic forms.

Covers the congruence families F_M, the unimodular right action, Gauss
reduction cycles, fundamental automorphs, level automorphs with their
orientation normalization, geodesic boundary divisors, exact equivalence
testing under Gamma0(M), and deterministic class enumeration.

Class enumeration never scans the cosets of Gamma0(M).  The primitive
SL2(Z) classes of a discriminant come from one walk of each reduced cycle
on integer triples, and each class's representative is the least triple
of its cycle, which is also its sort key.  The left cosets h Gamma0(M)
whose form m*P|h can lie in F_M are the roots mod M, in h's first column
(alpha : gamma), of the congruences that make its b- and c-coefficients
vanish; they are found one prime power of M at a time and combined by
CRT, and the exact F_M test runs on those cosets only.
"""

import hashlib
import json
import os
from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from operator import itemgetter

from .arith import (
    MAT_ID,
    RationalCusp,
    mat_det,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_pow,
    sign_a_plus_b_sqrt,
    xgcd,
)
from .cosets import _p1_table, left_coset_reps
from .errors import (
    BadIndex, DiscriminantMismatch, NoConvergence, NonUnimodular,
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
# Gauss reduction for indefinite nonsquare discriminant


def is_reduced(Q):
    """0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, exactly."""
    d = Q.discriminant()
    s = isqrt(max(d, 0))
    if d <= 0 or s * s == d:
        raise SquareDiscriminant(f"discriminant {d}")
    return 1 <= Q.b <= s and s + 1 - Q.b <= 2 * abs(Q.a) <= s + Q.b


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


def _rho(Q):
    """One reduction / cycle step; returns (Q', g) with act(Q, g) = Q'."""
    d = Q.discriminant()
    a, b, c, m = _rho_step(Q.a, Q.b, Q.c, d, isqrt(d))
    return QuadForm(a, b, c), (-m, -1, 1, 0)


def reduce_form(Q):
    """Reduce to a cycle member; returns (R, t) with act(Q, t) = R."""
    d = Q.discriminant()
    if d <= 0 or isqrt(d) ** 2 == d:
        raise SquareDiscriminant(f"discriminant {d}")
    R, t = Q, MAT_ID
    guard = 0
    while not is_reduced(R):
        R, g = _rho(R)
        t = mat_mul(t, g)
        guard += 1
        if guard >= 10_000:
            raise NoConvergence(f"{Q} not reduced after {guard} steps")
    return R, t


def _cycle(R0):
    """The rho-cycle through reduced R0.

    Returns (members, h): members lists (form, transform from R0) around
    the cycle, and act(R0, h) = R0 with h the full cycle product.
    """
    members = [(R0, MAT_ID)]
    R, g = _rho(R0)
    t = g
    guard = 0
    while R != R0:
        members.append((R, t))
        R, g = _rho(R)
        t = mat_mul(t, g)
        guard += 1
        if guard >= 100_000:
            raise NoConvergence(f"cycle of {R0} open after {guard} steps")
    return members, t


def fundamental_automorph(Q):
    """Positive-trace generator of the SL2(Z) automorph group, up to sign."""
    d = Q.discriminant()
    if d <= 0 or isqrt(d) ** 2 == d:
        raise SquareDiscriminant(f"discriminant {d}")
    P = Q.primitive_part()
    R0, t = reduce_form(P)
    _, h = _cycle(R0)
    A = mat_mul(mat_mul(t, h), mat_inv(t))
    if A[0] + A[3] < 0:
        A = mat_neg(A)
    assert A[0] + A[3] > 2 and act(P, A) == P
    return A


def _is_normalized(Q, g):
    """The orientation condition r - t*omega_Q > 1 on g = [[r, s], [t, u]].

    omega_Q = (b + sqrt(d)) / (2c); multiplying through by 2c reduces the
    inequality to an exact integer-plus-surd sign test.
    """
    d = Q.discriminant()
    r, _, t, _ = g
    c2 = 2 * Q.c
    assert c2 != 0
    lhs = sign_a_plus_b_sqrt(c2 * (r - 1) - t * Q.b, -t, d)
    return lhs == (1 if c2 > 0 else -1)


def gamma_Q(Q, M):
    """Least positive automorph power inside Gamma0(M), orientation-normalized."""
    A = fundamental_automorph(Q)
    if M == 1:
        j0 = 1
    else:
        B = tuple(x % M for x in A)
        C = B
        j0 = 1
        while C[2] % M != 0:
            C = tuple(x % M for x in mat_mul(C, B))
            j0 += 1
            assert j0 <= 10**7
    g = mat_pow(A, j0)
    if not _is_normalized(Q, g):
        g = mat_inv(g)
        assert _is_normalized(Q, g)
    assert g[2] % M == 0 and act(Q, g) == Q
    return g


# ---------------------------------------------------------------------------
# boundary divisors of geodesic cycles


class CycleDivisor:
    """Degree-zero divisor bounding the geodesic cycle attached to a form.

    ``pairs`` is a tuple of (cusp, coefficient); provenance records either
    the rational endpoints (square discriminant) or the automorph and base
    point used.
    """

    __slots__ = ("pairs", "provenance")

    def __init__(self, pairs, provenance):
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "provenance", provenance)
        assert sum(n for _, n in self.pairs) == 0

    def __setattr__(self, name, value):
        raise AttributeError("CycleDivisor is immutable")

    def __eq__(self, other):
        if not isinstance(other, CycleDivisor):
            return NotImplemented
        return self.pairs == other.pairs

    def __repr__(self):
        return f"CycleDivisor({self.pairs!r})"


def square_endpoints(Q):
    """Oriented endpoint pair (omega, omega') for square discriminant."""
    d = Q.discriminant()
    e = isqrt(d)
    assert e * e == d and d > 0
    if Q.c != 0:
        return (
            RationalCusp(Q.b + e, 2 * Q.c),
            RationalCusp(Q.b - e, 2 * Q.c),
        )
    if Q.b > 0:
        return RationalCusp.infinity(), RationalCusp(Q.a, Q.b)
    return RationalCusp(Q.a, Q.b), RationalCusp.infinity()


def cycle_divisor(Q, M, omega):
    """Boundary divisor of the oriented cycle of Q at level M."""
    d = Q.discriminant()
    e = isqrt(d)
    if e * e == d:
        w1, w2 = square_endpoints(Q)
        return CycleDivisor(((w1, 1), (w2, -1)), ("endpoints", w1, w2))
    g = gamma_Q(Q, M)
    moved = omega.apply(g)
    assert moved != omega
    return CycleDivisor(((moved, 1), (omega, -1)), ("automorph", g, omega))


# ---------------------------------------------------------------------------
# equivalence testing


def _root_directions(Q):
    """Primitive integer vectors spanning the two rational root lines."""
    d = Q.discriminant()
    e = isqrt(d)
    assert e * e == d
    if Q.a == 0:
        dirs = [(1, 0), (-Q.c, Q.b)]
    else:
        dirs = [(-Q.b + e, 2 * Q.a), (-Q.b - e, 2 * Q.a)]
    out = []
    for x, y in dirs:
        g = gcd(x, y)
        assert g != 0
        out.append((x // g, y // g))
    return out


def _square_canonical(P):
    """Canonical form (0, e, c0) of a primitive square-discriminant form.

    Returns (canonical QuadForm, t) with act(P, t) = canonical; two such
    forms are SL2(Z)-equivalent iff their canonicals coincide.
    """
    d = P.discriminant()
    e = isqrt(d)
    assert e * e == d and d > 0 and P.is_primitive()
    for px, qx in _root_directions(P):
        g0, s, t = xgcd(px, qx)
        assert g0 == 1
        ginv = (px, qx, -t, s)
        assert mat_det(ginv) == 1
        g = mat_inv(ginv)
        F = act(P, g)
        assert F.a == 0 and abs(F.b) == e
        if F.b == e:
            c0 = F.c % e if e > 0 else F.c
            m = (c0 - F.c) // e
            tr = (1, 0, -m, 1)
            total = mat_mul(g, tr)
            canon = act(P, total)
            assert canon.triple() == (0, e, c0)
            return canon, total
    raise AssertionError("no root direction produced the +e orientation")


def _sl2_transporter(P1, P2):
    """Some g in SL2(Z) with act(P1, g) = P2, or None; primitive inputs."""
    d = P1.discriminant()
    e = isqrt(d)
    if e * e == d:
        c1, t1 = _square_canonical(P1)
        c2, t2 = _square_canonical(P2)
        if c1 != c2:
            return None
        return mat_mul(t1, mat_inv(t2))
    R1, t1 = reduce_form(P1)
    R2, t2 = reduce_form(P2)
    members, _ = _cycle(R1)
    for F, h in members:
        if F == R2:
            return mat_mul(mat_mul(t1, h), mat_inv(t2))
    return None


def _automorph_mod_search(g0, A, M):
    """Least n >= 0 with lower-left of g0 * A^n divisible by M, else None.

    Runs entirely mod M; the search stops after one full period of A in
    SL2(Z/M).
    """
    if M == 1:
        return 0
    Am = tuple(x % M for x in A)
    gm = tuple(x % M for x in g0)
    ident = (1 % M, 0, 0, 1 % M)
    power = ident
    n = 0
    while True:
        cur = tuple(x % M for x in mat_mul(gm, power))
        if cur[2] % M == 0:
            return n
        power = tuple(x % M for x in mat_mul(power, Am))
        n += 1
        if power == ident:
            return None
        assert n <= 10**7


def equivalent_under_gamma0(Q1, Q2, M):
    """A matrix g in Gamma0(M) with act(Q1, g) = Q2, or None."""
    d = Q1.discriminant()
    if d != Q2.discriminant():
        raise DiscriminantMismatch(f"{d} vs {Q2.discriminant()}")
    if Q1.content() != Q2.content():
        return None
    P1, P2 = Q1.primitive_part(), Q2.primitive_part()
    g0 = _sl2_transporter(P1, P2)
    if g0 is None:
        return None
    e = isqrt(P1.discriminant())
    if e * e == P1.discriminant():
        return g0 if g0[2] % M == 0 else None
    A = fundamental_automorph(P2)
    n = _automorph_mod_search(g0, A, M)
    if n is None:
        return None
    g = mat_mul(g0, mat_pow(A, n))
    assert g[2] % M == 0 and act(Q1, g) == Q2
    return g


# ---------------------------------------------------------------------------
# class enumeration


def _primitive_sl2_classes(d):
    """Representatives of primitive SL2(Z) classes of discriminant d > 0.

    Each representative is its class's canonical triple, the one
    _canonical_key returns: for nonsquare d the least member of its
    reduced cycle, for square d = e^2 the form (0, e, c) with 0 <= c < e.  Scan and cycle walk run on integer
    triples; only the returned representatives become QuadForms.
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
        lo = s + 1 - b
        hi = s + b
        for aa in range(max(1, (lo + 1) // 2), hi // 2 + 1):
            if prod % aa:
                continue
            for a in (aa, -aa):
                c = prod // a
                if gcd(gcd(a, b), c) == 1:
                    reduced.add((a, b, c))
    classes = []
    for start in sorted(reduced):
        if start not in reduced:
            continue
        a, b, c = start
        least = start
        for _ in range(len(reduced)):
            reduced.discard((a, b, c))
            least = min(least, (a, b, c))
            a, b, c, _m = _rho_step(a, b, c, d, s)
            if (a, b, c) == start:
                break
        else:
            raise NoConvergence(f"cycle of {start} open at discriminant {d}")
        classes.append(least)
    return [QuadForm(*t) for t in sorted(classes)]


@lru_cache(maxsize=None)
def _canonical_key(P):
    """Deterministic per-SL2-class key of a primitive form.

    Class enumeration no longer calls it: the bucket's representative from
    _primitive_sl2_classes is this key.  It stays as the oracle for that
    sort key and because the benchmark reads its cache statistics.
    """
    d = P.discriminant()
    e = isqrt(d)
    if e * e == d:
        canon, _ = _square_canonical(P)
        return canon.triple()
    R0, _ = reduce_form(P)
    members, _ = _cycle(R0)
    return min(F.triple() for F, _ in members)


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
    The automorphs of a form (a, b, c) are ((t - bu)/2, au; -cu,
    (t + bu)/2) with t^2 - d u^2 = 4, so those of a form in F_M lie in
    Gamma0(M) and that double coset is h Gamma0(M): distinct cosets give
    inequivalent forms.
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


_DISK_CACHE_DIR = None


def enable_disk_cache(path):
    """Route enumerate_classes through a content-addressed JSON store."""
    global _DISK_CACHE_DIR
    _DISK_CACHE_DIR = path


def _disk_cached_classes(M, delta):
    key = f"classes:v1:{M}:{delta}".encode()
    path = os.path.join(_DISK_CACHE_DIR,
                        hashlib.sha256(key).hexdigest()[:32] + ".json")
    try:
        with open(path) as fh:
            return tuple(QuadForm(a, b, c) for a, b, c in json.load(fh))
    except (OSError, ValueError):
        pass
    out = _enumerate_classes(M, delta)
    os.makedirs(_DISK_CACHE_DIR, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump([list(Q.triple()) for Q in out], fh)
    os.replace(tmp, path)
    return out


def enumerate_classes(M, delta):
    """Complete, duplicate-free Gamma0(M)-class list for {Q in F_M, disc = delta}.

    Includes imprimitive forms m*Q with content m coprime to M.
    Deterministic order: lexicographic on the canonical reduced triple of
    the class (scaled by the content), ties broken by the representative.
    """
    if delta <= 0:
        raise BadIndex(f"discriminant {delta} is not positive")
    if _DISK_CACHE_DIR is not None:
        return _disk_cached_classes(M, delta)
    return _enumerate_classes(M, delta)


def _enumerate_classes(M, delta):
    if M % 2 == 1:
        if delta % M:
            return ()
    elif delta % (4 * M):
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
