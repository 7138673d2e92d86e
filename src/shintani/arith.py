"""Base exact arithmetic: Kronecker symbols, p-adic valuations, quadratic
Dirichlet characters, rational cusps, continued-fraction paths, ExactValue.

Everything here is integer arithmetic; no floating point.
"""

from math import gcd

from .errors import (BadIndex, NoConvergence, NonUnimodular, OperandMismatch,
                     PrimalityUnproven)


def xgcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def crt(r1, m1, r2, m2):
    """Residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    g, u, _ = xgcd(m1, m2)
    if g != 1:
        raise BadIndex(f"moduli {m1} and {m2} are not coprime")
    return (r1 + (r2 - r1) * u % m2 * m1) % (m1 * m2)


def kronecker(a, n):
    """Extended Kronecker symbol (a/n), defined for all integers a, n.

    (a/0) = 0 for every a, so the symbol is totally multiplicative in the
    bottom argument with no excluded cases.
    """
    if n == 0:
        return 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # peel off factors of 2: (a/2) depends on a mod 8
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    # now n odd positive: Jacobi symbol by reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


# Miller-Rabin to these 13 bases has no strong pseudoprime below the bound
# (Sorenson-Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for n below 3.3 * 10^24."""
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_BOUND:
        raise PrimalityUnproven(f"no deterministic test for {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


# ---------------------------------------------------------------------------
# 2x2 integer matrices as row-major 4-tuples (a, b, c, d)

MAT_ID = (1, 0, 0, 1)


def mat_mul(g, h):
    a, b, c, d = g
    e, f, u, v = h
    return (a * e + b * u, a * f + b * v, c * e + d * u, c * f + d * v)


def mat_det(g):
    return g[0] * g[3] - g[1] * g[2]


def mat_inv(g):
    """Inverse of a unimodular integer matrix."""
    det = mat_det(g)
    if det == 1:
        return (g[3], -g[1], -g[2], g[0])
    if det == -1:
        return (-g[3], g[1], g[2], -g[0])
    raise NonUnimodular(f"determinant {det}")


# ---------------------------------------------------------------------------
# p-adic valuations


def valuation(x, p, prec):
    """p-adic valuation of x mod p^prec, capped at prec for the zero residue."""
    x = int(x) % p**prec
    if x == 0:
        return prec
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# quadratic Dirichlet characters, stored as value tables


class DirichletChar:
    """Dirichlet character with values in {-1, 0, 1}.

    Only trivial and quadratic characters arise here, so values are plain
    ints.
    """

    __slots__ = ("modulus", "table")

    def __init__(self, modulus, table):
        if modulus < 1:
            raise BadIndex(f"character modulus {modulus} is not positive")
        self.modulus = modulus
        # full period table, zero on non-units
        self.table = tuple(
            table[a] if gcd(a, modulus) == 1 else 0 for a in range(modulus)
        )

    @classmethod
    def trivial(cls, modulus=1):
        return cls(modulus, {a: 1 for a in range(modulus)})

    @classmethod
    def from_kronecker(cls, D):
        """Quadratic character a -> kronecker(D, a), period |D| (or 4|D|).

        The table reads a = 1..m at a % m, so the period-1 characters of
        D = 0 and D = 1 are trivial, not kronecker(D, 0) = 0.
        """
        m = max(abs(D) if D % 4 in (0, 1) else 4 * abs(D), 1)
        return cls(m, {a % m: kronecker(D, a) for a in range(1, m + 1)})

    def __call__(self, a):
        return self.table[a % self.modulus]

    def __eq__(self, other):
        if not isinstance(other, DirichletChar):
            return NotImplemented
        return self.modulus == other.modulus and self.table == other.table

    def __hash__(self):
        return hash((self.modulus, self.table))

    def __mul__(self, other):
        m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
        return DirichletChar(m, {a: self(a) * other(a) for a in range(m)})

    def squared(self):
        return self * self

    def factor(self, p):
        """Split into (tame, wild) parts with wild modulus the p-part."""
        mN, mp = self.modulus, 1
        while mN % p == 0:
            mN //= p
            mp *= p
        tame = {a: self(crt(a, mN, 1, mp)) for a in range(mN) if gcd(a, mN) == 1}
        wild = {a: self(crt(1, mN, a, mp)) for a in range(mp) if gcd(a, mp) == 1}
        return DirichletChar(mN, tame), DirichletChar(mp, wild)

    def __repr__(self):
        return f"DirichletChar(mod {self.modulus})"


# ---------------------------------------------------------------------------
# rational cusps and continued-fraction paths


class RationalCusp:
    """Point of P^1(Q): a reduced fraction num/den, with infinity = 1/0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            num = 1
        else:
            g = gcd(num, den)
            num //= g
            den //= g
            if den < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalCusp is immutable")

    @classmethod
    def infinity(cls):
        return cls(1, 0)

    @property
    def is_infinity(self):
        return self.den == 0

    def apply(self, g):
        """Moebius action of g = (a, b, c, d): column vector convention."""
        a, b, c, d = g
        return RationalCusp(a * self.num + b * self.den, c * self.num + d * self.den)

    def __eq__(self, other):
        if not isinstance(other, RationalCusp):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_infinity:
            return "Cusp(oo)"
        return f"Cusp({self.num}/{self.den})" if self.den != 1 else f"Cusp({self.num})"


def sl2_chain(cusp):
    """SL2(Z) matrices g_j with {cusp} - {oo} = -sum_j ({g_j 0} - {g_j oo}).

    Columns of g_j are (conv_j, +-conv_{j-1}), convergents from (p_-2,
    q_-2) = (0, 1), the sign fixed so det = +1; flipping a column's sign
    leaves its cusp unchanged.
    """
    if cusp.is_infinity:
        raise BadIndex("no chain for the infinite cusp")
    (pp, qq), (pn, qn) = (0, 1), (1, 0)
    a, b, chain = cusp.num, cusp.den, []
    while b:
        # floor division keeps partial quotients >= 1 after the first
        q, r = divmod(a, b)
        a, b = b, r
        (pp, qq), (pn, qn) = (pn, qn), (q * pn + pp, q * qn + qq)
        g = (pn, pp, qn, qq)
        if mat_det(g) == -1:
            g = (pn, -pp, qn, -qq)
        if mat_det(g) != 1:
            raise NonUnimodular(f"chain step {g} of {cusp} is not in SL2(Z)")
        chain.append(g)
    if (pn, qn) != (cusp.num, cusp.den):
        raise NoConvergence(f"the convergents of {cusp} end at {pn}/{qn}")
    return chain


# ---------------------------------------------------------------------------
# exact values: elements of a module over one base ring


class ExactValue:
    """Base of the symbol and q-expansion types, modules over one ring.

    A subclass supplies ``_key()`` (its module), ``_state()``, ``_add`` and
    ``scale``; adding another type or module raises ``_mismatch``.
    """

    __slots__ = ()
    _mismatch = OperandMismatch

    def __add__(self, other):
        if type(other) is not type(self) or other._key() != self._key():
            raise self._mismatch(f"{self!r} and {other!r} do not add")
        return self._add(other)

    def __sub__(self, other):
        return self + (other.scale(-1) if type(other) is type(self) else other)

    def __neg__(self):
        return self.scale(-1)

    def zero_like(self):
        return self.scale(0)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key() and self._state() == other._state()
