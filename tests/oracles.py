"""Value-by-value operators, the oracles for the cached and batched ones.

The double coset and the involution act on a list of generator values of
any type with ``act(g)``, ``scale(n)``, ``zero_like()`` and ``+``, one
path term at a time, which is how the package applied Hecke operators
and the involution before it built them as integer matrices and stratum
batches.  ``invol_tagged`` is the involution on one tagged value.

``MomentDist2`` (one moment table), ``act_S0`` (its matrix action),
``TaggedDist2`` (a table per tame tag) and ``scalar_action`` are the value
module as the package kept it, one object per generator value, before an
``OCSymbol`` became one int64 array.  ``values_of`` and ``data_of``
convert between that array and a tuple of ``TaggedDist2``, and
``evaluate`` is ``OCSymbol.evaluate`` on the converted values.

``stratum_relation_matrix`` is one stratum's relation matrix in disc
coordinates, the matrix ``solve_oc_space`` reduced whole before it solved
each Teichmuller sector on its own.

``act_blocks_formula`` is the entry-by-entry Sym^d block that the numpy
recurrence ``dist._sym_blocks`` replaced, and ``J_oc_values`` the
finite-precision lift's coefficient at one form computed value by value:
the symbol evaluated on the cycle divisor through ``TaggedDist2.act``,
then ``tilde_JQ`` pushing each tag component forward along the form.
"""

import json
from math import comb, factorial, gcd

import numpy as np

from shintani.arith import RationalCusp
from shintani.cosets import _units
from shintani.dist import (
    DistN,
    MetaCoeff,
    MomentDist1,
    _act_blocks,
    _check_s0,
    _pairs,
    _stratum_cols,
    dirac_distN,
)
from shintani.errors import InsufficientMoments, NotInFM, PrecisionMismatch
from shintani.linalg import _check_kernel_bounds
from shintani.manin import (
    MAT_IOTA, evaluate_values, presentation, weighted_sum)
from shintani.ocsymb import _act_stratum
from shintani.qf import cycle_divisor, in_FM


class MomentDist2:
    """Moments m_c(a, b) mod p^M, discs c = 1..p-1, a + b <= T."""

    __slots__ = ("p", "prec", "T", "data")

    def __init__(self, p, prec, T, data=None):
        _check_kernel_bounds(p, prec, T)
        n = len(_pairs(T)[0])
        if data is None:
            data = np.zeros((p - 1, n), dtype=np.int64)
        else:
            data = np.asarray(data, dtype=np.int64) % p**prec
            assert data.shape == (p - 1, n)
        data.flags.writeable = False
        self.p = p
        self.prec = prec
        self.T = T
        self.data = data

    @classmethod
    def from_entries(cls, p, prec, T, entries):
        """entries: iterable of (disc, a, b, value)."""
        n = len(_pairs(T)[0])
        _, pos = _pairs(T)
        data = np.zeros((p - 1, n), dtype=np.int64)
        for c, a, b, v in entries:
            assert 1 <= c % p <= p - 1
            data[c % p - 1, pos[(a, b)]] = v % p**prec
        return cls(p, prec, T, data)

    def m(self, c, a, b):
        _, pos = _pairs(self.T)
        return int(self.data[c % self.p - 1, pos[(a, b)]])

    def _like(self, data):
        return MomentDist2(self.p, self.prec, self.T, data)

    def zero_like(self):
        return MomentDist2(self.p, self.prec, self.T)

    def _compat(self, other):
        if (self.p, self.prec, self.T) != (other.p, other.prec, other.T):
            raise PrecisionMismatch(
                f"({self.p},{self.prec},{self.T}) vs ({other.p},{other.prec},{other.T})")

    def __add__(self, other):
        self._compat(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._compat(other)
        return self._like(self.data - other.data)

    def __neg__(self):
        return self._like(-self.data)

    def scale(self, r):
        return self._like(self.data * (int(r) % self.p**self.prec))

    def is_zero(self):
        return not self.data.any()

    def __eq__(self, other):
        if not isinstance(other, MomentDist2):
            return NotImplemented
        return ((self.p, self.prec, self.T) == (other.p, other.prec, other.T)
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.p, self.prec, self.T, self.data.tobytes()))

    def __repr__(self):
        nz = int(np.count_nonzero(self.data))
        return f"MomentDist2(p={self.p}, M={self.prec}, T={self.T}, {nz} nonzero)"


def act_S0(mu, g, tame=1):
    """Right action of g in S0(tame * p) on a two-variable distribution.

    Exact on each degree stratum; the disc index transforms by the
    inverse of the upper-left entry.
    """
    p = mu.p
    _check_s0(g, tame * p)
    mod = p**mu.prec
    # The action factors through the entries mod tame * p^prec (tag, disc
    # and moment transforms all reduce); canonical representatives keep the
    # block cache effective when paths carry automorph-sized entries.
    g = tuple(x % (tame * mod) for x in g)
    A = g[0]
    Ainv = pow(A, -1, p)
    src_rows = np.array([(c * Ainv) % p - 1 for c in range(1, p)])
    src = mu.data[src_rows, :]
    out = np.zeros_like(mu.data)
    blocks = _act_blocks(g, p, mu.prec, mu.T)
    for d in range(mu.T + 1):
        cols = list(_stratum_cols(mu.T, d))
        out[:, cols] = (src[:, cols] @ blocks[d].T) % mod
    return mu._like(out)



class TaggedDist2:
    """Tame-tagged two-variable distribution: the symbol value module.

    The semigroup action acts on each component and multiplies the tag
    by the upper-left entry mod N.
    """

    __slots__ = ("N", "p", "prec", "T", "comps")

    def __init__(self, N, p, prec, T, comps=None):
        self.N = N
        self.p = p
        self.prec = prec
        self.T = T
        clean = {}
        for t, mu in (comps or {}).items():
            assert gcd(t, N) == 1 or N == 1
            assert (mu.p, mu.prec, mu.T) == (p, prec, T)
            if not mu.is_zero():
                clean[t % N] = mu
        self.comps = clean

    def zero_like(self):
        return TaggedDist2(self.N, self.p, self.prec, self.T)

    def component(self, t):
        return self.comps.get(t % self.N,
                              MomentDist2(self.p, self.prec, self.T))

    def _compat(self, other):
        if (self.N, self.p, self.prec, self.T) != (other.N, other.p,
                                                   other.prec, other.T):
            raise PrecisionMismatch("tame/moment profiles differ")

    def __add__(self, other):
        self._compat(other)
        comps = dict(self.comps)
        for t, mu in other.comps.items():
            comps[t] = comps[t] + mu if t in comps else mu
        return TaggedDist2(self.N, self.p, self.prec, self.T, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, r):
        return TaggedDist2(self.N, self.p, self.prec, self.T,
                           {t: mu.scale(r) for t, mu in self.comps.items()})

    def act(self, g):
        out = self.zero_like()
        for t, mu in self.comps.items():
            piece = TaggedDist2(self.N, self.p, self.prec, self.T,
                                {(g[0] * t) % self.N: act_S0(mu, g, tame=self.N)})
            out = out + piece
        return out

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, TaggedDist2):
            return NotImplemented
        return ((self.N, self.p, self.prec, self.T) ==
                (other.N, other.p, other.prec, other.T)
                and self.comps == other.comps)

    def __repr__(self):
        return f"TaggedDist2(N={self.N}, p={self.p}, tags={sorted(self.comps)})"


def scalar_action(nu, value):
    """Module action of a one-variable tagged distribution on a value.

    Multiplication on the group: x^a y^b picks up t^(a+b), so the n-th
    moments of nu weight the degree strata.  Requires nu's moment range
    to cover the value's total degree.
    """
    if nu.Tp < value.T:
        raise InsufficientMoments(
            f"need scalar moments to degree {value.T}, have {nu.Tp}")
    if (nu.N, nu.p, nu.prec) != (value.N, value.p, value.prec):
        raise PrecisionMismatch("tame/moment profiles differ")
    p = value.p
    mod = p**value.prec
    out = value.zero_like()
    for t1, one in nu.comps.items():
        for t2, two in value.comps.items():
            data = np.zeros_like(two.data)
            for lam in range(1, p):
                col = one.data[lam - 1]
                if not col.any():
                    continue
                # degree weight per flat position
                weights = np.array([int(col[a + b]) for a, b in _pairs(value.T)[0]],
                                   dtype=np.int64)
                for c1 in range(1, p):
                    c = (c1 * lam) % p
                    data[c - 1] = (data[c - 1] + two.data[c1 - 1] * weights) % mod
            piece = TaggedDist2(value.N, p, value.prec, value.T,
                                {(t1 * t2) % value.N: MomentDist2(p, value.prec, value.T, data)})
            out = out + piece
    return out




# ------------------------------------------------------------------- JSON

def moments2_to_json(mu):
    """Canonical moment-table document, entries ordered by (disc, a, b)."""
    pairs, _ = _pairs(mu.T)
    ms = []
    for c in range(1, mu.p):
        for a, b in pairs:
            ms.append({"disc": c, "a": a, "b": b, "val": mu.m(c, a, b)})
    return {"p": mu.p, "M": mu.prec, "T": mu.T, "moments": ms}


def moments2_from_json(obj):
    return MomentDist2.from_entries(
        obj["p"], obj["M"], obj["T"],
        [(e["disc"], e["a"], e["b"], e["val"]) for e in obj["moments"]])


def moments2_dumps(mu):
    return json.dumps(moments2_to_json(mu), sort_keys=True, separators=(",", ":"))


def random_moments2(rng, p, prec, T):
    """Deterministic pseudo-random table for property tests."""
    mod = p**prec
    n = len(_pairs(T)[0])
    data = np.array([[rng.randrange(mod) for _ in range(n)]
                     for _ in range(p - 1)], dtype=np.int64)
    return MomentDist2(p, prec, T, data)


def values_of(sym):
    """Generator values of a symbol's data, one TaggedDist2 each."""
    tags = _units(sym.N)
    return tuple(
        TaggedDist2(sym.N, sym.p, sym.prec, sym.T,
                    {t: MomentDist2(sym.p, sym.prec, sym.T, block)
                     for t, block in zip(tags, gen)})
        for gen in sym.data)


def data_of(values):
    """The data array indexed (generator, tag, disc, moment) of values."""
    return np.array([[v.component(t).data for t in _units(v.N)]
                     for v in values], dtype=np.int64)


def evaluate(sym, divisor):
    return evaluate_values(sym.level, values_of(sym), divisor)


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
    out = []
    for base in presentation(M).base_divisors:
        moved = tuple((cusp.apply(MAT_IOTA), mult) for cusp, mult in base)
        out.append(act_invol(evaluate_values(M, values, moved)))
    return out


def invol_tagged(v):
    """diag(1,-1) on a tagged value: moment (a,b) times (-1)^b, tag fixed."""
    signs = np.array([(-1) ** b for _, b in _pairs(v.T)[0]], dtype=np.int64)
    comps = {t: MomentDist2(v.p, v.prec, v.T, mu.data * signs)
             for t, mu in v.comps.items()}
    return TaggedDist2(v.N, v.p, v.prec, v.T, comps)


def stratum_relation_matrix(level, N, p, prec, T, d):
    """The stratum-d relations as one matrix on (generator, tag, disc, moment).

    Rows are indexed (relation, tag, disc, moment); each term's block is
    _act_stratum on the identity.
    """
    pres = presentation(level)
    blockdim = len(_units(N)) * (p - 1) * (d + 1)
    mod = p**prec
    eye = np.eye(blockdim, dtype=np.int64).reshape(-1, p - 1, d + 1,
                                                    blockdim)

    def add(block, c, g, w):
        W = _act_stratum(g, eye, N, p, prec, T, d).reshape(blockdim, -1)
        sl = slice(c * blockdim, (c + 1) * blockdim)
        block[:, sl] = (block[:, sl] + w * W) % mod
        return block

    return np.vstack([
        weighted_sum(rel, add, np.zeros(
            (blockdim, pres.ngens * blockdim), dtype=np.int64))
        for rel in pres.relations])


def act_blocks_formula(g, p, prec, T):
    """Per-degree matrices of the substitution (x,y) -> ((x,y)g).

    Stratum d output (a, b=d-a) from input (n, d-n):
    V_d[a, n] = sum over i+j = n of C(a,i) C(b,j) A^i C^(a-i) B^j D^(b-j).
    """
    A, B, C, D = g
    mod = p**prec
    blocks = []
    for d in range(T + 1):
        V = np.zeros((d + 1, d + 1), dtype=np.int64)
        for a in range(d + 1):
            b = d - a
            for n in range(d + 1):
                tot = 0
                for i in range(max(0, n - b), min(a, n) + 1):
                    j = n - i
                    tot += (comb(a, i) * comb(b, j)
                            * pow(A, i, mod) * pow(C, a - i, mod)
                            * pow(B, j, mod) * pow(D, b - j, mod))
                V[a, n] = tot % mod
        blocks.append(V)
    return tuple(blocks)


def JQ_dist(mu, Q):
    """Pushforward of a two-variable distribution along the form Q.

    Q must be congruent to a*x^2 mod p on the support (p divides the two
    trailing coefficients), so discs map by c -> a c^2; precision halves.
    """
    qa, qb, qc = Q.triple()
    p = mu.p
    assert qb % p == 0 and qc % p == 0, "form must reduce to a*x^2 mod p"
    assert qa % p != 0
    Tp = mu.T // 2
    mod = p**mu.prec
    data = np.zeros((p - 1, Tp + 1), dtype=np.int64)
    _, pos = _pairs(mu.T)
    for n in range(Tp + 1):
        terms = []
        for i in range(n + 1):
            for j in range(n - i + 1):
                kk = n - i - j
                coeff = (factorial(n) // (factorial(i) * factorial(j) * factorial(kk))
                         * pow(qa, i, mod) * pow(qb, j, mod) * pow(qc, kk, mod)) % mod
                terms.append((coeff, pos[(2 * i + j, j + 2 * kk)]))
        for cx in range(1, p):
            cout = (qa * cx * cx) % p
            tot = 0
            for coeff, flat in terms:
                tot += coeff * int(mu.data[cx - 1, flat])
            data[cout - 1, n] = (data[cout - 1, n] + tot) % mod
    return MomentDist1(p, mu.prec, Tp, data)


def tilde_JQ(value, Q):
    """Metaplectic J-coefficient of a tagged value at the form Q.

    left = point mass at 1; right = sum over tags t of the pushforward
    of the t-component, tagged by t^2 * a_Q mod N.
    """
    N, p, prec = value.N, value.p, value.prec
    Tp = value.T // 2
    qa = Q.triple()[0]
    right = DistN(N, p, prec, Tp)
    for t, mu in value.comps.items():
        piece = DistN(N, p, prec, Tp,
                      {(t * t * qa) % N: JQ_dist(mu, Q)})
        right = right + piece
    # The left factor carries twice the right factor's moment range: its
    # evaluations go through the squaring map, which halves the range.
    return MetaCoeff(dirac_distN(1, N, p, prec, 2 * Tp), right)


def J_oc_values(Phi, Q, base=None):
    """J_oc at the form Q, value by value: tilde_JQ(Phi(D_Q), Q)."""
    if not in_FM(Q, Phi.level):
        raise NotInFM(f"{Q!r} is not adapted to level {Phi.level}")
    if base is None:
        base = RationalCusp.infinity()
    return tilde_JQ(evaluate(Phi, cycle_divisor(Q, Phi.level, base).pairs), Q)
