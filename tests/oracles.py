"""Value-by-value operators, the oracles for the cached and batched ones.

The double coset and the involution act on a list of generator values of
any type with ``act(g)``, ``scale(n)``, ``zero_like()`` and ``+``, one
path term at a time, which is how the package applied Hecke operators
and the involution before it built them as integer matrices and stratum
batches.  ``invol_tagged`` is the involution on one tagged value.

``act_blocks_formula`` is the entry-by-entry Sym^d block that the numpy
recurrence ``dist._sym_blocks`` replaced, and ``J_oc_values`` the
finite-precision lift's coefficient at one form computed value by value:
the symbol evaluated on the cycle divisor through ``TaggedDist2.act``,
then ``tilde_JQ`` pushing each tag component forward along the form.
"""

from math import comb, factorial

import numpy as np

from shintani.arith import RationalCusp
from shintani.dist import (
    DistN,
    MetaCoeff,
    MomentDist1,
    MomentDist2,
    TaggedDist2,
    _pairs,
    dirac_distN,
)
from shintani.errors import NotInFM
from shintani.manin import MAT_IOTA, evaluate_values, presentation
from shintani.qf import cycle_divisor, in_FM


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
    return tilde_JQ(Phi.evaluate(cycle_divisor(Q, Phi.level, base).pairs), Q)
