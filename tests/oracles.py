"""Value-by-value operators, the oracles for the cached and batched ones.

The double coset and the involution act on a list of generator values of
any type with ``act(g)``, ``scale(n)``, ``zero_like()`` and ``+``, one
path term at a time, which is how the package applied Hecke operators
and the involution before it built them as integer matrices and stratum
batches.  ``invol_tagged`` is the involution on one tagged value.
"""

import numpy as np

from shintani.dist import MomentDist2, TaggedDist2, _pairs
from shintani.manin import MAT_IOTA, evaluate_values, presentation


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
