"""Exact linear algebra over Q and over Z/p^M.

Rational solvers use Fraction rows.  The p-adic side works on numpy int64
matrices with entries in [0, p^M); _check_kernel_bounds refuses every
profile with p^M >= 2^28, and all products are chunk-reduced so int64
never overflows.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import valuation
from .errors import KernelOverflow, OperandMismatch

# inner-dimension chunk for reduced accumulation:
# chunk * (p^M - 1)^2 must stay below 2^63
_CHUNK = 128


@lru_cache(maxsize=None)
def _check_kernel_bounds(p, prec, T=0):
    """Raise KernelOverflow unless the int64 kernels are exact at (p, prec, T).

    matmul_mod and the Howell reduction need p^prec < 2^28.  The value
    action (``ocsymb._act_stratum``) sums T + 1 products of residues in one
    raw ``@``, so (T + 1) (p^prec - 1)^2 must stay below 2^63.
    """
    mod = p**prec
    if mod >= 2**28:
        raise KernelOverflow(f"{p}^{prec} is not below 2^28")
    if (T + 1) * (mod - 1) ** 2 >= 2**63:
        raise KernelOverflow(
            f"{T + 1} products of residues mod {p}^{prec} overflow int64")


def matmul_mod(A, B, mod):
    """A @ B reduced mod ``mod``, safe against int64 overflow."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    a2 = A.reshape(1, -1) if A.ndim == 1 else A
    b2 = B.reshape(-1, 1) if B.ndim == 1 else B
    inner = a2.shape[1]
    if inner != b2.shape[0]:
        raise OperandMismatch(
            f"inner dimensions {inner} and {b2.shape[0]} do not match")
    out = np.zeros((a2.shape[0], b2.shape[1]), dtype=np.int64)
    for lo in range(0, inner, _CHUNK):
        hi = min(lo + _CHUNK, inner)
        out = (out + a2[:, lo:hi] @ b2[lo:hi, :]) % mod
    if A.ndim == 1 and B.ndim == 1:
        return int(out[0, 0])
    if A.ndim == 1:
        return out.reshape(-1)
    if B.ndim == 1:
        return out.reshape(-1)
    return out


# ---------------------------------------------------------------------------
# rational elimination


def frac_rref(rows, ncols):
    """Reduced row echelon form over Q; returns (rows, pivot_columns)."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def frac_nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} over Q, one vector per free column."""
    rref, pivots = frac_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rref[i][free]
        basis.append(v)
    return basis


def frac_solve(rows, rhs):
    """One solution of rows @ x = rhs over Q, or None."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = frac_rref(aug, ncols)
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rref[i][-1]
    # rows with zero coefficients but nonzero rhs mean inconsistency
    for i in range(len(rref)):
        if all(v == 0 for v in rref[i][:ncols]) and rref[i][-1] != 0:
            return None
    for r, b in zip(rows, rhs):
        if sum(Fraction(a) * v for a, v in zip(r, x)) != b:
            return None
    return x


# ---------------------------------------------------------------------------
# Z/p^M kernels via Howell-style reduction


def _howell_reduce(rows, width, p, M):
    """Howell form of the row span of ``rows`` inside (Z/p^M)^width.

    Returns (reduced_rows, pivot_info) where pivot_info[i] = (col, val).
    The Howell property: any span element supported on columns >= c is a
    combination of the returned rows supported on columns >= c.
    """
    pm = p**M
    work = [np.array(r, dtype=np.int64) % pm for r in rows]
    done = []
    info = []
    col = 0
    while col < width:
        cand = [i for i, r in enumerate(work) if r[col] % pm != 0]
        if not cand:
            col += 1
            continue
        best = min(cand, key=lambda i: valuation(work[i][col], p, M))
        row = work.pop(best)
        v = valuation(row[col], p, M)
        unit = int(row[col]) // p**v
        row = (row * pow(unit, -1, pm)) % pm   # pivot entry becomes p^v
        for i, r in enumerate(work):
            e = int(r[col])
            if e:
                q = e // p**v
                work[i] = (r - q * row) % pm
        for j, r in enumerate(done):
            q = int(r[col]) // p**v   # reduce entries above the pivot into [0, p^v)
            if q:
                done[j] = (r - q * row) % pm
        if v > 0:
            # closure: p^(M-v) * row re-enters with pivot annihilated
            work.append((row * p ** (M - v)) % pm)
        done.append(row)
        info.append((col, v))
        col += 1
    return done, info


def zpm_kernel(A, p, M):
    """Howell basis of {x : A @ x = 0 mod p^M}.

    Returns (basis, torsion): basis vectors generate the kernel, and
    torsion[i] is the valuation of the pivot entry of basis[i].  The free
    rank is the number of zero torsion entries, and sum(M - v_i) is the
    p-logarithm of the kernel's cardinality.
    """
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    pm = p**M
    # rows (column_i(A), e_i): the row span is the graph {(A x, x)}
    aug = np.concatenate([A.T % pm, np.eye(n, dtype=np.int64)], axis=1)
    reduced, info = _howell_reduce(list(aug), m + n, p, M)
    raw = [r[m:] for r, (c, _) in zip(reduced, info) if c >= m]
    return zpm_span_basis(raw, n, p, M)


def zpm_span_basis(rows, width, p, M):
    """Howell basis of the span of ``rows`` inside (Z/p^M)^width.

    Returns (basis, torsion) as zpm_kernel does.  The pivots are p^v with
    the entries above each reduced into [0, p^v), which makes the basis
    unique: any generating set of one module gives the same rows.
    """
    if len(rows) == 0:
        return [], []
    basis, info = _howell_reduce(rows, width, p, M)
    return basis, [v for _, v in info]


def zpm_solve(A, b, p, M):
    """One solution of A @ x = b mod p^M, or None."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m, n = A.shape
    pm = p**M
    aug = np.concatenate([A % pm, (b % pm).reshape(m, 1)], axis=1)
    basis, _ = zpm_kernel(aug, p, M)
    for vec in basis:
        t = int(vec[n])
        if t % p != 0:
            tinv = pow(t, -1, pm)
            return (-vec[:n] * tinv) % pm
    return None


def zpm_in_span(vectors, target, p, M):
    """Whether target lies in the Z/p^M span of the given vectors."""
    if not vectors:
        return not np.any(np.asarray(target) % p**M)
    A = np.stack([np.asarray(v, dtype=np.int64) for v in vectors], axis=1)
    return zpm_solve(A, target, p, M) is not None


# ---------------------------------------------------------------------------
# characteristic polynomial, division-free


def berkowitz_charpoly(A, mod):
    """Coefficients [1, c_{n-1}, ..., c_0] of det(XI - A) mod ``mod``."""
    A = np.asarray(A, dtype=np.int64) % mod
    n = A.shape[0]
    if n == 0:
        return [1]
    poly = np.array([1, (-int(A[0, 0])) % mod], dtype=np.int64)
    for k in range(1, n):
        R = A[k, :k]
        C = A[:k, k]
        M0 = A[:k, :k]
        column = [1, (-int(A[k, k])) % mod]
        v = C.copy()
        for j in range(k):
            column.append((-matmul_mod(R, v, mod)) % mod)
            if j < k - 1:
                v = matmul_mod(M0, v, mod)
        # lower-triangular Toeplitz (k+2) x (k+1) applied to poly
        new = np.zeros(k + 2, dtype=np.int64)
        for i in range(k + 2):
            acc = 0
            for j in range(min(i, k) + 1):
                acc = (acc + column[i - j] * int(poly[j])) % mod
            new[i] = acc
        poly = new
    return [int(c) % mod for c in poly]


def poly_mul_mod(a, b, mod):
    """Product of coefficient lists (descending or ascending, symmetric)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % mod
    return out


def rank_mod_p(A, p):
    """Rank of A over the field F_p."""
    A = (np.asarray(A, dtype=np.int64) % p).copy()
    m, n = A.shape
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, m) if A[i, c] % p), None)
        if pivot is None:
            continue
        A[[rank, pivot]] = A[[pivot, rank]]
        inv = pow(int(A[rank, c]), -1, p)
        A[rank] = A[rank] * inv % p
        for i in range(m):
            if i != rank and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[rank]) % p
        rank += 1
        if rank == m:
            break
    return rank


def lower_convex_hull(points):
    """Vertices of the lower convex hull of (x, y) points, x strictly increasing."""
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop if hull turns left (or straight) at the new point
            if (x2 - x1) * (pt[1] - y1) <= (y2 - y1) * (pt[0] - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull
