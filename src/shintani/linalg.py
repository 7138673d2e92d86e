"""Exact linear algebra over Q and over Z/p^M.

Rational elimination is multimodular: RREF mod primes below 2^28 through
the same Howell reduction, CRT, rational reconstruction, and an exact
integer certificate before anything is returned (``frac_rref``).  The
p-adic side works on numpy int64 matrices with entries in [0, p^M);
_check_kernel_bounds refuses every profile with p^M >= 2^28, and all
products are chunk-reduced so int64 never overflows.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import isqrt, lcm, prod

import numpy as np

from .arith import is_prime, valuation
from .errors import KernelOverflow, NoConvergence, OperandMismatch

# inner-dimension chunk for reduced accumulation:
# chunk * (p^M - 1)^2 must stay below 2^63
_CHUNK = 128


@lru_cache(maxsize=None)
def _check_kernel_bounds(p, prec, T=0):
    """Raise KernelOverflow unless the int64 kernels are exact at (p, prec, T).

    matmul_mod and the Howell reduction need p^prec < 2^28.  The batched
    lift (``lifting._J_batch``) sums up to T + 1 products of residues in one
    raw ``np.matmul``, so (T + 1) (p^prec - 1)^2 must stay below 2^63.
    """
    mod = p**prec
    if mod >= 2**28:
        raise KernelOverflow(f"{p}^{prec} is not below 2^28")
    if (T + 1) * (mod - 1) ** 2 >= 2**63:
        raise KernelOverflow(
            f"{T + 1} products of residues mod {p}^{prec} overflow int64")


def matmul_mod(A, B, mod):
    """A @ B reduced mod ``mod``, safe against int64 overflow.

    Stacks of matrices broadcast as in np.matmul, and a 1-D operand is a
    row (A) or column (B) whose axis the result drops, as there.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    a2 = A.reshape(1, -1) if A.ndim == 1 else A
    b2 = B.reshape(-1, 1) if B.ndim == 1 else B
    inner = a2.shape[-1]
    if inner != b2.shape[-2]:
        raise OperandMismatch(
            f"inner dimensions {inner} and {b2.shape[-2]} do not match")
    out = a2[..., :0] @ b2[..., :0, :]   # zeros of the broadcast shape
    for lo in range(0, inner, _CHUNK):
        hi = lo + _CHUNK
        out = (out + a2[..., lo:hi] @ b2[..., lo:hi, :]) % mod
    if A.ndim == 1:
        out = out[..., 0, :]
    if B.ndim == 1:
        out = out[..., 0]
    return int(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# rational elimination, multimodular


@lru_cache(maxsize=None)
def _prime(i):
    """The i-th prime below 2^28, largest first; none is sought at import."""
    q = _prime(i - 1) - 2 if i else 2**28 - 1
    while not is_prime(q):
        q -= 2
    return q


def _primes():
    return map(_prime, count())


def _over_denominator(vec):
    """(den, den * vec) for a rational vector, den its least denominator."""
    den = lcm(*(x.denominator for x in vec))
    return den, [x.numerator * (den // x.denominator) for x in vec]


def _rational(a, m):
    """n/d congruent to a mod m with |n|, d <= sqrt(m/2) (Wang), or None."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= bound else None


def frac_rref(rows, ncols):
    """Reduced row echelon form over Q of rows of ncols integers or
    Fractions; returns (rows, pivot_columns).

    Multimodular: Howell bases mod primes below 2^28 (the RREF mod q), CRT
    over the primes with the best pivot set (most pivots, then
    lexicographically first) and rational reconstruction.  A candidate R
    is returned only if rows @ K = 0 in integers, K = (e_f - sum_i R[i][f]
    e_(p_i)) over the free columns f; as rank mod q <= rank over Q, that
    proves R is the RREF.  Past a Hadamard bound on the primes tried,
    raises NoConvergence (see the README for both arguments).
    """
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    ints = [_over_denominator(row)[1] for row in rows if any(row)]
    A = np.array(ints, dtype=object).reshape(len(ints), ncols)
    squares = sorted(sum(x * x for x in row) for row in ints)
    hadamard_sq = prod(squares[len(squares) - min(A.shape):])
    best, tried = None, 1
    for q in _primes():
        if tried**2 > 4 * hadamard_sq**3:
            break
        tried *= q
        reduced, info = _howell_reduce(list(A % q), ncols, q, 1)
        pivots = [c for c, _ in info]
        free = sorted(set(range(ncols)) - set(pivots))
        residues = np.reshape(reduced, (len(pivots), ncols))[:, free]
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus, acc = key, q, residues.astype(object)
        elif key == best:
            acc = acc + modulus * ((residues - acc) * pow(modulus, -1, q) % q)
            modulus *= q
        else:
            continue
        entries = [_rational(a, modulus) for a in acc.flat]
        if None in entries:
            continue
        den, nums = _over_denominator(entries)
        K = np.zeros((ncols, len(free)), dtype=object)
        K[free, range(len(free))] = den
        K[pivots] = -np.array(nums, dtype=object).reshape(acc.shape)
        if not np.any(A @ K):
            R = np.full((len(pivots), ncols), Fraction(0), dtype=object)
            R[:, free] = np.array(entries, dtype=object).reshape(acc.shape)
            R[range(len(pivots)), pivots] = Fraction(1)
            return R.tolist(), pivots
    raise NoConvergence(f"no certified RREF of a {len(A)} x {ncols} matrix "
                        f"from primes with product {tried}")


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


def _graph(A, p, M):
    """(image, zpm_kernel(A)) from the Howell form of A's graph mod p^M:
    image lists (c, v, a, u) for each row (a, u) whose pivot p^v is at a
    column c < m, so that A u = a."""
    _check_kernel_bounds(p, M)
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    # rows (column_i(A), e_i): the row span is the graph {(A x, x)}
    aug = np.concatenate([A.T % p**M, np.eye(n, dtype=np.int64)], axis=1)
    reduced, info = _howell_reduce(list(aug), m + n, p, M)
    image = [(c, v, r[:m], r[m:]) for r, (c, v) in zip(reduced, info)
             if c < m]
    raw = [r[m:] for r, (c, _) in zip(reduced, info) if c >= m]
    return image, zpm_span_basis(raw, n, p, M)


def zpm_kernel(A, p, M):
    """Howell basis of {x : A @ x = 0 mod p^M}.

    Returns (basis, torsion): basis vectors generate the kernel, and
    torsion[i] is the valuation of the pivot entry of basis[i].  The free
    rank is the number of zero torsion entries, and sum(M - v_i) is the
    p-logarithm of the kernel's cardinality.
    """
    return _graph(A, p, M)[1]


def zpm_block_kernel(W, pivots, p, M):
    """Generators of {x : W_s x = 0 mod p^M} for each W_s of a stack W
    indexed (s, group, row, generator, column) in k x k blocks.

    In order, group i whose block at c = pivots[i] is the identity in
    every W_s solves x_c = -R x, R its other blocks: every other group t
    takes W_t - W_tc W_i, which clears its c block, and i leaves.  A unit
    pivot keeps the kernel the same module.  zpm_kernel solves the rest,
    and the x_c are expanded back in reverse order.
    """
    pm = p**M
    W = np.asarray(W, dtype=np.int64) % pm
    S, groups, k, ngens, _ = W.shape
    live, left, solved = np.ones(ngens, bool), np.ones(groups, bool), []
    for i, c in enumerate(pivots):
        if not (live[c] and (W[:, i, :, c] == np.eye(k)).all()):
            continue
        live[c] = left[i] = False
        R = W[:, i].reshape(S, 1, k, ngens * k)
        t = left & W[..., c, :].any(axis=(0, 2, 3))
        Wt = W[:, t]
        sub = matmul_mod(Wt[..., c, :], R, pm)
        W[:, t] = (Wt - sub.reshape(Wt.shape)) % pm
        solved.append((c, R[:, 0].transpose(0, 2, 1)))
    n, rows = int(live.sum()), int(left.sum()) * k
    bases = [zpm_kernel(B[B.any(axis=1)], p, M)[0]
             for B in W[:, left][..., live, :].reshape(S, rows, n * k)]
    X = np.zeros((S, max(map(len, bases)), ngens, k), dtype=np.int64)
    for x, basis in zip(X, bases):
        x[:len(basis), live] = np.reshape(basis, (len(basis), n, k))
    for c, R in reversed(solved):   # x_c is still 0 under its identity
        X[:, :, c] = -matmul_mod(X.reshape(S, -1, ngens * k), R, pm) % pm
    return [x[:len(basis)].reshape(-1, ngens * k)
            for x, basis in zip(X, bases)]


def zpm_span_basis(rows, width, p, M):
    """Howell basis of the span of ``rows`` inside (Z/p^M)^width.

    Returns (basis, torsion) as zpm_kernel does.  The pivots are p^v with
    the entries above each reduced into [0, p^v), which makes the basis
    unique: any generating set of one module gives the same rows.
    """
    _check_kernel_bounds(p, M)
    basis, info = _howell_reduce(rows, width, p, M)
    return basis, [v for _, v in info]


def zpm_solve(A, B, p, M):
    """Solution X of A @ X = B mod p^M, or None if a column has none.

    B is a vector or a matrix of right-hand sides y.  Each column of X is
    -r[:n] / r[n] for the first row r with a unit last entry of the Howell
    basis of ker[A | y].  One reduction of A's graph serves every column:
    back-substitution along its image pivots gives x0 with A x0 = y (a
    remainder means y is not in the image), and ker[A | y] is spanned by
    (k, 0), k in ker A, and (-x0, 1); a Howell basis is unique.
    """
    B = np.asarray(B, dtype=np.int64)
    (m, n), pm = np.shape(A), p**M
    if len(B) != m:
        raise OperandMismatch(f"{len(B)} right-hand sides for {m} rows")
    image, (kernel, _) = _graph(A, p, M)
    Y = (B[:, None] if B.ndim == 1 else B) % pm
    X = np.zeros((n, Y.shape[1]), dtype=np.int64)
    for c, v, a, u in image:   # every product stays below pm^2 < 2^56
        q = Y[c] // p**v
        Y = (Y - np.outer(a, q)) % pm
        X = (X + np.outer(u, q)) % pm
    if Y.any():
        return None
    pad = [np.append(k, 0) for k in kernel]
    for j, x0 in enumerate(X.T if kernel else ()):   # else x0 is unique
        rows, _ = zpm_span_basis(pad + [np.append(-x0 % pm, 1)], n + 1, p, M)
        r = next(r for r in rows if r[n] % p)
        X[:, j] = -r[:n] * pow(int(r[n]), -1, pm) % pm
    return X if B.ndim > 1 else X[:, 0]


# ---------------------------------------------------------------------------
# characteristic polynomial, division-free


def berkowitz_charpoly(A, mod=None):
    """Coefficients [1, c_{n-1}, ..., c_0] of det(XI - A) mod ``mod``, or
    over Z with exact Python ints when mod is None."""
    if mod is None:
        A = np.array([[int(x) for x in row] for row in A], dtype=object)
        red, dot = (lambda x: x), np.dot
    else:
        A = np.asarray(A, dtype=np.int64) % mod
        red, dot = (lambda x: x % mod), (lambda X, v: matmul_mod(X, v, mod))
    n = A.shape[0]
    if n == 0:
        return [1]
    poly = [1, red(-int(A[0, 0]))]
    for k in range(1, n):
        R = A[k, :k]
        C = A[:k, k]
        M0 = A[:k, :k]
        column = [1, red(-int(A[k, k]))]
        v = C.copy()
        for j in range(k):
            column.append(red(-int(dot(R, v))))
            if j < k - 1:
                v = dot(M0, v)
        # lower-triangular Toeplitz (k+2) x (k+1) applied to poly
        poly = [red(sum(column[i - j] * poly[j]
                        for j in range(min(i, k) + 1)))
                for i in range(k + 2)]
    return poly


def poly_mul_mod(a, b, mod):
    """Product of coefficient lists (descending or ascending, symmetric)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % mod
    return out


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
