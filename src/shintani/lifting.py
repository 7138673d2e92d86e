"""Lifts from modular symbols to half-integral-weight q-expansions.

Coefficient n of either lift sums over the Gamma_0(M)-classes of the
slot's discriminant, read off one class table: a class m P, P primitive,
has the cycle of P, so each primitive P is evaluated once.  The
exact-coefficient lift pairs symbol values against powers of quadratic
forms, one cached integer kernel per slot, with chi(m) m^k carrying m P;
each thread builds the uncached kernels of its strided slice of the
slots together.  The finite-precision lift does the same with tagged
distribution values, producing tensor coefficients that evaluate to the
exact coefficients at every admissible weight.  Each such coefficient is
the point mass at 1 tensor a right factor, one moment table per tame
tag, and an expansion stores its right factors as one int64 array;
point-mass convolutions on that array carry the imprimitive classes and
the Hecke operators.  Both sides, each an ``arith.ExactValue``, carry
their own Hecke operators, and the verifier checks coefficientwise that
weight evaluation intertwines the two lifts.
"""

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial
from math import factorial, gcd

import numpy as np

from .arith import ExactValue, RationalCusp, is_prime, kronecker, valuation
from .cosets import _units
from .dist import _char_vectors, _indexed_terms, _stratum_cols, _sym_blocks
from .errors import (
    BadIndex,
    BadLevel,
    DegreeMismatch,
    InsufficientMoments,
    NotInFM,
    OperandMismatch,
)
from .linalg import _check_kernel_bounds
from .manin import divisor_terms
from .modsym import _apply_int_matrix, _term_rows, check_ring, ring_reduce
from .ocsymb import LOSS, _sources, specialize_symbol
from .qf import cycle_divisor, enumerate_classes, in_FM


def delta_of_index(M, n):
    """Discriminant attached to the q^n slot at level parameter M."""
    return M * n if M % 2 else 4 * M * n


def realizable_index(M, n):
    """Whether the discriminant attached to q^n supports any form."""
    return delta_of_index(M, n) % 4 in (0, 1)


def _map_indices(fn, ns, threads):
    """fn on min(threads, len(ns)) strided slices of ns, one pool task each
    unless there is one slice; fn maps a slice to a list, kept in order."""
    ns = list(ns)
    step = max(1, min(threads, len(ns)))
    if step == 1:
        return fn(ns)
    with ThreadPoolExecutor(max_workers=step) as ex:
        parts = list(ex.map(fn, [ns[i::step] for i in range(step)]))
    return [parts[i % step][i // step] for i in range(len(ns))]


# ---------------------------------------------------------------------------
# half-integral-weight q-expansions with exact coefficients


class HalfIntQExp(ExactValue):
    """q-expansion of weight k + 3/2 at level 4M.

    ``coeffs`` maps n >= 1 to a coefficient; indices up to ``n_max``
    that are absent are zero, indices beyond ``n_max`` are unknown.
    """

    __slots__ = ("M", "k", "chi", "ring", "n_max", "coeffs")

    def __init__(self, M, k, chi, coeffs, n_max, ring="Q"):
        check_ring(ring)
        if M < 1 or k < 0 or n_max < 0:
            raise BadIndex(f"need M >= 1, k >= 0 and n_max >= 0, "
                           f"got {M}, {k} and {n_max}")
        self.M = M
        self.k = k
        self.chi = chi
        self.ring = ring
        self.n_max = n_max
        store = {}
        for n, v in dict(coeffs).items():
            if not 1 <= n <= n_max:
                raise BadIndex(f"coefficient index {n} outside 1..{n_max}")
            v = ring_reduce(ring, v)
            if v != 0:
                store[n] = v
        self.coeffs = store

    @property
    def level(self):
        return 4 * self.M

    @property
    def weight(self):
        """(numerator, denominator) of k + 3/2."""
        return (2 * self.k + 3, 2)

    def character(self, d):
        """Nebentype value at d."""
        return self.chi(d) * kronecker((-1) ** (self.k + 1) * self.M, d)

    def coeff(self, n):
        if not 1 <= n <= self.n_max:
            raise BadIndex(f"coefficient {n} not computed (n_max={self.n_max})")
        return self.coeffs.get(n, 0)

    def _key(self):
        return (self.M, self.k, self.ring, self.chi)

    def _state(self):
        return (self.n_max, self.coeffs)

    def _like(self, coeffs, n_max=None):
        return HalfIntQExp(self.M, self.k, self.chi, coeffs,
                           self.n_max if n_max is None else n_max,
                           self.ring)

    def _add(self, other):
        nm = min(self.n_max, other.n_max)
        return self._like({n: self.coeff(n) + other.coeff(n)
                           for n in range(1, nm + 1)}, n_max=nm)

    def scale(self, r):
        return self._like({n: r * v for n, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def to_json(self):
        return {
            "level": self.level,
            "weight_num": 2 * self.k + 3,
            "weight_den": 2,
            "character": {"modulus": self.level,
                          "values": [self.character(d)
                                     for d in range(self.level)]},
            "n_max": self.n_max,
            "coeffs": {str(n): str(self.coeffs[n])
                       for n in sorted(self.coeffs)},
        }

    def __repr__(self):
        return (f"HalfIntQExp(level={self.level}, weight={2 * self.k + 3}/2, "
                f"n_max={self.n_max}, {len(self.coeffs)} nonzero)")


def halfint_Tl2(e, l):
    """Square-index Hecke operator at an odd prime away from the level."""
    if l == 2 or not is_prime(l) or gcd(l, 2 * e.M) != 1:
        raise BadIndex(f"need an odd prime coprime to {4 * e.M}, got {l}")
    k = e.k
    sign = kronecker(-1, l) ** (k + 1)
    nm = e.n_max // (l * l)
    co = {}
    for n in range(1, nm + 1):
        v = e.coeff(l * l * n)
        v += e.character(l) * sign * kronecker(n, l) * l**k * e.coeff(n)
        if n % (l * l) == 0:
            v += e.character(l * l) * l ** (2 * k + 1) * e.coeff(n // (l * l))
        co[n] = v
    return e._like(co, n_max=nm)


# ---------------------------------------------------------------------------
# exact-coefficient lift


def quad_power(Q, k):
    """Coefficients of Q(X, Y)^k, the one of X^m Y^(2k-m) at position m."""
    qa, qb, qc = Q.triple()
    coeffs = [0] * (2 * k + 1)
    for i in range(k + 1):
        for j in range(k - i + 1):
            t = k - i - j
            mult = factorial(k) // (factorial(i) * factorial(j) * factorial(t))
            coeffs[2 * i + j] += mult * qa**i * qb**j * qc**t
    return tuple(coeffs)


def _cycle_terms(Q, M):
    """Path terms (generator, g, weight) of the cycle divisor of Q in F_M
    from the cusp infinity."""
    if not in_FM(Q, M):
        raise NotInFM(f"{Q!r} is not adapted to level {M}")
    return divisor_terms(M, cycle_divisor(Q, M, RationalCusp.infinity()))


def _class_table(M, ns):
    """The classes of the slots ns, each a content m times a primitive P.

    Returns the distinct primitive parts, the cycle terms of each (a
    class m P has the cycle of P) and one row (slot, form, m) per class,
    slot and form being positions in ns and in the primitive parts.
    """
    pos, rows = {}, []
    for slot, n in enumerate(ns):
        for Q in enumerate_classes(M, delta_of_index(M, n)):
            rows.append((slot, pos.setdefault(Q.primitive_part(), len(pos)),
                         Q.content()))
    return (list(pos), [_cycle_terms(P, M) for P in pos],
            np.array(rows, dtype=np.int64).reshape(-1, 3))


def _build_kernels(M, k, chi, phi_chi, ns):
    """Integer vectors K_n, coefficient n of the lift being K_n . coords, at
    the slots ns, from one _term_rows call over their primitive classes.

    K_n = sum_Q chi(a_Q) * s(Q^k)^T E_{D_Q} over the classes of the q^n
    slot, where s(P)_i = (-1)^i P_(2k-i) pairs side L with the monomial
    side and E_D is the evaluation matrix of symbols twisted by phi_chi:
    the cycle pairing summed over the classes, the symbol factored out.
    A class m P shares D_P with P and chi(a_mP) (mP)^k = chi(m) m^k *
    chi(a_P) P^k, so each primitive P is contracted once.
    """
    K = 2 * k
    forms, terms, rows = _class_table(M, ns)
    W = np.array([[chi(P.a) * (-1) ** i * c
                   for i, c in enumerate(reversed(quad_power(P, k)))]
                  for P in forms], dtype=object).reshape(len(forms), K + 1, 1)
    per_form = (W * _term_rows(M, K, phi_chi, terms)).sum(axis=1)
    slot, form, m = rows.T
    scale = np.array([chi(x) * x**k for x in m.tolist()], dtype=object)
    out = np.zeros((len(ns), per_form.shape[-1]), dtype=object)
    np.add.at(out, slot, per_form[form] * scale.reshape(-1, 1))
    return list(map(tuple, out.tolist()))


@lru_cache(maxsize=8192)
def _kernel_cell(M, k, chi, phi_chi, n):
    """The cache entry of slot n: a list that holds K_n once it is built."""
    return []


def _theta_kernels(M, k, chi, phi_chi, ns):
    """K_n at the slots ns, the uncached ones built 32 at a time.  A task
    holds the cells of its slots, so no eviction can take one from it."""
    cells = [_kernel_cell(M, k, chi, phi_chi, n) for n in ns]
    todo = [(n, cell) for n, cell in zip(ns, cells) if not cell]
    for i in range(0, len(todo), 32):
        batch, empty = zip(*todo[i:i + 32])
        for cell, K_n in zip(empty, _build_kernels(M, k, chi, phi_chi, batch)):
            cell.append(K_n)
    return [cell[0] for cell in cells]


def theta_classical(phi, M, k, chi, n_max, threads=1):
    """Assemble the exact lift's q-expansion up to q^n_max."""
    if phi.level != M:
        raise OperandMismatch(f"symbol level {phi.level} is not {M}")
    if phi.k != 2 * k:
        raise DegreeMismatch(
            f"symbol degree {phi.k} does not match weight parameter {k}")

    kernels = _map_indices(partial(_theta_kernels, M, k, chi, phi.chi),
                           range(1, n_max + 1), threads)
    values = _apply_int_matrix(kernels, [phi])[0]
    return HalfIntQExp(M, k, chi, dict(zip(range(1, n_max + 1), values)),
                       n_max, phi.ring)


# ---------------------------------------------------------------------------
# q-expansions with tensor-of-distributions coefficients


class FormalQExp(ExactValue):
    """q-expansion whose coefficients are tensors of tagged distributions.

    Every coefficient is the point mass at 1, on moment range 2 Tp, tensor
    a right factor; the left factor is the same everywhere and is not
    stored.  ``data`` is one read-only int64 array indexed (slot, tag,
    disc, moment), reduced mod p^prec: row i is the right factor at
    ``indices[i]``, one moment table per tame tag.  ``indices`` are the
    sorted assembled slots; reading any other slot is an error rather
    than a silent zero.  Nonzero rows may only sit at indices whose
    attached discriminant is an actual discriminant.
    """

    __slots__ = ("level", "N", "p", "prec", "Tp", "n_max", "indices", "data")

    def __init__(self, level, N, p, prec, Tp, data, n_max, indices=None):
        if level != N * p or gcd(N, p) != 1:
            raise BadLevel(f"{level} is not {N} * {p} with {p} prime to {N}")
        _check_kernel_bounds(p, prec, Tp)
        if indices is None:
            indices = range(1, n_max + 1)
        indices = tuple(sorted(set(indices)))
        if not all(1 <= n <= n_max for n in indices):
            raise BadIndex(f"an index lies outside 1..{n_max}")
        data = np.asarray(data, dtype=np.int64) % p**prec
        shape = (len(indices), len(_units(N)), p - 1, Tp + 1)
        if data.shape != shape:
            raise DegreeMismatch(f"coefficients of shape {data.shape}, "
                                 f"expected {shape}")
        for n, live in zip(indices, data.any(axis=(1, 2, 3))):
            if live and not realizable_index(level, n):
                raise BadIndex(f"index {n} carries no discriminant")
        data.flags.writeable = False
        self.level = level
        self.N = N
        self.p = p
        self.prec = prec
        self.Tp = Tp
        self.n_max = n_max
        self.indices = indices
        self.data = data

    def _rows(self, ns):
        """The right factors at the slots ns, each of them assembled."""
        pos = {n: i for i, n in enumerate(self.indices)}
        for n in ns:
            if n not in pos:
                raise BadIndex(f"coefficient {n} was not assembled")
        return self.data[[pos[n] for n in ns]]

    def coeff(self, n):
        """The right factor at slot n, indexed (tag, disc, moment)."""
        return self._rows([n])[0]

    def _key(self):
        return (self.level, self.N, self.p, self.prec, self.Tp)

    def _state(self):
        return (self.n_max, self.indices, self.data.tolist())

    def _like(self, data, n_max=None, indices=None):
        return FormalQExp(self.level, self.N, self.p, self.prec, self.Tp,
                          data,
                          self.n_max if n_max is None else n_max,
                          self.indices if indices is None else indices)

    def _add(self, other):
        idx = sorted(set(self.indices) & set(other.indices))
        return self._like(self._rows(idx) + other._rows(idx),
                          n_max=min(self.n_max, other.n_max), indices=idx)

    def scale(self, r):
        return self._like(self.data * (int(r) % self.p**self.prec))

    def is_zero(self):
        return not self.data.any()

    def to_json(self):
        return {
            "level": self.level,
            "tame_level": self.N,
            "p": self.p,
            "precision": self.prec,
            "moment_degree": self.Tp,
            "n_max": self.n_max,
            "coeffs": {str(n): _coeff_json(self, row)
                       for n, row in zip(self.indices, self.data)
                       if row.any()},
        }

    def __repr__(self):
        return (f"FormalQExp(level={self.level}, p={self.p}, "
                f"n_max={self.n_max}, {len(self.indices)} slots)")


def _coeff_json(e, row):
    """One coefficient of e as {"left": ..., "right": ...}.

    Each factor is written as a tagged distribution: its profile and the
    moment table, rows discs 1..p-1, of every tag that carries mass.  The
    left factor is the point mass at 1 on moment range 2 Tp.
    """
    unit = np.zeros((e.p - 1, 2 * e.Tp + 1), dtype=np.int64)
    unit[0] = 1

    def factor(tables, Tp):
        return {"N": e.N, "p": e.p, "M": e.prec, "Tp": Tp,
                "components": {str(t): table.tolist()
                               for t, table in tables if table.any()}}

    return {"left": factor([(1 % e.N, unit)], 2 * e.Tp),
            "right": factor(zip(_units(e.N), row), e.Tp)}


# ---------------------------------------------------------------------------
# finite-precision lift


def _J_batch(Phi, forms, terms):
    """J_oc at every form at once, from the forms' cycle terms.

    Checks that every path matrix lies in the semigroup and reduces it
    mod N p^M.  Runs on the symbol's data and on the even strata d = 2n
    only, the ones J_Q reads.  Per stratum: one gather of the generator,
    tag and disc axes by a^-1, one batched product with the Sym^d blocks
    (d + 1 residue products per entry), the term weights and a per-form
    sum; then the pushforward along Q, batched over forms: contract with
    the coefficients of Q(x, y)^n, move disc c to a c^2 and tag t to
    t^2 a.
    """
    N, p, prec, T = Phi.N, Phi.p, Phi.prec, Phi.T
    mod, Tp, tags = p**prec, T // 2, _units(N)
    rows, mats = _indexed_terms(terms, N, p, prec)
    owner, gen, mat, wt = rows.T
    src = [_sources(g, N, p) for g in mats]
    tsrc = np.array([s[0] for s in src],
                    dtype=np.int64).reshape(-1, len(tags))[mat]
    dsrc = np.array([s[1] for s in src],
                    dtype=np.int64).reshape(-1, p - 1)[mat]
    evens = range(0, 2 * Tp + 1, 2)
    blocks = _sym_blocks(mats, evens, mod)
    X = Phi.data
    qa, qb, qc = (np.array([Q.triple()[i] % mod for Q in forms],
                           dtype=np.int64).reshape(-1, 1) for i in range(3))
    qpow = np.ones((len(forms), 1), dtype=np.int64)
    tout = np.array([[tags.index(t * t * Q.a % N) for t in tags]
                     for Q in forms], dtype=np.int64).reshape(-1, len(tags))
    dout = (qa % p) * (np.arange(1, p) ** 2 % p) % p - 1
    right = np.zeros((len(forms), len(tags), p - 1, Tp + 1), dtype=np.int64)
    for n, d in enumerate(evens):
        Y = X[..., list(_stratum_cols(T, d))][
            gen[:, None, None], tsrc[:, :, None], dsrc[:, None, :]]
        moved = np.matmul(Y.reshape(len(gen), len(tags) * (p - 1), d + 1),
                          blocks[d][mat].transpose(0, 2, 1)) % mod
        value = np.zeros((len(forms),) + moved.shape[1:], dtype=np.int64)
        np.add.at(value, owner, moved * wt[:, None, None] % mod)
        pushed = np.matmul(value % mod, qpow[:, :, None]) % mod
        np.add.at(right[..., n], (np.arange(len(forms))[:, None, None],
                                  tout[:, :, None], dout[:, None, :]),
                  pushed.reshape(len(forms), len(tags), p - 1))
        nxt = np.zeros((len(forms), d + 3), dtype=np.int64)
        nxt[:, 2:] = qa * qpow
        nxt[:, 1:-1] += qb * qpow
        nxt[:, :-2] += qc * qpow
        qpow = nxt % mod
    return right % mod


def J_oc(Phi, Q):
    """Right tensor factor of the finite-precision lift at the class of Q.

    Indexed (tag, disc, moment); the one-form case of _J_batch, which
    theta_oc runs on all its forms.
    """
    return _J_batch(Phi, [Q], [_cycle_terms(Q, Phi.level)])[0]


def _dirac_convolve(X, s, N, p, prec):
    """Right factors X (..., tag, disc, moment) convolved with delta_s.

    The point mass at s moves tag t to s t and disc c to s c, the gather
    _sources gives for upper-left entry s, and weights moment n by s^n.
    It is zero unless s is a unit mod N p.
    """
    if gcd(s, N * p) != 1:
        return np.zeros_like(X)
    mod = p**prec
    tsrc, dsrc = _sources((s, 0, 0, 1), N, p)
    weights = np.array([pow(s, n, mod) for n in range(X.shape[-1])],
                       dtype=np.int64)
    return X[..., tsrc, :, :][..., dsrc, :] * weights % mod


def theta_oc(Phi, n_max, indices=None):
    """Assemble the finite-precision lift on the requested q-slots.

    Each primitive class of the class table is evaluated once; a class
    m P adds its tensor convolved with the point mass at m.
    """
    Np, N, p, prec = Phi.level, Phi.N, Phi.p, Phi.prec
    if indices is None:
        indices = range(1, n_max + 1)
    indices = sorted(set(indices))
    forms, terms, rows = _class_table(Np, indices)
    right = _J_batch(Phi, forms, terms)
    data = np.zeros((len(indices),) + right.shape[1:], dtype=np.int64)
    for m in set(rows[:, 2].tolist()):
        slot, prim, _ = rows[rows[:, 2] == m].T
        np.add.at(data, slot, _dirac_convolve(right[prim], m, N, p, prec))
    return FormalQExp(Np, N, p, prec, Phi.T // 2, data, n_max, indices)


def qexp_hecke_Tl(e, l):
    """Hecke operator on tensor coefficients at a prime l.

    Acts through the right tensor factor only.  The output keeps every
    index whose three input slots are all assembled.
    """
    if l == 2 and e.N % 2:
        raise BadIndex("index 2 requires an even tame level")
    if not is_prime(l):
        raise BadIndex(f"{l} is not prime")
    have, ll, mod = set(e.indices), l * l, e.p**e.prec
    idx = [n for n in range(1, e.n_max // ll + 1)
           if n * ll in have and n in have
           and (n % ll or n // ll in have)]
    signs = np.array([kronecker(e.level * n, l) % mod for n in idx],
                     dtype=np.int64).reshape(-1, 1, 1, 1)
    out = (e._rows([n * ll for n in idx])
           + _dirac_convolve(e._rows(idx), l, e.N, e.p, e.prec) * signs)
    deep = [i for i, n in enumerate(idx) if n % ll == 0]
    out[deep] += _dirac_convolve(e._rows([idx[i] // ll for i in deep]), ll,
                                 e.N, e.p, e.prec) * l
    return e._like(out, n_max=e.n_max // ll, indices=idx)


def qexp_hecke_Tll(e, l):
    """Diamond-type operator: convolve with the point mass at l^2."""
    if gcd(l, e.level) != 1:
        raise BadIndex(f"{l} must be coprime to the level {e.level}")
    return e._like(_dirac_convolve(e.data, l * l, e.N, e.p, e.prec))


# ---------------------------------------------------------------------------
# weight evaluation and the interpolation verifier


def specialize_qexp(e, kappa_tilde):
    """Evaluate every tensor coefficient at an admissible weight.

    The left factor, the point mass at 1, evaluates to 1 at the doubled
    weight, so coefficient n is the right factor's value
    sum_t chi_N(t) * sum_c chi_p(c) * m_{t,c}(k) at slot n.
    """
    if e.indices != tuple(range(1, e.n_max + 1)):
        raise BadIndex("weight evaluation needs a fully assembled expansion")
    k = kappa_tilde.k
    if k > e.Tp:
        raise InsufficientMoments(f"weight {k} exceeds moment range {e.Tp}")
    ct, cc = _char_vectors(kappa_tilde, e.N, e.p)
    # character values are 0 or +-1
    values = np.einsum("t,c,itc->i", ct, cc, e.data[..., k]) % e.p**e.prec
    return HalfIntQExp(e.level, k, kappa_tilde.chi,
                       dict(zip(e.indices, values.tolist())), e.n_max,
                       ("zpm", e.p, e.prec))


def verify_interpolation(Phi, kappa_tilde, n_max):
    """Compare the two routes from a finite-precision symbol to a weight.

    Route one evaluates the lifted expansion's tensors at the weight;
    route two specializes the symbol first and lifts exactly.  Returns
    a report; equality is required modulo p^(prec - LOSS), and ``live``
    says that some coefficient of either route is nonzero.
    """
    p, prec = Phi.p, Phi.prec
    lifted = specialize_qexp(theta_oc(Phi, n_max), kappa_tilde)
    phik = specialize_symbol(Phi, kappa_tilde.doubled())
    exact = theta_classical(phik, Phi.level, kappa_tilde.k, kappa_tilde.chi,
                            n_max)
    diff = lifted - exact
    vals = {n: valuation(v, p, prec) for n, v in diff.coeffs.items()}
    fails = sorted(n for n, v in vals.items() if v < prec - LOSS)
    return {
        "level": Phi.level,
        "weight_k": kappa_tilde.k,
        "n_max": n_max,
        "precision": prec,
        "loss": LOSS,
        "passed": not fails,
        "residual_valuation": min(vals.values(), default=prec),
        "failing_indices": fails,
        "live": not (lifted.is_zero() and exact.is_zero()),
    }
