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

``MomentDist1`` (one one-variable moment table), ``DistN`` (a table per
tame tag) and ``MetaCoeff`` (a tensor of two ``DistN``), with point
masses, multiplicative convolution, the squaring pushforward and weight
evaluation, are the lift's coefficient ring as the package kept it, one
object per coefficient, before a ``FormalQExp`` became one int64 array
of right factors.  ``meta_of`` and ``row_of`` convert between an array
row and a ``MetaCoeff`` with the point mass at 1 as its left factor,
and ``qexp_module_action`` acts on the left factors through that ring.

``stratum_action_kron``, ``term_blocks_kron`` and ``coset_blocks_kron``
are ``ocsymb._stratum_action_matrix``, ``_term_blocks`` and
``_coset_blocks`` as the package built them, one cached np.kron of the
tag gather and the Sym^d block per path matrix and one np.stack of the
term blocks, before the relation and Hecke folds built the sector blocks
of all their distinct path matrices in one ``dist._sym_blocks`` batch.
Each takes one stratum d, and ``coset_blocks_kron`` folds one base
divisor at a time and twists the fold by the stacked representatives,
as the package did before it built each operator once for all strata,
multiplying each distinct (representative, path matrix) pair once and
folding every base at once.
``stratum_relation_matrix`` is one stratum's relation matrix in disc
coordinates, the matrix ``solve_oc_space`` reduced whole before it solved
each Teichmuller sector on its own, and ``solve_oc_space_whole_sectors``
is that sector solve as it ran before ``linalg.zpm_block_kernel``
eliminated the generators with identity pivot blocks first: Howell
reduction of every whole sector block.  It builds each term's block with
``_act_stratum``, the value action on disc coordinates that the package
applied one path term at a time before its Hecke operators became cached
sector blocks.  ``lift_eigensymbol_each_step`` is ``lift_eigensymbol`` as
it iterated alpha^-1 U_p and projected after every step, before it
projected its seed once, and it projects with
``character_project_rotations``: ``ocsymb.character_project`` as the
average of the phi(N) (p - 1) weighted rotations of tags and discs,
twisted by the weight's character, on one stratum, rather than one
character-weighted sum over both axes.

``_canonical`` is the least unit multiple of a point of P^1(Z/M), found
by a minimum over the units that carry its first coordinate to gcd(u, M),
as ``cosets`` indexed P^1(Z/M) before it read the index off the local
lines of the prime powers of M.
``bucket_dedupe_scan`` is ``qf._bucket_dedupe`` as it acted by every left
coset of Gamma0(M) before it solved the F_M congruence per prime power
of M, and ``primitive_sl2_classes_cycle`` is ``qf._primitive_sl2_classes``
as it walked each reduced cycle on ``QuadForm`` objects through ``_cycle``.
``is_reduced``, ``_rho``, ``reduce_form`` and ``_cycle`` are that
matrix-tracking walk: each step carries its transform, and the cycle
returns its product.  ``fundamental_automorph_cycle`` is
``qf.fundamental_automorph`` as it conjugated that product back to the
form, and ``gamma_Q_power`` is ``qf.gamma_Q`` as it searched the powers
of it for the least one in Gamma0(M), with ``mat_pow`` and ``mat_neg``,
before both read the automorph in closed form off one unit per
discriminant.  It keeps the orientation test ``_is_normalized``, with
the exact surd sign ``sign_a_plus_b_sqrt``, that ``qf.gamma_Q`` ran
before it took the inverse of the closed form.
``equivalent_under_gamma0`` (with ``_sl2_transporter``,
``_automorph_mod_search`` and its ``DiscriminantMismatch``) decides
whether two forms are Gamma0(M)-equivalent, and certifies class
enumeration; ``gamma0_generators`` is the Schreier generating set of
Gamma0(M) that the invariance tests draw group elements from.  Both left
the package because only the tests called them.

``sympolys_of`` and ``symbol_of`` convert between a ``ModularSymbol``'s
flat coordinates and its generator values, one side-L ``SymPoly`` each,
the form the package stored a classical symbol in before it became one
coordinate tuple.  ``weighted_sum``, ``evaluate_values`` and
``check_values`` evaluate generator values of any type one at a time,
a classical symbol's through ``SymPoly.act``; with ``check_relations``,
``evaluate_symbol``, ``act_involution``, ``pairing``, ``dirac_poly``,
``Divisor0`` and the class-by-class cycle pairing ``J_classical`` they
are the second route the package kept for classical symbols before it
checked, evaluated and gave them coordinates through integer rows only.
``theta_kernel_by_slot`` is the exact lift's coefficient kernel as the
package built it, one slot per call and one thread-pool task per slot,
each class evaluated on its own, before ``lifting._build_kernels`` built
the uncached slots of a thread's slice together and read each primitive
class once from the class table.
``frac_solve_many`` is the elimination that gave coordinates in a basis
before ``modsym._coords`` read them off private columns.
``frac_rref_gauss`` and ``frac_nullspace_gauss`` are the ``Fraction``
Gauss-Jordan elimination ``linalg.frac_rref`` ran before it became
multimodular; the oracles here eliminate with them, so they stay
independent of the route they check.  ``hecke_Up``,
``hecke_Tll``, ``zpm_in_span``, ``rank_mod_p`` and ``basis_over`` (the
solved basis over Q, reduced into Z/p^M where asked, since the package
solves symbol spaces over Q only) are helpers that only the tests call.
``basis_symbols`` is a solved space's basis, one ``OCSymbol`` per row of
its data, as ``OCSpace.basis`` kept it before every operator applied to
symbol data of any leading shape.

``eigensymbols_sympy`` and ``_rational_eigenspace`` are
``modsym.eigensymbols`` as it split the sign subspace with sympy's
``Matrix.eigenvects`` before the package found rational eigenvalues from
an exact integer characteristic polynomial.

``act_blocks_formula`` is the entry-by-entry Sym^d block that the numpy
recurrence ``dist._sym_blocks`` replaced, ``act_matrix_L_formula`` and
``act_matrix_Lstar_formula`` the binomial sums ``modsym`` built its weight
action matrices with before they became ``_sym_blocks`` output.
``J_oc`` is ``lifting._J_batch`` at one form, which left the package
because only the tests called it, and ``J_oc_values`` the
finite-precision lift's coefficient at one form
computed value by value: the symbol evaluated on the cycle divisor through
``TaggedDist2.act``, then ``tilde_JQ`` pushing each tag component forward
along the form.
"""

import json
import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt
from operator import mul

import numpy as np
import sympy

from shintani.arith import (
    MAT_ID, RationalCusp, crt, mat_inv, mat_mul, valuation)
from shintani.cosets import _units, coset_index, coset_section
from shintani.dist import _act_blocks, _check_s0, _pairs, _stratum_cols
from shintani.errors import (
    BadIndex,
    BadLevel,
    BadSemigroupElement,
    DegreeMismatch,
    InsufficientMoments,
    NoConvergence,
    NotInFM,
    OperandMismatch,
    PrecisionMismatch,
    ShintaniError,
    SquareDiscriminant,
)
from shintani.lifting import (
    _cycle_terms, _J_batch, delta_of_index, quad_power)
from shintani.linalg import (
    _check_kernel_bounds, matmul_mod, zpm_kernel, zpm_span_basis)
from shintani.manin import MAT_IOTA, coset_terms, divisor_terms, presentation
from shintani.modsym import (
    ModularSymbol,
    SymPoly,
    _apply_rows,
    _hecke_rows,
    _normalize_content,
    _term_rows,
    hecke_matrix,
    hecke_Tn,
    involution_matrix,
    ring_reduce,
    solve_symbol_space,
)
from shintani.ocsymb import (
    OCSymbol,
    _characters,
    _leading_unit_index,
    _sources,
    _term_blocks,
    classical_to_zpm,
    oc_hecke_Tn,
    oc_hecke_Up,
    oc_sign_project,
    specialize_symbol,
)
from shintani.qf import (
    QuadForm,
    _rho_step,
    _square_canonical,
    act,
    cycle_divisor,
    enumerate_classes,
    in_FM,
)


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




# ------------------------------------------- the lift's coefficient ring

class MomentDist1:
    """Moments m_c(n) mod p^M over unit discs, n <= Tprime."""

    __slots__ = ("p", "prec", "Tp", "data")

    def __init__(self, p, prec, Tp, data=None):
        _check_kernel_bounds(p, prec, Tp)
        if data is None:
            data = np.zeros((p - 1, Tp + 1), dtype=np.int64)
        else:
            data = np.asarray(data, dtype=np.int64) % p**prec
            if data.shape != (p - 1, Tp + 1):
                raise DegreeMismatch(f"moment table of shape {data.shape}, "
                                     f"expected {(p - 1, Tp + 1)}")
        data.flags.writeable = False
        self.p = p
        self.prec = prec
        self.Tp = Tp
        self.data = data

    def m(self, c, n):
        return int(self.data[c % self.p - 1, n])

    def _like(self, data, Tp=None):
        return MomentDist1(self.p, self.prec, self.Tp if Tp is None else Tp, data)

    def zero_like(self):
        return MomentDist1(self.p, self.prec, self.Tp)

    def _compat(self, other):
        if (self.p, self.prec, self.Tp) != (other.p, other.prec, other.Tp):
            raise PrecisionMismatch(
                f"({self.p},{self.prec},{self.Tp}) vs ({other.p},{other.prec},{other.Tp})")

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
        if not isinstance(other, MomentDist1):
            return NotImplemented
        return ((self.p, self.prec, self.Tp) == (other.p, other.prec, other.Tp)
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.p, self.prec, self.Tp, self.data.tobytes()))

    def __repr__(self):
        nz = int(np.count_nonzero(self.data))
        return f"MomentDist1(p={self.p}, M={self.prec}, T'={self.Tp}, {nz} nonzero)"


def dirac(s, p, prec, Tp):
    """Point mass at the integer s; zero when p divides s."""
    out = MomentDist1(p, prec, Tp)
    if s % p == 0:
        return out
    mod = p**prec
    data = np.zeros((p - 1, Tp + 1), dtype=np.int64)
    data[s % p - 1, :] = [pow(s, n, mod) for n in range(Tp + 1)]
    return MomentDist1(p, prec, Tp, data)


def convolve(nu1, nu2):
    """Multiplicative convolution on the units.

    Twisted moments multiply: for any character omega of the disc group,
    sum_c omega(c) m_c(n) is multiplicative in the two factors.
    """
    nu1._compat(nu2)
    p, mod = nu1.p, nu1.p**nu1.prec
    data = np.zeros((p - 1, nu1.Tp + 1), dtype=np.int64)
    for c1 in range(1, p):
        row1 = nu1.data[c1 - 1]
        if not row1.any():
            continue
        for c2 in range(1, p):
            c = (c1 * c2) % p
            data[c - 1] = (data[c - 1] + row1 * nu2.data[c2 - 1]) % mod
    return MomentDist1(p, nu1.prec, nu1.Tp, data)


def sigma_moments(nu):
    """Push forward along t -> t^2; moments appear at doubled index."""
    p = nu.p
    Tp = nu.Tp // 2
    data = np.zeros((p - 1, Tp + 1), dtype=np.int64)
    for c in range(1, p):
        c2 = (c * c) % p
        data[c2 - 1] = (data[c2 - 1] + nu.data[c - 1, 0:2 * Tp + 1:2]) % p**nu.prec
    return MomentDist1(p, nu.prec, Tp, data)


class DistN:
    """Finite formal sum of tame tags with one-variable distributions."""

    __slots__ = ("N", "p", "prec", "Tp", "comps")

    def __init__(self, N, p, prec, Tp, comps=None):
        self.N = N
        self.p = p
        self.prec = prec
        self.Tp = Tp
        clean = {}
        for t, nu in (comps or {}).items():
            if gcd(t, N) != 1 and N != 1:
                raise BadIndex(f"tag {t} is not a unit mod {N}")
            if (nu.p, nu.prec, nu.Tp) != (p, prec, Tp):
                raise PrecisionMismatch(
                    f"component ({nu.p},{nu.prec},{nu.Tp}) in ({p},{prec},{Tp})")
            if not nu.is_zero():
                clean[t % N] = nu
        self.comps = clean

    def zero_like(self):
        return DistN(self.N, self.p, self.prec, self.Tp)

    def component(self, t):
        return self.comps.get(t % self.N,
                              MomentDist1(self.p, self.prec, self.Tp))

    def _compat(self, other):
        if (self.N, self.p, self.prec, self.Tp) != (other.N, other.p,
                                                    other.prec, other.Tp):
            raise PrecisionMismatch("tame/moment profiles differ")

    def __add__(self, other):
        self._compat(other)
        comps = dict(self.comps)
        for t, nu in other.comps.items():
            comps[t] = comps[t] + nu if t in comps else nu
        return DistN(self.N, self.p, self.prec, self.Tp, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, r):
        return DistN(self.N, self.p, self.prec, self.Tp,
                     {t: nu.scale(r) for t, nu in self.comps.items()})

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, DistN):
            return NotImplemented
        return ((self.N, self.p, self.prec, self.Tp) ==
                (other.N, other.p, other.prec, other.Tp)
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.N, self.p, self.prec, self.Tp,
                     tuple(sorted((t, hash(nu)) for t, nu in self.comps.items()))))

    def __repr__(self):
        return (f"DistN(N={self.N}, p={self.p}, tags={sorted(self.comps)})")


def dirac_distN(s, N, p, prec, Tp):
    """Point mass at s on the N-tame, p-wild unit group.

    Zero when s shares a factor with Np, following the convention that
    point masses at non-units vanish.
    """
    if gcd(s, N) != 1 or s % p == 0:
        return DistN(N, p, prec, Tp)
    return DistN(N, p, prec, Tp, {s % N: dirac(s, p, prec, Tp)})


def convolve_distN(d1, d2):
    d1._compat(d2)
    out = d1.zero_like()
    for t1, n1 in d1.comps.items():
        for t2, n2 in d2.comps.items():
            piece = DistN(d1.N, d1.p, d1.prec, d1.Tp,
                          {(t1 * t2) % d1.N: convolve(n1, n2)})
            out = out + piece
    return out


def sigma_distN(d):
    """The squaring pushforward on tags and discs simultaneously."""
    comps = {}
    Tp = d.Tp // 2
    out = DistN(d.N, d.p, d.prec, Tp, comps)
    for t, nu in d.comps.items():
        piece = DistN(d.N, d.p, d.prec, Tp, {(t * t) % d.N: sigma_moments(nu)})
        out = out + piece
    return out


def eval_weight(d, kappa):
    """Integrate chi(t) * t_p^k against a tagged one-variable distribution;
    the tame part of chi must be defined mod the distribution's N."""
    if kappa.k > d.Tp:
        raise InsufficientMoments(f"weight {kappa.k} exceeds moment range {d.Tp}")
    if d.N % kappa.chi_N.modulus:
        raise BadLevel(f"tame modulus {kappa.chi_N.modulus} at N = {d.N}")
    mod = d.p**d.prec
    tot = 0
    for t, nu in d.comps.items():
        ct = kappa.chi_N(t)
        if ct == 0:
            continue
        inner = 0
        for c in range(1, d.p):
            cc = kappa.chi_p(c)
            if cc:
                inner += cc * nu.m(c, kappa.k)
        tot += ct * inner
    return tot % mod


class MetaCoeff:
    """Pure tensor left x right of tagged distributions.

    Evaluation at a signature (k, chi) sends the left factor through the
    squaring map first: value = kappa(left) * kappa~(right) with
    kappa = kappa~ o sigma of signature (2k, chi^2).
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if not (isinstance(left, DistN) and isinstance(right, DistN)):
            raise OperandMismatch("a MetaCoeff is a tensor of two DistN")
        self.left = left
        self.right = right

    def _compat(self, other):
        if self.left != other.left:
            raise OperandMismatch("sum requires matching left factors")

    def __add__(self, other):
        self._compat(other)
        return MetaCoeff(self.left, self.right + other.right)

    def __sub__(self, other):
        self._compat(other)
        return MetaCoeff(self.left, self.right - other.right)

    def __neg__(self):
        return MetaCoeff(self.left, -self.right)

    def scale(self, r):
        return MetaCoeff(self.left, self.right.scale(r))

    def is_zero(self):
        return self.right.is_zero()

    def canonicalize(self):
        """Move the left factor through sigma into the right factor."""
        moved = convolve_distN(sigma_distN(self.left), self.right)
        one = dirac_distN(1, moved.N, moved.p, moved.prec, 2 * moved.Tp)
        return MetaCoeff(one, moved)

    def __eq__(self, other):
        if not isinstance(other, MetaCoeff):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __repr__(self):
        return f"MetaCoeff(left tags {sorted(self.left.comps)}, right tags {sorted(self.right.comps)})"


def eval_weight_meta(mc, kappa_tilde):
    kappa = kappa_tilde.doubled()
    mod = mc.right.p**mc.right.prec
    return (eval_weight(mc.left, kappa) * eval_weight(mc.right, kappa_tilde)) % mod


def meta_zero(N, p, prec, Tp):
    """The zero coefficient with the standard identity left factor.

    The left factor's moment range is doubled: left evaluations go
    through the squaring map, which halves the range.
    """
    one = dirac_distN(1, N, p, prec, 2 * Tp)
    return MetaCoeff(one, DistN(N, p, prec, Tp))



def meta_of(row, N, p, prec, Tp):
    """The MetaCoeff of an array row (tag, disc, moment): delta_1 x row."""
    return MetaCoeff(dirac_distN(1, N, p, prec, 2 * Tp), DistN(
        N, p, prec, Tp, {t: MomentDist1(p, prec, Tp, table)
                         for t, table in zip(_units(N), row)}))


def row_of(mc):
    """The array row (tag, disc, moment) of a MetaCoeff with left delta_1."""
    r = mc.right
    if mc.left != dirac_distN(1, r.N, r.p, r.prec, 2 * r.Tp):
        raise OperandMismatch("left factor is not the point mass at 1")
    return np.array([r.component(t).data for t in _units(r.N)],
                    dtype=np.int64)


def qexp_module_action(r, e):
    """Act by a tagged one-variable distribution on every left factor.

    Each coefficient conv(r, delta_1) x right is canonicalized back to
    delta_1 x (sigma(r) * right), the form the array stores.
    """
    rows = [row_of(MetaCoeff(convolve_distN(r, mc.left), mc.right)
                   .canonicalize())
            for mc in (meta_of(row, e.N, e.p, e.prec, e.Tp) for row in e.data)]
    return e._like(np.array(rows, dtype=np.int64).reshape(e.data.shape))


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


def _act_stratum(g, Y, N, p, prec, T, d):
    """Value action of g on stacked stratum-d coordinates.

    Y is indexed (tag, disc, moment, column).  Tags and discs move as
    _sources says, moments by the stratum-d block of _act_blocks, on
    every column at once.  The product sums d + 1 <= T + 1 residue
    products, inside the int64 bound.
    """
    _check_s0(g, N * p)
    mod = p**prec
    g = tuple(x % (N * mod) for x in g)
    tsrc, dsrc = _sources(g, N, p)
    V = _act_blocks(g, p, prec, T)[d]
    return (V @ Y.take(tsrc, axis=0).take(dsrc, axis=1)) % mod


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


def solve_oc_space_whole_sectors(Np, N, precision):
    """``ocsymb.solve_oc_space`` as it solved each sector block whole:
    zpm_kernel on every sector block, back to disc coordinates through
    the character table, and one Howell reduction of the union per
    stratum.  Returns the space's (data, strata, torsion)."""
    p, (prec, T) = Np // N, precision
    pres, mod, chars = presentation(Np), p**prec, _characters(p, prec)
    shape = (pres.ngens, len(_units(N)), p - 1)
    data, strata, torsion = [], [], []
    for d, rel in enumerate(_term_blocks(pres.relations, pres.ngens, N, p,
                                         prec, T)):
        rows = []
        for j, B in enumerate(rel.reshape(p - 1, -1, rel.shape[-1])):
            for y in zpm_kernel(B, p, prec)[0]:
                x = y.reshape(shape[:2] + (1, d + 1)) * chars[j][:, None]
                rows.append((x % mod).reshape(-1))
        kernel, tors = zpm_span_basis(rows, rel.shape[-1] * (p - 1), p,
                                      prec)
        for vec, v in zip(kernel, tors):
            sym = np.zeros(shape + (len(_pairs(T)[0]),), dtype=np.int64)
            sym[..., list(_stratum_cols(T, d))] = vec.reshape(
                shape + (d + 1,))
            data.append(sym)
            strata.append(d)
            torsion.append(v)
    return np.stack(data), strata, torsion


def stratum_action_kron(g, N, p, prec, T, d):
    """Sector blocks of the value action of g on stratum d, one np.kron of
    the tag gather and the cached Sym^d block, times the twist of each
    sector: indexed (sector, (tag, moment), (tag, moment))."""
    _check_s0(g, N * p)
    mod = p**prec
    g = tuple(x % (N * mod) for x in g)
    tsrc, _ = _sources(g, N, p)
    tags = np.eye(len(tsrc), dtype=np.int64)[tsrc]
    block = np.kron(tags, _act_blocks(g, p, prec, T)[d])
    twist = _characters(p, prec)[:, pow(g[0], -1, p) - 1]
    return (twist[:, None, None] * block) % mod


def term_blocks_kron(groups, ngens, N, p, prec, T, d):
    """Each group's sum_(c, g, w) w * x_c|g on stratum d as p - 1 sector
    blocks (p - 1, len(groups), rows, columns), one stratum_action_kron
    per term, stacked and added at the term's group and generator."""
    blockdim = len(_units(N)) * (d + 1)
    mod = p**prec
    out = np.zeros((len(groups), ngens, p - 1, blockdim, blockdim),
                   dtype=np.int64)
    terms = [(i, c, g, w) for i, group in enumerate(groups)
             for c, g, w in group]
    if terms:
        owner, gens, gs, ws = zip(*terms)
        S = np.stack([stratum_action_kron(g, N, p, prec, T, d) for g in gs])
        w = np.array([x % mod for x in ws], dtype=np.int64)
        np.add.at(out, (list(owner), list(gens)),
                  w[:, None, None, None] * S % mod)
    return (out % mod).transpose(2, 0, 3, 1, 4).reshape(
        p - 1, len(groups), blockdim, ngens * blockdim)


def coset_blocks_kron(level, N, p, prec, T, d, reps):
    """The double coset of reps on stratum d, one block per sector: block
    row b sums S(alpha) E(alpha . base_b) over the reps, with S from
    stratum_action_kron and E from term_blocks_kron, one base at a time.
    For MAT_IOTA, S is written out as the moment sign (-1)^(d - n), so the
    package's twist of the involution from its action blocks is checked
    against an independent one."""
    ngens = presentation(level).ngens
    mod = p**prec
    sign = np.tile([(-1) ** (d - n) for n in range(d + 1)], len(_units(N)))
    S = np.stack([np.repeat(np.diag(sign)[None], p - 1, axis=0)
                  if alpha == MAT_IOTA else
                  stratum_action_kron(alpha, N, p, prec, T, d)
                  for alpha in reps], axis=1)
    terms = coset_terms(level, reps)
    return np.concatenate(
        [matmul_mod(S, term_blocks_kron(terms[lo:lo + len(reps)], ngens, N,
                                        p, prec, T, d), mod).sum(axis=1) % mod
         for lo in range(0, len(terms), len(reps))], axis=1)


def character_project_rotations(sym, d, kappa):
    """Average of unit rotations of tags and discs, twisted by kappa's
    character, on a stratum-d supported symbol.

    Rescaling the units by s acts on stratum d as s^d times a pure
    rotation; dividing the weight back out leaves the rotation, and
    averaging chi_N(s) chi_p(s) times it over the units s mod N p
    projects onto the part of kappa's character.  Tag t reads tag s^-1 t,
    disc c reads disc s^-1 c, and the moment x^a y^b is weighted by
    s^(a + b - d).
    """
    p, N = sym.p, sym.N
    mod = p**sym.prec
    degrees = np.array([a + b - d for a, b in _pairs(sym.T)[0]])
    tags = _units(N)
    acc = np.zeros_like(sym.data)
    for t in tags:
        for c in range(1, p):
            s = crt(t, N, c, p) if N > 1 else c
            weight = np.array([pow(s, int(e), mod) for e in degrees],
                              dtype=np.int64)
            sinv = pow(s, -1, N * p)
            src = [tags.index(sinv * x % N) for x in tags]
            discs = [sinv * x % p - 1 for x in range(1, p)]
            moved = sym.data.take(src, axis=1).take(discs, axis=2)
            acc = (acc + moved * weight
                   * kappa.chi_N(t) * kappa.chi_p(c)) % mod
    return sym._like(acc * pow(len(tags) * (p - 1), -1, mod))


def lift_eigensymbol_each_step(space, phi, alpha, kappa, sign=-1,
                               perturb=None):
    """``lift_eigensymbol`` as it iterated alpha^-1 U_p 2 (prec + 2) times
    on the seed, projecting onto the sign and onto kappa's character by
    ``character_project_rotations`` after every step.

    Returns the normalized lift and its residual valuation, as the
    package's lift does; the input checks and their errors are left out.
    perturb, a symbol of the space, is added to the seed, to show the lift
    does not depend on its starting point.
    """
    p, prec, k = space.p, space.prec, kappa.k
    mod = p**prec
    ainv = pow(int(alpha) % mod, -1, mod)
    phi_z = phi if phi.ring != "Q" else classical_to_zpm(phi, p, prec)
    idx = space.stratum_indices(k)
    basis = basis_symbols(space)
    S = np.array([[int(c) for c in
                   specialize_symbol(basis[i], kappa).coords()]
                  for i in idx], dtype=np.int64).T
    target = np.array([int(c) for c in phi_z.coords()], dtype=np.int64)
    coeffs = np.zeros(space.dimension, dtype=np.int64)
    coeffs[idx] = zpm_solve_by_column(S, target, p, prec)
    y = space.combination(coeffs)
    if perturb is not None:
        y = y + perturb
    for _ in range(2 * (prec + 2)):
        y = oc_hecke_Up(y).scale(ainv)
        y = oc_sign_project(y, sign)
        y = character_project_rotations(y, k, kappa)
    residual = oc_hecke_Up(y) - y.scale(int(alpha) % mod)
    res_val = min((valuation(v, p, prec) for v in residual.flat()),
                  default=prec)
    lead = _leading_unit_index(y.flat(), p)
    if lead is not None:
        y = y.scale(pow(int(y.flat()[lead]) % mod, -1, mod))
    return y, res_val


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


def act_matrix_L_formula(g, k):
    """Divided-basis matrix of F -> F((X,Y) adj(g)), rows j, cols i."""
    a, b, c, d = g
    rows = []
    for j in range(k + 1):
        row = []
        for i in range(k + 1):
            s_lo = max(0, i + j - k)
            s_hi = min(i, j)
            tot = 0
            for s in range(s_lo, s_hi + 1):
                tot += (comb(j, s) * comb(k - j, i - s)
                        * d**s * (-c) ** (i - s) * (-b) ** (j - s)
                        * a ** (k - i - j + s))
            row.append(tot)
        rows.append(tuple(row))
    return tuple(rows)


def act_matrix_Lstar_formula(g, k):
    """Monomial-basis matrix of the same substitution, rows m, cols n."""
    a, b, c, d = g
    rows = []
    for m in range(k + 1):
        row = []
        for n in range(k + 1):
            s_lo = max(0, m - (k - n))
            s_hi = min(n, m)
            tot = 0
            for s in range(s_lo, s_hi + 1):
                tot += (comb(n, s) * comb(k - n, m - s)
                        * d**s * (-c) ** (n - s) * (-b) ** (m - s)
                        * a ** (k - n - m + s))
            row.append(tot)
        rows.append(tuple(row))
    return tuple(rows)


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


def J_oc(Phi, Q):
    """Right tensor factor of the finite-precision lift at the class of Q,
    indexed (tag, disc, moment): the one-form case of lifting._J_batch."""
    return _J_batch(Phi, [Q], [_cycle_terms(Q, Phi.level)])[0]


def J_oc_values(Phi, Q, base=None):
    """J_oc at the form Q, value by value: tilde_JQ(Phi(D_Q), Q)."""
    if not in_FM(Q, Phi.level):
        raise NotInFM(f"{Q!r} is not adapted to level {Phi.level}")
    if base is None:
        base = RationalCusp.infinity()
    return tilde_JQ(evaluate(Phi, cycle_divisor(Q, Phi.level, base)), Q)


def eigensymbols_sympy(M, k, chi, sign, lbound=7):
    """Rational Hecke eigensystems in one sign eigenspace.

    Splits the sign subspace by T_l (U_l when l divides M) for primes
    l <= lbound and keeps the pieces where every eigenvalue is rational;
    systems with irrational eigenvalues are skipped with a warning.
    Returns a list of (symbol, {l: eigenvalue}) pairs, each symbol scaled
    to integer coefficients with content one.
    """
    assert sign in (1, -1)
    basis = solve_symbol_space(M, k, chi)
    dim = len(basis)
    if dim == 0:
        return []
    flats = [sym.coords() for sym in basis]

    def op_matrix(l):
        return hecke_matrix(basis, l)

    J = involution_matrix(basis)
    # column space of (I + sign*J)/2 inside coordinate space
    proj = [[(Fraction(1 if i == j else 0) + sign * J[i][j]) / 2
             for j in range(dim)] for i in range(dim)]
    cols = [[proj[i][j] for i in range(dim)] for j in range(dim)]
    reduced, pivots = frac_rref_gauss([row[:] for row in cols], dim)
    subspace = [list(reduced[r]) for r in range(len(pivots))]
    if not subspace:
        return []

    primes = list(sympy.primerange(2, lbound + 1))
    spaces = [subspace]
    maps = [dict()]
    for l in primes:
        A = op_matrix(l)
        new_spaces, new_maps = [], []
        for space, emap in zip(spaces, maps):
            r = len(space)
            imgs = []
            for v in space:
                imgs.append([sum(A[i][j] * v[j] for j in range(dim))
                             for i in range(dim)])
            rows = [[Fraction(space[j][i]) for j in range(r)] for i in range(dim)]
            R = sympy.zeros(r, r)
            for idx, img in enumerate(imgs):
                x = frac_solve_many([row[:] for row in rows],
                                    [[Fraction(t) for t in img]])[0]
                if x is None:
                    raise OperandMismatch("Hecke image left the solved space")
                for i in range(r):
                    R[i, idx] = sympy.Rational(x[i].numerator, x[i].denominator)
            for lam, _, _vecs in R.eigenvects():
                if not lam.is_Rational:
                    warnings.warn(
                        f"skipping irrational eigenvalue of T_{l} at level {M}",
                        RuntimeWarning)
                    continue
                lamf = Fraction(int(lam.p), int(lam.q))
                new_spaces.append(
                    [[sum(Fraction(piece[j]) * space[j][i] for j in range(r))
                      for i in range(dim)]
                     for piece in _rational_eigenspace(R, lam, r)])
                new_maps.append({**emap, l: lamf})
        spaces, maps = new_spaces, new_maps
    out = []
    for space, emap in zip(spaces, maps):
        v = space[0]
        flat = [sum(v[i] * Fraction(flats[i][j]) for i in range(dim))
                for j in range(len(flats[0]))]
        ints = _normalize_content(flat)
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        sym = ModularSymbol(M, k, chi, "Q", ints)
        clean = {l: (int(x) if x.denominator == 1 else x) for l, x in emap.items()}
        out.append((sym, clean))
    out.sort(key=lambda se: tuple(se[1][l] for l in primes))
    return out


def _rational_eigenspace(R, lam, r):
    """Basis of ker(R - lam) as rational row vectors."""
    Mm = R - lam * sympy.eye(r)
    rows = [[Fraction(int(Mm[i, j].p), int(Mm[i, j].q)) for j in range(r)]
            for i in range(r)]
    return frac_nullspace_gauss(rows, r)


def _canonical(u, v, M):
    """The least unit multiple of (u : v) in P^1(Z/M).

    With g = gcd(u, M), the least first coordinate of a unit multiple is g
    (0 when g = M, and then v is a unit); the units s with s*u = g mod M
    are those s = (u/g)^-1 mod M/g, and the pair is (g, least s*v mod M).
    """
    if gcd(gcd(u, v), M) != 1:
        raise BadIndex(f"({u} : {v}) is not a point of P^1(Z/{M})")
    g = gcd(u, M)
    if g == M:
        return 0, 1
    step = M // g
    return g, min(s * v % M for s in range(pow(u // g, -1, step), M, step)
                  if gcd(s, M) == 1)


def bucket_dedupe_scan(P, m, M):
    """Gamma0(M)-inequivalent members of the SL2-orbit of m*P inside F_M.

    One member per left coset h Gamma0(M), h the inverse of a section
    matrix: m*P acted by h, kept when it lands in F_M.
    """
    Qm = P.scale(m)
    return [Q for Q in (act(Qm, mat_inv(g)) for g in coset_section(M))
            if in_FM(Q, M)]


# ---------------------------------------------------------------------------
# Gauss reduction and automorphs through matrix-tracking cycle walks


def mat_neg(g):
    return (-g[0], -g[1], -g[2], -g[3])


def mat_pow(g, n):
    if n < 0:
        return mat_pow(mat_inv(g), -n)
    out = MAT_ID
    base = g
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def is_reduced(Q):
    """0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, exactly."""
    d = Q.discriminant()
    s = isqrt(max(d, 0))
    if d <= 0 or s * s == d:
        raise SquareDiscriminant(f"discriminant {d}")
    return 1 <= Q.b <= s and s + 1 - Q.b <= 2 * abs(Q.a) <= s + Q.b


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


def fundamental_automorph_cycle(Q):
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
    if A[0] + A[3] <= 2 or act(P, A) != P:
        raise NoConvergence(f"the cycle of {P} closed on {A}, "
                            f"not a hyperbolic automorph")
    return A


def sign_a_plus_b_sqrt(a, b, d):
    """Exact sign of a + b*sqrt(d) for integers a, b and d >= 0."""
    if d < 0:
        raise BadIndex(f"sign of a + b*sqrt(d) needs d >= 0, got {d}")
    r = isqrt(d)
    if r * r == d:
        v = a + b * r
        return (v > 0) - (v < 0)
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2*d
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    bigger_is_a = lhs > rhs
    return ((a > 0) - (a < 0)) if bigger_is_a else ((b > 0) - (b < 0))


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


def gamma_Q_power(Q, M):
    """Least positive automorph power inside Gamma0(M), orientation-normalized."""
    A = fundamental_automorph_cycle(Q)
    if M == 1:
        j0 = 1
    else:
        B = tuple(x % M for x in A)
        C = B
        j0 = 1
        while C[2] % M != 0:
            C = tuple(x % M for x in mat_mul(C, B))
            j0 += 1
            if j0 > 10**7:
                raise NoConvergence(f"no power of {A} in Gamma0({M})")
    g = mat_pow(A, j0)
    if not _is_normalized(Q, g):
        g = mat_inv(g)
        if not _is_normalized(Q, g):
            raise BadSemigroupElement(
                f"neither {g} nor its inverse is oriented for {Q}")
    if g[2] % M or act(Q, g) != Q:
        raise BadSemigroupElement(f"{g} is not an automorph of {Q} "
                                  f"in Gamma0({M})")
    return g


def primitive_sl2_classes_cycle(d):
    """Representatives of primitive SL2(Z) classes of discriminant d > 0."""
    if d <= 0 or d % 4 not in (0, 1):
        return []
    e = isqrt(d)
    if e * e == d:
        return [QuadForm(0, e, c) for c in range(e) if gcd(e, c) == 1]
    s = isqrt(d)
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
                Q = QuadForm(a, b, prod // a)
                if Q.is_primitive():
                    assert is_reduced(Q)
                    reduced.add(Q)
    classes = []
    seen = set()
    for Q in sorted(reduced, key=QuadForm.triple):
        if Q in seen:
            continue
        members, _ = _cycle(Q)
        cycle_forms = [F for F, _ in members]
        seen.update(cycle_forms)
        classes.append(min(cycle_forms, key=QuadForm.triple))
    return sorted(classes, key=QuadForm.triple)


# ---------------------------------------------------------------------------
# Gamma0(M)-equivalence and generators


class DiscriminantMismatch(ShintaniError):
    """Two quadratic forms that should share a discriminant do not."""


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
    A = fundamental_automorph_cycle(P2)
    n = _automorph_mod_search(g0, A, M)
    if n is None:
        return None
    g = mat_mul(g0, mat_pow(A, n))
    assert g[2] % M == 0 and act(Q1, g) == Q2
    return g


@lru_cache(maxsize=None)
def gamma0_generators(M):
    """A finite generating set of Gamma0(M), by Schreier's lemma.

    SL2(Z) is generated by S and T; for each section element g and each
    generator x, the element g x h^{-1} (h the section rep of the coset of
    g x) lies in Gamma0(M), and together these generate it.
    """
    S = (0, -1, 1, 0)
    T = (1, 1, 0, 1)
    section = coset_section(M)
    gens = set()
    for g in section:
        for x in (S, T):
            gx = mat_mul(g, x)
            h = section[coset_index(gx, M)]
            gamma = mat_mul(gx, mat_inv(h))
            assert gamma[2] % M == 0
            if gamma != MAT_ID:
                gens.add(gamma)
    return tuple(sorted(gens))


# ---------------------------------------------------------------------------
# the classical symbols' value-by-value route


def sympolys_of(phi):
    """Generator values of a ModularSymbol, one side-L SymPoly each."""
    step = phi.k + 1
    flat = phi.coords()
    return tuple(SymPoly(phi.level, phi.k, flat[i:i + step], phi.chi, "L",
                         phi.ring)
                 for i in range(0, len(flat), step))


def symbol_of(values):
    """The ModularSymbol whose generator values are the SymPolys given."""
    v = values[0]
    return ModularSymbol(v.level, v.k, v.chi, v.ring,
                         [x for w in values for x in w.coeffs])


def weighted_sum(terms, add, acc):
    """Fold the terms of sum_(c, g, w) w * x_c|g into acc.

    add(acc, c, g, w) adds one term and returns the accumulator; the value
    type decides what x_c|g is (a generator value, a block of integer rows,
    stacked coordinates) and whether acc is updated in place.
    """
    for c, g, w in terms:
        acc = add(acc, c, g, w)
    return acc


def _add_value(values):
    return lambda acc, c, g, w: acc + values[c].act(g).scale(w)


def evaluate_values(M, values, divisor):
    """Phi(D) from generator values; D is ((cusp, mult), ...) or a Divisor0."""
    divisor = getattr(divisor, "pairs", divisor)
    return weighted_sum(divisor_terms(M, divisor), _add_value(values),
                        values[0].zero_like())


def check_values(M, values):
    """Exact check of the defining relations on generator values."""
    add = _add_value(values)
    zero = values[0].zero_like()
    return all(weighted_sum(rel, add, zero).is_zero()
               for rel in presentation(M).relations)


def check_relations(sym):
    """check_values for a ModularSymbol, on its generator values."""
    return check_values(sym.level, sympolys_of(sym))


def evaluate_symbol(phi, divisor):
    """Phi(D) for a ModularSymbol, from its generator values."""
    return evaluate_values(phi.level, sympolys_of(phi), divisor)


def act_involution(F):
    """SymPoly.act by diag(1,-1); determinant -1 needs its own path."""
    if F.side == "L":
        out = [x if i % 2 == 0 else -x for i, x in enumerate(F.coeffs)]
    else:
        f = F.chi(-1)
        out = [f * x if n % 2 == 0 else -f * x
               for n, x in enumerate(F.coeffs)]
    return SymPoly(F.level, F.k, out, F.chi, F.side, F.ring)


def pairing(F, P):
    """Pair a side-L vector against a side-Lstar vector of equal degree."""
    if F.k != P.k:
        raise DegreeMismatch(f"degrees {F.k} and {P.k} do not pair")
    if F.side != "L" or P.side != "Lstar":
        raise ValueError("pairing takes (L, Lstar) in that order")
    k = F.k
    tot = sum((-1) ** i * F.coeffs[i] * P.coeffs[k - i] for i in range(k + 1))
    return ring_reduce(F.ring, tot)


def dirac_poly(a, b, k, level, chi, ring="Q"):
    """(aY - bX)^k / k! on side L; pairs with P to give P(a, b)."""
    coeffs = [(-b) ** i * a ** (k - i) for i in range(k + 1)]
    return SymPoly(level, k, coeffs, chi, "L", ring)


class Divisor0:
    """Degree-zero divisor on the rational cusps, stored sorted."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        merged = {}
        for cusp, mult in pairs:
            if not isinstance(cusp, RationalCusp):
                cusp = RationalCusp(*cusp) if isinstance(cusp, tuple) else RationalCusp(cusp)
            if mult:
                merged[cusp] = merged.get(cusp, 0) + mult
        items = [(c, m) for c, m in merged.items() if m != 0]
        if sum(m for _, m in items) != 0:
            raise DegreeMismatch("divisor must have degree zero")
        # finite cusps by (num, den), infinity last
        items.sort(key=lambda cm: (cm[0].is_infinity, cm[0].num, cm[0].den))
        self.pairs = tuple(items)

    @classmethod
    def path(cls, src, dst):
        """{src} - {dst} for cusps or things coercible to cusps."""
        return cls([(src, 1), (dst, -1)])

    def apply(self, g):
        return Divisor0([(c.apply(g), m) for c, m in self.pairs])

    def __add__(self, other):
        return Divisor0(self.pairs + other.pairs)

    def __neg__(self):
        return Divisor0([(c, -m) for c, m in self.pairs])

    def __sub__(self, other):
        return self + (-other)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Divisor0) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Divisor0({list(self.pairs)})"


def J_classical(phi, Q, k, chi, base=None):
    """Cycle pairing chi(a_Q) * <phi(D_Q), Q^k>.

    Depends only on the class of Q under the level group; the optional
    base cusp moves the cycle's endpoints without changing the value.
    """
    if phi.k != 2 * k:
        raise DegreeMismatch(
            f"symbol degree {phi.k} does not match weight parameter {k}")
    M = phi.level
    if not in_FM(Q, M):
        raise NotInFM(f"{Q!r} is not adapted to level {M}")
    if base is None:
        base = RationalCusp.infinity()
    val = evaluate_symbol(phi, cycle_divisor(Q, M, base))
    qk = SymPoly(M, 2 * k, quad_power(Q, k), phi.chi, "Lstar", phi.ring)
    pair = pairing(val, qk)
    return ring_reduce(phi.ring, chi(Q.triple()[0] % chi.modulus) * pair)


def theta_kernel_by_slot(M, k, chi, phi_chi, n):
    """Integer vector K_n with coefficient n of the lift equal to K_n . coords.

    K_n = sum_Q chi(a_Q) * s(Q^k)^T E_{D_Q} over the classes of the q^n
    slot, where s(P)_i = (-1)^i P_(2k-i) pairs side L with the monomial
    side and E_D is the evaluation matrix of symbols twisted by phi_chi,
    from one _term_rows call over the slot's classes.
    """
    K = 2 * k
    base = RationalCusp.infinity()
    weights, groups = [], []
    for Q in enumerate_classes(M, delta_of_index(M, n)):
        if not in_FM(Q, M):
            raise NotInFM(f"{Q!r} is not adapted to level {M}")
        terms = divisor_terms(M, cycle_divisor(Q, M, base))
        f = chi(Q.a)
        if f:
            qk = quad_power(Q, k)
            weights.append([f * (-1) ** i * qk[K - i] for i in range(K + 1)])
            groups.append(terms)
    W = np.array(weights, dtype=object).reshape(len(groups), K + 1)
    return tuple(np.tensordot(W, _term_rows(M, K, phi_chi, groups), 2).tolist())


def basis_over(M, k, chi, ring):
    """solve_symbol_space's basis, each symbol reduced into the ring."""
    basis = solve_symbol_space(M, k, chi)
    if ring == "Q":
        return basis
    _, p, prec = ring
    return [classical_to_zpm(phi, p, prec) for phi in basis]


def hecke_Up(phi, p):
    if phi.level % p != 0:
        raise BadIndex(f"{p} does not divide the level {phi.level}")
    return hecke_Tn(phi, p)


def hecke_Tll(phi, l):
    """Diamond-scaled operator for l coprime to the level: one scalar rep."""
    if gcd(l, phi.level) != 1:
        raise BadIndex(f"{l} must be coprime to the level {phi.level}")
    return _apply_rows([phi], _hecke_rows(phi.level, phi.k, phi.chi,
                                          [(l, 0, 0, l)]))[0]


def frac_rref_gauss(rows, ncols):
    """Reduced row echelon form over Q by Fraction Gauss-Jordan; returns
    (rows, pivot_columns).  Rows may be longer than ncols: pivots are
    taken among the first ncols columns and the rest ride along."""
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


def frac_nullspace_gauss(rows, ncols):
    """Basis of {x : rows @ x = 0} over Q, one vector per free column."""
    rref, pivots = frac_rref_gauss(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rref[i][free]
        basis.append(v)
    return basis


def frac_solve_many(rows, rhss):
    """One solution of rows @ x = b over Q for each b in rhss, or None.

    One elimination of [rows | rhss] with pivots among the columns of
    rows; each solution is then checked exactly against its b.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[*r, *bs] for r, bs in zip(rows, zip(*rhss))]
    rref, pivots = frac_rref_gauss(aug, ncols)
    out = []
    for j, b in enumerate(rhss):
        x = [Fraction(0)] * ncols
        for row, c in zip(rref, pivots):
            x[c] = row[ncols + j]
        solved = all(sum(map(mul, r, x)) == bi for r, bi in zip(rows, b))
        out.append(x if solved else None)
    return out


def zpm_solve_by_column(A, b, p, M):
    """``zpm_solve`` for one right-hand side b from its own Howell
    reduction: the first row with a unit last entry of the Howell basis of
    ker[A | b] gives x, or there is none and b is not in the image.
    """
    A = np.asarray(A, dtype=np.int64)
    n, pm = A.shape[1], p**M
    aug = np.concatenate([A % pm, (np.asarray(b) % pm).reshape(-1, 1)],
                         axis=1)
    for vec in zpm_kernel(aug, p, M)[0]:
        t = int(vec[n])
        if t % p:
            return (-vec[:n] * pow(t, -1, pm)) % pm
    return None


def basis_symbols(space):
    """The basis symbols of an OCSpace, one OCSymbol per row of its data."""
    return tuple(OCSymbol(space.level, space.N, space.p, space.prec, space.T,
                          x) for x in space.data)


def flat_stratum(sym, d):
    """The stratum-d moments of an OCSymbol as one vector: generator, tag,
    disc, (n, d - n) order, as the columns of ``OCSpace.stratum_matrix``."""
    return sym.data[..., list(_stratum_cols(sym.T, d))].reshape(-1)


def up_matrix_by_column(space, d, n=None):
    """``up_matrix`` (or the matrix of T_n when n is given) from one
    operator image and one ``zpm_solve_by_column`` per basis symbol of the
    stratum."""
    idx = space.stratum_indices(d)
    A = space.stratum_matrix(d)
    basis = basis_symbols(space)
    cols = [zpm_solve_by_column(
        A, flat_stratum(oc_hecke_Tn(basis[i], n or space.p), d),
        space.p, space.prec) for i in idx]
    return np.stack(cols, axis=1) if cols else np.zeros((0, 0), np.int64)


def zpm_in_span(vectors, target, p, M):
    """Whether target lies in the Z/p^M span of the given vectors."""
    if not vectors:
        return not np.any(np.asarray(target) % p**M)
    A = np.stack([np.asarray(v, dtype=np.int64) for v in vectors], axis=1)
    return zpm_solve_by_column(A, target, p, M) is not None


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
