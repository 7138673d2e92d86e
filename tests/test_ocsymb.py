"""Overconvergent symbol spaces, slopes, and the eigenlift."""

import json
import random
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest

from shintani.arith import DirichletChar, crt
from shintani.cosets import _units
from shintani.dist import ArithWeight, _act_blocks, _pairs, _stratum_cols
from shintani.errors import (
    BadIndex,
    BadLevel,
    BadSemigroupElement,
    CriticalSlope,
    DegreeMismatch,
    NoConvergence,
    NotEigen,
    OperandMismatch,
    PrecisionMismatch,
)
from shintani import linalg, manin, modsym, ocsymb
from shintani.linalg import (
    berkowitz_charpoly, poly_mul_mod, zpm_block_kernel, zpm_kernel,
    zpm_span_basis, zpm_solve)
from shintani.modsym import hecke_Tn, involution
from shintani.ocsymb import (
    OCSpace,
    OCSymbol,
    SlopeData,
    charpoly_strata,
    character_project,
    classical_to_zpm,
    hecke_eigenvalue,
    lift_eigensymbol,
    newton_slopes,
    oc_hecke_Tll,
    oc_hecke_Tn,
    oc_hecke_Up,
    oc_involution,
    oc_sign_project,
    solve_oc_space,
    specialize_symbol,
    up_matrix,
)
from shintani.modsym import eigensymbols

from oracles import (
    MomentDist2,
    TaggedDist2,
    apply_double_coset,
    apply_involution,
    basis_over,
    basis_symbols,
    character_project_rotations,
    check_relations,
    check_values,
    coset_blocks_kron,
    data_of,
    dirac_distN,
    evaluate,
    flat_stratum,
    hecke_Tll,
    hecke_Up,
    invol_tagged,
    lift_eigensymbol_each_step,
    random_moments2,
    rank_mod_p,
    scalar_action,
    solve_oc_space_whole_sectors,
    stratum_relation_matrix,
    sympolys_of,
    term_blocks_kron,
    up_matrix_by_column,
    values_of,
)

TRIV = DirichletChar.trivial(1)


def omat(A, mod):
    return np.asarray(A, dtype=object) % mod


def mmul(A, B, mod):
    return np.asarray((omat(A, mod) @ omat(B, mod)) % mod, dtype=np.int64)


@pytest.fixture(scope="module")
def sp11_small():
    return solve_oc_space(11, 1, (5, 2))


@pytest.fixture(scope="module")
def sp11_big():
    return solve_oc_space(11, 1, (8, 8))


@pytest.fixture(scope="module")
def sp15():
    return solve_oc_space(15, 3, (6, 4))


@pytest.fixture(scope="module")
def lifted_11a(sp11_big):
    phi, _ = eigensymbols(11, 0, TRIV, -1)[0]
    kappa = ArithWeight(0, TRIV, 11)
    Phi, res_val = lift_eigensymbol(sp11_big, phi, 1, kappa, sign=-1)
    return phi, kappa, Phi, res_val


def random_symbol(space, seed):
    rng = np.random.default_rng(seed)
    mod = space.p**space.prec
    return space.combination(rng.integers(0, mod, size=space.dimension))


def unit_tagged(N, p, prec, T, t, c, pos):
    """Basis distribution with a single unit moment entry."""
    nmom = len(_pairs(T)[0])
    data = np.zeros((p - 1, nmom), dtype=np.int64)
    data[c - 1, pos] = 1
    return TaggedDist2(N, p, prec, T, {t: MomentDist2(p, prec, T, data)})


# ---------------------------------------------------------------------------
# the array operations against the value-by-value route


@pytest.mark.parametrize("level, N, precision",
                         [(5, 1, (8, 8)), (15, 3, (8, 8)), (11, 1, (6, 4))])
def test_array_operations_match_value_by_value_oracle(level, N, precision):
    # each operation on the data array against the same computation on
    # one TaggedDist2 per generator; random values, relations not needed
    p, (prec, T) = level // N, precision
    mod, tags = p**prec, _units(N)
    rng = np.random.default_rng(level)
    shape = (manin.presentation(level).ngens, len(tags), p - 1,
             len(_pairs(T)[0]))

    def rand():
        return OCSymbol(level, N, p, prec, T,
                        rng.integers(0, mod, size=shape))

    a, b = rand(), rand()
    va, vb = values_of(a), values_of(b)
    assert values_of(a + b) == tuple(x + y for x, y in zip(va, vb))
    assert values_of(a - b) == tuple(x - y for x, y in zip(va, vb))
    assert values_of(a.scale(-7)) == tuple(x.scale(-7) for x in va)
    assert np.array_equal(a.flat(), np.concatenate(
        [v.component(t).data.reshape(-1) for v in va for t in tags]))
    for d in range(T + 1):
        cols = list(_stratum_cols(T, d))
        assert np.array_equal(flat_stratum(a, d), np.concatenate(
            [v.component(t).data[:, cols].reshape(-1)
             for v in va for t in tags]))

    basis = [rand() for _ in range(4)]
    space = OCSpace(level, N, p, prec, T, [x.data for x in basis],
                    [0] * 4, [0] * 4)
    coeffs = rng.integers(0, mod, size=4)
    want = [v.zero_like() for v in va]
    for c, x in zip(coeffs, basis):
        want = [w + v.scale(int(c)) for w, v in zip(want, values_of(x))]
    assert values_of(space.combination(coeffs)) == tuple(want)
    assert np.array_equal(space.stratum_matrix(0), np.stack(
        [flat_stratum(x, 0) for x in basis], axis=1))

    # the trivial character, the quadratic character mod p and, at tame
    # level 3, that character times (-3/.)
    quad = p if p % 4 == 1 else -p
    chis = [TRIV, DirichletChar.from_kronecker(quad)] + (
        [DirichletChar.from_kronecker(-3 * quad)] if N > 1 else [])
    for d, chi in product((0, 1, T), chis):
        # the stratum-d part of a, where the weighted rotations project
        cols = list(_stratum_cols(T, d))
        ad = np.zeros_like(a.data)
        ad[..., cols] = a.data[..., cols]
        ad = a._like(ad)
        vd = values_of(ad)
        kappa = ArithWeight(d, chi, p)
        want = [v.zero_like() for v in vd]
        for t, c in product(tags, range(1, p)):
            s = crt(t, N, c, p) if N > 1 else c
            nu = dirac_distN(s, N, p, prec, T)
            w = kappa.chi_N(t) * kappa.chi_p(c) * pow(s, -d, mod)
            want = [x + scalar_action(nu, v).scale(w)
                    for x, v in zip(want, vd)]
        want = tuple(x.scale(pow(len(tags) * (p - 1), -1, mod)) for x in want)
        assert values_of(character_project(ad, kappa)) == want
        assert values_of(character_project_rotations(ad, d, kappa)) == want

    flip = apply_involution(level, va, invol_tagged)
    for sign in (1, -1):
        assert values_of(oc_sign_project(a, sign)) == tuple(
            (v + w.scale(sign)).scale(pow(2, -1, mod))
            for v, w in zip(va, flip))

    # (+-p/.), times (-3/.) at tame level 3
    chi = DirichletChar.from_kronecker((-p if p % 4 == 3 else p)
                                       * (-3 if N > 1 else 1))
    for k in (0, 1, 3):
        kappa = ArithWeight(k, chi, p)
        spec = specialize_symbol(a, kappa)
        for v, w in zip(va, sympolys_of(spec)):
            assert list(w.coeffs) == [
                (-1) ** i * sum(
                    (kappa.chi_N(t) if N > 1 else 1) * kappa.chi_p(c)
                    * v.component(t).m(c, k - i, i)
                    for t in tags for c in range(1, p)) % mod
                for i in range(k + 1)]

    with pytest.raises(PrecisionMismatch):
        a + OCSymbol(level, N, p, prec - 1, T, a.data)
    with pytest.raises(PrecisionMismatch):
        a - OCSymbol(level, N, p, prec, T - 1, a.data[..., :-T - 1])


# ---------------------------------------------------------------------------
# solve_oc_space


def test_dimension_matches_dense_kernel_oracle(sp11_small):
    # independent path: whole-space relation matrix assembled by acting on
    # unit distributions with the tested value action, no stratum splitting
    p, prec, T = 11, 5, 2
    level = 11
    pres = manin.presentation(level)
    nmom = len(_pairs(T)[0])
    block = (p - 1) * nmom
    zero = TaggedDist2(1, p, prec, T)

    def full_action_matrix(mat):
        cols = []
        for c in range(1, p):
            for pos in range(nmom):
                img = unit_tagged(1, p, prec, T, 0, c, pos).act(mat)
                cols.append([int(x) for x in img.component(0).data.reshape(-1)])
        return np.array(cols, dtype=np.int64).T

    rows = []
    for rel in pres.relations:
        blockrow = np.zeros((block, pres.ngens * block), dtype=np.int64)
        for c, mat, coeff in rel:
            W = full_action_matrix(mat)
            sl = slice(c * block, (c + 1) * block)
            blockrow[:, sl] = (blockrow[:, sl] + coeff * W) % p**prec
        rows.append(blockrow)
    A = np.vstack(rows)
    kern, torsion = zpm_kernel(A, p, prec)
    assert len(kern) == sp11_small.dimension
    assert sorted(torsion) == sorted(sp11_small.torsion)


def _character_inverse(p, prec):
    """Entry omega^-j(c) / (p - 1) at (c, j), from modular inverses."""
    mod = p**prec
    X = ocsymb._characters(p, prec)
    inv = pow(p - 1, -1, mod)
    return np.array([[pow(int(X[j, c]), -1, mod) * inv % mod
                      for j in range(p - 1)] for c in range(p - 1)],
                    dtype=np.int64)


@pytest.mark.parametrize("p, prec", [(5, 8), (7, 4), (11, 6)])
def test_character_table(p, prec):
    mod = p**prec
    X = ocsymb._characters(p, prec)
    Xinv = _character_inverse(p, prec)
    eye = np.eye(p - 1, dtype=np.int64)
    assert np.array_equal(mmul(X, Xinv, mod), eye)
    assert np.array_equal(mmul(Xinv, X, mod), eye)
    omega = [int(w) for w in X[1]]
    for c1 in range(1, p):
        assert omega[c1 - 1] % p == c1
        for c2 in range(1, p):
            assert omega[c1 * c2 % p - 1] == omega[c1 - 1] * omega[c2 - 1] % mod
    # omega^j is trivial exactly when p - 1 divides j
    orders = [next(n for n in range(1, p) if pow(w, n, mod) == 1)
              for w in omega]
    assert max(orders) == p - 1
    assert all(X[0] == 1)
    assert all(X[j].any() and not all(X[j] == 1) for j in range(1, p - 1))


def _conjugate_by_characters(A, level, N, p, prec, d):
    """Cinv A C on both disc axes, with C[c, j] = omega^j(c)."""
    mod = p**prec
    X = ocsymb._characters(p, prec)
    Xinv = _character_inverse(p, prec).T
    ntags = len(_units(N))
    A8 = A.reshape(-1, ntags, p - 1, d + 1, manin.presentation(level).ngens,
                   ntags, p - 1, d + 1)
    B = np.einsum("jc,rtcmgusn->rtjmgusn", Xinv, A8) % mod
    return np.einsum("rtjmgusn,ks->rtjmgukn", B, X) % mod


@pytest.mark.parametrize("level, N, prec, T, d",
                         [(5, 1, 8, 8, 4), (15, 3, 8, 8, 4),
                          (15, 3, 12, 2, 2)])
def test_sector_blocks_are_the_conjugated_relation_matrix(level, N, prec, T,
                                                          d):
    # the character table conjugates the full relation matrix to block
    # diagonal form, and the directly built sector blocks are its blocks;
    # 5^12 is just below the 2^28 bound, where every batched twist * block
    # and weight * block entry is below (p^prec)^2 < 2^56
    p = level // N
    A = stratum_relation_matrix(level, N, p, prec, T, d)
    conj = _conjugate_by_characters(A, level, N, p, prec, d)
    off = [conj[:, :, j, :, :, :, k, :] for j in range(p - 1)
           for k in range(p - 1) if j != k]
    assert sum(int(np.count_nonzero(x)) for x in off) == 0
    pres = manin.presentation(level)
    blocks = list(ocsymb._term_blocks(pres.relations, pres.ngens, N, p, prec,
                                      T))[d]
    diag = [conj[:, :, j, :, :, :, j, :].reshape(blocks[j].shape)
            for j in range(p - 1)]
    for j in range(p - 1):
        assert np.array_equal(blocks[j], diag[j])
    # the sign of the twist omega^j(a)^-1 is pinned: sector j and sector
    # -j, which would swap under omega^j(a), differ
    assert not np.array_equal(diag[1], diag[p - 2])


@pytest.mark.parametrize("level, N, precision",
                         [(5, 1, (8, 8)), (11, 1, (6, 4)), (15, 3, (8, 4))])
def test_sector_solve_matches_full_stratum_kernel(level, N, precision):
    # oracle: zpm_kernel on each full stratum matrix in disc coordinates;
    # a reduced Howell basis is unique, so rows and torsion agree exactly
    p, (prec, T) = level // N, precision
    space = solve_oc_space(level, N, precision)
    for d in range(T + 1):
        kern, tors = zpm_kernel(
            stratum_relation_matrix(level, N, p, prec, T, d), p, prec)
        idx = space.stratum_indices(d)
        assert len(kern) == len(idx) > 0
        assert np.array_equal(space.stratum_matrix(d).T, np.stack(kern))
        assert [space.torsion[i] for i in idx] == tors


# every profile of the block elimination equivalence; 5^12 is just below
# the 2^28 bound, and at levels 5 and 10 two S-pairs have a generator
# fixed by S, whose block I + A at it is no pivot
BLOCK_PROFILES = [(5, 1, (8, 8)), (5, 1, (12, 2)), (7, 1, (6, 6)),
                  (11, 1, (6, 1)), (10, 2, (6, 3)), (15, 3, (4, 4)),
                  (20, 4, (3, 3)), (15, 3, (12, 2))]


@pytest.mark.parametrize("level, N, precision", BLOCK_PROFILES)
def test_block_elimination_spans_each_sector_kernel(level, N, precision,
                                                    monkeypatch):
    # oracle: zpm_kernel on the whole sector block; the generators the
    # elimination expands span the same module, so their Howell bases and
    # torsion agree, while the Howell kernel itself sees fewer generators
    p, (prec, T) = level // N, precision
    pres = manin.presentation(level)
    pivots = [group[0][0] for group in pres.relations]
    widths = []

    def recorded(A, p, M):
        widths.append(np.shape(A)[1])
        return zpm_kernel(A, p, M)

    monkeypatch.setattr(linalg, "zpm_kernel", recorded)
    nonzero = 0
    for rel in ocsymb._term_blocks(pres.relations, pres.ngens, N, p, prec, T):
        width = rel.shape[-1]
        gens = zpm_block_kernel(rel.reshape(rel.shape[:3] + (pres.ngens, -1)),
                                pivots, p, prec)
        assert len(gens) == p - 1
        for B, y in zip(rel, gens):
            want, want_tors = zpm_kernel(B.reshape(-1, width), p, prec)
            got, tors = zpm_span_basis(y, width, p, prec)
            assert tors == want_tors
            assert np.array_equal(np.reshape(got, (-1, width)),
                                  np.reshape(want, (-1, width)))
            nonzero += len(want) > 0
        assert max(widths[-(p - 1):]) < width
    assert nonzero >= T + 1
    # the S-fixed generators of level 5 stay live
    if level == 5:
        assert widths[-1] == 2 * (T + 1) * len(_units(N))


@pytest.mark.parametrize("level, N, precision",
                         [(5, 1, (8, 8)), (10, 2, (6, 3)), (15, 3, (4, 4))])
def test_solve_oc_space_matches_whole_sector_solve(level, N, precision):
    # oracle: the sector solve before the block elimination; the union's
    # Howell basis is unique, so the space is the same byte for byte
    space = solve_oc_space(level, N, precision)
    data, strata, torsion = solve_oc_space_whole_sectors(level, N, precision)
    assert space.data.tobytes() == data.tobytes()
    assert space.data.shape == data.shape
    assert not space.data.flags.writeable
    assert space.strata == tuple(strata)
    assert space.torsion == tuple(torsion)


def test_basis_symbols_satisfy_relations(sp11_small, sp15):
    for b in basis_symbols(sp11_small) + basis_symbols(sp15)[::7]:
        assert check_values(b.level, values_of(b))


def test_t0_space_specializes_onto_classical():
    p, prec = 11, 5
    space = solve_oc_space(11, 1, (prec, 0))
    kappa = ArithWeight(0, TRIV, p)
    classical = basis_over(11, 0, TRIV, ("zpm", p, prec))
    images = []
    for b in basis_symbols(space):
        s = specialize_symbol(b, kappa)
        assert check_relations(s)
        images.append(np.array([int(c) for c in s.coords()], dtype=np.int64))
    # every classical basis vector lies in the span of the specialized images
    A = np.stack(images, axis=1)
    for phi in classical:
        target = np.array([int(c) for c in phi.coords()], dtype=np.int64)
        assert zpm_solve(A, target, p, prec) is not None


def test_tame_sector_block_decomposition(sp15):
    # oracle: per-sector dimensions from independently assembled
    # psi-twisted kernels; Delta_3 has two characters
    p, prec, T = 5, 6, 4
    level, N = 15, 3
    pres = manin.presentation(level)
    nmom = len(_pairs(T)[0])
    block = (p - 1) * nmom

    def single_action_matrix(mat):
        cols = []
        for c in range(1, p):
            for pos in range(nmom):
                data = np.zeros((p - 1, nmom), dtype=np.int64)
                data[c - 1, pos] = 1
                mu = TaggedDist2(1, p, prec, T, {0: MomentDist2(p, prec, T, data)})
                img = mu.act(mat)
                cols.append([int(x) for x in img.component(0).data.reshape(-1)])
        return np.array(cols, dtype=np.int64).T

    def sector_logcard(psi):
        # p-logarithm of the sector module's cardinality: invariant under
        # the coordinate embedding, unlike generator counts
        rows = []
        for rel in pres.relations:
            blockrow = np.zeros((block, pres.ngens * block), dtype=np.int64)
            for c, mat, coeff in rel:
                W = single_action_matrix(mat)
                f = psi[mat[0] % N]
                sl = slice(c * block, (c + 1) * block)
                blockrow[:, sl] = (blockrow[:, sl] + coeff * f * W) % p**prec
            rows.append(blockrow)
        kern, tors = zpm_kernel(np.vstack(rows), p, prec)
        return sum(prec - v for v in tors), len(kern)

    def span_logcard(vectors):
        from shintani.linalg import _howell_reduce
        if not vectors:
            return 0
        rows = [np.asarray(v, dtype=np.int64) % p**prec for v in vectors]
        _, info = _howell_reduce(rows, len(rows[0]), p, prec)
        return sum(prec - v for _, v in info)

    trivial = {1: 1, 2: 1}
    quadratic = {1: 1, 2: -1}
    lc_triv, d_triv = sector_logcard(trivial)
    lc_quad, d_quad = sector_logcard(quadratic)
    assert d_triv > 0 and d_quad > 0
    lc_full = sum(prec - v for v in sp15.torsion)
    assert lc_triv + lc_quad == lc_full
    # the same split is visible on the solved space: the weight-corrected
    # tag rotation is an involution whose eigenpieces carve out the sectors
    mod = p**prec
    s = crt(2, 3, 1, 5)
    nu = dirac_distN(s, N, p, prec, T)
    half = pow(2, -1, mod)

    def rotate(sym, d):
        w = pow(pow(s, -1, mod), d, mod)
        return OCSymbol(level, N, p, prec, T, data_of(
            [scalar_action(nu, v).scale(w) for v in values_of(sym)]))

    lc_plus = lc_minus = 0
    basis = basis_symbols(sp15)
    for d in range(T + 1):
        idx = sp15.stratum_indices(d)
        plus_flats, minus_flats = [], []
        for i in idx:
            b = basis[i]
            rb = rotate(b, d)
            assert (rotate(rb, d) - b).is_zero()
            plus_flats.append(flat_stratum((b + rb).scale(half), d))
            minus_flats.append(flat_stratum((b - rb).scale(half), d))
        lc_plus += span_logcard(plus_flats)
        lc_minus += span_logcard(minus_flats)
    assert lc_plus == lc_triv
    assert lc_minus == lc_quad


# ---------------------------------------------------------------------------
# up_matrix


def test_up_matrix_intertwines_classical_on_t0():
    p, prec = 11, 5
    mod = p**prec
    space = solve_oc_space(11, 1, (prec, 0))
    kappa = ArithWeight(0, TRIV, p)
    classical = basis_over(11, 0, TRIV, ("zpm", p, prec))
    C = np.stack([np.array([int(c) for c in phi.coords()], dtype=np.int64)
                  for phi in classical], axis=1)
    # specialization matrix: oc basis coords -> classical basis coords
    scols, ucols = [], []
    for b in basis_symbols(space):
        s = specialize_symbol(b, kappa)
        x = zpm_solve(C, np.array([int(c) for c in s.coords()],
                                  dtype=np.int64), p, prec)
        assert x is not None
        scols.append(x)
    S = np.stack(scols, axis=1)
    U_oc = up_matrix(space, 0)
    for phi in classical:
        img = hecke_Up(phi, p)
        x = zpm_solve(C, np.array([int(c) for c in img.coords()],
                                  dtype=np.int64), p, prec)
        assert x is not None
        ucols.append(x)
    U_cl = np.stack(ucols, axis=1)
    assert np.array_equal(mmul(S, U_oc, mod), mmul(U_cl, S, mod))


@pytest.mark.parametrize("level, N, precision, dmax", [
    (11, 1, (6, 1), 1),
    (5, 1, (8, 8), 8),
    (15, 3, (4, 4), 4),
    (11, 1, (8, 8), 3),
])
def test_up_matrix_matches_the_per_column_solve(level, N, precision, dmax):
    # the same representative, not merely some solution: where ker A != 0
    # another one can change the characteristic polynomial
    space = solve_oc_space(level, N, precision)
    assert any(zpm_kernel(space.stratum_matrix(d), space.p, space.prec)[0]
               for d in range(dmax + 1))
    for d in range(dmax + 1):
        B = up_matrix(space, d)
        assert B.dtype == np.int64
        assert np.array_equal(B, up_matrix_by_column(space, d))


def test_up_reps_raise_moment_valuations():
    # the U_p coset reps (1, i; 0, p) couple the degree-j moments in y
    # into the output with an exact p^j factor
    p, prec, T = 11, 5, 4
    mod = p**prec
    from math import comb
    for i in (0, 3, 7):
        blocks = _act_blocks((1, i, 0, p), p, prec, T)
        for d in range(T + 1):
            V = blocks[d]
            for a in range(d + 1):
                for n in range(d + 1):
                    expect = (comb(d - a, n - a) * i**(n - a) * p**(d - n)
                              if n >= a else 0)
                    assert int(V[a, n]) == expect % mod


def test_up_commutes_with_tl(sp11_small):
    # Exact operator-level commutation on every basis symbol.  (Coordinate
    # matrices through torsion generators are only defined modulo a smaller
    # power, so matrix products are the wrong object to compare there.)
    for b in basis_symbols(sp11_small):
        ut = oc_hecke_Tn(oc_hecke_Up(b), 3)
        tu = oc_hecke_Up(oc_hecke_Tn(b, 3))
        assert (ut - tu).is_zero()
    # On a torsion-free stratum coordinates are unique, so the honest
    # matrix identity holds on the nose.
    assert all(sp11_small.torsion[i] == 0
               for i in sp11_small.stratum_indices(0))
    mod = 11**5
    U = up_matrix(sp11_small, 0)
    T3 = up_matrix_by_column(sp11_small, 0, 3)
    assert np.array_equal(mmul(U, T3, mod), mmul(T3, U, mod))


@pytest.mark.parametrize("level, N, precision",
                         [(5, 1, (4, 3)), (15, 3, (3, 1)), (11, 1, (3, 2))])
def test_oc_operators_match_value_by_value_oracle(level, N, precision):
    # the stratum batches against the double coset and the involution
    # applied one value and one path term at a time
    space = solve_oc_space(level, N, precision)
    p, mod = level // N, space.p**space.prec
    several = random_symbol(space, seed=level)
    assert len({d for d in range(space.T + 1)
                if flat_stratum(several, d).any()}) > 1
    basis = basis_symbols(space)
    for sym in (several, basis[-1]):
        vals = values_of(sym)
        for n in (2, 3, 6, p):
            want = apply_double_coset(level, vals, manin.hecke_reps(n, level))
            assert values_of(oc_hecke_Tn(sym, n)) == tuple(want), n
        assert values_of(oc_hecke_Up(sym)) == tuple(apply_double_coset(
            level, vals, manin.hecke_reps(p, level)))
        assert values_of(oc_hecke_Tll(sym, 2)) == tuple(apply_double_coset(
            level, vals, [(2, 0, 0, 2)]))
        assert values_of(oc_involution(sym)) == tuple(apply_involution(
            level, vals, invol_tagged))
    for d in range(space.T + 1):
        idx = space.stratum_indices(d)
        A = space.stratum_matrix(d)
        for n in (None, 2):
            reps = manin.hecke_reps(p if n is None else n, level)
            images = np.stack([
                flat_stratum(OCSymbol(level, N, p, space.prec, space.T,
                                      data_of(apply_double_coset(
                                          level, values_of(basis[i]),
                                          reps))), d)
                for i in idx], axis=1)
            B = (up_matrix(space, d) if n is None
                 else up_matrix_by_column(space, d, n))
            assert np.array_equal(mmul(A, B, mod), images % mod), (d, n)
    bad = [(1, 0, 1, 1)]  # lower-left entry not divisible by the level
    with pytest.raises(BadSemigroupElement):
        apply_double_coset(level, values_of(several), bad)
    with pytest.raises(BadSemigroupElement):
        ocsymb._apply_coset(several, several.data, bad)


def test_oc_operators_match_oracle_on_unsolved_values():
    # tame level 5 has units of order 4, so tags and discs moving by a
    # versus by a^-1 differ; the operators are formulas in the generator
    # values, so random values need not satisfy the relations.  5^12 and
    # 3^17 are just below the 2^28 bound, where every batched twist * block
    # and weight * block entry is below (p^prec)^2 < 2^56
    for level, N, prec, l in [(35, 5, 3, 3), (15, 3, 12, 2), (15, 5, 17, 2)]:
        p, T = level // N, 2
        rng = random.Random(level * prec)
        vals = [TaggedDist2(N, p, prec, T,
                            {t: random_moments2(rng, p, prec, T)
                             for t in _units(N)})
                for _ in range(manin.presentation(level).ngens)]
        sym = OCSymbol(level, N, p, prec, T, data_of(vals))
        for n in (2, p):
            assert values_of(oc_hecke_Tn(sym, n)) == tuple(apply_double_coset(
                level, vals, manin.hecke_reps(n, level))), (level, n)
        assert values_of(oc_hecke_Tll(sym, l)) == tuple(apply_double_coset(
            level, vals, [(l, 0, 0, l)]))
        assert values_of(oc_involution(sym)) == tuple(apply_involution(
            level, vals, invol_tagged))


def test_term_blocks_check_every_distinct_path_matrix():
    # the batch checks each distinct matrix once, not only the first: a
    # group whose second distinct matrix leaves the semigroup is refused,
    # by the sector fold and by the classical fold alike
    level, N, p, prec, d = 15, 3, 5, 4, 1
    ngens = manin.presentation(level).ngens
    good = [(0, (1, 0, 0, 1), 1), (1, (1, 0, 0, 1), -1), (2, (2, 1, 15, 8), 1)]

    def sector_fold(groups):
        return list(ocsymb._term_blocks(groups, ngens, N, p, prec, d))[d]

    for fold in (sector_fold, partial(modsym._term_rows, level, d, TRIV)):
        assert fold([good]).any()
        for bad in [(1, 0, 1, 1), (3, 1, 15, 6), (1, 1, 15, 1)]:
            with pytest.raises(BadSemigroupElement):
                fold([good[:2] + [(2, bad, 1)] + good[2:]])


@pytest.mark.parametrize("level, N, precision",
                         [(5, 1, (8, 8)), (11, 1, (6, 1)), (15, 3, (4, 4)),
                          (15, 3, (12, 2))])
def test_sector_folds_match_the_kron_oracle(level, N, precision):
    # the relation and Hecke folds, each built once for all strata, against
    # one np.kron per path matrix and one np.stack per fold, on every
    # stratum of U_p, T_2, T_{l,l} and the involution; 5^12 is just below
    # the 2^28 bound, where every weight * reduced product is below 2^56
    p, (prec, T), l = level // N, precision, 3 if level % 3 else 7
    pres = manin.presentation(level)
    rels = list(ocsymb._term_blocks(pres.relations, pres.ngens, N, p, prec, T))
    assert len(rels) == T + 1
    for d, rel in enumerate(rels):
        assert np.array_equal(rel, term_blocks_kron(
            pres.relations, pres.ngens, N, p, prec, T, d)), d
    for reps in (manin.hecke_reps(p, level), manin.hecke_reps(2, level),
                 [(l, 0, 0, l)], [manin.MAT_IOTA]):
        reps = tuple(reps)
        ops = ocsymb._coset_blocks(level, N, p, prec, T, reps)
        assert len(ops) == T + 1
        for d, op in enumerate(ops):
            want = coset_blocks_kron(level, N, p, prec, T, d, reps)
            assert np.array_equal(op, want), (d, reps)


def test_coset_blocks_are_cached_and_read_only():
    key = (15, 3, 5, 3, 2, tuple(manin.hecke_reps(5, 15)))
    ops = ocsymb._coset_blocks(*key)
    assert ocsymb._coset_blocks(*key) is ops
    assert isinstance(ops, tuple)
    assert [op.shape for op in ops] == [(4, 24 * 2 * (d + 1), 24 * 2 * (d + 1))
                                        for d in range(3)]
    for op in ops:
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0, 0] = 1


def test_coset_blocks_refuse_a_rep_outside_the_semigroup():
    # each rep but the involution is checked once, before any block is
    # built: a non-unit upper-left, a lower-left off the level and a
    # negative determinant are refused
    for bad in [(5, 0, 0, 1), (1, 0, 1, 1), (2, 0, 0, -1)]:
        with pytest.raises(BadSemigroupElement):
            ocsymb._coset_blocks(15, 3, 5, 3, 2, ((1, 0, 0, 2), bad))


@pytest.mark.parametrize("reps", [manin.hecke_reps(5, 15),
                                  manin.hecke_reps(2, 15),
                                  [manin.MAT_IOTA]])
def test_operator_on_a_stack_matches_column_by_column(reps):
    # random values need not satisfy the relations; the operator is
    # linear, so each symbol of a stack with two leading axes is the image
    # of that symbol alone, and the image reaches every stratum
    level, N, p, prec, T = 15, 3, 5, 3, 2
    shape = (manin.presentation(level).ngens, len(_units(N)), p - 1,
             len(_pairs(T)[0]))
    X = np.random.default_rng(15).integers(0, p**prec, size=(2, 3) + shape)
    sym = OCSymbol(level, N, p, prec, T, X[0, 0])
    stacked = ocsymb._apply_coset(sym, X, reps)
    assert stacked.shape == X.shape
    for d in range(T + 1):
        assert stacked[..., list(_stratum_cols(T, d))].any(), d
    for i, j in product(range(2), range(3)):
        alone = ocsymb._apply_coset(sym, X[i, j], reps)
        assert np.array_equal(stacked[i, j], alone), (i, j)


# ---------------------------------------------------------------------------
# newton_slopes


def test_newton_slopes_handbuilt():
    p, prec = 5, 6
    # det(X - diag(1, p, p^2)) reversed gives slopes 0, 1, 2
    c2 = -(1 + p + p**2)
    c1 = p + p**2 + p**3
    c0 = -p**3
    slopes, verts = newton_slopes([1, c2 % p**prec, c1 % p**prec,
                                   c0 % p**prec], p, prec)
    assert slopes == [0, 1, 2]
    assert verts[0] == (0, 0)
    # Coefficients vanishing mod p^prec enter the hull at the precision cap;
    # the reported slopes are then lower bounds.  Hull of (0,0), (1,6), (2,6)
    # is the single segment (0,0)->(2,6): two slopes of 3.
    slopes, verts = newton_slopes([1, 0, 0], p, prec)
    assert slopes == [Fraction(3), Fraction(3)]
    assert list(verts) == [(0, 0), (2, prec)]
    # a vanishing middle coefficient above the hull is harmless
    slopes, _ = newton_slopes([1, 0, (p**2) % p**prec], p, prec)
    assert slopes == [1, 1]


def test_slope_zero_present_and_rank_certified(sp11_big):
    p, prec = 11, 8
    mod = p**prec
    U0 = up_matrix(sp11_big, 0)
    cp0 = berkowitz_charpoly(U0, mod)
    slopes0, _ = newton_slopes(cp0, p, prec)
    assert 0 in slopes0
    n_units = sum(1 for s in slopes0 if s == 0)
    # independent certificate: rank of U^k mod p stabilizes at the number
    # of unit eigenvalues, immune to torsion-coordinate ambiguity
    P = U0.astype(object)
    Pk = np.eye(U0.shape[0], dtype=object)
    for _ in range(2 * U0.shape[0]):
        Pk = (Pk @ P) % p
    assert rank_mod_p(Pk.astype(np.int64), p) == n_units
    # the product over the strata <= 2, a divisor of the full
    # characteristic polynomial, also reaches slope zero
    cp = [1]
    for d in range(3):
        cp = poly_mul_mod(
            cp, berkowitz_charpoly(up_matrix(sp11_big, d), mod), mod)
    slopes, _ = newton_slopes(cp, p, prec)
    assert 0 in slopes


def test_slope_projector_complement_determinant(sp11_big):
    # val(det U) = sum of all slopes; units contribute nothing, so this
    # is the determinant valuation of U on the slope > 0 complement
    p, prec = 11, 8
    mod = p**prec
    U0 = up_matrix(sp11_big, 0)
    cp0 = berkowitz_charpoly(U0, mod)
    slopes0, _ = newton_slopes(cp0, p, prec)
    pos_sum = sum(s for s in slopes0 if s > 0)
    det = int(cp0[-1]) % mod
    v = 0
    while det and det % p == 0:
        det //= p
        v += 1
    assert v == pos_sum
    assert v < prec - 2


def test_slope_data_json(sp11_big):
    p, prec = 11, 8
    cp = berkowitz_charpoly(up_matrix(sp11_big, 0), p**prec)
    sd = SlopeData(p, prec, cp)
    blob = sd.dumps()
    assert blob == SlopeData(p, prec, cp).dumps()
    obj = json.loads(blob)
    assert obj["p"] == p and obj["precision"] == prec
    assert obj["charpoly"] == [int(c) for c in cp]
    slopes = [s[0] / s[1] for s in obj["slopes"]]
    assert slopes == sorted(slopes)
    assert obj["newton_vertices"][0] == [0, 0]


# ---------------------------------------------------------------------------
# specialization


def test_specialize_total_mass_at_weight_zero(sp11_small):
    kappa = ArithWeight(0, TRIV, 11)
    sym = random_symbol(sp11_small, seed=5)
    spec = specialize_symbol(sym, kappa)
    mod = 11**5
    for v, w in zip(values_of(sym), sympolys_of(spec)):
        mass = int(np.sum(v.component(0).data[:, 0])) % mod
        assert int(w.coeffs[0]) % mod == mass


def test_specialize_intertwines_every_hecke_operator(sp11_small):
    kappa = ArithWeight(0, TRIV, 11)
    sym = random_symbol(sp11_small, seed=7)
    spec = specialize_symbol(sym, kappa)
    cases = [
        (lambda s: oc_hecke_Tn(s, 3), lambda f: hecke_Tn(f, 3)),
        (lambda s: oc_hecke_Tn(s, 6), lambda f: hecke_Tn(f, 6)),
        (oc_hecke_Up, lambda f: hecke_Up(f, 11)),
        (lambda s: oc_hecke_Tll(s, 2), lambda f: hecke_Tll(f, 2)),
        (oc_involution, involution),
    ]
    for oc_op, cl_op in cases:
        lhs = specialize_symbol(oc_op(sym), kappa)
        rhs = cl_op(spec)
        assert lhs.coords() == rhs.coords()


# ---------------------------------------------------------------------------
# the 11a lift


def test_lift_converges_with_full_residual(lifted_11a):
    _, _, Phi, res_val = lifted_11a
    assert res_val >= 8 - 2
    assert check_values(Phi.level, values_of(Phi))


def test_lift_specializes_to_classical(lifted_11a):
    phi, kappa, Phi, _ = lifted_11a
    p, prec = 11, 8
    mod = p**prec
    spec = specialize_symbol(Phi, kappa)
    pc = [int(c) for c in phi.coords()]
    sc = [int(c) for c in spec.coords()]
    i0 = next(i for i, c in enumerate(pc) if c % p)
    lam = sc[i0] * pow(pc[i0], -1, mod) % mod
    assert lam % p != 0  # a unit multiple
    for a, b in zip(sc, pc):
        assert (a - lam * b) % p**(prec - 2) == 0


def test_lift_eigenvalues(lifted_11a):
    _, _, Phi, _ = lifted_11a
    p, prec = 11, 8
    drop = p**(prec - 2)
    assert hecke_eigenvalue(Phi, 1) == 1
    l2 = hecke_eigenvalue(Phi, 2)
    l3 = hecke_eigenvalue(Phi, 3)
    l6 = hecke_eigenvalue(Phi, 6)
    assert (l2 + 2) % drop == 0
    assert (l3 + 1) % drop == 0
    assert (l6 - l2 * l3) % drop == 0
    assert hecke_eigenvalue(Phi, p) == 1


def test_lift_critical_slope_gate(sp11_big):
    phi, _ = eigensymbols(11, 0, TRIV, -1)[0]
    kappa = ArithWeight(0, TRIV, 11)
    with pytest.raises(CriticalSlope):
        lift_eigensymbol(sp11_big, phi, 11, kappa)


def test_lift_refuses_a_non_unit_alpha(sp11_small):
    # v_p(11) = 1 is below the critical slope 2 at weight 1, but the
    # finite-precision lift inverts alpha mod p^prec
    phi, _ = eigensymbols(11, 0, TRIV, -1)[0]
    with pytest.raises(CriticalSlope, match="unit"):
        lift_eigensymbol(sp11_small, phi, 11, ArithWeight(1, TRIV, 11))


def stratum0_perturbation(space, seed=17):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(space.dimension, dtype=np.int64)
    for i in space.stratum_indices(0):
        coeffs[i] = rng.integers(0, space.p**space.prec)
    return space.combination(coeffs)


def test_lift_independent_of_initialization(sp11_big, lifted_11a):
    # the oracle's lift from a seed perturbed on stratum 0 agrees with the
    # package's lift up to a unit multiple
    phi, kappa, Phi, _ = lifted_11a
    p, prec = 11, 8
    mod = p**prec
    perturb = stratum0_perturbation(sp11_big)
    Phi2, res2 = lift_eigensymbol_each_step(sp11_big, phi, 1, kappa,
                                            sign=-1, perturb=perturb)
    assert res2 >= prec - 2
    f1 = [int(x) for x in Phi.flat()]
    f2 = [int(x) for x in Phi2.flat()]
    i0 = next(i for i, c in enumerate(f1) if c % p)
    lam = f2[i0] * pow(f1[i0], -1, mod) % mod
    for a, b in zip(f2, f1):
        assert (a - lam * b) % p**(prec - 2) == 0


def assert_unit_multiple(spec, phi, p, prec):
    """spec is a unit multiple of phi's coordinates mod p^prec."""
    mod = p**prec
    spec = [int(c) for c in spec.coords()]
    pc = [int(c) for c in phi.coords()]
    i = next(i for i, c in enumerate(pc) if c % p)
    lam = spec[i] * pow(pc[i], -1, mod) % mod
    assert lam % p and all((a - lam * b) % mod == 0 for a, b in zip(spec, pc))


@pytest.mark.parametrize("profile", ["slopes", "big"])
def test_lift_projecting_once_matches_each_step(profile, sp11_big):
    # the sign and character projections commute with U_p and are
    # idempotent, so projecting the seed once gives the per-step array
    phi, _ = eigensymbols(11, 0, TRIV, -1)[0]
    kappa = ArithWeight(0, TRIV, 11)
    # the benchmark's slopes space, (prec, T) = (6, 1), or (8, 8)
    space = solve_oc_space(11, 1, (6, 1)) if profile == "slopes" else sp11_big
    got, res = lift_eigensymbol(space, phi, 1, kappa, sign=-1)
    want, res_want = lift_eigensymbol_each_step(space, phi, 1, kappa,
                                                sign=-1)
    assert not got.is_zero()
    assert res == res_want
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("k, precision", [(1, (6, 2)), (3, (6, 4))])
def test_lift_in_the_sector_of_the_wild_character(k, precision):
    # chi = (-7/.) has wild part (./7) = omega^3, so the U_7 = 1 system
    # lives in disc sector 3, which the mean over the discs erases
    chi = DirichletChar.from_kronecker(-7)
    [phi] = [phi for phi, ev in eigensymbols(7, k, chi, 1) if ev[7] == 1]
    space, kappa = solve_oc_space(7, 1, precision), ArithWeight(k, chi, 7)
    got, res = lift_eigensymbol(space, phi, 1, kappa, sign=1)
    want, res_want = lift_eigensymbol_each_step(space, phi, 1, kappa,
                                                sign=1)
    assert not got.is_zero() and res == res_want == 6
    assert np.array_equal(got.data, want.data)
    assert hecke_eigenvalue(got, 7) == 1
    assert_unit_multiple(specialize_symbol(got, kappa), phi, 7, 6)


@pytest.mark.filterwarnings("ignore:skipping irrational")
@pytest.mark.parametrize("level", [15, 21])
@pytest.mark.parametrize("sign", [1, -1])
def test_lift_at_tame_level_three_matches_each_step(level, sign):
    # chi = (-3/.) is the tame character: the oracle's twisted average of
    # tag and disc rotations gives the package's array exactly
    chi, p = DirichletChar.from_kronecker(-3), level // 3
    space, kappa = solve_oc_space(level, 3, (4, 1)), ArithWeight(1, chi, p)
    [(phi, alpha)] = [(phi, ev[p]) for phi, ev in
                      eigensymbols(level, 1, chi, sign) if ev[p] % p]
    got, res = lift_eigensymbol(space, phi, alpha, kappa, sign=sign)
    want, res_want = lift_eigensymbol_each_step(space, phi, alpha, kappa,
                                                sign=sign)
    assert not got.is_zero() and res == res_want == 4
    assert np.array_equal(got.data, want.data)


@pytest.mark.filterwarnings("ignore:skipping irrational")
def test_lift_at_tame_level_five():
    # the tame level 5 holds other tame characters' parts with unit U_7
    # eigenvalues, which only the projection onto chi_N removes
    chi = DirichletChar.trivial(35)
    space, kappa = solve_oc_space(35, 5, (4, 0)), ArithWeight(0, chi, 7)
    systems = [(phi, sign) for sign in (1, -1)
               for phi, ev in eigensymbols(35, 0, chi, sign) if ev[7] == 1]
    assert [sign for _, sign in systems] == [1, 1, 1, -1]
    for phi, sign in systems:
        lift, res = lift_eigensymbol(space, phi, 1, kappa, sign=sign)
        assert not lift.is_zero() and res == 4
        assert hecke_eigenvalue(lift, 7) == 1
        assert_unit_multiple(specialize_symbol(lift, kappa), phi, 7, 4)


def test_lift_checks_the_residual_exactly(monkeypatch):
    # a U_p off by 7^5 in one entry leaves residual valuation 5: the lift
    # checks its residual mod 7^6, not mod 7^(6 - 2)
    chi = DirichletChar.from_kronecker(-7)
    [phi] = [phi for phi, ev in eigensymbols(7, 1, chi, 1) if ev[7] == 1]
    real = ocsymb.oc_hecke_Up

    def crooked(sym):
        img = real(sym)
        data = np.array(img.data)
        data.flat[np.flatnonzero(data)[0]] += 7**5
        return img._like(data)

    monkeypatch.setattr(ocsymb, "oc_hecke_Up", crooked)
    with pytest.raises(NoConvergence, match="valuation 5 < 6"):
        lift_eigensymbol(solve_oc_space(7, 1, (6, 2)), phi, 1,
                         ArithWeight(1, chi, 7), sign=1)


def test_lift_refuses_the_wrong_sign():
    # the plus part of the minus eigensymbol's seed is zero, which
    # passes the residual check: the lift must not return it
    phi, _ = eigensymbols(11, 0, TRIV, -1)[0]
    with pytest.raises(NoConvergence, match="unit multiple of phi"):
        lift_eigensymbol(solve_oc_space(11, 1, (6, 1)), phi, 1,
                         ArithWeight(0, TRIV, 11), sign=1)


def test_lift_checks_the_ring_of_phi():
    # phi over Z/p^m reduces to the space's Z/p^prec only for m >= prec
    # and the space's p; otherwise the lift refuses it up front
    phi, _ = eigensymbols(11, 0, TRIV, -1)[0]
    space, kappa = solve_oc_space(11, 1, (6, 1)), ArithWeight(0, TRIV, 11)
    want, res = lift_eigensymbol(space, phi, 1, kappa)
    got, res_got = lift_eigensymbol(
        space, classical_to_zpm(phi, 11, 8), 1, kappa)
    assert res_got == res and np.array_equal(got.data, want.data)
    for ring in [(11, 4), (7, 6)]:
        with pytest.raises(PrecisionMismatch):
            lift_eigensymbol(space, classical_to_zpm(phi, *ring), 1, kappa)


def test_lift_checks_phi_against_the_space_and_kappa():
    # phi must share the space's level and kappa's weight and character;
    # characters compare as functions on the units mod the level
    space, triv11 = solve_oc_space(11, 1, (6, 2)), ArithWeight(0, TRIV, 11)
    phi17, _ = eigensymbols(17, 0, TRIV, -1)[0]
    with pytest.raises(BadLevel, match="level 17"):
        lift_eigensymbol(space, phi17, 1, triv11)
    phi11, _ = eigensymbols(11, 0, TRIV, -1)[0]
    with pytest.raises(DegreeMismatch, match="weight 0"):
        lift_eigensymbol(space, phi11, 1, ArithWeight(1, TRIV, 11))
    chi = DirichletChar.from_kronecker(-7)
    [phi7] = [phi for phi, ev in eigensymbols(7, 1, chi, 1) if ev[7] == 1]
    with pytest.raises(OperandMismatch, match="character"):
        lift_eigensymbol(solve_oc_space(7, 1, (6, 2)), phi7, 1,
                         ArithWeight(1, TRIV, 7), sign=1)
    # the trivial characters mod 1 and mod 11 agree on the units mod 11
    got, _ = lift_eigensymbol(space, phi11, 1,
                              ArithWeight(0, DirichletChar.trivial(11), 11))
    want, _ = lift_eigensymbol(space, phi11, 1, triv11)
    assert not got.is_zero() and np.array_equal(got.data, want.data)


def test_sign_outside_plus_and_minus_one_is_refused(sp11_small):
    # the projection and the lift took such a sign as -1 and returned the
    # minus part without an error
    space = solve_oc_space(11, 1, (6, 1))
    phi, _ = eigensymbols(11, 0, TRIV, -1)[0]
    sym = random_symbol(sp11_small, seed=3)
    for sign in (0, 2, -3):
        with pytest.raises(BadIndex, match="sign"):
            oc_sign_project(sym, sign)
        with pytest.raises(BadIndex, match="sign"):
            lift_eigensymbol(space, phi, 1, ArithWeight(0, TRIV, 11),
                             sign=sign)


def test_hecke_eigenvalue_rejects_noneigen(sp11_small):
    sym = random_symbol(sp11_small, seed=23)
    with pytest.raises(NotEigen):
        hecke_eigenvalue(sym, 2)


# ---------------------------------------------------------------------------
# structural helpers


def test_sign_and_sector_projectors_are_projectors(sp11_small):
    mod = 11**5
    sym = random_symbol(sp11_small, seed=31)
    plus = oc_sign_project(sym, 1)
    minus = oc_sign_project(sym, -1)
    assert (plus + minus - sym).is_zero()
    again = oc_sign_project(plus, 1)
    assert (again - plus).is_zero()
    flipped = oc_involution(minus)
    assert (flipped + minus).is_zero()
    # the character projection, on a symbol of every stratum at once,
    # where the weighted rotation average of one stratum is not
    # idempotent: the projection is, and it commutes with U_p, T_2 and the
    # involution; at tame level 3 it also projects onto the tame character
    quad = DirichletChar.from_kronecker(-11)
    five = DirichletChar.from_kronecker(5)
    for (level, N, precision), chis in [
            ((11, 1, (5, 3)), (TRIV, quad)),
            ((15, 3, (4, 2)), (TRIV, five, DirichletChar.from_kronecker(-3),
                               DirichletChar.from_kronecker(-15)))]:
        space = solve_oc_space(level, N, precision)
        sym = random_symbol(space, seed=53)
        kappas = [ArithWeight(0, chi, level // N) for chi in chis]
        for kappa in kappas:
            proj = character_project(sym, kappa)
            assert not proj.is_zero() and not (proj - sym).is_zero()
            assert (character_project(proj, kappa) - proj).is_zero()
            for op in (oc_hecke_Up, lambda x: oc_hecke_Tn(x, 2),
                       oc_involution):
                assert not op(proj).is_zero()
                assert (op(proj)
                        - character_project(op(sym), kappa)).is_zero()
            for d in range(space.T + 1):
                once = character_project_rotations(sym, d, kappa)
                assert not (character_project_rotations(once, d, kappa)
                            - once).is_zero()
        # the parts of distinct characters are complementary pieces
        for kappa, other in product(kappas, repeat=2):
            if kappa is not other:
                assert character_project(character_project(sym, kappa),
                                         other).is_zero()


def test_character_projection_needs_p_prime_to_phi_of_N():
    # p = 5 divides phi(11) (5 - 1), which is then not a unit mod 5^2
    sym = OCSymbol(55, 11, 5, 2, 0, np.zeros((manin.presentation(55).ngens,
                                              10, 4, 1), dtype=np.int64))
    with pytest.raises(BadLevel, match="divides"):
        character_project(sym, ArithWeight(0, DirichletChar.trivial(55), 5))


def test_oc_symbol_evaluate_invariance(sp11_small):
    # Phi(gamma D) | gamma = Phi(D) for gamma in Gamma_0(11)
    from shintani.arith import RationalCusp
    sym = random_symbol(sp11_small, seed=41)
    gamma = (4, 1, 11, 3)
    base = ((RationalCusp(1, 7), 1), (RationalCusp.infinity(), -1))
    moved = tuple((c.apply(gamma), m) for c, m in base)
    lhs = evaluate(sym, moved).act(gamma)
    rhs = evaluate(sym, base)
    assert (lhs - rhs).is_zero()
