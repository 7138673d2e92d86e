"""Classical modular symbols: actions, relations, Hecke eigensystems."""

import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy

from shintani.arith import DirichletChar, mat_inv, mat_mul
from shintani.cosets import coset_index, coset_section, p1_classes
from shintani.errors import (
    BadCharacteristic,
    BadIndex,
    BadLevel,
    BadSemigroupElement,
    DegreeMismatch,
    OperandMismatch,
)
from shintani import modsym
from shintani.linalg import zpm_kernel
from shintani.manin import MAT_IOTA, hecke_reps, presentation
from shintani.modsym import (
    ModularSymbol,
    SymPoly,
    _term_rows,
    eigensymbols,
    hecke_matrix,
    hecke_Tn,
    involution,
    involution_matrix,
    involution_split,
    ring_reduce,
    sign_subspace,
    solve_symbol_space,
)
from shintani.ocsymb import classical_to_zpm

from oracles import (
    Divisor0,
    act_involution,
    act_matrix_L_formula,
    act_matrix_Lstar_formula,
    apply_double_coset,
    apply_involution,
    basis_over,
    check_relations,
    dirac_poly,
    eigensymbols_sympy,
    evaluate_symbol,
    frac_rref_gauss,
    frac_solve_many,
    gamma0_generators,
    hecke_Tll,
    hecke_Up,
    pairing,
    symbol_of,
    sympolys_of,
    zpm_in_span,
)

TRIV = DirichletChar.trivial(1)
X, Y = sympy.symbols("X Y")


def random_gamma0(M, rng, length=6):
    g = (1, 0, 0, 1)
    gens = gamma0_generators(M)
    for _ in range(rng.randrange(1, length + 1)):
        h = rng.choice(gens)
        if rng.random() < 0.5:
            h = mat_inv(h)
        g = mat_mul(g, h)
    return g


# ---------------------------------------------------------------- actions

def sympy_act(coeffs, k, g, side):
    """Independent polynomial-substitution oracle for the weight action."""
    a, b, c, d = g
    if side == "L":
        poly = sum(Fraction(int(coeffs[i])) * X**i * Y**(k - i)
                   / (sympy.factorial(i) * sympy.factorial(k - i))
                   for i in range(k + 1))
    else:
        poly = sum(coeffs[n] * X**n * Y**(k - n) for n in range(k + 1))
    sub = poly.subs({X: d * X - c * Y, Y: -b * X + a * Y}, simultaneous=True)
    pe = sympy.Poly(sympy.expand(sub), X, Y)
    out = []
    for i in range(k + 1):
        ci = pe.coeff_monomial(X**i * Y**(k - i))
        if side == "L":
            ci = ci * sympy.factorial(i) * sympy.factorial(k - i)
        out.append(sympy.Rational(ci))
    return out


@pytest.mark.parametrize("side", ["L", "Lstar"])
def test_act_matches_substitution_oracle(side):
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randrange(0, 5)
        M = rng.choice([1, 5, 11])
        g = random_gamma0(M, rng)
        coeffs = [rng.randrange(-9, 10) for _ in range(k + 1)]
        F = SymPoly(M, k, coeffs, TRIV, side)
        got = F.act(g).coeffs
        want = sympy_act(coeffs, k, g, side)
        assert list(got) == [Fraction(int(w.p), int(w.q)) for w in want]


def test_act_matrices_match_the_binomial_formulas():
    # both weight-action matrices are dist._sym_blocks output; compare them
    # with the binomial sums for both determinant signs, small entries and
    # entries above 2^63, k <= 10
    rng = random.Random(17)
    signs = set()
    for _ in range(300):
        bound = rng.choice([7, 2**70])
        g = tuple(rng.randrange(-bound, bound + 1) for _ in range(4))
        k = rng.randrange(0, 11)
        a, b, c, d = g
        signs.add((a * d - b * c > 0) - (a * d - b * c < 0))
        assert modsym._act_matrix_L(g, k) == act_matrix_L_formula(g, k), (g, k)
        assert (modsym._act_matrix_Lstar(g, k)
                == act_matrix_Lstar_formula(g, k)), (g, k)
    assert {-1, 1} <= signs
    big = (2**64 + 3, -(2**65), 3 * 2**63, -(2**66) + 1)
    for k in range(11):
        assert modsym._act_matrix_L(big, k) == act_matrix_L_formula(big, k)
        assert (modsym._act_matrix_Lstar(big, k)
                == act_matrix_Lstar_formula(big, k))


def test_act_matrix_of_iota_is_the_sign_diagonal():
    # the weight action of MAT_IOTA on side L must be diag((-1)^j), the
    # oracles' act_involution: the involution's fold reads it through the
    # products gamma iota, _act_matrix_L(gamma iota) = diag((-1)^j) L(gamma)
    for k in range(11):
        assert modsym._act_matrix_L(MAT_IOTA, k) == tuple(
            tuple((-1) ** j if i == j else 0 for i in range(k + 1))
            for j in range(k + 1))


def test_act_rejects_bad_semigroup_elements():
    F = SymPoly(11, 2, [1, 2, 3], TRIV)
    with pytest.raises(BadSemigroupElement):
        F.act((1, 0, 0, -1))          # negative determinant
    with pytest.raises(BadSemigroupElement):
        F.act((1, 0, 1, 1))           # lower-left not divisible by 11
    with pytest.raises(BadSemigroupElement):
        F.act((11, 1, 0, 2))          # upper-left shares a factor with 11
    # legal: upper triangular mod 11 with positive determinant
    F.act((2, 1, 11, 6))
    F.act((1, 3, 0, 5))


def test_act_is_right_action():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randrange(0, 4)
        g1 = random_gamma0(5, rng)
        g2 = random_gamma0(5, rng)
        F = SymPoly(5, k, [rng.randrange(-5, 6) for _ in range(k + 1)], TRIV)
        lhs = F.act(g1).act(g2)
        rhs = F.act(mat_mul(g1, g2))
        assert lhs.coeffs == rhs.coeffs


def test_pairing_dirac_property():
    rng = random.Random(3)
    for _ in range(25):
        k = rng.randrange(0, 6)
        a, b = rng.randrange(-6, 7), rng.randrange(-6, 7)
        u = [rng.randrange(-9, 10) for _ in range(k + 1)]
        P = SymPoly(1, k, u, TRIV, "Lstar")
        F = dirac_poly(a, b, k, 1, TRIV)
        val = pairing(F, P)
        direct = sum(u[n] * a**n * b**(k - n) for n in range(k + 1))
        assert val == direct


def test_pairing_group_invariance():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randrange(0, 5)
        M = rng.choice([5, 11])
        g = random_gamma0(M, rng)
        F = SymPoly(M, k, [rng.randrange(-7, 8) for _ in range(k + 1)], TRIV, "L")
        P = SymPoly(M, k, [rng.randrange(-7, 8) for _ in range(k + 1)], TRIV, "Lstar")
        assert pairing(F.act(g), P.act(g)) == pairing(F, P)


def test_pairing_degree_mismatch():
    F = SymPoly(1, 2, [1, 0, 0], TRIV, "L")
    P = SymPoly(1, 3, [1, 0, 0, 0], TRIV, "Lstar")
    with pytest.raises(DegreeMismatch):
        pairing(F, P)


def test_involution_action_square_is_identity():
    rng = random.Random(13)
    for side in ("L", "Lstar"):
        for _ in range(10):
            k = rng.randrange(0, 5)
            F = SymPoly(1, k, [rng.randrange(-5, 6) for _ in range(k + 1)],
                        TRIV, side)
            assert act_involution(act_involution(F)).coeffs == F.coeffs


# ------------------------------------------------------------- dimensions

def oracle_dimension(M, k):
    """Dense nullspace of relations built by raw polynomial substitution.

    Shares only the coset bookkeeping with the library; the action, the
    relation unwinding and the elimination are sympy's.
    """
    section = coset_section(M)
    n = len(section)
    unknowns = [sympy.Symbol(f"f_{c}_{i}") for c in range(n) for i in range(k + 1)]

    def gen_poly(c):
        return sum(unknowns[c * (k + 1) + i] * X**i * Y**(k - i)
                   / (sympy.factorial(i) * sympy.factorial(k - i))
                   for i in range(k + 1))

    def path_value(g):
        c = coset_index(g, M)
        a, b, cc, d = mat_mul(section[c], mat_inv(g))
        return gen_poly(c).subs({X: d * X - cc * Y, Y: -b * X + a * Y},
                                simultaneous=True)

    S = (0, -1, 1, 0)
    T = (0, -1, 1, -1)
    T2 = mat_mul(T, T)
    MINUS = (-1, 0, 0, -1)
    rows = []
    for g in section:
        exprs = [
            path_value(g) + path_value(mat_mul(g, S)),
            path_value(g) + path_value(mat_mul(g, T)) + path_value(mat_mul(g, T2)),
            path_value(g) - path_value(mat_mul(MINUS, g)),
        ]
        for e in exprs:
            pe = sympy.Poly(sympy.expand(e), X, Y)
            for i in range(k + 1):
                ce = pe.coeff_monomial(X**i * Y**(k - i))
                rows.append([sympy.diff(ce, u) for u in unknowns])
    mat = sympy.Matrix(rows)
    return len(unknowns) - mat.rank()


def test_dimension_level_eleven_weight_two():
    basis = solve_symbol_space(11, 0, TRIV)
    assert len(basis) == 3
    # genus of the level-11 curve is 1 and it has two cusps: 2g + 2 - 1
    assert oracle_dimension(11, 0) == 3


def test_dimension_level_one_is_zero():
    # the paired-path relation forces 2w = 0 on the single generator
    assert oracle_dimension(1, 0) == 0
    assert solve_symbol_space(1, 0, TRIV) == []


def test_dimension_level_five_sym2():
    basis = solve_symbol_space(5, 2, TRIV)
    assert len(basis) == 4
    assert oracle_dimension(5, 2) == 4


def test_solve_zpm_matches_rational_dimension():
    # the kernel of the relation rows mod 5^4 has the rational dimension,
    # and every rational solution reduces into its span
    rows = _term_rows(11, 0, TRIV, presentation(11).relations)
    rows = (rows.reshape(-1, rows.shape[-1]) % 5**4).astype(np.int64)
    bz, _ = zpm_kernel(rows, 5, 4)
    assert len(bz) == 3
    span = [list(map(int, v)) for v in bz]
    for s in solve_symbol_space(11, 0, TRIV):
        assert zpm_in_span(span, [int(x) for x in s.coords()], 5, 4)


def test_solve_bad_rings():
    # a solved symbol reduces into Z/p^M for primes p >= 5 only
    sym = solve_symbol_space(11, 0, TRIV)[0]
    with pytest.raises(BadCharacteristic):
        classical_to_zpm(sym, 3, 2)
    with pytest.raises(BadCharacteristic):
        classical_to_zpm(sym, 4, 2)
    with pytest.raises(BadCharacteristic):
        ModularSymbol(11, 0, TRIV, "R", sym.coords())


def test_bad_side_and_character_modulus_raise_package_errors():
    with pytest.raises(BadIndex):
        SymPoly(11, 2, [1, 2, 3], TRIV, side="R")
    with pytest.raises(BadLevel):
        solve_symbol_space(11, 0, DirichletChar.from_kronecker(5))


def test_ring_reduce_inverts_denominators_prime_to_p():
    # the plus part of a level-11 weight-2 symbol has halves: -11/2 is
    # -11 * 2^-1 = 57 mod 5^3, and 1/5 has no image mod 5^3
    plus, _ = involution_split(solve_symbol_space(11, 2, TRIV)[2])
    i, x = next((i, x) for i, x in enumerate(plus.coords())
                if x.denominator > 1)
    assert x == Fraction(-11, 2)
    zpm = classical_to_zpm(plus, 5, 3).coords()
    assert zpm[i] == ring_reduce(("zpm", 5, 3), x) == 57
    assert classical_to_zpm(plus.scale(2), 5, 3).coords() == tuple(
        2 * y % 125 for y in zpm)
    assert ring_reduce(("zpm", 5, 3), -11) == 114
    with pytest.raises(BadCharacteristic, match="denominator"):
        ring_reduce(("zpm", 5, 3), Fraction(1, 5))
    with pytest.raises(BadCharacteristic, match="denominator"):
        classical_to_zpm(plus.scale(Fraction(1, 5)), 5, 3)


@pytest.mark.parametrize("ring", ["Q", ("zpm", 7, 3)])
def test_sympolys_of_round_trips(ring):
    # the oracles' generator values and the flat coordinates carry the
    # same symbol
    chi = DirichletChar.from_kronecker(5)
    basis = basis_over(5, 2, chi, ring)
    assert basis
    for phi in basis:
        values = sympolys_of(phi)
        assert len(values) == len(p1_classes(5))
        assert {(v.level, v.k, v.chi, v.side, v.ring) for v in values} == {
            (5, 2, chi, "L", ring)}
        back = symbol_of(values)
        assert (back.level, back.k, back.chi, back.ring, back.coords()) == (
            phi.level, phi.k, phi.chi, phi.ring, phi.coords())
        assert sympolys_of(back) == values


def test_symbol_refuses_wrong_length_and_other_spaces():
    sym = solve_symbol_space(5, 2, TRIV)[0]
    with pytest.raises(DegreeMismatch):
        ModularSymbol(5, 2, TRIV, "Q", sym.coords()[:-1])
    with pytest.raises(BadCharacteristic):
        ModularSymbol(5, 2, TRIV, ("zpm", 3, 2), sym.coords())
    other = ModularSymbol(5, 2, DirichletChar.from_kronecker(5), "Q",
                          sym.coords())
    for op in ("__add__", "__sub__"):
        with pytest.raises(OperandMismatch):
            getattr(sym, op)(other)
    assert (sym - sym).is_zero() and sym.zero_like().is_zero()
    assert (sym + sym).coords() == sym.scale(2).coords()


def test_basis_symbols_satisfy_relations():
    for M, k in ((11, 0), (5, 2), (15, 0)):
        for sym in solve_symbol_space(M, k, TRIV):
            assert check_relations(sym)


def _bump_first_entry(basis):
    return [[basis[0][0] + 1, *basis[0][1:]], *basis[1:]]


def test_relation_check_refuses_a_corrupted_kernel(monkeypatch):
    # the solver multiplies the relation rows into its kernel on every
    # call; one entry off by one breaks an S-pair relation
    assert solve_symbol_space(11, 0, TRIV)
    real = modsym.frac_nullspace
    monkeypatch.setattr(modsym, "frac_nullspace",
                        lambda *args: _bump_first_entry(real(*args)))
    with pytest.raises(OperandMismatch, match="breaks the relations"):
        solve_symbol_space(11, 0, TRIV)


def test_perturbed_symbol_breaks_relations():
    sym = solve_symbol_space(11, 0, TRIV)[0]
    vals = list(sympolys_of(sym))
    bumped = vals[3].coeffs[0] + 1
    vals[3] = SymPoly(11, 0, (bumped,), TRIV)
    bad = symbol_of(vals)
    assert not check_relations(bad)


# ------------------------------------------------------------- evaluation

def test_evaluate_half_to_infinity_uses_two_paths():
    from shintani.arith import RationalCusp, sl2_chain
    assert len(sl2_chain(RationalCusp(1, 2))) == 2
    sym = solve_symbol_space(11, 0, TRIV)[0]
    D = Divisor0.path(RationalCusp(1, 2), RationalCusp.infinity())
    val = evaluate_symbol(sym, D)
    chain = sl2_chain(RationalCusp(1, 2))
    manual = sympolys_of(sym)[0].zero_like()
    from shintani.manin import presentation
    pres = presentation(11)
    for g in chain:
        c = coset_index(g, 11)
        manual = manual + sympolys_of(sym)[c].act(
            mat_mul(pres.section[c], mat_inv(g))).scale(-1)
    assert (val - manual).is_zero()


def test_evaluate_group_invariance():
    rng = random.Random(17)
    from shintani.arith import RationalCusp
    for M, k in ((11, 0), (5, 2)):
        basis = solve_symbol_space(M, k, TRIV)
        phi = basis[0]
        for q in basis[1:]:
            phi = phi + q
        for _ in range(20):
            g = random_gamma0(M, rng, length=8)
            r1 = RationalCusp(rng.randrange(-9, 10), rng.randrange(1, 10))
            r2 = RationalCusp(rng.randrange(-9, 10), rng.randrange(0, 7))
            if r1 == r2:
                continue
            D = Divisor0.path(r1, r2)
            lhs = evaluate_symbol(phi, D.apply(g)).act(g)
            rhs = evaluate_symbol(phi, D)
            assert (lhs - rhs).is_zero()


def test_evaluate_degree_zero_assertion():
    with pytest.raises(DegreeMismatch):
        Divisor0([((1, 2), 1)])


# ------------------------------------------------------------------ hecke

def test_hecke_images_satisfy_relations():
    for M, k in ((11, 0), (5, 2)):
        sym = solve_symbol_space(M, k, TRIV)[0]
        assert check_relations(hecke_Tn(sym, 2))
        assert check_relations(hecke_Up(sym, M))


def test_hecke_commutes_and_is_multiplicative():
    basis = solve_symbol_space(5, 2, TRIV)
    phi = basis[0] + basis[2]
    a = hecke_Tn(hecke_Tn(phi, 2), 3)
    b = hecke_Tn(hecke_Tn(phi, 3), 2)
    c = hecke_Tn(phi, 6)
    assert all((x - y).is_zero()
               for x, y in zip(sympolys_of(a), sympolys_of(b)))
    assert all((x - y).is_zero()
               for x, y in zip(sympolys_of(a), sympolys_of(c)))


def test_hecke_Tll_is_identity_in_weight_two():
    sym = solve_symbol_space(11, 0, TRIV)[1]
    img = hecke_Tll(sym, 3)
    assert all((x - y).is_zero()
               for x, y in zip(sympolys_of(img), sympolys_of(sym)))


def test_hecke_index_errors():
    sym = solve_symbol_space(11, 0, TRIV)[0]
    with pytest.raises(BadIndex):
        hecke_Up(sym, 3)
    with pytest.raises(BadIndex):
        hecke_Tll(sym, 11)
    with pytest.raises(BadIndex):
        hecke_Tn(sym, 0)


@pytest.mark.parametrize("ring", ["Q", ("zpm", 7, 3)])
def test_hecke_matrices_match_double_coset_oracle(ring):
    # one cached integer matrix per operator against the value-by-value
    # double coset and involution of tests/oracles.py
    cases = ((10, 2, DirichletChar.trivial(10)),
             (5, 2, DirichletChar.from_kronecker(5)))
    for M, k, chi in cases:
        basis = basis_over(M, k, chi, ring)
        assert basis
        primes = [p for p in (2, 5) if M % p == 0]
        for phi in basis + [involution_split(b)[1] for b in basis]:
            for n in (2, 3, 6):
                assert sympolys_of(hecke_Tn(phi, n)) == tuple(
                    apply_double_coset(M, sympolys_of(phi), hecke_reps(n, M)))
            for p in primes:
                assert sympolys_of(hecke_Up(phi, p)) == tuple(
                    apply_double_coset(M, sympolys_of(phi), hecke_reps(p, M)))
            assert sympolys_of(hecke_Tll(phi, 3)) == tuple(apply_double_coset(
                M, sympolys_of(phi), [(3, 0, 0, 3)]))
            assert sympolys_of(involution(phi)) == tuple(apply_involution(
                M, sympolys_of(phi), act_involution))
    # diag(-1, 1) too: the fold alone would admit gamma alpha = -gamma iota
    for bad in [(1, 0, 1, 1), (-1, 0, 0, 1)]:
        with pytest.raises(BadSemigroupElement):
            modsym._hecke_rows(5, 2, TRIV, (bad,))


def test_characters_equal_mod_the_level_share_one_operator():
    # trivial() and trivial(11) agree on every unit mod 11: the second
    # eigensystem run reads each of its operators from the cache, and its
    # symbols keep the character they were asked for
    eigensymbols(11, 0, DirichletChar.trivial(), -1)
    misses = modsym._coset_rows.cache_info().misses
    systems = eigensymbols(11, 0, DirichletChar.trivial(11), -1)
    assert modsym._coset_rows.cache_info().misses == misses
    assert systems
    assert all(phi.chi == DirichletChar.trivial(11) for phi, _ in systems)
    # a character whose modulus does not divide the level is refused
    phi = ModularSymbol(11, 0, DirichletChar.from_kronecker(5), "Q",
                        [0] * len(p1_classes(11)))
    with pytest.raises(BadLevel):
        hecke_Tn(phi, 2)


@pytest.mark.parametrize("M", (11, 15, 37))
def test_coords_match_frac_solve_oracle(monkeypatch, M):
    # coordinates read off private columns against one elimination, for
    # the T_2, T_3 and involution matrices and for every subspace that
    # eigensymbols splits: its row echelon sign spaces and their pieces
    calls = []
    real = modsym._coords

    def recorded(basis, targets):
        calls.append((basis, targets, real(basis, targets)))
        return calls[-1][-1]

    monkeypatch.setattr(modsym, "_coords", recorded)
    symbols = solve_symbol_space(M, 2, TRIV)
    hecke_matrix(symbols, 2)
    hecke_matrix(symbols, 3)
    involution_matrix(symbols)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for sign in (1, -1):
            eigensymbols(M, 2, TRIV, sign)
    assert {len(basis) for basis, _, _ in calls} > {len(symbols)}
    for basis, targets, got in calls:
        assert got == frac_solve_many(list(zip(*basis)), targets)


def test_coords_refuse_what_they_cannot_read():
    # no column where only one basis vector is nonzero
    with pytest.raises(OperandMismatch, match="private column"):
        modsym._coords([[1, 1], [1, -1]], [[2, 0]])
    # column 0 gives the coordinate 1, which misses column 2
    with pytest.raises(OperandMismatch, match="left the solved space"):
        modsym._coords([[1, 0, 1]], [[1, 0, 0]])


def test_spectrum_level_eleven():
    basis = solve_symbol_space(11, 0, TRIV)
    T2 = hecke_matrix(basis, 2)
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in T2])
    assert m.eigenvals() == {sympy.Integer(-2): 2, sympy.Integer(3): 1}


def test_involution_matrix_squares_to_identity():
    for M, k in ((11, 0), (5, 2)):
        basis = solve_symbol_space(M, k, TRIV)
        J = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in row] for row in involution_matrix(basis)])
        assert J * J == sympy.eye(len(basis))


def test_involution_split_recombines():
    basis = solve_symbol_space(5, 2, TRIV)
    phi = basis[0] + basis[1].scale(2)
    plus, minus = involution_split(phi)
    back = plus + minus
    assert all((x - y).is_zero()
               for x, y in zip(sympolys_of(back), sympolys_of(phi)))
    ip = involution(plus)
    im = involution(minus)
    assert all((x - y).is_zero()
               for x, y in zip(sympolys_of(ip), sympolys_of(plus)))
    assert all((x + y).is_zero()
               for x, y in zip(sympolys_of(im), sympolys_of(minus)))


def test_sign_subspace_ranks_match_split_symbols():
    # the rank of (I +- J)/2 on basis coordinates is the rank of the
    # projected symbols phi^+- on flat coordinates, by Gauss-Jordan: the
    # coordinate map is injective
    chi13 = DirichletChar.from_kronecker(13)
    for M, k, chi in ((11, 0, TRIV), (5, 2, TRIV), (13, 2, chi13),
                      (7, 4, TRIV)):
        basis = solve_symbol_space(M, k, chi)
        J = involution_matrix(basis)
        ranks = []
        for sign, half in ((1, 0), (-1, 1)):
            rows = [[Fraction(x) for x in involution_split(phi)[half].coords()]
                    for phi in basis]
            ranks.append(len(frac_rref_gauss(rows, len(rows[0]))[1]))
            assert len(sign_subspace(J, sign)) == ranks[-1], (M, k, sign)
        assert sum(ranks) == len(basis)
    assert sign_subspace([], 1) == sign_subspace([], -1) == []


# ----------------------------------------------------------- eigensystems

def test_eigensystem_level_eleven_minus():
    systems = eigensymbols(11, 0, TRIV, -1)
    assert len(systems) == 1
    sym, emap = systems[0]
    assert emap == {2: -2, 3: -1, 5: 1, 7: -2}
    # the symbol is an exact fixed point of U_11
    img = hecke_Up(sym, 11)
    assert all((x - y).is_zero()
               for x, y in zip(sympolys_of(img), sympolys_of(sym)))
    # content-one integer normalization
    from math import gcd
    flat = [int(x) for x in sym.coords()]
    g = 0
    for x in flat:
        g = gcd(g, x)
    assert g == 1


def test_eigensystem_level_eleven_plus():
    systems = eigensymbols(11, 0, TRIV, +1)
    maps = [m for _, m in systems]
    assert {2: -2, 3: -1, 5: 1, 7: -2} in maps
    eis = [m for m in maps if m[2] == 3]
    assert len(eis) == 1
    # weight-two boundary system has eigenvalue 1 + l
    assert eis[0] == {l: 1 + l for l in (2, 3, 5, 7)}


def test_eigensystem_level_five_sym2():
    minus = eigensymbols(5, 2, TRIV, -1)
    assert [m for _, m in minus] == [{2: -4, 3: 2, 5: -5, 7: 6}]
    plus = eigensymbols(5, 2, TRIV, +1)
    maps = [m for _, m in plus]
    assert {2: -4, 3: 2, 5: -5, 7: 6} in maps
    # weight-four boundary systems: a_l = 1 + l^3 away from the level,
    # with the two level-five refinements at l = 5
    eis = sorted(m[5] for m in maps if m[2] == 9)
    assert eis == [1, 125]
    for m in maps:
        if m[2] == 9:
            assert m[3] == 28 and m[7] == 344


def test_eigensymbols_empty_when_space_is_zero():
    assert eigensymbols(1, 0, TRIV, -1) == []


def _systems_and_warnings(route, M, k, sign):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        systems = route(M, k, DirichletChar.trivial(M), sign)
    assert all(w.category is RuntimeWarning for w in caught)
    return [(sym.coords(), emap) for sym, emap in systems], len(caught)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("k", (0, 2))
@pytest.mark.parametrize("M", (1, 5, 11, 23, 37))
def test_eigensymbols_match_sympy_oracle(M, k, sign):
    # the integer charpoly route and sympy's eigenvects give the same
    # systems, coordinates and irrational-eigenvalue warnings
    got = _systems_and_warnings(eigensymbols, M, k, sign)
    assert got == _systems_and_warnings(eigensymbols_sympy, M, k, sign)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("k", (10, 22))
def test_eigensymbols_with_large_eigenvalues_match_sympy_oracle(k, sign):
    # at level 1 the Eisenstein symbol has T_l eigenvalue 1 + l^(k+1),
    # 1977326744 at l = 7 and k = 10; weight 22 adds two irrational
    # cusp eigenvalues.  Root finding must not scale with their size.
    start = time.perf_counter()
    got = _systems_and_warnings(eigensymbols, 1, k, sign)
    assert time.perf_counter() - start < 10
    assert got == _systems_and_warnings(eigensymbols_sympy, 1, k, sign)
    if sign == 1:
        assert got[0][-1][1] == {l: 1 + l ** (k + 1) for l in (2, 3, 5, 7)}


def test_eigensymbols_skips_irrational_systems():
    # at level 23 the minus part is the one newform with coefficients in
    # Q(sqrt 5): T_2 has two conjugate irrational eigenvalues
    assert _systems_and_warnings(eigensymbols, 23, 0, -1) == ([], 2)


def test_rational_eigenvalues_of_non_lattice_matrix():
    # chi_R = y^2 - y/2 - 3/2 is not integral; its roots are 3/2 and -1
    R = [[Fraction(1, 2), Fraction(3, 4)], [Fraction(2), Fraction(0)]]
    assert sorted(modsym._rational_eigenvalues(R, 2, 1)) == [-1, Fraction(3, 2)]
    # y (y^2 - 2)^2: one rational root and two distinct irrational ones
    R = [[Fraction(x) for x in row] for row in ([0, 2, 0, 0, 0],
                                                [1, 0, 0, 0, 0],
                                                [0, 1, 0, 2, 0],
                                                [0, 0, 1, 0, 0],
                                                [0, 0, 0, 1, 0])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert modsym._rational_eigenvalues(R, 2, 1) == [0]
    assert len(caught) == 2


def test_rational_eigenvalues_large_and_repeated():
    # chi = (y - big)^2 (y + 3) y: repeated and 10^11-sized roots, no scan
    big = 1 + 7**13
    R = [[Fraction(x) for x in row] for row in ([big, 1, 0, 0],
                                                [0, big, 0, 0],
                                                [0, 0, -3, 0],
                                                [0, 0, 0, 0])]
    assert sorted(modsym._rational_eigenvalues(R, 7, 1)) == [-3, 0, big]
    # y (y - 2): both roots collide mod 2, so the roots are lifted mod 3
    R = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert sorted(modsym._rational_eigenvalues(R, 2, 1)) == [0, 2]
    # the same with a denominator: eigenvalues -big/5 and 1/5
    R = [[Fraction(-big, 5), Fraction(1, 5)], [Fraction(0), Fraction(1, 5)]]
    assert sorted(modsym._rational_eigenvalues(R, 2, 1)) == [
        Fraction(-big, 5), Fraction(1, 5)]
