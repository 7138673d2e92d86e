"""Quadratic forms: action, reduction, automorphs, equivalence, enumeration."""

import hashlib
import os
import random
import subprocess
import sys
from math import gcd, isqrt

import pytest
import sympy
from oracles import (
    DiscriminantMismatch,
    _cycle,
    bucket_dedupe_scan,
    equivalent_under_gamma0,
    fundamental_automorph_cycle,
    gamma0_generators,
    gamma_Q_power,
    is_reduced,
    mat_neg,
    mat_pow,
    primitive_sl2_classes_cycle,
    reduce_form,
)

import shintani
from shintani import cli, qf
from shintani.arith import MAT_ID, RationalCusp, mat_det, mat_inv, mat_mul
from shintani.cosets import coset_index, coset_section, p1_classes
from shintani.errors import (
    BadSemigroupElement, NonUnimodular, SquareDiscriminant)
from shintani.qf import (
    QuadForm,
    _bucket_dedupe,
    _canonical_key,
    _primitive_sl2_classes,
    _reduced_cycle,
    _rho_step,
    _unit,
    act,
    cycle_divisor,
    enumerate_classes,
    fundamental_automorph,
    gamma_Q,
    in_FM,
    square_endpoints,
)

rng = random.Random(97)


def act_oracle(Q, g):
    """Symbolic substitution oracle for the right action."""
    X, Y = sympy.symbols("X Y")
    gi = mat_inv(g)
    u = gi[0] * X + gi[2] * Y
    v = gi[1] * X + gi[3] * Y
    expr = sympy.expand(Q.a * u * u + Q.b * u * v + Q.c * v * v)
    poly = sympy.Poly(expr, X, Y)
    return QuadForm(
        int(poly.coeff_monomial(X**2)),
        int(poly.coeff_monomial(X * Y)),
        int(poly.coeff_monomial(Y**2)),
    )


def random_sl2(r, size=8):
    g = MAT_ID
    for _ in range(r.randint(1, size)):
        if r.random() < 0.5:
            g = mat_mul(g, (0, -1, 1, 0))
        else:
            g = mat_mul(g, (1, r.randint(-3, 3), 0, 1))
    return g


def random_gamma0(r, M, size=6):
    gens = gamma0_generators(M)
    g = MAT_ID
    for _ in range(r.randint(1, size)):
        h = gens[r.randrange(len(gens))]
        g = mat_mul(g, h if r.random() < 0.5 else mat_inv(h))
    return g


# ---------------------------------------------------------------------------


def test_p1_sizes():
    # |P^1(Z/M)| = M * prod(1 + 1/p)
    for M, size in ((1, 1), (5, 6), (11, 12), (15, 24), (4, 6)):
        assert len(p1_classes(M)) == size
        assert len(coset_section(M)) == size


@pytest.mark.parametrize("M", [1, 4, 12, 36, 143])
def test_p1_table_matches_unit_orbit_minimum(M):
    # the definition: the class of (u, v) is the least of its unit multiples
    units = [t for t in range(M) if gcd(t, M) == 1]
    canon = {(u, v): min(((t * u) % M, (t * v) % M) for t in units)
             for u in range(M) for v in range(M) if gcd(gcd(u, v), M) == 1}
    index = {c: i for i, c in enumerate(sorted(set(canon.values())))}
    assert len(p1_classes(M)) == len(index)
    if M > 1:  # P^1(Z/1) is one point, written (0, 1)
        assert p1_classes(M) == tuple(index)
    for (u, v), c in canon.items():
        assert coset_index((0, 0, u, v), M) == index[c]


def test_schreier_generators_in_gamma0():
    for M in (2, 5, 11, 15):
        for g in gamma0_generators(M):
            assert g[2] % M == 0 and mat_det(g) == 1


def test_discriminant_examples():
    assert QuadForm(1, 0, -1).discriminant() == 4
    assert QuadForm(1, 1, -1).discriminant() == 5
    assert QuadForm(1, 5, 5).discriminant() == 5


def test_in_FM_examples():
    assert in_FM(QuadForm(1, 5, 10), 5)
    assert not in_FM(QuadForm(1, 5, 10), 10)
    assert not in_FM(QuadForm(5, 25, 25), 5)
    assert in_FM(QuadForm(3, 20, 10), 10)


def test_act_examples():
    assert act(QuadForm(1, 0, -1), (1, 1, 0, 1)) == QuadForm(0, 2, -1)
    Q = QuadForm(3, 7, -2)
    assert act(Q, MAT_ID) == Q
    assert act(QuadForm(1, 1, -1), (1, 1, 1, 2)) == QuadForm(1, 1, -1)
    with pytest.raises(NonUnimodular):
        act(Q, (2, 0, 0, 1))
    with pytest.raises(NonUnimodular):
        act(Q, (1, 0, 0, -1))


def test_act_matches_symbolic_oracle():
    for _ in range(60):
        Q = QuadForm(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        g = random_sl2(rng)
        assert act(Q, g) == act_oracle(Q, g)


def test_act_is_right_action():
    for _ in range(200):
        Q = QuadForm(rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10))
        g, h = random_sl2(rng), random_sl2(rng)
        assert act(act(Q, g), h) == act(Q, mat_mul(g, h))
        assert act(Q, g).discriminant() == Q.discriminant()


def test_act_preserves_FM():
    for M in (5, 11, 15):
        Q = QuadForm(1, 0, -M)          # disc 4M, in F_M
        assert in_FM(Q, M)
        for _ in range(30):
            gamma = random_gamma0(rng, M)
            assert in_FM(act(Q, gamma), M)


# ---------------------------------------------------------------------------


def test_reduction_terminates_and_tracks():
    for _ in range(120):
        while True:
            Q = QuadForm(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-30, 30))
            d = Q.discriminant()
            if d > 0 and isqrt(d) ** 2 != d:
                break
        # the triple walk reduces to the first reduced form that the
        # matrix-tracking walk of the oracle reaches
        members, _ = _reduced_cycle(*Q.triple())
        R, t = reduce_form(Q)
        assert members[0] == R.triple()
        assert act(Q, t) == R and mat_det(t) == 1
        assert all(is_reduced(QuadForm(*F)) for F in members)


def test_cycle_closes_and_automorph():
    for Q in (QuadForm(1, 1, -1), QuadForm(1, 0, -2), QuadForm(3, 11, -1)):
        members, row = _reduced_cycle(*Q.triple())
        # all cycle members are reduced and distinct
        assert len(set(members)) == len(members)
        assert all(is_reduced(QuadForm(*F)) for F in members)
        # the steps' matrices multiply to h, which fixes the start triple
        d = Q.discriminant()
        h = MAT_ID
        for F, G in zip(members, members[1:] + members[:1]):
            a, b, c, m = _rho_step(*F, d, isqrt(d))
            assert (a, b, c) == G
            h = mat_mul(h, (-m, -1, 1, 0))
        R0 = QuadForm(*members[0])
        assert act(R0, h) == R0 and h[:2] == row
        # the same cycle and product as the oracle's matrix-tracking walk
        oracle_members, oracle_h = _cycle(R0)
        assert [F.triple() for F, _ in oracle_members] == members
        assert oracle_h == h


def test_fundamental_automorph_trace_is_pell_minimal():
    for d in range(5, 61):
        if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
            continue
        # the least u > 0 with 4 + d u^2 a square gives the least t > 2
        u = 1
        while isqrt(4 + d * u * u) ** 2 != 4 + d * u * u:
            u += 1
        t = isqrt(4 + d * u * u)
        assert _unit(d) == (t, u)
        for P in _primitive_sl2_classes(d):
            A = fundamental_automorph(P)
            assert act(P, A) == P
            assert A[0] + A[3] == t


def test_fundamental_automorph_examples():
    A = fundamental_automorph(QuadForm(1, 1, -1))
    assert A[0] + A[3] == 3 and act(QuadForm(1, 1, -1), A) == QuadForm(1, 1, -1)
    B = fundamental_automorph(QuadForm(1, 0, -2))
    assert B[0] + B[3] == 6 and act(QuadForm(1, 0, -2), B) == QuadForm(1, 0, -2)
    with pytest.raises(SquareDiscriminant):
        fundamental_automorph(QuadForm(1, 3, 2))


def test_fundamental_automorph_imprimitive():
    Q = QuadForm(2, 2, -2)
    A = fundamental_automorph(Q)
    assert act(Q, A) == Q and A[0] + A[3] == 3


def test_gamma_Q_level_one_is_fundamental():
    Q = QuadForm(1, 1, -1)
    g = gamma_Q(Q, 1)
    A = fundamental_automorph(Q)
    assert g in (A, mat_inv(A))
    assert act(Q, g) == Q


def test_gamma_Q_least_power():
    Q = QuadForm(1, 5, 5)
    A = fundamental_automorph_cycle(Q)
    g = gamma_Q(Q, 5)
    assert g[2] % 5 == 0 and act(Q, g) == Q
    # find the least j with A^j in Gamma0(5); gamma_Q must be A^{+-j}
    j = 1
    C = A
    while C[2] % 5 != 0:
        C = mat_mul(C, A)
        j += 1
        assert j < 1000
    assert g in (mat_pow(A, j), mat_pow(A, -j))
    # the two candidates are distinguished by the normalization; exactly one wins
    from shintani.qf import _is_normalized

    assert _is_normalized(Q, g)
    assert not _is_normalized(Q, mat_inv(g))


def test_gamma_Q_refuses_automorph_outside_gamma0():
    # (1, 1, -1) is not in F_5, and its fundamental automorph (1, 1; 1, 2)
    # or its inverse is not in Gamma0(5); gamma_Q searches no power of it
    assert not in_FM(QuadForm(1, 1, -1), 5)
    with pytest.raises(BadSemigroupElement):
        gamma_Q(QuadForm(1, 1, -1), 5)
    assert gamma_Q_power(QuadForm(1, 1, -1), 5)[2] % 5 == 0


AUTOMORPH_LEVELS = (1, 5, 11, 15, 37, 55)


def test_automorphs_match_cycle_product_oracle():
    # every class a command can reach: the closed form is the automorph
    # conjugated from the cycle product (not only up to inversion), and
    # gamma_Q is the least power in Gamma0(M) that the oracle searches for
    seen = 0
    for M in AUTOMORPH_LEVELS:
        for n in range(1, 151):
            for Q in enumerate_classes(M, M * n):
                if isqrt(M * n) ** 2 == M * n:
                    continue
                A = fundamental_automorph(Q)
                assert A == fundamental_automorph_cycle(Q), (M, Q)
                assert gamma_Q(Q, M) == gamma_Q_power(Q, M), (M, Q)
                seen += 1
    assert seen == 2426
    # and on forms far from reduced, imprimitive ones included
    r = random.Random(5)
    for _ in range(300):
        P = QuadForm(r.randint(1, 9), r.randint(0, 30), -r.randint(1, 9))
        Q = act(P, random_sl2(r))
        if isqrt(Q.discriminant()) ** 2 != Q.discriminant():
            A = fundamental_automorph(Q)
            assert A == fundamental_automorph_cycle(Q), Q


def test_mat_pow_and_mat_neg():
    g = (2, 1, 1, 1)
    assert mat_pow(g, 3) == mat_mul(g, mat_mul(g, g))
    assert mat_pow(g, -2) == mat_inv(mat_mul(g, g))
    assert mat_pow(g, 0) == MAT_ID
    assert mat_neg(g) == (-2, -1, -1, -1)


def test_gamma_Q_deeper_level():
    Q = QuadForm(1, 11, -11)      # disc 165, in F_11
    assert in_FM(Q, 11)
    g = gamma_Q(Q, 11)
    assert g[2] % 11 == 0 and act(Q, g) == Q and g != MAT_ID


# ---------------------------------------------------------------------------


def test_square_endpoints_examples():
    w1, w2 = square_endpoints(QuadForm(1, 3, 2))
    assert (w1, w2) == (RationalCusp(1), RationalCusp(1, 2))
    w1, w2 = square_endpoints(QuadForm(1, 2, 0))
    assert w1 == RationalCusp.infinity() and w2 == RationalCusp(1, 2)
    w1, w2 = square_endpoints(QuadForm(1, -2, 0))
    assert w1 == RationalCusp(-1, 2) and w2 == RationalCusp.infinity()


def test_cycle_divisor_square():
    # square discriminant: the divisor of the rational endpoints
    Q = QuadForm(1, 3, 2)
    D = cycle_divisor(Q, 1, RationalCusp(0))
    assert D == ((RationalCusp(1), 1), (RationalCusp(1, 2), -1))
    assert D == tuple(zip(square_endpoints(Q), (1, -1)))


def test_cycle_divisor_automorph():
    # nonsquare discriminant: {gamma_Q omega} - {omega} from the base omega
    Q = QuadForm(1, 1, -1)
    omega = RationalCusp(0)
    D = cycle_divisor(Q, 1, omega)
    g = gamma_Q(Q, 1)
    assert act(Q, g) == Q
    assert D == ((omega.apply(g), 1), (omega, -1))
    assert sum(n for _, n in D) == 0


# ---------------------------------------------------------------------------


def bfs_orbit(Q, M, cap, max_size=20000):
    """All forms with |coefficients| <= cap reachable under Gamma0(M)."""
    gens = []
    for g in gamma0_generators(M):
        gens.append(g)
        gens.append(mat_inv(g))
    seen = {Q}
    frontier = [Q]
    while frontier:
        nxt = []
        for F in frontier:
            for g in gens:
                G = act(F, g)
                if G not in seen and max(abs(G.a), abs(G.b), abs(G.c)) <= cap:
                    seen.add(G)
                    nxt.append(G)
        frontier = nxt
        assert len(seen) < max_size
    return seen


def test_equivalent_under_gamma0_random_words():
    Q0 = QuadForm(1, 0, -5)     # disc 20, in F_5
    for _ in range(25):
        gamma = random_gamma0(rng, 5)
        Q1 = act(Q0, gamma)
        g = equivalent_under_gamma0(Q0, Q1, 5)
        assert g is not None
        assert g[2] % 5 == 0 and act(Q0, g) == Q1


def test_equivalent_under_gamma0_bfs_oracle():
    Q1, Q2 = QuadForm(1, 1, -1), QuadForm(-1, 1, 1)
    g = equivalent_under_gamma0(Q1, Q2, 1)
    orbit = bfs_orbit(Q1, 1, cap=8)
    assert (Q2 in orbit) == (g is not None)
    assert g is not None and act(Q1, g) == Q2
    with pytest.raises(DiscriminantMismatch):
        equivalent_under_gamma0(QuadForm(1, 1, -1), QuadForm(1, 0, -1), 1)


def test_equivalent_under_gamma0_negative_certified_by_bfs():
    # SL2-equivalent pair that Gamma0(5) cannot connect
    Q1, Q2 = QuadForm(1, 0, -10), QuadForm(-10, 0, 1)
    assert equivalent_under_gamma0(Q1, Q2, 1) is not None
    assert equivalent_under_gamma0(Q1, Q2, 5) is None
    orbit = bfs_orbit(Q1, 5, cap=60)
    assert Q2 not in orbit
    # distinct SL2 classes inside F_5 at disc 40: None at every level
    R1, R2 = QuadForm(3, -20, 30), QuadForm(1, -10, 15)
    assert in_FM(R1, 5) and in_FM(R2, 5)
    assert equivalent_under_gamma0(R1, R2, 5) is None
    assert equivalent_under_gamma0(R1, R2, 1) is None
    assert R2 not in bfs_orbit(R1, 5, cap=45)


def test_square_disc_equivalence():
    Q1 = QuadForm(0, 3, 1)
    Q2 = act(Q1, (2, 1, 1, 1))
    g = equivalent_under_gamma0(Q1, Q2, 1)
    assert g is not None and act(Q1, g) == Q2
    # distinct canonicals are inequivalent
    assert equivalent_under_gamma0(QuadForm(0, 3, 1), QuadForm(0, 3, 2), 1) is None


def test_primitive_sl2_class_counts():
    # proper class numbers of small positive discriminants
    for d, h in ((5, 1), (8, 1), (12, 2), (13, 1), (17, 1), (20, 1), (21, 2)):
        assert len(_primitive_sl2_classes(d)) == h, d
    # square discriminants: phi(e) canonical classes
    assert len(_primitive_sl2_classes(1)) == 1
    assert len(_primitive_sl2_classes(4)) == 1
    assert len(_primitive_sl2_classes(9)) == 2
    # no forms when d is 2 or 3 mod 4
    assert _primitive_sl2_classes(7) == []


def box_forms(M, delta, cap):
    """All forms of F_M with the given discriminant and |a|,|b| <= cap."""
    out = []
    for a in range(-cap, cap + 1):
        if a == 0 or gcd(a, M) != 1:
            continue
        for b in range(-cap, cap + 1):
            num = b * b - delta
            if num % (4 * a):
                continue
            Q = QuadForm(a, b, num // (4 * a))
            if in_FM(Q, M):
                out.append(Q)
    return out


def test_enumerate_classes_level_one():
    assert [Q.triple() for Q in enumerate_classes(1, 5)] == [(-1, 1, 1)]
    assert len(enumerate_classes(1, 8)) == 1
    # disc 20: one primitive class plus the doubled disc-5 class
    reps = enumerate_classes(1, 20)
    assert len(reps) == 2
    assert sorted(Q.content() for Q in reps) == [1, 2]


def test_enumerate_classes_respects_congruence():
    assert enumerate_classes(5, 21) == ()
    assert enumerate_classes(11, 5) == ()


def test_enumerate_classes_level_five():
    # level 15 is composite; there the automorph of a disc-60 class moves
    # the identity coset through an orbit of 15 cosets
    for M, delta in ((5, 20), (15, 60)):
        reps = enumerate_classes(M, delta)
        assert len(reps) >= 2
        for Q in reps:
            assert in_FM(Q, M) and Q.discriminant() == delta
            # enumeration keeps one form per coset: automorphs of forms
            # in F_M lie in Gamma0(M)
            assert fundamental_automorph(Q)[2] % M == 0
        for i, Qi in enumerate(reps):
            for Qj in reps[:i]:
                assert equivalent_under_gamma0(Qi, Qj, M) is None
        # completeness against a coefficient box
        for Q in box_forms(M, delta, 30):
            assert any(equivalent_under_gamma0(Q, R, M) is not None
                       for R in reps)


def test_enumerate_classes_deterministic():
    a = enumerate_classes(11, 44)
    b = enumerate_classes.__wrapped__(11, 44)   # past the memo
    assert a == b
    assert all(in_FM(Q, 11) and Q.discriminant() == 44 for Q in a)


def test_enumerate_classes_is_memoized():
    enumerate_classes.cache_clear()
    first = enumerate_classes(11, 44)
    assert enumerate_classes(11, 44) is first
    info = enumerate_classes.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 8192)


def test_enumerate_includes_imprimitive():
    # disc 45 = 9 * 5 at level 1: primitive disc-45 classes and 3*(disc 5)
    reps = enumerate_classes(1, 45)
    contents = sorted(Q.content() for Q in reps)
    assert 3 in contents and 1 in contents


# ---------------------------------------------------------------------------
# class enumeration by congruence, against the coset scan and cycle oracles


def buckets(M, delta):
    """The (P, m) buckets that enumerate_classes(M, delta) walks."""
    m = 1
    while m * m <= delta:
        if delta % (m * m) == 0 and gcd(m, M) == 1:
            for P in _primitive_sl2_classes(delta // (m * m)):
                yield P, m
        m += 1


def realizable(M, delta):
    return delta % M == 0 if M % 2 else delta % (4 * M) == 0


# levels with repeated prime factors, and the benchmark's composite levels
BUCKET_LEVELS = [4, 8, 9, 12, 16, 25, 27, 36, 45, 143, 221, 225, 256]


@pytest.mark.parametrize("M", BUCKET_LEVELS)
def test_bucket_dedupe_matches_coset_scan(M, monkeypatch):
    acts = []

    def counted(Q, g):
        acts.append(g)
        return act(Q, g)

    seen = 0
    for k in range(1, 61):
        delta = M * k
        if delta % 4 not in (0, 1) or not realizable(M, delta):
            continue
        for P, m in buckets(M, delta):
            acts.clear()
            with monkeypatch.context() as mp:
                mp.setattr(qf, "act", counted)
                got = _bucket_dedupe(P, m, M)
            # the congruences leave one coset per odd prime power and at
            # most two at the prime 2
            assert len(acts) <= (1 if M % 2 else 2)
            want = bucket_dedupe_scan(P, m, M)
            assert sorted(Q.triple() for Q in got) == sorted(
                Q.triple() for Q in want), (M, delta, P, m)
            seen += len(got)
    assert seen > 0


def test_primitive_sl2_classes_match_cycle_oracle():
    for d in range(-4, 3001):
        assert _primitive_sl2_classes(d) == primitive_sl2_classes_cycle(d), d


@pytest.mark.parametrize("M", [1, 9, 12, 25, 221])
def test_bucket_sort_key_is_canonical_key(M):
    # enumerate_classes sorts by (m * P, Q) with P the bucket's class
    # representative; that must be m times _canonical_key of the form
    for k in range(1, 61):
        delta = M * k
        if delta % 4 not in (0, 1) or not realizable(M, delta):
            continue
        for P, m in buckets(M, delta):
            for Q in _bucket_dedupe(P, m, M):
                assert Q.content() == m
                assert P.triple() == _canonical_key(Q.primitive_part())
        old_key = sorted(
            enumerate_classes(M, delta),
            key=lambda Q: (tuple(Q.content() * x for x in
                                 _canonical_key(Q.primitive_part())),
                           Q.triple()))
        assert list(enumerate_classes(M, delta)) == old_key


def test_prime_power_level_class_table_is_pinned(capsys):
    # level 225 = 3^2 * 5^2: the congruence has several roots per prime
    assert cli.main(["qf", "classes", "--level", "225", "--disc", "900"]) == 0
    out = capsys.readouterr().out
    assert "count: 16" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "31bb5a87428016e794adf5b449f7ecf13e99827e1dfe60aecb688f519d404f29")


# Run under python -O, which strips asserts: each bad input must still raise
# the package's own exception.
CHECKS_WITHOUT_ASSERTS = """
from shintani import qf
from shintani.arith import MAT_ID
from shintani.errors import (
    BadIndex, BadSemigroupElement, NoConvergence, SquareDiscriminant)

def raises(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return True
    return False

Q = qf.QuadForm
out = [
    raises(SquareDiscriminant, qf._reduced_cycle, 2, 4, 0),     # d = 16
    raises(SquareDiscriminant, qf._reduced_cycle, 1, 1, 1),     # d = -3
    raises(SquareDiscriminant, qf._reduced_cycle, 0, 0, 0),     # d = 0
    raises(SquareDiscriminant, qf.fundamental_automorph, Q(1, 3, 2)),
    raises(BadIndex, qf._rho_step, 1, 3, 0, 9, 3),
    raises(BadIndex, qf.square_endpoints, Q(1, 0, -2)),   # d = 8
    raises(BadIndex, qf._is_normalized, Q(1, 3, 0), MAT_ID),   # c = 0
    raises(BadSemigroupElement, qf.gamma_Q, Q(1, 1, -1), 5),   # not in F_5
]
real = qf._rho_step
qf._rho_step = lambda a, b, c, d, s: (a, b, c, 0)   # a step that never moves
out.append(raises(NoConvergence, qf._reduced_cycle, 1, 0, -2))
# a cycle that never closes
qf._rho_step = lambda a, b, c, d, s: (a + 1, b, c, 0)
out.append(raises(NoConvergence, qf._reduced_cycle, 1, 1, -1))
qf._rho_step = real
real = qf._reduced_cycle
qf._reduced_cycle = lambda a, b, c: ([(1, 1, -1)], (1, 0))   # t = 2
out.append(raises(NoConvergence, qf._unit, 8))
qf._reduced_cycle = lambda a, b, c: ([(1, 1, -1)], (2, 1))   # t^2 - 13 != 4
out.append(raises(NoConvergence, qf._unit, 13))
qf._reduced_cycle = real
print(out)
"""


def test_checks_raise_without_asserts():
    assert _reduced_cycle(1, 0, -2)[0][0] != (1, 0, -2)   # not reduced
    with pytest.raises(SquareDiscriminant):
        _reduced_cycle(2, 4, 0)
    src = os.path.dirname(os.path.dirname(os.path.abspath(shintani.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS_WITHOUT_ASSERTS],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == str([True] * 12)
