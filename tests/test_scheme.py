import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polykahan import linalg, maps
from polykahan.poly import Monomial, Polynomial, collect_linear, param, x
from polykahan.scheme import (
    H,
    DegreeTooHigh,
    ImplicitScheme,
    PolyOdeSystem,
    affine_conjugate,
    check_affine_recombination,
    discretize,
    is_self_adjoint,
    reverse_shifts,
    symmetrize,
    symmetrize_monomial,
)

W = lambda k: Polynomial.var(x(1, k))


def mono(*pairs):
    return Monomial.from_pairs(list(pairs))


def symmetrize_by_permutations(m, n):
    """One term per injective assignment of levels, in permutation order;
    the constructor merges the repeats."""
    factors = [v for v, e in m.factors if not v.is_param for _ in range(e)]
    params = [(v, e) for v, e in m.factors if v.is_param]
    d = len(factors)
    weight = Fraction(math.factorial(n + 1 - d), math.factorial(n + 1))
    terms = []
    for levels in itertools.permutations(range(n + 1), d):
        shifted = [(x(v.comp, k), 1) for v, k in zip(factors, levels)]
        terms.append((Monomial.from_pairs(shifted + params), weight))
    return Polynomial(terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetrize_monomial_equals_the_permutation_construction(n):
    a, b = param("a"), param("b")
    parameter_parts = [[], [(a, 1)], [(a, 2), (b, 1)]]
    for d in range(n + 2):
        for split in itertools.product(range(d + 1), repeat=3):
            if sum(split) != d:
                continue
            state = [(x(j + 1), e) for j, e in enumerate(split)]
            for params in parameter_parts:
                m = mono(*state, *params)
                got, want = symmetrize_monomial(m, n), symmetrize_by_permutations(m, n)
                assert list(got.terms()) == list(want.terms())
                assert [type(c) for _, c in got.terms()] == [type(c) for _, c in want.terms()]


def test_kahan_rules_order_one():
    # degree two: the cross average; degree one: the midpoint; constants fixed
    xy = symmetrize_monomial(mono((x(1), 1), (x(2), 1)), 1)
    assert xy == Fraction(1, 2) * (
        Polynomial.var(x(1, 1)) * Polynomial.var(x(2, 0))
        + Polynomial.var(x(1, 0)) * Polynomial.var(x(2, 1))
    )
    lin = symmetrize_monomial(mono((x(1), 1)), 1)
    assert lin == Fraction(1, 2) * (W(0) + W(1))
    assert symmetrize_monomial(Monomial(), 1) == Polynomial.const(1)


def test_order_two_rules():
    assert symmetrize_monomial(mono((x(1), 1)), 2) == Fraction(1, 3) * (W(0) + W(1) + W(2))
    assert symmetrize_monomial(Monomial(), 2) == Polynomial.const(1)
    cube = symmetrize_monomial(mono((x(1), 3)), 2)
    assert cube == W(0) * W(1) * W(2)
    # square: all six ordered pairs of distinct levels, weight 1/6
    square = symmetrize_monomial(mono((x(1), 2)), 2)
    assert square == Fraction(1, 3) * (W(0) * W(1) + W(0) * W(2) + W(1) * W(2))


def test_cube_mixed_components_six_terms():
    p = symmetrize_monomial(mono((x(1), 1), (x(2), 1), (x(3), 1)), 2)
    assert len(list(p.terms())) == 6
    assert all(c == Fraction(1, 6) for _, c in p.terms())


def test_parameters_pass_through():
    a = param("a")
    p = symmetrize_monomial(mono((a, 2), (x(1), 1)), 1)
    assert p == Fraction(1, 2) * Polynomial.monomial(mono((a, 2))) * (W(0) + W(1))


def test_degree_too_high():
    with pytest.raises(DegreeTooHigh):
        symmetrize_monomial(mono((x(1), 3)), 1)


def test_beam_quartic_five_products():
    # all 4-subsets of the five levels, weight 1/5 each
    p = symmetrize_monomial(mono((x(1), 4)), 4)
    terms = list(p.terms())
    assert len(terms) == 5
    assert all(c == Fraction(1, 5) for _, c in terms)


def test_beam_quadratic_ten_pairs():
    p = symmetrize_monomial(mono((x(1), 2)), 4)
    terms = list(p.terms())
    assert len(terms) == 10
    assert all(c == Fraction(1, 10) for _, c in terms)


def lv_system(alpha=None):
    a = Polynomial.var(param("alpha")) if alpha is None else Polynomial.const(alpha)
    X, Y = Polynomial.var(x(1)), Polynomial.var(x(2))
    return PolyOdeSystem(1, 2, (a * X - a * X * Y, Y * X - Y)), a


def test_lotka_volterra_scheme_exact():
    sys, a = lv_system()
    sch = discretize(sys)
    h = Polynomial.var(H)
    X, Y = Polynomial.var(x(1)), Polynomial.var(x(2))
    Xn, Yn = Polynomial.var(x(1, 1)), Polynomial.var(x(2, 1))
    e1 = Xn - X - h * a * Fraction(1, 2) * (X * (1 - Yn) + Xn * (1 - Y))
    e2 = Yn - Y - h * Fraction(1, 2) * (Y * (Xn - 1) + Yn * (X - 1))
    assert sch.equations[0] == e1
    assert sch.equations[1] == e2


def rand_system(rng, n, N, degree):
    rhs = []
    for _ in range(N):
        p = Polynomial()
        for _ in range(rng.randint(1, 4)):
            exps = []
            budget = degree
            for j in range(1, N + 1):
                e = rng.randint(0, budget)
                budget -= e
                if e:
                    exps.append((x(j), e))
            p = p + Polynomial.monomial(
                Monomial.from_pairs(exps), Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            )
        rhs.append(p)
    return PolyOdeSystem(n, N, tuple(rhs))


def test_self_adjointness_orders_one_to_four():
    # reversing the window and negating h multiplies each equation by (-1)^n
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            sys = rand_system(rng, n, rng.randint(1, 3) if n <= 2 else 1, n + 1)
            assert is_self_adjoint(discretize(sys))


@st.composite
def poly_ode_systems(draw):
    """Order 1-3, dimension 1-2, up to three terms per right-hand side of
    state degree <= order + 1, small rational coefficients, and a parameter
    factor on some terms."""
    order, dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    coeff = st.fractions(-3, 3, max_denominator=4)
    term = st.tuples(coeff, st.lists(st.integers(1, dim), max_size=order + 1), st.booleans())
    a = Polynomial.var(param("a"))
    rhs = []
    for _ in range(dim):
        p = Polynomial.zero()
        for c, comps, with_a in draw(st.lists(term, max_size=3)):
            p = p + math.prod((Polynomial.var(x(i)) for i in comps), start=c * (a if with_a else 1))
        rhs.append(p)
    return PolyOdeSystem(order, dim, tuple(rhs))


@given(poly_ode_systems())
def test_self_adjointness_of_generated_systems(sys):
    assert is_self_adjoint(discretize(sys))


@settings(max_examples=50, deadline=None)
@given(poly_ode_systems().filter(lambda sys: sys.order * sys.dim <= 4))
def test_jacobian_determinant_is_the_laplace_expansion_of_the_jacobian(sys):
    # (-1)^(N (dim - N) + N) det B(Phi) / det A, at symbolic h, against the
    # full dim x dim expansion of the quotient rule on every coordinate; on
    # a window of 6 that expansion can run for minutes, and the order-3
    # map of test_maps covers that size
    try:
        m = maps.solve_forward(discretize(sys))
    except maps.ZeroDeterminant:
        assume(False)
    full = [[rf.derivative(v) for v in m.state_vars] for rf in m.forward]
    assert maps.jacobian(m)[1] == linalg.det_poly(full)


def test_plain_reversal_fixes_even_orders():
    rng = random.Random(12)
    for n in (2, 4):
        sys = rand_system(rng, n, 1, n + 1)
        sch = discretize(sys)
        for e in sch.equations:
            assert reverse_shifts(e, n) == e


def test_joint_linearity_random():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        N = rng.randint(1, 3) if n <= 3 else 2
        sys = rand_system(rng, n, N, n + 1)
        sch = discretize(sys)
        for e in sch.equations:
            collect_linear(e, sch.shift_vars(n))
            collect_linear(e, sch.shift_vars(0))


def test_affine_conjugate_hand_example():
    # x = 2y turns x'' = x^3 into y'' = 4 y^3
    X = Polynomial.var(x(1))
    sys = PolyOdeSystem(2, 1, (X**3,))
    conj = affine_conjugate(sys, [[2]], [0])
    assert conj.rhs[0] == 4 * X**3


def test_affine_conjugate_identity():
    sys, _ = lv_system(Fraction(2))
    conj = affine_conjugate(sys, [[1, 0], [0, 1]], [0, 0])
    assert conj.rhs == sys.rhs


def test_affine_covariance_property():
    # discretizing the pulled-back system equals substituting the affine
    # change into the scheme and recombining with the inverse matrix
    rng = random.Random(17)
    from polykahan import linalg

    for _ in range(4):
        N = 2
        sys = rand_system(rng, 2, N, 3)
        while True:
            A = [[Fraction(rng.randint(-3, 3)) for _ in range(N)] for _ in range(N)]
            if A[0][0] * A[1][1] - A[0][1] * A[1][0] != 0:
                break
        b = [Fraction(rng.randint(-2, 2)) for _ in range(N)]
        conj_scheme = discretize(affine_conjugate(sys, A, b))
        base_scheme = discretize(sys)
        inv = linalg.inverse(A)
        sigma = {}
        for k in range(3):
            for j in range(1, N + 1):
                sigma[x(j, k)] = sum(
                    (Polynomial.var(x(m + 1, k)) * A[j - 1][m] for m in range(N)),
                    Polynomial.const(b[j - 1]),
                )
        substituted = [e.subs_poly(sigma) for e in base_scheme.equations]
        for i in range(N):
            recombined = sum(
                (substituted[j] * inv[i][j] for j in range(N)), Polynomial()
            )
            assert recombined == conj_scheme.equations[i]


def test_recombination_identity_cubic():
    X = Polynomial.var(x(1))
    ok, witness = check_affine_recombination(PolyOdeSystem(2, 1, (X**3,)))
    assert ok and witness is None


def test_recombination_identity_constant():
    ok, _ = check_affine_recombination(PolyOdeSystem(2, 1, (Polynomial.const(7),)))
    assert ok


def test_recombination_identity_two_dim():
    X, Y = Polynomial.var(x(1)), Polynomial.var(x(2))
    sys = PolyOdeSystem(2, 2, (X * Y**2, X**2))
    ok, _ = check_affine_recombination(sys)
    assert ok


def test_recentered_window():
    X = Polynomial.var(x(1))
    sch = discretize(PolyOdeSystem(4, 1, (X**4,)))
    rec = sch.recentered(-2)
    shifts = sorted({v.shift for e in rec.equations for v in e.vars() if not v.is_param})
    assert shifts == [-2, -1, 0, 1, 2]


def test_rhs_validation():
    with pytest.raises(ValueError):
        PolyOdeSystem(1, 1, (Polynomial.var(x(1, 1)),))  # shifted variable
    with pytest.raises(DegreeTooHigh):
        PolyOdeSystem(1, 1, (Polynomial.var(x(1)) ** 3,))
