import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykahan import linalg, poly
from polykahan.maps import _compile
from polykahan.poly import (
    MAX_EXPONENT,
    DenominatorVanished,
    Monomial,
    NotLinear,
    Polynomial,
    RationalFunction,
    Var,
    collect_linear,
    param,
    try_divide,
    x,
)

X = Polynomial.var(x(1))
Y = Polynomial.var(x(2))
X0 = Polynomial.var(x(1, 0))
X1 = Polynomial.var(x(1, 1))


def rand_poly(rng, nvars=4, maxdeg=4, terms=5):
    vars_ = [x(1), x(2), x(1, 1), param("a")][:nvars]
    p = Polynomial()
    for _ in range(rng.randint(1, terms)):
        exps = []
        budget = maxdeg
        for v in vars_:
            e = rng.randint(0, budget)
            budget -= e
            if e:
                exps.append((v, e))
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + Polynomial.monomial(Monomial.from_pairs(exps), coeff)
    return p


def test_additive_inverse():
    assert (X + (-X)).is_zero()


def test_a_sum_that_cancels_keeps_no_emptied_table():
    # every Darboux certificate keeps its zero witness, a difference of two
    # large polynomials; the table the cancellation emptied must not stay
    p = sum((Polynomial.var(x(i)) ** 2 for i in range(1, 40)), Polynomial())
    zero = p - p
    assert zero.is_zero() and sys.getsizeof(zero._terms) == sys.getsizeof({})


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_binomial_square():
    assert (X0 + X1) ** 2 == X0**2 + 2 * X0 * X1 + X1**2


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(100):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_dummy_component_is_eliminated():
    m = Monomial.from_pairs([(x(0), 3), (x(1), 1)])
    assert m == Monomial.from_pairs([(x(1), 1)])


def test_pow_requires_nonnegative():
    with pytest.raises(ValueError):
        X**-1


def test_eval_exact_and_float():
    p = X**2 + 1
    assert p.eval({x(1): 2}) == 5
    assert p.eval({x(1): Fraction(1, 2)}) == Fraction(5, 4)
    assert p.eval({x(1): 2.0}) == pytest.approx(5.0)


def _eval_per_factor(p, point):
    """Polynomial.eval as it was: every bound value converted once per factor."""
    inexact = any(isinstance(val, float) for val in point.values())
    total = 0.0 if inexact else Fraction(0)
    for m, c in p.terms():
        term = float(c) if inexact else c
        for v, e in m.factors:
            term *= (float(point[v]) if inexact else Fraction(point[v])) ** e
        total += term
    return total


def test_eval_matches_the_per_factor_loop_exactly_and_bit_for_bit():
    rng = random.Random(31)
    vars_ = [x(1), x(2), x(1, 1), param("a")]
    for _ in range(200):
        p = rand_poly(rng, maxdeg=6, terms=8)
        exact = {
            v: rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])
            for v in vars_
        }
        assert p.eval(exact) == _eval_per_factor(p, exact)
        assert type(p.eval(exact)) is Fraction
        mixed = dict(exact)
        mixed[vars_[rng.randrange(4)]] = rng.uniform(-3, 3)
        for point in (mixed, {v: rng.uniform(-3, 3) for v in vars_}):
            got, want = p.eval(point), _eval_per_factor(p, point)
            assert type(got) is float and got.hex() == want.hex()


def test_eval_unbound_raises():
    with pytest.raises(KeyError):
        (X * Y).eval({x(1): 1})


def test_rational_eval_denominator_vanished():
    r = RationalFunction(Polynomial.const(1), X)
    with pytest.raises(DenominatorVanished):
        r.eval({x(1): 0})


def test_substitute_identity_is_trivial_quotient():
    p = X**2 + 3 * X * Y
    r = p.substitute({})
    assert r.den == Polynomial.const(1)
    assert r.num == p


def test_substitute_simple():
    h = param("h")
    r = (X**2).substitute({x(1): Polynomial.const(1) + Polynomial.var(h)})
    assert r == RationalFunction((1 + Polynomial.var(h)) ** 2)


def test_substitute_then_eval_commutes():
    # independent oracle: evaluate the substituted values first, then the
    # polynomial, and compare with evaluating the composed rational function
    rng = random.Random(99)
    p = X**2 * Y - 2 * X + Fraction(1, 3)
    f1 = RationalFunction(X + 1, Y + 2)
    f2 = RationalFunction(X * Y, Polynomial.const(1) + X**2)
    composed = p.substitute({x(1): f1, x(2): f2})
    for _ in range(5):
        pt = {x(1): Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
              x(2): Fraction(rng.randint(-9, 9), rng.randint(1, 7))}
        try:
            inner = {x(1): f1.eval(pt), x(2): f2.eval(pt)}
        except DenominatorVanished:
            continue
        assert composed.eval(pt) == p.eval(inner)


def test_rational_substitute_leaves_no_shared_denominator_power():
    # x1/(x1 + 1) at x1 = x2/(x2 + 2): num and den share one (x2 + 2), which
    # composing both over one denominator leaves out, with no trial division.
    f = RationalFunction(X, X + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "try_divide", _no_trial_division)
        r = f.substitute({x(1): RationalFunction(Y, Y + 2)})
    assert str(r) == "(1/2*x2) / (x2 + 1)"


_A, _H = param("a"), param("h")
SUBSTITUTIONS = {
    "swap": {x(1): x(2), x(2): x(1)},
    "chain": {x(1): x(2), x(2): RationalFunction(X * Y - Polynomial.var(_A), 1 + X**2)},
    "bind": {_A: Polynomial.const(Fraction(3, 2)), _H: Polynomial.const(Fraction(1, 10))},
    "negate_h": {_H: Polynomial.var(_H) * -1},
}


@pytest.mark.parametrize("name", sorted(SUBSTITUTIONS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_substitute_agrees_with_evaluation_at_rational_points(name, data):
    # all values at once: a swap or a chain read the original variables
    sigma = SUBSTITUTIONS[name]
    variables = [x(1), x(2), _A, _H]
    monomials = st.lists(st.sampled_from(variables), max_size=3).map(
        lambda vs: Monomial.from_pairs([(v, 1) for v in vs])
    )
    terms = st.lists(st.tuples(monomials, st.fractions(-6, 6, max_denominator=5)), max_size=6)
    p = Polynomial(data.draw(terms))
    point = {v: data.draw(st.fractions(-9, 9, max_denominator=7)) for v in variables}
    image = {v: point[f] if isinstance(f, Var) else f.eval(point) for v, f in sigma.items()}
    assert p.substitute(sigma).eval(point) == p.eval({**point, **image})


def test_rational_equality_cross_multiplied():
    a = RationalFunction(X**2 - Y**2, X - Y)
    b = RationalFunction(X + Y)
    assert a == b
    assert RationalFunction(X, Y) != RationalFunction(Y, X)


def test_try_divide():
    assert try_divide(X**2 - Y**2, X - Y) == X + Y
    assert try_divide(X**2 + 1, X) is None


def test_derivative():
    p = X**3 * Y + 2 * X
    assert p.derivative(x(1)) == 3 * X**2 * Y + 2
    assert p.derivative(x(2)) == X**3


def test_collect_linear_basic():
    a = Polynomial.var(param("a"))
    b = Polynomial.var(param("b"))
    p = a * X1 * Y + b
    coeffs, rem = collect_linear(p, {x(1, 1)})
    assert coeffs == {x(1, 1): a * Y}
    assert rem == b


def test_collect_linear_jointly_quadratic_raises():
    with pytest.raises(NotLinear):
        collect_linear(X0 * X1, {x(1, 0), x(1, 1)})


def test_collect_linear_reconstructs():
    rng = random.Random(4)
    vs = {x(1, 2), x(2, 2)}
    for _ in range(20):
        base = rand_poly(rng, nvars=3, maxdeg=3)
        p = base + Polynomial.var(x(1, 2)) * rand_poly(rng, nvars=2, maxdeg=2)
        p = p + Polynomial.var(x(2, 2)) * rand_poly(rng, nvars=2, maxdeg=2)
        coeffs, rem = collect_linear(p, vs)
        rebuilt = rem
        for v, c in coeffs.items():
            rebuilt = rebuilt + c * Polynomial.var(v)
        assert rebuilt == p


def test_primitive_normalization():
    p = Fraction(-2, 3) * X**2 + Fraction(4, 3) * X
    prim = p.primitive()
    assert prim == X**2 - 2 * X
    assert prim.leading_coefficient() > 0


def test_canonical_printing_sorted():
    p = 1 + X + X**2
    assert str(p) == "x1^2 + x1 + 1"
    assert str(Polynomial()) == "0"
    assert str(-X + 1) == "- x1 + 1" or str(-X + 1) == "-x1 + 1"


def test_nullspace_identity_empty():
    assert linalg.nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_nullspace_rank_one():
    assert linalg.nullspace([[1, 1], [2, 2]]) == [[1, -1]]


def test_nullspace_random_exact():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        basis = linalg.nullspace(M)
        assert basis == linalg._bareiss_nullspace(linalg._integer_rows(M), cols)
        for vec in basis:
            for row in M:
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
            g = 0
            for v in vec:
                g = g if v == 0 else (abs(v) if g == 0 else __import__("math").gcd(g, abs(v)))
            assert g == 1


def test_solve_and_inverse():
    A = [[1, 2], [3, 4]]
    sol = linalg.solve(A, [5, 6])
    assert [a * sol[0] + b * sol[1] for a, b in A] == [5, 6]
    inv = linalg.inverse(A)
    assert inv[0][0] * 1 + inv[0][1] * 3 == 1
    with pytest.raises(linalg.SingularMatrix):
        linalg.solve([[1, 1], [2, 2]], [1, 1])


def test_var_ordering_canonical():
    vs = [param("b"), x(2, 0), x(1, 1), x(1, 0), param("a")]
    ordered = sorted(vs, key=lambda v: v.sort_key())
    assert ordered == [x(1, 0), x(1, 1), x(2, 0), param("a"), param("b")]


# -- the constructor as term accumulator ----------------------------------------

_ACC_VARS = (x(1), x(2), param("a"))


@st.composite
def term_lists(draw):
    """(monomial, coefficient) pairs over 2-3 variables, with zeros, repeats
    and negated copies of earlier pairs so running sums cancel."""
    k = draw(st.integers(2, 3))
    monomial = st.lists(
        st.tuples(st.sampled_from(_ACC_VARS[:k]), st.integers(1, 2)), max_size=3
    ).map(Monomial.from_pairs)
    coeff = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]) | st.fractions(
        -3, 3, max_denominator=4
    )
    pairs = draw(st.lists(st.tuples(monomial, coeff), max_size=12))
    for m, c in draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else ():
        pairs.insert(draw(st.integers(0, len(pairs))), (m, -c))
    return pairs


@given(term_lists())
def test_constructor_accumulates_like_repeated_add(pairs):
    expected = Polynomial()
    for m, c in pairs:
        expected = expected + Polynomial.monomial(m, c)
    p = Polynomial(pairs)
    assert p == expected
    assert list(p.terms()) == list(expected.terms())


@given(term_lists())
def test_leading_coefficient_is_that_of_the_first_sorted_term(pairs):
    p = Polynomial(pairs)
    want = p.sorted_terms()[0][1] if not p.is_zero() else 0
    assert p.leading_coefficient() == want and type(p.leading_coefficient()) is type(want)
    assert Polynomial().leading_coefficient() == 0


def test_cancelled_term_reenters_last():
    a, b = Monomial.from_pairs([(x(1), 1)]), Monomial.from_pairs([(x(2), 1)])
    A, B = Polynomial.monomial(a), Polynomial.monomial(b)
    assert [m for m, _ in (A + B - A + A).terms()] == [b, a]
    assert list(Polynomial([(a, 1), (b, 1), (a, -1), (a, 1)]).terms()) == [(b, 1), (a, 1)]


# -- determinants ---------------------------------------------------------------


def test_det_rational_is_det_poly():
    assert linalg.det_rational is linalg.det_poly


def test_det_rational_3x3_matches_hand_expansion():
    R = RationalFunction
    (a, b, c), (d, e, f), (g, h, i) = M = [
        [R(X, Y + 1), R(1), R(Y)],
        [R(2), R(X * Y, X + 2), R(0)],
        [R(Y, X), R(3), R(X - 1, Y + 1)],
    ]
    det = linalg.det_poly(M)
    assert isinstance(det, RationalFunction)
    assert det == a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_det_zero_first_column_is_zero_of_entry_type():
    zero = Polynomial()
    det = linalg.det_poly([[zero, X], [zero, Y]])
    assert type(det) is Polynomial and det.is_zero()
    R0 = RationalFunction(zero)
    det = linalg.det_poly([[R0, RationalFunction(X, Y)], [R0, RationalFunction(Y)]])
    assert type(det) is RationalFunction and det.is_zero()


# -- canonical monomials ------------------------------------------------------

# x0 is the dummy state variable that is identically 1.
_MONO_VARS = (x(0), x(1, 0), x(1, 1), x(1, -1), x(2, 0), param("a"), param("h"))

monomials = st.lists(
    st.tuples(st.sampled_from(_MONO_VARS), st.integers(0, 3)), max_size=5
).map(Monomial.from_pairs)


def _same_key(m: Monomial, other: Monomial) -> None:
    assert m is other and m == other and hash(m) == hash(other)
    assert {m: "hit"}[other] == "hit"


@given(monomials, monomials)
def test_monomial_product_merges_like_from_pairs(a, b):
    product = a * b
    expected = Monomial.from_pairs(a.factors + b.factors)
    assert product.factors == expected.factors
    _same_key(product, expected)
    _same_key(a * Monomial(), a)
    _same_key(Monomial() * b, b)


@given(monomials, st.sampled_from(_MONO_VARS[1:]))
def test_equal_monomials_share_one_dict_key(m, v):
    _same_key(Monomial.from_pairs(reversed(m.factors)), m)
    left = Monomial(m.factors[: len(m.factors) // 2])
    _same_key(left * Monomial(m.factors[len(m.factors) // 2 :]), m)
    ((d, c),) = Polynomial.monomial(m * Monomial.from_pairs([(v, 1)])).derivative(v).terms()
    assert c == m.exponent(v) + 1
    _same_key(d, m)
    fresh = Polynomial.monomial(m).map_vars(lambda w: Var(w.comp, w.shift, w.name))
    ((mapped, _),) = fresh.terms()  # equal variables, new objects
    _same_key(mapped, m)
    ((shifted, _),) = Polynomial.monomial(m).shift_states(2).shift_states(-2).terms()
    _same_key(shifted, m)
    _same_key((m * Monomial.from_pairs([(v, 2)])).without(v), m.without(v))


def test_var_equality_covers_component_shift_and_name():
    assert Var(1, 0, "a") != Var(0, 0, "a")
    assert Var(0, 1, "a") != Var(0, 0, "a")
    assert len({Var(1, 0, "a"), Var(0, 0, "a"), param("a")}) == 2
    assert x(1, 2) == Var(comp=1, shift=2) and hash(x(1, 2)) == hash(Var(1, 2))


# -- interned monomials ---------------------------------------------------------


def _merged(a, b):
    """Monomial.__mul__'s merge of two sorted factor tuples before monomials
    were interned, kept as the reference for the product."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        (v, e), (w, f) = a[i], b[j]
        if v._key == w._key:
            out.append((v, e + f))
            i, j = i + 1, j + 1
        elif v._key < w._key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


@given(monomials, monomials, term_lists(), term_lists())
def test_product_gives_the_terms_of_the_merge_in_order(a, b, p, q):
    assert (a * b).factors == _merged(a.factors, b.factors)
    p, q = Polynomial(p), Polynomial(q)
    merged = Polynomial(
        (Monomial(_merged(m1.factors, m2.factors)), c1 * c2)
        for m1, c1 in p.terms()
        for m2, c2 in q.terms()
    )
    assert list((p * q).terms()) == list(merged.terms())


def test_every_construction_gives_the_one_live_monomial():
    a, h = x(1), param("h")
    m = Monomial.from_pairs([(a, 2), (h, 1)])
    assert Monomial(((a, 2), (h, 1))) is m
    assert Monomial.from_pairs([(h, 1), (a, 1), (x(0), 2), (a, 1)]) is m
    assert Monomial.from_pairs([(a, 1)]) * Monomial.from_pairs([(a, 1), (h, 1)]) is m
    A, Hp = Polynomial.var(a), Polynomial.var(h)
    ((quotient, _),) = try_divide(A**3 * Hp**2, A * Hp).terms()
    assert quotient is m
    assert poly._common_monomial(A**2 * Hp * (A + 1), A**3 * Hp**2) is m
    ((num, _),) = RationalFunction(A**3 * Hp, A).num.terms()  # strips the shared a
    assert num is m
    assert pickle.loads(pickle.dumps(m)) is m
    assert copy.deepcopy(m) is m and copy.copy(m) is m
    assert pickle.loads(pickle.dumps(h)) is h and copy.deepcopy(h) is h
    assert Var(1, 0) is a and Var(name="h") is h
    with pytest.raises(AttributeError):
        m.factors = ()
    with pytest.raises(AttributeError):
        h.name = "g"


def test_an_exponent_beyond_the_field_raises_and_never_yields_a_wrong_monomial():
    # two fresh variables; w's field starts right above v's
    v, w = param("guarded_v"), param("guarded_w")
    top = Monomial.from_pairs([(v, MAX_EXPONENT)])
    assert top.exponent(v) == MAX_EXPONENT and top.exponent(w) == 0
    half = Monomial.from_pairs([(v, MAX_EXPONENT // 2 + 1)])
    assert Monomial.from_pairs([(v, MAX_EXPONENT // 2)]) * half is top
    makers = [
        lambda: half * half,  # the sum sets v's guard bit
        lambda: top * top,
        lambda: Monomial.from_pairs([(v, MAX_EXPONENT), (v, 1)]),
        lambda: Monomial.from_pairs([(v, MAX_EXPONENT + 1)]),
        lambda: Monomial(((v, MAX_EXPONENT + 1),)),
        lambda: Monomial.from_pairs([(v, 2 * MAX_EXPONENT + 2)]),  # would carry into w's field
        lambda: Monomial(((v, 0),)),
        lambda: Polynomial.var(v) ** (MAX_EXPONENT + 1),
    ]
    for make in makers:
        with pytest.raises(ValueError):
            make()
    assert 2 * half._key not in poly._MONOMIALS


def test_a_sum_of_products_whose_only_over_limit_term_cancels_still_raises():
    # v^A * (v^B + 1) - v^A * v^B = v^A, but v^(A+B) is past the limit on the way
    v, w = param("cancelled_v"), param("cancelled_w")
    A, B = MAX_EXPONENT, 1
    VA, VB = Polynomial.var(v) ** A, Polynomial.var(v) ** B
    with pytest.raises(ValueError, match=f"not in 1..{MAX_EXPONENT}"):
        poly._sum_of_products([(VA, VB + 1), (-VA, VB)])
    assert (A + B) << v._at not in poly._MONOMIALS
    # under the limit the same cancellation leaves v^A
    WA = Polynomial.var(w) ** A
    assert poly._sum_of_products([(WA, Polynomial.var(v) + 1), (-WA, Polynomial.var(v))]) == WA


def test_threads_building_the_same_monomials_get_one_object_each(monkeypatch):
    # Each new object sleeps while it is being made, so the threads are all
    # inside the creation of the same variable or monomial at once.
    init_slots = poly._init_slots

    def slow_init_slots(obj, **values):
        time.sleep(0.001)
        init_slots(obj, **values)

    monkeypatch.setattr(poly, "_init_slots", slow_init_slots)
    barrier = threading.Barrier(4, timeout=30)
    built = [None] * 4

    def build(k):
        barrier.wait()
        vs = [param(f"threaded_{i}") for i in range(3)]
        ones = [Monomial.from_pairs([(v, 1)]) for v in vs]
        built[k] = vs + ones + [a * b for a in ones for b in ones]

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(objs) == 15 for objs in built)
    for objs in built[1:]:
        assert all(a is b for a, b in zip(objs, built[0]))


def test_a_table_entry_goes_with_its_monomial():
    v = param("collected")
    m = Monomial.from_pairs([(v, 3)])
    key, alive = m._key, weakref.ref(m)
    assert poly._MONOMIALS[key]() is m
    del m
    gc.collect()
    assert alive() is None and key not in poly._MONOMIALS
    again = Monomial.from_pairs([(v, 3)])
    assert poly._MONOMIALS[key]() is again and again.exponent(v) == 3
    poly._forget(weakref.KeyedRef(again, None, key))  # a late removal of an older entry
    assert poly._MONOMIALS[key]() is again


# -- exact coefficients -------------------------------------------------------


def assert_exact(p: Polynomial) -> None:
    """Every stored coefficient is an int, or a Fraction that is not integral."""
    for _, c in p.terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_try_divide_keeps_a_non_integral_quotient_exact():
    q = try_divide(2 * X**2 + 3 * X + 1, 2 * X + 2)
    assert q == X + Fraction(1, 2)
    assert q.coefficient(Monomial()) == Fraction(1, 2)
    assert_exact(q)
    assert_exact(RationalFunction(2 * X**2 + 3 * X + 1, 2 * X + 2).as_polynomial())
    # A float quotient would overflow here, or round 1/3.
    big = try_divide(10**400 * X**2 * Y + X * Y, 3 * X * Y)
    assert big == Fraction(10**400, 3) * X + Fraction(1, 3)
    assert_exact(big)


@given(st.integers(0, 10**6))
def test_arithmetic_stores_only_exact_coefficients(seed):
    rng = random.Random(seed)
    f = RationalFunction(rand_poly(rng), rand_poly(rng, nvars=2) ** 2 + 1)
    g = RationalFunction(rand_poly(rng, nvars=2), 2 * Y + 3)
    results = [f + g, f * g, f.substitute({x(1): g, x(2): RationalFunction(X, 3)})]
    if not g.is_zero():
        results.append(f / g)
    for r in results:
        assert_exact(r.num)
        assert_exact(r.den)
    p = rand_poly(rng)
    assert_exact(p.primitive())
    assert_exact(p * Fraction(2, 3) * Fraction(3, 2))
    assert_exact(p / Fraction(1, 3))


def _nonzero_poly(rng, **kw):
    while (p := rand_poly(rng, **kw)).is_zero():
        pass
    return p


def _no_trial_division(p, q):
    raise AssertionError(f"trial division of {p} by {q}")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_rational_arithmetic_is_that_of_the_values_without_trial_division(seed):
    # Sums, products, quotients, powers and compositions follow the definition:
    # no try_divide call, and each result evaluates to the operation on values.
    rng = random.Random(seed)
    d = _nonzero_poly(rng, nvars=3, maxdeg=2)
    f = RationalFunction(rand_poly(rng, nvars=3, maxdeg=3), d)
    e = d if rng.random() < 0.3 else _nonzero_poly(rng, nvars=3, maxdeg=2)  # at times a shared one
    g = RationalFunction(rand_poly(rng, nvars=3, maxdeg=3), e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "try_divide", _no_trial_division)
        results = [(f + g, lambda a, b: a + b), (f - g, lambda a, b: a - b), (f * g, lambda a, b: a * b)]
        results += [(f**k, lambda a, b, k=k: a**k) for k in range(3)]
        if not g.is_zero():
            results.append((f / g, lambda a, b: a / b))
        with pytest.raises(ZeroDivisionError):
            f / 0
        if not f.is_zero():
            results += [(f**k, lambda a, b, k=k: a**k) for k in (-2, -1)] + [(3 / f, lambda a, b: 3 / a)]
        try:
            composed = f.substitute({x(1): g})
        except ZeroDivisionError:  # f's denominator is 0 on x1 = g
            composed = None
    for _ in range(3):
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in (x(1), x(2), x(1, 1))}
        try:
            a, b = f.eval(point), g.eval(point)
        except DenominatorVanished:
            continue
        for r, op in results:
            try:
                expected = op(a, b)
            except ZeroDivisionError:
                continue
            assert r.eval(point) == expected
        try:
            expected = f.eval({**point, x(1): b})
        except DenominatorVanished:
            continue
        assert composed is not None
        assert composed.eval(point) == expected


def test_integral_fraction_coefficient_is_stored_as_int():
    m = Monomial.from_pairs([(x(1), 2)])
    a, b = Polynomial({m: Fraction(2)}), Polynomial({m: 2})
    assert a == b and str(a) == str(b) == "2*x1^2"
    assert [type(c) for _, c in a.terms()] == [int]
    assert [type(c) for _, c in (X * Fraction(1, 2) + X * Fraction(1, 2)).terms()] == [int]


def test_compiled_coefficients_equal_the_exact_ones_as_floats():
    p = Fraction(1, 3) * X**2 - 7 * X * Y + Fraction(22, 7) + 2**70 * Y
    terms = _compile(p, {x(1): 0, x(2): 1}, {})
    assert [coeff for coeff, _ in terms] == [float(Fraction(c)) for _, c in p.terms()]



_PICKLE_DUMP = """
import pickle, sys
from polykahan.poly import Monomial, param, x
sys.stdout.buffer.write(pickle.dumps(Monomial.from_pairs([(param("h"), 2), (x(1), 1)])))
"""
_PICKLE_LOAD = """
import pickle, sys
from polykahan.poly import Monomial, param, x
m = pickle.loads(sys.stdin.buffer.read())
assert {Monomial.from_pairs([(x(1), 1), (param("h"), 2)]): 1}[m] == 1
assert {param("h"): 1}[m.factors[1][0]] == 1
"""


def test_unpickled_monomials_hash_like_fresh_ones_under_another_hash_seed():
    # The hash of a parameter's name depends on PYTHONHASHSEED.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

    def run(code, seed, **kwargs):
        return subprocess.run([sys.executable, "-c", code], check=True,
                              env={**env, "PYTHONHASHSEED": seed}, **kwargs)

    run(_PICKLE_LOAD, "2", input=run(_PICKLE_DUMP, "1", capture_output=True).stdout)
