"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from polykahan import cases, darboux, maps
from polykahan.poly import Polynomial, RationalFunction, param, x
from polykahan.scheme import H


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_kahan_reduction_lotka_volterra():
    t0 = time.perf_counter()
    case = cases.lotka_volterra()
    assert case.scheme.equations == case.expected_scheme.equations
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"order-1 scheme equals the hand-written Kahan form exactly ({elapsed:.3f}s)")


def test_criterion_02_quartic_oscillator_closed_form():
    t0 = time.perf_counter()
    case = cases.quartic_oscillator()  # a, b, c, d, h all symbolic
    solved = case.map.forward[1]
    assert solved == RationalFunction(case.qrt_num, case.qrt_den)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"solved update equals the closed form by cross-multiplication ({elapsed:.3f}s)")


def _bound_quartic():
    return cases.quartic_oscillator(cases.QuarticParams(1, 2, 3, 5, Fraction(1, 10)))


def test_criterion_03_darboux_recovery():
    t0 = time.perf_counter()
    case = _bound_quartic()
    certs = darboux.find_darboux(case.bound_map, 4)
    assert len(certs) == 2
    basis = [c.P for c in certs]
    assert darboux.in_span(basis, case.density_poly)
    assert darboux.in_span(basis, case.invariant_poly)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"degree-4 search returns a 2-dimensional space containing both invariants ({elapsed:.2f}s)")


def test_criterion_04_certificate_exactness():
    case = _bound_quartic()
    certs = darboux.find_darboux(case.bound_map, 4)
    det = darboux.jacobian_det_2d(case.bound_map)
    rng = random.Random(101)
    for cert in certs:
        assert cert.witness.is_zero()
        for _ in range(20):
            pt = {x(1, 0): rng.uniform(-1, 1), x(1, 1): rng.uniform(-1, 1)}
            image = maps.step(case.bound_map, [pt[x(1, 0)], pt[x(1, 1)]], 0.1)
            lhs = cert.P.eval({x(1, 0): image[0], x(1, 1): image[1]})
            rhs = det.eval(pt) * cert.P.eval(pt)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
    _report(4, "witnesses identically zero; float cofactor identity within 1e-8 at 20 points")


def test_criterion_05_first_integral_conservation():
    case = _bound_quartic()
    # initial pair (current, previous) = (0.3, 0.31): the window state is
    # (x^(0), x^(1)) = (0.31, 0.30)
    orbit = maps.iterate(case.map, [0.31, 0.30], 0.1, 1000)
    assert orbit.status == "complete"
    vals = [
        case.invariant_poly.eval({x(1, 0): p[0], x(1, 1): p[1]})
        / case.density_poly.eval({x(1, 0): p[0], x(1, 1): p[1]})
        for p in orbit.points
    ]
    drift = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
    assert drift <= 1e-10
    _report(5, f"conserved ratio drift {drift:.3e} <= 1e-10 over 1000 steps")


def test_criterion_06_continuum_limits():
    al, be, ga, de = (Polynomial.var(param(s)) for s in ("alpha", "beta", "gamma", "delta"))
    X0, X1 = Polynomial.var(x(1, 0)), Polynomial.var(x(1, 1))
    density = al * X0 * X1 + be * (X0 + X1) + ga
    eps = al * de + be * (3 - ga)
    zeta = be * de + ga * (3 - ga)
    invariant = (
        (al * ga - be**2) * X0**2 * X1**2
        + eps * X0 * X1 * (X0 + X1)
        + zeta * (X0**2 + X1**2)
        - (3 - ga) ** 2 * X0 * X1
        + (3 - ga) * de * (X0 + X1)
        - de**2
    )
    rep = darboux.continuum_limit_check(density, invariant)
    assert rep.p1_order0_is_one
    assert rep.p1_order1_is_zero
    assert rep.p2_order0_is_zero
    assert rep.p2_order1_is_zero
    assert rep.p2_order2_is_four_h
    _report(6, "all five h-expansion coefficient identities hold exactly")


def test_criterion_07_pencil_non_equivalence():
    wc = cases.kahan_weierstrass()  # symbolic b, d, h
    result = darboux.pencil_compare(wc.pencil, wc.qrt_pencil_alpha0)
    assert result.verdict == "different"
    assert result.witness is not None and not result.witness.is_zero()
    _report(7, f"pencils differ; witness member outside the other span: {result.witness}")


def test_criterion_08_beam_symmetric_discretization():
    p = cases.BeamParams(1, -2, Fraction(3, 4), Fraction(1, 10))
    case = cases.beam_symmetric(p)
    recentred = case.rhs_full.shift_states(-2)
    assert recentred == case.expected_quartic + case.expected_quadratic + Polynomial.const(p.c)
    rep = cases.beam_measure_check(case, n_points=20)
    assert rep.symmetry_holds
    # the density exponent is the scheme order: 1/(1 - h^4 H) for order 4
    assert rep.max_rel_gap <= 1e-9
    _report(8, f"averaged load exact; G == H exact; det vs density ratio gap {rep.max_rel_gap:.3e} <= 1e-9")


def test_criterion_09_lagrangian_equivalence():
    # symbolic weights with the affine constraints substituted
    al = [Polynomial.var(param(f"alpha{i}")) for i in range(5)]
    al.append(1 - sum(al, Polynomial.zero()))
    be = [Polynomial.var(param(f"beta{i}")) for i in range(3)]
    be.append(1 - sum(be, Polynomial.zero()))
    a, b, c = (Polynomial.var(param(s)) for s in "abc")
    L = cases.discrete_lagrangian(a, b, c, al, be)
    h4 = Polynomial.var(H) ** 4
    expected = cases.beam_difference_kernel(0) - h4 * cases.expected_lagrangian_rhs(a, b, c, al, be)
    assert L.euler_lagrange() == expected
    _report(9, "discrete Euler-Lagrange equals the closed variational form exactly")


def test_criterion_10_symplecticity():
    defects = []
    for alpha, beta in (
        (cases.ONSITE_ALPHA, cases.ONSITE_BETA),
        (cases.UNIFORM_ALPHA, cases.UNIFORM_BETA),
    ):
        p = cases.BeamParams(1, -2, Fraction(3, 4), Fraction(1, 10), alpha, beta)
        rep = cases.symplecticity_check(cases.beam_lagrangian(p), n_states=20)
        assert rep.defect <= 1e-8
        defects.append(rep.defect)
    _report(10, f"canonical-form defects {defects[0]:.3e}, {defects[1]:.3e} <= 1e-8")


def test_criterion_11_beam_spectra():
    gammas = []
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    for case in (cases.beam_symmetric(p), cases.beam_lagrangian(p)):
        rep = cases.beam_fixed_point_analysis(case)
        assert rep.primary == pytest.approx(math.sqrt(1.5), rel=1e-12)
        sp = rep.spectra[rep.primary]
        assert sp.palindromic_defect <= 1e-8
        real = [z for z in sp.roots if abs(z.imag) <= 1e-7 and abs(abs(z) - 1) > 1e-7]
        pair = [z for z in sp.roots if abs(z.imag) > 1e-7]
        assert len(real) == 2 and len(pair) == 2
        assert abs(real[0].real * real[1].real - 1.0) <= 1e-8
        for z in pair:
            assert abs(abs(z) - 1.0) <= 1e-7
        gammas.append(rep.continuous_growth)
    assert gammas[0] == pytest.approx(6 ** 0.125, rel=1e-12)
    _report(11, f"both maps palindromic with a reciprocal real pair and a unit pair; continuous rate {gammas[0]!r} = 6^(1/8)")


def test_criterion_12_convergence_order():
    case = cases.quartic_oscillator(cases.QuarticParams(1, 0, 1, 0, Fraction(1, 10)))
    rep = maps.convergence_order(case.system, [0.3, 0.0], 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert rep.slope == pytest.approx(2.0, abs=0.3)
    _report(12, f"measured order {rep.slope:.3f} within 2.0 +/- 0.3 against the one-step oracle")
