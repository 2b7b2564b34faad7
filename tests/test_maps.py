import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polykahan import cases, maps
from polykahan.poly import Polynomial, RationalFunction, param, x
from polykahan.scheme import H, ImplicitScheme, PolyOdeSystem, discretize


def quartic_symbolic():
    return cases.quartic_oscillator()


def quartic_numeric(a=1, b=2, c=3, d=5, h=Fraction(1, 10)):
    return cases.quartic_oscillator(cases.QuarticParams(a, b, c, d, h))


def test_solved_map_equals_closed_form_symbolic():
    case = quartic_symbolic()
    assert case.map.forward[0] == RationalFunction(Polynomial.var(x(1, 1)))
    assert case.map.forward[1] == RationalFunction(case.qrt_num, case.qrt_den)


def test_trivial_system_gives_identity_map():
    sys = PolyOdeSystem(1, 1, (Polynomial.zero(),))
    m = maps.solve_forward(discretize(sys))
    assert m.forward[0] == RationalFunction(Polynomial.var(x(1, 0)))
    assert maps.step(m, [0.7], 0.3) == [0.7]


def test_free_particle_step():
    case = quartic_numeric(0, 0, 0, 0)
    assert maps.step(case.map, [1.0, 1.0], 0.1) == [1.0, 1.0]
    assert maps.step(case.map, [0.0, 1.0], 0.1) == [1.0, 2.0]


def test_step_matches_exact_rational_oracle():
    case = quartic_numeric(1, 0, 0, 0)
    got = maps.step(case.map, [1.0, 1.0], 0.1)
    want = maps.eval_exact(case.map, [Fraction(1), Fraction(1)], Fraction(1, 10))
    assert got[0] == pytest.approx(float(want[0]), rel=1e-15)
    assert got[1] == pytest.approx(float(want[1]), rel=1e-12)


def test_lv_fixed_point_is_preserved():
    lv = cases.lotka_volterra(1)
    assert maps.step(lv.map, [1.0, 1.0], 0.1) == [1.0, 1.0]
    exact = maps.eval_exact(lv.map, [Fraction(1), Fraction(1)], Fraction(1, 10))
    assert exact == [Fraction(1), Fraction(1)]


@pytest.mark.parametrize(
    "mapped",
    ["quartic", "lv", "weierstrass", "beam"],
)
def test_round_trip_forward_backward(mapped):
    rng = random.Random(hash(mapped) % 2**31)
    if mapped == "quartic":
        m = quartic_numeric().map
    elif mapped == "lv":
        m = cases.lotka_volterra(1).map
    elif mapped == "weierstrass":
        m = cases.kahan_weierstrass(1, -1, Fraction(1, 10)).additive_map
    else:
        m = cases.beam_symmetric(cases.BeamParams(1, -2, Fraction(3, 4), Fraction(1, 10))).map
    h = 0.1
    checked = 0
    while checked < 100:
        state = [rng.uniform(-1.5, 1.5) for _ in range(m.dim)]
        try:
            fwd = maps.step(m, state, h)
            back = maps.step_back(m, fwd, h)
        except maps.SingularStep:
            continue
        scale = max(1.0, max(abs(v) for v in state))
        assert max(abs(a - b) for a, b in zip(back, state)) <= 1e-9 * scale
        checked += 1


def test_orbit_scheme_residuals():
    case = quartic_numeric()
    orbit = maps.iterate(case.map, [0.31, 0.30], 0.1, 200)
    assert orbit.status == "complete"
    assert max(maps.orbit_residuals(case.map, orbit)) <= 1e-10


def per_window_residual(m, window, h):
    """The per-window residual formula that orbit_residuals batches."""
    n, N = m.n, m.N
    slots = {x(j, k): k * N + (j - 1) for k in range(n + 1) for j in range(1, N + 1)}
    consts = {m.scheme.step: float(h)}
    worst = 0.0
    for e in m.scheme.equations:
        terms = maps._compile(e, slots, consts)
        total = 0.0
        scale = 0.0
        for coeff, idx in terms:
            t = coeff
            for i, ee in idx:
                t *= window[i] ** ee
            total += t
            scale = max(scale, abs(t))
        worst = max(worst, abs(total) / max(scale, 1.0))
    return worst


def euler_top_map():
    x1, x2, x3 = (Polynomial.var(x(i)) for i in (1, 2, 3))
    return maps.solve_forward(discretize(PolyOdeSystem(1, 3, (x2 * x3, -2 * x3 * x1, x1 * x2))))


@pytest.mark.parametrize("name", ["quartic", "lv", "beam_sym", "euler_top"])
def test_batched_residuals_equal_per_window_formula(name):
    beam = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    m, start = {
        "quartic": lambda: (quartic_numeric().map, [0.31, 0.30]),
        "lv": lambda: (cases.lotka_volterra(1).map, [1.2, 0.9]),
        "beam_sym": lambda: (cases.beam_symmetric(beam).map, [1.1] * 4),
        "euler_top": lambda: (euler_top_map(), [1.0, 0.5, 0.3]),
    }[name]()
    orbit = maps.iterate(m, start, 0.1, 300)
    assert orbit.status == "complete"
    oracle = [
        per_window_residual(m, list(a) + list(b[-m.N:]), 0.1)
        for a, b in zip(orbit.points, orbit.points[1:])
    ]
    got = maps.orbit_residuals(m, orbit)
    assert len(got) == 300 and all(type(r) is float for r in got)
    assert got == oracle


def test_one_point_orbit_has_no_residuals():
    m = quartic_numeric().map
    assert maps.orbit_residuals(m, maps.iterate(m, [0.3, 0.3], 0.1, 0)) == []


def test_non_finite_window_gives_non_finite_residual():
    # per window, Python's max would keep 0.0 past a nan and report a perfect fit
    lv = cases.lotka_volterra(1).map
    overflow = maps.Orbit(0.1, [[1e200, 1e200], [-1e200, 1e200], [1.0, 1.0]])
    res = maps.orbit_residuals(lv, overflow)
    assert not math.isfinite(res[0]) and math.isfinite(res[1])
    nan_window = maps.Orbit(0.1, [[math.nan, 0.3], [0.3, 0.3]])
    assert math.isnan(maps.orbit_residuals(quartic_numeric().map, nan_window)[0])


def test_eval_batch_matches_polynomial_eval_bit_for_bit():
    # numpy's own power differs from C pow in the last bit for some
    # exponents >= 2; the batch must follow Polynomial.eval exactly
    a, b = x(1), x(2)
    p = (
        Polynomial.const(Fraction(1, 3)) * Polynomial.var(a) ** 5 * Polynomial.var(b) ** 2
        - Polynomial.const(7) * Polynomial.var(a) ** 3
        + Polynomial.var(H) ** 2 * Polynomial.var(b) ** 4
        + Polynomial.const(Fraction(2, 7))
        # up to the exponent 8 of the beam-sym Jacobian determinant
        + Polynomial.var(a) ** 8 * Polynomial.var(b) ** 6
        - Fraction(5, 3) * Polynomial.var(b) ** 7 * Polynomial.var(H) ** 8
    )
    rng = random.Random(3)
    states = [[rng.uniform(-3, 3), rng.uniform(-3, 3), 0.1] for _ in range(2000)]
    (got,) = maps.eval_batch([p], [a, b, H], states)
    want = [p.eval({a: s[0], b: s[1], H: s[2]}) for s in states]
    assert got.tolist() == want
    (const,) = maps.eval_batch([Polynomial.const(2)], [a], [[0.5], [1.5]])
    assert const.tolist() == [2.0, 2.0]
    with pytest.raises(ValueError):
        maps.eval_batch([p], [a, b], [[0.5, 0.5]])


def test_eval_batch_on_no_states_gives_one_empty_array_per_polynomial():
    a, b = x(1), x(2)
    polys = [Polynomial.var(a) ** 2 * Polynomial.var(b), Polynomial.const(2), Polynomial()]
    got = maps.eval_batch(polys, [a, b], [])
    assert [(v.shape, v.dtype) for v in got] == [((0,), np.float64)] * 3


def test_lv_orbit_bounded_ten_thousand_steps():
    lv = cases.lotka_volterra(1)
    orbit = maps.iterate(lv.map, [1.2, 0.9], 0.1, 10_000)
    assert orbit.status == "complete"
    assert max(max(abs(v) for v in pt) for pt in orbit.points) < 10.0


def test_orbit_zero_steps():
    case = quartic_numeric()
    orbit = maps.iterate(case.map, [0.3, 0.3], 0.1, 0)
    assert orbit.status == "complete"
    assert len(orbit.points) == 1


def test_singular_orbit_reports_step():
    # x~ = (2x - x_)/(1 + x x_) has a pole surface; drive a state into it
    case = quartic_numeric(1, 0, 0, 0, Fraction(1))
    m = case.map
    # denominator 1 + x0*x1 = 0 at x0 = -1/x1
    orbit = maps.iterate(m, [-1.0, 1.0], 1.0, 5)
    assert orbit.status.startswith("singular-at-step")
    assert orbit.singular_step is not None


def test_jacobian_identity_map():
    sys = PolyOdeSystem(1, 2, (Polynomial.zero(), Polynomial.zero()))
    m = maps.solve_forward(discretize(sys))
    J, det = maps.jacobian(m)
    assert det == RationalFunction(Polynomial.const(1))
    assert J[0][0] == RationalFunction(Polynomial.const(1))
    assert J[0][1].is_zero()


def test_jacobian_det_matches_finite_differences():
    case = quartic_numeric()
    _, det = maps.jacobian(case.map)
    h = 0.1
    rng = random.Random(5)
    for _ in range(5):
        s = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
        eps = 1e-6
        M = np.zeros((2, 2))
        for j in range(2):
            up = list(s)
            dn = list(s)
            up[j] += eps
            dn[j] -= eps
            fu = maps.step(case.map, up, h)
            fd = maps.step(case.map, dn, h)
            for i in range(2):
                M[i, j] = (fu[i] - fd[i]) / (2 * eps)
        point = {v: val for v, val in zip(case.map.state_vars, s)}
        point[H] = h
        assert det.eval(point) == pytest.approx(float(np.linalg.det(M)), rel=1e-6, abs=1e-6)


def test_jacobian_is_built_once_per_map(monkeypatch):
    m = quartic_numeric().map
    assert maps.jacobian(m) is maps.jacobian(m)
    assert maps.jacobian(m.bind({})) is not maps.jacobian(m)  # a new map, a new cache
    builds = []
    det_rational = maps.linalg.det_rational

    def counting(J):
        builds.append(J)
        return det_rational(J)

    monkeypatch.setattr(maps.linalg, "det_rational", counting)
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    rep = cases.beam_fixed_point_analysis(cases.beam_symmetric(p))
    assert len(rep.spectra) == 4
    # one 4x4 determinant; the Laplace expansion recurses on smaller minors
    assert [len(J) for J in builds].count(4) == 1


def test_linearize_free_particle():
    case = quartic_numeric(0, 0, 0, 0)
    M = maps.linearize_at(case.map, [0.4, 0.4], 0.1)
    assert np.allclose(M, [[0.0, 1.0], [-1.0, 2.0]])


def test_linearize_requires_fixed_point():
    case = quartic_numeric()
    with pytest.raises(maps.NotFixedPoint):
        maps.linearize_at(case.map, [0.5, 0.7], 0.1)


def test_lv_linearization_unit_circle():
    lv = cases.lotka_volterra(1)
    M = maps.linearize_at(lv.map, [1.0, 1.0], 0.1)
    rep = maps.char_poly_and_roots(M)
    for z in rep.roots:
        assert abs(abs(z) - 1.0) <= 1e-9
    assert rep.classification == ["unit", "unit"]


def test_char_poly_rotation():
    rep = maps.char_poly_and_roots(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert rep.char_coeffs == pytest.approx([1.0, 0.0, 1.0])
    assert sorted(z.imag for z in rep.roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert rep.palindromic_defect == 0.0
    assert rep.residual <= 1e-12


def test_char_poly_reciprocal_pair():
    rep = maps.char_poly_and_roots(np.diag([2.0, 0.5]))
    assert rep.char_coeffs == pytest.approx([1.0, -2.5, 1.0])
    assert rep.palindromic_defect == 0.0
    assert sorted(abs(z) for z in rep.roots) == pytest.approx([0.5, 2.0])


def test_char_poly_double_root():
    rep = maps.char_poly_and_roots(np.array([[0.0, 1.0], [-1.0, 2.0]]))
    assert rep.residual <= 1e-8
    for z in rep.roots:
        assert abs(z - 1.0) < 1e-5


def test_char_poly_classifies_a_split_multiple_root_by_its_mean():
    rep = maps.char_poly_and_roots(np.array([[0.0, 1.0], [-1.0, 2.0]]))
    assert max(abs(abs(z) - 1.0) for z in rep.roots) > rep.unit_tol
    assert rep.classification == ["unit", "unit"]
    # distinct roots 0.002 apart stay apart
    rep = maps.char_poly_and_roots(np.diag([1.001, 0.999, 2.0, 0.5]))
    by_root = {round(z.real, 6): c for z, c in zip(rep.roots, rep.classification)}
    assert by_root == {0.5: "inside", 0.999: "inside", 1.001: "outside", 2.0: "outside"}


def test_root_iteration_needs_at_least_one_iteration():
    with pytest.raises(ValueError, match="max_iter"):
        maps._durand_kerner([1.0, 0.0, 1.0], max_iter=0)
    with pytest.raises(maps.NoConvergence):
        maps._durand_kerner([1.0, -3.0, 2.0], max_iter=1)


def test_reference_oracle_self_checks():
    case = quartic_numeric(1, 0, 1, 0)
    [sample] = maps.reference_solution(case.system, [0.3, 0.0], [1.0], 1e-3)
    # energy of the continuous flow is conserved along the oracle
    def energy(y):
        return 0.5 * y[1] ** 2 + 0.25 * y[0] ** 4 + 0.5 * y[0] ** 2

    assert energy(sample) == pytest.approx(energy([0.3, 0.0]), rel=1e-10)


def test_convergence_free_particle_exact():
    case = quartic_numeric(0, 0, 0, 0)
    rep = maps.convergence_order(case.system, [0.3, 0.5], 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert max(rep.errors) <= 1e-9


def test_convergence_order_two_for_newton_case():
    case = quartic_numeric(1, 0, 1, 0)
    rep = maps.convergence_order(case.system, [0.3, 0.0], 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert rep.slope == pytest.approx(2.0, abs=0.3)


def test_convergence_beam_at_least_order_one():
    p = cases.BeamParams(1, -2, Fraction(3, 4), Fraction(1, 10))
    case = cases.beam_symmetric(p)
    rep = maps.convergence_order(case.system, [0.1, 0.0, 0.0, 0.0], 1.0, [0.1, 0.05, 0.025])
    assert rep.slope >= 1.0


def test_binding_parameters_is_exact():
    case = quartic_symbolic()
    bound = case.map.bind({"a": 1, "b": 2, "c": 3, "d": 5})
    assert not bound.free_parameters()
    direct = quartic_numeric().map
    assert bound.forward[1] == direct.forward[1]


def test_stepper_requires_bound_parameters():
    case = quartic_symbolic()
    with pytest.raises(ValueError):
        maps.step(case.map, [0.1, 0.1], 0.1)


def test_zero_determinant_detected():
    # x'' equation that cancels the highest shift entirely: 0*x'' impossible
    # via discretize, so build a scheme by hand with a zero top coefficient
    eq = Polynomial.var(x(1, 0)) + Polynomial.var(x(1, 1))
    sch = ImplicitScheme(2, 1, param("h"), (eq,))
    with pytest.raises(maps.ZeroDeterminant):
        maps.solve_forward(sch)


def test_non_finite_two_by_two_solve_reports_its_condition_number():
    # At x1 = 1e300 the system stays regular while the right-hand side
    # is of order 1e300, so the solve overflows to a non-finite value.
    m = cases.lotka_volterra(1).map
    with pytest.raises(maps.SingularStep, match="non-finite solve") as err:
        maps.step(m, [1e300, 1e10], 0.1)
    assert err.value.condition is not None and math.isfinite(err.value.condition)
    assert all(type(v) is float for v in maps.step(m, [1.2, 0.9], 0.1))
