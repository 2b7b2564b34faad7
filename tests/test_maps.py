import functools
import math
import random
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polykahan import cases, linalg, maps
from polykahan.cli import RunConfig, build_case
from polykahan.poly import DenominatorVanished, Polynomial, RationalFunction, param, x
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


def euler_top_system():
    x1, x2, x3 = (Polynomial.var(x(i)) for i in (1, 2, 3))
    return PolyOdeSystem(1, 3, (x2 * x3, -2 * x3 * x1, x1 * x2))


def euler_top_map():
    return maps.solve_forward(discretize(euler_top_system()))


@pytest.mark.parametrize("name", ["lv", "quartic", "weierstrass", "beam-sym", "beam-lag", "euler-top"])
def test_the_lowest_shift_system_inverts_an_exact_step(name):
    # the inverse is _bottom: solved exactly at the image's levels 1..n, it
    # gives back the start's level-0 block
    if name == "weierstrass":
        m = cases.kahan_weierstrass(1, 1).kahan_map  # the oracle maps hold its additive form
    else:
        m = _jacobian_oracle_maps()[name]
    h = Fraction(1, 10)
    rng = random.Random(sum(map(ord, name)))
    A, r = m._bottom
    levels = [x(j, k) for k in range(1, m.n + 1) for j in range(1, m.N + 1)]
    checked = 0
    while checked < 3:
        state = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m.dim)]
        try:
            image = maps.eval_exact(m, state, h)
        except DenominatorVanished:
            continue
        at = dict(zip(levels, image)) | {H: h}
        A_at = [[a.eval(at) for a in row] for row in A]
        assert linalg.solve(A_at, [-p.eval(at) for p in r]) == state[: m.N]
        checked += 1


def test_a_scheme_without_its_lowest_shift_is_not_birational():
    scheme = ImplicitScheme(2, 1, H, (Polynomial.var(x(1, 1)) + Polynomial.var(x(1, 2)),))
    with pytest.raises(maps.ZeroDeterminant):
        maps.solve_forward(scheme)


def test_solve_forward_solves_only_the_forward_block_symbolically(monkeypatch):
    # on the Euler top every 3 x 3 determinant is an outermost call (the
    # minors are 2 x 2 and 1 x 1): Cramer's det and three columns for the
    # highest shifts, and one det for the lowest-shift guard
    sizes = []
    det_poly = linalg.det_poly

    def recorded(M):
        sizes.append(len(M))
        return det_poly(M)

    monkeypatch.setattr(linalg, "det_poly", recorded)
    euler_top_map()
    assert sizes.count(3) == 5


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


def test_residuals_reject_points_of_another_length():
    lv = cases.lotka_volterra(1).map
    for points in ([[1.2, 0.9, 1.0], [1.1]], [[1.2, 0.9, 1.0, 1.1]] * 2, []):
        with pytest.raises(ValueError, match="map's 2 values"):
            maps.orbit_residuals(lv, maps.Orbit(0.1, points))


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
    assert maps.eval_batch([], [a, b, H], states).shape == (0, len(states))
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


def _jacobian_reference(m):
    """jacobian as it was, kept as the oracle: the quotient rule on every
    entry and a full Laplace expansion of the dim x dim determinant."""
    J = [[rf.derivative(v) for v in m.state_vars] for rf in m.forward]
    return J, linalg.det_poly(J)


def _inline_map(order, rhs):
    return maps.solve_forward(discretize(PolyOdeSystem(order, len(rhs), rhs)))


@functools.cache
def _jacobian_oracle_maps():
    x1, x2, x3 = (Polynomial.var(x(j)) for j in (1, 2, 3))
    beam = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    return {
        "lv": cases.lotka_volterra(1).map,
        "quartic": quartic_numeric().map,
        "weierstrass": cases.kahan_weierstrass(1, 1).additive_map,
        "beam-sym": cases.beam_symmetric(beam).map,
        "beam-lag": cases.beam_lagrangian(beam).map,
        "euler-top": _inline_map(1, (x2 * x3, -2 * x3 * x1, x1 * x2)),
        # N = 2 with dim > N: the only maps here whose unit rows sit above a 2 x 2 block
        "order-2": _inline_map(2, (x1 * x2, -(x1**2))),
        "order-3": _inline_map(3, (x1 * x2, x2**2 - x1)),
    }


@pytest.mark.parametrize("bound", [False, True], ids=["h", "h=1/10"])
@pytest.mark.parametrize("name", list(_jacobian_oracle_maps()))
def test_jacobian_gives_the_reference_terms_in_their_order(name, bound):
    m = _jacobian_oracle_maps()[name]
    assert H in {v for rf in m.forward for v in rf.vars()}
    if bound:
        m = m.bind({"h": Fraction(1, 10)})
    J, det = maps.jacobian(m)
    J_ref, det_ref = _jacobian_reference(m)

    def terms(rf):
        return list(rf.num.terms()), list(rf.den.terms())

    assert [[terms(rf) for rf in row] for row in J] == [[terms(rf) for rf in row] for row in J_ref]
    assert terms(det) == terms(det_ref)


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
    # one determinant, of the N x N solved block (N = 1 for the beam)
    assert [len(J) for J in builds] == [1]


def test_fresh_maps_share_the_code_of_their_generated_source():
    # a second compile of the same source would intern and drop its names again
    a, b = (quartic_numeric().map for _ in range(2))
    run_a, run_b = a._stepper(0.1, "forward"), b._stepper(0.1, "forward")
    assert run_a is not run_b and run_a.__code__ is run_b.__code__
    assert run_a.__defaults__ == run_b.__defaults__


def test_linearize_free_particle():
    case = quartic_numeric(0, 0, 0, 0)
    M = maps.linearize_at(case.map, [0.4, 0.4], 0.1)
    assert np.allclose(M, [[0.0, 1.0], [-1.0, 2.0]])


def test_linearize_requires_fixed_point():
    case = quartic_numeric()
    with pytest.raises(maps.NotFixedPoint):
        maps.linearize_at(case.map, [0.5, 0.7], 0.1)


def _linearize_per_entry(m, p, h):
    """linearize_at as it was, kept as the oracle: RationalFunction.eval
    once per Jacobian entry."""
    J, _ = maps.jacobian(m)
    point = {v: float(s) for v, s in zip(m.state_vars, p)}
    point[m.scheme.step] = float(h)
    return np.array([[rf.eval(point) for rf in row] for row in J], dtype=float)


@pytest.mark.parametrize("build", [cases.beam_symmetric, cases.beam_lagrangian])
def test_linearize_at_gives_the_per_entry_bits_at_every_beam_fixed_point(build):
    case = build(cases.BeamParams(a=1, b=-2, c=Fraction(3, 4), h=Fraction(1, 10)))
    ws = cases.beam_fixed_point_analysis(case).fixed_points
    assert len(ws) == 4
    for w in ws:
        got = maps.linearize_at(case.map, [w] * 4, 0.1)
        assert got.tobytes() == _linearize_per_entry(case.map, [w] * 4, 0.1).tobytes()


def test_linearize_at_raises_where_a_jacobian_denominator_vanishes(monkeypatch):
    case = quartic_numeric(0, 0, 0, 0)  # x'' = 0 fixes (0.4, 0.4)
    v0, v1 = map(Polynomial.var, case.map.state_vars)
    # row 1 is the solved row: row 0 is the unit row, which linearize_at does not evaluate
    J = [[RationalFunction(0), RationalFunction(1)], [RationalFunction(1, v0 - Fraction(2, 5)), RationalFunction(v1)]]
    monkeypatch.setattr(maps, "jacobian", lambda m: (J, None))
    for linearize in (maps.linearize_at, _linearize_per_entry):
        with pytest.raises(DenominatorVanished):
            linearize(case.map, [0.4, 0.4], 0.1)


def test_lv_linearization_unit_circle():
    lv = cases.lotka_volterra(1)
    M = maps.linearize_at(lv.map, [1.0, 1.0], 0.1)
    rep = maps.char_poly_and_roots(M)
    for z in rep.roots:
        assert abs(abs(z) - 1.0) <= 1e-9
    assert rep.classification == ["unit", "unit"]


@pytest.mark.parametrize("M", [[[1.0, 2.0, 3.0]], [1.0, 2.0], [[[1.0]]]], ids=["1x3", "vector", "3-D"])
def test_char_poly_rejects_a_matrix_that_is_not_square(M):
    with pytest.raises(ValueError, match="needs a square matrix"):
        maps.char_poly_and_roots(M)
    with pytest.raises(ValueError, match="dimension <= 8"):
        maps.char_poly_and_roots(np.eye(9))


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
    assert max(abs(abs(z) - 1.0) for z in rep.roots) > maps.UNIT_TOL
    assert rep.classification == ["unit", "unit"]
    # distinct roots 0.002 apart stay apart
    rep = maps.char_poly_and_roots(np.diag([1.001, 0.999, 2.0, 0.5]))
    by_root = {round(z.real, 6): c for z, c in zip(rep.roots, rep.classification)}
    assert by_root == {0.5: "inside", 0.999: "inside", 1.001: "outside", 2.0: "outside"}


@pytest.mark.parametrize(
    "M, bad",
    [
        (np.full((2, 2), np.nan), "c1 = nan, c2 = nan"),
        ([[math.inf, 0.0], [0.0, 1.0]], "c1 = -inf, c2 = nan"),
        ([[1e200] * 2] * 2, "c2 = nan"),  # c2 overflows
    ],
    ids=["nan", "inf", "overflow"],
)
def test_char_poly_raises_on_non_finite_coefficients(M, bad):
    # warnings are errors here, so a numpy RuntimeWarning would fail this too
    with pytest.raises(maps.NoConvergence, match=f"^characteristic coefficients are not finite: {bad}$"):
        maps.char_poly_and_roots(M)


def _durand_kerner_reference(coeffs):
    """_durand_kerner as it was, kept as the oracle: p evaluated at every
    root twice per sweep, for the step and again for the residual."""
    d = len(coeffs) - 1
    if d == 0:
        return [], 0.0
    scale = max(1.0, max(abs(c) for c in coeffs))
    radius = 1.0 + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0])
    roots = [
        radius * complex(math.cos(2 * math.pi * k / d + 0.4), math.sin(2 * math.pi * k / d + 0.4))
        for k in range(d)
    ]
    for _ in range(maps._ROOT_MAX_ITER):
        new_roots = []
        moved = 0.0
        for k, z in enumerate(roots):
            denom = complex(coeffs[0])
            for j, w in enumerate(roots):
                if j != k:
                    denom *= z - w
            if denom == 0:
                denom = 1e-300
            dz = maps._polyval(coeffs, z) / denom
            new_roots.append(z - dz)
            moved = max(moved, abs(dz))
        roots = new_roots
        residual = max(abs(maps._polyval(coeffs, z)) for z in roots) / scale
        if residual <= 1e-12 or moved < 1e-16:
            break
    else:
        if residual > 1e-8:
            raise maps.NoConvergence(f"root iteration stalled at residual {residual:.3e}")
    return sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12))), residual


def _root_bits(coeffs):
    """Each root's and the residual's bits from both iterations, or their messages."""
    out = []
    for iterate in (maps._durand_kerner, _durand_kerner_reference):
        try:
            roots, residual = iterate(coeffs)
        except maps.NoConvergence as e:
            out.append(str(e))
        else:
            out.append([(z.real.hex(), z.imag.hex()) for z in roots] + [residual.hex()])
    return out


def test_root_iteration_gives_the_reference_bits_on_the_default_beam_spectra():
    sym = build_case(RunConfig(preset="beam-sym")).beam_sym
    spectra = [
        sp
        for case in (sym, cases.beam_lagrangian(sym.params))
        for sp in cases.beam_fixed_point_analysis(case).spectra.values()
    ]
    assert len(spectra) == 8
    for sp in spectra:
        new, ref = _root_bits(sp.char_coeffs)
        assert new == ref


@pytest.mark.parametrize(
    "sweeps, coeffs",
    [(1, [1.0, -3.0, 2.0]), (14, [1.0, -2.0, 1.0]), (15, [1.0, -2.0, 1.0]), (maps._ROOT_MAX_ITER, [1.0, -2.0, 1.0])],
    ids=["stall", "double-root-14", "double-root-15", "double-root"],
)
def test_root_iteration_gives_the_reference_bits_where_it_stalls_or_meets_a_double_root(monkeypatch, sweeps, coeffs):
    monkeypatch.setattr(maps, "_ROOT_MAX_ITER", sweeps)
    new, ref = _root_bits(coeffs)
    assert new == ref


def test_root_iteration_needs_at_least_one_iteration(monkeypatch):
    monkeypatch.setattr(maps, "_ROOT_MAX_ITER", 1)
    with pytest.raises(maps.NoConvergence):
        maps._durand_kerner([1.0, -3.0, 2.0])


def test_root_iteration_accepts_a_looser_residual_at_the_sweep_cap(monkeypatch):
    # a double root converges slowly: after 15 sweeps the residual is above
    # 1e-12 but within the 1e-8 accepted at the cap, after 14 it is not
    monkeypatch.setattr(maps, "_ROOT_MAX_ITER", 15)
    roots, residual = maps._durand_kerner([1.0, -2.0, 1.0])
    assert residual == 3.593833042480683e-09
    assert [abs(z - 1.0) < 1e-4 for z in roots] == [True, True]
    monkeypatch.setattr(maps, "_ROOT_MAX_ITER", 14)
    with pytest.raises(maps.NoConvergence, match="residual 1.438e-08"):
        maps._durand_kerner([1.0, -2.0, 1.0])


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


def test_convergence_order_seeds_its_windows_from_a_checked_oracle(monkeypatch):
    # the half-step run drifts at the window times only; the state at T is one sample
    case = quartic_numeric(1, 0, 1, 0)
    hs, rk4 = [0.1, 0.05], maps._rk4_samples

    def drifting(field, init, times, max_step):
        samples = rk4(field, init, times, max_step)
        if max_step < min(hs) / 100.0 and len(times) > 1:
            samples = [s + 1e-6 for s in samples]
        return samples

    monkeypatch.setattr(maps, "_rk4_samples", drifting)
    with pytest.raises(maps.NoConvergence, match="self-check gap 1.000e-06"):
        maps.convergence_order(case.system, [0.3, 0.0], 1.0, hs)


@pytest.mark.parametrize("hs", [[0.3], [0.1, 0.07]])
def test_convergence_order_rejects_an_h_that_does_not_divide_t(hs):
    # round(1/0.3) = 3 steps end at 0.9, where the error against the oracle at T means nothing
    case = quartic_numeric(1, 0, 1, 0)
    with pytest.raises(ValueError, match=rf"h = {hs[-1]} does not divide T = 1\.0"):
        maps.convergence_order(case.system, [0.3, 0.0], 1.0, hs)


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


# -- the generated stepper against the _ceval loop it replaced ------------------


def condition(A):
    try:
        return float(np.linalg.cond(np.array(A)))
    except np.linalg.LinAlgError:  # the SVD does not converge on a non-finite A
        return None


def pivoted_solve(A, y, state):
    """A b = y by Gaussian elimination with partial pivoting, as loops in
    the order of the stepper's generated lines: each column swaps in, row by
    row, any later row whose entry has a strictly larger abs, and stops at a
    pivot that is exactly 0; back-substitution subtracts left to right."""
    N = len(A)
    rows = [[*row, yi] for row, yi in zip(A, y)]
    for k in range(N):
        for i in range(k + 1, N):
            if abs(rows[i][k]) > abs(rows[k][k]):
                rows[k], rows[i] = rows[i], rows[k]
        if rows[k][k] == 0.0:
            raise maps.SingularStep(f"singular linear system at state {list(state)}", condition(A))
        for i in range(k + 1, N):
            f = rows[i][k] / rows[k][k]
            for j in range(k + 1, N + 1):
                rows[i][j] = rows[i][j] - f * rows[k][j]
    b = [0.0] * N
    for i in reversed(range(N)):
        t = rows[i][N]
        for j in range(i + 1, N):
            t = t - rows[i][j] * b[j]
        b[i] = t / rows[i][i]
    if not all(map(math.isfinite, b)):
        raise maps.SingularStep(f"non-finite solve at state {list(state)}", condition(A))
    return b


def ceval_step(m, state, h, direction):
    """One step as the stepper took it with one ``_ceval`` call per entry."""
    n, N = m.n, m.N
    if direction == "forward":
        (A, r), slots = m._top, {v: i for i, v in enumerate(m.state_vars)}
    else:
        (A, r), slots = m._bottom, {
            x(j, k + 1): k * N + (j - 1) for k in range(n) for j in range(1, N + 1)
        }
    consts = {m.scheme.step: float(h)}
    A = [[maps._compile(p, slots, consts) for p in row] for row in A]
    r = [maps._compile(p, slots, consts) for p in r]
    try:
        if N == 1:
            den = maps._ceval(A[0][0], state)
            num = -maps._ceval(r[0], state)
            if den == 0.0 or not math.isfinite(num / den if den else math.inf):
                raise maps.SingularStep(f"vanishing denominator at state {list(state)}")
            block = [num / den]
        else:
            Af = [[maps._ceval(c, state) for c in row] for row in A]
            block = pivoted_solve(Af, [-maps._ceval(c, state) for c in r], state)
    except OverflowError:
        raise maps.SingularStep(f"float overflow at state {list(state)}") from None
    if direction == "forward":
        return [float(v) for v in state[N:]] + block
    return block + [float(v) for v in state[:-N]]


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def outcome(f, *args):
    """The floats of a step bit for bit, or its exception with its condition."""
    try:
        return bits(f(*args))
    except (maps.SingularStep, np.linalg.LinAlgError) as err:
        cond = getattr(err, "condition", None)
        return type(err), str(err), None if cond is None else bits([cond])


@functools.cache
def benchmark_map(name):
    beam = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    return {
        "quartic": lambda: quartic_numeric().map,
        "lv": lambda: cases.lotka_volterra(1).map,
        "beam_sym": lambda: cases.beam_symmetric(beam).map,
        "euler_top": euler_top_map,
        "beam_lag": lambda: build_case(RunConfig(preset="beam-lag")).map,
    }[name]()


coordinates = st.one_of(
    st.floats(-3, 3),
    st.floats(1e153, 1e155),
    st.floats(-1e155, -1e153),
    st.floats(1e299, 1e301),
    st.floats(-1e301, -1e299),
)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("name", ["quartic", "lv", "beam_sym", "euler_top", "beam_lag"])
@given(data=st.data())
def test_generated_step_equals_the_ceval_loop_bit_for_bit(name, direction, data):
    m = benchmark_map(name)
    state = data.draw(st.lists(coordinates, min_size=m.dim, max_size=m.dim))
    fn = maps.step if direction == "forward" else maps.step_back
    assert outcome(fn, m, state, 0.1) == outcome(ceval_step, m, state, 0.1, direction)


@given(st.floats())  # nan, infinities, zeros of both signs and subnormals included
def test_power_one_is_the_identity_on_floats(v):
    # The generated code writes x for x ** 1.  numpy's scalar power may
    # rewrite the sign or payload of a NaN, so on ndarray input (as in
    # first_order_field) a NaN can differ from _ceval's in those bits only.
    assert bits([v ** 1]) == bits([v])
    if not math.isnan(v):
        assert bits([np.float64(v) ** 1]) == bits([v])


def test_power_overflow_ends_the_orbit_at_the_same_step():
    m = benchmark_map("beam_lag")
    orbit = maps.iterate(m, [1.1] * 4, 0.1, 100)
    assert orbit.status == "singular-at-step 72"
    points = [[1.1] * 4]
    for _ in range(71):
        points.append(ceval_step(m, points[-1], 0.1, "forward"))
    assert bits(sum(orbit.points, [])) == bits(sum(points, []))
    with pytest.raises(maps.SingularStep, match="float overflow"):
        ceval_step(m, points[-1], 0.1, "forward")


def test_exactly_zero_denominator_is_a_singular_step():
    # x1' x1 = 1: the forward denominator is x1 and the backward one x1'.
    eq = Polynomial.var(x(1, 1)) * Polynomial.var(x(1)) - 1
    m = maps.solve_forward(ImplicitScheme(1, 1, H, (eq,)))
    for fn in (maps.step, maps.step_back):
        with pytest.raises(maps.SingularStep, match="vanishing denominator"):
            fn(m, [0.0], 0.1)
        assert fn(m, [4.0], 0.1) == [0.25]


def test_generated_values_of_edge_term_lists():
    # No terms reads +0.0; inf and nan coefficients are bound, not printed.
    inf, nan = math.inf, math.nan
    compiled = [[], [(inf, ((0, 1),)), (-inf, ())], [(nan, ())], [(2.0, ((1, 3), (0, 1)))]]
    got = maps._straight_line(compiled)([0.5, -2.0])
    want = [maps._ceval(terms, [0.5, -2.0]) for terms in compiled]
    assert bits(got) == bits(want)
    assert bits(got[:1]) == bits([0.0])
    assert maps._straight_line([])([1.0]) == ()
    # Too many terms for one expression: the sum is split, in the same order.
    long = [(1.0 + k / 7, ((0, 2), (1, 1))) for k in range(5000)]
    state = [1.1, -0.7]
    assert bits(maps._straight_line([long])(state)) == bits([maps._ceval(long, state)])


def test_coefficient_folded_to_inf_is_evaluated():
    # 10^300 h x1 at h = 1e10 compiles to the coefficient inf.
    huge = Polynomial.const(10**300) * Polynomial.var(H) * Polynomial.var(x(1))
    m = maps.solve_forward(ImplicitScheme(1, 1, H, (Polynomial.var(x(1, 1)) - huge,)))
    for state in ([1.0], [0.0]):
        with pytest.raises(maps.SingularStep, match="vanishing denominator"):
            maps.step(m, state, 1e10)
        assert outcome(maps.step, m, state, 1e10) == outcome(
            ceval_step, m, state, 1e10, "forward"
        )


def test_unbound_parameter_is_rejected_when_the_evaluator_is_built():
    with pytest.raises(ValueError, match="bound before stepping"):
        quartic_symbolic().map._stepper(0.1, "forward")
    a = Polynomial.var(param("a"))
    with pytest.raises(ValueError, match="unbound variable a"):
        maps.first_order_field(PolyOdeSystem(1, 1, (a * Polynomial.var(x(1)),)))


def ceval_field(sys):
    """first_order_field with one ``_ceval`` call per component."""
    n, N = sys.order, sys.dim
    compiled = [maps._compile(p, {x(j): j - 1 for j in range(1, N + 1)}, {}) for p in sys.rhs]

    def field(y):
        out = np.empty_like(y)
        out[: (n - 1) * N] = y[N:]
        for i, terms in enumerate(compiled):
            out[(n - 1) * N + i] = maps._ceval(terms, y[:N])
        return out

    return field


@pytest.mark.parametrize("name", ["quartic", "lv", "beam_sym", "euler_top"])
def test_first_order_field_equals_the_ceval_loop_on_an_rk4_sample(name):
    beam = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    sys, y0 = {
        "quartic": lambda: (quartic_numeric().system, [0.31, 0.0]),
        "lv": lambda: (cases.lotka_volterra(1).system, [1.2, 0.9]),
        "beam_sym": lambda: (cases.beam_symmetric(beam).system, [1.1, 0.0, 0.0, 0.0]),
        "euler_top": lambda: (euler_top_system(), [1.0, 0.5, 0.3]),
    }[name]()
    y0 = np.array(y0, dtype=float)
    got = maps._rk4_samples(maps.first_order_field(sys), y0, [1.0], 0.05)[0]
    want = maps._rk4_samples(ceval_field(sys), y0, [1.0], 0.05)[0]
    assert got.tobytes() == want.tobytes()


# -- the N >= 2 solve: pivoted elimination in generated lines ------------------

small = st.integers(-2, 2).map(float)  # many such systems are exactly singular
entry_pools = [
    small,
    st.one_of(small, st.floats(1e299, 1e301), st.floats(-1e301, -1e299)),
    st.one_of(small, small, small, st.sampled_from([math.inf, -math.inf, math.nan])),
]


def constant_system(data):
    """N, and A row by row and b drawn from one of the entry pools."""
    N = data.draw(st.sampled_from([2, 3]))
    entries = data.draw(st.sampled_from(entry_pools))
    return (N, *(data.draw(st.lists(entries, min_size=k, max_size=k)) for k in (N * N, N)))


def step_constant_system(N, A, b):
    """One step of an order-1 map whose A and r are constant term lists, so
    the step is the solve of A x = b (r = -b)."""
    constant = [[(c, ())] for c in [*A, *(-c for c in b)]]
    m = benchmark_map("lv" if N == 2 else "euler_top")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(m._cache, ("forward", 0.1), maps._stepping_function(constant, N, N, True))
        return maps.step(m, [0.0] * N, 0.1)


@given(data=st.data())
def test_the_stepper_solve_is_the_pivoted_elimination_bit_for_bit(data):
    N, A, b = constant_system(data)
    # The step evaluates each entry as 0.0 + c, and the right-hand side as -(0.0 + -c).
    Av = [[0.0 + c for c in A[i * N : (i + 1) * N]] for i in range(N)]
    y = [-(0.0 + -c) for c in b]
    want = outcome(pivoted_solve, Av, y, [0.0] * N)
    assert outcome(step_constant_system, N, A, b) == want


@given(data=st.data())
def test_the_stepper_solve_agrees_with_np_linalg_solve_where_a_is_well_conditioned(data):
    N, A, b = constant_system(data)
    Af, bf = np.array(A).reshape(N, N), np.array(b)
    cond = condition(Af)
    if cond is None or not cond < 1e8:
        return
    want = np.linalg.solve(Af, bf)
    if not np.all(np.isfinite(want)):
        return
    got = np.array(step_constant_system(N, A, b))
    assert np.linalg.norm(got - want) <= cond * 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("name,start", [("lv", [1.2, 0.9]), ("euler_top", [1.0, 0.5, 0.3])])
def test_iterate_equals_a_loop_of_the_ceval_step_bit_for_bit(name, start):
    m = benchmark_map(name)
    orbit = maps.iterate(m, start, 0.1, 500)
    assert orbit.status == "complete"
    points = [start]
    for _ in range(500):
        points.append(ceval_step(m, points[-1], 0.1, "forward"))
    assert bits(sum(orbit.points, [])) == bits(sum(points, []))


def test_an_exactly_singular_system_ends_the_orbit():
    # x1' = x1 + 1 and (x1 - 6) x2' = x2: A = diag(1, x1 - 6) is exactly
    # singular at x1 = 6, which the seventh step from x1 = 0 starts from.
    x1, x2, x2_next = (Polynomial.var(v) for v in (x(1), x(2), x(2, 1)))
    eqs = (Polynomial.var(x(1, 1)) - x1 - 1, (x1 - 6) * x2_next - x2)
    m = maps.solve_forward(ImplicitScheme(1, 2, H, eqs))
    numpy_errors = np.geterr(), np.geterrcall()
    orbit = maps.iterate(m, [0.0, 1.0], 0.1, 20)
    assert (np.geterr(), np.geterrcall()) == numpy_errors
    with pytest.raises(maps.SingularStep, match="singular linear system") as err:
        maps.step(m, orbit.points[-1], 0.1)
    assert (np.geterr(), np.geterrcall()) == numpy_errors
    assert orbit.status == "singular-at-step 7" and orbit.singular_step == 7
    assert len(orbit.points) == 7
    assert err.value.condition is not None
    assert maps.iterate(m, [1.2, 0.9], 0.1, 20).status == "complete"
    assert (np.geterr(), np.geterrcall()) == numpy_errors


def test_one_call_reports_the_step_it_fails_at_not_an_earlier_one():
    # The same diag(1, x1 - 6) system, run by one call of the generated
    # function: its condition number must come from the seventh step's A.
    x1, x2, x2_next = (Polynomial.var(v) for v in (x(1), x(2), x(2, 1)))
    eqs = (Polynomial.var(x(1, 1)) - x1 - 1, (x1 - 6) * x2_next - x2)
    m = maps.solve_forward(ImplicitScheme(1, 2, H, eqs))
    points = [[0.0, 1.0]]
    got = outcome(m._stepper(0.1, "forward"), points, 20)
    assert len(points) == 7 and points[-1][0] == 6.0
    want = outcome(ceval_step, m, points[-1], 0.1, "forward")
    assert want[:2] == (maps.SingularStep, f"singular linear system at state {points[-1]}")
    assert got == want


class CountingNumpy:
    """Stands in for ``maps.np``; counts the arrays built through it."""

    BUILDERS = {"array", "asarray", "copy", "empty", "empty_like", "zeros", "ones", "full"}

    def __init__(self):
        self.built = 0

    def __getattr__(self, name):
        real = getattr(np, name)
        if name not in self.BUILDERS:
            return real

        def counted(*args, **kwargs):
            self.built += 1
            return real(*args, **kwargs)

        return counted


@pytest.mark.parametrize("name,start", [("lv", [1.2, 0.9]), ("euler_top", [1.0, 0.5, 0.3])])
def test_an_orbit_builds_as_many_arrays_for_1000_steps_as_for_10(monkeypatch, name, start):
    m = benchmark_map(name)
    built = []
    for steps in (10, 1000):
        counting = CountingNumpy()
        monkeypatch.setattr(maps, "np", counting)
        assert maps.iterate(m, start, 0.1, steps).status == "complete"
        built.append(counting.built)
    assert built == [0, 0]  # a regular step solves on floats, with no array


@pytest.mark.parametrize("fn", [maps.iterate, maps.step, maps.step_back])
@pytest.mark.parametrize("state", [[1.2], [1.2, 0.9, 0.3]])
def test_a_state_of_the_wrong_length_is_a_value_error_naming_both(fn, state):
    m = benchmark_map("lv")
    args = (m, state, 0.1, 5) if fn is maps.iterate else (m, state, 0.1)
    with pytest.raises(ValueError, match=f"state has {len(state)} values, the map's window 2"):
        fn(*args)


def test_a_negative_step_count_is_a_value_error():
    with pytest.raises(ValueError, match="steps must be at least 0, not -1"):
        maps.iterate(benchmark_map("lv"), [1.2, 0.9], 0.1, -1)
    assert len(maps.iterate(benchmark_map("lv"), [1.2, 0.9], 0.1, 0).points) == 1


def test_a_non_finite_system_is_a_singular_step_without_a_condition_number():
    # np.linalg.cond's SVD does not converge on a nan A.
    m = cases.lotka_volterra(1).map
    assert maps.iterate(m, [math.nan, 1.0], 0.1, 5).status == "singular-at-step 1"
    with pytest.raises(maps.SingularStep) as err:
        maps.step(m, [math.nan, 1.0], 0.1)
    assert err.value.condition is None


@pytest.mark.parametrize("name", ["quartic", "lv", "beam_sym", "euler_top", "beam_lag"])
@given(data=st.data())
def test_iterate_equals_a_loop_of_step_bit_for_bit(name, data):
    m = benchmark_map(name)
    state = data.draw(st.lists(coordinates, min_size=m.dim, max_size=m.dim))
    steps = data.draw(st.integers(0, 20))
    orbit = maps.iterate(m, state, 0.1, steps)
    points, status = [state], "complete"
    while len(points) <= steps:
        try:
            points.append(maps.step(m, points[-1], 0.1))
        except maps.SingularStep:
            status = f"singular-at-step {len(points)}"
            break
    assert orbit.status == status
    assert bits(sum(orbit.points, [])) == bits(sum(points, []))


def test_step_at_the_last_point_of_a_singular_orbit_raises_the_same_message():
    m = benchmark_map("beam_lag")
    orbit = maps.iterate(m, [1.1] * 4, 0.1, 100)
    assert orbit.status == "singular-at-step 72"
    with pytest.raises(maps.SingularStep) as err:
        maps.step(m, orbit.points[-1], 0.1)
    assert str(err.value) == f"float overflow at state {orbit.points[-1]}"


exact_coordinates = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10**200), 10**200),
    st.fractions(-3, 3, max_denominator=10**6),
    st.fractions(max_denominator=10**6).map(lambda q: q * 10**300),
)


@pytest.mark.parametrize("name", ["quartic", "lv", "beam_sym", "euler_top", "beam_lag"])
@given(data=st.data())
def test_int_and_fraction_states_are_evaluated_unrounded(name, data):
    # The oracle evaluates at the state's own values, as step always has.
    m = benchmark_map(name)
    state = data.draw(st.lists(exact_coordinates, min_size=m.dim, max_size=m.dim))
    direction = data.draw(st.sampled_from(["forward", "backward"]))
    fn = maps.step if direction == "forward" else maps.step_back
    assert outcome(fn, m, state, 0.1) == outcome(ceval_step, m, state, 0.1, direction)


def test_residuals_compile_each_equation_once_per_map_and_h(monkeypatch):
    m = quartic_numeric().map
    orbit = maps.iterate(m, [0.3, 0.3], 0.1, 20)
    compiled = []
    compile_ = maps._compile
    monkeypatch.setattr(maps, "_compile", lambda *a: compiled.append(1) or compile_(*a))
    first = maps.orbit_residuals(m, orbit)
    assert maps.orbit_residuals(m, orbit) == first and len(compiled) == len(m.scheme.equations)
    maps.orbit_residuals(m, maps.Orbit(0.2, orbit.points))
    assert len(compiled) == 2 * len(m.scheme.equations)


# -- the batch kernel against single-state evaluation ---------------------------

# Batch sizes on both sides of the kernel's column blocks.
BATCH_SIZES = [0, 1, maps._BLOCK - 1, maps._BLOCK, maps._BLOCK + 1]
EVAL_VARS = [x(1), x(2), H]


@st.composite
def shared_factor_polynomials(draw):
    """Terms built from a few (variable, exponent) factors, so that they share
    powers; the zero and constant polynomials among them."""
    factors = st.sampled_from([(v, e) for v in EVAL_VARS for e in (1, 2, 3, 6)])
    p = Polynomial()
    for c, fs in draw(st.lists(st.tuples(st.fractions(-9, 9, max_denominator=40),
                                         st.lists(factors, max_size=3)), max_size=6)):
        p = p + Polynomial.const(c) * functools.reduce(
            lambda q, f: q * Polynomial.var(f[0]) ** f[1], fs, Polynomial.const(1))
    return draw(st.sampled_from([p, Polynomial(), Polynomial.const(Fraction(-7, 3))]))


# Signed zeros, infinities, nan, and magnitudes whose squares and cubes overflow.
edge_values = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e120]),
    st.floats(-3, 3),
)


def nan_as_nan(v):
    return "nan" if math.isnan(v) else bits([v])


def batch_of(data, pool):
    """Indices into ``pool``, as many as one of ``BATCH_SIZES``, drawn reproducibly."""
    rng = data.draw(st.randoms(use_true_random=False))
    return [rng.randrange(len(pool)) for _ in range(data.draw(st.sampled_from(BATCH_SIZES)))]


@given(data=st.data())
def test_eval_batch_equals_polynomial_eval_bit_for_bit(data):
    polys = data.draw(st.lists(shared_factor_polynomials(), min_size=0, max_size=3))
    pool = data.draw(st.lists(st.lists(edge_values, min_size=3, max_size=3), min_size=1, max_size=5))
    picks = batch_of(data, pool)
    got = maps.eval_batch(polys, EVAL_VARS, [pool[k] for k in picks])
    assert got.shape == (len(polys), len(picks)) and got.dtype == np.float64
    for p, values in zip(polys, got):
        assert values.shape == (len(picks),)
        want = {}
        for k, s in enumerate(pool):
            try:
                want[k] = nan_as_nan(p.eval(dict(zip(EVAL_VARS, s))))
            except OverflowError:  # Python's ** raises where C pow gives inf
                want[k] = "overflow"
        for k, v in zip(picks, values.tolist()):
            assert nan_as_nan(v) == want[k] or (want[k] == "overflow" and not math.isfinite(v))


def test_batch_sums_start_from_positive_zero():
    # -0.0 + -0.0 is -0.0, but _ceval's sum starts from 0.0, as Polynomial.eval's does
    X1, X2 = Polynomial.var(x(1)), Polynomial.var(x(2))
    for count in (1, 3):
        (got,) = maps.eval_batch([X1 + 2 * X2], [x(1), x(2)], [[-0.0, -0.0]] * count)
        assert bits(got.tolist()) == bits([0.0] * count)


@pytest.mark.parametrize("name", ["quartic", "lv", "beam_sym", "euler_top"])
@given(data=st.data())
def test_batched_residuals_follow_the_window_formula_across_blocks(name, data):
    # per_window_residual keeps a finite maximum past a nan; a window with a
    # nan or inf entry must give a non-finite residual instead.
    m = benchmark_map(name)
    values = st.one_of(st.floats(-3, 3), st.sampled_from([math.nan, math.inf, -math.inf]))
    pool = data.draw(st.lists(st.lists(values, min_size=m.dim, max_size=m.dim), min_size=1, max_size=4))
    picks = batch_of(data, pool)
    picks.append(picks[0] if picks else 0)  # one point more than windows
    got = maps.orbit_residuals(m, maps.Orbit(0.1, [pool[k] for k in picks]))
    assert len(got) == len(picks) - 1
    for a, b, r in zip(picks, picks[1:], got):
        window = pool[a] + pool[b][-m.N :]
        if all(map(math.isfinite, window)):
            assert bits([r]) == bits([per_window_residual(m, window, 0.1)])
        else:
            assert not math.isfinite(r)


def test_batch_kernel_peak_memory_stays_bounded():
    # Column blocks keep the terms x states matrices small: whole-batch
    # matrices for these calls would take several megabytes on their own.
    m = benchmark_map("beam_sym")
    orbit = maps.iterate(m, [1.1] * 4, 0.1, 20_000)
    assert orbit.status == "complete"
    dense = (1 + sum(Polynomial.var(v) for v in EVAL_VARS)) ** 4  # 35 terms
    rng = random.Random(5)
    states = [[rng.uniform(-1, 1) for _ in EVAL_VARS] for _ in range(20_000)]
    maps.orbit_residuals(m, maps.Orbit(0.1, orbit.points[:2]))  # compiled and cached first
    for call in (lambda: maps.orbit_residuals(m, orbit), lambda: maps.eval_batch([dense], EVAL_VARS, states)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
