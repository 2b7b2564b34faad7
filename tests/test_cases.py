import dataclasses
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykahan import cases, darboux, maps
from polykahan.poly import DenominatorVanished, Polynomial, RationalFunction, param, x
from polykahan.scheme import H, PolyOdeSystem


def beam_params(**kw):
    defaults = dict(a=1, b=-2, c=Fraction(3, 4), h=Fraction(1, 10))
    defaults.update(kw)
    return cases.BeamParams(**defaults)


def normal_form_case(which="symmetric", epsilon=1):
    """A built beam case for the normal-form load, epsilon = +-1, delta = 1/4."""
    p = cases.BeamParams.normal_form(epsilon, Fraction(1, 4), Fraction(1, 10))
    return cases.beam_symmetric(p) if which == "symmetric" else cases.beam_lagrangian(p)


# -- Lotka-Volterra -----------------------------------------------------------


def test_lv_scheme_matches_displayed_form():
    case = cases.lotka_volterra()
    assert case.scheme.equations == case.expected_scheme.equations


def test_lv_symbolic_parameter_passthrough():
    case = cases.lotka_volterra()
    names = {v.name for e in case.scheme.equations for v in e.vars() if v.is_param}
    assert names == {"alpha", "h"}


def test_lv_rejects_zero_alpha():
    with pytest.raises(ValueError):
        cases.lotka_volterra(0)


# -- quartic oscillator --------------------------------------------------------


def test_quartic_params_derived_values():
    qp = cases.QuarticParams(1, 2, 3, 5, Fraction(1, 10))
    assert qp.alpha == Fraction(1, 100)
    assert qp.beta == Fraction(1, 150)
    assert qp.gamma == Fraction(101, 100)
    assert qp.delta == Fraction(1, 20)


def test_quartic_solved_map_closed_form_numeric():
    qp = cases.QuarticParams(1, 2, 3, 5, Fraction(1, 10))
    case = cases.quartic_oscillator(qp)
    assert case.bound_map.forward[1] == RationalFunction(case.qrt_num, case.qrt_den)


_symbolic_quartic_map = functools.cache(lambda: cases.quartic_oscillator().map)
_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=30)
@given(_SMALL, _SMALL, _SMALL, _SMALL, st.fractions(Fraction(1, 20), Fraction(1, 2), max_denominator=20))
def test_qrt_coefficients_agree_on_the_symbolic_and_numeric_paths(a, b, c, d, h):
    # h <= 1/2 keeps gamma = 1 + c h^2/3 >= 2/3, so the update is defined
    symbolic = _symbolic_quartic_map().bind({"a": a, "b": b, "c": c, "d": d, "h": h})
    numeric = cases.quartic_oscillator(cases.QuarticParams(a, b, c, d, h)).bound_map
    closed = RationalFunction(*cases._qrt_closed_form(*darboux._qrt_coefficients(a, b, c, d, h)))
    assert symbolic.forward[1] == numeric.forward[1] == closed


def test_duffing_map_is_odd_symmetric():
    # b = d = 0 leaves an odd force; conjugation by x -> -x fixes the map
    case = cases.quartic_oscillator()
    m = case.map.bind({"b": 0, "d": 0})
    flip = {
        x(1, 0): -Polynomial.var(x(1, 0)),
        x(1, 1): -Polynomial.var(x(1, 1)),
    }
    for rf in m.forward:
        assert rf.substitute(flip) == -rf


# -- Weierstrass-type case ------------------------------------------------------


def test_weierstrass_elimination_symbolic():
    case = cases.kahan_weierstrass()
    assert cases.weierstrass_elimination_matches(case)


@pytest.mark.parametrize("b,d,h", [(1, 1, Fraction(1, 10)), (3, -2, Fraction(1, 4))])
def test_weierstrass_elimination_numeric_step(b, d, h):
    assert cases.weierstrass_elimination_matches(cases.kahan_weierstrass(b, d, h))


@pytest.mark.parametrize("args", [(), (1, 1, Fraction(1, 10))], ids=["symbolic", "numeric"])
def test_weierstrass_elimination_rejects_a_perturbed_rhs(args):
    case = cases.kahan_weierstrass(*args)
    case = dataclasses.replace(case, additive_rhs=case.additive_rhs + Polynomial.var(x(1)))
    assert not cases.weierstrass_elimination_matches(case)


def test_weierstrass_additive_map_form():
    case = cases.kahan_weierstrass()
    # forward: (x, y) -> (y, g(y) - x)
    g_shifted = RationalFunction(
        case.additive_rhs.num.shift_states(1), case.additive_rhs.den.shift_states(1)
    )
    expected = g_shifted - RationalFunction(Polynomial.var(x(1, 0)))
    assert case.additive_map.forward[1] == expected


def test_weierstrass_pencil_members_invariant_symbolic():
    case = cases.kahan_weierstrass()
    for member in (case.pencil.P1, case.pencil.P2):
        cert = darboux.verify_darboux(member, case.additive_map)
        assert cert.valid


def test_weierstrass_darboux_recovers_pencil_numeric():
    case = cases.kahan_weierstrass(3, 1, Fraction(1, 2))
    certs = darboux.find_darboux(case.additive_map, 4)
    assert len(certs) == 2
    basis = [c.P for c in certs]
    assert darboux.in_span(basis, case.pencil.P1)
    assert darboux.in_span(basis, case.pencil.P2)


def test_weierstrass_vs_qrt_pencils_differ():
    case = cases.kahan_weierstrass()
    assert darboux.pencil_compare(case.pencil, case.qrt_pencil_alpha0).verdict == "different"


# -- beam, shift-averaged --------------------------------------------------------


def test_beam_params_constraints():
    with pytest.raises(cases.AffineConstraintViolated):
        cases.BeamParams(1, 1, 1, Fraction(1, 10), alpha=(1, 1, 0, 0, 0, 0))
    with pytest.raises(cases.AffineConstraintViolated):
        cases.BeamParams(1, 1, 1, Fraction(1, 10), beta=(Fraction(9, 10), 0, 0, 0))
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    assert (p.a, p.b, p.c) == (1, -2, Fraction(3, 4))


def test_beam_symmetrized_load_matches_closed_form():
    p = beam_params()
    case = cases.beam_symmetric(p)
    recentred = case.rhs_full.shift_states(-2)
    assert recentred == case.expected_quartic + case.expected_quadratic + Polynomial.const(p.c)


def test_beam_quartic_and_quadratic_term_counts():
    p = beam_params()
    case = cases.beam_symmetric(p)
    assert len(list(case.expected_quartic.terms())) == 5
    assert len(list(case.expected_quadratic.terms())) == 10


def test_beam_load_symmetry_and_density_ratio():
    case = cases.beam_symmetric(beam_params())
    rep = cases.beam_measure_check(case)
    assert rep.symmetry_holds
    assert rep.max_rel_gap <= 1e-9


def test_beam_linear_case_has_unit_determinant():
    case = cases.beam_symmetric(beam_params(a=0, b=0))
    _, det = maps.jacobian(case.map)
    assert det == RationalFunction(Polynomial.const(1))


def test_beam_determinant_symbolic_quotient():
    # det equals (1 - h^4 G at the image window) / (1 - h^4 H at the state)
    case = cases.beam_symmetric(beam_params())
    _, det = maps.jacobian(case.map)
    F = case.rhs_full
    G = F.derivative(x(1, 0))
    Hi = F.derivative(x(1, 4))
    h4 = Polynomial.var(H) ** 4
    g_img = G.substitute({x(1, 4): case.map.forward[-1]})
    expected = (1 - h4 * g_img) / RationalFunction(1 - h4 * Hi)
    assert det == expected


# -- beam, variational -----------------------------------------------------------


def test_lagrangian_onsite_weights_collapse():
    a, b, c = (Polynomial.var(param(s)) for s in "abc")
    w0 = Polynomial.var(x(1, 0))
    rhs = cases.expected_lagrangian_rhs(a, b, c, cases.ONSITE_ALPHA, cases.ONSITE_BETA)
    assert rhs == a * w0**4 + b * w0**2 + c


def test_euler_lagrange_matches_closed_form_symbolic_weights():
    al = [Polynomial.var(param(f"alpha{i}")) for i in range(6)]
    be = [Polynomial.var(param(f"beta{i}")) for i in range(4)]
    a, b, c = (Polynomial.var(param(s)) for s in "abc")
    L = cases.discrete_lagrangian(a, b, c, al, be)
    h4 = Polynomial.var(H) ** 4
    expected = cases.beam_difference_kernel(0) - h4 * cases.expected_lagrangian_rhs(a, b, c, al, be)
    assert L.euler_lagrange() == expected


def test_euler_lagrange_under_affine_constraint():
    # substitute the constraint alpha5 = 1 - sum(others), beta3 = 1 - sum
    al = [Polynomial.var(param(f"alpha{i}")) for i in range(5)]
    al.append(1 - sum(al, Polynomial.zero()))
    be = [Polynomial.var(param(f"beta{i}")) for i in range(3)]
    be.append(1 - sum(be, Polynomial.zero()))
    a, b, c = (Polynomial.var(param(s)) for s in "abc")
    L = cases.discrete_lagrangian(a, b, c, al, be)
    h4 = Polynomial.var(H) ** 4
    expected = cases.beam_difference_kernel(0) - h4 * cases.expected_lagrangian_rhs(a, b, c, al, be)
    assert L.euler_lagrange() == expected


def test_beam_maps_coincide_for_constant_load():
    p = beam_params(a=0, b=0)
    sym = cases.beam_symmetric(p)
    lag = cases.beam_lagrangian(p)
    assert lag.euler_lagrange.shift_states(2) == sym.scheme.equations[0]
    assert sym.map.forward == lag.map.forward


def test_lagrangian_map_solves_euler_lagrange():
    p = beam_params()
    lag = cases.beam_lagrangian(p)
    orbit = maps.iterate(lag.map, [0.1, 0.1, 0.1, 0.1], 0.1, 20)
    assert orbit.status == "complete"
    assert max(maps.orbit_residuals(lag.map, orbit)) <= 1e-10


# -- Ostrogradsky transform --------------------------------------------------------


def test_ostrogradsky_linear_case_is_linear():
    p = beam_params(a=0, b=0, c=0)
    L = cases.discrete_lagrangian(p.a, p.b, p.c, p.alpha, p.beta)
    for j in (1, 2):
        assert L.partial(j).degree() == 1  # pure difference kernel is quadratic


def test_ostrogradsky_round_trip_exact():
    p = beam_params()
    L = cases.discrete_lagrangian(p.a, p.b, p.c, p.alpha, p.beta)
    window = [Fraction(1, 3), Fraction(-1, 7), Fraction(2, 5), Fraction(1, 2)]
    state = cases.ostrogradsky_transform(L, window, p.h)
    assert all(type(v) is Fraction for v in state.as_list())
    back = cases.ostrogradsky_inverse(L, state, p.h)
    assert back == window and all(type(v) is Fraction for v in back)


@given(
    st.lists(st.fractions(-2, 2, max_denominator=12), min_size=4, max_size=4),
    st.fractions(Fraction(1, 100), Fraction(1, 2), max_denominator=100),
    st.tuples(*[st.fractions(-2, 2, max_denominator=4)] * 3),
    st.sampled_from([
        (cases.ONSITE_ALPHA, cases.ONSITE_BETA),
        (cases.UNIFORM_ALPHA, cases.UNIFORM_BETA),
    ]),
)
def test_ostrogradsky_round_trip_exact_property(window, h, load, weights):
    L = cases.discrete_lagrangian(*load, *weights)
    state = cases.ostrogradsky_transform(L, window, h)
    assert all(type(v) is Fraction for v in (state.p1, state.p2))
    assert cases.ostrogradsky_inverse(L, state, h) == window


def test_momenta_are_built_once_per_lagrangian():
    L = cases.discrete_lagrangian(1, -2, Fraction(3, 4), cases.UNIFORM_ALPHA, cases.UNIFORM_BETA)
    p1, p2 = L.momenta()
    assert L.momenta()[0] is p1 and L.momenta()[1] is p2
    fresh = (L.partial(1).shift_states(1) + L.partial(2), L.partial(2).shift_states(1))
    for built, expected in zip((p1, p2), fresh):
        assert list(built.terms()) == list(expected.terms())


def test_ostrogradsky_round_trip_float():
    p = beam_params()
    L = cases.discrete_lagrangian(p.a, p.b, p.c, p.alpha, p.beta)
    window = [0.3, -0.7, 1.1, 0.45]
    state = cases.ostrogradsky_transform(L, window, 0.1)
    back = cases.ostrogradsky_inverse(L, state, 0.1)
    assert all(isinstance(v, float) for v in back)
    assert back == pytest.approx(window, rel=0, abs=1e-12)


def test_ostrogradsky_float_window_with_an_exact_h_gives_floats():
    p = beam_params()
    L = cases.discrete_lagrangian(p.a, p.b, p.c, p.alpha, p.beta)
    window = [0.3, -0.7, 1.1, 0.45]
    state = cases.ostrogradsky_transform(L, window, Fraction(1, 10))
    assert all(isinstance(v, float) for v in (state.p1, state.p2))
    back = cases.ostrogradsky_inverse(L, state, Fraction(1, 10))
    assert all(isinstance(v, float) for v in back)
    assert back == pytest.approx(window, rel=0, abs=1e-12)


def test_ostrogradsky_fixed_window_maps_to_fixed_state():
    rep = cases.beam_fixed_point_analysis(normal_form_case("lagrangian"))
    w = rep.primary
    p = rep.params
    L = cases.discrete_lagrangian(p.a, p.b, p.c, p.alpha, p.beta)
    state = cases.ostrogradsky_transform(L, [w] * 4, p.h)
    lag = cases.beam_lagrangian(p)
    image_window = maps.step(lag.map, [w] * 4, float(p.h))
    image_state = cases.ostrogradsky_transform(L, image_window, p.h)
    assert np.allclose(state.as_list(), image_state.as_list(), rtol=0, atol=1e-9)


# -- symplecticity ------------------------------------------------------------------


def test_symplectic_defect_linear_beam():
    lag = cases.beam_lagrangian(beam_params(a=0, b=0))
    rep = cases.symplecticity_check(lag)
    assert rep.defect <= 1e-12


@pytest.mark.parametrize("alpha,beta", [
    (cases.ONSITE_ALPHA, cases.ONSITE_BETA),
    (cases.UNIFORM_ALPHA, cases.UNIFORM_BETA),
])
def test_symplectic_defect_nonlinear_beam(alpha, beta):
    lag = cases.beam_lagrangian(beam_params(alpha=alpha, beta=beta))
    rep = cases.symplecticity_check(lag)
    assert rep.defect <= 1e-8


def test_symmetric_map_symplectic_defect_recorded():
    # contrast experiment: conjugate the non-variational map the same way;
    # no bound asserted, the defect is only recorded
    p = beam_params()
    sym = cases.beam_symmetric(p)
    lag = cases.beam_lagrangian(p)
    contrast = cases.BeamLagrangianCase(
        params=p,
        lagrangian=lag.lagrangian,
        euler_lagrange=lag.euler_lagrange,
        scheme=lag.scheme,
        map=sym.map,
        expected_rhs=lag.expected_rhs,
    )
    rep = cases.symplecticity_check(contrast)
    assert rep.defect >= 0.0


# The per-sample loops that beam_measure_check and symplecticity_check ran
# before they evaluated through maps.eval_batch, kept as oracles: the batched
# checks must draw the same states, skip the same ones, and give the same bits.


def _measure_gap_loop(case, n_points, seed):
    F = case.rhs_full
    G = F.derivative(x(1, 0))
    Hi = F.derivative(x(1, 4))
    _, det = maps.jacobian(case.map)
    h = float(case.params.h)
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    while done < n_points:
        state = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        point = {x(1, k): state[k] for k in range(4)}
        point[H] = h
        try:
            w4 = case.map.forward[-1].eval(point)
            det_val = det.eval(point)
        except (ZeroDivisionError, DenominatorVanished):
            continue
        g_val = G.eval({x(1, k): (state[k] if k < 4 else w4) for k in range(1, 5)})
        h_val = Hi.eval({x(1, k): state[k] for k in range(4)})
        ratio = (1 - h**4 * g_val) / (1 - h**4 * h_val)
        worst = max(worst, abs(det_val - ratio) / max(abs(det_val), 1e-30))
        done += 1
    return worst


OMEGA = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def _symplectic_loop(case, n_states, seed):
    L = case.lagrangian
    h = float(case.params.h)
    scale = h**4
    p2_poly = L.partial(2).shift_states(1)
    p1_poly = L.partial(1).shift_states(1) + L.partial(2)
    c_polys = [Polynomial.var(x(1, 2)), Polynomial.var(x(1, 3)), p1_poly, p2_poly]
    c_scale = [1.0, 1.0, scale, scale]
    state_vars = case.map.state_vars
    dC = [[poly.derivative(v) for v in state_vars] for poly in c_polys]
    Jm, _ = maps.jacobian(case.map)
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    resampled = 0
    while done < n_states:
        s = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        try:
            image = maps.step(case.map, s, h)
        except maps.SingularStep:
            resampled += 1
            continue
        pt = {v: val for v, val in zip(state_vars, s)}
        pt[H] = h
        pt_im = {v: val for v, val in zip(state_vars, image)}
        pt_im[H] = h
        try:
            dphi = np.array([[rf.eval(pt) for rf in row] for row in Jm])
            C_here = np.array(
                [[p.eval(pt) / c_scale[i] for p in row] for i, row in enumerate(dC)]
            )
            C_image = np.array(
                [[p.eval(pt_im) / c_scale[i] for p in row] for i, row in enumerate(dC)]
            )
            M = C_image @ dphi @ np.linalg.inv(C_here)
        except (ZeroDivisionError, DenominatorVanished, np.linalg.LinAlgError):
            resampled += 1
            continue
        worst = max(worst, float(np.max(np.abs(M.T @ OMEGA @ M - OMEGA))))
        done += 1
    return worst, resampled


@pytest.mark.parametrize("seed", [1, 7, 11, 99])
@pytest.mark.parametrize("load", [(1, -2, Fraction(3, 4)), (2, -3, 1)])
def test_measure_check_matches_per_sample_loop(seed, load):
    case = cases.beam_symmetric(beam_params(a=load[0], b=load[1], c=load[2]))
    rep = cases.beam_measure_check(case, seed=seed)
    assert rep.max_rel_gap == _measure_gap_loop(case, 20, seed)
    assert rep.samples == 20


def _contrast_case():
    # the shift-averaged map conjugated as if it were variational
    p = beam_params()
    lag = cases.beam_lagrangian(p)
    return cases.BeamLagrangianCase(
        params=p,
        lagrangian=lag.lagrangian,
        euler_lagrange=lag.euler_lagrange,
        scheme=lag.scheme,
        map=cases.beam_symmetric(p).map,
        expected_rhs=lag.expected_rhs,
    )


@pytest.mark.parametrize("seed", [1, 7, 11, 99])
@pytest.mark.parametrize("make", [
    lambda: cases.beam_lagrangian(beam_params()),
    lambda: cases.beam_lagrangian(beam_params(alpha=cases.UNIFORM_ALPHA, beta=cases.UNIFORM_BETA)),
    _contrast_case,
], ids=["onsite", "uniform", "contrast"])
def test_symplecticity_check_matches_per_sample_loop(seed, make):
    case = make()
    rep = cases.symplecticity_check(case, seed=seed)
    assert (rep.defect, rep.resampled) == _symplectic_loop(case, 20, seed)
    assert rep.samples == 20


@pytest.mark.parametrize("seed", [1, 7, 11, 99])
def test_symplecticity_check_resamples_like_the_loop(seed, monkeypatch):
    # reject every state whose first slot is above 0.3, as a singular step
    step = maps.step

    def rejecting(m, s, h):
        if s[0] > 0.3:
            raise maps.SingularStep("rejected by the test")
        return step(m, s, h)

    monkeypatch.setattr(maps, "step", rejecting)
    case = cases.beam_lagrangian(beam_params())
    rep = cases.symplecticity_check(case, seed=seed)
    defect, resampled = _symplectic_loop(case, 20, seed)
    assert resampled > 0
    assert (rep.defect, rep.resampled) == (defect, resampled)


def test_symplecticity_check_evaluates_dC_once_per_batch(monkeypatch):
    # reject some states so that the check draws a second batch
    step, eval_batch, jacobian_values = maps.step, maps.eval_batch, maps._jacobian_values
    calls, jacobian = [], []

    def rejecting(m, s, h):
        if s[0] > 0.3:
            raise maps.SingularStep("rejected by the test")
        return step(m, s, h)

    def counting(polys, variables, states):
        calls.append((len(polys), len(states)))
        return eval_batch(polys, variables, states)

    def counting_jacobian(m, states):  # DPhi, once per batch
        jacobian.append(len(states))
        return jacobian_values(m, states)

    monkeypatch.setattr(maps, "step", rejecting)
    monkeypatch.setattr(maps, "eval_batch", counting)
    monkeypatch.setattr(maps, "_jacobian_values", counting_jacobian)
    cases.symplecticity_check(cases.beam_lagrangian(beam_params()), seed=7)
    assert len(jacobian) >= 2
    # the only eval_batch calls are dC's: 16 entries at each state and its image
    assert calls == [(16, 2 * n) for n in jacobian]


def test_eval_rational_batch_masks_vanishing_denominators():
    a = x(1)
    rf = RationalFunction(Polynomial.const(1), Polynomial.var(a) - 1)
    (vals,), ok = maps._eval_rational_batch([(rf.num, rf.den)], [a], [[3.0], [1.0], [0.5]])
    assert ok.tolist() == [True, False, True]
    assert [vals[0], vals[2]] == [rf.eval({a: 3.0}), rf.eval({a: 0.5})]
    with pytest.raises(DenominatorVanished):
        rf.eval({a: 1.0})


def _mask_the_first_state_once(monkeypatch, name, first):
    """Wrap ``maps.<name>`` so that its first call masks its first state and
    doubles that state's values ``values[first]``, which would show in a
    check that used them; return the mask of each call."""
    real, masks = getattr(maps, name), []

    def masking(*args):
        values, ok = real(*args)
        if not masks:
            values[first] *= 2
            ok[0] = False
        masks.append(ok.tolist())
        return values, ok

    monkeypatch.setattr(maps, name, masking)
    return masks


def test_beam_measure_check_skips_a_masked_state_and_draws_another(monkeypatch):
    case = cases.beam_symmetric(beam_params())
    masks = _mask_the_first_state_once(monkeypatch, "_eval_rational_batch", (slice(None), 0))
    rep = cases.beam_measure_check(case, n_points=20, seed=7)
    assert masks == [[False] + [True] * 19, [True]]  # 20 good samples over two batches
    assert rep.samples == 20
    assert rep.max_rel_gap < 1e-9  # the doubled determinant would give a gap near 1/2


def test_symplecticity_check_resamples_a_masked_state(monkeypatch):
    case = cases.beam_lagrangian(beam_params())
    unmasked = cases.symplecticity_check(case, seed=11)
    masks = _mask_the_first_state_once(monkeypatch, "_jacobian_values", 0)
    rep = cases.symplecticity_check(case, seed=11)
    assert masks == [[False] + [True] * 19, [True]]  # 20 good samples over two batches
    assert (rep.samples, rep.resampled) == (20, unmasked.resampled + 1)
    assert rep.defect < 1e-6  # the doubled Jacobian would give a defect near 3


# -- fixed points and spectra ----------------------------------------------------------


def test_fixed_point_values_and_growth_rate():
    rep = cases.beam_fixed_point_analysis(normal_form_case("symmetric"))
    assert rep.primary == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert rep.continuous_growth == pytest.approx(6 ** 0.125, rel=1e-12)
    assert sorted(rep.fixed_points) == pytest.approx(
        sorted([math.sqrt(1.5), -math.sqrt(1.5), math.sqrt(0.5), -math.sqrt(0.5)])
    )


def test_fixed_point_residual_exact_for_rational_sqrt_delta():
    for which in ("symmetric", "lagrangian"):
        rep = cases.beam_fixed_point_analysis(normal_form_case(which))
        assert rep.exact_residual_ok is True


def test_fixed_points_are_numeric_fixed_points():
    rep = cases.beam_fixed_point_analysis(normal_form_case("symmetric"))
    case = cases.beam_symmetric(rep.params)
    for w in rep.fixed_points:
        image = maps.step(case.map, [w] * 4, 0.1)
        assert max(abs(v - w) for v in image) <= 1e-12


def test_no_real_fixed_point():
    with pytest.raises(cases.NoRealFixedPoint):
        cases.beam_fixed_point_analysis(normal_form_case(epsilon=-1))


@pytest.mark.parametrize("which", ["symmetric", "lagrangian"])
def test_saddle_center_spectrum_at_primary(which):
    rep = cases.beam_fixed_point_analysis(normal_form_case(which))
    sp = rep.spectra[rep.primary]
    assert sp.palindromic_defect <= 1e-8
    real = sorted(
        [z for z in sp.roots if abs(z.imag) <= 1e-7 and abs(abs(z) - 1) > 1e-7],
        key=lambda z: z.real,
    )
    complex_pair = [z for z in sp.roots if abs(z.imag) > 1e-7]
    assert len(real) == 2 and len(complex_pair) == 2
    assert abs(real[0].real * real[1].real - 1.0) <= 1e-8
    for z in complex_pair:
        assert abs(abs(z) - 1.0) <= 1e-7
    assert sorted(sp.classification) == ["inside", "outside", "unit", "unit"]


def test_spectrum_matrix_reproduces_charpoly():
    rep = cases.beam_fixed_point_analysis(normal_form_case("symmetric"))
    sp = rep.spectra[rep.primary]
    assert sp.residual <= 1e-8


# The fixed points come from the load a w^4 + b w^2 + c of the built case:
# w^2 = t for each root t > 0 of a t^2 + b t + c, and the continuous growth
# rate is the largest real part of lambda with lambda^4 = F'(w*).


@pytest.mark.parametrize("which", ["symmetric", "lagrangian"])
def test_fixed_points_of_a_general_load(which):
    # 2 t^2 - 3 t + 1 = (2t - 1)(t - 1): w = +-1, +-sqrt(1/2); F'(1) = 2
    p = beam_params(a=2, b=-3, c=1)
    case = cases.beam_symmetric(p) if which == "symmetric" else cases.beam_lagrangian(p)
    rep = cases.beam_fixed_point_analysis(case)
    assert rep.params == p
    assert rep.fixed_points == [1.0, -1.0, math.sqrt(0.5), -math.sqrt(0.5)]
    assert rep.primary == 1.0
    assert rep.continuous_growth == pytest.approx(2**0.25, rel=1e-12)
    assert rep.exact_residual_ok is True
    for w in rep.fixed_points:
        assert max(abs(v - w) for v in maps.step(case.map, [w] * 4, 0.1)) <= 1e-12


def test_fixed_points_of_a_quadratic_load():
    # a = 0: t = -c/b = 1, and F'(1) = 2b = -2 < 0 gives (2/4)^(1/4)
    rep = cases.beam_fixed_point_analysis(cases.beam_symmetric(beam_params(a=0, b=-1, c=1)))
    assert rep.fixed_points == [1.0, -1.0]
    assert rep.continuous_growth == pytest.approx(0.5**0.25, rel=1e-12)
    assert rep.exact_residual_ok is True


def test_double_root_gives_one_pair_and_zero_growth():
    # t^2 - 2t + 1 = (t - 1)^2: w = +-1 once each, F'(1) = 0
    rep = cases.beam_fixed_point_analysis(cases.beam_symmetric(beam_params(a=1, b=-2, c=1)))
    assert rep.fixed_points == [1.0, -1.0]
    assert rep.continuous_growth == 0.0
    assert rep.exact_residual_ok is True


@pytest.mark.parametrize("build", [cases.beam_symmetric, cases.beam_lagrangian])
def test_a_degenerate_fixed_point_has_a_unit_spectrum(build):
    # F'(1) = 0: the linearization has the fourfold eigenvalue 1, which the
    # root iteration returns split by about 1e-3 around 1
    rep = cases.beam_fixed_point_analysis(build(beam_params(a=1, b=-2, c=1)))
    for w in (1.0, -1.0):
        sp = rep.spectra[w]
        assert max(abs(abs(z) - 1) for z in sp.roots) > maps.UNIT_TOL
        assert sp.classification == ["unit"] * 4


def test_growth_rate_for_negative_load_slope():
    # -t^2 + 3t - 2 has roots 1 and 2; F'(sqrt 2) = -2 sqrt 2, so the roots
    # of lambda^4 = F' lie on the diagonals with real part (sqrt 2 / 2)^(1/4)
    rep = cases.beam_fixed_point_analysis(cases.beam_lagrangian(beam_params(a=-1, b=3, c=-2)))
    assert rep.primary == pytest.approx(math.sqrt(2), rel=1e-15)
    assert sorted(rep.fixed_points) == pytest.approx([-math.sqrt(2), -1, 1, math.sqrt(2)])
    assert rep.continuous_growth == pytest.approx(2 ** (-1 / 8), rel=1e-12)
    assert rep.exact_residual_ok is True


@pytest.mark.parametrize("load,cause", [
    ((0, 0, 1), "constant"),  # a = b = 0
    ((1, 0, 1), "no real root"),  # b^2 - 4ac = -4
    ((1, 2, Fraction(3, 4)), "no root t = w"),  # epsilon = -1, delta = 1/4
])
def test_loads_without_fixed_points_raise_with_cause(load, cause):
    case = cases.beam_symmetric(beam_params(a=load[0], b=load[1], c=load[2]))
    with pytest.raises(cases.NoRealFixedPoint, match=cause):
        cases.beam_fixed_point_analysis(case)


def test_constant_window_residual_holds_only_at_roots():
    # 2 t^2 - 3 t + 1 vanishes at t = 1 and t = 1/2, not at 2 or 3/2
    p = beam_params(a=2, b=-3, c=1)
    for case in (cases.beam_symmetric(p), cases.beam_lagrangian(p)):
        got = [cases._constant_window_residual_zero(case, Fraction(t)) for t in ("1", "1/2", "2", "3/2")]
        assert got == [True, True, False, False]
