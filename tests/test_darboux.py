import functools
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykahan import cases, darboux, linalg, maps
from polykahan.poly import DenominatorVanished, Monomial, Polynomial, RationalFunction, param, try_divide, x
from polykahan.scheme import H, PolyOdeSystem, discretize

X0 = Polynomial.var(x(1, 0))
X1 = Polynomial.var(x(1, 1))


def quartic_bound():
    qp = cases.QuarticParams(1, 2, 3, 5, Fraction(1, 10))
    return cases.quartic_oscillator(qp)


def test_jacobian_det_matches_closed_form_symbolic():
    case = cases.quartic_oscillator()
    det = darboux.jacobian_det_2d(case.map)
    h2 = Polynomial.var(H) ** 2
    a, b, c, d = (Polynomial.var(param(s)) for s in "abcd")
    al, be, ga, de = a * h2, b * h2 / 3, 1 + c * h2 / 3, d * h2
    expected = RationalFunction(
        (be * X1 + ga) ** 2 + (al * X1 + be) * ((3 - ga) * X1 - de),
        (al * X0 * X1 + be * (X0 + X1) + ga) ** 2,
    )
    assert det == expected


def test_jacobian_det_identity_map():
    sys = PolyOdeSystem(1, 2, (Polynomial.zero(), Polynomial.zero()))
    m = maps.solve_forward(discretize(sys))
    assert darboux.jacobian_det_2d(m) == RationalFunction(Polynomial.const(1))


def test_jacobian_det_special_parameters_is_one():
    # with the cubic and constant force absent and unit gamma the update is
    # area preserving, so the determinant collapses to 1
    case = cases.quartic_oscillator()
    det = darboux.jacobian_det_2d(case.map)
    point = {
        param("a"): Fraction(0),
        param("b"): Fraction(0),
        param("c"): Fraction(0),
        param("d"): Fraction(0),
        H: Fraction(1, 7),
        x(1, 0): Fraction(2, 3),
        x(1, 1): Fraction(-5, 9),
    }
    assert det.eval(point) == 1


def test_find_darboux_quartic_dimension_two_and_span():
    case = quartic_bound()
    certs = darboux.find_darboux(case.bound_map, 4)
    assert len(certs) == 2
    basis = [c.P for c in certs]
    assert darboux.in_span(basis, case.density_poly)
    assert darboux.in_span(basis, case.invariant_poly)
    for cert in certs:
        assert cert.valid


def test_find_darboux_lv_contains_xy():
    lv = cases.lotka_volterra(1)
    m = lv.map.bind({"h": Fraction(1, 10)})
    certs = darboux.find_darboux(m, 2)
    xy = Polynomial.var(x(1)) * Polynomial.var(x(2))
    assert darboux.in_span([c.P for c in certs], xy)


def test_lv_measure_is_darboux_symbolically():
    # alpha and h stay symbolic: x y P(Phi) identity holds in the ring
    lv = cases.lotka_volterra()
    xy = Polynomial.var(x(1)) * Polynomial.var(x(2))
    cert = darboux.verify_darboux(xy, lv.map)
    measure = darboux.invariant_measure(cert)
    assert "x1*x2" in str(measure)


def test_maxdeg_zero_constant_requires_unit_determinant():
    # area-preserving additive map: constants are Darboux
    wc = cases.kahan_weierstrass(1, -1, Fraction(1, 10))
    certs = darboux.find_darboux(wc.additive_map, 0)
    assert len(certs) == 1
    assert certs[0].P == Polynomial.const(1)
    # non-unit determinant: no constant Darboux polynomial
    case = quartic_bound()
    assert darboux.find_darboux(case.bound_map, 0) == []


def test_verify_darboux_rejects_non_invariant():
    case = quartic_bound()
    with pytest.raises(darboux.CofactorMismatch):
        darboux.verify_darboux(X0 + 1, case.bound_map)


def test_witness_and_float_cofactor_consistency():
    case = quartic_bound()
    certs = darboux.find_darboux(case.bound_map, 4)
    det = darboux.jacobian_det_2d(case.bound_map)
    rng = random.Random(23)
    for cert in certs:
        assert cert.witness.is_zero()
        for _ in range(20):
            pt = {x(1, 0): rng.uniform(-1, 1), x(1, 1): rng.uniform(-1, 1)}
            image = maps.step(case.bound_map, [pt[x(1, 0)], pt[x(1, 1)]], 0.1)
            lhs = cert.P.eval({x(1, 0): image[0], x(1, 1): image[1]})
            rhs = det.eval(pt) * cert.P.eval(pt)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def _proportional(r1: RationalFunction, r2: RationalFunction) -> bool:
    # equal up to a nonzero rational constant
    A = r1.num * r2.den
    B = r1.den * r2.num
    m, lam = A.sorted_terms()[0]
    mu = B.coefficient(m)
    return mu != 0 and A * mu == B * lam


def test_first_integral_invariance_symbolic():
    # certificates are primitive-normalized, so the returned ratio is the
    # closed-form first integral up to a rational constant
    case = cases.quartic_oscillator()
    c1 = darboux.verify_darboux(case.density_poly, case.map)
    c2 = darboux.verify_darboux(case.invariant_poly, case.map)
    K = darboux.first_integral(c1, c2)
    assert _proportional(K, RationalFunction(case.invariant_poly, case.density_poly))


def test_first_integral_of_certificate_with_itself_is_one():
    case = quartic_bound()
    c1 = darboux.verify_darboux(case.density_poly, case.bound_map)
    K = darboux.first_integral(c1, c1)
    assert K == RationalFunction(Polynomial.const(1))


def test_first_integral_orbit_drift():
    case = quartic_bound()
    orbit = maps.iterate(case.map, [0.31, 0.30], 0.1, 1000)
    assert orbit.status == "complete"
    vals = []
    for pt in orbit.points:
        point = {x(1, 0): pt[0], x(1, 1): pt[1]}
        vals.append(case.invariant_poly.eval(point) / case.density_poly.eval(point))
    drift = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
    assert drift <= 1e-10


def test_invariant_measure_lv_form():
    lv = cases.lotka_volterra()
    xy = Polynomial.var(x(1)) * Polynomial.var(x(2))
    measure = darboux.invariant_measure(darboux.verify_darboux(xy, lv.map))
    assert measure.density == xy


def test_continuum_limit_symbolic():
    case = _generic_invariants()
    rep = darboux.continuum_limit_check(case[0], case[1])
    assert rep.all_hold


def _generic_invariants():
    al, be, ga, de = (Polynomial.var(param(s)) for s in ("alpha", "beta", "gamma", "delta"))
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
    return density, invariant


def test_continuum_limit_free_particle_series():
    density, invariant = _generic_invariants()
    zero = {param(s): Polynomial.zero() for s in "abcd"}
    rep = darboux.continuum_limit_check(density, invariant)
    p1_h2 = rep.p1_series.get(2, Polynomial.zero()).subs_poly(zero)
    assert p1_h2.is_zero()  # P1 = 1 exactly when the force vanishes
    p2_h2 = rep.p2_series[2].subs_poly(zero)
    assert p2_h2 == 2 * Polynomial.var(param("p")) ** 2


def test_continuum_limit_numeric_spot_check():
    # |P2/(4 h^2) - H| is one order in h at a concrete point
    qp = cases.QuarticParams(1, 2, 3, 5, Fraction(1, 1000))
    case = cases.quartic_oscillator(qp)
    xval, pval = 0.5, Fraction(1, 3)
    h = float(qp.h)
    yval = xval + h * float(pval)
    p2 = case.invariant_poly.eval({x(1, 0): xval, x(1, 1): yval})
    ham = 0.5 * float(pval) ** 2 + 0.25 * xval**4 + (2.0 / 3.0) * xval**3 + 1.5 * xval**2 + 5 * xval
    assert abs(p2 / (4 * h**2) - ham) <= 1e-2


def test_pencil_compare_paper_families_differ():
    wc = cases.kahan_weierstrass()
    result = darboux.pencil_compare(wc.pencil, wc.qrt_pencil_alpha0)
    assert not result.equal
    assert result.witness is not None
    assert result.verdict == "different"


def test_pencil_compare_self_and_rescaled():
    wc = cases.kahan_weierstrass()
    assert darboux.pencil_compare(wc.pencil, wc.pencil).equal
    rescaled = darboux.Pencil(wc.pencil.P1 * 3, wc.pencil.P2 * Fraction(7, 2))
    assert darboux.pencil_compare(wc.pencil, rescaled).equal


def test_pencil_level_conserved_along_orbit():
    case = quartic_bound()
    pencil = darboux.Pencil(case.density_poly, case.invariant_poly)
    orbit = maps.iterate(case.map, [0.31, 0.30], 0.1, 500)
    levels = [
        pencil.level({x(1, 0): pt[0], x(1, 1): pt[1]}) for pt in orbit.points
    ]
    drift = max(abs(v - levels[0]) for v in levels) / max(abs(levels[0]), 1e-30)
    assert drift <= 1e-10


def test_substitute_update_rule_cross_checked_numerically():
    # compose the monomial x*y with (x -> solved update, y -> x) and verify
    # against direct evaluation at rational points
    case = quartic_bound()
    update = case.bound_map.forward[1]
    xy = X0 * X1
    composed = xy.substitute({x(1, 0): update, x(1, 1): X0})
    rng = random.Random(3)
    done = 0
    while done < 5:
        pt = {
            x(1, 0): Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
            x(1, 1): Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
        }
        try:
            expected = update.eval(pt) * pt[x(1, 0)]
        except ZeroDivisionError:
            continue
        assert composed.eval(pt) == expected
        done += 1


def test_certificate_serialization_is_canonical():
    case = quartic_bound()
    certs = darboux.find_darboux(case.bound_map, 4)
    text = certs[0].to_text()
    assert text == "3*x1*x1' + 2*x1 + 2*x1' + 303"


def test_experimental_dim4_search_runs():
    p = cases.BeamParams(1, -2, Fraction(3, 4), Fraction(1, 10))
    m = cases.beam_symmetric(p).map.bind({"h": Fraction(1, 10)})
    certs = darboux.find_darboux(m, 1)
    assert isinstance(certs, list)  # emptiness is a legitimate outcome


def test_first_integral_rejects_certificates_of_different_map_objects():
    # the two maps are equal as maps, so the cofactors agree; the guard must
    # still refuse, since the ratio is checked against one map only
    first, second = quartic_bound(), quartic_bound()
    c1 = darboux.verify_darboux(first.density_poly, first.bound_map)
    c2 = darboux.verify_darboux(second.invariant_poly, second.bound_map)
    assert c1.cofactor == c2.cofactor
    with pytest.raises(darboux.CofactorMismatch):
        darboux.first_integral(c1, c2)


def test_beam_sym_degree3_certificate_is_the_measure_density():
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    case = cases.beam_symmetric(p)
    certs = darboux.find_darboux(case.map.bind({"h": p.h}), 3)
    density = 1 - p.h**4 * case.rhs_full.derivative(x(1, 4))
    assert [c.P for c in certs] == [density.primitive()]
    assert certs[0].valid


QUARTIC_D4 = [
    "3*x1*x1' + 2*x1 + 2*x1' + 303",
    "905*x1^2*x1'^2 + 1239*x1^2*x1' + 1239*x1*x1'^2 + 180921*x1^2 + 180921*x1'^2"
    " + 246561*x1 + 246561*x1' + 35997084",
]
LV_D3 = ["x1*x2"]


def _degenerate_first_batch(monkeypatch, first_batch):
    """Make batch 0 of the point generator degenerate; record the batches."""
    original = darboux._sample_points
    batches = []

    def sample(dim, count, batch):
        batches.append(batch)
        if batch == 0:
            return first_batch(dim, count)
        return original(dim, count, batch)

    monkeypatch.setattr(darboux, "_sample_points", sample)
    return batches


def _too_few(dim, count):
    return [tuple(Fraction(k + i, 3) for i in range(dim)) for k in range(1, 4)]


def _on_a_line(dim, count):
    return [tuple(Fraction(k * (i + 1) + 1, 7) for i in range(dim)) for k in range(count)]


@pytest.mark.parametrize("first_batch", [_too_few, _on_a_line])
def test_search_resamples_after_a_degenerate_first_batch(monkeypatch, first_batch):
    batches = _degenerate_first_batch(monkeypatch, first_batch)
    quartic = darboux.find_darboux(quartic_bound().bound_map, 4)
    assert [c.to_text() for c in quartic] == QUARTIC_D4
    assert batches == [0, 1]
    batches.clear()
    lv = cases.lotka_volterra(1).map.bind({"h": Fraction(1, 10)})
    assert [c.to_text() for c in darboux.find_darboux(lv, 3)] == LV_D3
    assert batches == [0, 1]


def test_perturbed_basis_vector_fails_certification():
    m = quartic_bound().bound_map
    cert = darboux.find_darboux(m, 4)[0]
    perturbed = cert.P + Fraction(1, 1000) * X0**2 * X1
    with pytest.raises(darboux.CofactorMismatch):
        darboux._certify(perturbed, m, cert.cofactor)


def test_search_builds_the_jacobian_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return maps.jacobian(m)

    monkeypatch.setattr(darboux, "jacobian", counting)
    certs = darboux.find_darboux(quartic_bound().bound_map, 4)
    assert len(certs) == 2 and len(calls) == 1


# -- integer relation rows ------------------------------------------------------


def _euler_top_bound():
    x1, x2, x3 = (Polynomial.var(x(i)) for i in (1, 2, 3))
    system = PolyOdeSystem(1, 3, (x2 * x3, -2 * x3 * x1, x1 * x2))
    return maps.solve_forward(discretize(system)).bind({"h": Fraction(1, 10)})


def _beam_sym_bound():
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    return cases.beam_symmetric(p).map.bind({"h": p.h})


RELATION_MAPS = {
    "quartic": lambda: quartic_bound().bound_map,
    "lv": lambda: cases.lotka_volterra(1).map.bind({"h": Fraction(1, 10)}),
    "euler_top": _euler_top_bound,
    "beam_sym": _beam_sym_bound,
}


def _fraction_row(m, J, exps, point):
    """The relation row in Fraction arithmetic, through RationalFunction.eval."""
    at = dict(zip(m.state_vars, point))
    image = [rf.eval(at) for rf in m.forward]
    scale = J.eval(at)

    def power_product(values, ex):
        return math.prod(v**e for v, e in zip(values, ex))

    return [power_product(image, ex) - scale * power_product(point, ex) for ex in exps]


def _ansatz_exponents(m, maxdeg):
    basis = darboux._monomial_basis(m.state_vars, maxdeg)
    return [[mono.exponent(v) for v in m.state_vars] for mono in basis]


def _relation_points(dim):
    rng = random.Random(dim)
    fixed = [
        tuple(Fraction((-1) ** i * (2 * i + 3), 3 + 4 * i) for i in range(dim)),
        tuple(Fraction(-(i + 1) * 5, 7) if i % 2 else Fraction(11, 2 + i) for i in range(dim)),
    ]
    drawn = [
        tuple((-1) ** i * Fraction(rng.randint(1, 40), rng.randint(1, 25)) for i in range(dim))
        for _ in range(6)
    ]
    return fixed + drawn


@pytest.mark.parametrize("name", sorted(RELATION_MAPS))
@pytest.mark.parametrize("maxdeg", [2, 3])
def test_integer_row_is_a_nonzero_multiple_of_the_fraction_row(name, maxdeg):
    m = RELATION_MAPS[name]()
    J = maps.jacobian(m)[1]
    exps = _ansatz_exponents(m, maxdeg)
    relation_row = darboux._relation_rows(m, J, exps)
    checked = 0
    for point in _relation_points(m.dim):
        assert len(set(point)) == m.dim and min(point) < 0
        try:
            expected = _fraction_row(m, J, exps, point)
        except DenominatorVanished:
            with pytest.raises(DenominatorVanished):
                relation_row(point)
            continue
        row = relation_row(point)
        assert all(type(v) is int for v in row)
        lead = next(i for i, v in enumerate(expected) if v)
        ratio = Fraction(row[lead]) / expected[lead]
        assert ratio > 0  # a positive multiple: a sign slip would flip the row
        assert [Fraction(v) for v in row] == [ratio * v for v in expected]
        assert math.gcd(*row) == 1
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize(
    "name, point",
    [
        ("quartic", (Fraction(1), Fraction(-61))),  # 3xy + 2x + 2y + 303 = 0
        ("lv", (Fraction(1, 19), Fraction(-398, 21))),  # 19x - 21y - 399 = 0
    ],
)
def test_integer_row_on_the_map_denominator_raises(name, point):
    m = RELATION_MAPS[name]()
    at = dict(zip(m.state_vars, point))
    assert any(rf.den.eval(at) == 0 for rf in m.forward)
    relation_row = darboux._relation_rows(m, maps.jacobian(m)[1], _ansatz_exponents(m, 2))
    with pytest.raises(DenominatorVanished):
        relation_row(point)


# -- the search output on the benchmark cases -----------------------------------

BENCHMARK_SEARCHES = {
    "euler_top_d2": ("euler_top", 2),
    "beam_sym_d3": ("beam_sym", 3),
    "beam_sym_d2": ("beam_sym", 2),
    "quartic_d6": ("quartic", 6),
    "lv_d3": ("lv", 3),
}


BAREISS = linalg._bareiss_nullspace  # bound before any test patches it


def _bareiss_nullspace(rows, ncols):
    return BAREISS(linalg._integer_rows(rows), ncols)


def test_search_output_equals_the_bareiss_output(bareiss_calls, monkeypatch):
    bound = {name: RELATION_MAPS[name]() for name in ("euler_top", "beam_sym", "quartic", "lv")}

    def search():
        return {
            case: [c.to_text() for c in darboux.find_darboux(bound[name], maxdeg)]
            for case, (name, maxdeg) in BENCHMARK_SEARCHES.items()
        }

    modular = search()
    assert bareiss_calls == []  # every batch was solved mod p and passed the check
    monkeypatch.setattr(linalg, "nullspace", _bareiss_nullspace)
    assert search() == modular
    assert [len(texts) for texts in modular.values()] == [0, 1, 0, 2, 1]


FIRST_BATCH_ROWS_SHA256 = "7c2bab56ddff123102f980673d18ee58107af89e47fcdd076e41a3958aa64a55"


def test_first_batch_rows_of_the_benchmark_searches_are_pinned():
    digest = hashlib.sha256()
    for case, (name, maxdeg) in BENCHMARK_SEARCHES.items():
        m = RELATION_MAPS[name]()
        exps = _ansatz_exponents(m, maxdeg)
        relation_row = darboux._relation_rows(m, maps.jacobian(m)[1], exps)
        for point in darboux._sample_points(m.dim, len(exps) + darboux._EXTRA_ROWS, 0):
            try:
                row = ",".join(map(str, relation_row(point)))
            except DenominatorVanished:
                row = "vanished"
            digest.update(f"{case}:{row};".encode())
    assert digest.hexdigest() == FIRST_BATCH_ROWS_SHA256


@pytest.fixture(scope="module")
def beam_sym_d3_batch0():
    """The integer rows find_darboux builds from its first batch of points."""
    m = _beam_sym_bound()
    exps = _ansatz_exponents(m, 3)
    relation_row = darboux._relation_rows(m, maps.jacobian(m)[1], exps)
    points = darboux._sample_points(m.dim, len(exps) + darboux._EXTRA_ROWS, 0)
    return [relation_row(point) for point in points], len(exps)


@pytest.mark.parametrize("count, fallbacks", [(18, 1), (32, 1), (37, 0)])
def test_beam_sym_batch_rows_give_the_bareiss_basis(
    beam_sym_d3_batch0, bareiss_calls, count, fallbacks
):
    # too few rows leave a large basis whose entries do not reconstruct;
    # the full batch is solved mod p and passes the exact check
    rows, ncols = beam_sym_d3_batch0
    assert (len(rows), ncols) == (37, 35)
    assert linalg.nullspace(rows[:count], ncols=ncols) == _bareiss_nullspace(rows[:count], ncols)
    assert len(bareiss_calls) == fallbacks


# -- the pullback, exact certification and the per-map caches -------------------


def test_search_compiles_phi_and_j_once_per_bound_map():
    m = RELATION_MAPS["lv"]()
    assert "relation_forms" not in m._cache
    assert [c.to_text() for c in darboux.find_darboux(m, 3)] == LV_D3
    compiled = m._cache["relation_forms"]
    assert compiled[0] is maps.jacobian(m)[1]  # the entry names its cofactor
    assert [c.to_text() for c in darboux.find_darboux(m, 3)] == LV_D3
    assert m._cache["relation_forms"] is compiled
    fresh = RELATION_MAPS["lv"]()
    assert "relation_forms" not in fresh._cache
    assert [c.to_text() for c in darboux.find_darboux(fresh, 3)] == LV_D3
    assert fresh._cache["relation_forms"] is not compiled


def test_relation_rows_follow_a_cofactor_other_than_the_cached_one():
    m = RELATION_MAPS["quartic"]()
    J = maps.jacobian(m)[1]
    other = J * RationalFunction(X0 + 3)
    exps = _ansatz_exponents(m, 2)
    darboux._relation_rows(m, J, exps)
    for cofactor in (other, J):
        relation_row = darboux._relation_rows(m, cofactor, exps)
        assert m._cache["relation_forms"][0] is cofactor
        checked = 0
        for point in _relation_points(m.dim):
            try:
                expected = _fraction_row(m, cofactor, exps, point)
            except DenominatorVanished:
                continue
            row = relation_row(point)
            lead = next(i for i, v in enumerate(expected) if v)
            ratio = Fraction(row[lead]) / expected[lead]
            assert ratio > 0
            assert [Fraction(v) for v in row] == [ratio * v for v in expected]
            checked += 1
        assert checked >= 6


PULLBACK_MAPS = {
    **RELATION_MAPS,
    "weierstrass": lambda: cases.kahan_weierstrass(3, 1, Fraction(1, 2)).additive_map,
    "lv_symbolic": lambda: cases.lotka_volterra().map,
    "quartic_symbolic": lambda: cases.quartic_oscillator().map,
}


@functools.cache
def _pullback_map(name):
    return PULLBACK_MAPS[name]()


def _polynomials(variables):
    """Random polynomials of degree <= 3 in ``variables``."""
    monomials = st.lists(st.sampled_from(variables), max_size=3).map(
        lambda vs: Monomial.from_pairs([(v, 1) for v in vs])
    )
    coefficients = st.fractions(-6, 6, max_denominator=5)
    return st.lists(st.tuples(monomials, coefficients), max_size=6).map(Polynomial)


def _same_quotient(n1, d1, n2, d2) -> bool:
    """n1/d1 == n2/d2 exactly.  Where d1 = c*d2 for a constant c this is
    n1 == c*n2, which spares the cross products of the Euler top's large
    numerators."""
    mono, lam = next(iter(d2.terms()))
    c = Fraction(d1.coefficient(mono)) / lam
    if c and d1 == d2 * c:
        return n1 == n2 * c
    return n1 * d2 == n2 * d1


@pytest.mark.parametrize("name", sorted(PULLBACK_MAPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pullback_equals_substitution(name, data):
    m = _pullback_map(name)
    P = data.draw(_polynomials([*m.state_vars, H, param("a"), param("alpha")]))
    num, den = darboux.pullback(m, P)
    s = P.substitute(dict(zip(m.state_vars, m.forward)))
    assert _same_quotient(num, den, s.num, s.den)


def _branch(m, J, P) -> str:
    """The (a, b) case that certification takes for P under the cofactor J."""
    _, den = darboux.pullback(m, P.primitive())
    if try_divide(den, J.den) is not None:
        return "Jd | den"
    return "den | Jd" if try_divide(J.den, den) is not None else "neither"


def _with_map_cofactor(m, P):
    return m, maps.jacobian(m)[1], P


def _with_unit_cofactor_over(m, P):
    # J = 1 for the additive map, written over a factor that no pullback
    # denominator has, so that neither denominator divides the other
    g = Polynomial.var(m.state_vars[0]) + 3
    J = RationalFunction(g, g)
    assert J == maps.jacobian(m)[1] and J.den == g
    return m, J, P


def _weierstrass(*args, power=1):
    case = cases.kahan_weierstrass(*args)
    return case.additive_map, case.pencil.P2**power


def _quartic(poly: str):
    case = quartic_bound()
    return case.bound_map, getattr(case, poly)


def _beam_sym_density():
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    case = cases.beam_symmetric(p)
    density = 1 - p.h**4 * case.rhs_full.derivative(x(1, 4))
    return case.map.bind({"h": p.h}), density


XY = Polynomial.var(x(1)) * Polynomial.var(x(2))
NEGATIVE_CONTROLS = {
    "quartic_invariant": (lambda: _with_map_cofactor(*_quartic("invariant_poly")), "Jd | den"),
    # J = d^2/d^2 on the additive map and den = d^4 here: Jd is a proper divisor
    "weierstrass_symbolic_squared": (
        lambda: _with_map_cofactor(*_weierstrass(power=2)),
        "Jd | den",
    ),
    "quartic_density": (lambda: _with_map_cofactor(*_quartic("density_poly")), "den | Jd"),
    "beam_sym_density": (lambda: _with_map_cofactor(*_beam_sym_density()), "den | Jd"),
    "lv_xy": (lambda: _with_map_cofactor(RELATION_MAPS["lv"](), XY), "den | Jd"),
    "lv_xy_symbolic": (lambda: _with_map_cofactor(cases.lotka_volterra().map, XY), "den | Jd"),
    "weierstrass_unit_over_g": (
        lambda: _with_unit_cofactor_over(*_weierstrass(3, 1, Fraction(1, 2))),
        "neither",
    ),
    "weierstrass_symbolic_unit_over_g": (
        lambda: _with_unit_cofactor_over(*_weierstrass()),
        "neither",
    ),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_certification_passes_darboux_and_rejects_perturbed_in_each_branch(name):
    build, branch = NEGATIVE_CONTROLS[name]
    m, J, P = build()
    perturbed = P + Polynomial.var(m.state_vars[0])
    assert _branch(m, J, P) == _branch(m, J, perturbed) == branch
    cert = darboux._certify(P, m, J)
    assert cert.valid and cert.P == P.primitive()
    with pytest.raises(darboux.CofactorMismatch):
        darboux._certify(perturbed, m, J)


def test_cofactor_mismatch_message_is_short():
    # P1 = 1 - (h/2)^2 a2 a3 x1^2 of the Euler top is Darboux under the
    # square root of J, not under J; the residual has thousands of characters
    p1 = 1 + Fraction(1, 200) * Polynomial.var(x(1)) ** 2
    with pytest.raises(darboux.CofactorMismatch) as failure:
        darboux.verify_darboux(p1, RELATION_MAPS["euler_top"]())
    message = str(failure.value)
    assert len(message) < 300
    assert "terms of degree" in message and "leading term" in message


def test_certification_cache_records_its_cofactor():
    case = quartic_bound()
    J = maps.jacobian(case.bound_map)[1]
    assert darboux._certify(case.density_poly, case.bound_map, J).valid
    with pytest.raises(darboux.CofactorMismatch):
        darboux._certify(case.density_poly, case.bound_map, J * 2)
    assert darboux._certify(case.density_poly, case.bound_map, J).valid
