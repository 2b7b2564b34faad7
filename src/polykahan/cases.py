"""Worked systems: Lotka-Volterra, the quartic oscillator, the quadratic
Weierstrass-type oscillator, and the static nonlinear beam.

Each constructor returns the system together with hand-built expected
formulas (schemes, closed-form maps, invariant polynomials, pencils), so
tests can compare the generic machinery against the known answers by exact
polynomial identity.  The beam gets two discretizations: the shift-averaged
one (measure-preserving) and a variational one derived from a discrete
Lagrangian (symplectic); both are analyzed around their fixed points.
``darboux._qrt_coefficients`` alone gives the QRT coefficients alpha..delta.
The float checks take numpy from ``maps._numpy``, step their random
states, and evaluate DPhi through ``maps._jacobian_values`` at those states
and images, whose mask marks the states the checks skip or resample.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import darboux, maps
from .maps import BirationalMap, SingularStep, solve_forward
from .poly import Monomial, Polynomial, RationalFunction, collect_linear, param, x
from .scheme import H, ImplicitScheme, PolyOdeSystem, discretize, symmetrize


class AffineConstraintViolated(ValueError):
    """A weight vector of the discrete Lagrangian does not sum to 1."""


class NoRealFixedPoint(ValueError):
    """The requested parameter range has no real constant fixed point."""


def _P(v) -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    return Polynomial.const(Fraction(v))


def _W(k: int) -> Polynomial:
    return Polynomial.var(x(1, k))


# ---------------------------------------------------------------------------
# Lotka-Volterra (order 1, two species)
# ---------------------------------------------------------------------------


@dataclass
class LotkaVolterraCase:
    system: PolyOdeSystem
    scheme: ImplicitScheme
    expected_scheme: ImplicitScheme
    map: BirationalMap


def lotka_volterra(alpha: Fraction | int | None = None) -> LotkaVolterraCase:
    """dx/dt = alpha x (1 - y), dy/dt = y (x - 1); alpha None keeps it symbolic.

    The expected scheme is the classical Kahan form written out by hand:
    (x~ - x)/h = alpha/2 (x(1 - y~) + x~(1 - y)) and its companion.
    """
    a = Polynomial.var(param("alpha")) if alpha is None else _P(alpha)
    if alpha is not None and alpha == 0:
        raise ValueError("alpha must be nonzero")
    X, Y = Polynomial.var(x(1)), Polynomial.var(x(2))
    sys = PolyOdeSystem(1, 2, (a * X - a * X * Y, Y * X - Y))
    sch = discretize(sys)
    h = Polynomial.var(H)
    Xn, Yn = Polynomial.var(x(1, 1)), Polynomial.var(x(2, 1))
    e1 = Xn - X - h * a * Fraction(1, 2) * (X * (1 - Yn) + Xn * (1 - Y))
    e2 = Yn - Y - h * Fraction(1, 2) * (Y * (Xn - 1) + Yn * (X - 1))
    expected = ImplicitScheme(1, 2, H, (e1, e2))
    return LotkaVolterraCase(sys, sch, expected, solve_forward(sch))


# ---------------------------------------------------------------------------
# Quartic oscillator (order 2, cubic force)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticParams:
    """Force coefficients of x'' = -a x^3 - b x^2 - c x - d and the step."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    h: Fraction

    def __post_init__(self):
        for name in "abcdh":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        qrt = darboux._qrt_coefficients(self.a, self.b, self.c, self.d, self.h)
        for name, value in zip(("alpha", "beta", "gamma", "delta"), qrt):
            object.__setattr__(self, name, value)


def _qrt_invariants(al, be, ga, de) -> tuple[Polynomial, Polynomial]:
    """The two invariant polynomials of the planar quartic-oscillator map,
    from the coefficients of the solved update rule."""
    al, be, ga, de = _P(al), _P(be), _P(ga), _P(de)
    X, Y = _W(0), _W(1)
    density = al * X * Y + be * (X + Y) + ga
    eps = al * de + be * (3 - ga)
    zeta = be * de + ga * (3 - ga)
    invariant = (
        (al * ga - be**2) * X**2 * Y**2
        + eps * X * Y * (X + Y)
        + zeta * (X**2 + Y**2)
        - (3 - ga) ** 2 * X * Y
        + (3 - ga) * de * (X + Y)
        - de**2
    )
    return density, invariant


def _qrt_closed_form(al, be, ga, de) -> tuple[Polynomial, Polynomial]:
    """Numerator and denominator of the solved second-order update
    x^(2) = ((3-gamma) x^(1) - delta - (beta x^(1) + gamma) x^(0))
            / (beta x^(1) + gamma + (alpha x^(1) + beta) x^(0))."""
    al, be, ga, de = _P(al), _P(be), _P(ga), _P(de)
    lo, mid = _W(0), _W(1)
    num = (3 - ga) * mid - de - (be * mid + ga) * lo
    den = be * mid + ga + (al * mid + be) * lo
    return num, den


@dataclass
class QuarticCase:
    params: QuarticParams | None
    system: PolyOdeSystem
    scheme: ImplicitScheme
    map: BirationalMap  # parameters bound when params given; h stays symbolic
    bound_map: BirationalMap | None  # everything bound, incl. h (numeric case)
    qrt_num: Polynomial
    qrt_den: Polynomial
    density_poly: Polynomial  # degree-(1,1) invariant: the measure denominator
    invariant_poly: Polynomial  # biquadratic partner; their ratio is conserved


def quartic_oscillator(params: QuarticParams | None = None) -> QuarticCase:
    """x'' = -a x^3 - b x^2 - c x - d with its solved planar map and the two
    invariant polynomials; ``params=None`` keeps every coefficient symbolic."""
    if params is None:
        a, b, c, d, h = (Polynomial.var(param(s)) for s in "abcdh")
    else:
        a, b, c, d, h = params.a, params.b, params.c, params.d, params.h
    qrt = darboux._qrt_coefficients(a, b, c, d, h)
    X = Polynomial.var(x(1))
    sys = PolyOdeSystem(2, 1, (-(_P(a) * X**3) - _P(b) * X**2 - _P(c) * X - _P(d),))
    sch = discretize(sys)
    m = solve_forward(sch)
    bound = None
    if params is not None:
        bound = m.bind({"h": params.h})
    num, den = _qrt_closed_form(*qrt)
    density, invariant = _qrt_invariants(*qrt)
    return QuarticCase(params, sys, sch, m, bound, num, den, density, invariant)


# ---------------------------------------------------------------------------
# Weierstrass-type case: quadratic force, order 1 in two variables
# ---------------------------------------------------------------------------


@dataclass
class WeierstrassCase:
    system: PolyOdeSystem
    kahan_map: BirationalMap  # planar map in (x, p)
    additive_scheme: ImplicitScheme  # second-order form x~ + x_ = g(x)
    additive_map: BirationalMap
    additive_rhs: RationalFunction  # g(x) = (4x - 2 delta)/(3 beta x + 2)
    pencil: darboux.Pencil  # invariant pencil of the additive map
    qrt_pencil_alpha0: darboux.Pencil  # the alpha=0, gamma=1 member family
    step: Polynomial  # the step h the case was built with; H when symbolic


def kahan_weierstrass(
    b: Fraction | int | None = None,
    d: Fraction | int | None = None,
    h: Fraction | int | None = None,
) -> WeierstrassCase:
    """Kahan discretization of  x' = p, p' = -b x^2 - d  and its elimination
    to the additive second-order form; None arguments stay symbolic."""
    bp = Polynomial.var(param("b")) if b is None else _P(b)
    dp = Polynomial.var(param("d")) if d is None else _P(d)
    hp = Polynomial.var(H) if h is None else _P(h)
    X, P = Polynomial.var(x(1)), Polynomial.var(x(2))
    sys = PolyOdeSystem(1, 2, (P, -bp * X**2 - dp))
    sch = discretize(sys)
    kmap = solve_forward(sch)
    _, beta, _, delta = darboux._qrt_coefficients(0, bp, 0, dp, hp)
    lo, mid = _W(0), _W(1)
    hi = _W(2)
    additive_eq = (lo + hi) * (3 * beta * mid + 2) - (4 * mid - 2 * delta)
    asch = ImplicitScheme(2, 1, H, (additive_eq,))
    amap = solve_forward(asch)
    g = RationalFunction(4 * _W(0) - 2 * delta, 3 * beta * _W(0) + 2)
    Xv, Yv = _W(0), _W(1)
    p2 = (
        -(beta**2) * Xv**2 * Yv**2
        + Fraction(4, 3) * beta * Xv * Yv * (Xv + Yv)
        + Fraction(4, 3) * (Xv**2 + Yv**2)
        - Fraction(2, 3) * (4 + beta * delta) * Xv * Yv
        + Fraction(4, 3) * delta * (Xv + Yv)
    )
    pencil = darboux.Pencil(Polynomial.const(1), p2)
    q_density, q_invariant = _qrt_invariants(0, beta, 1, delta)
    return WeierstrassCase(
        system=sys,
        kahan_map=kmap,
        additive_scheme=asch,
        additive_map=amap,
        additive_rhs=g,
        pencil=pencil,
        qrt_pencil_alpha0=darboux.Pencil(q_density, q_invariant),
        step=hp,
    )


def weierstrass_elimination_matches(case: WeierstrassCase) -> bool:
    """Check x~ + x_ = g(x) exactly, with x_ the forward x-component at -h,
    since Kahan's method is self-adjoint (``scheme.is_self_adjoint``): the sum,
    at the case's step (the map keeps h symbolic for the reversal), must be
    independent of p and equal to the additive right-hand side."""
    fx = case.kahan_map.forward[0]
    bx = fx.substitute({H: -Polynomial.var(H)})
    return (fx + bx).substitute({H: case.step}) == case.additive_rhs


# ---------------------------------------------------------------------------
# Nonlinear static beam, order 4
# ---------------------------------------------------------------------------

UNIFORM_ALPHA = tuple(Fraction(1, 6) for _ in range(6))
UNIFORM_BETA = tuple(Fraction(1, 4) for _ in range(4))
ONSITE_ALPHA = (0, 0, 0, 0, 0, Fraction(1))
ONSITE_BETA = (0, 0, 0, Fraction(1))


@dataclass(frozen=True)
class BeamParams:
    """Load coefficients of w'''' = a w^4 + b w^2 + c, a step, and the affine
    weight vectors of the variational discretization."""

    a: Fraction
    b: Fraction
    c: Fraction
    h: Fraction
    alpha: tuple = ONSITE_ALPHA
    beta: tuple = ONSITE_BETA

    def __post_init__(self):
        for name in "abch":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        object.__setattr__(self, "alpha", tuple(Fraction(v) for v in self.alpha))
        object.__setattr__(self, "beta", tuple(Fraction(v) for v in self.beta))
        if len(self.alpha) != 6 or sum(self.alpha) != 1:
            raise AffineConstraintViolated("quartic weights must be 6 values summing to 1")
        if len(self.beta) != 4 or sum(self.beta) != 1:
            raise AffineConstraintViolated("quadratic weights must be 4 values summing to 1")

    @staticmethod
    def normal_form(
        epsilon: int, delta: Fraction | int, h: Fraction | int, alpha=ONSITE_ALPHA, beta=ONSITE_BETA
    ) -> "BeamParams":
        """Scaled load a=1, b=-2 epsilon, c=1-delta with epsilon = +-1."""
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        return BeamParams(1, -2 * epsilon, 1 - Fraction(delta), h, alpha, beta)


@dataclass
class BeamSymmetricCase:
    params: BeamParams
    system: PolyOdeSystem
    scheme: ImplicitScheme  # window 0..4
    map: BirationalMap
    rhs_full: Polynomial  # shift-averaged load on the 0..4 window
    expected_quartic: Polynomial  # on the -2..2 window
    expected_quadratic: Polynomial


def beam_symmetric(p: BeamParams) -> BeamSymmetricCase:
    """Shift-averaged discretization of the beam; the averaged quartic load
    is a/5 times the five 4-subsets of the window, the quadratic load b/10
    times the ten pairs."""
    X = Polynomial.var(x(1))
    rhs = _P(p.a) * X**4 + _P(p.b) * X**2 + _P(p.c)
    sys = PolyOdeSystem(4, 1, (rhs,))
    sch = discretize(sys)

    def subsets(k: int, coeff: Fraction) -> Polynomial:  # coeff times each k-subset of -2..2
        return Polynomial(
            (Monomial.from_pairs((x(1, j), 1) for j in s), coeff)
            for s in itertools.combinations(range(-2, 3), k)
        )

    return BeamSymmetricCase(
        params=p,
        system=sys,
        scheme=sch,
        map=solve_forward(sch),
        rhs_full=symmetrize(rhs, 4),
        expected_quartic=subsets(4, p.a / 5),
        expected_quadratic=subsets(2, p.b / 10),
    )


@dataclass
class MeasureReport:
    symmetry_holds: bool  # dF/d(lowest) equals dF/d(highest) as functions
    max_rel_gap: float  # worst |det - density ratio| / |det| over samples
    samples: int


def beam_measure_check(
    case: BeamSymmetricCase, n_points: int = 20, seed: int = 7
) -> MeasureReport:
    """Volume-form check for the shift-averaged beam map.

    The load F on the 0..4 window has dF/dw^(0) = G(w^(1..4)) and
    dF/dw^(4) = H(w^(0..3)) with G and H the same symmetric function; the
    Jacobian determinant then equals (1 - h^4 G)/(1 - h^4 H), i.e. the
    density 1/(1 - h^4 H) is invariant.  The exponent is the scheme's order:
    clearing Delta^4 w = F of its h^(-4) prefactor puts h^4 on the load.
    """
    F = case.rhs_full
    G = F.derivative(x(1, 0))
    Hi = F.derivative(x(1, 4))
    h = float(case.params.h)
    window = [x(1, k) for k in range(5)]
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    while done < n_points:
        states, images, _ = _stepped_states(case.map, h, rng, n_points - done)
        dphi, ok = maps._jacobian_values(case.map, states, images, h)
        # det DPhi is (-1)^(N (dim - N)) times the level-0 block's det: -dPhi/dw^(0) here
        det_val = -dphi[:, -1, 0]
        # G reads w^(1..4), H reads w^(0..3): one window binds both
        g_val, h_val = maps.eval_batch([G, Hi], window, [s + image[-1:] for s, image in zip(states, images)])
        for good, d, g, hv in zip(ok, det_val.tolist(), g_val.tolist(), h_val.tolist()):
            if not good:
                continue
            ratio = (1 - h**4 * g) / (1 - h**4 * hv)
            worst = max(worst, abs(d - ratio) / max(abs(d), 1e-30))
            done += 1
    return MeasureReport(
        symmetry_holds=G.shift_states(-1) == Hi,
        max_rel_gap=worst,
        samples=n_points,
    )


# -- discrete Lagrangian ---------------------------------------------------


@dataclass
class DiscreteLagrangian:
    """Three-point discrete Lagrangian of the beam, stored as h^4 * L.

    The difference kernel carries a 1/h^4 prefactor that is not polynomial
    in h, so the polynomial field keeps the h^4-scaled Lagrangian; momenta
    and Euler-Lagrange equations divide the scaling back out where needed
    (scaling a Lagrangian by a constant does not change its equations).
    """

    scaled: Polynomial  # h^4 * (T - V) in w^(0), w^(1), w^(2)
    _momenta: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def partial(self, j: int) -> Polynomial:
        """h^4 times the derivative of L with respect to window slot j."""
        if j not in (0, 1, 2):
            raise ValueError("slot must be 0, 1 or 2")
        return self.scaled.derivative(x(1, j))

    def momenta(self) -> tuple[Polynomial, Polynomial]:
        """h^4 times the Ostrogradsky momenta (p1, p2) on the map's window
        x1^(0..3) = (w^(-2), w^(-1), w^(0), w^(1)), with L_j the slot-j
        partial of the Lagrangian on consecutive windows:
            p2 = L_2(w^(-1), w^(0), w^(1)),
            p1 = L_1(w^(-1), w^(0), w^(1)) + L_2(w^(-2), w^(-1), w^(0)).
        Built on the first call and kept, since ``scaled`` fixes them.
        """
        if self._momenta is None:
            p2 = self.partial(2).shift_states(1)
            self._momenta = (self.partial(1).shift_states(1) + self.partial(2), p2)
        return self._momenta

    def euler_lagrange(self) -> Polynomial:
        """h^4 times the discrete Euler-Lagrange expression on window -2..2:
        dL/dslot0 at (w0,w1,w2) + dL/dslot1 at (w-1,w0,w1)
        + dL/dslot2 at (w-2,w-1,w0)."""
        return (
            self.partial(0)
            + self.partial(1).shift_states(-1)
            + self.partial(2).shift_states(-2)
        )


def discrete_lagrangian(a, b, c, alpha: Sequence, beta: Sequence) -> DiscreteLagrangian:
    """Build h^4*(T - V5 - V3 - linear) from load coefficients and affine
    weights; arguments may be rationals or polynomials (symbolic weights)."""
    a, b, c = _P(a), _P(b), _P(c)
    al = [_P(v) for v in alpha]
    be = [_P(v) for v in beta]
    w0, w1, w2 = _W(0), _W(1), _W(2)
    kinetic = Fraction(1, 2) * (
        2 * (w0 - w1) ** 2 - (w0 - w2) ** 2 + 2 * (w1 - w2) ** 2
    )
    v5 = (
        al[0] * w0 * w1**3 * w2
        + Fraction(1, 2) * al[1] * (w0**2 * w1**3 + w1**2 * w2**3)
        + Fraction(1, 2) * al[2] * (w1**2 * w0**3 + w2**2 * w1**3)
        + Fraction(1, 2) * al[3] * (w0 * w1**4 + w1 * w2**4)
        + Fraction(1, 2) * al[4] * (w1 * w0**4 + w2 * w1**4)
        + Fraction(1, 3) * al[5] * (w0**5 + w1**5 + w2**5)
    ) * a / 5
    v3 = (
        be[0] * w0 * w1 * w2
        + Fraction(1, 2) * be[1] * (w0 * w1**2 + w1 * w2**2)
        + Fraction(1, 2) * be[2] * (w1 * w0**2 + w2 * w1**2)
        + Fraction(1, 3) * be[3] * (w0**3 + w1**3 + w2**3)
    ) * b / 3
    linear = c / 3 * (w0 + w1 + w2)
    h4 = Polynomial.var(H) ** 4
    return DiscreteLagrangian(scaled=kinetic - h4 * (v5 + v3 + linear))


def expected_lagrangian_rhs(a, b, c, alpha: Sequence, beta: Sequence) -> Polynomial:
    """The explicit variational load on the -2..2 window (quartic plus
    quadratic plus constant), written out from its closed form."""
    a, b, c = _P(a), _P(b), _P(c)
    al = [_P(v) for v in alpha]
    be = [_P(v) for v in beta]
    wm2, wm1, w0, w1, w2 = _W(-2), _W(-1), _W(0), _W(1), _W(2)
    f4 = (
        al[0] * (wm2 * wm1**3 + 3 * wm1 * w0**2 * w1 + w1**3 * w2)
        + al[1] * (3 * wm1**2 * w0**2 + 2 * w0 * w1**3)
        + al[2] * (2 * wm1**3 * w0 + 3 * w0**2 * w1**2)
        + al[3] * (4 * wm1 * w0**3 + w1**4)
        + al[4] * (wm1**4 + 4 * w0**3 * w1)
        + 5 * al[5] * w0**4
    ) * a / 5
    f2 = (
        be[0] * (wm2 * wm1 + wm1 * w1 + w1 * w2)
        + be[1] * (2 * wm1 * w0 + w1**2)
        + be[2] * (wm1**2 + 2 * w0 * w1)
        + 3 * be[3] * w0**2
    ) * b / 3
    return f4 + f2 + c


def beam_difference_kernel(center: int = 0) -> Polynomial:
    """w^(c-2) - 4w^(c-1) + 6w^(c) - 4w^(c+1) + w^(c+2)."""
    k = center
    return _W(k - 2) - 4 * _W(k - 1) + 6 * _W(k) - 4 * _W(k + 1) + _W(k + 2)


@dataclass
class BeamLagrangianCase:
    params: BeamParams
    lagrangian: DiscreteLagrangian
    euler_lagrange: Polynomial  # on window -2..2, h^4-cleared
    scheme: ImplicitScheme  # the Euler-Lagrange equation on window 0..4
    map: BirationalMap
    expected_rhs: Polynomial  # variational load on window -2..2


def beam_lagrangian(p: BeamParams) -> BeamLagrangianCase:
    """Variational beam discretization: build the three-point Lagrangian,
    form its discrete Euler-Lagrange equation, and solve the (linear)
    highest shift into a 4D map."""
    L = discrete_lagrangian(p.a, p.b, p.c, p.alpha, p.beta)
    el = L.euler_lagrange()
    sch = ImplicitScheme(4, 1, H, (el.shift_states(2),))
    return BeamLagrangianCase(
        params=p,
        lagrangian=L,
        euler_lagrange=el,
        scheme=sch,
        map=solve_forward(sch),
        expected_rhs=expected_lagrangian_rhs(p.a, p.b, p.c, p.alpha, p.beta),
    )


# -- Ostrogradsky variables and symplecticity --------------------------------


@dataclass
class OstrogradskyState:
    q1: float | Fraction
    q2: float | Fraction
    p1: float | Fraction
    p2: float | Fraction

    def as_list(self):
        return [self.q1, self.q2, self.p1, self.p2]


def ostrogradsky_transform(
    L: DiscreteLagrangian, window: Sequence, h: Fraction | float
) -> OstrogradskyState:
    """Canonical variables from a length-4 window (w^(-2), w^(-1), w^(0), w^(1)):
    q1 = w^(0), q2 = w^(1) and the momenta of ``L.momenta()``.  Exact when
    the window and h are rational.
    """
    _, _, q1, q2 = window
    point = {**{x(1, k): v for k, v in enumerate(window)}, H: h}
    p1, p2 = (p.eval(point) / h**4 for p in L.momenta())
    return OstrogradskyState(q1=q1, q2=q2, p1=p1, p2=p2)


def ostrogradsky_inverse(
    L: DiscreteLagrangian, state: OstrogradskyState, h: Fraction | float
) -> list:
    """Recover the window from canonical variables: p2 is linear in w^(-1),
    then p1 in w^(-2), since the slot-2 partial is linear in its first slot."""
    point = {x(1, 2): state.q1, x(1, 3): state.q2, H: h}
    p1, p2 = L.momenta()
    for k, p, target in ((1, p2, state.p2), (0, p1, state.p1)):
        coeffs, rest = collect_linear(p, {x(1, k)})
        lin = coeffs.get(x(1, k), Polynomial()).eval(point)
        if lin == 0:
            raise ZeroDivisionError("degenerate window solve")
        point[x(1, k)] = (target * h**4 - rest.eval(point)) / lin
    return [point[x(1, k)] for k in range(4)]


def _stepped_states(m: BirationalMap, h: float, rng: random.Random, count: int) -> tuple[list, list, int]:
    """Draw ``count`` windows uniform in [-1, 1]^dim and step each: those
    whose step is regular, their images, and how many steps were singular."""
    states, images = [], []
    for _ in range(count):
        s = [rng.uniform(-1.0, 1.0) for _ in range(m.dim)]
        try:
            images.append(maps.step(m, s, h))
        except SingularStep:
            continue
        states.append(s)
    return states, images, count - len(states)


@dataclass
class SymplecticityReport:
    defect: float
    samples: int
    resampled: int


def symplecticity_check(
    case: BeamLagrangianCase, n_states: int = 20, seed: int = 11
) -> SymplecticityReport:
    """Numeric check that the variational beam map preserves the canonical
    two-form in Ostrogradsky coordinates.

    The map is conjugated through the transform's Jacobian: with C the
    window-to-canonical derivative, M = C(Phi(s)) DPhi(s) C(s)^-1 must
    satisfy M^T Omega M = Omega; the defect is the worst infinity-norm gap
    over random window states.
    """
    np = maps._numpy()
    omega = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],  # the two-form on (q, p)
                      [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    h = float(case.params.h)
    # Canonical coordinates as polynomials on the map's own 0..3 window
    c_polys = [Polynomial.var(x(1, 2)), Polynomial.var(x(1, 3)), *case.lagrangian.momenta()]
    c_scale = np.array([[1.0], [1.0], [h**4], [h**4]])  # row i of C over c_scale[i]
    variables = [*case.map.state_vars, H]
    dC = [q.derivative(v) for q in c_polys for v in case.map.state_vars]
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    resampled = 0
    while done < n_states:
        states, images, singular = _stepped_states(case.map, h, rng, n_states - done)
        resampled += singular
        dphi, ok = maps._jacobian_values(case.map, states, images, h)
        C = maps.eval_batch(dC, variables, [[*s, h] for s in states + images]).T.reshape(-1, 4, 4) / c_scale
        C_here, C_image = C[: len(states)], C[len(states) :]  # dC compiled once per batch
        for good, C_im, D, C_at in zip(ok, C_image, dphi, C_here):
            try:  # not good: A vanished at the state
                M = C_im @ D @ np.linalg.inv(C_at) if good else None
            except np.linalg.LinAlgError:
                M = None
            if M is None:
                resampled += 1
                continue
            worst = max(worst, float(np.max(np.abs(M.T @ omega @ M - omega))))
            done += 1
    return SymplecticityReport(defect=worst, samples=n_states, resampled=resampled)


# -- fixed points and spectra ---------------------------------------------------


@dataclass
class BeamFixedPointReport:
    params: BeamParams
    fixed_points: list[float]
    primary: float  # sqrt(t) for the largest root t > 0 of a t^2 + b t + c
    continuous_growth: float  # largest Re(lambda) with lambda^4 = F'(w*), F = a w^4 + b w^2 + c
    spectra: dict[float, maps.SpectrumReport]
    exact_residual_ok: bool | None  # exact check at w*; None when w*^2 is irrational


def _rational_sqrt(q: Fraction) -> Fraction | None:
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def beam_fixed_point_analysis(
    case: BeamSymmetricCase | BeamLagrangianCase,
) -> BeamFixedPointReport:
    """Constant fixed points of a built beam map, their linearizations and
    spectra, for the load a w^4 + b w^2 + c of ``case.params``.

    Both maps fix exactly the equilibria of the continuous equation, since a
    constant window zeroes the difference kernel and the averaged load
    collapses to the load itself: w^2 = t for each root t > 0 of
    a t^2 + b t + c.  At such a root F'(w) = 2 w s with s = 2 a t + b, which
    is +-sqrt(b^2 - 4ac) (b when a = 0).  Raises NoRealFixedPoint, with the
    cause, when the load has no such root.
    """
    p = case.params
    a, b, c = p.a, p.b, p.c
    disc = b * b - 4 * a * c
    roots = []  # (t, s, exact t or None)
    if a == 0:
        if b == 0:
            raise NoRealFixedPoint(f"the load is the constant {c}: no isolated fixed point")
        roots.append((float(-c / b), float(b), -c / b))
    elif disc < 0:
        raise NoRealFixedPoint(f"a t^2 + b t + c has no real root (b^2 - 4ac = {disc})")
    else:
        sd, rsd = math.sqrt(float(disc)), _rational_sqrt(disc)
        for sign in (1, -1) if disc else (1,):
            exact = None if rsd is None else (-b + sign * rsd) / (2 * a)
            roots.append(((float(-b) + sign * sd) / float(2 * a), sign * sd, exact))
    roots = sorted((r for r in roots if r[0] > 0), key=lambda r: -r[0])
    if not roots:
        raise NoRealFixedPoint(f"a t^2 + b t + c has no root t = w^2 > 0 (a={a}, b={b}, c={c})")
    ws = [w for t, _, _ in roots for w in (math.sqrt(t), -math.sqrt(t))]
    spectra = {}
    for w in ws:
        M = maps.linearize_at(case.map, [w] * 4, float(p.h))
        spectra[w] = maps.char_poly_and_roots(M)
    _, slope, wsq = roots[0]
    fprime = 2 * ws[0] * slope
    # lambda^4 = F' <= 0 puts the roots on the diagonals: Re = (|F'|/4)^(1/4)
    gamma = fprime**0.25 if fprime > 0 else (-fprime / 4) ** 0.25
    return BeamFixedPointReport(
        params=p,
        fixed_points=ws,
        primary=ws[0],
        continuous_growth=gamma,
        spectra=spectra,
        exact_residual_ok=None if wsq is None else _constant_window_residual_zero(case, wsq),
    )


def _constant_window_residual_zero(case, wsq: Fraction) -> bool:
    """Exact check that w = sqrt(wsq) zeroes the scheme on a constant window:
    put one symbol W in every slot and reduce W^k to wsq^(k//2) W^(k%2);
    what is left, the parts even and odd in W, must vanish."""
    W = x(1, 0)
    for e in case.scheme.equations:
        parts = e.map_vars(lambda v: v if v.is_param else W).split_by(W)
        reduced = Polynomial(
            (m * Monomial.from_pairs([(W, k % 2)]), c * wsq ** (k // 2))
            for k, q in parts.items() for m, c in q.terms()
        )
        if not reduced.is_zero():
            return False
    return True
