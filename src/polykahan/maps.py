"""Explicit birational maps from implicit schemes, and their numerics.

Because the scheme equations are jointly linear in the highest shifts, they
solve to rational update rules: the map on the nN-dimensional window state
(x_1^(0)..x_N^(0), ..., x_1^(n-1)..x_N^(n-1)) copies the upper blocks down
and fills the last block with the solved highest shifts.  Linearity in the
lowest shifts makes the map birational: the inverse is the lowest-shift system.
Its Jacobian is block companion, dim - N unit rows above the N solved ones,
whose level-0 block is -A^-1 B at x_n = Phi for A x_n + r = B x_0 + s (A free
of x_n, B of x_0), so det = (-1)^(N (dim - N) + N) det B(Phi) / det A.  The
exact Jacobian (``jacobian``) serves the exact layer; float paths take DPhi
from E's partials instead, -A^-1 dE/dx at (state, x_n = Phi(state))
(``_jacobian_values``), and never build the symbolic one.

Only the forward block is solved symbolically (Cramer on the coefficients),
for N <= 3; numeric stepping always solves the evaluated N x N system by
Gaussian elimination with partial pivoting, so larger systems iterate fine
without closed forms.  The elimination is generated straight-line code on
local floats, not a LAPACK call: that is faster than the call at these
sizes, and its bits do not follow the BLAS kernel a host picks at run time.
Float Cramer would round differently.  Every float evaluation reads one term
list, ``_compile``'s, in one operation order, through one of two consumers
chosen by how the call site uses it.  The stepper and ``first_order_field``
evaluate the same polynomials at one state after another, so they run
straight-line Python generated once from the terms (``_value_lines``).  Per
map, direction and h, one generated function runs a whole orbit, with the
window in local variables: ``iterate`` calls it once per orbit, and
``step``/``step_back`` call it for one step.  Residuals and quotients
share one batch kernel, ``_gathered``.  ``_sums`` of one plan (``_plan``)
serves ``eval_batch``, ``_eval_rational_batch``, which divides and masks
vanishing denominators, and ``_jacobian_values``.

numpy is imported by the first call that uses it: ``_numpy``, the
package's one loader, binds ``np`` here once, and every batch kernel,
spectrum and check reaches it before its first use of numpy.  Stepping
(``step``, ``step_back``, ``iterate``) runs on the standard library alone;
only a singular N >= 2 step loads numpy, for its condition number.  The
exact layer (solving, ``jacobian``, ``eval_exact`` and all of ``darboux``)
never loads numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import linalg
from .poly import DenominatorVanished, Polynomial, RationalFunction, Var, _compose, collect_linear, x
from .scheme import ImplicitScheme, PolyOdeSystem, discretize

SYMBOLIC_DIM_LIMIT = 3  # Cramer's rule is built only for N at most this
UNIT_TOL = 1e-7  # an eigenvalue group within this of modulus 1 is "unit"
_ROOT_MAX_ITER = 10_000  # Durand-Kerner sweeps before it gives up


class ZeroDeterminant(ArithmeticError):
    """The symbolic coefficient determinant of the linear solve is zero."""


class SingularStep(ArithmeticError):
    """A denominator or linear system became singular at a concrete state.
    ``condition`` is the 2-norm condition number of a singular or
    non-finite linear solve's A; it is None for a vanishing denominator, a
    float overflow, and an A whose SVD fails, as on a non-finite A."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class NotFixedPoint(ValueError):
    """linearize_at was called at a point the map does not fix."""


class NoConvergence(ArithmeticError):
    """Root iteration failed to reach the target residual."""


class BirationalMap:
    """Explicit forward rational update rules; the inverse is ``_bottom``.

    ``state_vars`` fixes the coordinate order; ``forward`` is a tuple of
    RationalFunctions in those variables (plus h and any unbound
    parameters), or None above the symbolic dimension limit.  Instances are
    immutable in use; a small evaluation cache is built lazily.
    """

    def __init__(
        self,
        scheme: ImplicitScheme,
        forward: tuple[RationalFunction, ...] | None,
        top_system: tuple[list[list[Polynomial]], list[Polynomial]],
        bottom_system: tuple[list[list[Polynomial]], list[Polynomial]],
        dets: tuple[Polynomial, Polynomial] | None,
    ):
        self.scheme = scheme
        self.n = scheme.order
        self.N = scheme.dim
        self.dim = self.n * self.N
        self.state_vars = tuple(
            x(j, k) for k in range(self.n) for j in range(1, self.N + 1)
        )
        self.forward = forward
        self._top = top_system
        self._bottom = bottom_system
        self._dets = dets  # det A of _top, det B of _bottom; None above the symbolic limit
        self._cache: dict = {}

    # -- construction helpers ------------------------------------------------

    def free_parameters(self) -> set[Var]:
        out: set[Var] = set()
        for e in self.scheme.equations:
            out.update(v for v in e.vars() if v.is_param)
        out.discard(self.scheme.step)
        return out

    def bind(self, values: Mapping[str, int | Fraction]) -> "BirationalMap":
        """Substitute exact rational values for named parameters."""
        sigma = {Var(name=k): Polynomial.const(Fraction(v)) for k, v in values.items()}
        bound = ImplicitScheme(
            self.scheme.order,
            self.scheme.dim,
            self.scheme.step,
            tuple(e.subs_poly(sigma) for e in self.scheme.equations),
        )
        return solve_forward(bound)

    def __str__(self) -> str:
        rows = []
        for v, rf in zip(self.state_vars, self.forward or ()):
            rows.append(f"{v} -> {rf}")
        return "\n".join(rows) if rows else f"<numeric map, dim {self.dim}>"

    # -- numeric stepping ------------------------------------------------------

    def _stepper(self, h: float, direction: str) -> Callable[[list, int], None]:
        """The generated stepping function of one direction at h, built once."""
        key = (direction, float(h))
        if key not in self._cache:
            if free := self.free_parameters():
                raise ValueError(f"parameters must be bound before stepping: {sorted(map(str, free))}")
            forward = direction == "forward"
            A, r = self._top if forward else self._bottom
            # Backward solves for level 0 given levels 1..n: the window is read as those levels.
            slots = _level_slots(self.N, range(self.n) if forward else range(1, self.n + 1))
            consts = {self.scheme.step: key[1]}
            compiled = [_compile(p, slots, consts) for p in itertools.chain(*A, r)]
            self._cache[key] = _stepping_function(compiled, self.N, self.dim, forward)
        return self._cache[key]


def solve_forward(scheme: ImplicitScheme) -> BirationalMap:
    """Solve the scheme for the highest shifts; the lowest-shift system is the inverse.

    Raises NotLinear if a joint-linearity assumption fails and
    ZeroDeterminant if either coefficient determinant vanishes identically
    (N <= 3 only; larger N skips the closed form and the check).
    """
    n, N = scheme.order, scheme.dim
    top = _linear_system(scheme.equations, [x(j, n) for j in range(1, N + 1)])
    bottom = _linear_system(scheme.equations, [x(j, 0) for j in range(1, N + 1)])
    forward = dets = None
    if N <= SYMBOLIC_DIM_LIMIT:
        shift_up = tuple(
            RationalFunction(Polynomial.var(x(j, k)))
            for k in range(1, n)
            for j in range(1, N + 1)
        )
        dets = (linalg.det_poly(top[0]), linalg.det_poly(bottom[0]))
        if dets[0].is_zero():
            raise ZeroDeterminant("coefficient determinant is identically zero")
        if dets[1].is_zero():
            raise ZeroDeterminant("lowest-shift coefficient determinant is identically zero")
        A, r = top  # Cramer: x_j^(n) = det(A with column j replaced by -r) / det A
        cols = ([[-r[i] if c == j else A[i][c] for c in range(N)] for i in range(N)] for j in range(N))
        forward = shift_up + tuple(RationalFunction(linalg.det_poly(M), dets[0]) for M in cols)
    return BirationalMap(scheme, forward, top, bottom, dets)


def _linear_system(equations, var_order):
    A: list[list[Polynomial]] = []
    r: list[Polynomial] = []
    for e in equations:
        coeffs, rem = collect_linear(e, var_order)
        A.append([coeffs.get(v, Polynomial()) for v in var_order])
        r.append(rem)
    return A, r


_NUMPY_NAMES = ("np",)
_BLOCK = 256  # states per block of ``_gathered``; at 1024 the report's peak RSS rose
# one compile per generated source: fresh maps repeat it, and compiling churns interned names
_source_code = functools.lru_cache(maxsize=64)(compile)


def _numpy():
    """Bind ``_NUMPY_NAMES`` in this module on the first call, and return
    numpy.  Every function that uses numpy reaches it first: the batch
    kernels, spectra, the ``cases`` checks and ``_condition``.  The exact
    layer and the generated steppers never do, so importing polykahan and
    stepping a map do not import numpy."""
    global np
    if "np" not in globals():
        import numpy as np
    return np


def _condition(A: list[list[float]]) -> float | None:
    """A's 2-norm condition number, for a singular N >= 2 step's
    SingularStep: the one stepper path that loads numpy."""
    _numpy()
    try:
        return float(np.linalg.cond(A))
    except np.linalg.LinAlgError:  # the SVD does not converge on a non-finite A
        return None


def _level_slots(N: int, levels: Sequence[int]) -> dict[Var, int]:
    """Slot i * N + j - 1 for x_j at the i-th of the given levels."""
    return {x(j, k): i * N + j - 1 for i, k in enumerate(levels) for j in range(1, N + 1)}


def _compile(p: Polynomial, slots: dict[Var, int], consts: Mapping[Var, float]):
    """Flatten a polynomial to (coeff, ((slot, exp), ...)) terms for fast eval."""
    terms = []
    for m, c in p.terms():
        coeff = float(c)
        idx = []
        for v, e in m.factors:
            if v in slots:
                idx.append((slots[v], e))
            elif v in consts:
                coeff *= consts[v] ** e
            else:
                raise ValueError(f"unbound variable {v} in numeric evaluation")
        terms.append((coeff, tuple(idx)))
    return terms


def _value_lines(compiled: Sequence[list]) -> tuple[list[str], list[float]]:
    """Lines that leave ``_ceval(compiled[k], s)`` in ``v{k}``, reading slot i
    from a local ``s{i}``, and the coefficients they name ``c0, c1, ...``.
    Each value is written out as ``v = 0.0``, ``v = v + c0 * s0 ** e * s1 +
    ...``: ``_ceval``'s operations in its order, so the floats are the same
    bit for bit, and an overflowing ``**`` still raises OverflowError.
    ``** 1`` is left out, since ``x ** 1`` is ``x`` for a float; numpy's
    scalar power may rewrite a NaN's sign or payload, so on ndarray input a
    NaN can differ in those bits only."""
    coeffs: list[float] = []
    lines = []
    for k, terms in enumerate(compiled):
        summands = []
        for coeff, idx in terms:
            factors = [f"s{i}" if e == 1 else f"s{i} ** {e}" for i, e in idx]
            summands.append(" * ".join([f"c{len(coeffs)}", *factors]))
            coeffs.append(coeff)
        lines.append(f"v{k} = 0.0")
        # A sum of a few thousand terms in one expression nests too deep for
        # the compiler; a running sum over chunks adds in the same order.
        for j in range(0, len(summands), 256):
            lines.append(f"v{k} = v{k} + " + " + ".join(summands[j : j + 256]))
    return lines, coeffs


def _define(params: str, body: Sequence[str], coeffs: Sequence[float]) -> Callable:
    """``def fn(<params>, c0, c1, ...): <body>`` in this module's globals.
    The coefficients are bound as default arguments, not written as
    literals, because they may be inf or nan."""
    params += "".join(f", c{k}" for k in range(len(coeffs)))
    namespace: dict = {}
    source = f"def fn({params}):\n" + "".join(f"    {line}\n" for line in body)
    exec(_source_code(source, "<string>", "exec"), globals(), namespace)
    fn = namespace["fn"]
    fn.__defaults__ = tuple(coeffs)
    return fn


def _straight_line(compiled: Sequence[list]) -> Callable[[Sequence[float]], tuple]:
    """One generated function of a state that returns ``_ceval(terms, state)``
    for each term list, as a tuple (see ``_value_lines``)."""
    lines, coeffs = _value_lines(compiled)
    used = sorted({i for terms in compiled for _, idx in terms for i, _ in idx})
    values = "".join(f"v{k}, " for k in range(len(compiled)))
    return _define("s", [*(f"s{i} = s[{i}]" for i in used), *lines, f"return ({values})"], coeffs)


def _stepping_function(compiled: Sequence[list], N: int, dim: int, forward: bool) -> Callable:
    """``run(points, steps)``: ``steps`` steps from the window ``points[-1]``,
    each new window appended to ``points``.  ``compiled`` holds A's entries
    row by row, then r, in the window's slots; a step solves A b = -r, by a
    division at N = 1, and shifts the window in local variables.  At N >= 2
    it runs Gaussian elimination on [A | -r] copied into locals ``a{i}_{j}``
    (the ``v``s stay for ``_condition``): each column swaps in, row by row,
    any later row whose entry has a strictly larger ``abs`` than the pivot
    so far (so the first largest wins), stops at a pivot that is exactly 0
    and eliminates below it; back-substitution subtracts left to right.  No
    LAPACK call: at these sizes the call costs more than the solve, and its
    bits follow the BLAS kernel the host picks at run time.  Besides
    builtins the function names only ``math``, ``SingularStep`` and
    ``_condition``, so compiling and running it needs the standard library
    alone; ``_condition`` loads numpy when a singular step calls it."""
    lines, coeffs = _value_lines(compiled)
    slots, block = [f"s{i}" for i in range(dim)], [f"b{j}" for j in range(N)]
    s = ", ".join(slots)
    at = "at state {[" + s + "]}"  # the window as list(state) shows it
    if N == 1:
        solve = [
            "b0 = -v1 / v0 if v0 else math.inf",
            "if not math.isfinite(b0):",
            f'    raise SingularStep(f"vanishing denominator {at}")',
        ]
    else:
        a = [[f"a{i}_{j}" for j in range(N + 1)] for i in range(N)]
        v = [[f"v{i * N + j}" for j in range(N)] for i in range(N)]
        cond = "_condition([" + ", ".join(f"[{', '.join(row)}]" for row in v) + "])"
        start = (f"{', '.join(row)}, -v{N * N + i}" for i, row in enumerate(v))
        solve = [f"{', '.join(sum(a, []))} = {', '.join(start)}"]
        for k in range(N):
            for i in range(k + 1, N):
                pivot, other = ", ".join(a[k][k:]), ", ".join(a[i][k:])
                solve += [f"if abs({a[i][k]}) > abs({a[k][k]}):",
                          f"    {pivot}, {other} = {other}, {pivot}"]
            solve += [f"if not {a[k][k]}:",
                      f'    raise SingularStep(f"singular linear system {at}", {cond})']
            for i in range(k + 1, N):
                solve.append(f"f = {a[i][k]} / {a[k][k]}")
                solve += [f"{a[i][j]} = {a[i][j]} - f * {a[k][j]}" for j in range(k + 1, N + 1)]
        for i in reversed(range(N)):
            known = "".join(f" - {a[i][j]} * b{j}" for j in range(i + 1, N))
            solve.append(f"b{i} = ({a[i][N]}{known}) / {a[i][i]}")
        solve += [
            f"if not ({' and '.join(f'math.isfinite(b{j})' for j in range(N))}):",
            f'    raise SingularStep(f"non-finite solve {at}", {cond})',
        ]
    window = slots[N:] + block if forward else block + slots[:-N]
    body = [
        f"{s}, = points[-1]",
        "for _ in range(steps):",
        "    try:",
        *(f"        {line}" for line in lines + solve),
        "    except OverflowError:",
        f'        raise SingularStep(f"float overflow {at}") from None',
        f"    {s} = {', '.join(window)}",
        f"    points.append([{s}])",
    ]
    return _define("points, steps", body, coeffs)


def _ceval(terms, state):
    """Sum compiled terms at one float state, in the order of every float
    evaluation: ``_value_lines`` writes it out, ``_gathered`` batches it."""
    total = 0.0
    for coeff, idx in terms:
        t = coeff
        for i, e in idx:
            t *= state[i] ** e
        total += t
    return total


def _batch_plan(compiled: Sequence[list]) -> tuple:
    """``_gathered``'s plan for the term lists ``compiled``: the distinct
    (slot, exponent) powers, a coefficient column, per factor position each
    term's power row (row 0 is ones, which pads exactly) and each list's
    term bounds; each list starts with a 0.0 term, where ``_ceval`` starts."""
    terms = [t for ts in compiled for t in [(0.0, ()), *ts]]
    row = {f: r for r, f in enumerate(dict.fromkeys(f for _, idx in terms for f in idx), 1)}
    width = max((len(idx) for _, idx in terms), default=0)
    index = np.array([[row[f] for f in idx] + [0] * (width - len(idx)) for _, idx in terms])
    ends = [0, *itertools.accumulate(len(ts) + 1 for ts in compiled)]
    coeffs = np.array([c for c, _ in terms]).reshape(-1, 1)
    return list(row), coeffs, index.T, list(itertools.pairwise(ends))


def _gathered(plan: tuple, columns: Sequence[np.ndarray], count: int):
    """Per block of at most ``_BLOCK`` of the ``count`` states (slot i over
    them all is ``columns[i]``), yield the block's slice, its terms x states
    matrix and each list's sums, bit for bit as ``_ceval`` gives them: C
    ``pow`` per element (numpy's power can differ in the last bit), and rows
    summed in order, which add.reduce keeps on two columns or more."""
    powers, coeffs, index, bounds = plan
    for start in range(0, count, _BLOCK):
        cut = slice(start, min(start + _BLOCK, count))
        width = cut.stop - start
        P = np.ones((len(powers) + 1, max(width, 2)))
        for r, (i, e) in enumerate(powers, 1):
            P[r, :width] = columns[i][cut] if e == 1 else np.float_power(columns[i][cut], e)
        terms = np.repeat(coeffs, P.shape[1], axis=1)
        for rows in index:
            terms *= P[rows]
        sums = np.array([np.add.reduce(terms[a:b]) for a, b in bounds]).reshape(-1, P.shape[1])
        yield cut, terms[:, :width], sums[:, :width]


def _plan(polys: Sequence[Polynomial], variables: Sequence[Var]) -> tuple:
    """The batch plan of ``polys``, whose term order fixes the float sum;
    column k of a state binds ``variables[k]``."""
    _numpy()
    slots = {v: k for k, v in enumerate(variables)}
    return _batch_plan([_compile(p, slots, {}) for p in polys]), len(variables)


def _sums(plan: tuple, states) -> np.ndarray:
    """Each planned polynomial at each state (polynomials x states)."""
    batch, nvars = plan
    states = np.reshape(np.asarray(states, dtype=float), (len(states), nvars))
    values = np.empty((len(batch[3]), len(states)))
    with np.errstate(all="ignore"):
        for cut, _, sums in _gathered(batch, states.T, len(states)):
            values[:, cut] = sums
    return values


def eval_batch(polys: Sequence[Polynomial], variables: Sequence[Var], states) -> np.ndarray:
    """Each polynomial at each state (polynomials x states), as
    ``Polynomial.eval`` gives it; other variables raise ValueError."""
    return _sums(_plan(polys, variables), states)


def _eval_rational_batch(pairs, variables, states) -> tuple[np.ndarray, np.ndarray]:
    """num/den of each (num, den) pair at each state, as RationalFunction.eval
    divides them, and the mask of the states where no denominator vanishes
    (where eval raises)."""
    polys = [num for num, _ in pairs] + [den for _, den in pairs]
    nums, dens = np.split(eval_batch(polys, variables, states), 2)
    with np.errstate(all="ignore"):
        return nums / dens, np.logical_and.reduce(dens != 0)


def _steps(m: BirationalMap, points: list, h: float, direction: str, steps: int) -> list:
    """Append ``steps`` windows to ``points`` by the map's generated stepper."""
    if len(points[-1]) != m.dim:
        raise ValueError(f"state has {len(points[-1])} values, the map's window {m.dim}")
    if steps < 0:
        raise ValueError(f"steps must be at least 0, not {steps}")
    m._stepper(h, direction)(points, steps)
    return points


def step(m: BirationalMap, state: Sequence[float], h: float) -> list[float]:
    """One forward application of the map at step size h (float path), as
    ``iterate`` steps but at the state's own values: an int or Fraction
    state is not rounded first.  Raises SingularStep where an orbit ends."""
    return [float(v) for v in _steps(m, [state], h, "forward", 1)[-1]]


def step_back(m: BirationalMap, state: Sequence[float], h: float) -> list[float]:
    """One application of the inverse map (solved from the lowest shifts)."""
    return [float(v) for v in _steps(m, [state], h, "backward", 1)[-1]]


def eval_exact(
    m: BirationalMap, state: Sequence[Fraction | int], h: Fraction
) -> list[Fraction]:
    """Exact-rational forward step through the symbolic solution."""
    if m.forward is None:
        raise ValueError("no symbolic forward map available")
    point: dict[Var, Fraction] = {v: Fraction(s) for v, s in zip(m.state_vars, state)}
    point[m.scheme.step] = Fraction(h)
    return [rf.eval(point) for rf in m.forward]


@dataclass
class Orbit:
    h: float
    points: list[list[float]]
    status: str = "complete"
    singular_step: int | None = None

    def column(self, i: int) -> list[float]:
        return [p[i] for p in self.points]


def iterate(m: BirationalMap, state: Sequence[float], h: float, steps: int) -> Orbit:
    """Iterate the map from the state rounded to floats, in one call of the
    generated stepping function; a singular step ends the orbit with a status,
    not an exception, since birational maps legitimately have indeterminacy loci."""
    points = [[float(v) for v in state]]
    try:
        _steps(m, points, h, "forward", steps)
    except SingularStep:
        k = len(points)
        return Orbit(h, points, status=f"singular-at-step {k}", singular_step=k)
    return Orbit(h, points)


def orbit_residuals(m: BirationalMap, orbit: Orbit) -> list[float]:
    """Scheme residuals on the windows (point k, last level of point k+1),
    each normalized by its largest term; a non-finite window gives nan/inf."""
    if set(map(len, orbit.points)) != {m.dim}:
        raise ValueError(f"orbit points need the map's {m.dim} values each")
    _numpy()
    points = np.fromiter(itertools.chain.from_iterable(orbit.points), float).reshape(-1, m.dim)
    key = ("residuals", float(orbit.h))
    if key not in m._cache:
        slots, consts = _level_slots(m.N, range(m.n + 1)), {m.scheme.step: key[1]}
        m._cache[key] = _batch_plan([_compile(e, slots, consts) for e in m.scheme.equations])
    plan, worst = m._cache[key], np.empty(len(points) - 1)
    with np.errstate(all="ignore"):
        # The window of point k is its slots, then the last level of point k + 1.
        for cut, terms, sums in _gathered(plan, [*points[:-1].T, *points[1:, -m.N :].T], len(worst)):
            scale = np.array([np.maximum.reduce(abs(terms[a:b])) for a, b in plan[-1]])
            worst[cut] = np.max(abs(sums) / np.maximum(scale, 1.0), axis=0)
    return worst.tolist()


# -- derivatives and spectra ----------------------------------------------------


def jacobian(
    m: BirationalMap,
) -> tuple[list[list[RationalFunction]], RationalFunction]:
    """Exact Jacobian matrix of the forward map and its determinant, built
    once per map and cached: callers must not mutate the returned lists.
    Row i < dim - N is the unit row (1 at column i + N); only the N solved
    rows are differentiated.  Moving them up takes N (dim - N) row swaps, and
    their level-0 block is -A^-1 B at x_n = Phi (A free of x_n, B of x_0), so
    det = (-1)^(N (dim - N) + N) det B(Phi) / det A: one ``_compose`` of
    ``solve_forward``'s det B, no expansion; at N = 1 the block is its one
    entry, -det B(Phi) / det A already, which costs less than the compose."""
    if m.forward is None:
        raise ValueError("no symbolic forward map available")
    if "jacobian" not in m._cache:
        k, (det_top, det_bottom) = m.dim - m.N, m._dets
        J = [[RationalFunction(int(c == i + m.N)) for c in range(m.dim)] for i in range(k)]
        J += [rf.gradient(m.state_vars) for rf in m.forward[k:]]
        if m.N == 1:
            det = -J[k][0]
        else:
            solved = {x(j, m.n): rf for j, rf in enumerate(m.forward[k:], 1)}
            (num,), den = _compose((det_bottom,), solved, {})
            det = RationalFunction(num, den * det_top)
        m._cache["jacobian"] = (J, -det if m.N * (k + 1) % 2 else det)
    return m._cache["jacobian"]


def _partials(m: BirationalMap) -> tuple[list[list[Polynomial]], list[list[Polynomial]]]:
    """E's partials by the window's coordinates (N x dim), and by the highest
    shift, which is ``_top``'s A: E = A x_n + r is linear in x_n."""
    return [[e.derivative(v) for v in m.state_vars] for e in m.scheme.equations], m._top[0]


def _jacobian_values(m: BirationalMap, states, images, h: float) -> tuple[np.ndarray, np.ndarray]:
    """DPhi at each float window state, states x dim x dim, and the mask of
    the states where A is regular.  Differentiating E(state, Phi_n(state))
    = 0 gives the solved rows, -A^-1 dE/dx at (state, x_n), from one plan
    per map of E's partials (``_partials``, h its last column), with x_n
    read from ``images``, each state's window as the caller stepped it; the
    unit rows are 1.0, 0.0.  At N = 1 a row is a division, as the stepper's;
    at N >= 2 the rows come from one batched ``np.linalg.solve``.
    Tolerance: on windows in [-1, 1]^dim at h = 1/10, each entry is within
    1e-13 of the exact DPhi at the float state, relative to the largest
    entry of its row; the error grows with A's condition number."""
    _numpy()
    N, dim = m.N, m.dim
    if "partials_plan" not in m._cache:
        dx, A = _partials(m)
        variables = [*m.state_vars, *(x(j, m.n) for j in range(1, N + 1)), m.scheme.step]
        m._cache["partials_plan"] = _plan([*itertools.chain(*dx, *A)], variables)
    values = _sums(m._cache["partials_plan"], [[*s, *image[-N:], h] for s, image in zip(states, images)])
    dx, A = values[: N * dim].T.reshape(-1, N, dim), values[N * dim :].T.reshape(-1, N, N)
    with np.errstate(all="ignore"):
        if N == 1:
            ok, rows = A[:, 0, 0] != 0, -dx / A
        else:
            ok = np.ones(len(states), dtype=bool)
            try:
                rows = np.linalg.solve(A, -dx)
            except np.linalg.LinAlgError:  # some A is singular: solve state by state
                rows = np.zeros_like(dx)
                for i in range(len(A)):
                    try:
                        rows[i] = np.linalg.solve(A[i], -dx[i])
                    except np.linalg.LinAlgError:
                        ok[i] = False
    out = np.zeros((len(states), dim, dim))
    out[:, range(dim - N), range(N, dim)] = 1.0
    out[:, dim - N :] = rows
    return out, ok


def linearize_at(m: BirationalMap, p: Sequence[float], h: float) -> np.ndarray:
    """Numeric Jacobian at an (approximate) fixed point of the map; raises
    NotFixedPoint when one step moves a coordinate of p by more than 1e-9,
    and DenominatorVanished where A is singular at p.  The step's image
    gives ``_jacobian_values`` its x_n, so it works at every N."""
    image = step(m, p, h)
    err = max(abs(a - b) for a, b in zip(image, p))
    if err > 1e-9:
        raise NotFixedPoint(f"|m(p) - p| = {err:.3e} exceeds 1e-09")
    values, ok = _jacobian_values(m, [p], [image], float(h))
    if not ok[0]:
        raise DenominatorVanished(f"A is singular at {dict(zip([*m.state_vars, m.scheme.step], [*p, h]))}")
    return values[0]


@dataclass
class SpectrumReport:
    char_coeffs: list[float]  # monic, highest power first
    roots: list[complex]
    palindromic_defect: float
    classification: list[str]  # per root: "inside" | "unit" | "outside"
    residual: float


def char_poly_and_roots(M: np.ndarray) -> SpectrumReport:
    """Characteristic polynomial via Faddeev-LeVerrier, roots via
    Durand-Kerner with deterministic starting points on a scaled circle,
    stopped at relative residual 1e-12 (1e-8 is accepted after
    ``_ROOT_MAX_ITER`` sweeps).  A root group whose mean has modulus within
    ``UNIT_TOL`` = 1e-7 of 1 is classified "unit".  A non-finite coefficient
    (from a non-finite M, or an overflow) raises NoConvergence."""
    _numpy()
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"spectrum helper needs a square matrix, got shape {M.shape}")
    d = M.shape[0]
    if d > 8:
        raise ValueError("spectrum helper is intended for dimension <= 8")
    coeffs = [1.0]
    Mk = np.array(M)
    with np.errstate(all="ignore"):  # a non-finite coefficient raises below
        for k in range(1, d + 1):
            ck = -np.trace(Mk) / k
            coeffs.append(float(ck))
            if k < d:
                Mk = M @ (Mk + ck * np.eye(d))
    if bad := [f"c{k} = {c}" for k, c in enumerate(coeffs) if not math.isfinite(c)]:
        raise NoConvergence(f"characteristic coefficients are not finite: {', '.join(bad)}")
    roots, residual = _durand_kerner(coeffs)
    scale = max(abs(c) for c in coeffs)
    defect = max(abs(coeffs[k] - coeffs[d - k]) for k in range(d + 1)) / scale
    # The iteration leaves an m-fold root split about (residual * scale)^(1/m), m <= d:
    # chain roots within 4 times the m = d spread into groups, classified by their mean.
    spread = 4 * (residual * scale) ** (1 / max(d, 1))
    group = list(range(d))
    for i, j in itertools.combinations(range(d), 2):
        if abs(roots[i] - roots[j]) <= spread:
            group = [group[i] if g == group[j] else g for g in group]
    classes = []
    for g in group:
        members = [z for z, k in zip(roots, group) if k == g]
        r = abs(sum(members) / len(members))
        if abs(r - 1.0) <= UNIT_TOL:
            classes.append("unit")
        elif r < 1.0:
            classes.append("inside")
        else:
            classes.append("outside")
    return SpectrumReport(
        char_coeffs=coeffs,
        roots=roots,
        palindromic_defect=float(defect),
        classification=classes,
        residual=residual,
    )


def _polyval(coeffs: Sequence[float], z: complex) -> complex:
    out = 0j
    for c in coeffs:
        out = out * z + c
    return out


def _durand_kerner(coeffs: Sequence[float]) -> tuple[list[complex], float]:
    d = len(coeffs) - 1
    if d == 0:
        return [], 0.0
    scale = max(1.0, max(abs(c) for c in coeffs))
    radius = 1.0 + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0])
    # Offset angle keeps the start away from real-axis root symmetry.
    roots = [
        radius * complex(math.cos(2 * math.pi * k / d + 0.4), math.sin(2 * math.pi * k / d + 0.4))
        for k in range(d)
    ]
    values = [_polyval(coeffs, z) for z in roots]  # p at the roots: each sweep's numerators
    for _ in range(_ROOT_MAX_ITER):
        new_roots = []
        moved = 0.0
        for k, z in enumerate(roots):
            denom = complex(coeffs[0])
            for j, w in enumerate(roots):
                if j != k:
                    denom *= z - w
            if denom == 0:
                denom = 1e-300
            dz = values[k] / denom
            new_roots.append(z - dz)
            moved = max(moved, abs(dz))
        roots = new_roots
        values = [_polyval(coeffs, z) for z in roots]
        residual = max(map(abs, values)) / scale
        if residual <= 1e-12 or moved < 1e-16:
            break
    else:
        if residual > 1e-8:
            raise NoConvergence(f"root iteration stalled at residual {residual:.3e}")
    return sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12))), residual


# -- continuum-limit validation ---------------------------------------------------


@dataclass
class ConvergenceReport:
    hs: list[float]
    errors: list[float]
    slope: float
    excluded: list[float] = field(default_factory=list)


def first_order_field(sys: PolyOdeSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Vector field of the equivalent first-order system on (x, x', ..)."""
    _numpy()
    n, N = sys.order, sys.dim
    slots = {x(j): j - 1 for j in range(1, N + 1)}  # _compile rejects unbound parameters
    values = _straight_line([_compile(p, slots, {}) for p in sys.rhs])

    def field(y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        out[: (n - 1) * N] = y[N:]
        out[(n - 1) * N :] = values(y)
        return out

    return field


def reference_solution(
    sys: PolyOdeSystem,
    init: Sequence[float],
    times: Sequence[float],
    max_step: float,
) -> list[np.ndarray]:
    """High-accuracy samples of the continuous solution at given times.

    Classical one-step 4th-order integration at ``max_step``, repeated at
    half the step; the two runs must agree, which guards against an
    untrustworthy oracle, and the half-step samples are returned.  A sample
    that overflows or is nan is NoConvergence, without a numpy warning.
    """
    field = first_order_field(sys)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _rk4_samples(field, init, times, max_step)
        finer = _rk4_samples(field, init, times, max_step / 2.0)
        if not all(np.isfinite(s).all() for s in samples + finer):
            raise NoConvergence("reference oracle is not finite")
        if finer:
            gap = max(float(np.max(np.abs(a - b))) for a, b in zip(samples, finer))
            scale = max(1.0, max(float(np.max(np.abs(s))) for s in samples))
            if gap / scale > 1e-8:  # an inf gap fails too
                raise NoConvergence(f"reference oracle self-check gap {gap:.3e}")
            samples = finer
    return samples


def _rk4_samples(field, init, times, max_step: float) -> list[np.ndarray]:
    """Classical RK4 for y' = field(y), y(0) = init, sampled at each time; a
    span > 0 from the time before (0 first) takes equal steps <= max_step."""
    out, y, t = [], np.array(init, dtype=float), 0.0
    for tk in times:
        if (span := tk - t) > 0:
            m = max(1, math.ceil(span / max_step))
            dt = span / m
            for _ in range(m):
                k1 = field(y)
                k2 = field(y + 0.5 * dt * k1)
                k3 = field(y + 0.5 * dt * k2)
                k4 = field(y + dt * k3)
                y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = tk
        out.append(y.copy())
    return out


def convergence_order(
    sys: PolyOdeSystem,
    init: Sequence[float],
    T: float,
    hs: Sequence[float],
) -> ConvergenceReport:
    """Measured order of the scheme against the high-accuracy oracle.

    The window is seeded from the continuous initial-value problem (initial
    position and derivatives), the map is iterated to time T, and the slope
    of log(error) against log(h) is fit by least squares.  The oracle steps
    at a hundredth of the smallest h and checks the windows and the state at
    T alike.  Steps where the map hits a singularity are excluded and
    reported; an h that does not divide T (to 1e-9 T) raises ValueError."""
    for h in hs:
        if abs(round(T / h) * h - T) > 1e-9 * T:
            raise ValueError(f"h = {h!r} does not divide T = {T!r}")
    n, N = sys.order, sys.dim
    m = solve_forward(discretize(sys))
    oracle_step = min(hs) / 100.0
    ref_T = reference_solution(sys, init, [T], oracle_step)[0]
    hs_used: list[float] = []
    errors: list[float] = []
    excluded: list[float] = []
    for h in hs:
        window_times = [k * h for k in range(n)]
        window_states = reference_solution(sys, init, window_times, oracle_step)
        state = [float(s[j]) for s in window_states for j in range(N)]
        steps = round(T / h)
        orbit = iterate(m, state, h, steps)
        if orbit.status != "complete":
            excluded.append(h)
            continue
        # After s steps the first block sits at time s*h.
        err = max(abs(orbit.points[-1][j] - ref_T[j]) for j in range(N))
        hs_used.append(h)
        errors.append(err)
    positive = [(h, e) for h, e in zip(hs_used, errors) if e > 0]
    if len(positive) >= 2:
        slope = float(
            np.polyfit(
                np.log([h for h, _ in positive]), np.log([e for _, e in positive]), 1
            )[0]
        )
    else:
        slope = float("nan")
    return ConvergenceReport(hs=hs_used, errors=errors, slope=slope, excluded=excluded)
