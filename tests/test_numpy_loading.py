"""numpy is loaded by the first call that uses it: never by the exact layer
or by stepping, only by the batch kernels, spectra and checks, and by a
singular N >= 2 step for its condition number."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from polykahan import cases, maps
from polykahan.poly import Polynomial, x
from polykahan.scheme import PolyOdeSystem, discretize

_EXACT_RUN = """
import sys
from fractions import Fraction
import polykahan, polykahan.cases, polykahan.cli
from polykahan import cases, cli
lv = cases.lotka_volterra(1).map.bind({"h": Fraction(1, 10)})
assert len(polykahan.find_darboux(lv, 2)) == 1
for command in ("discretize", "darboux"):
    assert cli.main([command, "--preset", "quartic", "--out", sys.argv[1]]) == 0
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


_STEPPING_RUN = """
import math, sys
from fractions import Fraction
from polykahan import cases, maps
from polykahan.poly import Polynomial, x
from polykahan.scheme import PolyOdeSystem, discretize
X1, X2, X3 = (Polynomial.var(x(i)) for i in (1, 2, 3))
euler_top = PolyOdeSystem(1, 3, (X2 * X3, -2 * X3 * X1, X1 * X2))
runs = [
    (cases.quartic_oscillator(cases.QuarticParams(1, 2, 3, 5, Fraction(1, 10))).map, [0.31, 0.30]),
    (cases.lotka_volterra(1).map, [1.2, 0.9]),
    (maps.solve_forward(discretize(euler_top)), [1.0, 0.5, 0.3]),
]
for m, state in runs:
    back = maps.step_back(m, maps.step(m, state, 0.1), 0.1)
    assert all(math.isclose(b, s, rel_tol=1e-9) for b, s in zip(back, state)), (back, state)
    assert maps.iterate(m, state, 0.1, 1000).status == "complete"
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def _run(script: str, *args: str):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script, *args], check=True, env=env, capture_output=True)


def test_the_exact_layer_and_commands_leave_numpy_unloaded(tmp_path):
    _run(_EXACT_RUN, str(tmp_path))


def test_stepping_at_n_1_2_and_3_leaves_numpy_unloaded():
    _run(_STEPPING_RUN)


@pytest.fixture(scope="module")
def beam():
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    return cases.beam_symmetric(p), cases.beam_lagrangian(p)


@pytest.fixture(scope="module")
def lv():
    return cases.lotka_volterra(1).map


X = Polynomial.var(x(1))
CUBIC = PolyOdeSystem(2, 1, (-(X**3),))


# A state where the N = 2 solve of either direction is singular.
SINGULAR = [1e300, 1e10]


def _singular_step(stepper):
    def entry(lv, beam):
        with pytest.raises(maps.SingularStep) as raised:
            stepper(lv, SINGULAR, 0.1)
        assert math.isfinite(raised.value.condition)

    return entry


def _singular_iterate(lv, beam):
    assert maps.iterate(lv, SINGULAR, 0.1, 5).status == "singular-at-step 1"


# Stepping loads numpy only at a singular step, for its condition number.
FLOAT_ENTRY_POINTS = {
    "step": _singular_step(maps.step),
    "step_back": _singular_step(maps.step_back),
    "iterate": _singular_iterate,
    "eval_batch": lambda lv, beam: maps.eval_batch([X], [x(1)], [[2.0]]),
    "orbit_residuals": lambda lv, beam: maps.orbit_residuals(lv, maps.Orbit(0.1, [[1.2, 0.9]] * 2)),
    "linearize_at": lambda lv, beam: maps.linearize_at(lv, [1.0, 1.0], 0.1),
    "char_poly_and_roots": lambda lv, beam: maps.char_poly_and_roots([[2.0, 0.0], [0.0, 0.5]]),
    "first_order_field": lambda lv, beam: maps.first_order_field(CUBIC)([0.5, 0.0]),
    "reference_solution": lambda lv, beam: maps.reference_solution(CUBIC, [0.5, 0.0], [0.1], 0.05),
    "convergence_order": lambda lv, beam: maps.convergence_order(CUBIC, [0.5, 0.0], 0.2, [0.1, 0.05]),
    "beam_measure_check": lambda lv, beam: cases.beam_measure_check(beam[0], n_points=2),
    "symplecticity_check": lambda lv, beam: cases.symplecticity_check(beam[1], n_states=2),
    "beam_fixed_point_analysis": lambda lv, beam: cases.beam_fixed_point_analysis(beam[0]),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRY_POINTS)
def test_each_float_entry_point_loads_numpy_when_it_is_the_first_float_call(
    monkeypatch, lv, beam, entry
):
    # Under pytest numpy may be loaded already: unbind what the loader binds.
    for name in maps._NUMPY_NAMES:
        monkeypatch.delattr(maps, name, raising=False)
    FLOAT_ENTRY_POINTS[entry](lv, beam)
    assert all(name in vars(maps) for name in maps._NUMPY_NAMES)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_no_generated_stepper_names_numpy(lv, beam, direction):
    X2, X3 = Polynomial.var(x(2)), Polynomial.var(x(3))
    euler_top = maps.solve_forward(discretize(PolyOdeSystem(1, 3, (X2 * X3, -2 * X3 * X, X * X2))))
    cubic = maps.solve_forward(discretize(CUBIC))
    for m in (cubic, lv, euler_top, beam[0].map, beam[1].map):
        assert "np" not in m._stepper(0.1, direction).__code__.co_names
