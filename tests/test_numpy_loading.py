"""numpy is loaded by the first float call, never by the exact layer."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from polykahan import cases, maps
from polykahan.poly import Polynomial, x
from polykahan.scheme import PolyOdeSystem

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


def test_the_exact_layer_and_commands_leave_numpy_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", _EXACT_RUN, str(tmp_path)], check=True,
                   env=env, capture_output=True)


@pytest.fixture(scope="module")
def beam():
    p = cases.BeamParams.normal_form(1, Fraction(1, 4), Fraction(1, 10))
    return cases.beam_symmetric(p), cases.beam_lagrangian(p)


@pytest.fixture(scope="module")
def lv():
    return cases.lotka_volterra(1).map


X = Polynomial.var(x(1))
CUBIC = PolyOdeSystem(2, 1, (-(X**3),))

FLOAT_ENTRY_POINTS = {
    "step": lambda lv, beam: maps.step(lv, [1.2, 0.9], 0.1),
    "step_back": lambda lv, beam: maps.step_back(lv, [1.2, 0.9], 0.1),
    "iterate": lambda lv, beam: maps.iterate(lv, [1.2, 0.9], 0.1, 5),
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
