import argparse
import hashlib
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polykahan import cases, cli, darboux, maps
from polykahan.cli import (
    ParseError,
    RunConfig,
    ValidationError,
    build_case,
    main,
    parse_config,
    parse_poly,
    write_csv,
    write_svg,
)
from polykahan.poly import MAX_EXPONENT, Monomial, Polynomial, param, x


def mono(*pairs):
    return Polynomial.monomial(Monomial.from_pairs(list(pairs)))


def test_parse_poly_shift_and_exponent_forms():
    p = parse_poly("3/2*x1'2*x2")
    expected = Fraction(3, 2) * mono((x(1, 1), 2), (x(2, 0), 1))
    assert p == expected
    assert parse_poly("x1''") == Polynomial.var(x(1, 2))
    assert parse_poly("_x1") == Polynomial.var(x(1, -1))
    assert parse_poly("__x2") == Polynomial.var(x(2, -2))
    assert parse_poly("x1'^2") == Polynomial.var(x(1, 1)) ** 2


def test_parse_poly_parameters_and_signs():
    p = parse_poly("-a*x1^3 - x1 + 2")
    a = Polynomial.var(param("a"))
    X = Polynomial.var(x(1))
    assert p == -a * X**3 - X + 2


def test_parse_poly_repeated_signs_multiply():
    X1, X2 = Polynomial.var(x(1)), Polynomial.var(x(2))
    assert parse_poly("x1--x2") == X1 + X2
    assert parse_poly("x1 - - x2") == X1 + X2
    assert parse_poly("--x1") == X1
    assert parse_poly("x1 + -x2") == X1 - X2
    system = build_case(parse_config("rhs = x1--x1\norder = 1\n")).system
    assert system.rhs == (2 * X1,)


@pytest.mark.parametrize("text", ["x1-", "-", "+", "x1 + "])
def test_parse_poly_rejects_a_dangling_sign(text):
    with pytest.raises(ParseError, match="dangling sign"):
        parse_poly(text)


def test_parse_poly_decimal_coefficients_exact():
    assert parse_poly("0.1*h") == Fraction(1, 10) * Polynomial.var(param("h"))


def test_parse_poly_component_digits_bind_greedily():
    assert parse_poly("x12") == Polynomial.var(x(12))


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x1**2")
    with pytest.raises(ParseError):
        parse_poly("3$x")
    with pytest.raises(ParseError):
        parse_poly("x1'^")  # caret without digits


@pytest.mark.parametrize("text", ["x0", "x00", "x0^2*x1 + x0", "_x0", "x0'"])
def test_parse_poly_rejects_component_zero(text):
    # x0 is the library's dummy variable, identically 1: read as a state it vanishes
    with pytest.raises(ParseError, match="state components start at 1") as err:
        parse_poly(text, line=3)
    assert err.value.line == 3


def test_an_inline_rhs_with_component_zero_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rhs = x0*x1\norder = 1\ninit = 1\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: line 1: state components start at 1\n"


def test_an_inline_rhs_parse_error_names_its_line_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order = 1\nrhs = x1**2\ninit = 1\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: line 2: empty factor in term 'x1**2'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rhs", [
    f"x1^{MAX_EXPONENT + 1}",
    f"x1^{MAX_EXPONENT}*x1",  # the factors of a term add up beyond the limit
], ids=["one-factor", "summed"])
def test_an_exponent_the_packed_field_cannot_hold_is_a_parse_error(tmp_path, capsys, rhs):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"order = 1\nrhs = {rhs}\ninit = 1\n")
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: line 2: exponent {MAX_EXPONENT + 1} of x1 is not in 1..{MAX_EXPONENT}\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    ("rhs = x1^3\norder = 1\n", "rhs[0] has state degree 3 > 2"),
    ("rhs = x1; x2\norder = 1\ndim = 3\n", "need one right-hand side per component"),
    ("rhs = x1*x1'\norder = 1\n", "rhs[0] contains shifted variable x1'"),
    ("rhs = 1/0*x1\norder = 1\n", "line 1: expected a number, got '1/0'"),
    ("rhs = x1\norder = 1\ndim = 0\n", "order and dim must be >= 1"),
    ("rhs = x1\n", "inline systems need 'order'"),
    ("rhs = x1 +\norder = 1\n", "line 1: dangling sign in '+'"),
], ids=["degree", "count", "shifted", "zero-denominator", "dim-zero", "no-order", "dangling-sign"])
def test_an_invalid_inline_system_exits_2_and_writes_nothing(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_parse_config_quartic():
    cfg = parse_config(
        """
        # quartic run
        preset = quartic
        a = 1
        b = 2
        c = 3
        d = 5
        h = 0.1
        steps = 1000
        """
    )
    assert cfg.preset == "quartic"
    assert cfg.params == {"a": 1, "b": 2, "c": 3, "d": 5}
    assert cfg.h == Fraction(1, 10)
    assert cfg.steps == 1000


def test_parse_config_inline_system():
    cfg = parse_config("order = 2\nrhs = -a*x1^3\na = 1")
    assert cfg.order == 2
    assert cfg.rhs_text == ["-a*x1^3"]


@pytest.mark.parametrize("text, key, value", [
    ("preset = lv\nseed = 10.0", "seed", 10),
    ("preset = lv\nh = 0.1", "h", Fraction(1, 10)),
    ("preset = lv\ninit = 1, 2", "init", [1.0, 2.0]),
    ("preset = lv\ninit_ode = 1/2, 0", "init_ode", [0.5, 0.0]),
    ("preset = beam-sym\nepsilon = -1", "epsilon", -1),
    ("preset = lv\nout = runs/lv 1.x", "out", "runs/lv 1.x"),
    ("preset = lv\ndarboux_maxdeg = 2", "darboux_maxdeg", 2),
    ("rhs = x1\norder = 1\ndim = 1", "dim", 1),
], ids=["seed", "h", "init", "init_ode", "epsilon", "out", "darboux_maxdeg", "dim"])
def test_parse_config_reads_each_key_to_its_type(text, key, value):
    read = getattr(parse_config(text), key)
    assert (read, repr(read)) == (value, repr(value))  # repr tells 10 from 10.0, entries too


def test_an_inline_system_built_in_code_builds_the_same_case():
    read = build_case(parse_config("order = 2\nrhs = -a*x1^3; x1\na = 1"))
    made = build_case(RunConfig(rhs_text=["-a*x1^3", "x1"], order=2, params={"a": Fraction(1)}))
    assert made.system.rhs == read.system.rhs == (-mono((param("a"), 1), (x(1), 3)), mono((x(1), 1)))
    assert made.scheme.equations == read.scheme.equations
    assert made.map.forward == read.map.forward


def test_each_inline_rhs_part_is_parsed_once(tmp_path, monkeypatch):
    parsed = []

    def counting(text, line=None):
        parsed.append((text, line))
        return parse_poly(text, line)

    monkeypatch.setattr(cli, "parse_poly", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order = 1\nrhs = x1*x2; -x1\ninit = 1, 1\nsteps = 3\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert parsed == [("x1*x2", 2), ("-x1", 2)]


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("preset = quartic\nsteps == 4\n")
    assert err.value.line == 2


def test_validation_alpha_sum():
    with pytest.raises(ValidationError):
        parse_config("preset = beam-lag\nalpha = 0.1,0.1,0.1,0.1,0.1,0.1")


def test_validation_requires_exactly_one_source():
    with pytest.raises(ValidationError):
        parse_config("steps = 5")
    with pytest.raises(ValidationError):
        parse_config("preset = quartic\nrhs = x1\norder = 1")


def test_validation_rejects_bad_preset_and_h():
    with pytest.raises(ValidationError):
        parse_config("preset = nope")
    with pytest.raises(ValidationError):
        parse_config("preset = lv\nh = 0")
    with pytest.raises(ValidationError):
        parse_config("preset = lv\nsteps = -3")


def test_orbit_run_writes_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = quartic\nsteps = 50\n")
    code = main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    csv = (tmp_path / "out" / "orbit.csv").read_text().splitlines()
    assert csv[0] == "step,x1_0,x1_1"
    assert len(csv) == 52
    assert (tmp_path / "out" / "phase.svg").read_text().startswith("<svg")
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "conserved ratio max relative drift" in report


def test_orbit_deterministic(tmp_path):
    for out in ("o1", "o2"):
        code = main(["report", "--preset", "quartic", "--out", str(tmp_path / out)])
        assert code == 0
    for name in ("orbit.csv", "phase.svg", "report.txt"):
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        assert a == b


def test_orbit_zero_steps_single_row(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = quartic\nsteps = 0\n")
    code = main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "z")])
    assert code == 0
    csv = (tmp_path / "z" / "orbit.csv").read_text().splitlines()
    assert len(csv) == 2


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = beam-lag\nalpha = 0.4,0.1,0.1,0.1,0.1,0.1\nbeta = 0,0,0,0.5\n")
    assert main(["analyze-beam", "--config", str(cfg)]) == 2
    assert main(["orbit", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["darboux", "--preset", "beam-sym", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("plot", ["0, 5", "-1, 0"])
def test_plot_indices_outside_the_map_are_config_errors(tmp_path, capsys, plot):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"preset = quartic\nplot = {plot}\n")
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err.startswith("config error: plot indices")
    assert not (tmp_path / "p").exists()


def test_a_one_dimensional_map_plots_its_coordinate_against_itself(tmp_path, capsys):
    cfg = tmp_path / "scalar.cfg"
    cfg.write_text("rhs = x1\norder = 1\ninit = 1\nsteps = 3\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    cfg.write_text("rhs = x1\norder = 1\ninit = 1\nsteps = 3\nplot = 0, 0\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "explicit")]) == 0
    svg = (tmp_path / "s" / "phase.svg").read_bytes()
    assert svg == (tmp_path / "explicit" / "phase.svg").read_bytes() and b"<polyline" in svg
    cfg.write_text("rhs = x1\norder = 1\ninit = 1\nplot = 0, 1\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert "plot indices must lie in 0..0, got (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def _write_csv_reference(path, orbit, names):
    """write_csv with a generator, repr and join per row: the oracle of its row format."""
    lines = ["step," + ",".join(names)]
    for k, pt in enumerate(orbit.points):
        lines.append(str(k) + "," + ",".join(repr(v) for v in pt))
    path.write_text("\n".join(lines) + "\n")


def _write_svg_reference(path, xs, ys):
    """write_svg with a closure and an f-string per point: the oracle of its
    two formats."""
    width, height, margin = 640.0, 480.0, 40.0
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    def sx(v):
        return margin + (v - xmin) / xspan * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - ymin) / yspan * (height - 2 * margin)

    pts = " ".join(f"{sx(a):.3f},{sy(b):.3f}" for a, b in zip(xs, ys))
    body = (
        f'  <polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="0.8"/>\n'
    )
    if len(xs) <= 200:
        dots = "".join(
            f'  <circle cx="{sx(a):.3f}" cy="{sy(b):.3f}" r="1.6" fill="#a83232"/>\n'
            for a, b in zip(xs, ys)
        )
        body += dots
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'  <rect width="100%" height="100%" fill="white"/>\n'
        f"{body}</svg>\n"
    )
    path.write_text(svg)


class _Sink:
    """Stands in for the Path a writer writes to, and keeps the text."""

    def write_text(self, text):
        self.text = text


# -0.0, subnormals, and values that repr writes in exponent form
_EDGE_FLOATS = [-0.0, 5e-324, -2.5e-310, 1e16, -3.0e17, 9.99e-5, -1e-300, 1.7e308, 0.1]
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


@st.composite
def _orbits(draw):
    """Orbits of 1-300 points in 1-4 coordinates, any of them constant."""
    n = draw(st.integers(1, 200) | st.integers(201, 300))  # both sides of the dots threshold
    dim = draw(st.integers(1, 4))
    columns = []
    for _ in range(dim):
        if draw(st.booleans()):
            columns.append([draw(_finite)] * n)
        else:
            columns.append(draw(st.lists(_finite, min_size=n, max_size=n)))
    return [list(pt) for pt in zip(*columns)]


@settings(max_examples=40, deadline=None)
@given(_orbits())
@example([[v, 2.5] for v in _EDGE_FLOATS] * 22 + [[1.0, 2.5]] * 2)  # 200 points, y constant
@example([[v, -v] for v in _EDGE_FLOATS] * 22 + [[1.0, 2.5]] * 3)  # 201 points
@example([[0.3]])
def test_the_writers_match_their_reference_construction(points):
    orbit = maps.Orbit(0.1, points)
    names = [f"x{k}_0" for k in range(len(points[0]))]
    for writer, reference, args in (
        (write_csv, _write_csv_reference, (orbit, names)),
        (write_svg, _write_svg_reference, (orbit.column(0), orbit.column(len(names) - 1))),
    ):
        got, want = _Sink(), _Sink()
        writer(got, *args)
        reference(want, *args)
        assert got.text == want.text


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    bad = (["nope"], ["report", "--preset", "nope"])

    def failures():
        seen = []
        for argv in (*bad, ["--help"], ["report", "--help"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            seen.append((exit_.value.code, *capsys.readouterr()))
        return seen

    first = failures()
    assert [code for code, _, _ in first] == [2, 2, 0, 0]
    assert all(err.startswith("usage: polykahan") for _, _, err in first[:2])
    assert "{discretize,orbit,darboux,analyze-beam,report}" in first[2][1]
    assert main(["report", "--preset", "lv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert failures() == first
    commands = ("discretize", "orbit", "darboux", "analyze-beam", "report")
    assert built == ["polykahan", *(f"polykahan {c}" for c in commands)]  # one tree


def _no_convergence(command, cfg):
    raise maps.NoConvergence("stalled")


@pytest.mark.parametrize("case,code", [
    ("overflow", 2), ("out_is_a_file", 2), ("not_utf8", 2), ("no_convergence", 3),
])
def test_failures_exit_with_one_stderr_line(tmp_path, capsys, monkeypatch, case, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = quartic\n")
    out = tmp_path / "out"
    if case == "overflow":
        cfg.write_text("preset = quartic\nh = 1e400\n")
    elif case == "out_is_a_file":
        out.write_text("")
    elif case == "not_utf8":
        cfg.write_bytes(b"preset = quartic\n# \xff\xfe\n")
    else:
        monkeypatch.setattr("polykahan.cli._run", _no_convergence)
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("command, text, message", [
    # found after the case is built: at the orbit's start or by the command
    ("report", "rhs = x1\norder = 1\n", "this run needs 'init' (window values)"),
    ("report", "rhs = x1\norder = 1\ninit = 1, 2\n", "init needs 1 values, got 2"),
    ("report", "preset = lv\nplot = 0,5\n", "plot indices must lie in 0..1, got (0, 5)"),
    ("report", "preset = beam-lag\ninit_ode = 1, 0\n", "init_ode needs a polynomial system"),
    ("analyze-beam", "preset = lv\n", "analyze-beam needs a beam preset"),
    ("darboux", "preset = beam-sym\n", "darboux search needs a two-dimensional map"),
    # found while the config is read
    ("report", "preset = beam-sym\nepsilon = 2\n", "epsilon must be +1 or -1"),
    ("report", "preset = beam-sym\nalpha = 1,0\n", "alpha needs 6 entries"),
    ("report", "preset = lv\nsteps 5\n", "line 2: expected 'key = value', got 'steps 5'"),
    ("report", "preset = lv\nh =\n", "line 2: missing value for 'h'"),
    ("report", "preset = lv\nplot = 1\n", "line 2: plot needs two coordinate indices"),
    ("report", "preset = lv\n1x = 2\n", "line 2: unrecognized key '1x'"),
    ("report", None, "need --config or --preset"),
], ids=[
    "no-init", "init-length", "plot", "init_ode-without-system", "analyze-beam-not-beam",
    "darboux-not-planar", "epsilon", "alpha-length", "no-equals", "no-value", "plot-one-index",
    "bad-key", "no-source",
])
def test_a_config_error_exits_2_before_any_file_is_written(tmp_path, capsys, command, text, message):
    args = [command, "--out", str(tmp_path / "o")]
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_inline_report(tmp_path):
    cfg = tmp_path / "inline.cfg"
    cfg.write_text(
        "rhs = -a*x1^3\norder = 2\na = 1\nh = 0.05\nsteps = 40\ninit = 0.4, 0.41\n"
    )
    code = main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 0
    report = (tmp_path / "r" / "report.txt").read_text()
    assert "[scheme]" in report and "[map]" in report and "[darboux]" in report


def test_beam_report_contains_defects(tmp_path):
    code = main(["analyze-beam", "--preset", "beam-lag", "--out", str(tmp_path / "b")])
    assert code == 0
    report = (tmp_path / "b" / "report.txt").read_text()
    assert "symplectic defect" in report
    assert "palindromic defect" in report
    assert "G == H exact = True" in report


def test_discretize_subcommand(tmp_path):
    code = main(["discretize", "--preset", "lv", "--out", str(tmp_path / "d")])
    assert code == 0
    report = (tmp_path / "d" / "report.txt").read_text()
    assert "E[0] = 0" in report


_COMMAND_SECTIONS = {
    "discretize": ("[scheme]", "[map]"),
    "orbit": ("[orbit]",),
    "darboux": ("[darboux]",),
    "analyze-beam": ("[beam]",),
}


def _report_sections(path):
    """report.txt's text per section, keyed by the section's header line."""
    sections = {}
    for line in path.read_text().splitlines(keepends=True):
        if re.fullmatch(r"\[[a-z]+\]\n", line):
            header = line.strip()
            sections[header] = ""
        sections[header] += line
    return sections


@pytest.mark.parametrize("command, preset", [
    ("discretize", "lv"), ("orbit", "lv"), ("darboux", "quartic"), ("analyze-beam", "beam-sym"),
])
def test_each_command_writes_the_config_and_its_own_sections_of_the_report(tmp_path, command, preset):
    for run in ("report", command):
        assert main([run, "--preset", preset, "--out", str(tmp_path / run)]) == 0
    report = _report_sections(tmp_path / "report" / "report.txt")
    single = (tmp_path / command / "report.txt").read_text()
    assert single == "".join(report[k] for k in ("[config]", *_COMMAND_SECTIONS[command]))


def test_unbound_inline_parameter_is_config_error(tmp_path):
    cfg = tmp_path / "u.cfg"
    cfg.write_text("rhs = -a*x1^3\norder = 2\nsteps = 5\ninit = 0.1, 0.1\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "u")]) == 2


@pytest.mark.parametrize("preset,start,drift", [
    ("quartic", "0.06391949743677315", "1.9062568048683039e-13"),
    ("weierstrass", "-0.014285822500000264", "1.3357269583704072e-13"),
])
def test_conserved_ratio_lines_pinned(tmp_path, preset, start, drift):
    assert main(["orbit", "--preset", preset, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert f"conserved ratio at start = {start}" in lines
    assert f"conserved ratio max relative drift = {drift}" in lines


def test_non_finite_residual_prints_nan(tmp_path, monkeypatch):
    # Python's max over a list holding nan depends on where the nan sits
    monkeypatch.setattr(maps, "orbit_residuals", lambda m, orbit: [0.0, math.nan, 1e-16])
    assert main(["orbit", "--preset", "quartic", "--out", str(tmp_path)]) == 0
    assert "max scheme residual = nan" in (tmp_path / "report.txt").read_text().splitlines()


# Term insertion order of the scheme equations and of the linear system for
# the top shift.  The compiled float evaluator adds terms in this order, so a
# change here moves the last bits of orbit.csv and of the residuals.
_TERM_ORDER = {
    "quartic": {
        "equations": [
            ["x1", "x1'", "x1''", "x1*x1'*x1''*h^2", "x1*x1'*h^2", "x1*x1''*h^2",
             "x1'*x1''*h^2", "x1*h^2", "x1'*h^2", "x1''*h^2", "h^2"],
        ],
        "top_A": [[["1", "x1*x1'*h^2", "x1*h^2", "x1'*h^2", "h^2"]]],
        "top_r": [["x1", "x1'", "x1*x1'*h^2", "x1*h^2", "x1'*h^2", "h^2"]],
    },
    "lv": {
        "equations": [
            ["x1", "x1'", "x1*h", "x1'*h", "x1*x2'*h", "x1'*x2*h"],
            ["x2", "x2'", "x1*x2'*h", "x1'*x2*h", "x2*h", "x2'*h"],
        ],
        "top_A": [[["1", "h", "x2*h"], ["x1*h"]], [["x2*h"], ["1", "x1*h", "h"]]],
        "top_r": [["x1", "x1*h"], ["x2", "x2*h"]],
    },
}


@pytest.mark.parametrize("preset", sorted(_TERM_ORDER))
def test_term_order_pinned(preset):
    def order(p):
        return [str(m) for m, _ in p.terms()]

    bundle = build_case(RunConfig(preset=preset))
    A, r = bundle.map._top
    assert {
        "equations": [order(e) for e in bundle.scheme.equations],
        "top_A": [[order(q) for q in row] for row in A],
        "top_r": [order(q) for q in r],
    } == _TERM_ORDER[preset]


@pytest.mark.parametrize("key,value", [
    ("steps", "10.7"),
    ("order", "5/2"),
    ("dim", "1.5"),
    ("darboux_maxdeg", "2.9"),
    ("epsilon", "1.5"),
    ("seed", "7/2"),
    ("plot", "0, 1.5"),
])
def test_integer_keys_reject_non_integers(tmp_path, key, value):
    text = f"preset = quartic\n{key} = {value}\n"
    with pytest.raises(ParseError, match="expected an integer") as err:
        parse_config(text)
    assert err.value.line == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_integer_keys_accept_integer_values():
    cfg = parse_config("preset = quartic\nsteps = 10.0\nseed = -3\nplot = 1, 0\n")
    assert (cfg.steps, cfg.seed, cfg.plot) == (10, -3, (1, 0))


@pytest.mark.parametrize("coeff", ["a = 2", "b = -3", "c = 1"])
def test_beam_load_is_coefficients_or_normal_form(tmp_path, coeff):
    text = f"preset = beam-sym\ndelta = 1/4\n{coeff}\n"
    with pytest.raises(ValidationError):
        parse_config(text)
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text(text)
    assert main(["analyze-beam", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert parse_config(f"preset = beam-lag\n{coeff}\n").params
    assert parse_config("preset = beam-lag\ndelta = 1/4\n").params


def test_analyze_beam_uses_the_configured_load(tmp_path):
    # 2 w^4 - 3 w^2 + 1 = (2 w^2 - 1)(w^2 - 1); the normal form's defaults
    # would give +-sqrt(3/2) instead of +-1
    cfg = tmp_path / "load.cfg"
    cfg.write_text("preset = beam-sym\na = 2\nb = -3\nc = 1\n")
    assert main(["analyze-beam", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "load: a = 2, b = -3, c = 1, h = 1/10" in lines
    r = math.sqrt(0.5)
    for which in ("symmetric", "lagrangian"):
        assert f"{which}: fixed points w = {[-1.0, -r, r, 1.0]}" in lines
        assert f"{which}: primary w* = 1.0" in lines
        assert f"{which}: continuous growth rate = {2 ** 0.25!r}" in lines
        assert f"{which}: exact residual at w* = True" in lines


def test_analyze_beam_reports_a_constant_load_without_fixed_points(tmp_path):
    cfg = tmp_path / "load.cfg"
    cfg.write_text("preset = beam-sym\na = 0\nb = 0\nc = 1\n")
    assert main(["analyze-beam", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "fixed points: none (the load is the constant 1: no isolated fixed point)" in lines


@pytest.mark.parametrize("preset", ["beam-sym", "beam-lag"])
def test_beam_report_builds_each_map_once(tmp_path, monkeypatch, preset):
    solved, derivatives = [], []
    solve_forward, gradient = maps.solve_forward, maps.RationalFunction.gradient

    def counting_solve(scheme):
        solved.append(scheme)
        return solve_forward(scheme)

    def counting_gradient(rf, vs):
        derivatives.append(vs)
        return gradient(rf, vs)

    monkeypatch.setattr(maps, "solve_forward", counting_solve)
    monkeypatch.setattr(cases, "solve_forward", counting_solve)
    monkeypatch.setattr(maps.RationalFunction, "gradient", counting_gradient)
    assert main(["report", "--preset", preset, "--out", str(tmp_path)]) == 0
    # one shift-averaged and one variational map, and no rational function
    # differentiated: the float DPhi comes from the scheme's partials
    assert len(solved) == 2 and solved[0].equations != solved[1].equations
    assert derivatives == []


@pytest.mark.parametrize("preset", ["beam-sym", "beam-lag"])
def test_no_float_path_builds_a_symbolic_jacobian(tmp_path, monkeypatch, preset):
    def refused(m):
        raise AssertionError("a float path built the symbolic Jacobian")

    monkeypatch.setattr(maps, "jacobian", refused)
    monkeypatch.setattr(darboux, "jacobian", refused)
    bundle = build_case(parse_config(f"preset = {preset}\n"))
    sym = bundle.beam_sym or cases.beam_symmetric(bundle.beam_lag.params)
    lag = bundle.beam_lag or cases.beam_lagrangian(sym.params)
    assert cases.beam_measure_check(sym).max_rel_gap < 1e-9
    assert cases.symplecticity_check(lag).defect < 1e-6
    for case in (sym, lag):
        rep = cases.beam_fixed_point_analysis(case)
        w = rep.primary
        assert maps.linearize_at(case.map, [w] * 4, float(case.params.h)).shape == (4, 4)
    assert main(["report", "--preset", preset, "--out", str(tmp_path)]) == 0


# SHA-256 of the default report files at seed 1, of the beam presets' at
# seed 7 too, and of one inline system's.  A change that moves a byte of them
# changes reported results, and updates these with its reason.
DEFAULT_REPORT_SHA256 = {
    "lv/orbit.csv": "0ac7f54687737409bf123f1371d5c5cc609a4fa740ceb4e696ed39032d04db85",
    "lv/phase.svg": "2dbcb6ce7a45fe8236bc05fafb4475d6f0b46377f96dfcbee3c5d93c1b07b0a1",
    "lv/report.txt": "f08c01893ccdde1a00d76232ec39dced1b30f18a7b9371c1526368368b972c06",
    "quartic/orbit.csv": "cfc3653dd10c0a97bc369101596240b71b4b36c2a6ded481efbaa310d78a2e0e",
    "quartic/phase.svg": "2f819ba858ee2838abc16efb0c3f54d38e16b9b2b5daf4906662815d06eb4104",
    "quartic/report.txt": "955367f263c24c7c1e40b0b5754766f7bb870d544e80db6df44de38317fb8429",
    "weierstrass/orbit.csv": "a256f2d558e6af4968bf092aa62927ead9ca3800758284b056f513c146ed8413",
    "weierstrass/phase.svg": "5622d3e01af1d4677c36c5fc3866b002001f8e377a6ee949501ce416c3d94b2a",
    "weierstrass/report.txt": "15f9a4a65469c93fb33ccfbea59e9d94f2cd7e637708d35410b535bff62e2819",
    "beam-sym/orbit.csv": "9a969a88d395c09608feee6372ecfd78c89a0f0482a435e522844fef21dae348",
    "beam-sym/phase.svg": "8bfe6ea6a1f3095651d8a1062d277790862ab6835661df3c369617f1d42da57c",
    "beam-sym/report.txt": "20487b203f935f5adecf8dea126c75189250ec046c4e7866061dc273427afa6c",
    "beam-lag/orbit.csv": "9048909a52558326f016c875a42af601d380288ce4766e1a2ada7d620114ebe0",
    "beam-lag/phase.svg": "c95743a14e42691800f2ade9a5afd9c7f6ab43a5223084b648e41786d70ea446",
    "beam-lag/report.txt": "7087518987eba3d74b6462654dc93d8c1d0f85da9592754ae2d8bee5eca5af01",
    # seed 7, the default seed; only report.txt reads it
    "beam-sym-seed7/orbit.csv": "9a969a88d395c09608feee6372ecfd78c89a0f0482a435e522844fef21dae348",
    "beam-sym-seed7/phase.svg": "8bfe6ea6a1f3095651d8a1062d277790862ab6835661df3c369617f1d42da57c",
    "beam-sym-seed7/report.txt": "a8ea3dfc26024305740e541f95f0e4287fcd5c9a2bc4ec078936efeaad333d13",
    "beam-lag-seed7/orbit.csv": "9048909a52558326f016c875a42af601d380288ce4766e1a2ada7d620114ebe0",
    "beam-lag-seed7/phase.svg": "c95743a14e42691800f2ade9a5afd9c7f6ab43a5223084b648e41786d70ea446",
    "beam-lag-seed7/report.txt": "9367801bfc61cf7b821f19a1ee14eadf3a995dabdba05c1856255aa66ed3996f",
    "inline/orbit.csv": "522ef066de6580cfab4b59c6dafc8ca0f5f42259ad8cbabd056490e4c8e7cd0e",
    "inline/phase.svg": "56d3e03662e7c7cf41942a8c86f3503df7a40ea6623166755208454644facd0e",
    "inline/report.txt": "169bb2bb349d7e57e916e0b50e20d1db61dff13566624ce4fd8f0f68323c624f",
}
# Signs, a fraction, a decimal, caret exponents and a parameter bound by a key:
# the one pinned run that goes through parse_poly.
INLINE_PINNED = (
    "rhs = -a*x1^3 + 3/2*x1^2 - 0.25*x1 - 1/8\norder = 2\na = 2\nh = 0.05\n"
    "steps = 200\ninit = 0.2, 0.21\n"
)


@pytest.mark.parametrize("run, text", [
    *(pytest.param(p, f"preset = {p}\nseed = 1\n", id=p)
      for p in ["lv", "quartic", "weierstrass", "beam-sym", "beam-lag"]),
    # the beam checks draw their sample states from the seed
    *(pytest.param(f"{p}-seed7", f"preset = {p}\nseed = 7\n", id=f"{p}-seed7")
      for p in ["beam-sym", "beam-lag"]),
    pytest.param("inline", INLINE_PINNED, id="inline"),
])
def test_default_report_files_are_pinned(tmp_path, run, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    for name in ("orbit.csv", "phase.svg", "report.txt"):
        digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert digest == DEFAULT_REPORT_SHA256[f"{run}/{name}"], name


_REPORT_EVERY_PRESET = """
import sys
from polykahan.cli import main
for preset in ("lv", "quartic", "weierstrass", "beam-sym", "beam-lag"):
    assert main(["report", "--preset", preset, "--out", f"{sys.argv[1]}/{preset}"]) == 0
"""


def test_report_files_do_not_depend_on_the_hash_seed(tmp_path):
    # Var and Monomial hash by identity, so no output may follow the order of a set.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for seed in ("0", "12345"):
        subprocess.run([sys.executable, "-c", _REPORT_EVERY_PRESET, str(tmp_path / seed)],
                       check=True, env={**env, "PYTHONHASHSEED": seed}, capture_output=True)
    for preset in ("lv", "quartic", "weierstrass", "beam-sym", "beam-lag"):
        for name in ("report.txt", "orbit.csv", "phase.svg"):
            first, second = (tmp_path / seed / preset / name for seed in ("0", "12345"))
            assert first.read_bytes() == second.read_bytes(), f"{preset}/{name}"


def openblas_on_avx2():
    """numpy's BLAS is OpenBLAS on an x86-64 host that can run its AVX2 kernels."""
    if platform.machine() != "x86_64" or not os.path.exists("/proc/cpuinfo"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    with open("/proc/cpuinfo") as f:
        return "openblas" in blas and "avx2" in f.read().split()


@pytest.mark.skipif(not openblas_on_avx2(), reason="needs numpy on OpenBLAS and an AVX2 host")
def test_the_lv_orbit_is_the_same_under_every_openblas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel when OpenBLAS loads, so each run is
    # its own process; the N = 2 step must not follow the kernel's rounding.
    for core in ("Prescott", "Haswell"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = tmp_path / core
        subprocess.run([sys.executable, "-m", "polykahan.cli", "report", "--preset", "lv",
                        "--out", str(out)], check=True, env=env, capture_output=True)
        digest = hashlib.sha256((out / "orbit.csv").read_bytes()).hexdigest()
        assert digest == DEFAULT_REPORT_SHA256["lv/orbit.csv"], core


@pytest.mark.parametrize("key", ["init", "init_ode"])
def test_a_value_too_large_for_a_float_is_a_parse_error(tmp_path, capsys, key):
    text = f"preset = quartic\n{key} = 1e400, 0\n"
    with pytest.raises(ParseError, match="too large for a float") as err:
        parse_config(text)
    assert err.value.line == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: line 2: '1e400' is too large for a float\n"


@pytest.mark.parametrize("command", ["orbit", "report", "analyze-beam"])
def test_an_h_that_rounds_to_zero_is_rejected_before_any_file(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = beam-lag\nh = 1e-400\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: h is below the float range: it rounds to 0.0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["orbit", "report", "analyze-beam"])
def test_an_h_above_the_float_range_is_rejected_before_any_file(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = beam-lag\nh = 1e400\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: h is above the float range\n"
    assert not (tmp_path / "o").exists()


def test_exact_commands_keep_an_h_below_the_float_range(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = quartic\nh = 1e-400\n")
    assert main(["discretize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert f"h = 1/{10**400}\n" in (tmp_path / "o" / "report.txt").read_text()
    cfg.write_text("preset = quartic\nh = 1e400\n")
    assert main(["discretize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert f"h = {10**400}\n" in (tmp_path / "o" / "report.txt").read_text()


@pytest.mark.parametrize("command", ["darboux", "report"])
def test_a_negative_darboux_maxdeg_is_rejected_before_any_file(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = lv\ndarboux_maxdeg = -1\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: darboux_maxdeg must be >= 0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("preset,line,unread,reads", [
    ("lv", "a = 5", "a", "alpha"),
    ("quartic", "alpha = 2", "alpha", "a b c d"),
    ("weierstrass", "a = 1", "a", "b d"),
    ("beam-sym", "d = 1", "d", "a b c or delta"),
    ("beam-lag", "alpha = 2", "alpha", "a b c or delta"),
    ("lv", "order = 2", "order", "alpha"),
    ("quartic", "dim = 1", "dim", "a b c d"),
    ("beam-lag", "order = 4\ndim = 1", "order, dim", "a b c or delta"),
])
def test_a_preset_rejects_a_key_it_does_not_read(tmp_path, capsys, preset, line, unread, reads):
    text = f"preset = {preset}\n{line}\n"
    message = f"preset {preset} does not read {unread}; it reads {reads}"
    with pytest.raises(ValidationError, match=message):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_preset_accepts_the_keys_it_reads():
    assert parse_config("preset = lv\nalpha = 2\n").params == {"alpha": 2}
    assert parse_config("preset = weierstrass\nb = 2\nd = -3\n").params == {"b": 2, "d": -3}


def test_init_ode_seeds_the_weierstrass_window_with_positions(tmp_path):
    # the map steps x on the window (x, x'); its system is first order in (x, p)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = weierstrass\ninit_ode = 1.05, 0.2\nsteps = 3\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
    initial = next(ln for ln in lines if ln.startswith("initial = "))
    values = [float(v) for v in initial.removeprefix("initial = ")[1:-1].split(",")]
    assert values == pytest.approx([1.05, 1.0694181476771458], abs=1e-9)


def test_an_inline_system_starts_from_init_ode_alone(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rhs = -x1^3\norder = 2\ninit_ode = 0.5, 0.1\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    # the value the same config gives with a dummy init = 0, 0, which init_ode overrides
    assert "initial = [0.5, 0.5093627791014232]" in (tmp_path / "o" / "report.txt").read_text()
    cfg.write_text("rhs = -x1^3\norder = 2\n")
    capsys.readouterr()
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "n")]) == 2
    assert capsys.readouterr().err == "config error: this run needs 'init' (window values)\n"


N4_CONFIG = "rhs = x2; x3; x4; -x1\norder = 1\ninit = 1, 0, 0, 0\nsteps = 20\n"


def test_a_system_above_the_symbolic_limit_reports_without_a_map_section(tmp_path):
    # N = 4 > SYMBOLIC_DIM_LIMIT: the map steps through the numeric solve alone
    cfg = tmp_path / "n4.cfg"
    cfg.write_text(N4_CONFIG)
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    lines = (tmp_path / "r" / "report.txt").read_text().splitlines()
    assert "[scheme]" in lines and "[map]" not in lines
    assert "status = complete" in lines and "points = 21" in lines
    residual = next(ln for ln in lines if ln.startswith("max scheme residual = "))
    assert float(residual.removeprefix("max scheme residual = ")) < 1e-12


def test_a_map_above_the_symbolic_limit_has_no_exact_layer():
    m = build_case(parse_config(N4_CONFIG)).map
    assert m.N > maps.SYMBOLIC_DIM_LIMIT and m.forward is None
    bound = m.bind({"h": Fraction(1, 10)})
    with pytest.raises(ValueError, match="no symbolic forward map"):
        maps.jacobian(bound)
    with pytest.raises(ValueError, match="no symbolic forward map"):
        maps.eval_exact(bound, [1, 0, 0, 0], Fraction(1, 10))
    with pytest.raises(ValueError, match="Darboux search needs the symbolic map"):
        darboux.find_darboux(bound, 1)


def test_linearize_at_works_above_the_symbolic_limit():
    # y' = A y is linear, so its Kahan map is the Cayley map (I - hA/2)^-1 (I + hA/2)
    m = build_case(parse_config(N4_CONFIG)).map
    assert m.forward is None
    A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 0.0]])
    cayley = np.linalg.solve(np.eye(4) - 0.05 * A, np.eye(4) + 0.05 * A)
    assert np.max(np.abs(maps.linearize_at(m, [0.0] * 4, 0.1) - cayley)) <= 1e-12


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings must not reach stderr
def test_a_non_finite_reference_oracle_is_a_numeric_failure(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = quartic\ninit_ode = 1e200, 0\nsteps = 3\n")
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "numeric failure: reference oracle is not finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    (
        "preset = quartic\nalpha = 1/2,1/2,0,0,0,0\nepsilon = -1\n",
        "preset quartic does not read alpha, epsilon; it reads a b c d",
    ),
    ("preset = lv\nbeta = 1/4,1/4,1/4,1/4\n", "preset lv does not read beta; it reads alpha"),
    (
        "rhs = -a*x1^3\norder = 2\na = 1\nalpha = 1/2,1/2,0,0,0,0\nepsilon = 1\n",
        "inline systems do not read alpha, epsilon; only the beam presets do",
    ),
    (
        "preset = beam-sym\na = 2\nb = -3\nc = 1\nepsilon = -1\n",
        "the beam load is a, b, c or epsilon, delta: not epsilon with ['a', 'b', 'c']",
    ),
], ids=["quartic", "lv", "inline", "beam-coefficients"])
def test_beam_only_keys_are_config_errors_where_nothing_reads_them(tmp_path, capsys, text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_a_beam_preset_reads_epsilon_with_delta_and_defaults_it_to_one():
    built = build_case(parse_config("preset = beam-sym\nepsilon = -1\ndelta = 1/2\n"))
    assert (built.beam_sym.params.b, built.beam_sym.params.c) == (2, Fraction(1, 2))
    assert build_case(parse_config("preset = beam-sym\n")).beam_sym.params.b == -2
    # a load given in part takes the rest from the defaults of its own group
    for text, load in [
        ("delta = 1/2", (1, -2, Fraction(1, 2))),
        ("epsilon = -1", (1, 2, Fraction(3, 4))),
        ("a = 2", (2, -2, Fraction(3, 4))),
        ("c = 1", (1, -2, 1)),
    ]:
        for preset in ("beam-sym", "beam-lag"):
            bundle = build_case(parse_config(f"preset = {preset}\n{text}\n"))
            p = (bundle.beam_sym or bundle.beam_lag).params
            assert (p.a, p.b, p.c) == load, (preset, text)


@pytest.mark.parametrize("preset, spelled_out", [
    ("lv", "alpha = 1"),
    ("quartic", "a = 1\nb = 2\nc = 3\nd = 5"),
    ("weierstrass", "b = 1\nd = -1"),
    ("beam-sym", "a = 1\nb = -2\nc = 3/4"),
    ("beam-lag", "a = 1\nb = -2\nc = 3/4"),
])
def test_a_preset_without_parameters_builds_with_its_defaults(preset, spelled_out):
    default = build_case(RunConfig(preset=preset))
    given = build_case(parse_config(f"preset = {preset}\n{spelled_out}\n"))
    assert default.scheme.equations == given.scheme.equations
    assert default.map.forward == given.map.forward
    assert default.system == given.system
