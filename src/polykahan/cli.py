"""Command-line front end: discretize systems, iterate orbits, search for
Darboux polynomials, and analyze the beam cases, emitting CSV, SVG and text
reports.

Polynomial text syntax: a term is a product of factors joined by ``*``;
``x3`` is state component 3 at shift 0, each apostrophe shifts forward
(``x1''`` is component 1 at shift +2), each leading underscore shifts
backward (``_x1`` is shift -1), and any other identifier (``a``, ``h``) is
a parameter.  Exponents use a caret (``x1^3``) or, after apostrophes, bare
digits (``x1'2``).  Coefficients are integers, fractions (``3/2``) or
decimals (``0.1``, read exactly).  Terms are joined by runs of signs, and the
signs of a run multiply (``x1--x2`` is x1 + x2); a sign with no term after
it is an error.

Config files are plain ``key = value`` lines; ``#`` starts a comment.
Values with commas are vectors (beam weight vectors, initial windows);
unrecognized numeric keys become system parameters.  Every config error,
those of ``init``, ``plot`` and the command's own checks included, exits 2
before any file is written.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import cases, darboux, maps
from .poly import Monomial, Polynomial, Var, param, x
from .scheme import H, ImplicitScheme, PolyOdeSystem, discretize


class ParseError(ValueError):
    def __init__(self, reason: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{reason}")


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Polynomial text parser
# ---------------------------------------------------------------------------

_STATE_RE = re.compile(r"^(_*)x(\d+)('*)(?:\^(\d+)|(\d+))?$")
_PARAM_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")
_NUMBER_RE = re.compile(r"^(\d+(?:/\d+)?|\d*\.\d+)$")


def parse_poly(text: str, line: int | None = None) -> Polynomial:
    """Parse the polynomial text syntax described in the module docstring."""
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise ParseError("empty polynomial", line)
    terms: list[tuple[Monomial, Fraction]] = []
    # each term is a run of signs and a body; the last match is the empty one at the end
    for signs, body in re.findall(r"([+-]*)([^+-]*)", compact)[:-1]:
        chunk = signs + body
        if not body:
            raise ParseError(f"dangling sign in {chunk!r}", line)
        coeff = Fraction((-1) ** signs.count("-"))
        factors: list[tuple[Var, int]] = []
        for factor in body.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}", line)
            m = _NUMBER_RE.match(factor)
            if m:
                coeff *= _fraction(factor, line)
                continue
            m = _STATE_RE.match(factor)
            if m:
                unders, comp, ticks, exp_caret, exp_bare = m.groups()
                # bare digits can only follow apostrophes; otherwise the
                # greedy component match has already absorbed them
                exp = int(exp_caret or exp_bare or 1)
                if int(comp) == 0:  # x0 is the library's constant 1, not a state
                    raise ParseError("state components start at 1", line)
                factors.append((x(int(comp), len(ticks) - len(unders)), exp))
                continue
            m = _PARAM_RE.match(factor)
            if m:
                name, exp = m.groups()
                factors.append((param(name), int(exp or 1)))
                continue
            raise ParseError(f"cannot parse factor {factor!r}", line)
        try:
            terms.append((Monomial.from_pairs(factors), coeff))
        except ValueError as e:  # an exponent beyond poly.MAX_EXPONENT
            raise ParseError(str(e), line) from None
    return Polynomial(terms)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# Each preset's parameter groups, each a dict of the keys it reads with their
# defaults.  A beam preset reads its general load a, b, c or its normal form
# (with epsilon) delta; the normal form is used when neither is given.
_PRESET_PARAMS = {
    "lv": ({"alpha": 1},),
    "quartic": ({"a": 1, "b": 2, "c": 3, "d": 5},),
    "weierstrass": ({"b": 1, "d": -1},),  # d < 0: the default orbit circles x = sqrt(-d/b)
    "beam-sym": ({"a": 1, "b": -2, "c": Fraction(3, 4)}, {"delta": Fraction(1, 4)}),
    "beam-lag": ({"a": 1, "b": -2, "c": Fraction(3, 4)}, {"delta": Fraction(1, 4)}),
}
PRESETS = tuple(_PRESET_PARAMS)
_BEAM_KEYS = ("alpha", "beta", "epsilon")  # the weight vectors and the normal-form sign


@dataclass
class RunConfig:
    preset: str | None = None
    rhs_text: list[str] = field(default_factory=list)
    _rhs_line: int | None = field(default=None, init=False, compare=False)  # rhs's config line
    order: int | None = None
    dim: int | None = None
    params: dict[str, Fraction] = field(default_factory=dict)
    h: Fraction = Fraction(1, 10)
    steps: int = 1000
    init: list[float] | None = None
    init_ode: list[float] | None = None
    out: str = "."
    darboux_maxdeg: int = 4
    epsilon: int | None = None  # None when unset, so that setting it where it is not read fails
    alpha: tuple | None = None
    beta: tuple | None = None
    seed: int = 7
    plot: tuple[int, int] | None = None  # None: (0, 1), or (0, 0) on a one-dimensional map

    def validate(self):
        if bool(self.preset) == bool(self.rhs_text):
            raise ValidationError("exactly one of 'preset' and 'rhs' is required")
        if self.preset and self.preset not in PRESETS:
            raise ValidationError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.rhs_text and self.order is None:
            raise ValidationError("inline systems need 'order'")
        if self.h <= 0:
            raise ValidationError("h must be positive")
        if self.steps < 0:
            raise ValidationError("steps must be >= 0")
        if self.darboux_maxdeg < 0:
            raise ValidationError("darboux_maxdeg must be >= 0")
        if self.epsilon not in (None, 1, -1):
            raise ValidationError("epsilon must be +1 or -1")
        beam = self.preset in ("beam-sym", "beam-lag")
        beam_keys = [] if beam else [k for k in _BEAM_KEYS if getattr(self, k) is not None]
        if self.preset:
            groups = _PRESET_PARAMS[self.preset]
            unread = sorted(self.params.keys() - set().union(*groups))
            unread += [key for key in ("order", "dim") if getattr(self, key) is not None]
            unread += beam_keys
            if unread:
                reads = " or ".join(" ".join(sorted(g)) for g in groups)
                raise ValidationError(
                    f"preset {self.preset} does not read {', '.join(unread)}; it reads {reads}"
                )
        elif beam_keys:
            raise ValidationError(
                f"inline systems do not read {', '.join(beam_keys)}; only the beam presets do"
            )
        if beam:
            mixed, normal = (sorted(g.keys() & self.params.keys()) for g in groups)
            if self.epsilon is not None:
                normal.insert(0, "epsilon")
            if normal and mixed:
                raise ValidationError(
                    f"the beam load is a, b, c or epsilon, delta: not {', '.join(normal)} with {mixed}"
                )
        for name, vec, size in (("alpha", self.alpha, 6), ("beta", self.beta, 4)):
            if vec is not None:
                if len(vec) != size:
                    raise ValidationError(f"{name} needs {size} entries")
                if sum(vec) != 1:
                    raise ValidationError(f"{name} entries must sum to 1")


def _fraction(value: str, line: int | None) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a number, got {value!r}", line) from None


def _float(value: str, line: int) -> float:
    try:
        return float(_fraction(value, line))
    except OverflowError:
        raise ParseError(f"{value!r} is too large for a float", line) from None


def _integer(value: str, line: int) -> int:
    q = _fraction(value, line)
    if q.denominator != 1:
        raise ParseError(f"expected an integer, got {value!r}", line)
    return int(q)


def _floats(value: str, line: int) -> list[float]:
    return [_float(v.strip(), line) for v in value.split(",")]


_READERS = {  # the RunConfig fields that one key sets, each with the reader of its value
    **dict.fromkeys(("preset", "out"), lambda value, line: value),
    **dict.fromkeys(("order", "dim", "steps", "darboux_maxdeg", "epsilon", "seed"), _integer),
    **dict.fromkeys(("init", "init_ode"), _floats),
    "h": _fraction,
}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ParseError(f"missing value for {key!r}", lineno)
        if key in _READERS:
            setattr(cfg, key, _READERS[key](value, lineno))
        elif key == "rhs":
            cfg.rhs_text = [part.strip() for part in value.split(";") if part.strip()]
            cfg._rhs_line = lineno
        elif key == "plot":
            parts = [_integer(v.strip(), lineno) for v in value.split(",")]
            if len(parts) != 2:
                raise ParseError("plot needs two coordinate indices", lineno)
            cfg.plot = (parts[0], parts[1])
        elif key in ("alpha", "beta") and "," in value:
            vec = tuple(_fraction(v.strip(), lineno) for v in value.split(","))
            setattr(cfg, key, vec)
        elif re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", key):
            cfg.params[key] = _fraction(value, lineno)
        else:
            raise ParseError(f"unrecognized key {key!r}", lineno)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Case assembly
# ---------------------------------------------------------------------------


@dataclass
class CaseBundle:
    system: PolyOdeSystem | None
    scheme: ImplicitScheme
    map: maps.BirationalMap  # h symbolic
    invariant_pair: tuple[Polynomial, Polynomial] | None = None  # (density, partner)
    default_init: list[float] | None = None
    beam_sym: cases.BeamSymmetricCase | None = None
    beam_lag: cases.BeamLagrangianCase | None = None


def build_case(cfg: RunConfig) -> CaseBundle:
    if cfg.rhs_text:
        rhs = tuple(parse_poly(t, cfg._rhs_line) for t in cfg.rhs_text)
        dim = len(rhs) if cfg.dim is None else cfg.dim
        sys_ = PolyOdeSystem(cfg.order, dim, rhs)
        sch = discretize(sys_)
        m = maps.solve_forward(sch)
        if cfg.params:
            m = m.bind(cfg.params)
        return CaseBundle(sys_, sch, m)
    groups = _PRESET_PARAMS[cfg.preset]  # validate() admits the keys of one group only
    group = next((g for g in groups if g.keys() & cfg.params.keys()), groups[-1])
    p = {**group, **cfg.params}
    if cfg.preset == "lv":
        case = cases.lotka_volterra(**p)
        return CaseBundle(case.system, case.scheme, case.map, default_init=[1.2, 0.9])
    if cfg.preset == "quartic":
        case = cases.quartic_oscillator(cases.QuarticParams(**p, h=cfg.h))
        pair = (case.density_poly, case.invariant_poly)
        return CaseBundle(case.system, case.scheme, case.map, pair, default_init=[0.31, 0.30])
    if cfg.preset == "weierstrass":
        case = cases.kahan_weierstrass(**p, h=cfg.h)
        pair = (case.pencil.P1, case.pencil.P2)
        return CaseBundle(
            case.system, case.additive_scheme, case.additive_map, pair, default_init=[1.05, 1.1]
        )
    weights = {k: v for k in ("alpha", "beta") if (v := getattr(cfg, k))}  # unset: cases' defaults
    if "delta" in p:
        bp = cases.BeamParams.normal_form(cfg.epsilon or 1, h=cfg.h, **weights, **p)
    else:
        bp = cases.BeamParams(h=cfg.h, **weights, **p)
    if cfg.preset == "beam-sym":
        case = cases.beam_symmetric(bp)
        return CaseBundle(case.system, case.scheme, case.map, default_init=[1.1] * 4, beam_sym=case)
    case = cases.beam_lagrangian(bp)
    return CaseBundle(None, case.scheme, case.map, default_init=[1.1] * 4, beam_lag=case)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def write_csv(path: Path, orbit: maps.Orbit, names: list[str]):
    """Write ``orbit.csv``: a ``step,<state names>`` header, then per point its step and each
    value's ``repr``, Python's shortest round-trip text, each row one ``%`` format."""
    row = "%d," + ",".join(["%r"] * len(names)) + "\n"
    lines = ["step," + ",".join(names) + "\n"]
    lines += [row % (k, *pt) for k, pt in enumerate(orbit.points)]
    path.write_text("".join(lines))


def write_svg(path: Path, xs: list[float], ys: list[float]):
    """Write ``phase.svg``: the points scaled into a 640 x 480 frame (a constant column by 1)
    with coordinates to 3 decimals, one polyline through them and, when there are at most
    200, a dot at each; the polyline and the dots are one ``%`` format each."""
    width, height, margin = 640.0, 480.0, 40.0
    xmin, ymin = min(xs), min(ys)
    xspan = (max(xs) - xmin) or 1.0
    yspan = (max(ys) - ymin) or 1.0
    xsize, ysize, bottom = width - 2 * margin, height - 2 * margin, height - margin
    coords = tuple(chain.from_iterable([
        (margin + (a - xmin) / xspan * xsize, bottom - (b - ymin) / yspan * ysize)
        for a, b in zip(xs, ys)
    ]))
    pts = " ".join(["%.3f,%.3f"] * len(xs)) % coords
    body = f'  <polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="0.8"/>\n'
    if len(xs) <= 200:
        body += '  <circle cx="%.3f" cy="%.3f" r="1.6" fill="#a83232"/>\n' * len(xs) % coords
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'  <rect width="100%" height="100%" fill="white"/>\n'
        f"{body}</svg>\n"
    )
    path.write_text(svg)


# ---------------------------------------------------------------------------
# Analyses feeding the report
# ---------------------------------------------------------------------------


def _orbit_start(bundle: CaseBundle, cfg: RunConfig) -> list[float]:
    """The orbit's initial window, after the checks of init, init_ode and plot."""
    if cfg.init_ode is not None:  # init_ode fixes the window; it wins over init
        if bundle.system is None:
            raise ValidationError("init_ode needs a polynomial system")
        # One sample per window level; the map's N components lead each
        # sample (the weierstrass map steps x alone, its system is in (x, p)).
        times = [k * float(cfg.h) for k in range(bundle.map.n)]
        samples = maps.reference_solution(bundle.system, cfg.init_ode, times, float(cfg.h) / 100.0)
        init = [float(s[j]) for s in samples for j in range(bundle.map.N)]
    else:
        init = cfg.init or bundle.default_init
        if init is None:
            raise ValidationError("this run needs 'init' (window values)")
    if len(init) != bundle.map.dim:
        raise ValidationError(f"init needs {bundle.map.dim} values, got {len(init)}")
    if cfg.plot and not all(0 <= k < bundle.map.dim for k in cfg.plot):
        raise ValidationError(f"plot indices must lie in 0..{bundle.map.dim - 1}, got {cfg.plot}")
    return init


def orbit_section(bundle: CaseBundle, cfg: RunConfig, out: Path, init: list[float]) -> list[str]:
    h = float(cfg.h)
    orbit = maps.iterate(bundle.map, init, h, cfg.steps)
    write_csv(out / "orbit.csv", orbit, [f"x{v.comp}_{v.shift}" for v in bundle.map.state_vars])
    i, j = cfg.plot or (0, min(1, bundle.map.dim - 1))
    write_svg(out / "phase.svg", orbit.column(i), orbit.column(j))
    lines = [
        "[orbit]",
        f"initial = {init}",
        f"h = {h!r}",
        f"steps requested = {cfg.steps}",
        f"points = {len(orbit.points)}",
        f"status = {orbit.status}",
    ]
    if orbit.points[1:]:
        res = maps.orbit_residuals(bundle.map, orbit)
        worst = max(res) if all(map(math.isfinite, res)) else math.nan
        lines.append(f"max scheme residual = {worst!r}")
    if bundle.invariant_pair is not None:
        states = [pt + [h] for pt in orbit.points]
        variables = [*bundle.map.state_vars, H]
        (ratio,), ok = maps._eval_rational_batch([bundle.invariant_pair[::-1]], variables, states)
        vals = ratio[ok].tolist()
        if vals:
            k0 = vals[0]
            drift = max(abs(v - k0) for v in vals) / max(abs(k0), 1e-300)
            lines.append(f"conserved ratio at start = {k0!r}")
            lines.append(f"conserved ratio max relative drift = {drift!r}")
    return lines


def darboux_section(bundle: CaseBundle, cfg: RunConfig) -> list[str]:
    m = bundle.map.bind({"h": cfg.h})
    certs = darboux.find_darboux(m, cfg.darboux_maxdeg)
    lines = [
        "[darboux]",
        f"degree bound = {cfg.darboux_maxdeg}",
        f"solution space dimension = {len(certs)}",
    ]
    for k, cert in enumerate(certs):
        lines.append(f"P[{k}] = {cert.to_text()}")
        lines.append(f"P[{k}] witness identically zero = {cert.valid}")
    if len(certs) >= 2:
        try:
            integral = darboux.first_integral(certs[0], certs[1])
            lines.append(f"first integral P[1]/P[0] = {integral}")
        except darboux.CofactorMismatch as e:
            lines.append(f"first integral check failed: {e}")
        measure = darboux.invariant_measure(certs[0])
        lines.append(f"invariant measure = {measure}")
    return lines


def beam_section(bundle: CaseBundle, cfg: RunConfig) -> list[str]:
    # Both beam maps are analyzed: the preset's from the bundle, the other built here.
    sym_case = bundle.beam_sym or cases.beam_symmetric(bundle.beam_lag.params)
    lag_case = bundle.beam_lag or cases.beam_lagrangian(sym_case.params)
    p = sym_case.params
    lines = ["[beam]"]
    lines.append(f"load: a = {p.a}, b = {p.b}, c = {p.c}, h = {p.h}")
    measure = cases.beam_measure_check(sym_case, seed=cfg.seed)
    lines.append(f"shift-averaged: load symmetry G == H exact = {measure.symmetry_holds}")
    lines.append(f"shift-averaged: max |det - density ratio| rel = {measure.max_rel_gap!r}")
    symp = cases.symplecticity_check(lag_case, seed=cfg.seed)
    lines.append(f"variational: symplectic defect = {symp.defect!r} over {symp.samples} states")
    try:
        for which, case in (("symmetric", sym_case), ("lagrangian", lag_case)):
            rep = cases.beam_fixed_point_analysis(case)
            sp = rep.spectra[rep.primary]
            lines.append(f"{which}: fixed points w = {sorted(rep.fixed_points)}")
            lines.append(f"{which}: primary w* = {rep.primary!r}")
            lines.append(f"{which}: continuous growth rate = {rep.continuous_growth!r}")
            lines.append(f"{which}: characteristic coefficients = {[repr(c) for c in sp.char_coeffs]}")
            lines.append(f"{which}: palindromic defect = {sp.palindromic_defect!r}")
            roots = ", ".join(f"{z.real!r}{z.imag:+}j (|.|={abs(z)!r})" for z in sp.roots)
            lines.append(f"{which}: eigenvalues = {roots}")
            lines.append(f"{which}: classification = {sp.classification}")
            lines.append(f"{which}: exact residual at w* = {rep.exact_residual_ok}")
    except cases.NoRealFixedPoint as e:
        lines.append(f"fixed points: none ({e})")
    return lines


def scheme_section(bundle: CaseBundle) -> list[str]:
    lines = ["[scheme]"]
    for i, e in enumerate(bundle.scheme.equations):
        lines.append(f"E[{i}] = 0 with E[{i}] = {e}")
    if bundle.map.forward is not None:
        lines += ["[map]", str(bundle.map)]
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    elif args.preset:
        cfg = RunConfig(preset=args.preset)
        cfg.validate()
    else:
        raise ValidationError("need --config or --preset")
    if args.out:
        cfg.out = args.out
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use (not at import)."""
    parser = argparse.ArgumentParser(
        prog="polykahan",
        description="Discretize polynomial ODEs and analyze the resulting birational maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("discretize", "print the implicit scheme and solved map"),
        ("orbit", "iterate the map; write orbit.csv, phase.svg, report.txt"),
        ("darboux", "search for Darboux polynomials of the planar map"),
        ("analyze-beam", "measure, symplecticity and spectra of the beam maps"),
        ("report", "run every analysis that applies to the configuration"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="path to a key = value configuration file")
        p.add_argument("--preset", choices=PRESETS, help="named case with defaults")
        p.add_argument("--out", help="output directory (default: current)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args.command, _load_config(args))
    # NotFixedPoint and NoRealFixedPoint are ValueErrors, so this comes first
    except (ArithmeticError, maps.NotFixedPoint, cases.NoRealFixedPoint) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


def _run(command: str, cfg: RunConfig) -> int:
    # validate() checks the exact h > 0; these commands step at float(h).
    if command in ("orbit", "analyze-beam", "report"):
        try:
            h = float(cfg.h)
        except OverflowError:
            raise ValidationError("h is above the float range") from None
        if h == 0.0:
            raise ValidationError("h is below the float range: it rounds to 0.0")
    # Every check runs before --out is made, so that a config error writes nothing.
    bundle = build_case(cfg)
    needs_beam = cfg.preset in ("beam-sym", "beam-lag")
    if command == "darboux" and bundle.map.dim != 2:
        raise ValidationError("darboux search needs a two-dimensional map")
    if command == "analyze-beam" and not needs_beam:
        raise ValidationError("analyze-beam needs a beam preset")
    init = _orbit_start(bundle, cfg) if command in ("orbit", "report") else None
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    sections: list[str] = ["[config]"]
    sections.append(f"preset = {cfg.preset or 'inline'}")
    for k in sorted(cfg.params):
        sections.append(f"param {k} = {cfg.params[k]}")
    sections.append(f"h = {cfg.h}")
    # report runs, in this order, each single command's section that applies
    if command in ("discretize", "report"):
        sections += scheme_section(bundle)
    if command in ("orbit", "report"):
        sections += orbit_section(bundle, cfg, out, init)
    if command in ("darboux", "report") and bundle.map.dim == 2:
        sections += darboux_section(bundle, cfg)
    if command in ("analyze-beam", "report") and needs_beam:
        sections += beam_section(bundle, cfg)
    report = "\n".join(sections) + "\n"
    (out / "report.txt").write_text(report)
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
