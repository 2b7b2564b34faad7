"""In-memory span tracing of polykahan's layers, installed from outside.

The library has no tracing of its own, so the traced run replaces the
public functions of each layer by wrappers for the duration of the run and
restores the originals afterwards.  A function is patched at every place it
is looked up: every module attribute and class attribute that holds the
original object, so ``darboux.jacobian`` (imported by name) and
``Polynomial.__rmul__`` (bound to the original function when the class was
created) are covered as well as ``maps.jacobian`` and ``Polynomial.__mul__``.

A span records its name, start, end, parent span, operation id, and the
tracer's own bookkeeping time that fell inside it.  Self time is the span's
duration, less that bookkeeping, less the same adjusted duration of its
direct children.  Counts are recorded at the same boundaries and are exact.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import polykahan
from polykahan import cases, cli, darboux, linalg, maps, poly, scheme
from polykahan.darboux import CofactorMismatch, verify_darboux
from polykahan.poly import Polynomial

MODULES = (polykahan, poly, linalg, scheme, maps, darboux, cases, cli)

# span name -> (owner holding the original, attribute name)
TARGETS = {
    "poly.mul": (Polynomial, "__mul__"),
    "poly.substitute": (Polynomial, "substitute"),
    "poly.eval": (Polynomial, "eval"),
    "linalg.nullspace": (linalg, "nullspace"),
    "linalg.det": (linalg, "det_poly"),
    "linalg.det_rational": (linalg, "det_rational"),
    "scheme.discretize": (scheme, "discretize"),
    "maps.solve_forward": (maps, "solve_forward"),
    "maps.bind": (maps.BirationalMap, "bind"),
    "maps.jacobian": (maps, "jacobian"),
    "maps.iterate": (maps, "iterate"),
    "maps.orbit_residuals": (maps, "orbit_residuals"),
    "maps.linearize_at": (maps, "linearize_at"),
    "maps.char_poly_and_roots": (maps, "char_poly_and_roots"),
    "darboux.find": (darboux, "find_darboux"),
    "cases.beam_measure_check": (cases, "beam_measure_check"),
    "cases.symplecticity_check": (cases, "symplecticity_check"),
    "cases.beam_fixed_point_analysis": (cases, "beam_fixed_point_analysis"),
    "cli.build_case": (cli, "build_case"),
    "cli.scheme_section": (cli, "scheme_section"),
    "cli.orbit_section": (cli, "orbit_section"),
    "cli.darboux_section": (cli, "darboux_section"),
    "cli.beam_section": (cli, "beam_section"),
}

# Both determinant routines report as one layer, "linalg.det".
SPAN_ALIASES = {"linalg.det_rational": "linalg.det"}

# name -> (unit, better); the order is the order of the per-layer table.
LAYER_METRICS = {
    "poly.mul.calls": ("count", "lower"),
    "poly.mul.term_pairs": ("count", "lower"),
    "poly.mul.self_s": ("s", "lower"),
    "poly.mul.max_terms": ("count", "lower"),
    "poly.mul.max_coeff_bits": ("bits", "lower"),
    "poly.substitute.calls": ("count", "lower"),
    "poly.substitute.self_s": ("s", "lower"),
    "poly.eval.calls": ("count", "lower"),
    "poly.eval.self_s": ("s", "lower"),
    "linalg.nullspace.calls": ("count", "lower"),
    "linalg.nullspace.self_s": ("s", "lower"),
    "linalg.nullspace.rows": ("count", "lower"),
    "linalg.nullspace.cols": ("count", "lower"),
    "linalg.nullspace.rank": ("count", "lower"),
    "linalg.det.calls": ("count", "lower"),
    "linalg.det.self_s": ("s", "lower"),
    "scheme.discretize.calls": ("count", "lower"),
    "scheme.discretize.self_s": ("s", "lower"),
    "maps.solve_forward.calls": ("count", "lower"),
    "maps.solve_forward.self_s": ("s", "lower"),
    "maps.jacobian.calls": ("count", "lower"),
    "maps.jacobian.self_s": ("s", "lower"),
    "maps.iterate.steps": ("count", "higher"),
    "maps.iterate.self_s": ("s", "lower"),
    "maps.orbit_residuals.windows": ("count", "higher"),
    "maps.orbit_residuals.self_s": ("s", "lower"),
    "maps.linearize_at.self_s": ("s", "lower"),
    "maps.char_poly_and_roots.self_s": ("s", "lower"),
    "maps.singular_orbits": ("count", "lower"),
    "darboux.find.s": ("s", "lower"),
    "darboux.assembly_s": ("s", "lower"),
    "darboux.ansatz_size": ("count", "lower"),
    "darboux.solution_dim": ("count", "higher"),
    "darboux.certified_ratio": ("ratio", "higher"),
    "cases.beam_measure_check.self_s": ("s", "lower"),
    "cases.symplecticity_check.self_s": ("s", "lower"),
    "cases.beam_fixed_point_analysis.self_s": ("s", "lower"),
    "cli.build_case.s": ("s", "lower"),
    "cli.scheme_section.s": ("s", "lower"),
    "cli.orbit_section.s": ("s", "lower"),
    "cli.darboux_section.s": ("s", "lower"),
    "cli.beam_section.s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _coeff_bits(p: Polynomial) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in p.terms()),
        default=0,
    )


class Tracer:
    """Spans and counts of one traced run; install() patches, restore() undoes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, inner_bookkeeping]
        self.counts: dict[str, int] = defaultdict(int)
        self.certificates: list = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._bookkeeping = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {name: owner.__dict__[attr] for name, (owner, attr) in TARGETS.items()}
        wrappers = {
            id(fn): self._wrap(SPAN_ALIASES.get(name, name), fn)
            for name, fn in originals.items()
        }
        owners = list(MODULES) + [Polynomial, maps.BirationalMap]
        # The originals stay referenced in ``originals``, so an id match is
        # an identity match.
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name: str, fn):
        """Wrap fn in a span called ``name``.  After a call returns, the
        method ``_count_<name>`` records its counts; a name without one
        counts its calls as ``<name>.calls``."""
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, 0.0]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span[1] = start = time.perf_counter()
            tracer._bookkeeping += start - enter
            inner0 = tracer._bookkeeping
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = time.perf_counter()
                stack.pop()
                span[5] = tracer._bookkeeping - inner0
            if count is not None:
                count(parent, args, kwargs, result)
            else:
                tracer.counts[name + ".calls"] += 1
            tracer._bookkeeping += time.perf_counter() - end
            return result

        return wrapper

    # -- counts recorded at the span boundaries --------------------------------

    def _count_poly_mul(self, parent, args, kwargs, result):
        if not isinstance(result, Polynomial):
            return
        a, b = args
        self.counts["poly.mul.calls"] += 1
        other = len(b.terms()) if isinstance(b, Polynomial) else 1
        self.counts["poly.mul.term_pairs"] += len(a.terms()) * other
        c = self.counts
        c["poly.mul.max_terms"] = max(c["poly.mul.max_terms"], len(result.terms()))
        c["poly.mul.max_coeff_bits"] = max(c["poly.mul.max_coeff_bits"], _coeff_bits(result))

    def _count_linalg_nullspace(self, parent, args, kwargs, result):
        rows = args[0]
        ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        c = self.counts
        c["linalg.nullspace.calls"] += 1
        c["linalg.nullspace.rows"] += len(rows)
        c["linalg.nullspace.cols"] += ncols
        c["linalg.nullspace.rank"] += ncols - len(result)

    def _count_linalg_det(self, parent, args, kwargs, result):
        # Laplace expansion recurses through the module attribute; count
        # only the outermost call, one per determinant asked for.
        if parent < 0 or self.spans[parent][0] != "linalg.det":
            self.counts["linalg.det.calls"] += 1

    def _count_maps_iterate(self, parent, args, kwargs, result):
        self.counts["maps.iterate.steps"] += len(result.points) - 1
        if result.status != "complete":
            self.counts["maps.singular_orbits"] += 1

    def _count_maps_orbit_residuals(self, parent, args, kwargs, result):
        self.counts["maps.orbit_residuals.windows"] += len(result)

    def _count_darboux_find(self, parent, args, kwargs, result):
        m, maxdeg = args
        self.counts["darboux.ansatz_size"] += math.comb(m.dim + maxdeg, maxdeg)
        self.counts["darboux.solution_dim"] += len(result)
        self.certificates.extend(result)

    # -- results ---------------------------------------------------------------

    def _own_times(self) -> list[float]:
        """Self time of each span: its duration less the tracer's bookkeeping
        inside it, less the same adjusted duration of its direct children."""
        adjusted = [end - start - inner for _, start, end, _, _, inner in self.spans]
        own = list(adjusted)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= adjusted[i]
        return own

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, self._own_times()):
            out[span[0]] += t
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Total time per span name, counting only outermost spans of a name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _, inner in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                out[name] += end - start - inner
        return out

    def assembly_time(self) -> float:
        """Darboux search time outside its nullspace and jacobian children."""
        total = 0.0
        for name, start, end, _, _, inner in self.spans:
            if name == "darboux.find":
                total += end - start - inner
        for name, start, end, parent, _, inner in self.spans:
            if name in ("linalg.nullspace", "maps.jacobian") and parent >= 0:
                if self.spans[parent][0] == "darboux.find":
                    total -= end - start - inner
        return total

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, after restore(): certificates are checked
        here with the untraced verify_darboux."""
        if self._patched:
            raise RuntimeError("restore() the tracer before reading metrics")
        own = self.self_times()
        incl = self.inclusive_times()
        certified = 0
        for cert in self.certificates:
            try:
                certified += verify_darboux(cert.P, cert.map).valid
            except CofactorMismatch:
                pass
        # No certificate returned means none was left uncertified.
        ratio = certified / len(self.certificates) if self.certificates else 1.0
        out = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = own[span]
            elif kind == "s":
                out[metric] = incl[span]
            else:
                out[metric] = self.counts[metric]
        out["maps.solve_forward.self_s"] += own["maps.bind"]
        out["darboux.assembly_s"] = self.assembly_time()
        out["darboux.certified_ratio"] = ratio
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: Path):
        """Write the spans as JSON lines: name, start, end, parent, op, self_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self._own_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as f:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "op": op,
                    "self_s": own[i],
                }
                f.write(json.dumps(rec) + "\n")
