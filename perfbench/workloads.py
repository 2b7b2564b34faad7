"""The benchmark's workloads: inputs, one pass of operations, and checks.

Each workload is built from a seed, so the same seed gives the same inputs;
the library only ever sees the generated inputs.  ``setup()`` builds them,
``run_pass()`` runs one pass of the workload's operations and times each,
and ``check()`` judges one operation's result outside the timed region.
A pass that raises is caught per operation and counted as a failure.

    darboux  exact find_darboux on five bound maps (h = 1/10)
    orbit    long float orbits through iterate, then orbit_residuals
    report   polykahan.cli.main(["report", ...]) over the five presets
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import polykahan  # noqa: E402
from polykahan import cases, cli, maps  # noqa: E402
from reference import reference_loop  # noqa: E402

if Path(polykahan.__file__).resolve().parent != ROOT / "src" / "polykahan":
    raise ImportError(f"polykahan imported from {polykahan.__file__}, not from this checkout")

H = Fraction(1, 10)


@dataclass
class Op:
    """One timed operation; ``error`` is set by an exception or a failed check.

    ``ref_s`` is the mean time of reference_loop() run just before and
    during the operation.
    """

    name: str
    seconds: float = 0.0
    result: object = None
    error: str | None = None
    ref_s: float = 0.0


class _ReferenceSampler:
    """Runs reference_loop() every PERIOD seconds of an operation, from a
    SIGALRM handler, so that an operation of many seconds is compared with
    the host's speed over its whole length.  ``spent`` is the handlers' own
    time, which the operation's time leaves out."""

    PERIOD = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _timed(name: str, fn, sample: bool) -> Op:
    """Run fn as one operation.  With ``sample`` the reference loop also runs
    during it.  Garbage left by earlier operations is collected first, so
    that an operation does not pay for the collections its predecessors
    owed."""
    gc.collect()
    ref = [reference_loop()]
    sampler = _ReferenceSampler() if sample else contextlib.nullcontext(None)
    t0 = time.perf_counter()
    try:
        with sampler:
            result = fn()
    except Exception:  # any library exception is a failed operation
        return Op(name, error=traceback.format_exc(limit=-2).strip(), ref_s=ref[0])
    seconds = time.perf_counter() - t0
    if sample:
        seconds -= sampler.spent
        ref += sampler.samples
    return Op(name, seconds, result, ref_s=statistics.mean(ref))


def euler_top_map() -> maps.BirationalMap:
    """Kahan map of the Euler top x1' = x2 x3, x2' = -2 x3 x1, x3' = x1 x2."""
    x1, x2, x3 = (polykahan.Polynomial.var(polykahan.x(i)) for i in (1, 2, 3))
    system = polykahan.PolyOdeSystem(1, 3, (x2 * x3, -2 * x3 * x1, x1 * x2))
    return polykahan.solve_forward(polykahan.discretize(system))


def build_maps() -> dict[str, maps.BirationalMap]:
    """The four maps of the darboux and orbit workloads, h still symbolic."""
    beam = cases.BeamParams.normal_form(1, Fraction(1, 4), H)
    return {
        "quartic": cases.quartic_oscillator(cases.QuarticParams(1, 2, 3, 5, H)).map,
        "lv": cases.lotka_volterra(1).map,
        "beam_sym": cases.beam_symmetric(beam).map,
        "euler_top": euler_top_map(),
    }


class Workload:
    name = ""
    min_passes = 1  # passes a run makes even when they outlast --seconds

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # set by the traced run to label spans by operation
        self.sample_reference = True  # the traced run keeps the sampler out of its spans
        self.reference: dict[str, object] = {}  # first result per op, for repeat checks

    def _op(self, name: str, fn) -> Op:
        if self.tracer is not None:
            self.tracer.op = name
        return _timed(name, fn, sample=self.sample_reference)

    def setup(self):
        raise NotImplementedError

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> str | None:
        raise NotImplementedError

    def summary(self, passes: list[tuple[float, list[Op]]]) -> list[tuple[str, float, str]]:
        """The workload's own named end-to-end figures: (name, value, unit)."""
        raise NotImplementedError


class Darboux(Workload):
    """One exact Darboux search per case, in an order drawn from the seed.

    The time goes to large Polynomial products while the search assembles
    its linear system, and to the exact nullspace of that system; the float
    layer is idle.
    """

    name = "darboux"
    # case -> (map, degree bound, solution dimension at the seed commit)
    CASES = {
        "euler_top_d2": ("euler_top", 2, 0),
        "beam_sym_d3": ("beam_sym", 3, 1),
        "beam_sym_d2": ("beam_sym", 2, 0),
        "quartic_d6": ("quartic", 6, 2),
        "lv_d3": ("lv", 3, 1),
    }

    def setup(self):
        self.maps = {k: m.bind({"h": H}) for k, m in build_maps().items()}
        self.order = sorted(self.CASES)
        random.Random(self.seed).shuffle(self.order)

    def run_pass(self) -> list[Op]:
        ops = []
        for case in self.order:
            key, degree, _ = self.CASES[case]
            ops.append(self._op(case, lambda: polykahan.find_darboux(self.maps[key], degree)))
        return ops

    def check(self, op: Op) -> str | None:
        key, _, expected = self.CASES[op.name]
        certs = op.result
        if len(certs) != expected:
            return f"solution dimension {len(certs)}, expected {expected}"
        for k, cert in enumerate(certs):
            if not cert.valid:
                return f"certificate {k} has a nonzero witness"
            try:
                polykahan.verify_darboux(cert.P, self.maps[key])
            except polykahan.CofactorMismatch as e:
                return f"certificate {k} fails verify_darboux: {e}"
        return None

    def summary(self, passes):
        out = []
        for case in self.CASES:
            times = [op.seconds for _, ops in passes for op in ops if op.name == case and not op.error]
            out.append((f"search_s.{case}", statistics.median(times) if times else float("nan"), "s"))
        return out


class Orbit(Workload):
    """Long float orbits at h = 0.1 from each map's default window, nudged by
    the seed, timed in fixed-size chunks of iterate; then orbit_residuals
    over the same windows.  Symbolic work happens only in set-up."""

    name = "orbit"
    min_passes = 2
    H_FLOAT = 0.1
    STEPS = 2000
    CHUNK = 200
    RESIDUAL_TOL = 1e-12  # seed-commit maxima are about 1e-16 to 1e-15
    WINDOWS = {
        "quartic": [0.31, 0.30],
        "lv": [1.2, 0.9],
        "beam_sym": [1.1] * 4,
        "euler_top": [1.0, 0.5, 0.3],
    }
    EXPECTED_STATUS = {k: "complete" for k in WINDOWS}

    def setup(self):
        self.maps = build_maps()
        rng = random.Random(self.seed)
        self.starts = {
            k: [v * (1 + rng.uniform(-1e-3, 1e-3)) for v in window]
            for k, window in self.WINDOWS.items()
        }
        for k, m in self.maps.items():  # compile the forward stepper
            polykahan.step(m, self.starts[k], self.H_FLOAT)

    def run_pass(self) -> list[Op]:
        return [self._op(k, lambda k=k: self._orbit(k)) for k in self.WINDOWS]

    def _orbit(self, key: str) -> dict:
        m = self.maps[key]
        points = [list(self.starts[key])]
        status = "complete"
        step_us = []
        for _ in range(self.STEPS // self.CHUNK):
            done = len(points) - 1
            t0 = time.perf_counter()
            orbit = polykahan.iterate(m, points[-1], self.H_FLOAT, self.CHUNK)
            dt = time.perf_counter() - t0
            points.extend(orbit.points[1:])
            if orbit.status != "complete":
                status = f"singular-at-step {done + orbit.singular_step}"
                break
            step_us.append(dt / self.CHUNK * 1e6)
        residual_s = 0.0
        worst = 0.0
        for i in range(0, len(points) - 1, self.CHUNK):
            chunk = polykahan.Orbit(self.H_FLOAT, points[i : i + self.CHUNK + 1])
            t0 = time.perf_counter()
            res = maps.orbit_residuals(m, chunk)
            residual_s += time.perf_counter() - t0
            worst = max(worst, max(res))
        return {
            "status": status,
            "last": points[-1],
            "max_residual": worst,
            "step_us": step_us,
            "residual_s": residual_s,
            "windows": len(points) - 1,
        }

    def check(self, op: Op) -> str | None:
        r = op.result
        if r["status"] != self.EXPECTED_STATUS[op.name]:
            return f"status {r['status']!r}, expected {self.EXPECTED_STATUS[op.name]!r}"
        if not r["max_residual"] < self.RESIDUAL_TOL:
            return f"max scheme residual {r['max_residual']!r} >= {self.RESIDUAL_TOL}"
        first = self.reference.setdefault(op.name, r["last"])
        if r["last"] != first:
            return f"orbit end {r['last']} differs from the first pass {first}"
        return None

    def summary(self, passes):
        good = [op for _, ops in passes for op in ops if not op.error]
        out = []
        for k in self.WINDOWS:
            chunks = [us for op in good if op.name == k for us in op.result["step_us"]]
            out.append((f"step_us.{k}", statistics.median(chunks) if chunks else float("nan"), "us/step"))
        pooled = []
        for _, ops in passes:
            results = [op.result for op in ops if not op.error]
            windows = sum(r["windows"] for r in results)
            if windows:
                pooled.append(sum(r["residual_s"] for r in results) / windows * 1e6)
        out.append(("residual_us", statistics.median(pooled) if pooled else float("nan"), "us/window"))
        return out


class Report(Workload):
    """polykahan.cli.main(["report", "--config", ...]) in-process, over the
    five presets in an order rotated by the seed, each config carrying the
    preset's defaults plus ``seed = <workload seed>``."""

    name = "report"
    min_passes = 2  # report.txt must repeat byte for byte within a run
    PRESETS = ("lv", "quartic", "weierstrass", "beam-sym", "beam-lag")
    EXPECTED_DIM = {"lv": 1, "quartic": 2, "weierstrass": 2}
    # beam-lag's default orbit escapes and overflows: an expected status.
    EXPECTED_STATUS = {
        "lv": "complete",
        "quartic": "complete",
        "weierstrass": "complete",
        "beam-sym": "complete",
        "beam-lag": "singular-at-step 72",
    }

    def setup(self):
        k = self.seed % len(self.PRESETS)
        self.order = self.PRESETS[k:] + self.PRESETS[:k]
        self.configs = {}
        for preset in self.PRESETS:
            out = OUT / "report" / preset
            out.mkdir(parents=True, exist_ok=True)
            cfg = out / "run.cfg"
            cfg.write_text(f"preset = {preset}\nseed = {self.seed}\nout = {out}\n")
            self.configs[preset] = cfg

    def run_pass(self) -> list[Op]:
        ops = []
        for preset in self.order:
            op = self._op(preset, lambda p=preset: self._report(p))
            if not op.error:
                op.result = (op.result, (self.configs[preset].parent / "report.txt").read_bytes())
            ops.append(op)
        return ops

    def _report(self, preset: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["report", "--config", str(self.configs[preset])])

    def check(self, op: Op) -> str | None:
        rc, report = op.result
        if rc != 0:
            return f"exit code {rc}"
        first = self.reference.setdefault(op.name, report)
        if report != first:
            return "report.txt differs from the first repetition in this run"
        lines = report.decode().splitlines()
        witness = [ln for ln in lines if "witness identically zero = " in ln]
        if any(not ln.endswith("= True") for ln in witness):
            return "a Darboux witness is not identically zero"
        if op.name in self.EXPECTED_DIM:
            want = f"solution space dimension = {self.EXPECTED_DIM[op.name]}"
            if want not in lines:
                return f"missing {want!r}"
            if len(witness) != self.EXPECTED_DIM[op.name]:
                return f"{len(witness)} witness lines, expected {self.EXPECTED_DIM[op.name]}"
        want = f"status = {self.EXPECTED_STATUS[op.name]}"
        if want not in lines:
            return f"missing {want!r}"
        return None

    def summary(self, passes):
        times = sorted(op.seconds for _, ops in passes for op in ops if not op.error)
        if not times:
            return [("report_s.p50", float("nan"), "s"), ("report_s.p90", float("nan"), "s")]
        p90 = times[min(len(times) - 1, int(0.9 * len(times)))]
        return [
            ("report_s.p50", statistics.median(times), "s"),
            ("report_s.p90", p90, "s"),
            ("report_calls", len(times), "count"),
        ]


WORKLOADS = {w.name: w for w in (Darboux, Orbit, Report)}
