"""Run one workload of the polykahan benchmark and print its metrics.

    python3 perfbench/run.py --workload darboux|orbit|report --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Every metric is printed by name with its unit, then the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 times as many untraced passes of the workload as fit in
--seconds (at least the workload's minimum number of passes) and reports
the end-to-end metrics.
--trace 1 does a fixed amount of work: set-up and one pass untraced, then
set-up and one pass with every layer wrapped, and reports the per-layer
metrics; the spans go to perfbench/out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7  # fresh processes timed per run; setup_s is their median


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time over fresh processes (import, build, bind, warm): the
    median wall time, and the median at the reference speed, i.e. each
    probe's seconds scaled by REFERENCE_S over its reference loop's time."""
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, reference = map(float, done.stdout.split()[-2:])
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_S / reference)
    return statistics.median(wall), statistics.median(scaled)


def _checked(w, ops) -> list:
    for op in ops:
        if op.error is None:
            try:
                op.error = w.check(op)
            except Exception as e:  # a check that cannot read the result fails it
                op.error = f"check raised {e!r}"
    return ops


def _print_failures(ops):
    for op in ops:
        if op.error:
            print(f"FAILED {op.name}: {op.error}")


def run_untraced(workloads, name: str, seed: int, seconds: float) -> dict:
    setup_wall_s, setup_s = _setup_seconds(name, seed)
    w = workloads.WORKLOADS[name](seed)
    w.setup()
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = w.run_pass()
        passes.append((time.perf_counter() - t0, ops))
        _checked(w, ops)
        # Stop before a pass that would end past --seconds.
        typical = statistics.median(t for t, _ in passes)
        if len(passes) >= w.min_passes and time.perf_counter() - start + typical > seconds:
            break
    all_ops = [op for _, pass_ops in passes for op in pass_ops]
    failed = sum(op.error is not None for op in all_ops)
    _print_failures(all_ops)
    # Each operation's time over the reference loop's time around it,
    # summed over a pass.
    relative = [sum(op.seconds / op.ref_s for op in pass_ops) for _, pass_ops in passes]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_rel": (statistics.median(relative), "ref"),
    }
    print(f"workload {name}, seed {seed}: {len(passes)} passes of {len(passes[0][1])} operations")
    for key, value, unit in w.summary(passes):
        print(f"{key} = {value!r} {unit}")
    print(f"pass_s = {statistics.median(t for t, _ in passes)!r} s")
    print(f"setup_wall_s = {setup_wall_s!r} s")
    print(f"reference_loop_s = {statistics.median(op.ref_s for op in all_ops)!r} s")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(f"fail_rate = {failed / len(all_ops)!r} ratio ({failed} failed of {len(all_ops)} operations)")
    return {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_traced(workloads, tracing, name: str, seed: int) -> dict:
    w = workloads.WORKLOADS[name](seed)
    w.sample_reference = False  # both passes alike, so the overhead is the tracer's
    t0 = time.perf_counter()
    w.setup()
    ops = w.run_pass()
    untraced = time.perf_counter() - t0
    _checked(w, ops)

    tracer = tracing.Tracer()
    w.tracer = tracer
    with tracer:
        t0 = time.perf_counter()
        tracer.op = "setup"
        w.setup()
        traced_ops = w.run_pass()
        traced = time.perf_counter() - t0
    w.tracer = None
    _checked(w, traced_ops)
    ops += traced_ops

    failed = sum(op.error is not None for op in ops)
    _print_failures(ops)
    layer = tracer.layer_metrics(overhead_s=traced - untraced)
    spans_path = HERE / "out" / f"spans-{name}-{seed}.jsonl"
    tracer.write(spans_path)
    print(f"workload {name}, seed {seed}: traced set-up and pass {traced!r} s, untraced {untraced!r} s")
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    for key, value in layer.items():
        print(f"{key} = {value!r} {tracing.LAYER_METRICS[key][0]}")
    print(f"fail_rate = {failed / len(ops)!r} ratio ({failed} failed of {len(ops)} operations)")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]} for k, v in layer.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("darboux", "orbit", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads  # puts the checkout's src/ on the path first
        import tracing
    except ImportError as e:
        print(f"cannot import polykahan from this checkout: {e}", file=sys.stderr)
        return 2
    if args.trace:
        result = run_traced(workloads, tracing, args.workload, args.seed)
    else:
        result = run_untraced(workloads, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
