"""Layered benchmark for critspde: one closed-loop caller, three workloads.

    python3 bench/run.py --workload ensemble-global --seed 1 --seconds 20
    python3 bench/run.py --workload calculus --seed 1 --seconds 20 --trace 1

Prints a readable report, the run manifest, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
(--trace 0) report the end-to-end metrics of BENCHMARK.json; traced runs
report its per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import environment
from stats import percentile

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3     # untraced passes; an operation's time is its median
MIN_TRACED = 2     # traced passes, alternating with as many untraced ones
SETUP_SAMPLES = 5  # fresh-interpreter set-ups; setup_s is their median


def parse_args(argv: List[str], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="keep repeating passes until this much time "
                             f"has passed (at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(workload: str, seed: int, scratch: Path) -> List[dict]:
    """Time SETUP_SAMPLES set-ups, each in a fresh interpreter.

    Each sample is scaled to reference speed by the calibration kernel runs
    just before and just after it (a median of five, as a sample is long).
    """
    import calibration

    clock = calibration.Clock(repeats=5)
    samples = []
    for k in range(SETUP_SAMPLES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(scratch / f"setup{k}")],
            capture_output=True, text=True, timeout=150)
        wall = perf_counter() - start
        factor = clock.mark()
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({"wall_s": wall * factor,
                        **{k: v * factor for k, v in phases.items()}})
    return samples


def run_passes(wl, rec, seconds: float, tracer=None):
    """Repeat passes until `seconds` have passed and enough passes ran.

    Returns each pass's summed operation time (reference speed), keyed by
    whether the pass was traced.  With a tracer, passes alternate untraced
    and traced; each traced pass starts from fresh counters, kept per pass,
    and ends with the workload's traced-only operations, which stay out of
    its total so traced and untraced totals cover the same work.
    """
    totals: Dict[bool, List[float]] = {False: [], True: []}
    counters: List[Counter] = []
    start = perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        rec.pass_total = 0.0
        if traced:
            tracer.counters = Counter()
            with tracer.installed(run_id=k):
                wl.run_pass(rec, k)
                rec.flush()
                totals[True].append(rec.pass_total)
                wl.traced_ops(rec)
                rec.flush()
            counters.append(tracer.counters)
        else:
            wl.run_pass(rec, k)
            rec.flush()
            totals[False].append(rec.pass_total)
        k += 1
        if tracer is None:
            enough = len(totals[False]) >= MIN_PASSES
        else:
            enough = min(len(totals[False]), len(totals[True])) >= MIN_TRACED
        if enough and perf_counter() - start >= seconds:
            return totals, counters


def end_to_end(rec, setup: List[dict]) -> Dict[str, float]:
    sims, draws, plans = rec.names("sim"), rec.names("draw"), rec.names("plan")
    draw_s = [rec.time(n) for n in draws]
    plan_s = [rec.time(n) for n in plans]
    return {
        "setup_s": statistics.median([s["wall_s"] for s in setup]),
        "wall_s": sum(rec.time(n) for n in rec.kind if not rec.ref[n]),
        "path_steps_per_s": sum(rec.steps[n] for n in sims)
        / sum(rec.time(n) for n in sims),
        "calc_draws_per_s": len(draw_s) / sum(draw_s),
        "calc_draw_us_p50": 1e6 * percentile(draw_s, 50),
        "calc_draw_us_p99": 1e6 * percentile(draw_s, 99),
        "plan_ms_p50": 1e3 * percentile(plan_s, 50),
        "plan_ms_p99": 1e3 * percentile(plan_s, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def main(argv: List[str]) -> int:
    root = environment.prepare()  # pins thread pools before numpy loads
    import calibration
    import layers
    import probes
    import workloads
    from tracing import Tracer

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    scratch = root / ".bench_build" / f"run-{args.workload}-{args.seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        wl.build_inputs()
        wl.warm_up()
        setup = setup_samples(args.workload, args.seed, scratch)
        rec = workloads.Recorder()
        tracer = None
        if args.trace:
            tracer = Tracer()
            layers.install_hooks(tracer)
        totals, counters = run_passes(wl, rec, args.seconds, tracer)
        wl.finish(rec, len(totals[False]) + len(totals[True]))
        if args.trace:
            mismatched = layers.count_mismatches(counters)
            rec.gate("trace-counts", mismatched and
                     f"counts differ between traced passes: {mismatched}")
            scale = calibration.REFERENCE_S / statistics.median(
                rec.clock.kernel_s)
            metrics = layers.per_layer(tracer.spans, counters[0],
                                       len(totals[True]), scale)
            metrics.update(probes.stage_probe(wl.stage_config(), rec.clock))
            metrics.update(probes.preset_probe(rec.clock))
            for phase in ("import_s", "inputs_s", "warmup_s"):
                metrics[f"setup.{phase}"] = statistics.median(
                    [s[phase] for s in setup])
            metrics["trace.overhead_share"] = statistics.median(
                totals[True]) / statistics.median(totals[False]) - 1.0
            tracer.dump(root / ".bench_build" / "trace"
                        / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(rec, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    manifest = environment.manifest(args.workload, args.seed, bool(args.trace),
                                    args.seconds, wl.params())
    kernel_ms = sorted(1e3 * t for t in rec.clock.kernel_s)
    manifest["calibration"] = {
        "reference_ms": 1e3 * calibration.REFERENCE_S,
        "kernel_runs": len(kernel_ms),
        "kernel_ms_p10_p50_p90": [kernel_ms[int(q * len(kernel_ms))]
                                  for q in (0.1, 0.5, 0.9)]}
    correct = rec.failed == 0
    print(f"critspde benchmark  workload={args.workload}  seed={args.seed}  "
          f"traced={bool(args.trace)}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for traced in (False, True):
        if totals[traced]:
            print(f"{'traced' if traced else 'untraced'} passes: "
                  f"{len(totals[traced])}, operation time per pass (s at "
                  f"reference speed) median "
                  f"{statistics.median(totals[traced]):.3f}")
    print("host speed: calibration kernel p10/p50/p90 "
          f"{manifest['calibration']['kernel_ms_p10_p50_p90']} ms, "
          f"reference {1e3 * calibration.REFERENCE_S:.2f} ms")
    if not args.trace:
        print(f"latency samples: {len(rec.names('draw'))} draws, "
              f"{len(rec.names('plan'))} plans (each the median of "
              f"{len(totals[False])} passes)")
    for name in (m["name"] for m in section):
        print(f"  {name:44s} {metrics[name]:14.6g} {units[name]}")
    print(f"  {'fail_share':44s} {rec.failed / rec.attempted:14.6g} ratio  "
          f"({rec.failed} failed of {rec.attempted} attempted)")
    if args.trace:
        for line in probes.baseline_lines(metrics, rec.clock):
            print(line)
    for err in rec.errors:
        print(f"  FAILED {err}")
    print(f"correct: {'yes' if correct else 'NO'}")
    print(json.dumps({
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in (m["name"] for m in section)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
