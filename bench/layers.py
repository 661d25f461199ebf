"""Where the traced run hooks critspde, and the per-layer metrics it derives.

Span names are ``<layer>.<function>``; the layer is the critspde module.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from typing import Dict, List, Sequence

import numpy as np

from critspde import bootstrap, exponents, harness, monitors
from tracing import Span, Tracer, self_times
from workloads import integrated_steps

SIM_SPAN = "sim.simulate_path"
EXPONENT_FNS = ("rho_star_and_x_exponents", "xi_exponents", "star_params",
                "critical_weight", "trace_space", "full_report")
PLAN_VARIANTS = ("L2_start", "rough")
# counts that must repeat exactly between traced passes of the same inputs
EXACT_COUNTS = ("sim.steps", "sim.fft_calls", "sim.fft_rows",
                "sim.blown_up_paths", "monitors.ito_steps_replayed",
                "monitors.hs_norm_calls", "weights.lp_norm_calls",
                "bootstrap.checks", "bootstrap.embeds", "bootstrap.plans",
                "bootstrap.accepted", "harness.csv_write_bytes")


def install_hooks(tracer: Tracer) -> None:
    """Register every rebinding a traced pass applies."""

    def count_fft(tr, args, kwargs):
        if tr.current() == SIM_SPAN:
            a = np.asarray(args[0])
            tr.counters["sim.fft_calls"] += 1
            tr.counters["sim.fft_rows"] += a.size // max(a.shape[-1], 1)

    def path_done(tr, traj, args, kwargs):
        tr.counters["sim.steps"] += integrated_steps(traj.sigma_hat,
                                                     args[0].dt)
        tr.counters["sim.blown_up_paths"] += traj.status == "blew_up"

    def replay_done(tr, traj, args, kwargs):
        tr.counters["monitors.ito_steps_replayed"] += integrated_steps(
            traj.sigma_hat, args[0].dt)

    def csv_written(tr, result, args, kwargs):
        tr.counters["harness.csv_write_bytes"] += os.path.getsize(args[1])

    def count(key):
        def on_call(tr, args, kwargs):
            tr.counters[key] += 1
        return on_call

    def embeds_call(tr, args, kwargs):
        if (tr.current() or "").startswith("bootstrap.plan."):
            tr.counters["bootstrap.embeds"] += 1

    def plan_done(tr, chain, args, kwargs):
        tr.counters["bootstrap.accepted"] += 1
        tr.counters["bootstrap.checks"] += sum(len(st.checks)
                                               for st in chain.steps)

    tracer.hook(np.fft, "rfft", on_call=count_fft)
    tracer.hook(np.fft, "irfft", on_call=count_fft)
    tracer.hook(harness, "simulate_path", SIM_SPAN, on_result=path_done)
    for fn in ("experiment_global", "mc_run", "run_ensemble",
               "load_trajectory_csv", "write_summary"):
        tracer.hook(harness, fn, f"harness.{fn}")
    tracer.hook(harness, "save_trajectory_csv", "harness.save_trajectory_csv",
                on_result=csv_written)
    for fn in ("ito_energy_residual", "hoelder_estimate", "x_space_norm",
               "blowup_functional"):
        tracer.hook(monitors, fn, f"monitors.{fn}")
    tracer.hook(monitors, "hs_norm_G", "monitors.hs_norm_G",
                on_call=count("monitors.hs_norm_calls"))
    tracer.hook(monitors, "simulate_path", "monitors.ito_replay",
                on_result=replay_done)
    tracer.hook(monitors, "weighted_lp_norm", "weights.weighted_lp_norm",
                on_call=count("weights.lp_norm_calls"))
    for fn in EXPONENT_FNS:
        tracer.hook(exponents, fn, f"exponents.{fn}")
    tracer.hook(bootstrap, "full_chain_1d",
                lambda args, kwargs: f"bootstrap.plan.{args[0]}",
                on_call=count("bootstrap.plans"), on_result=plan_done)
    tracer.hook(bootstrap, "embeds", on_call=embeds_call)


def _per_call(total: Dict[str, float], calls: Dict[str, int], name: str,
              unit: float) -> float:
    return unit * total[name] / calls[name] if calls[name] else 0.0


def per_layer(spans: Sequence[Span], counters: Counter,
              traced_passes: int, scale: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (times averaged over passes).

    ``counters`` holds one pass's counts (they repeat exactly); span times
    are summed over all traced passes, divided by their number and
    multiplied by ``scale``, the run's factor to reference speed.
    """
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    harness_self = 0.0
    for span, own in zip(spans, self_times(spans)):
        total[span.name] += scale * (span.end - span.start)
        calls[span.name] += 1
        if span.name.startswith("harness."):
            harness_self += scale * own
    per_pass = 1.0 / traced_passes
    steps = counters["sim.steps"]
    sim_busy = total[SIM_SPAN] * per_pass
    plans = counters["bootstrap.plans"]
    out = {
        "sim.busy_s": sim_busy,
        "sim.steps": steps,
        "sim.us_per_step": 1e6 * sim_busy / steps if steps else 0.0,
        "sim.fft_calls_per_step":
            counters["sim.fft_calls"] / steps if steps else 0.0,
        "sim.fft_rows_per_step":
            counters["sim.fft_rows"] / steps if steps else 0.0,
        "sim.blown_up_paths": counters["sim.blown_up_paths"],
        "harness.self_s": harness_self * per_pass,
        "harness.csv_write_s": total["harness.save_trajectory_csv"] * per_pass,
        "harness.csv_write_bytes": counters["harness.csv_write_bytes"],
        "harness.csv_read_s": total["harness.load_trajectory_csv"] * per_pass,
        "harness.summary_write_s": total["harness.write_summary"] * per_pass,
        "monitors.ito_residual_s":
            _per_call(total, calls, "monitors.ito_energy_residual", 1.0),
        "monitors.ito_steps_replayed": counters["monitors.ito_steps_replayed"],
        "monitors.hs_norm_calls": counters["monitors.hs_norm_calls"],
        "monitors.hoelder_ms":
            _per_call(total, calls, "monitors.hoelder_estimate", 1e3),
        "monitors.x_space_norm_ms":
            _per_call(total, calls, "monitors.x_space_norm", 1e3),
        "monitors.blowup_functional_ms":
            _per_call(total, calls, "monitors.blowup_functional", 1e3),
        "weights.lp_norm_calls": counters["weights.lp_norm_calls"],
        "weights.busy_ms": 1e3 * total["weights.weighted_lp_norm"] * per_pass,
        "bootstrap.checks_per_plan":
            counters["bootstrap.checks"] / plans if plans else 0.0,
        "bootstrap.embeds_calls_per_plan":
            counters["bootstrap.embeds"] / plans if plans else 0.0,
        "bootstrap.accepted_share":
            counters["bootstrap.accepted"] / plans if plans else 0.0,
    }
    for fn in EXPONENT_FNS:
        out[f"exponents.{fn}_us"] = _per_call(total, calls,
                                              f"exponents.{fn}", 1e6)
    for variant in PLAN_VARIANTS:
        out[f"bootstrap.plan_ms.{variant}"] = _per_call(
            total, calls, f"bootstrap.plan.{variant}", 1e3)
    return out


def count_mismatches(per_pass: List[Counter]) -> List[str]:
    """Exact counts that differ between traced passes of the same inputs."""
    return [key for key in EXACT_COUNTS
            if len({c[key] for c in per_pass}) > 1]
