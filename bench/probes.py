"""Per-stage and per-preset timings of the spectral kernel (traced runs).

Both probes call public critspde names from the benchmark.  Each batch of
calls is scaled to reference speed (calibration.py) and the fastest batch
is kept.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict

import numpy as np

from calibration import Clock
from critspde import presets, sim

# ROADMAP item A's baseline rows (2-vCPU Intel Xeon VM, py3.11, numpy 2.4)
BASELINE = {
    "exponents.rho_star_and_x_exponents_us": 238.0,
    "bootstrap.plan_ms.L2_start": 1.5,
    "sim.preset.heat.us_per_step": 56.0,
    "sim.preset.linear-noise.us_per_step": 67.0,
    "sim.preset.cubic-conservative.us_per_step": 76.0,
    "sim.preset.sublinear-global.us_per_step": 134.0,
    "sim.stage.rng_us": 2.4,
    "sim.stage.drift_hat_us": 28.0,
    "sim.stage.noise_hat_us": 41.0,
    "sim.stage.irfft_us": 8.5,
}


def best_per_call(fn: Callable[[], object], clock: Clock, calls: int = 200,
                  batches: int = 7) -> float:
    """Fastest batch mean of fn(), in reference-speed seconds per call."""
    best = float("inf")
    clock.mark()
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            fn()
        elapsed = perf_counter() - start
        best = min(best, elapsed * clock.mark() / calls)
    return best


def stage_probe(cfg: sim.SimConfig, clock: Clock) -> Dict[str, float]:
    """Microseconds per call of each piece of one step, on a typical state."""
    state = sim.simulate_path(replace(cfg, t_end=50 * cfg.dt),
                              n_save=2).states[-1]
    stepper = sim.SpectralStepper(cfg)
    n = stepper.n
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    u_hat = np.fft.rfft(state) / n
    xi = rng.standard_normal(stepper.draws)
    new_hat = stepper.advance(u_hat, state, xi, 0.0)[0]
    stages = {
        "rng": lambda: rng.standard_normal(stepper.draws),
        "drift_hat": lambda: stepper.drift_hat(state, 0.0),
        "noise_hat": lambda: stepper.noise_hat(state, xi, 0.0),
        "advance": lambda: stepper.advance(u_hat, state, xi, 0.0),
        "irfft": lambda: np.fft.irfft(new_hat * n, n=n),
    }
    return {f"sim.stage.{name}_us": 1e6 * best_per_call(fn, clock)
            for name, fn in stages.items()}


def preset_probe(clock: Clock) -> Dict[str, float]:
    """Microseconds per step of one whole path of each simulation preset."""
    out = {}
    for name, make in presets.SIM_PRESETS.items():
        cfg = make()
        calls = max(1, 2000 // cfg.n_steps)
        per_path = best_per_call(lambda: sim.simulate_path(cfg, n_save=2),
                                 clock, calls=calls, batches=3)
        out[f"sim.preset.{name}.us_per_step"] = 1e6 * per_path / cfg.n_steps
    return out


def baseline_lines(metrics: Dict[str, float], clock: Clock) -> list:
    """The measured values next to ROADMAP A's rows, with the deltas.

    ROADMAP A split the step of the sublinear-global preset, so the stage
    rows here come from a probe of that preset, whatever the workload.
    """
    measured = {**metrics, **stage_probe(presets.sublinear_global(), clock)}
    lines = ["ROADMAP A baseline vs this run (stages: sublinear-global):"]
    for name, base in BASELINE.items():
        got = measured[name]
        lines.append(f"  {name:44s} {got:10.2f}  baseline {base:8.2f}  "
                     f"delta {100.0 * (got / base - 1.0):+6.1f}%")
    return lines
