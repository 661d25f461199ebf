"""The benchmark's traced interface still binds to the program.

A traced run of bench/run.py rebinds module attributes of critspde and
calls stepper methods by name; a change under src/ that renames one of
them, or that calls around a rebound attribute so its counter reads 0,
would otherwise show only when such a run is made.
"""

import importlib
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_traced_hooks_bind(monkeypatch):
    layers = bench_module("layers", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    tracer = tracing.Tracer()
    layers.install_hooks(tracer)
    hooked = [(owner, attr) for owner, attr, _ in tracer._hooks]
    assert hooked
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in hooked if not hasattr(owner, attr)]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr in hooked]
    with tracer.installed(0):
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(hooked, originals))
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(hooked, originals))


def test_stage_probe_runs(monkeypatch):
    probes = bench_module("probes", monkeypatch)
    calibration = bench_module("calibration", monkeypatch)
    from critspde import presets

    stages = probes.stage_probe(presets.sublinear_global(),
                                calibration.Clock())
    assert sorted(stages) == sorted(
        f"sim.stage.{name}_us"
        for name in ("rng", "drift_hat", "noise_hat", "advance", "irfft"))
    assert all(us > 0 for us in stages.values())


def test_traced_counters_see_a_plan(monkeypatch):
    # the planner reaches embeds through the module attribute the bench
    # rebinds, so a traced pass counts a plan's embedding checks: 8 in an
    # L2_start plan and 12 in a rough one
    layers = bench_module("layers", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    from critspde import bootstrap

    for variant, kwargs, embeds_calls in (
            ("L2_start", {}, 8),
            ("rough", {"s": F(1, 5), "q": F(5, 2), "p": F(4)}, 12)):
        tracer = tracing.Tracer()
        layers.install_hooks(tracer)
        with tracer.installed(0):
            bootstrap.full_chain_1d(variant, **kwargs)
        assert tracer.counters["bootstrap.plans"] == 1
        assert tracer.counters["bootstrap.embeds"] == embeds_calls


def test_traced_ito_residual_counts_its_replay(monkeypatch):
    # the residual replays its path through the simulate_path the monitors
    # module binds, which a traced run rebinds: the counter sees each step
    layers = bench_module("layers", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    from dataclasses import replace

    from critspde import monitors, presets, sim

    traj = sim.simulate_path(replace(presets.linear_noise(), t_end=0.04),
                             n_save=5)
    tracer = tracing.Tracer()
    layers.install_hooks(tracer)
    with tracer.installed(0):
        series = monitors.ito_energy_residual(traj)
    assert traj.stats.steps_taken == series.times.size == 40
    assert tracer.counters["monitors.ito_steps_replayed"] == 40
