"""Tests of the benchmark's own logic: python -m pytest bench/tests"""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import inputs
import workloads
from critspde import exponents, harness
from stats import percentile
from tracing import Span, Tracer, self_times


# --- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("x", 1.0, 5.0, 0, 0),
             Span("y", 3.0, 6.0, 0, 0), Span("z", 9.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_restores_hooks():
    class Owner:
        @staticmethod
        def outer():
            return Owner.inner() + 1

        @staticmethod
        def inner():
            return 1

    original = Owner.inner
    tracer = Tracer()
    tracer.hook(Owner, "outer", "layer.outer")
    tracer.hook(Owner, "inner", "layer.inner",
                on_result=lambda tr, res, a, k: tr.counters.update(inner=res))
    with tracer.installed(run_id=7):
        assert Owner.outer() == 2
    assert Owner.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == \
        ("layer.outer", -1, "layer.inner", 0)
    assert {outer.run_id, inner.run_id} == {7}
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert tracer.counters["inner"] == 1


# --- percentile rule ---------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 1001))
    assert percentile(xs, 99) == 990
    with pytest.raises(ValueError):
        percentile(xs[:999], 99)
    assert percentile(xs[:999], 98) == 980


def test_percentile_is_nearest_rank_of_unsorted_input():
    xs = random.Random(3).sample(range(100), 100)
    assert percentile(xs, 50) == 49
    with pytest.raises(ValueError):
        percentile([1.0] * 5, 50)


# --- failures are counted ----------------------------------------------------


def small_calc(seed=1):
    return inputs.calc_inputs(random.Random(seed), {
        "draws": 20, "triples": 5, "reports": 5, "plans": 3})


def test_calc_operations_pass_on_the_program():
    rec = workloads.Recorder()
    workloads.calc_ops(rec, small_calc(), ref=False)
    assert rec.errors == []
    assert rec.attempted == 33 and rec.failed == 0


def test_injected_wrong_output_is_counted(monkeypatch):
    real = exponents.xi_exponents

    def off_by_a_bit(g, s):
        return tuple(type(x)(part=x.part, index=x.index, xi=x.xi,
                             xi_conj=x.xi_conj + F(1, 10**9),
                             x_entries=x.x_entries) for x in real(g, s))

    monkeypatch.setattr(exponents, "xi_exponents", off_by_a_bit)
    rec = workloads.Recorder()
    workloads.calc_ops(rec, small_calc(), ref=False)
    assert rec.failed == 20  # every draw, nothing else
    assert all("1/xi + 1/xi'" in e for e in rec.errors)


def test_raising_operation_is_counted_and_skipped():
    rec = workloads.Recorder()
    out = rec.op("boom", "draw", lambda: 1 / 0)
    assert out is None and rec.failed == 1 and "boom" not in rec.kind
    rec.op("fine", "draw", lambda: 2, check=lambda v: None)
    assert (rec.attempted, rec.failed) == (2, 1)


@pytest.fixture(scope="module")
def global_block(tmp_path_factory):
    """Block 0 of ensemble-global at seed 5: the workload, the call's report
    and its summary file, as one pass would leave them."""
    out = tmp_path_factory.mktemp("global")
    wl = workloads.EnsembleGlobal(5, out)
    wl.build_inputs()
    cfg = replace(wl.inp.configs[0], outdir=str(out))
    rep = harness.experiment_global(inputs.GLOBAL_H, cfg,
                                    noise_scale=inputs.GLOBAL_NOISE_SCALE)
    return wl, rep, out / cfg.experiment


def test_ensemble_statistics_match_the_lone_runs(global_block):
    wl, rep, directory = global_block
    assert wl.check_block(0, wl.inp.configs[0], rep,
                          directory / "summary.json") is None
    # a blown-up path also counts the step that failed the cap check
    assert wl.block_steps(0) == sum(t.stats.steps_taken
                                    + (t.status == "blew_up")
                                    for t in wl.lone_paths(0))


def test_wrong_sigma_hat_mean_is_caught(global_block):
    wl, rep, directory = global_block
    fs = rep.stats.functionals["sigma_hat"]
    bad = replace(rep, stats=replace(rep.stats, functionals={
        **rep.stats.functionals,
        "sigma_hat": replace(fs, mean=np.nextafter(fs.mean, math.inf))}))
    assert "sigma_hat mean/var" in wl.check_block(
        0, wl.inp.configs[0], bad, directory / "summary.json")


def test_corrupted_csv_read_back_is_counted(global_block):
    wl, _, directory = global_block
    i = wl.inp.sampled[0][0]
    good = harness.load_trajectory_csv(directory / f"path_{i}.csv")
    assert wl.check_sampled(0, i, good) is None
    bad_states = good[1].copy()
    bad_states[-1, 3] = np.nextafter(bad_states[-1, 3], math.inf)
    assert "final CSV row" in wl.check_sampled(0, i, (good[0], bad_states))


# --- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    def build(seed):
        wl = workloads.WORKLOADS[name](seed, tmp_path)
        wl.build_inputs()
        return wl.params(), wl.calc, wl.monitor_traj.states

    a, b, c = build(3), build(3), build(4)
    assert a[0] == b[0] and a[1] == b[1]
    assert np.array_equal(a[2], b[2])
    assert a[0] != c[0] and a[1] != c[1]
    assert not np.array_equal(a[2][-1], c[2][-1])

