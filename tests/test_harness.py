import json
import os
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np
import pytest

from critspde import harness
from critspde.exponents import ParameterError
from critspde.harness import (
    ConvergenceReport,
    EnsembleConfig,
    convergence_study,
    experiment_energy,
    experiment_global,
    experiment_regularity,
    load_trajectory_csv,
    mc_run,
    mix_seed,
    run_ensemble,
    save_trajectory_csv,
    write_summary,
)
from critspde.monitors import ito_energy_residual
from critspde.presets import (
    cubic_conservative,
    heat,
    linear_noise,
    sublinear_global,
)
from critspde.sim import (
    NoiseSpec,
    NonlinearitySpec,
    SimConfig,
    TorusGrid,
    _integrate,
    l2_norm_sq,
    simulate_path,
)


def small_noise_cfg(dt=4e-3, t_end=0.5, seed=0, g=1.0, f=None):
    return SimConfig(grid=TorusGrid(64),
                     nonlinearity=NonlinearitySpec(f=f, g=g),
                     noise=NoiseSpec(lam=0.75, modes=21),
                     t_end=t_end, dt=dt, seed=seed, u0=None)


# --- seed mixing -----------------------------------------------------------------

def test_mix_seed_frozen_values():
    assert mix_seed(0, 0) == 0
    assert mix_seed(0, 1) == 16294208416658607535
    assert mix_seed(42, 7) == 4028864712777624925
    assert mix_seed(0, 1) != mix_seed(1, 0)


def test_mix_seed_no_collision_at_desk_scale():
    seeds = {mix_seed(123, i) for i in range(10000)}
    assert len(seeds) == 10000


# --- mc_run ------------------------------------------------------------------------

def test_single_path_stats_match():
    cfg = EnsembleConfig(base=heat(), n_paths=1)
    stats = mc_run(cfg)
    traj = simulate_path(replace(heat(), seed=mix_seed(0, 0)))
    assert stats.functionals["sup_l2_sq"].mean == traj.stats.sup_l2_sq
    assert stats.functionals["sup_l2_sq"].var == 0.0
    assert stats.ci_mode == "wide"
    assert stats.functionals["sup_l2_sq"].ci_low is None
    assert stats.survival == 1.0


def test_deterministic_ensemble_zero_variance():
    stats = mc_run(EnsembleConfig(base=heat(), n_paths=5))
    # identical paths; only the one-ulp rounding of the sample mean survives
    assert stats.functionals["final_l2_sq"].var <= 1e-30


def test_mid_batch_blowup_leaves_neighbours_alone():
    # experiment_global's h=2, scale=3 coefficient on the sublinear base:
    # some paths blow up early, and every path, blown up or not, is bit
    # for bit its lone run
    base = sublinear_global()
    wired = replace(base.nonlinearity, g=lambda y: 3.0 * np.abs(y) ** 2)
    base = replace(base, nonlinearity=wired, t_end=0.25, seed=3)
    trajs = run_ensemble(EnsembleConfig(base=base, n_paths=18, n_save=5))
    assert 0 < sum(not t.completed for t in trajs) < 18
    for i, traj in enumerate(trajs):
        lone = simulate_path(replace(base, seed=mix_seed(3, i)), n_save=5)
        assert (traj.status, traj.sigma_hat) == (lone.status, lone.sigma_hat)
        assert traj.stats == lone.stats
        assert np.array_equal(traj.times, lone.times)
        assert np.array_equal(traj.states, lone.states)


def test_cap_at_its_limit_keeps_stats_finite(tmp_path):
    # path 2 of this ensemble blows up at step 45 under the largest cap;
    # its stats, its Ito residual and the ensemble summary stay finite
    base = sublinear_global()
    wired = replace(base.nonlinearity, g=lambda y: 3.0 * np.abs(y) ** 2)
    base = replace(base, nonlinearity=wired, t_end=0.25, seed=3,
                   blowup_cap=1e50)
    with np.errstate(over="raise", invalid="raise"):
        traj = simulate_path(replace(base, seed=mix_seed(3, 2)))
        residual = ito_energy_residual(traj).values["residual"]
        mc_run(EnsembleConfig(base=base, n_paths=3, outdir=str(tmp_path)))
    assert traj.status == "blew_up" and traj.stats.steps_taken == 45
    assert np.isfinite(astuple(traj.stats)).all()
    assert residual.size == 45 and np.isfinite(residual).all()

    def no_constant(name):
        raise ValueError(f"summary.json holds {name}")

    text = (tmp_path / "ensemble" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=no_constant)
    assert summary["survival"] < 1.0
    assert summary["functionals"]["sup_l2_sq"]["mean"] > 1e60
    with pytest.raises(ParameterError, match="1e50"):
        replace(base, blowup_cap=1e300)


def test_ensemble_stats_reduce_the_lone_runs():
    # the mean and var of each functional are np.mean and np.var(ddof=1)
    # of the lone runs' Python floats, to the bit; about a quarter of the
    # 18 paths blow up mid-horizon
    base = sublinear_global()
    wired = replace(base.nonlinearity, g=lambda y: 3.0 * np.abs(y) ** 2)
    base = replace(base, nonlinearity=wired, t_end=0.25, seed=3)
    stats = mc_run(EnsembleConfig(base=base, n_paths=18, n_save=2))
    lone = [simulate_path(replace(base, seed=mix_seed(3, i)), n_save=2)
            for i in range(18)]
    samples = {name: [getattr(t.stats, name) for t in lone]
               for name in ("initial_l2_sq", "sup_l2_sq", "grad_integral",
                            "final_l2_sq")}
    samples["sigma_hat"] = [t.sigma_hat for t in lone]
    assert sorted(stats.functionals) == sorted(samples)
    for name, xs in samples.items():
        got = stats.functionals[name]
        assert (got.mean, got.var) == (float(np.mean(xs)),
                                       float(np.var(xs, ddof=1))), name
    completed = sum(t.completed for t in lone)
    assert 0 < completed < 18
    assert stats.survival == completed / 18
    assert stats.seeds == tuple(t.config.seed for t in lone)


@pytest.mark.parametrize("field, value", [
    ("n_paths", True), ("n_paths", 2.5), ("n_paths", "3"), ("n_paths", None),
    ("n_save", True), ("n_save", 2.5), ("n_save", "3")])
def test_ensemble_config_rejects_counts_that_are_no_integer(field, value):
    # True ran one path and wrote "n_paths": true; 2.5 and "3" died in a
    # TypeError
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        EnsembleConfig(base=heat(), **{field: value})


def test_ensemble_config_stores_numpy_counts_as_int(tmp_path):
    # a numpy n_paths wrote the CSVs, then json.dumps died on the summary
    cfg = EnsembleConfig(base=heat(), n_paths=np.int64(2),
                         n_save=np.int32(3), outdir=str(tmp_path))
    assert type(cfg.n_paths) is int and type(cfg.n_save) is int
    mc_run(cfg)
    summary = json.loads((tmp_path / "ensemble" / "summary.json").read_text())
    assert summary["n_paths"] == 2
    _, states = load_trajectory_csv(tmp_path / "ensemble" / "path_1.csv")
    assert states.shape == (3, 64)


def test_ci_normal_at_thirty_paths():
    stats = mc_run(EnsembleConfig(base=small_noise_cfg(dt=0.01, t_end=0.1),
                                  n_paths=30))
    assert stats.ci_mode == "normal"
    fs = stats.functionals["final_l2_sq"]
    assert fs.ci_low is not None and fs.ci_low <= fs.mean <= fs.ci_high


def test_trajectory_csv_round_trip(tmp_path):
    noisy = simulate_path(small_noise_cfg(dt=0.01, t_end=0.1), n_save=6)
    states = noisy.states.copy()
    states[2, 5] = -0.0
    # initial data past the cap: the trajectory is its one initial row
    stillborn = simulate_path(replace(heat(), u0=lambda x: 2.0 * np.cos(x),
                                      blowup_cap=1.0))
    assert stillborn.status == "blew_up" and stillborn.times.shape == (1,)
    for k, traj in enumerate((replace(noisy, states=states), stillborn)):
        path = tmp_path / f"traj_{k}.csv"
        save_trajectory_csv(traj, path)
        read_times, read_states = load_trajectory_csv(path)
        # bits, not values: array_equal reads -0.0 == 0.0
        assert read_times.view(np.uint64).tolist() \
            == traj.times.view(np.uint64).tolist()
        assert read_states.view(np.uint64).tolist() \
            == traj.states.view(np.uint64).tolist()


@pytest.mark.parametrize("rows", [1, 2, 32, 33, 257, "edge_values"])
def test_trajectory_csv_has_savetxt_bytes(tmp_path, rows):
    # np.savetxt, one row per call, is the oracle; the writer formats 32
    # rows at once, so 32 and 33 rows sit at a chunk's edge
    base = simulate_path(small_noise_cfg(dt=0.01, t_end=0.1), n_save=2)
    if rows == "edge_values":
        # every edge the %.17g format meets: signed zero, subnormals, 17
        # significant digits, the switch to an exponent, the largest
        # double, NaN and both infinities
        edge = np.array([-0.0, 5e-324, 1e-320, 0.1, 1e16, 1e17,
                         1.7976931348623157e308, np.nan, np.inf, -np.inf])
        states = np.stack([edge, -edge, edge[::-1]])
        times = np.array([0.0, 0.1, 1.0 / 3.0])
    else:
        rng = np.random.default_rng(rows)
        states = rng.standard_normal((rows, 64)) \
            * 10.0 ** rng.integers(-8, 8, (rows, 64))
        times = np.arange(rows) / 3.0
    traj = replace(base, times=times, states=states)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    oracle = tmp_path / "oracle.csv"
    np.savetxt(oracle, np.column_stack([times, states]), fmt="%.17g",
               delimiter=",", comments="",
               header="t," + ",".join(f"x{j}" for j in range(states.shape[1])))
    assert path.read_bytes() == oracle.read_bytes()
    read_times, read_states = load_trajectory_csv(path)
    assert read_times.view(np.uint64).tolist() \
        == times.view(np.uint64).tolist()
    finite = np.isfinite(states)
    assert read_states[finite].view(np.uint64).tolist() \
        == states[finite].view(np.uint64).tolist()
    assert np.array_equal(read_states[~finite], states[~finite],
                          equal_nan=True)


def test_survival_monotone_in_cap():
    base = replace(heat(), u0=lambda x: 2.0 * np.cos(x))
    lo = mc_run(EnsembleConfig(base=replace(base, blowup_cap=1.0), n_paths=3))
    hi = mc_run(EnsembleConfig(base=replace(base, blowup_cap=1e6), n_paths=3))
    assert lo.survival <= hi.survival
    assert lo.survival == 0.0 and hi.survival == 1.0


# --- forked workers -------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


def blowup_ensemble(outdir, n_paths):
    # experiment_global's h=2, scale=3 coefficient on the sublinear base:
    # paths 0, 2, 8, 9 and 13 blow up early, so their CSVs are shorter
    base = sublinear_global()
    wired = replace(base.nonlinearity, g=lambda y: 3.0 * np.abs(y) ** 2)
    return EnsembleConfig(base=replace(base, nonlinearity=wired, t_end=0.25,
                                       seed=3),
                          n_paths=n_paths,
                          outdir=None if outdir is None else str(outdir))


def force_workers(monkeypatch, w):
    monkeypatch.setattr(harness, "_workers", lambda n_paths, n_steps: w)


RECORD_ARRAYS = ("times", "states", "kept", "steps", "sigma_hat", "stats")


@pytest.mark.parametrize("n_paths", [4, 5, 14])
def test_forked_writers_write_the_serial_bytes(n_paths, tmp_path,
                                               monkeypatch):
    # 4, 5 or 14 paths split unevenly over 2 or 3 workers give the record
    # and the files of 1; at 14 paths blown-up rows land in every worker.
    # 8 workers outnumber the cores of a small host, and at 4 or 5 paths
    # some of them get no path at all
    counts = (1, 2, 3, 8) if hasattr(os, "fork") else (1,)
    cfg = blowup_ensemble(None, n_paths)
    written, records = [], []
    for w in counts:
        force_workers(monkeypatch, w)
        records.append(run_ensemble(cfg))
        trajs = run_ensemble(replace(cfg, outdir=str(tmp_path / f"w{w}")))
        records.append(trajs)
        directory = tmp_path / f"w{w}" / "ensemble"
        written.append({f.name: f.read_bytes() for f in directory.iterdir()})
    assert [t.completed for t in trajs][:3] == [False, True, False]
    assert len({t.times.size for t in trajs}) > 1
    if n_paths == 14:
        assert np.flatnonzero(trajs.steps < trajs.config.n_steps).tolist() \
            == [0, 2, 8, 9, 13]
    assert sorted(written[0]) \
        == sorted(f"path_{i}.csv" for i in range(n_paths))
    assert all(files == written[0] for files in written)
    serial = records[0]
    for ens in records:
        assert ens.config == serial.config and ens.seeds == serial.seeds
        for name in RECORD_ARRAYS:
            got, want = getattr(ens, name), getattr(serial, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def test_worker_count_follows_the_work(tmp_path, monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    per_worker = harness._MIN_PATH_STEPS_PER_WORKER
    assert harness._workers(1, 100 * per_worker) == 1
    assert harness._workers(8, 125) == 1
    assert harness._workers(16, 250) == 1  # criterion 11's ensembles
    assert harness._workers(2, per_worker - 1) == 1
    if hasattr(os, "fork"):
        # experiment_global's 18-path calls and the regularity ensemble
        assert harness._workers(18, 1000) == min(cpus, 2)
        assert harness._workers(8, 2000) == min(cpus, 2)
        assert harness._workers(400, 1000) == min(cpus, 80)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert harness._workers(400, 1000) == 1

    # one CPU (as just patched, where fork exists), one path or a small
    # ensemble forks nothing
    def no_fork():
        raise AssertionError("forked for a run that stays serial")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    one_path = replace(heat(), dt=1.0 / (2 * per_worker))
    runs = [(EnsembleConfig(base=small_noise_cfg(), n_paths=18, n_save=2,
                            outdir=str(tmp_path)), 18),
            (EnsembleConfig(base=one_path, n_paths=1, n_save=2), 1)]
    if hasattr(os, "fork"):
        runs.append((EnsembleConfig(base=small_noise_cfg(dt=1e-3),
                                    n_paths=24, n_save=2), 24))
    for cfg, n_paths in runs:
        assert len(run_ensemble(cfg)) == n_paths
    assert one_path.n_steps >= 2 * per_worker
    assert len(list((tmp_path / "ensemble").iterdir())) == 18


@needs_fork
def test_failed_child_writer_raises(tmp_path, monkeypatch, capfd):
    # worker 1 of 3 takes paths 1 and 4; a directory squats on path 1
    force_workers(monkeypatch, 3)
    directory = tmp_path / "ensemble"
    (directory / "path_1.csv").mkdir(parents=True)
    with pytest.raises(OSError, match="path_1.csv, .*path_4.csv") as err:
        run_ensemble(blowup_ensemble(tmp_path, 5))
    assert type(err.value) is OSError
    assert "IsADirectoryError" in capfd.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert all((directory / f"path_{i}.csv").is_file() for i in (0, 2, 3))


@needs_fork
def test_failed_child_names_its_paths_without_outdir(monkeypatch, capfd):
    # a map g that fails in every process but the caller: worker 2 of 3
    # takes paths 2 and 5
    caller = os.getpid()

    def g(y):
        if os.getpid() != caller:
            raise FloatingPointError("failing in a worker")
        return 1.0 + np.abs(y)

    force_workers(monkeypatch, 3)
    base = replace(sublinear_global(), t_end=0.01,
                   nonlinearity=replace(sublinear_global().nonlinearity, g=g))
    with pytest.raises(OSError, match=r"on path 1, path 2, path 4, path 5$"):
        run_ensemble(EnsembleConfig(base=base, n_paths=6))
    assert capfd.readouterr().err.count(
        "FloatingPointError: failing in a worker") == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_failed_parent_share_raises_its_own_error(tmp_path, monkeypatch):
    force_workers(monkeypatch, 3)
    directory = tmp_path / "ensemble"
    (directory / "path_0.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError, match="path_0.csv"):
        run_ensemble(blowup_ensemble(tmp_path, 5))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the children wrote their shares before they were reaped
    assert all((directory / f"path_{i}.csv").is_file() for i in (1, 2, 4))


# --- energy experiment ----------------------------------------------------------------

def test_energy_pure_decay_constant():
    base = replace(heat(), u0=lambda x: 0.5 * np.cos(x), dt=1e-3)
    report = experiment_energy(EnsembleConfig(base=base, n_paths=2))
    assert not report.blew_up
    assert report.c_hat <= 1.0 + 1e-6
    assert report.drift <= 0.01
    # the exact identity: final + 2*int grad == initial for heat flow
    final = report.stats.functionals["final_l2_sq"].mean
    grad = report.stats.functionals["grad_integral"].mean
    init = report.stats.functionals["initial_l2_sq"].mean
    assert final + 2 * grad == pytest.approx(init, rel=2e-3)


def test_energy_additive_noise_stable():
    cfg = EnsembleConfig(base=small_noise_cfg(dt=2e-3, t_end=1.0), n_paths=32)
    report = experiment_energy(cfg)
    assert not report.blew_up
    assert np.isfinite(report.c_hat) and report.c_hat > 0
    assert report.drift <= 0.10
    assert report.growth_rate >= 0.0


def test_energy_monotone_in_noise_bound():
    def run(scale):
        g = lambda y: scale * (1.0 + np.abs(y))
        base = small_noise_cfg(dt=4e-3, t_end=0.5, g=g)
        return experiment_energy(EnsembleConfig(base=base,
                                                n_paths=16)).c_hat

    assert run(2.0) >= run(1.0)


def test_energy_flags_blowup():
    base = replace(heat(), u0=lambda x: 2.0 * np.cos(x), blowup_cap=1.0)
    report = experiment_energy(EnsembleConfig(base=base, n_paths=2))
    assert report.blew_up


# --- global survival --------------------------------------------------------------------

def test_global_linear_noise_survives():
    cfg = EnsembleConfig(base=small_noise_cfg(dt=2e-3, t_end=1.0), n_paths=20)
    report = experiment_global(1.0, cfg)
    assert report.survival == 1.0


def test_global_zero_scale_trivial():
    cfg = EnsembleConfig(base=small_noise_cfg(dt=0.01, t_end=0.2), n_paths=3)
    report = experiment_global(1.0, cfg, noise_scale=0.0)
    assert report.survival == 1.0


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus_inf"])
def test_global_non_finite_noise_scale_is_a_parameter_error(
        scale, tmp_path, monkeypatch):
    # g(0) = scale * 0 is NaN: every path would stop at step 0 and the
    # summary would record the scale as NaN or Infinity
    def no_run(cfg):
        raise AssertionError("a path ran")

    monkeypatch.setattr(harness, "run_ensemble", no_run)
    cfg = EnsembleConfig(base=small_noise_cfg(), n_paths=2,
                         outdir=str(tmp_path))
    with pytest.raises(ParameterError, match="noise scale must be finite"):
        experiment_global(1.0, cfg, noise_scale=scale)
    assert not (tmp_path / "ensemble").exists()


def test_global_negative_scale_is_legal(tmp_path):
    base = replace(small_noise_cfg(dt=0.01, t_end=0.2), u0=np.cos)
    report = experiment_global(1.0, EnsembleConfig(base=base, n_paths=3,
                                                   outdir=str(tmp_path)),
                               noise_scale=-2.0)
    assert report.noise_scale == -2.0 and report.survival == 1.0
    summary = json.loads((tmp_path / "ensemble" / "summary.json").read_text())
    assert summary["noise_scale"] == -2.0


def test_global_exploratory_power():
    cfg = EnsembleConfig(base=small_noise_cfg(dt=2e-3, t_end=0.25), n_paths=4)
    report = experiment_global(2.5, cfg)
    assert 0.0 <= report.survival <= 1.0


def test_global_power_window():
    cfg = EnsembleConfig(base=small_noise_cfg(), n_paths=1)
    with pytest.raises(ParameterError):
        experiment_global(0.5, cfg)
    with pytest.raises(ParameterError):
        experiment_global(3.0, cfg)


@pytest.mark.parametrize("run", [mc_run, experiment_energy,
                                 lambda cfg: experiment_global(1.0, cfg)],
                         ids=["mc_run", "energy", "global"])
def test_one_summary_write_per_call(run, tmp_path, monkeypatch):
    # each call writes its experiment's summary.json once, with its report
    writes = []

    def counting(directory, payload):
        writes.append(directory)
        return write_summary(directory, payload)

    monkeypatch.setattr(harness, "write_summary", counting)
    cfg = EnsembleConfig(base=small_noise_cfg(dt=0.01, t_end=0.1), n_paths=2,
                         outdir=str(tmp_path))
    report = run(cfg)
    assert writes == [tmp_path / "ensemble"]
    summary = json.loads((tmp_path / "ensemble" / "summary.json").read_text())
    assert summary["experiment"] == "ensemble"
    assert summary.keys() - {"experiment"} == asdict(report).keys()


# --- regularity --------------------------------------------------------------------------

def test_regularity_deterministic_smooth():
    base = SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec(),
                     t_end=1.0, dt=1.0 / 1024, u0=np.cos)
    report = experiment_regularity(EnsembleConfig(base=base, n_paths=3,
                                                  n_save=257))
    assert report.median_theta_time >= 0.9
    assert report.median_theta_space >= 0.9
    assert report.n_completed == 3


# --- convergence ----------------------------------------------------------------------------

def test_convergence_linear_additive_order():
    base = SimConfig(grid=TorusGrid(32), nonlinearity=NonlinearitySpec(g=1.0),
                     noise=NoiseSpec(lam=0.75, modes=5), t_end=0.25,
                     dt=1.0 / 512, u0=None)
    report = convergence_study(EnsembleConfig(base=base, n_paths=6), levels=3)
    assert not report.temporal_exact
    assert report.temporal_order is not None
    assert report.temporal_order >= 0.45


def test_convergence_exact_linear_heat():
    report = convergence_study(EnsembleConfig(base=heat(), n_paths=1),
                               levels=3)
    assert report.temporal_exact
    assert report.temporal_order is None
    assert report.spatial_exact


def test_convergence_spectral_spatial():
    base = SimConfig(grid=TorusGrid(32),
                     nonlinearity=NonlinearitySpec(f=lambda y: y ** 3),
                     t_end=0.1, dt=1e-3, u0=lambda x: 2.0 * np.cos(x))
    report = convergence_study(EnsembleConfig(base=base, n_paths=1), levels=3)
    assert len(report.spatial_errors) == 2
    e = report.spatial_errors
    assert e[1] < 1e-13 or e[0] / e[1] >= 10.0


def test_convergence_needs_levels():
    with pytest.raises(ParameterError):
        convergence_study(EnsembleConfig(base=heat(), n_paths=1), levels=2)


@pytest.mark.parametrize("levels", [3.0, "3"], ids=["float", "string"])
def test_convergence_levels_must_be_an_integer(levels):
    with pytest.raises(ParameterError,
                       match="refinement levels must be an integer >= 3"):
        convergence_study(EnsembleConfig(base=heat(), n_paths=1),
                          levels=levels)


def test_convergence_errors_skip_paths_that_blew_up():
    # on this base paths 0, 2 and 13 blow up at dt and at 2 dt, and paths
    # 3, 8 and 9 at one of the two, as at t_end 0.25; 0.256 is a whole
    # number of 4 dt steps.  A level's error is the mean over the paths
    # that completed at both of its steps
    cfg = blowup_ensemble(None, 18)
    base = replace(cfg.base, t_end=0.256)
    seeds = [mix_seed(base.seed, i) for i in range(18)]
    ref = _integrate(base, seeds, 2)
    ref_blew_up = set(np.flatnonzero(ref.steps < base.n_steps).tolist())
    report = convergence_study(replace(cfg, base=base), levels=3)
    for m, factor in enumerate((2, 4)):
        coarse = _integrate(replace(base, dt=factor * base.dt), seeds, 2,
                            substeps=factor)
        blew_up = set(np.flatnonzero(coarse.steps
                                     < coarse.config.n_steps).tolist())
        if factor == 2:
            assert ref_blew_up & blew_up == {0, 2, 13}
            assert ref_blew_up ^ blew_up == {3, 8, 9}
        both = [p for p in range(18) if p not in ref_blew_up | blew_up]
        errs = [float(np.sqrt(l2_norm_sq(coarse.states[p, -1]
                                         - ref.states[p, -1])))
                for p in both]
        assert report.temporal_errors[m] == float(np.mean(errs))


def test_convergence_with_no_completed_path_raises():
    base = replace(heat(), u0=lambda x: 2.0 * np.cos(x), blowup_cap=1.0)
    with pytest.raises(ParameterError, match="no path completed"):
        convergence_study(EnsembleConfig(base=base, n_paths=1))


# --- misc -------------------------------------------------------------------------------------

def test_ensemble_config_validation():
    with pytest.raises(ParameterError):
        EnsembleConfig(base=heat(), n_paths=0)


def test_write_summary_sorted(tmp_path):
    out = write_summary(tmp_path, {"b": 1.5, "a": [1, 2]})
    payload = json.loads(out.read_text())
    assert list(payload) == ["a", "b"]
    keys = out.read_text()
    assert keys.index('"a"') < keys.index('"b"')


def test_write_summary_rejects_non_finite_values(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_summary(tmp_path / "run", {"a": 1.5, "b": {"c": float("nan")}})
    assert not (tmp_path / "run" / "summary.json").exists()


def test_run_ensemble_order_and_seeds():
    cfg = EnsembleConfig(base=small_noise_cfg(dt=0.01, t_end=0.1), n_paths=4)
    trajs = run_ensemble(cfg)
    for i, traj in enumerate(trajs):
        assert traj.config.seed == mix_seed(0, i)
