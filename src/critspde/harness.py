"""Monte Carlo experiment orchestration.

Per-path seeds come from a splittable-style 64-bit mix of (master seed,
path index), and the batched kernel steps each path on its own stream, so
an ensemble is reproducible path by path whatever its size.  Reduction
always folds results in path-index order.
"""

from __future__ import annotations

import json
import math
import os
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Tuple

import numpy as np

from .exponents import ParameterError
from .monitors import HoelderFit, _row_medians, hoelder_estimate
from .sim import (
    SimConfig,
    Trajectory,
    coarsen_increments,
    draw_increments,
    l2_norm_sq,
    simulate_path,
    simulate_paths,
)

_MASK64 = (1 << 64) - 1

# an error below this is roundoff: errors all below it mean exact agreement,
# and a ratio against one is noise
_ROUNDOFF = 1e-13


def mix_seed(master: int, index: int) -> int:
    """Splittable 64-bit hash of (master, index); documented bit-exactly."""
    z = (master + index * 0x9E3779B97F4A7C15) & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class EnsembleConfig:
    base: SimConfig
    n_paths: int = 8
    experiment: str = "ensemble"
    outdir: Optional[str] = None
    n_save: Optional[int] = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterError("need at least one path")


@dataclass(frozen=True)
class FunctionalStats:
    mean: float
    var: float
    ci_low: Optional[float]
    ci_high: Optional[float]


@dataclass(frozen=True)
class EnsembleStats:
    n_paths: int
    seeds: Tuple[int, ...]
    functionals: Dict[str, FunctionalStats]
    survival: float
    ci_mode: str


# --- persistence ------------------------------------------------------------


def save_trajectory_csv(traj: Trajectory, path: Path) -> None:
    arr = np.column_stack([traj.times, traj.states])
    header = "t," + ",".join(f"x{j}" for j in range(traj.states.shape[1]))
    np.savetxt(path, arr, fmt="%.17g", delimiter=",", header=header,
               comments="")


# Each forked writer must have at least this many values to format.  On a
# 2-CPU Xeon VM (py3.11, numpy 2.4) an os.fork plus its os.waitpid took
# 2.6-6.4 ms, with or without 100 MB of arrays resident, and '%.17g'
# formatted a value in 0.55-1.4 us, as the host's speed swung; measured
# together, formatting 2**15 values (18-46 ms) took at least 6x a fork.
# An 18-path ensemble of two snapshots at n = 64 (2.3k values) stays
# serial; 8 regularity paths of 257 snapshots at n = 128 (265k values)
# take two writers on two CPUs.
_MIN_VALUES_PER_WORKER = 1 << 15


def _csv_writers(n_files: int, n_values: int) -> int:
    """How many processes write n_files path CSVs of n_values values."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_files, n_values // _MIN_VALUES_PER_WORKER))


def _write_share(jobs: List[Tuple[Trajectory, Path]]) -> NoReturn:
    """A forked writer's share; it never returns into the caller's code.

    It only copies arrays, formats text and writes files, so it takes no
    lock that another thread of the parent could have held at the fork.
    """
    code = 1
    try:
        for traj, path in jobs:
            save_trajectory_csv(traj, path)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _save_trajectory_csvs(jobs: List[Tuple[Trajectory, Path]]) -> None:
    """Write each (trajectory, path) job with save_trajectory_csv.

    Writer k of w takes jobs[k::w]: the calling process is writer 0 and
    forks the others, whose file bytes are the same as a serial write's.
    Every child is reaped before this returns or raises.
    """
    n_values = sum(t.times.size + t.states.size for t, _ in jobs)
    w = _csv_writers(len(jobs), n_values)
    children = {}
    try:
        for k in range(1, w):
            pid = os.fork()
            if pid == 0:
                _write_share(jobs[k::w])
            children[pid] = [str(path) for _, path in jobs[k::w]]
        for traj, path in jobs[::w]:
            save_trajectory_csv(traj, path)
    finally:
        failed = []
        for pid, paths in children.items():
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                failed += paths
    if failed:
        raise OSError(f"a CSV writer failed on {', '.join(failed)}")


def load_trajectory_csv(path: Path) -> Tuple[np.ndarray, np.ndarray]:
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return arr[:, 0], arr[:, 1:]


def write_summary(directory: Path, payload: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / "summary.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return out


def _write_experiment_summary(cfg: EnsembleConfig, fields: dict) -> None:
    """summary.json of an experiment run: its name and the report's fields."""
    if cfg.outdir is not None:
        write_summary(Path(cfg.outdir) / cfg.experiment,
                      {"experiment": cfg.experiment, **fields})


# --- ensemble core ------------------------------------------------------------


def run_ensemble(cfg: EnsembleConfig) -> List[Trajectory]:
    """All trajectories of the ensemble, in path-index order.

    With an outdir, path i is written to ``<outdir>/<experiment>/path_i.csv``
    by save_trajectory_csv.  An output large enough to pay for a fork
    (``_MIN_VALUES_PER_WORKER`` values per writer) is split over up to one
    forked writer per usable CPU; one CPU or a small output is written
    serially.  Either way the bytes are the same, and no child process is
    left when this returns or raises.
    """
    seeds = [mix_seed(cfg.base.seed, i) for i in range(cfg.n_paths)]
    trajs = simulate_paths(cfg.base, seeds, n_save=cfg.n_save)
    if cfg.outdir is not None:
        directory = Path(cfg.outdir) / cfg.experiment
        directory.mkdir(parents=True, exist_ok=True)
        _save_trajectory_csvs([(traj, directory / f"path_{i}.csv")
                               for i, traj in enumerate(trajs)])
    return trajs


def _ensemble_stats(cfg: EnsembleConfig) -> EnsembleStats:
    """Run the ensemble, writing its path CSVs but no summary, and reduce
    its per-path stats."""
    trajs = run_ensemble(cfg)
    seeds = tuple(mix_seed(cfg.base.seed, i) for i in range(cfg.n_paths))
    samples = {
        "initial_l2_sq": np.array([t.stats.initial_l2_sq for t in trajs]),
        "sup_l2_sq": np.array([t.stats.sup_l2_sq for t in trajs]),
        "grad_integral": np.array([t.stats.grad_integral for t in trajs]),
        "final_l2_sq": np.array([t.stats.final_l2_sq for t in trajs]),
        "sigma_hat": np.array([t.sigma_hat for t in trajs]),
    }
    n = cfg.n_paths
    ci_mode = "normal" if n >= 30 else "wide"
    functionals = {}
    for name, xs in samples.items():
        mean = float(np.mean(xs))
        var = float(np.var(xs, ddof=1)) if n >= 2 else 0.0
        if ci_mode == "normal":
            half = 1.96 * math.sqrt(var / n)
            lo, hi = mean - half, mean + half
        else:
            lo = hi = None
        functionals[name] = FunctionalStats(mean, var, lo, hi)
    survived = sum(
        1 for t in trajs
        if t.completed and t.sigma_hat >= cfg.base.t_end - 1e-12)
    return EnsembleStats(n, seeds, functionals, survived / n, ci_mode)


def mc_run(cfg: EnsembleConfig) -> EnsembleStats:
    stats = _ensemble_stats(cfg)
    _write_experiment_summary(cfg, asdict(stats))
    return stats


# --- experiments ---------------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    c_hat: float
    c_hat_refined: float
    drift: float
    growth_rate: float
    blew_up: bool
    stats: EnsembleStats
    stats_refined: EnsembleStats


def _energy_constant(stats: EnsembleStats) -> float:
    lhs = stats.functionals["sup_l2_sq"].mean \
        + stats.functionals["grad_integral"].mean
    return lhs / (1.0 + stats.functionals["initial_l2_sq"].mean)


def experiment_energy(cfg: EnsembleConfig) -> EnergyReport:
    """Estimate the constant in the a-priori energy bound and its stability.

    The bound says E sup ||u||^2 + E int ||grad u||^2 <= C (1 + E||u0||^2)
    whenever the noise coefficient grows at most linearly.  Any path blow-up
    flags the report as invalid for the bound.
    """
    stats = _ensemble_stats(cfg)
    refined_base = replace(cfg.base, dt=cfg.base.dt / 2.0)
    refined_cfg = replace(cfg, base=refined_base, outdir=None)
    stats_refined = _ensemble_stats(refined_cfg)
    c_hat = _energy_constant(stats)
    c_ref = _energy_constant(stats_refined)
    drift = abs(c_hat - c_ref) / max(c_hat, 1e-300)
    rate = math.log(max(c_hat, 1.0)) / cfg.base.t_end
    report = EnergyReport(c_hat, c_ref, drift, rate,
                          stats.survival < 1.0, stats, stats_refined)
    _write_experiment_summary(cfg, asdict(report))
    return report


@dataclass(frozen=True)
class SurvivalReport:
    h: float
    noise_scale: float
    survival: float
    stats: EnsembleStats


def experiment_global(h: float, cfg: EnsembleConfig,
                      noise_scale: float = 1.0) -> SurvivalReport:
    """Survival fraction with noise coefficient g(y) = scale * |y|^h.

    The linear case h=1 is expected to survive every desk-scale horizon;
    h > 1 is exploratory and only reported.
    """
    if not 1.0 <= h < 3.0:
        raise ParameterError("noise growth power must lie in [1, 3)")
    wired = replace(cfg.base.nonlinearity,
                    g=lambda y: noise_scale * np.abs(y) ** h)
    run_cfg = replace(cfg, base=replace(cfg.base, nonlinearity=wired))
    stats = _ensemble_stats(run_cfg)
    report = SurvivalReport(float(h), float(noise_scale), stats.survival,
                            stats)
    _write_experiment_summary(cfg, asdict(report))
    return report


@dataclass(frozen=True)
class RegularityReport:
    median_theta_time: float
    median_theta_space: float
    median_r2_time: float
    median_r2_space: float
    n_paths: int
    n_completed: int
    fits: Tuple[HoelderFit, ...]


def experiment_regularity(cfg: EnsembleConfig,
                          t0: Optional[float] = None) -> RegularityReport:
    """Aggregate empirical Hoelder exponents over an ensemble."""
    save = cfg.n_save if cfg.n_save is not None else 257
    trajs = run_ensemble(replace(cfg, n_save=save, outdir=None))
    fits = tuple(hoelder_estimate(t, t0=t0) for t in trajs if t.completed)
    if not fits:
        raise ParameterError("no completed paths to fit")
    # np.median's bits, without its numpy.ma import
    medians = _row_medians(np.array([[f.theta_time, f.theta_space, f.r2_time,
                                      f.r2_space] for f in fits]).T)
    report = RegularityReport(*map(float, medians), cfg.n_paths, len(fits),
                              fits)
    summary = asdict(report)
    del summary["fits"]  # the per-path fits are returned, not written
    _write_experiment_summary(cfg, summary)
    return report


@dataclass(frozen=True)
class ConvergenceReport:
    temporal_errors: Tuple[float, ...]
    temporal_order: Optional[float]
    temporal_exact: bool
    spatial_errors: Tuple[float, ...]
    spatial_ratios: Tuple[float, ...]
    spatial_exact: bool


def convergence_study(cfg: EnsembleConfig, levels: int = 3) -> ConvergenceReport:
    """Strong dt refinement (common noise) and spectral N refinement.

    Temporal part: each path's Brownian table is drawn at the base dt and
    aggregated onto coarser steps, the base-resolution run serving as the
    reference.  Spatial part: the deterministic drift-only problem is run at
    n, 2n, 4n, ... and consecutive solutions compared at shared grid points.
    """
    if levels < 3:
        raise ParameterError("need at least three refinement levels")
    base = cfg.base

    # a noise-free problem is one path stepped with no table
    noisy = base.nonlinearity.has_noise
    per_level: List[List[float]] = [[] for _ in range(levels - 1)]
    for i in range(cfg.n_paths if noisy else 1):
        path_cfg = replace(base, seed=mix_seed(base.seed, i))
        fine = draw_increments(path_cfg) if noisy else None
        ref = simulate_path(path_cfg, n_save=2, increments=fine)
        for m in range(1, levels):
            factor = 2 ** m
            table = coarsen_increments(fine, factor) if noisy else None
            traj = simulate_path(replace(path_cfg, dt=base.dt * factor),
                                 n_save=2, increments=table)
            err = np.sqrt(l2_norm_sq(traj.states[-1] - ref.states[-1]))
            per_level[m - 1].append(float(err))
    temporal_errors = [float(np.mean(errs)) for errs in per_level]
    temporal_exact = all(e < _ROUNDOFF for e in temporal_errors)
    if temporal_exact:
        temporal_order = None
    else:
        # errors are ordered from the finest coarsening up; consecutive
        # ratios estimate 2^order
        orders = [math.log2(b / a)
                  for a, b in zip(temporal_errors, temporal_errors[1:])
                  if a > 0]
        temporal_order = float(np.mean(orders)) if orders else None

    det_nl = replace(base.nonlinearity, g=None)
    grids = []
    n = base.grid.n
    for _ in range(levels):
        grids.append(n)
        n *= 2
    runs = []
    for n in grids:
        det_cfg = replace(base, grid=type(base.grid)(n), nonlinearity=det_nl,
                          noise=None)
        runs.append(simulate_path(det_cfg, n_save=2).states[-1])
    spatial_errors = []
    for coarse, fine in zip(runs, runs[1:]):
        restricted = fine[::2]
        spatial_errors.append(float(np.sqrt(l2_norm_sq(coarse - restricted))))
    spatial_exact = all(e < _ROUNDOFF for e in spatial_errors)
    ratios = tuple(a / b for a, b in zip(spatial_errors, spatial_errors[1:])
                   if b >= _ROUNDOFF)

    report = ConvergenceReport(tuple(temporal_errors), temporal_order,
                               temporal_exact, tuple(spatial_errors), ratios,
                               spatial_exact)
    _write_experiment_summary(cfg, asdict(report))
    return report
