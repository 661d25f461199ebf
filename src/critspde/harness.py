"""Monte Carlo experiment orchestration.

Per-path seeds come from a splittable-style 64-bit mix of (master seed,
path index), and the batched kernel steps each path on its own stream, so
an ensemble is reproducible path by path whatever its size.  Reduction
always folds results in path-index order.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import traceback
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

import numpy as np

from .exponents import ParameterError
from .monitors import HoelderFit, _row_medians, hoelder_estimate
from .sim import (
    Ensemble,
    PathStats,
    SimConfig,
    Trajectory,
    _integer,
    _integrate,
    l2_norm_sq,
    simulate_path,
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
        # stored as ints: json rejects a numpy integer in summary.json
        object.__setattr__(self, "n_paths",
                           _integer(self.n_paths, "n_paths", 1))
        if self.n_save is not None:
            object.__setattr__(self, "n_save", _integer(self.n_save, "n_save"))


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


# rows a CSV chunk formats at once: the file's text is never held whole
_CSV_CHUNK_ROWS = 32


def save_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """One header line "t,x0,...", then a row per saved time: the time and
    the state, each value as "%.17g" (17 significant digits, which reads
    back bit for bit), comma-separated.  The bytes are np.savetxt's with
    that format, but rows are formatted a chunk of 32 at a time by one %
    operation, not one row per call."""
    arr = np.column_stack([traj.times, traj.states])
    header = "t," + ",".join(f"x{j}" for j in range(traj.states.shape[1]))
    row_fmt = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="latin-1") as out:
        out.write(header + "\n")
        for start in range(0, arr.shape[0], _CSV_CHUNK_ROWS):
            chunk = arr[start:start + _CSV_CHUNK_ROWS]
            out.write((row_fmt * chunk.shape[0])
                      % tuple(chunk.ravel().tolist()))


def load_trajectory_csv(path: Path) -> Tuple[np.ndarray, np.ndarray]:
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return arr[:, 0], arr[:, 1:]


def write_summary(directory: Path, payload: dict) -> Path:
    """summary.json as strict JSON: a NaN or an inf raises ValueError."""
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / "summary.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2,
                              allow_nan=False) + "\n")
    return out


def _write_experiment_summary(cfg: EnsembleConfig, fields: dict) -> None:
    """summary.json of an experiment run: its name and the report's fields."""
    if cfg.outdir is not None:
        write_summary(Path(cfg.outdir) / cfg.experiment,
                      {"experiment": cfg.experiment, **fields})


# --- ensemble core ------------------------------------------------------------


# Each worker must have at least this many path-steps to integrate.  On a
# 2-CPU Xeon VM (py3.11, numpy 2.4) a fork plus the child's exit and reaping
# took about 3 ms, and a child running one sublinear-global path took 5-15 ms
# longer than the parent took for the same path.  Two workers against one
# process, as the median of 15 interleaved pairs of run_ensemble calls at
# n = 64 and 1000 steps: linear-noise lost at 8 paths (x1.04) and won from
# 10 (x0.96; x0.82 at 18); sublinear-global lost at 6 (x1.14) and won from
# 8 (x0.97; x0.88-0.95 at 12-18).  At 250 steps both won from 24-32 paths,
# 6000-8000 path-steps.  heat, about a fifth of their cost per path-step,
# lost up to 16 paths (x1.09) and broke even at 18.  So a split starts at
# 10000 path-steps: the 18-path, 1000-step calls of experiment_global and
# an 8-path regularity ensemble of 2000 steps take two workers, while a
# 16-path ensemble of 250 steps (criterion 11) stays in one process.
_MIN_PATH_STEPS_PER_WORKER = 5000


def _workers(n_paths: int, n_steps: int) -> int:
    """How many processes integrate n_paths paths of n_steps steps."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_paths,
                      n_paths * n_steps // _MIN_PATH_STEPS_PER_WORKER))


# the record's columns that hold an entry per path
_PATH_COLUMNS = ("states", "kept", "steps", "sigma_hat", "stats")


def _shared_columns(empty: Ensemble, n_paths: int) -> Dict[str, np.ndarray]:
    """The path columns of empty, a record of no path, widened to n_paths
    paths: views of one anonymous shared mapping that forked workers fill
    in place."""
    like = [getattr(empty, name) for name in _PATH_COLUMNS]
    # the path axis is a column's one axis of length 0
    shapes = [tuple(d or n_paths for d in a.shape) for a in like]
    sizes = [math.prod(shape) * a.itemsize for a, shape in zip(like, shapes)]
    shared = mmap.mmap(-1, sum(sizes))
    columns, offset = {}, 0
    for name, a, shape, size in zip(_PATH_COLUMNS, like, shapes, sizes):
        columns[name] = np.frombuffer(shared, a.dtype, math.prod(shape),
                                      offset).reshape(shape)
        offset += size
    return columns


def _run_share(cfg: EnsembleConfig, seeds: List[int], k: int, w: int,
               columns: Optional[Dict[str, np.ndarray]],
               directory: Optional[Path]) -> Ensemble:
    """Worker k of w: integrate paths k, k + w, ..., put their rows into
    the shared columns and write their CSVs into directory."""
    ens = _integrate(cfg.base, seeds[k::w], cfg.n_save)
    if columns is not None:
        rows = slice(k, None, w)
        for name in ("states", "kept", "steps", "sigma_hat"):
            columns[name][rows] = getattr(ens, name)
        columns["stats"][:, rows] = ens.stats  # (4, P): a path per column
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        for i, traj in zip(range(k, len(seeds), w), ens):
            save_trajectory_csv(traj, directory / f"path_{i}.csv")
    return ens


def _child(share: Callable[[], object]) -> NoReturn:
    """A forked worker runs its share and exits; it never returns into the
    caller's code, and a failure is its traceback on stderr and exit 1."""
    code = 1
    try:
        share()
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def run_ensemble(cfg: EnsembleConfig) -> Ensemble:
    """The ensemble's record; row i is path i, seeded mix_seed(seed, i).

    With an outdir, path i is written to ``<outdir>/<experiment>/path_i.csv``
    by save_trajectory_csv.  An ensemble with enough work
    (``_MIN_PATH_STEPS_PER_WORKER`` path-steps per worker) is split over up
    to one worker per usable CPU: worker k of w integrates paths k, k + w,
    ..., writes their rows into one shared mapping and writes their CSVs.
    The calling process is worker 0 and forks the others.  One path, one
    CPU or a small ensemble runs in the calling process alone.  Since a
    path's bytes do not depend on its batch, the record and the files are
    the same either way.  No child process is left when this returns or
    raises; a child that fails makes it raise an OSError naming its paths.
    """
    seeds = [mix_seed(cfg.base.seed, i) for i in range(cfg.n_paths)]
    directory = None
    if cfg.outdir is not None:
        directory = Path(cfg.outdir) / cfg.experiment
    w = _workers(cfg.n_paths, cfg.base.n_steps)
    columns = None
    if w > 1:
        # the record of no path gives the columns' layout and the save
        # times, and checks the config before anything forks
        empty = _integrate(cfg.base, [], cfg.n_save)
        columns = _shared_columns(empty, cfg.n_paths)
    children = {}
    try:
        for k in range(1, w):
            pid = os.fork()
            if pid == 0:
                _child(lambda: _run_share(cfg, seeds, k, w, columns,
                                          directory))
            children[pid] = k
        ens = _run_share(cfg, seeds, 0, w, columns, directory)
    finally:
        failed = []
        for pid, k in children.items():
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                failed += range(k, cfg.n_paths, w)
    if failed:
        names = [f"path {i}" if directory is None
                 else str(directory / f"path_{i}.csv") for i in sorted(failed)]
        raise OSError(f"an ensemble worker failed on {', '.join(names)}")
    if columns is None:
        return ens
    return replace(empty, seeds=tuple(seeds), **columns)


def _ensemble_stats(cfg: EnsembleConfig) -> EnsembleStats:
    """Run the ensemble, writing its path CSVs but no summary, and reduce
    the record's stats rows and sigma_hat."""
    ens = run_ensemble(cfg)
    samples = dict(zip((f.name for f in fields(PathStats)), ens.stats),
                   sigma_hat=ens.sigma_hat)
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
    survived = int(np.count_nonzero(ens.steps == cfg.base.n_steps))
    return EnsembleStats(n, ens.seeds, functionals, survived / n, ci_mode)


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
    if not math.isfinite(noise_scale):
        raise ParameterError(f"noise scale must be finite, not {noise_scale}")
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

    Temporal part: the paths run as one batch at the base dt, the
    reference, and as one batch at each coarser step dt*2^m on common
    noise, each coarse draw summing 2^m of the path's base-dt draws
    (_integrate's substeps).  A level's error is the mean, in path order,
    of ||u_coarse(T) - u_ref(T)|| over the paths that completed at both
    steps; a level where none did raises ParameterError.  Spatial part: the
    deterministic drift-only problem is run at n, 2n, 4n, ... and
    consecutive solutions compared at shared grid points.
    """
    levels = _integer(levels, "refinement levels", 3)
    base = cfg.base

    # a noise-free problem is one path
    paths = cfg.n_paths if base.nonlinearity.has_noise else 1
    seeds = [mix_seed(base.seed, i) for i in range(paths)]
    refs = _integrate(base, seeds, 2)
    temporal_errors = []
    for m in range(1, levels):
        factor = 2 ** m
        coarse = _integrate(replace(base, dt=base.dt * factor), seeds, 2,
                            substeps=factor)
        both = np.flatnonzero((refs.steps == base.n_steps)
                              & (coarse.steps == coarse.config.n_steps))
        if not both.size:
            raise ParameterError(f"no path completed at dt and at "
                                 f"{factor} dt")
        errs = [float(np.sqrt(l2_norm_sq(coarse.states[p, -1]
                                         - refs.states[p, -1])))
                for p in both]
        temporal_errors.append(float(np.mean(errs)))
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
