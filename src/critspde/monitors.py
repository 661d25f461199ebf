"""Diagnostic functionals along simulated trajectories.

Covers the energy bookkeeping the discrete scheme should respect (an Ito
identity residual), the weighted space-time norms whose finiteness governs
continuation past a candidate blow-up time, Hilbert-Schmidt norms of the
noise coefficient, and empirical Hoelder exponents estimated from saved
snapshots.  Like the stepper, the norms act along the last axis: a (T, n)
block of snapshots gives, bit for bit, the values of its rows one by one,
and a single (n,) state gives a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .exponents import CriticalityReport, ParameterError, Setting
from .sim import (
    TWO_PI,
    NoiseSpec,
    Trajectory,
    _energy,
    _irfft,
    _rfft,
    _save_indices,
    dealiased,
    simulate_path,
    spectral_weights,
)
from .weights import PowerWeight, SampledFunction, TimeGrid, weighted_lp_norm


@dataclass(frozen=True)
class MonitorSeries:
    times: np.ndarray
    values: Dict[str, np.ndarray]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or np.any(np.diff(t) < 0):
            raise ParameterError("monitor times must be nondecreasing")
        for name, v in self.values.items():
            v = np.asarray(v, dtype=float)
            if v.shape != t.shape:
                raise ParameterError(f"series {name} length mismatch")
            if not np.all(np.isfinite(v)):
                raise ParameterError(f"series {name} has non-finite entries")


@dataclass(frozen=True)
class HoelderFit:
    theta_time: float
    theta_space: float
    t_start: float
    t_end: float
    r2_time: float
    r2_space: float

    def __post_init__(self):
        if not 0.0 <= self.theta_time <= 1.0 or not 0.0 <= self.theta_space <= 1.0:
            raise ParameterError("fitted exponents must lie in [0, 1]")
        if self.t_start <= 0.0:
            raise ParameterError("fit window must stay away from t = 0")


def _rows(x: np.ndarray):
    """A reduction's result: a float for one state, else one value per row."""
    return float(x) if np.ndim(x) == 0 else x


def hs_norm_G(u: np.ndarray, g, noise: Optional[NoiseSpec]):
    """Hilbert-Schmidt norm of v -> g(u) * v over the truncated noise basis.

    Equals (sum_k sigma_k^2 ||g(u) e_k||_{L2}^2)^{1/2} for the sample vector
    u, which is (2 pi * noise.hs_density() * mean g(u)^2)^{1/2}.
    """
    u = np.asarray(u, dtype=float)
    if g is None:
        return _rows(np.zeros(u.shape[:-1]))
    if noise is None:
        raise ParameterError("a noise coefficient g needs its NoiseSpec")
    gu = np.asarray(g(u), dtype=float) if callable(g) \
        else np.full_like(u, float(g))
    return _rows(np.sqrt(TWO_PI * noise.hs_density()
                         * np.mean(gu ** 2, axis=-1)))


def spatial_norm(values: np.ndarray, smoothness: float, q: float = 2.0):
    """Fractional Sobolev norm via the Bessel multiplier (1+k^2)^{s/2}.

    Exact on band-limited fields.  For q = 2 the mode sum is used directly;
    otherwise the multiplied field is brought back to the grid and its
    L^q norm taken by quadrature.  q must satisfy 1 <= q < oo.
    """
    if not 1.0 <= q < np.inf:  # a NaN fails too
        raise ParameterError(f"spatial norm needs 1 <= q < oo, not {q}")
    if not -np.inf < smoothness < np.inf:
        raise ParameterError(f"spatial norm needs a finite smoothness, "
                             f"not {smoothness}")
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    m_hat = (1.0 + k * k) ** (smoothness / 2.0) * _rfft(values)
    if q == 2.0:
        return _rows(np.sqrt(_energy(m_hat, spectral_weights(n))))
    shifted = _irfft(m_hat, np.empty(values.shape))
    # keepdims: a one-state call takes the array root, as a block's rows do
    # (numpy's scalar power can round it differently)
    power = TWO_PI * np.mean(np.abs(shifted) ** q, axis=-1, keepdims=True)
    return _rows((power ** (1.0 / q))[..., 0])


def h_minus1_flux_norm(values: np.ndarray, f):
    """H^{-1} norm of d/dx f(u), with the simulator's dealiased derivative."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if f is None:
        return _rows(np.zeros(values.shape[:-1]))
    fu = np.asarray(f(values), dtype=float)
    f_hat = _rfft(fu)
    k = np.arange(n // 2 + 1, dtype=float)
    f_hat[..., ~dealiased(n)] = 0.0
    mode_sq = (k * k / (1.0 + k * k)) * (f_hat.real ** 2 + f_hat.imag ** 2)
    return _rows(np.sqrt(TWO_PI * np.vecdot(mode_sq, spectral_weights(n))))


def _window_grid(traj: Trajectory, window: Tuple[float, float]) -> TimeGrid:
    a, b = float(window[0]), float(window[1])
    if not 0.0 <= a < b:
        raise ParameterError("window must satisfy 0 <= a < b")
    if b > traj.sigma_hat + 1e-12:
        raise ParameterError("window extends beyond the trajectory lifetime")
    mask = (traj.times >= a - 1e-12) & (traj.times <= b + 1e-12)
    nodes = traj.times[mask]
    if nodes.size < 3:
        raise ParameterError("window contains too few saved snapshots")
    return TimeGrid(nodes)


def _window_states(traj: Trajectory, grid: TimeGrid) -> np.ndarray:
    idx = np.searchsorted(traj.times, grid.nodes)
    return traj.states[idx]


def blowup_functional(traj: Trajectory, setting: Setting,
                      window: Tuple[float, float]) -> float:
    """Weighted drift + noise space-time norm over the window.

    Drift part: L^p(window, w_kappa; H^{-1}) norm of d/dx f(u).  Noise part:
    same time norm of the Hilbert-Schmidt coefficient norm (the L^2-target
    realization of the noise functional).  Finiteness of this quantity is
    what the continuation criteria interrogate as t approaches the lifetime.
    """
    grid = _window_grid(traj, window)
    states = _window_states(traj, grid)
    nl = traj.config.nonlinearity
    p = float(setting.p)
    w = PowerWeight(float(setting.kappa), offset=grid.a)
    drift_series = h_minus1_flux_norm(states, nl.f)
    total = weighted_lp_norm(SampledFunction(grid, drift_series), p, w)
    if nl.has_noise:
        hs_series = hs_norm_G(states, nl.g, traj.config.noise)
        total += weighted_lp_norm(SampledFunction(grid, hs_series), p, w)
    return float(total)


@dataclass(frozen=True)
class XNormValue:
    part: str
    index: int
    slot: str
    time_exponent: float
    smoothness: float
    space_q: float
    value: float


def x_space_norm(traj: Trajectory, report: CriticalityReport,
                 window: Tuple[float, float],
                 kappa: float = 0.0) -> List[XNormValue]:
    """Per-term space-time norms in the continuation class.

    Each growth term contributes two entries: a higher-smoothness one at its
    trace exponent and a lower-smoothness one at the interpolated exponent.
    Values are weighted time norms (weight exponent kappa, default
    unweighted) of spatial Bessel norms of the saved snapshots.  Entries
    with the same (smoothness, space_q, time_exponent), as the critical
    case's trace and interpolated slots are, share one computed value.
    """
    grid = _window_grid(traj, window)
    states = _window_states(traj, grid)
    w = PowerWeight(float(kappa), offset=grid.a)
    out: List[XNormValue] = []
    values: Dict[Tuple[float, float, float], float] = {}
    for term in report.exponents:
        for slot, entry in zip(("trace", "interp"), term.x_entries):
            s, q = float(entry.smoothness), float(entry.space_q)
            p_time = float(entry.time_exponent)
            if (s, q, p_time) not in values:
                series = spatial_norm(states, s, q)
                values[s, q, p_time] = float(weighted_lp_norm(
                    SampledFunction(grid, series), p_time, w))
            out.append(XNormValue(term.part, term.index, slot, p_time, s, q,
                                  values[s, q, p_time]))
    return out


# --- Ito energy identity -----------------------------------------------------


def ito_energy_residual(traj: Trajectory) -> MonitorSeries:
    """Cumulative defect of the discrete L^2 energy identity.

    Replays the trajectory from its config (the path is deterministic given
    the seed) in one kernel pass, which sums, once per RNG block, each
    step's

        d||u||^2 + 2 ||grad u||^2 dt - (I + II + III)

    where I is the drift pairing (identically zero when f is declared
    x-independent), II the Ito correction dt * ||g(u)||_HS^2, and III the
    realized martingale increment 2 <u, g(u) dW> (SpectralStepper.
    energy_defects); it then checks each saved state against the replay's
    bit for bit.  A completed path whose save times are the kernel's
    schedule of its snapshot count is replayed at that schedule and
    compared row for row; any other (a blown-up path, or save times of
    another schedule) is replayed keeping every state.  For the pure heat
    flow the residual is roundoff; with noise it is the (mean-zero)
    quadratic variation mismatch, shrinking like sqrt(dt) at fixed
    horizon.  The series ends at the last kept state, so a path that blew
    up has one entry per step it kept.
    """
    cfg = traj.config
    per_step = np.empty(cfg.n_steps)
    n_save = traj.times.size
    if not (traj.completed and n_save >= 2 and np.array_equal(
            _save_indices(cfg.n_steps, n_save) * cfg.dt, traj.times)):
        n_save = None
    replay = simulate_path(cfg, n_save, ito_defect=per_step)
    # the path is bitwise deterministic, so each saved state, up to blow-up
    # too, is the replay's state at its step bit for bit
    saved_at, fits = slice(None), True
    if n_save is None:
        saved_at = np.rint(traj.times / cfg.dt).astype(int)
        fits = not saved_at.size or saved_at.max() < replay.times.size
    if not fits or replay.status != traj.status \
            or replay.sigma_hat != traj.sigma_hat \
            or not np.array_equal(replay.times[saved_at], traj.times) \
            or not np.array_equal(replay.states[saved_at], traj.states):
        raise ParameterError("trajectory does not replay from its config")
    steps = replay.stats.steps_taken
    times = np.arange(1, steps + 1) * float(cfg.dt)
    return MonitorSeries(times, {"residual": np.cumsum(per_step[:steps])})


# --- empirical Hoelder exponents ---------------------------------------------


# fewest dyadic lags (in time) and shifts (in space) a Hoelder fit takes
_MIN_LAGS = 6


def _loglog_slope(lags: np.ndarray, vals: np.ndarray) -> Tuple[float, float]:
    x = np.log(lags)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def _check_positive(stats: List[float], steps: List[int], what: str) -> None:
    """A log-log fit needs every increment statistic positive: a path that
    is constant in time or in space has no increments to fit."""
    for step, stat in zip(steps, stats):
        if not stat > 0.0:
            raise ParameterError(
                f"no Hoelder fit: the increment statistic at {what} {step} "
                f"is {stat!r}, not positive (is the path constant?)")


def _row_medians(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=1) of a 2-d float array with at least one column,
    with its bits and its NaN for a row that holds one; a is left as it was.

    Each row is sorted once (np.sort returns a copy), and the median is
    read as numpy reads it from its partition: the middle value, or the
    mean (a + b)/2 of the two middle values, and the last value where it
    is a NaN, which sorts last.  An order statistic's value does not
    depend on the method that finds it, so the bits are np.median's on
    the fit's rows |du|, which hold no -0.0; a row holding zeros of both
    signs could give a zero median of either sign.  numpy sorts with SIMD
    but partitions at several indices by introselect, some 6x slower on
    a (223, 128) lag block, and np.median imports numpy.ma on first use."""
    n = a.shape[1]
    half = n // 2
    ordered = np.sort(a, axis=1)
    if n % 2:
        med = ordered[:, half].copy()
    else:
        med = (ordered[:, half - 1] + ordered[:, half]) / 2.0
    last = ordered[:, -1]
    np.copyto(med, last, where=np.isnan(last))
    return med


def hoelder_estimate(traj: Trajectory, t0: Optional[float] = None) -> HoelderFit:
    """Empirical time and space Hoelder exponents from saved snapshots.

    Time: median over x of |u(t+lag) - u(t)|, averaged over t >= t0, fitted
    log-log against dyadic lags.  Space: the analogous statistic for dyadic
    circular grid shifts.  Exponents are clipped to [0, 1]; the early window
    (0, t0) is excluded because smoothing needs positive time to act.  A
    statistic of 0, as on a path constant in time or in space, has no
    logarithm: it raises a ParameterError naming its lag or shift.
    """
    times = traj.times
    if times.size < 8:
        raise ParameterError("need more saved snapshots for a Hoelder fit")
    t_end = float(times[-1])
    if t0 is None:
        t0 = 0.1 * t_end
    if not 0.0 < t0 < t_end:  # a NaN fails too
        raise ParameterError("fit start must lie inside (0, T)")
    if np.any(np.diff(times) <= 0):
        raise ParameterError("save times must be strictly increasing")

    start = int(np.searchsorted(times, t0 - 1e-12))
    lags = []
    m = 1
    while start + 2 * m < times.size:
        lags.append(m)
        m *= 2
    if len(lags) < _MIN_LAGS:
        raise ParameterError("insufficient dyadic lags for the time fit")

    block = traj.states[start:]
    block_times = times[start:]
    d_time = []
    lag_dt = []
    for m in lags:
        diffs = np.abs(block[m:] - block[:-m])
        d_time.append(float(np.mean(_row_medians(diffs))))
        lag_dt.append(float(np.mean(block_times[m:] - block_times[:-m])))
    _check_positive(d_time, lags, "time lag")
    slope_t, r2_t = _loglog_slope(np.array(lag_dt), np.array(d_time))

    n = traj.states.shape[1]
    shifts = []
    h = 1
    while h <= n // 4:
        shifts.append(h)
        h *= 2
    if len(shifts) < _MIN_LAGS:
        raise ParameterError("insufficient dyadic shifts for the space fit")
    sub = block[:: max(1, block.shape[0] // 40)]
    d_space = []
    for h in shifts:
        diffs = np.abs(np.roll(sub, -h, axis=1) - sub)
        d_space.append(float(np.mean(_row_medians(diffs))))
    _check_positive(d_space, shifts, "space shift")
    slope_x, r2_x = _loglog_slope(
        TWO_PI * np.array(shifts) / n, np.array(d_space))

    return HoelderFit(
        theta_time=float(np.clip(slope_t, 0.0, 1.0)),
        theta_space=float(np.clip(slope_x, 0.0, 1.0)),
        t_start=float(t0), t_end=t_end, r2_time=r2_t, r2_space=r2_x)
