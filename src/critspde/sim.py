"""Pseudospectral simulation of a stochastic heat equation on the torus.

The model is

    du - u_xx dt = d/dx f(u) dt + g(u) dW,     x in [0, 2*pi), periodic,

driven by spatially colored noise: independent scalar Brownian motions
multiply the real trigonometric orthonormal basis functions

    e_0 = (2*pi)^(-1/2),   e_k^c = pi^(-1/2) cos(kx),   e_k^s = pi^(-1/2) sin(kx)

with per-mode amplitude (1+k^2)^(-lam/2).  States live on an equispaced
collocation grid; the linear part is integrated exactly in Fourier space
(exponential Euler) or by a semi-implicit multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .exponents import GrowthSpec, ParameterError

TWO_PI = 2.0 * np.pi

PointwiseMap = Callable[[np.ndarray], np.ndarray]


class BlowUpSignal(Exception):
    """Raised when a state leaves the configured sup-norm cap.

    Carries the time at which integration stopped; simulate_path converts
    it into a terminal trajectory status rather than an error.
    """

    def __init__(self, t: float):
        super().__init__(f"state exceeded blow-up cap at t={t:.6g}")
        self.t = float(t)


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced collocation grid x_j = 2*pi*j/n with n a power of two."""

    n: int

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
            raise ParameterError("grid size must be a power of two, at least 8")

    @property
    def x(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

    @property
    def nyquist(self) -> int:
        return self.n // 2

    @property
    def modes(self) -> np.ndarray:
        return np.arange(self.n // 2 + 1)


@dataclass(frozen=True)
class NoiseSpec:
    """Colored-noise parameters: decay exponent and mode cutoff.

    Amplitude of basis mode k is (1+k^2)^(-lam/2); lam in (1/2, 1) keeps
    the noise rough but function-valued.
    """

    lam: float = 0.75
    modes: int = 21

    def __post_init__(self):
        if not 0.5 < float(self.lam) < 1.0:
            raise ParameterError("noise color exponent must lie in (1/2, 1)")
        if int(self.modes) < 0:
            raise ParameterError("mode cutoff must be nonnegative")

    def amplitudes(self) -> np.ndarray:
        k = np.arange(self.modes + 1, dtype=float)
        return (1.0 + k * k) ** (-float(self.lam) / 2.0)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise drift flux f and noise coefficient g.

    f and g act on sample values (vectorized y -> f(y)); g may instead be a
    plain float for a state-independent coefficient, or None for no noise.
    nu is the derivative-loss split carried as metadata for the exponent
    calculus; growth and sublinear_noise_bound are metadata that no code
    reads or enforces.
    """

    f: Optional[PointwiseMap] = None
    g: Union[None, float, PointwiseMap] = None
    nu: float = 1.0
    f_x_independent: bool = True
    growth: Optional[GrowthSpec] = None
    sublinear_noise_bound: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < float(self.nu) <= 2.0:
            raise ParameterError("derivative split nu must lie in (0, 2]")
        if self.g is not None and not callable(self.g):
            object.__setattr__(self, "g", float(self.g))

    @property
    def has_noise(self) -> bool:
        return self.g is not None


InitialData = Union[None, float, Sequence[float], np.ndarray,
                    Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SimConfig:
    grid: TorusGrid
    nonlinearity: NonlinearitySpec
    noise: Optional[NoiseSpec] = None
    t_end: float = 1.0
    dt: float = 1e-3
    scheme: str = "exp_euler"
    seed: int = 0
    blowup_cap: float = 1e6
    u0: InitialData = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ParameterError("time step and horizon must be positive")
        if self.scheme not in ("exp_euler", "semi_implicit"):
            raise ParameterError("scheme must be exp_euler or semi_implicit")
        if self.blowup_cap <= 0:
            raise ParameterError("blow-up cap must be positive")
        if self.nonlinearity.has_noise:
            if self.noise is None:
                raise ParameterError("noise spec required when g is present")
            if self.noise.modes > self.grid.n // 3:
                raise ParameterError("noise cutoff must stay in the dealiased "
                                     "band (at most n/3 modes)")

    @property
    def n_steps(self) -> int:
        ratio = self.t_end / self.dt
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
            raise ParameterError("horizon must be an integer number of steps")
        return n


def initial_values(cfg: SimConfig) -> np.ndarray:
    u0 = cfg.u0
    if u0 is None:
        return np.zeros(cfg.grid.n)
    if callable(u0):
        v = np.asarray(u0(cfg.grid.x), dtype=float)
    elif np.isscalar(u0):
        v = np.full(cfg.grid.n, float(u0))
    else:
        v = np.asarray(u0, dtype=float)
    if v.shape != (cfg.grid.n,):
        raise ParameterError("initial data must match the grid size")
    return v


# --- spectral bookkeeping -------------------------------------------------

def spectral_weights(n: int) -> np.ndarray:
    """Multiplicities of rfft bins: interior modes count for +k and -k."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w


def l2_norm_sq_spectral(u_hat: np.ndarray, weights: np.ndarray) -> float:
    return TWO_PI * float(weights @ (u_hat.real ** 2 + u_hat.imag ** 2))


def l2_norm_sq(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return TWO_PI * float(values @ values) / values.size


def dealiased(n: int) -> np.ndarray:
    """rfft bins kept by the 2/3 rule: k <= n/3."""
    return np.arange(n // 2 + 1) <= n // 3


def grad_norm_sq_spectral(u_hat: np.ndarray, k: np.ndarray,
                          weights: np.ndarray) -> float:
    k2 = k.astype(float) ** 2
    return TWO_PI * float((weights * k2) @ (u_hat.real ** 2 + u_hat.imag ** 2))


def basis_coefficient(values: np.ndarray, k: int, kind: str = "cos") -> float:
    """Coefficient against the orthonormal basis, by exact quadrature."""
    values = np.asarray(values, dtype=float)
    n = values.size
    x = TWO_PI * np.arange(n) / n
    if k == 0:
        phi = np.full(n, 1.0 / np.sqrt(TWO_PI))
    elif kind == "cos":
        phi = np.cos(k * x) / np.sqrt(np.pi)
    elif kind == "sin":
        phi = np.sin(k * x) / np.sqrt(np.pi)
    else:
        raise ParameterError("basis kind must be cos or sin")
    return float(values @ phi) * TWO_PI / n


# --- drift ----------------------------------------------------------------

def drift_pairing(values: np.ndarray, f: PointwiseMap) -> float:
    """Quadrature of integral f(u) u_x dx; zero for x-independent f.

    The trapezoid rule is exact here for band-limited u: the integrand is a
    trigonometric polynomial of degree below n once u has no Nyquist-adjacent
    content, so only roundoff survives.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    u_hat = np.fft.rfft(values) / n
    k = np.arange(n // 2 + 1)
    d_hat = 1j * k * u_hat
    d_hat[-1] = 0.0
    dudx = np.fft.irfft(d_hat * n, n=n)
    return TWO_PI * float(np.asarray(f(values), dtype=float) @ dudx) / n


# --- stepping -------------------------------------------------------------

class SpectralStepper:
    """One-step map with all mode tables precomputed for a fixed config.

    The only code that knows the step's maths: the 2/3 dealiasing band, the
    derivative multiplier, the layout of one step's Gaussian draw and the
    blow-up tests.
    """

    def __init__(self, cfg: SimConfig):
        n = cfg.grid.n
        self.n = n
        self.dt = float(cfg.dt)
        self.sqrt_dt = np.sqrt(self.dt)
        self.k = np.arange(n // 2 + 1)
        self.weights = spectral_weights(n)
        k2 = self.k.astype(float) ** 2
        if cfg.scheme == "exp_euler":
            self.linear = np.exp(-k2 * self.dt)
        else:
            self.linear = 1.0 / (1.0 + k2 * self.dt)
        self.deriv = 1j * self.k.astype(float)
        self.keep = dealiased(n)
        self.f = cfg.nonlinearity.f
        g = cfg.nonlinearity.g
        self.g_map = g if callable(g) else None
        self.g_const = None if (g is None or callable(g)) else float(g)
        self.draws = 0
        self.sigma = None
        if cfg.nonlinearity.has_noise:
            self.sigma = cfg.noise.amplitudes()
            self.draws = 2 * cfg.noise.modes + 1
        self.cap = float(cfg.blowup_cap)

    def blown_up(self, values: np.ndarray) -> bool:
        """True when the state is non-finite or its sup-norm passes the cap."""
        return not np.all(np.isfinite(values)) or \
            np.abs(values).max() > self.cap

    def drift_hat(self, values: np.ndarray, t: float) -> np.ndarray:
        """rfft/n spectrum of d/dx f(u), dealiased."""
        if self.f is None:
            return np.zeros(self.n // 2 + 1, dtype=complex)
        fu = np.asarray(self.f(values), dtype=float)
        if not np.all(np.isfinite(fu)):
            raise BlowUpSignal(t)
        f_hat = np.fft.rfft(fu) / self.n
        out = self.deriv * f_hat
        out[~self.keep] = 0.0
        return out

    def noise_hat(self, values: np.ndarray, xi: Optional[np.ndarray],
                  t: float) -> Optional[np.ndarray]:
        """rfft/n spectrum of g(u) dW from one unit Gaussian draw xi.

        Draw layout: [xi_0, xi_1^cos .. xi_K^cos, xi_1^sin .. xi_K^sin].
        """
        if self.draws == 0:
            return None
        sigma, kmax = self.sigma, self.sigma.size - 1
        w_hat = np.zeros(self.n // 2 + 1, dtype=complex)
        w_hat[0] = sigma[0] * self.sqrt_dt * xi[0] / np.sqrt(TWO_PI)
        if kmax:
            xc = xi[1:kmax + 1]
            xs = xi[kmax + 1:2 * kmax + 1]
            w_hat[1:kmax + 1] = (sigma[1:] * self.sqrt_dt * (xc - 1j * xs)
                                 / (2.0 * np.sqrt(np.pi)))
        if self.g_const is not None:
            return self.g_const * w_hat
        gu = np.asarray(self.g_map(values), dtype=float)
        if not np.all(np.isfinite(gu)):
            raise BlowUpSignal(t)
        w = np.fft.irfft(w_hat * self.n, n=self.n)
        prod_hat = np.fft.rfft(gu * w) / self.n
        prod_hat[~self.keep] = 0.0
        return prod_hat

    def advance(self, u_hat: np.ndarray, values: np.ndarray,
                xi: Optional[np.ndarray], t: float):
        """Returns (next u_hat, drift spectrum, noise spectrum)."""
        f_hat = self.drift_hat(values, t)
        g_hat = self.noise_hat(values, xi, t)
        incr = u_hat + self.dt * f_hat
        if g_hat is not None:
            incr = incr + g_hat
        return self.linear * incr, f_hat, g_hat


# --- whole-path integration -------------------------------------------------

@dataclass
class PathStats:
    initial_l2_sq: float = 0.0
    sup_l2_sq: float = 0.0
    grad_integral: float = 0.0
    final_l2_sq: float = 0.0
    steps_taken: int = 0


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    stats: PathStats
    status: str
    sigma_hat: float
    config: SimConfig

    @property
    def completed(self) -> bool:
        return self.status == "completed"


StepObserver = Callable[[int, float, np.ndarray, np.ndarray,
                         Optional[np.ndarray], np.ndarray], None]


def _save_indices(n_steps: int, n_save: Optional[int]) -> np.ndarray:
    if n_save is None or n_save >= n_steps + 1:
        return np.arange(n_steps + 1)
    if n_save < 2:
        raise ParameterError("need at least two snapshots")
    return np.unique(np.round(np.linspace(0, n_steps, n_save)).astype(int))


def draw_increments(cfg: SimConfig,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Pre-draw the full unit-variance Gaussian table for one path."""
    if not cfg.nonlinearity.has_noise:
        raise ParameterError("config has no noise term")
    if rng is None:
        rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    return rng.standard_normal((cfg.n_steps, 2 * cfg.noise.modes + 1))


def coarsen_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate a fine-step unit-draw table onto a step factor times larger.

    Brownian increments add, so grouped unit draws combine as
    sum/sqrt(factor) to stay unit variance at the coarse step.
    """
    n_fine, width = fine.shape
    if factor < 1 or n_fine % factor:
        raise ParameterError("factor must divide the fine step count")
    grouped = fine.reshape(n_fine // factor, factor, width)
    return grouped.sum(axis=1) / np.sqrt(factor)


def simulate_path(cfg: SimConfig, n_save: Optional[int] = None,
                  increments: Optional[np.ndarray] = None,
                  observer: Optional[StepObserver] = None) -> Trajectory:
    """Integrate one path; deterministic given cfg.seed.

    increments, when given, is a (n_steps, 2K+1) table of unit-variance
    draws replacing the internal stream (for common-noise refinement
    studies).  Blow-up is a terminal status, not an exception.
    """
    n_steps = cfg.n_steps
    n = cfg.grid.n
    stepper = SpectralStepper(cfg)
    values = initial_values(cfg)

    stats = PathStats()
    u_hat = np.fft.rfft(values) / n
    l2 = l2_norm_sq_spectral(u_hat, stepper.weights)
    stats.initial_l2_sq = l2
    stats.sup_l2_sq = l2
    stats.final_l2_sq = l2

    if stepper.blown_up(values):
        return Trajectory(np.zeros(1), values[None, :].copy(), stats,
                          "blew_up", 0.0, cfg)

    save_idx = _save_indices(n_steps, n_save)
    saved = np.empty((save_idx.size, n))
    saved_times = save_idx * cfg.dt
    save_pos = {int(s): i for i, s in enumerate(save_idx)}
    if 0 in save_pos:
        saved[save_pos[0]] = values

    rng = None
    if stepper.draws and increments is None:
        rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, stepper.draws):
            raise ParameterError("increment table shape must be "
                                 "(n_steps, 2K+1)")

    status = "completed"
    sigma_hat = cfg.t_end
    kept = n_steps
    for i in range(n_steps):
        t = i * cfg.dt
        stats.grad_integral += cfg.dt * grad_norm_sq_spectral(
            u_hat, stepper.k, stepper.weights)
        if stepper.draws:
            xi = increments[i] if increments is not None \
                else rng.standard_normal(stepper.draws)
        else:
            xi = None
        try:
            new_hat, f_hat, g_hat = stepper.advance(u_hat, values, xi, t)
        except BlowUpSignal as sig:
            status, sigma_hat, kept = "blew_up", sig.t, i
            break
        if observer is not None:
            observer(i, t, u_hat, f_hat, g_hat, new_hat)
        new_values = np.fft.irfft(new_hat * n, n=n)
        t_next = (i + 1) * cfg.dt
        if stepper.blown_up(new_values):
            status, sigma_hat, kept = "blew_up", t_next, i
            break
        u_hat, values = new_hat, new_values
        l2 = l2_norm_sq_spectral(u_hat, stepper.weights)
        stats.sup_l2_sq = max(stats.sup_l2_sq, l2)
        stats.final_l2_sq = l2
        stats.steps_taken = i + 1
        if (i + 1) in save_pos:
            saved[save_pos[i + 1]] = values

    if status == "blew_up":
        keep_mask = save_idx <= kept
        saved = saved[keep_mask]
        saved_times = saved_times[keep_mask]

    return Trajectory(saved_times, saved, stats, status, sigma_hat, cfg)
