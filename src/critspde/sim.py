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

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .exponents import GrowthSpec, ParameterError

TWO_PI = 2.0 * np.pi
_ROOT_TWO_PI = np.sqrt(TWO_PI)
_TWO_ROOT_PI = 2.0 * np.sqrt(np.pi)

PointwiseMap = Callable[[np.ndarray], np.ndarray]

# A path's stats square its state (||grad u||^2 <= 2 pi (n/2)^2 cap^2) and an
# ensemble's variance squares them again.  With cap <= 1e50 both stay finite
# for any n that fits in memory, so a blow-up ends in a status, not in inf;
# at 1e100 the variance of three paths, one blown up, already overflows.
MAX_BLOWUP_CAP = 1e50


def _integer(value, name: str, least: Optional[int] = None) -> int:
    """value as an int; a bool, a non-integer or one below least fails."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and (least is None or value >= least):
        return int(value)
    bound = "" if least is None else f" >= {least}"
    raise ParameterError(f"{name} must be an integer{bound}, not {value!r}")


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
        _integer(self.modes, "mode cutoff", 0)

    def amplitudes(self) -> np.ndarray:
        k = np.arange(self.modes + 1, dtype=float)
        return (1.0 + k * k) ** (-float(self.lam) / 2.0)

    def hs_density(self) -> float:
        """sum_k sigma_k^2 e_k(x)^2, which the paired cos/sin basis makes
        the constant sigma_0^2/(2 pi) + sum_{k>=1} sigma_k^2/pi: the
        Hilbert-Schmidt norm of v -> g v is (2 pi density mean g^2)^{1/2}."""
        sigma = self.amplitudes()
        return float(sigma[0] ** 2 / TWO_PI + np.sum(sigma[1:] ** 2) / np.pi)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise drift flux f and noise coefficient g.

    f and g act on sample values (vectorized y -> f(y)); g may instead be a
    plain float for a state-independent coefficient, or None for no noise.
    nu, growth and sublinear_noise_bound are metadata that no code reads:
    nu is only range-checked here, and the exponent calculus takes its own
    nu in one_d_growth_params.
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
        # a NaN fails both comparisons
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ParameterError("time step and horizon must be positive "
                                 "and finite")
        if self.scheme not in ("exp_euler", "semi_implicit"):
            raise ParameterError("scheme must be exp_euler or semi_implicit")
        # negative is legal: a master seed's; _path_stream rejects a path's
        _integer(self.seed, "seed")
        if not 0 < self.blowup_cap <= MAX_BLOWUP_CAP:
            raise ParameterError("blow-up cap must lie in (0, 1e50]: past it a "
                                 "state under the cap can overflow the squared "
                                 "norms and their ensemble variance")
        if self.nonlinearity.has_noise:
            if self.noise is None:
                raise ParameterError("noise spec required when g is present")
            if self.noise.modes > self.grid.n // 3:
                raise ParameterError("noise cutoff must stay in the dealiased "
                                     "band (at most n/3 modes)")

    @property
    def n_steps(self) -> int:
        ratio = self.t_end / self.dt
        n = int(round(ratio)) if ratio < np.inf else 0
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
    if not np.isfinite(v).all():
        raise ParameterError("initial data must be finite")
    return v


# --- spectral bookkeeping -------------------------------------------------

def spectral_weights(n: int) -> np.ndarray:
    """Multiplicities of rfft bins: interior modes count for +k and -k."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w


def l2_norm_sq(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return TWO_PI * float(values @ values) / values.size


def dealiased(n: int) -> np.ndarray:
    """rfft bins kept by the 2/3 rule: k <= n/3."""
    return np.arange(n // 2 + 1) <= n // 3


def basis_coefficient(values: np.ndarray, k: int, kind: str = "cos") -> float:
    """Coefficient against the orthonormal basis, by exact quadrature.

    k is a mode number, an integer k >= 0; k = 0 is the constant e_0
    whichever kind is named.
    """
    if kind not in ("cos", "sin"):
        raise ParameterError("basis kind must be cos or sin")
    _integer(k, "mode number", 0)
    values = np.asarray(values, dtype=float)
    n = values.size
    x = TWO_PI * np.arange(n) / n
    if k == 0:
        phi = np.full(n, 1.0 / np.sqrt(TWO_PI))
    elif kind == "cos":
        phi = np.cos(k * x) / np.sqrt(np.pi)
    else:
        phi = np.sin(k * x) / np.sqrt(np.pi)
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
    d_hat = 1j * np.arange(n // 2 + 1) * _rfft(values)
    d_hat[-1] = 0.0
    dudx = _irfft(d_hat, np.empty(n))
    return TWO_PI * float(np.asarray(f(values), dtype=float) @ dudx) / n


# --- stepping -------------------------------------------------------------

# Every transform of the package goes through _rfft and _irfft: the
# gufuncs behind np.fft.rfft and np.fft.irfft with norm="forward", called
# with the factors those pass (1/n forward, 1 back), straight into an out
# array, without numpy's Python wrapper, which costs as much as a small
# transform.  A gufunc's core axis is the last one, the axis np.fft passes.
# For the power-of-two n of a TorusGrid the 1/n is exact: the bits of
# rfft(v) / n and of irfft(x * n, n=n).


def _rfft(grids: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """np.fft.rfft(grids, norm="forward"), written into out or a fresh
    array.  rfft_n_even returns wrong values for an odd n, which a state
    handed to the monitors may have."""
    n = grids.shape[-1]
    if out is None:
        out = np.empty(grids.shape[:-1] + (n // 2 + 1,), dtype=complex)
    half = _pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even
    return half(grids, 1.0 / n, out=out)


def _irfft(spectra: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.fft.irfft(spectra, n=out.shape[-1], norm="forward"), written into
    out."""
    return _pocketfft.irfft(spectra, 1.0, out=out)


def _energy(spec: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """2 pi * sum_k weights_k |spec_k|^2 along the last axis, per row."""
    return TWO_PI * np.vecdot(spec.real ** 2 + spec.imag ** 2, weights)


class SpectralStepper:
    """One-step map with all mode tables precomputed for a fixed config.

    The only code that knows the step's maths: the 2/3 dealiasing band, the
    derivative multiplier, the layout of one step's Gaussian draw and the
    blow-up tests.  Every method acts along the last axis, so one call takes
    a single (n,) state or a (P, n) ensemble of them, row by row.  The time
    argument t of the public step methods is the step's start; the equation
    is autonomous, so the maths does not read it.  Spectra are rfft/n; a
    step's FFTs go through _rfft and _irfft into buffers that the kernel
    allocates once and reuses, as many as it took through np.fft.

    A step's grids are one (terms, ...) stack, f(u) then g(u), of the rows
    the config has: coefficients() fills it and update() takes it.  advance()
    is one such step, and drift_hat() and noise_hat() are projections of it.

    update() is the only code that advances a spectrum, in every step of
    the kernel (with no stack in a block that does not read the grid).  The
    two blow-up tests, coefficients()'s ok and blown_up(), give the masks of
    the rows the kernel's drop() retires from its (4, rows) stats array.
    coefficients(), update() and noise_increments() write into buffers the
    caller passes, and allocate fresh arrays without them.
    """

    def __init__(self, cfg: SimConfig):
        n = cfg.grid.n
        self.n = n
        self.dt = float(cfg.dt)
        self.sqrt_dt = np.sqrt(self.dt)
        self.k = np.arange(n // 2 + 1)
        self.weights = spectral_weights(n)
        k2 = self.k.astype(float) ** 2
        # ||grad u||^2 = 2 pi * grad_weights @ |u_hat|^2
        self.grad_weights = self.weights * k2
        if cfg.scheme == "exp_euler":
            linear = np.exp(-k2 * self.dt)
        else:
            linear = 1.0 / (1.0 + k2 * self.dt)
        # complex, as a spectrum times a real array would cast it each step
        self.linear = linear.astype(complex)
        self.deriv = 1j * self.k.astype(float)
        self.band = int(np.count_nonzero(dealiased(n)))  # bins kept
        self.f = cfg.nonlinearity.f
        g = cfg.nonlinearity.g
        self.g_map = g if callable(g) else None
        self.g_const = None if (g is None or callable(g)) else float(g)
        # grids a step evaluates, stacked in this order: f(u), then g(u)
        self.terms = (self.f is not None) + (self.g_map is not None)
        self.draws = 0
        if cfg.nonlinearity.has_noise:
            sigma = cfg.noise.amplitudes()
            self.draws = 2 * cfg.noise.modes + 1
            # sigma_k * sqrt(dt), the leading factor of each mode's increment
            self.amp0 = sigma[0] * self.sqrt_dt
            self.amp = sigma[1:] * self.sqrt_dt
        self.cap = float(cfg.blowup_cap)
        # energy_defects' terms: the gradient weights of the exact linear
        # flow (None under semi_implicit), whether the drift pairs with u,
        # and the Ito correction's factor 2 pi * density of mean g(u)^2
        self.decay_weights = None if cfg.scheme != "exp_euler" else \
            self.weights * (0.5 * (1.0 - np.exp(-2.0 * k2 * self.dt)))
        self.drift_pairs = self.f is not None \
            and not cfg.nonlinearity.f_x_independent
        self.hs_factor = TWO_PI * cfg.noise.hs_density() if self.draws \
            else 0.0

    @property
    def reads_grid(self) -> bool:
        """Whether a step evaluates f or g on the grid.  Without a flux and
        with g constant or absent, a step only scales spectra."""
        return self.terms > 0

    def blown_up(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Per row: the state is non-finite or its sup-norm passes the cap;
        None when no row is."""
        # a NaN fails the comparisons, so two reductions over the whole
        # array settle the usual case of no row at all, with no temporary
        if values.max() <= self.cap and -values.min() <= self.cap:
            return None
        return ~(np.abs(values).max(axis=-1) <= self.cap)

    def coefficients(self, values: np.ndarray,
                     out: Optional[np.ndarray] = None):
        """(grids, ok): f(u) and g(u) on the grid as one (terms, ...) stack.

        The stack, out or a fresh array, holds f(u) in its first row with
        a flux and g(u) in its last with a map g; it is None when the step
        reads neither.  ok tells per row whether the stack is finite, and
        is None when every row is.  A row where it is not has blown up at
        the start of the step.
        """
        if not self.terms:
            return None, None
        grids = np.empty((self.terms,) + np.shape(values)) if out is None \
            else out
        if self.f is not None:
            grids[0] = self.f(values)
        if self.g_map is not None:
            grids[-1] = self.g_map(values)
        ok = None
        # one test over the stack settles the usual case of every value
        # finite; the per-row mask is built only when it fails
        if not np.isfinite(grids).all():
            ok = np.isfinite(grids).all(axis=(0, -1))
        return grids, ok

    def _spectra(self, grids: Optional[np.ndarray], dw: Optional[np.ndarray],
                 spectra: Optional[np.ndarray] = None):
        """Dealiased rfft/n spectra of d/dx f(u) and of g(u) dW; either is
        None without its term.  The stack coefficients() filled takes one
        rfft, row for row the bits of one rfft each, into spectra or a
        fresh array; its g(u) row is multiplied by dw in place first."""
        if grids is None:
            return None, dw
        if self.g_map is not None:
            np.multiply(grids[-1], dw, out=grids[-1])
        spectra = _rfft(grids, spectra)
        f_hat = None
        if self.f is not None:
            f_hat = spectra[0]
            f_hat *= self.deriv
        spectra[..., self.band:] = 0.0
        return f_hat, (dw if self.g_map is None else spectra[-1])

    def noise_increments(self, xi: np.ndarray,
                         out: Optional[np.ndarray] = None,
                         work: Optional[np.ndarray] = None) -> np.ndarray:
        """What unit Gaussian draws xi (..., 2K+1) add to a step.

        Draw layout: [xi_0, xi_1^cos .. xi_K^cos, xi_1^sin .. xi_K^sin].
        For a constant g this is the rfft/n spectrum of g dW, written into
        out; for a map g it is the field dW on the grid, written into out,
        which the step multiplies by g(u), and work holds its spectrum.
        Either is allocated when not given.  The spectrum is built through
        its .real and .imag views with the bits of the complex expression
        amp * (xc - 1j*xs) / (2 sqrt(pi)): numpy divides a complex by a
        real as a product with its reciprocal, and a part that comes out
        zero is +0.0, whatever the signs of the draws.
        """
        kmax = self.amp.size
        w_hat = out if self.g_map is None else work
        if w_hat is None:
            w_hat = np.empty(xi.shape[:-1] + (self.n // 2 + 1,),
                             dtype=complex)
        mean = w_hat[..., 0]
        np.multiply(xi[..., 0], self.amp0, out=mean.real)
        np.divide(mean.real, _ROOT_TWO_PI, out=mean.real)
        mean.imag[...] = 0.0
        w_hat[..., kmax + 1:] = 0.0
        if kmax:
            modes = w_hat[..., 1:kmax + 1]
            re, im = modes.real, modes.imag
            np.multiply(xi[..., 1:kmax + 1], self.amp, out=re)
            re *= 1.0 / _TWO_ROOT_PI
            np.multiply(xi[..., kmax + 1:], self.amp, out=im)
            im *= -1.0 / _TWO_ROOT_PI
            modes += 0.0
        if self.g_map is None:
            w_hat *= self.g_const
            return w_hat
        if out is None:
            out = np.empty(xi.shape[:-1] + (self.n,))
        return _irfft(w_hat, out)

    def drift_hat(self, values: np.ndarray, t: float) -> np.ndarray:
        """rfft/n spectrum of d/dx f(u), dealiased, as advance() takes it
        (on zero draws); zeros without a flux."""
        rows = np.shape(values)[:-1]
        f_hat = self.advance(0.0, values, np.zeros(rows + (self.draws,)), t)[1]
        return np.zeros(rows + (self.n // 2 + 1,), dtype=complex) \
            if f_hat is None else f_hat

    def noise_hat(self, values: np.ndarray, xi: Optional[np.ndarray],
                  t: float) -> Optional[np.ndarray]:
        """rfft/n spectrum of g(u) dW from one unit Gaussian draw xi per row
        (layout as in noise_increments), as advance() takes it; None
        without noise."""
        return self.advance(0.0, values, xi, t)[2]

    def update(self, u_hat: np.ndarray, grids: Optional[np.ndarray],
               dw: Optional[np.ndarray], out: Optional[np.ndarray] = None,
               spectra: Optional[np.ndarray] = None):
        """(next u_hat, drift spectrum, noise spectrum) from the stack of
        coefficients() and noise_increments(); the drift spectrum is None
        without a flux and the noise spectrum None without noise.  The next
        u_hat is written into out, which must not be u_hat, or a fresh
        array; spectra is _spectra's."""
        f_hat, g_hat = self._spectra(grids, dw, spectra)
        # (u_hat + dt*f_hat + g_hat) * linear, summed in place: addition
        # commutes, so dt*f_hat + u_hat has u_hat + dt*f_hat's bits
        if f_hat is not None:
            nxt = np.multiply(f_hat, self.dt, out=out)
            nxt += u_hat
            if g_hat is not None:
                nxt += g_hat
        elif g_hat is not None:
            nxt = np.add(u_hat, g_hat, out=out)
        else:
            return np.multiply(u_hat, self.linear, out=out), f_hat, g_hat
        nxt *= self.linear
        return nxt, f_hat, g_hat

    def advance(self, u_hat: np.ndarray, values: np.ndarray,
                xi: Optional[np.ndarray], t: float):
        """Returns (next u_hat, drift spectrum, noise spectrum) as update()."""
        grids, _ = self.coefficients(values)
        dw = None if self.draws == 0 else self.noise_increments(xi)
        return self.update(u_hat, grids, dw)

    def energy_defects(self, norms: np.ndarray, before: np.ndarray,
                       f_hat: Optional[np.ndarray],
                       g_hat: Optional[np.ndarray], g_sq) -> np.ndarray:
        """Per step and row, the defect of the discrete L^2 energy identity

            d||u||^2 + 2 ||grad u||^2 dt - (I + II + III)

        of steps stacked along the first axis.  before holds the steps'
        start spectra, (steps, rows, n/2+1), and norms the L^2 and gradient
        norms of those and of the last step's end, (steps+1, rows, 2), as
        _energy gives them for weights and grad_weights; f_hat and g_hat
        are the steps' drift and noise spectra as update() returns them,
        and g_sq is the grid mean of g(u)^2 per step and row, or one float.
        I is the drift pairing 2 dt <u, d/dx f(u)> (zero for an
        x-independent f), II the Ito correction dt ||g(u)||_HS^2 and III
        the realized martingale increment 2 <u, g(u) dW>.  The gradient
        term is the exact linear flow's under exp_euler and the trapezoid
        rule's under semi_implicit.
        """
        dt = self.dt
        if self.decay_weights is not None:
            plus = before if f_hat is None else before + dt * f_hat
            if g_hat is not None:
                plus = plus + g_hat
            grad = _energy(plus, self.decay_weights)
        else:
            grad = 0.5 * dt * (norms[:-1, :, 1] + norms[1:, :, 1])
        terms = 0.0
        if self.drift_pairs:
            terms = 2.0 * dt * self._pairing(before, f_hat)
        if g_hat is not None:
            terms = terms + dt * (self.hs_factor * g_sq) \
                + 2.0 * self._pairing(before, g_hat)
        return (norms[1:, :, 0] - norms[:-1, :, 0]) + 2.0 * grad - terms

    def _pairing(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """2 pi * sum_k weights_k Re(a_k conj(b_k)) per row: <u, v> of the
        states with rfft/n spectra a and b."""
        return TWO_PI * np.vecdot(a.real * b.real + a.imag * b.imag,
                                  self.weights)


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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """The paths of config, one per seed, as arrays with path p in row p:
    states (P, S, n) at the save times (S,), NaN past the first kept[p] of
    row p; steps (P,) taken, all of config.n_steps iff the path completed;
    sigma_hat (P,); stats (4, P) in PathStats' order.  ens[p] (a slice
    gives a list) is path p's Trajectory, a view of row p with its config
    replace(config, seed=seeds[p]) built as the row is read."""

    config: SimConfig
    seeds: Tuple[int, ...]
    times: np.ndarray
    states: np.ndarray
    kept: np.ndarray
    steps: np.ndarray
    sigma_hat: np.ndarray
    stats: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, p):
        if isinstance(p, slice):
            return [self[i] for i in range(len(self))[p]]
        p = range(len(self))[p]
        cfg, count, steps = self.config, self.kept[p], int(self.steps[p])
        return Trajectory(self.times[:count], self.states[p, :count],
                          PathStats(*self.stats[:, p].tolist(), steps),
                          "completed" if steps == cfg.n_steps else "blew_up",
                          float(self.sigma_hat[p]),
                          replace(cfg, seed=self.seeds[p]))


# The shortest block: steps of Gaussian draws a path takes from its stream
# at a time, turned into noise increments together, so the tables hold
# P x B steps where whole paths' would hold P x n_steps.  It is also how
# many accepted steps the kernel keeps, spectra and states, until a fold,
# and how many steps a config that does not read the grid takes per
# irfft and cap check.  A run of P rows takes blocks of B = _block_steps(P)
# steps, the least RNG_BLOCK * 2^j with B * P >= _BLOCK_ROW_STEPS: the
# costs paid once per block (the noise table's ufunc calls, a fold, the
# defects' operations) are then spread over at least 128 row-steps.  At 8
# rows or more that is 16: an 18-path ensemble peaks at the memory of one
# path at a time (64 added 3 MB), and a 9-row sublinear-global run takes
# about as long at any block of 16 to 128 steps.  On one row, 128-step
# blocks take a regularity path x0.65 and its Ito call x0.62 of their time
# at 16 (in-process medians on a 2-CPU Xeon VM).
RNG_BLOCK = 16
_BLOCK_ROW_STEPS = 128


def _block_steps(rows: int) -> int:
    """Steps per block of a run of rows paths: the least RNG_BLOCK * 2^j
    with that times rows at least _BLOCK_ROW_STEPS."""
    steps = RNG_BLOCK
    while steps * max(rows, 1) < _BLOCK_ROW_STEPS:
        steps *= 2
    return steps


def _save_indices(n_steps: int, n_save: Optional[int]) -> np.ndarray:
    if n_save is not None:
        n_save = _integer(n_save, "n_save")
    if n_save is None or n_save >= n_steps + 1:
        return np.arange(n_steps + 1)
    if n_save < 2:
        raise ParameterError("need at least two snapshots")
    # the rounded grid is sorted, so its distinct values are the first of
    # each run: np.unique's result, without np.unique's numpy.ma import
    idx = np.round(np.linspace(0, n_steps, n_save)).astype(int)
    first = np.empty(idx.size, dtype=bool)
    first[0] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    return idx[first]


def _path_stream(seed: int) -> np.random.Generator:
    """The path's own PCG64 stream; PCG64 takes no negative seed."""
    if seed < 0:
        raise ParameterError(f"a path seed must be non-negative, not {seed}")
    return np.random.default_rng(np.random.PCG64(seed))


def _integrate(cfg: SimConfig, seeds: Sequence[int],
               n_save: Optional[int] = None, substeps: int = 1,
               ito_defect: Optional[np.ndarray] = None) -> Ensemble:
    """Step the paths of cfg, one per seed, as the rows of one (P, n) state,
    into one Ensemble record.  A seed that is no integer stops the run
    before it runs.

    The run takes blocks of B = _block_steps(P) steps, chosen once from
    the batch width: 128 at one row, 64 at 2-3, 32 at 4-7 and RNG_BLOCK =
    16 at 8 or more.  Each row draws from its own PCG64(seed) stream, B
    steps at a time, which consumes the stream as one draw per step would.
    Each reduction over a row is that row's own dot product (np.vecdot; a
    matrix-vector product sums in another order), and a block only groups
    a row's own steps.  So a row's bits do not depend on its neighbours,
    on P or on B.  Every step is one stepper.update.  The active rows'
    running stats are one (4, rows) array.  A step's spectrum and state go
    straight into their slots among the kept ones, which a fold takes at
    the end of each block and before the active set shrinks: one vecdot
    gives their norms, a cumsum along the steps adds the dt * ||grad u||^2
    terms in step order, the sums of one step at a time, and one assignment
    saves the states save_idx names.  A row that blows up, at the start of
    a step (f or g not finite) or at the cap after it, leaves through
    drop(): it folds, records the row's ends and compacts the rows, the
    noise table, the stats and the step's arrays.  The work arrays are
    allocated once, at full width, and a step works in their leading rows.

    With substeps s > 1 a row draws s steps of its stream for each step of
    its own and takes their sum divided by sqrt(s), still a unit draw, as
    that step's: a run at dt sees the Brownian path its seed's run at dt/s
    sees, its common noise.

    A config whose steps do not read the grid (no flux, g constant or
    absent) takes each block in spectral space through update, then one
    irfft into the kept states and one cap check, and ends it in a fold,
    as every block ends.  If a row passes the cap in it, the block is taken
    again one step at a time on the same noise, which retires the row at
    its step as the other configs do.

    Given ito_defect, a (P, n_steps) float array, the run also writes into
    its row p, for each step k path p takes, that step's defect of the
    discrete L^2 energy identity (stepper.energy_defects) at [p, k], and
    leaves the rest of the row as it is.  This costs one pass of the path:
    each fold takes the defects of the steps it folds in one call, from
    the fold's norms, the kept spectra (with the folded steps' start
    spectrum in a slab before them), the noise table and, per step, the
    drift and noise spectra update() wrote and the grid sum of g(u)^2.
    The block's fold comes before the next block's draws overwrite the
    table.  States and stats keep their bits; without ito_defect a step
    pays one branch for it.
    """
    seeds = tuple(_integer(s, "seed") for s in seeds)
    n_steps = cfg.n_steps
    n = cfg.grid.n
    stepper = SpectralStepper(cfg)
    values = initial_values(cfg)
    nh = n // 2 + 1
    u_hat = _rfft(values)
    norm_weights = np.stack([stepper.weights, stepper.grad_weights])
    l2_0, head_0 = _energy(u_hat[..., None, :], norm_weights).tolist()
    n_paths = len(seeds)
    save_idx = _save_indices(n_steps, n_save)
    saved = np.empty((n_paths, save_idx.size, n))
    saved[:, 0] = values
    # the record's columns; ends holds each path's stats, as PathStats
    steps = np.full(n_paths, n_steps)
    sigma_hat = np.full(n_paths, float(cfg.t_end))
    ends = np.full((4, n_paths), l2_0)

    def record() -> Ensemble:
        # save_idx is sorted, so the states a path kept are a prefix
        kept = save_idx.searchsorted(steps, side="right")
        saved[np.arange(save_idx.size) >= kept[:, None]] = np.nan
        return Ensemble(cfg, seeds, save_idx * cfg.dt, saved, kept, steps,
                        sigma_hat, ends)

    # no path, or initial data past the cap: no path takes a step
    if not n_paths or stepper.blown_up(values) is not None:
        steps[:], sigma_hat[:], ends[2] = 0, 0.0, 0.0
        return record()

    block_len = _block_steps(n_paths)
    # draws holds the current block's unit draws and table their noise,
    # one (rows, steps, .) slab each: the noise's spectrum, and for a map g
    # the field on the grid too.  fine takes the stream's draws of a block,
    # substeps to a step, and is draws itself at one substep
    table = None
    if stepper.draws:
        draws = np.empty((n_paths, block_len, stepper.draws))
        fine = draws if substeps == 1 else \
            np.empty((n_paths, block_len * substeps, stepper.draws))
        noise_hat = np.empty((n_paths, block_len, nh), dtype=complex)
        noise = noise_hat if stepper.g_map is None \
            else np.empty((n_paths, block_len, n))
        rngs = [_path_stream(s) for s in seeds]

    # per active row: state, spectrum and stats.  stats holds, in PathStats'
    # order, sup ||u||^2, grad (the sum of the dt * ||grad u||^2 terms of
    # the folded states but the last) and final ||u||^2, then head, the last
    # folded state's ||grad u||^2.  spec[j] holds the rows' j-th spectrum
    # accepted since the fold, one contiguous slab per step, and the slab of
    # spec_all before it the last folded one, where each block starts: no
    # step writes the slab it starts from
    stats = np.repeat([[l2_0], [0.0], [l2_0], [head_0]], n_paths, 1)
    values = np.repeat(values[None], n_paths, axis=0)
    spec_all = np.empty((block_len + 1, n_paths, nh), dtype=complex)
    spec = spec_all[1:]
    spec_all[0] = u_hat
    u_hat = spec_all[0]
    # a step's grid stack (f(u), g(u) dW) and its spectra; block_states[j]
    # holds the state of the step in spec[j], until the fold saves it
    stack = np.empty((stepper.terms, n_paths, n))
    stack_hat = np.empty((stepper.terms, n_paths, nh), dtype=complex)
    block_states = np.empty((block_len, n_paths, n))
    # for the defects: each unfolded step's spectra, in its spec slot, and
    # for a map g its grid sum of g(u)^2; a constant g's mean is g^2
    hats = g_sq = None
    if ito_defect is not None:
        if stepper.terms:
            hats = np.empty((block_len,) + stack_hat.shape, dtype=complex)
        if stepper.g_map is not None:
            g_sq = np.empty((block_len, n_paths))
    filled = 0
    rows = np.arange(n_paths)  # path index of each active row
    lead, lead_hat = stack, stack_hat  # active rows' views

    def fold(taken: int) -> None:
        """Fold the spectra accepted since the last fold, of the steps
        before step taken, into the stats, save their states and take
        their defects."""
        nonlocal filled
        if not filled:
            return
        r = rows.size
        # the folded steps' states first .. taken, where save_idx picks them
        first = taken - filled + 1
        lo, hi = save_idx.searchsorted((first, taken + 1))
        if hi > lo:
            saved[rows, lo:hi] = \
                block_states[save_idx[lo:hi] - first, :r].swapaxes(0, 1)
        if ito_defect is None:
            nrm = _energy(spec[:filled, :r, None, :], norm_weights)
        else:
            # the folded steps' start spectra are spec_all[:filled]
            norms = _energy(spec_all[:filled + 1, :r, None, :], norm_weights)
            nrm = norms[1:]
            f_hat = None if stepper.f is None else hats[:filled, 0, :r]
            g_hat = mean_sq = None
            if stepper.g_map is not None:
                g_hat, mean_sq = hats[:filled, -1, :r], g_sq[:filled, :r] / n
            elif table is not None:
                col = taken - start
                g_hat = table[:, col - filled:col].swapaxes(0, 1)
                mean_sq = stepper.g_const ** 2
            ito_defect[rows, taken - filled:taken] = stepper.energy_defects(
                norms, spec_all[:filled, :r], f_hat, g_hat, mean_sq).T
        terms = np.empty((filled + 1, r))
        terms[0] = stats[1]
        terms[1] = stats[3]
        terms[2:] = nrm[:-1, :, 1]
        terms[1:] *= cfg.dt
        np.maximum(stats[0], nrm[:, :, 0].max(axis=0), out=stats[0])
        stats[1] = np.cumsum(terms, axis=0)[-1]
        stats[2:] = nrm[-1].T
        spec_all[0, :r] = spec_all[filled, :r]
        filled = 0

    def drop(dead: np.ndarray, t_dead: float, i: int, *arrays):
        """Retire the rows in dead at t_dead after i steps; returns arrays
        without those rows, as fresh arrays."""
        nonlocal rows, table, stats, lead, lead_hat
        # a step taken at the cap sits in slot held, unfolded
        held = filled
        # the last kept state is the last folded one: its term ends grad
        fold(i)
        gone = rows[dead]
        steps[gone], sigma_hat[gone] = i, t_dead
        ends[1:, gone] = stats[:3, dead]
        ends[2, gone] += cfg.dt * stats[3, dead]
        keep = ~dead
        rows, stats = rows[keep], stats[:, keep]
        table = None if table is None else table[keep]
        lead, lead_hat = stack[:, :rows.size], stack_hat[:, :rows.size]
        # arrays first: one of them may be the slab spec_all[0]
        rest = [a[keep] for a in arrays]
        # the kept rows' last folded spectrum, and for the defects the
        # spectra of a step taken at the cap, moved to slot 0, where that
        # step is folded next
        spec_all[0, :rows.size] = spec_all[0, :keep.size][keep]
        if hats is not None:
            hats[0, :, :rows.size] = hats[held, :, :keep.size][:, keep]
        if g_sq is not None:
            g_sq[0, :rows.size] = g_sq[held, :keep.size][keep]
        return rest

    for start in range(0, n_steps, block_len):
        m = min(block_len, n_steps - start)
        if stepper.draws:
            for r, p in enumerate(rows):
                rngs[p].standard_normal(out=fine[r, :m * substeps])
            if substeps > 1:
                # a sum over the group axis adds its draws in step order
                group = fine[:rows.size, :m * substeps].reshape(
                    rows.size, m, substeps, stepper.draws)
                summed = np.sum(group, axis=2, out=draws[:rows.size, :m])
                summed /= np.sqrt(substeps)
            table = stepper.noise_increments(draws[:rows.size, :m],
                                             noise[:rows.size, :m],
                                             noise_hat[:rows.size, :m])
        if not stepper.reads_grid:
            # the block starts from spec_all[0], as a fallback to single
            # steps does
            prev = u_hat
            block = spec[:m, :rows.size]
            for j in range(m):
                dw = None if table is None else table[:, j]
                prev = stepper.update(prev, None, dw, block[j])[0]
            blk = _irfft(block, block_states[:m, :rows.size])
            # m accepted steps, and no single step below: none reads values
            if stepper.blown_up(blk) is None:
                filled = m
        for i in range(start + filled, start + m):
            grids, ok = stepper.coefficients(values, lead)
            if ok is not None:
                u_hat, values = drop(~ok, i * cfg.dt, i, u_hat, values)
                if not rows.size:
                    break
                # a row's maps are pointwise: evaluated on the rows kept
                grids, _ = stepper.coefficients(values, lead)
            dw = None if table is None else table[:, i - start]
            spectra = lead_hat
            if ito_defect is not None and grids is not None:
                spectra = hats[filled, :, :rows.size]
                if g_sq is not None:
                    np.vecdot(grids[-1], grids[-1],
                              out=g_sq[filled, :rows.size])
            u_hat = stepper.update(u_hat, grids, dw,
                                   spec[filled, :rows.size], spectra)[0]
            values = _irfft(u_hat, block_states[filled, :rows.size])
            bad = stepper.blown_up(values)
            if bad is not None:
                u_hat, values = drop(bad, (i + 1) * cfg.dt, i,
                                     u_hat, values)
                if not rows.size:
                    break
                spec[filled, :rows.size] = u_hat
                block_states[filled, :rows.size] = values
            filled += 1
        if not rows.size:
            break
        fold(start + m)
        u_hat = spec_all[0, :rows.size]

    ends[1:, rows] = stats[:3]
    return record()


def simulate_path(cfg: SimConfig, n_save: Optional[int] = None, *,
                  ito_defect: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate one path; deterministic given cfg.seed.

    Blow-up is a terminal status, not an exception.  Given ito_defect, an
    array of cfg.n_steps floats, the run also writes each step's defect of
    the discrete L^2 energy identity into it, for the steps the path takes
    (see _integrate).
    """
    return _integrate(cfg, [cfg.seed], n_save, ito_defect=None
                      if ito_defect is None else ito_defect[None])[0]
