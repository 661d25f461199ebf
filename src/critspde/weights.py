"""Power-weighted time norms and interpolation inequalities, numerically.

Norms of the form (int |f|^p |t-a|^kappa dt)^{1/p} on a time interval, the
difference-quotient (Slobodeckij) seminorm standing in for fractional time
smoothness, and randomized checks of two inequalities: the weighted Lebesgue
embedding with its explicit Hoelder constant, and the mixed space-time
interpolation estimate in a Fourier-multiplier realization.

Quadrature convention: the weight factor is integrated exactly cell by cell
(the left endpoint may be singular), the function factor by the trapezoid
average.  All fractional-smoothness assertions are refinement-based, never
exact-constant-based: the difference-quotient seminorm is an equivalent
norm, not the canonical one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exponents import ParameterError


class LimitingCaseError(ParameterError):
    """Endpoint parameter combination where the inequality is known to fail."""


@dataclass(frozen=True)
class PowerWeight:
    """w(t) = |t - offset|^kappa; admissible with integrability p iff
    kappa in (-1, p-1)."""

    kappa: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.kappa) or self.kappa <= -1:
            raise ParameterError("weight exponent must be > -1")
        if not np.isfinite(self.offset) or self.offset < 0:
            raise ParameterError("weight offset must be finite and >= 0")

    def admissible_for(self, p: float) -> bool:
        return -1 < self.kappa < p - 1

    def cell_integrals(self, nodes: np.ndarray) -> np.ndarray:
        """Exact integral of the weight over each grid cell.

        Requires offset <= nodes[0]: the singularity may sit on the left
        endpoint but never inside the interval.
        """
        if self.offset > nodes[0] + 1e-15:
            raise ParameterError("weight offset must not exceed the interval start")
        s = np.maximum(nodes - self.offset, 0.0)
        e = 1.0 + self.kappa
        prim = s**e / e
        return np.diff(prim)


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ParameterError("grid needs at least 3 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ParameterError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ParameterError("grid nodes must be strictly increasing")

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @staticmethod
    def uniform(a: float, b: float, n: int) -> "TimeGrid":
        return TimeGrid(np.linspace(a, b, n + 1))

    @staticmethod
    def graded(a: float, b: float, n: int, power: float = 2.0) -> "TimeGrid":
        """Nodes clustered at the left endpoint, t = a + (b-a)*(i/n)^power."""
        x = (np.arange(n + 1) / n) ** power
        return TimeGrid(a + (b - a) * x)


@dataclass(frozen=True)
class SampledFunction:
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.grid.nodes.size:
            raise ParameterError("sample count must match the grid")
        if not np.all(np.isfinite(v)):
            raise ParameterError("samples must be finite")

    @staticmethod
    def from_callable(fn: Callable, grid: TimeGrid) -> "SampledFunction":
        return SampledFunction(grid, np.asarray([fn(t) for t in grid.nodes]))


def _cell_averages(power_values: np.ndarray, singular_first: bool) -> np.ndarray:
    avg = 0.5 * (power_values[:-1] + power_values[1:])
    if singular_first:
        # the weight may be singular at the first node; the sample there is
        # ignored and the cell carries the right-endpoint value
        avg = avg.copy()
        avg[0] = power_values[1]
    return avg


def weighted_lp_norm(f: SampledFunction, p: float, w: PowerWeight) -> float:
    """(int_a^b |f|^p w dt)^{1/p} by exact-weight trapezoid quadrature.

    The integral itself only needs kappa > -1 (enforced by PowerWeight);
    the stricter (-1, p-1) window matters for the inequality checks below,
    not for the norm.  Multi-axis samples (per-mode spectra) are reduced to
    a pointwise l2 norm before the power.
    """
    if p < 1:
        raise ParameterError("need p >= 1")
    nodes = f.grid.nodes
    W = w.cell_integrals(nodes)
    v = f.values
    if v.ndim > 1:
        mag = np.sqrt(np.sum(np.abs(v) ** 2, axis=tuple(range(1, v.ndim))))
    else:
        mag = np.abs(v)
    vp = mag**p
    singular = abs(f.grid.a - w.offset) < 1e-15 and w.kappa != 0
    avg = _cell_averages(vp, singular)
    return float(np.sum(avg * W)) ** (1.0 / p)


def slobodeckij_seminorm(
    f: SampledFunction, theta: float, p: float, w: PowerWeight
) -> float:
    """Weighted difference-quotient seminorm

        (int int |f(t)-f(s)|^p / |t-s|^{1+theta*p} w(t) ds dt)^{1/p}.

    Diagonal cells use the local-slope closed form (the kernel exponent
    gamma = p-1-theta*p is integrable there); off-diagonal cells use
    midpoint values with the exact weight integral on the t-axis.
    """
    if not 0 < theta < 1:
        raise ParameterError("need theta in (0,1)")
    if p < 1:
        raise ParameterError("need p >= 1")
    if not w.admissible_for(p):
        raise ParameterError(f"kappa={w.kappa} outside (-1, p-1) for p={p}")
    nodes = f.grid.nodes
    v = np.asarray(f.values, dtype=float)
    if v.ndim != 1:
        raise ParameterError("scalar samples required")
    h = np.diff(nodes)
    W = w.cell_integrals(nodes)
    gamma = p - 1.0 - theta * p

    slope = np.abs(np.diff(v) / h)
    diag = slope**p * (2.0 * h ** (2.0 + gamma) / ((1.0 + gamma) * (2.0 + gamma)))
    diag *= W / h  # cell-averaged weight on the diagonal

    tm = 0.5 * (nodes[:-1] + nodes[1:])
    vm = 0.5 * (v[:-1] + v[1:])
    dt = np.abs(tm[:, None] - tm[None, :])
    dv = np.abs(vm[:, None] - vm[None, :])
    np.fill_diagonal(dt, 1.0)  # masked below
    kern = dv**p / dt ** (1.0 + theta * p)
    np.fill_diagonal(kern, 0.0)
    off = np.sum(kern * (W[:, None] * h[None, :]))

    return float(diag.sum() + off) ** (1.0 / p)


@dataclass(frozen=True)
class DivergenceReport:
    divergent: bool
    values: tuple[float, ...]
    grid_sizes: tuple[int, ...]


def slobodeckij_divergence_probe(
    fn: Callable[[float], float],
    a: float,
    b: float,
    theta: float,
    p: float,
    w: PowerWeight,
    n0: int = 64,
    rounds: int = 6,
    grading: float = 2.0,
) -> DivergenceReport:
    """Seminorm of a callable under grid doubling.

    Declared divergent when the value grows by more than 25% on two
    consecutive doublings.  A left-endpoint singularity of fn is tolerated:
    the first node's sample is replaced by the second's.
    """
    vals, sizes = [], []
    n = n0
    for _ in range(rounds):
        grid = TimeGrid.graded(a, b, n, power=grading)
        ts = grid.nodes.copy()
        ts[0] = ts[1]  # dodge a possible singularity of fn at a
        samples = np.asarray([fn(t) for t in ts], dtype=float)
        vals.append(slobodeckij_seminorm(SampledFunction(grid, samples), theta, p, w))
        sizes.append(n)
        n *= 2
    growth = [vals[i + 1] > 1.25 * vals[i] for i in range(len(vals) - 1)]
    divergent = any(growth[i] and growth[i + 1] for i in range(len(growth) - 1))
    return DivergenceReport(divergent=divergent, values=tuple(vals), grid_sizes=tuple(sizes))


@dataclass(frozen=True)
class EmbeddingReport:
    passed: bool
    worst_ratio: float
    constant: float
    t_power: float
    trials: int


def _random_trig(rng: np.random.Generator, T: float, modes: int = 5) -> Callable:
    a = rng.standard_normal(modes + 1)
    b = rng.standard_normal(modes + 1)

    def fn(t):
        x = np.pi * t / T
        return sum(a[k] * np.cos(k * x) + b[k] * np.sin(k * x) for k in range(modes + 1))

    return fn


def check_embedding_scaling(
    p: float,
    q: float,
    kappa: float,
    eta: float,
    T: float,
    trials: int = 20,
    seed: int = 0,
    n: int = 400,
    tol: float = 1e-9,
) -> EmbeddingReport:
    """Randomized check of the weighted Lebesgue embedding

        ||f||_{L^p(0,T,t^kappa)} <= C * T^{(1+kappa)/p-(1+eta)/q}
                                      * ||f||_{L^q(0,T,t^eta)}.

    For p < q the Hoelder constant is C = (1+m)^{-(q-p)/(pq)} with
    m = (kappa*q - eta*p)/(q-p); the discrete quadrature satisfies the same
    inequality exactly (cellwise power means plus discrete Hoelder), so the
    tolerance only absorbs roundoff.  For p = q the constant is 1 and
    kappa >= eta is required.  The combination p > q with equal weight
    indices (1+kappa)/p = (1+eta)/q is the known-false limiting case.
    """
    if not 1 < p <= q:
        if p > q and abs((1 + kappa) / p - (1 + eta) / q) < 1e-14:
            raise LimitingCaseError(
                "embedding fails when p > q at equal weight indices")
        raise ParameterError("need 1 < p <= q")
    if not (-1 < kappa < p - 1 and -1 < eta < q - 1):
        raise ParameterError("weight exponents outside the admissible range")
    if p == q:
        if kappa < eta:
            raise ParameterError("p = q needs kappa >= eta")
        m = None
        constant = 1.0
    else:
        if (1 + kappa) / p <= (1 + eta) / q:
            raise ParameterError("need (1+kappa)/p > (1+eta)/q")
        m = (kappa * q - eta * p) / (q - p)
        constant = (1.0 + m) ** (-(q - p) / (p * q))
    t_power = (1 + kappa) / p - (1 + eta) / q

    rng = np.random.default_rng(seed)
    grid = TimeGrid.graded(0.0, T, n)
    wk, we = PowerWeight(kappa), PowerWeight(eta)
    worst = 0.0
    for _ in range(trials):
        fn = _random_trig(rng, T)
        f = SampledFunction.from_callable(fn, grid)
        lhs = weighted_lp_norm(f, p, wk)
        rhs = weighted_lp_norm(f, q, we)
        if rhs == 0.0:
            continue
        worst = max(worst, lhs / (constant * T**t_power * rhs))
    return EmbeddingReport(
        passed=worst <= 1.0 + tol, worst_ratio=worst, constant=constant,
        t_power=t_power, trials=trials,
    )


@dataclass(frozen=True)
class MixedDerivativeReport:
    passed: bool
    max_constant: float
    trials: int


def _mode_seminorms(
    field_modes: np.ndarray, grid: TimeGrid, theta_time: float, p: float
) -> np.ndarray:
    w = PowerWeight(0.0)
    return np.asarray(
        [
            slobodeckij_seminorm(SampledFunction(grid, field_modes[k]), theta_time, p, w)
            for k in range(field_modes.shape[0])
        ]
    )


def check_mixed_derivative(
    theta: float,
    trials: int = 50,
    seed: int = 0,
    n_time: int = 128,
    n_modes: int = 8,
) -> MixedDerivativeReport:
    """Mixed space-time interpolation in the multiplier realization.

    With per-mode time seminorms s_k and spatial multiplier (1+k^2), the
    interpolation inequality

        (sum (1+k^2)^theta s_k^2)^{1/2}
            <= (sum s_k^2)^{(1-theta)/2} * (sum (1+k^2) s_k^2)^{theta/2}

    holds with constant exactly 1 (Hoelder on the mode sums), with equality
    on any single mode.  Reports the empirical max ratio over random
    band-limited space-time fields.
    """
    if not 0 < theta < 1:
        raise ParameterError("need theta in (0,1)")
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(0.0, 1.0, n_time)
    t = grid.nodes
    worst = 0.0
    for _ in range(max(trials, 1)):
        modes = np.zeros((n_modes, t.size))
        for k in range(n_modes):
            amps = rng.standard_normal(4)
            freqs = rng.integers(1, 6, size=4)
            modes[k] = sum(a * np.sin(np.pi * fq * t) for a, fq in zip(amps, freqs))
        s = _mode_seminorms(modes, grid, theta_time=0.5, p=2.0)
        ksq = 1.0 + np.arange(n_modes, dtype=float) ** 2
        lhs = float(np.sqrt(np.sum(ksq**theta * s**2)))
        a0 = float(np.sqrt(np.sum(s**2)))
        a1 = float(np.sqrt(np.sum(ksq * s**2)))
        rhs = a0 ** (1 - theta) * a1**theta
        if rhs == 0.0:
            if lhs > 0.0:
                worst = np.inf
            continue
        worst = max(worst, lhs / rhs)
    return MixedDerivativeReport(passed=worst <= 1.0 + 1e-9, max_constant=worst,
                                 trials=trials)
