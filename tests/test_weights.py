"""Weighted time norms and the Slobodeckij seminorm, plus randomized
checks of two inequalities built on them: the weighted Lebesgue embedding
with its explicit Hoelder constant, and the mixed space-time interpolation
estimate in a Fourier-multiplier realization.  The probes that run those
checks live here, with their only callers.
"""
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from critspde.exponents import ParameterError
from critspde.weights import (
    PowerWeight,
    SampledFunction,
    TimeGrid,
    slobodeckij_seminorm,
    weighted_lp_norm,
)

W0 = PowerWeight(0.0)


def uniform_grid(a, b, n):
    """n equal cells on [a, b]."""
    return TimeGrid(np.linspace(a, b, n + 1))


def sampled(fn, grid):
    return SampledFunction(grid, np.asarray([fn(t) for t in grid.nodes]))


# --- inequality probes -------------------------------------------------------

class LimitingCaseError(ParameterError):
    """Endpoint parameter combination where the inequality is known to fail."""


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
        f = sampled(fn, grid)
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
    grid = uniform_grid(0.0, 1.0, n_time)
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


# --- grids and weights -------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.0, 1.0]))  # too short
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
    g = uniform_grid(0.0, 1.0, 10)
    assert g.a == 0.0 and g.nodes[-1] == 1.0 and g.nodes.size == 11


def test_weight_validation():
    with pytest.raises(ParameterError):
        PowerWeight(-1.0)
    with pytest.raises(ParameterError):
        PowerWeight(0.5, offset=-1.0)
    w = PowerWeight(1.0, offset=0.0)
    with pytest.raises(ParameterError):
        # singularity strictly inside the interval
        w2 = PowerWeight(-0.5, offset=0.5)
        w2.cell_integrals(np.array([0.0, 0.4, 1.0]))
    assert w.admissible_for(4.0) and not w.admissible_for(2.0)


def test_sampled_function_validation():
    g = uniform_grid(0.0, 1.0, 4)
    with pytest.raises(ParameterError):
        SampledFunction(g, np.ones(3))
    with pytest.raises(ParameterError):
        SampledFunction(g, np.array([0.0, 1.0, np.inf, 0.0, 1.0]))


# --- weighted lp norm --------------------------------------------------------

def test_unit_constant_unit_measure():
    g = uniform_grid(0.0, 1.0, 50)
    f = sampled(lambda t: 1.0, g)
    assert weighted_lp_norm(f, 2.0, W0) == pytest.approx(1.0, abs=1e-14)


def test_constant_with_linear_weight():
    # (int_0^1 t dt)^{1/2} = 1/sqrt(2); the weight integrals are exact so
    # the grid does not matter
    g = uniform_grid(0.0, 1.0, 7)
    f = sampled(lambda t: 1.0, g)
    assert weighted_lp_norm(f, 2.0, PowerWeight(1.0)) == pytest.approx(
        1 / math.sqrt(2), abs=1e-14)


def test_inverse_quartic_root_singularity():
    # int_0^1 t^{-1/2} dt = 2, so the L2 norm of t^{-1/4} is sqrt(2)
    g = TimeGrid.graded(0.0, 1.0, 2000)
    ts = g.nodes.copy()
    ts[0] = ts[1]  # f is singular at 0; that sample is never used exactly
    f = SampledFunction(g, ts ** (-0.25))
    assert weighted_lp_norm(f, 2.0, W0) == pytest.approx(math.sqrt(2), abs=1e-3)


def test_homogeneity():
    rng = np.random.default_rng(3)
    g = TimeGrid.graded(0.0, 1.0, 100)
    f = SampledFunction(g, rng.standard_normal(g.nodes.size))
    w = PowerWeight(0.5)
    base = weighted_lp_norm(f, 3.0, w)
    for c in (-2.5, 0.0, 7.0):
        fc = SampledFunction(g, c * f.values)
        assert fc.values is not f.values
        assert weighted_lp_norm(fc, 3.0, w) == pytest.approx(abs(c) * base, rel=1e-13)


def test_monotone_restriction():
    rng = np.random.default_rng(4)
    g = uniform_grid(0.0, 1.0, 64)
    vals = rng.standard_normal(g.nodes.size)
    f = SampledFunction(g, vals)
    w = PowerWeight(1.5)
    full = weighted_lp_norm(f, 4.0, w)
    sub = SampledFunction(TimeGrid(g.nodes[16:49]), vals[16:49])
    assert weighted_lp_norm(sub, 4.0, w) <= full + 1e-14


def test_unweighting_bound():
    # ||f||_{L^p(c,b)} <= (c-a)^{-kappa/p} ||f||_{L^p(c,b,w_kappa^a)}
    rng = np.random.default_rng(5)
    a, c, b, kappa, p = 0.0, 0.25, 1.0, 1.2, 2.0
    g = uniform_grid(c, b, 80)
    f = SampledFunction(g, rng.standard_normal(g.nodes.size))
    lhs = weighted_lp_norm(f, p, PowerWeight(0.0, offset=c))
    rhs = weighted_lp_norm(f, p, PowerWeight(kappa, offset=a))
    assert lhs <= (c - a) ** (-kappa / p) * rhs + 1e-12


def test_multi_axis_samples_are_rejected():
    # per-mode spectra, one row per node: the norm takes scalar samples only,
    # as the seminorm does
    g = uniform_grid(0.0, 1.0, 10)
    vals = np.tile(np.array([3.0, 4.0]), (g.nodes.size, 1))
    f = SampledFunction(g, vals)
    with pytest.raises(ParameterError, match="scalar samples"):
        weighted_lp_norm(f, 3.0, W0)
    with pytest.raises(ParameterError, match="scalar samples"):
        slobodeckij_seminorm(f, 0.5, 2.0, W0)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5, -1.0])
def test_p_outside_one_to_infinity_is_rejected(p):
    # nan returned nan and inf 1.0 (the seminorm with a RuntimeWarning)
    f = sampled(np.sin, uniform_grid(0.0, 1.0, 10))
    with pytest.raises(ParameterError, match="need 1 <= p < oo"):
        weighted_lp_norm(f, p, W0)
    with pytest.raises(ParameterError, match="need 1 <= p < oo"):
        slobodeckij_seminorm(f, 0.5, p, W0)


# --- slobodeckij -------------------------------------------------------------

def test_slobodeckij_constant_is_zero():
    g = uniform_grid(0.0, 1.0, 30)
    f = sampled(lambda t: 3.7, g)
    assert slobodeckij_seminorm(f, 0.5, 2.0, W0) == 0.0


def test_slobodeckij_linear_half():
    # f(t)=t, theta=1/2, p=2: the kernel collapses to 1, so the seminorm is
    # exactly the interval measure
    for n in (20, 40, 80):
        g = uniform_grid(0.0, 1.0, n)
        f = sampled(lambda t: t, g)
        val = slobodeckij_seminorm(f, 0.5, 2.0, W0)
        assert val == pytest.approx(1.0, rel=1e-12)


def test_slobodeckij_stability_under_doubling():
    g1 = uniform_grid(0.0, 1.0, 64)
    g2 = uniform_grid(0.0, 1.0, 128)
    v1 = slobodeckij_seminorm(sampled(math.sin, g1), 0.3, 2.0, W0)
    v2 = slobodeckij_seminorm(sampled(math.sin, g2), 0.3, 2.0, W0)
    assert v1 > 0
    assert abs(v2 - v1) <= 0.05 * v1


def test_slobodeckij_translation_invariance():
    g = uniform_grid(0.0, 1.0, 50)
    gs = TimeGrid(g.nodes + 0.4)
    v = slobodeckij_seminorm(sampled(lambda t: t, g), 0.5, 2.0, W0)
    vs = slobodeckij_seminorm(sampled(lambda t: t - 0.4, gs), 0.5, 2.0, W0)
    assert v == pytest.approx(vs, rel=1e-13)


def test_slobodeckij_rejects_bad_params():
    g = uniform_grid(0.0, 1.0, 10)
    f = sampled(lambda t: t, g)
    with pytest.raises(ParameterError):
        slobodeckij_seminorm(f, 1.0, 2.0, W0)
    with pytest.raises(ParameterError):
        slobodeckij_seminorm(f, 0.5, 2.0, PowerWeight(1.0))  # kappa >= p-1


def test_divergence_probe_flags_inverse_root():
    rep = slobodeckij_divergence_probe(lambda t: t ** (-0.25), 0.0, 1.0,
                                       theta=0.6, p=2.0, w=W0, n0=64, rounds=5)
    assert isinstance(rep, DivergenceReport)
    assert rep.divergent


def test_divergence_probe_clears_lipschitz():
    rep = slobodeckij_divergence_probe(lambda t: t, 0.0, 1.0,
                                       theta=0.5, p=2.0, w=W0, n0=32, rounds=4)
    assert not rep.divergent


# --- embedding check ---------------------------------------------------------

def test_embedding_identity_case():
    rep = check_embedding_scaling(2.0, 2.0, 0.0, 0.0, T=1.0, trials=5)
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.constant == 1.0 and rep.t_power == 0.0


def test_embedding_weighted_strict_case():
    rep = check_embedding_scaling(2.0, 4.0, 0.0, 0.5, T=1.0, trials=20)
    assert rep.passed
    assert rep.worst_ratio <= 1.0 + 1e-9
    m = (0.0 * 4 - 0.5 * 2) / 2.0
    assert rep.constant == pytest.approx((1 + m) ** (-(4 - 2) / 8.0))


def test_embedding_scaling_power_active():
    rep = check_embedding_scaling(2.0, 4.0, 0.0, 0.5, T=2.0, trials=10)
    assert rep.passed
    assert rep.t_power == pytest.approx((1 + 0.0) / 2 - (1 + 0.5) / 4)


def test_embedding_p_equals_q_weight_gap():
    rep = check_embedding_scaling(2.0, 2.0, 0.8, 0.2, T=1.0, trials=10)
    assert rep.passed and rep.constant == 1.0


def test_embedding_limiting_case_error():
    with pytest.raises(LimitingCaseError):
        check_embedding_scaling(4.0, 2.0, 1.0, 0.0, T=1.0)


def test_embedding_equal_indices_below_is_plain_error():
    with pytest.raises(ParameterError):
        check_embedding_scaling(2.0, 4.0, 0.0, 1.0, T=1.0)


def test_embedding_rejects_inadmissible_weights():
    with pytest.raises(ParameterError):
        check_embedding_scaling(2.0, 4.0, 1.5, 0.0, T=1.0)  # kappa >= p-1


# --- mixed derivative --------------------------------------------------------

def test_mixed_derivative_single_mode_equality():
    g = uniform_grid(0.0, 1.0, 96)
    mode = np.sin(2 * np.pi * g.nodes)
    s3 = slobodeckij_seminorm(SampledFunction(g, mode), 0.5, 2.0, W0)
    ksq = 1.0 + 3.0**2
    for theta in (0.25, 0.5, 0.75):
        lhs = math.sqrt(ksq**theta * s3**2)
        rhs = (s3) ** (1 - theta) * math.sqrt(ksq * s3**2) ** theta
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mixed_derivative_report():
    rep = check_mixed_derivative(0.3, trials=12, n_time=64)
    assert rep.passed
    assert 0.0 < rep.max_constant <= 1.0 + 1e-9


def test_mixed_derivative_stable_under_time_refinement():
    r1 = check_mixed_derivative(0.3, trials=8, n_time=64)
    r2 = check_mixed_derivative(0.3, trials=8, n_time=128)
    assert abs(r2.max_constant - r1.max_constant) <= 0.10 * r1.max_constant


def test_mixed_derivative_zero_field_passes():
    g = uniform_grid(0.0, 1.0, 16)
    z = SampledFunction(g, np.zeros(g.nodes.size))
    assert slobodeckij_seminorm(z, 0.5, 2.0, W0) == 0.0
    rep = check_mixed_derivative(0.5, trials=1, n_time=32)
    assert rep.passed


def test_mixed_derivative_validates_theta():
    with pytest.raises(ParameterError):
        check_mixed_derivative(0.0)
