"""Named ready-to-run configurations for the CLI and the acceptance suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .bootstrap import BootstrapChain, full_chain_1d
from .exponents import one_d_growth_params
from .harness import EnsembleConfig
from .sim import NoiseSpec, NonlinearitySpec, SimConfig, TorusGrid


def cubic_flux(y: np.ndarray) -> np.ndarray:
    # numpy sends y ** 3 through pow: 30 to 60 times slower on (P, 64) states
    return y * y * y


def one_plus_abs(y: np.ndarray) -> np.ndarray:
    return 1.0 + np.abs(y)


def heat() -> SimConfig:
    """Pure heat flow from a single cosine mode; exactly integrable."""
    return SimConfig(grid=TorusGrid(64), nonlinearity=NonlinearitySpec(),
                     t_end=1.0, dt=0.05, u0=np.cos)


def linear_noise() -> SimConfig:
    """Stochastic convolution: zero data, constant noise coefficient."""
    return SimConfig(grid=TorusGrid(64), nonlinearity=NonlinearitySpec(g=1.0),
                     noise=NoiseSpec(lam=0.75, modes=21), t_end=1.0, dt=1e-3,
                     u0=None)


def cubic_conservative() -> SimConfig:
    """Conservative cubic flux, no noise; L^2 can only decrease."""
    growth = one_d_growth_params("l2_eps", eps=Fraction(0))
    return SimConfig(
        grid=TorusGrid(64),
        nonlinearity=NonlinearitySpec(f=cubic_flux, growth=growth),
        t_end=1.0, dt=1e-3, u0=np.cos)


def sublinear_global() -> SimConfig:
    """Cubic flux with linearly bounded multiplicative noise g(y) = 1+|y|."""
    growth = one_d_growth_params("l2_eps", eps=Fraction(0))
    return SimConfig(
        grid=TorusGrid(64),
        nonlinearity=NonlinearitySpec(f=cubic_flux, g=one_plus_abs,
                                      growth=growth,
                                      sublinear_noise_bound=1.0),
        noise=NoiseSpec(lam=0.75, modes=21), t_end=1.0, dt=1e-3, u0=np.cos)


def rough_data_chain() -> BootstrapChain:
    """Reference regularization chain for rough initial data."""
    return full_chain_1d("rough", s=Fraction(1, 5), q=Fraction(5, 2),
                         p=Fraction(4))


def regularity_ensemble(n_paths: int = 24, seed: int = 0) -> EnsembleConfig:
    """Reference ensemble for the empirical Hoelder exponent bands."""
    base = SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec(g=1.0),
                     noise=NoiseSpec(lam=0.75, modes=42), t_end=1.0, dt=5e-4,
                     seed=seed, u0=None)
    return EnsembleConfig(base=base, n_paths=n_paths,
                          experiment="regularity", n_save=257)


SIM_PRESETS = {
    "heat": heat,
    "linear-noise": linear_noise,
    "cubic-conservative": cubic_conservative,
    "sublinear-global": sublinear_global,
}

CHAIN_PRESETS = {
    "rough-data-chain": rough_data_chain,
}
