"""The spectral kernel's spec: one path of a SimConfig, one state at a time.

reference_path(cfg, seed) takes the steps sim._integrate takes, written out
in public numpy: np.fft.rfft and np.fft.irfft with norm="forward", a fresh
PCG64(seed) stream drawing 2K+1 unit normals per step, the noise spectrum as
its plain complex expression, and the stats as running sums in step order.
It has no buffers, blocks, folds or compaction, and calls no SpectralStepper
method and neither of sim's private transforms; it shares only the config's
tables (spectral_weights, dealiased, NoiseSpec.amplitudes) and its initial
data.  tests/test_reference_kernel.py holds the batched kernel to it, byte
for byte.
"""

from typing import NamedTuple

import numpy as np

from critspde.sim import dealiased, initial_values, spectral_weights

TWO_PI = 2.0 * np.pi


class ReferencePath(NamedTuple):
    states: np.ndarray  # (steps + 1, n): every kept state, the initial first
    steps: int
    sigma_hat: float
    stats: tuple  # PathStats' four floats: initial, sup, grad, final


def norms(u_hat: np.ndarray, weights: np.ndarray, k2: np.ndarray):
    """(||u||^2, ||grad u||^2) of the state with rfft/n spectrum u_hat."""
    power = u_hat.real ** 2 + u_hat.imag ** 2
    return (TWO_PI * float(np.vecdot(power, weights)),
            TWO_PI * float(np.vecdot(power, weights * k2)))


def noise_spectrum(cfg, xi: np.ndarray) -> np.ndarray:
    """rfft/n spectrum of dW from the unit draws xi of one step, laid out
    [xi_0, xi_1^cos .. xi_K^cos, xi_1^sin .. xi_K^sin]; a part that comes
    out zero is +0.0."""
    kmax = cfg.noise.modes
    amp = cfg.noise.amplitudes() * np.sqrt(cfg.dt)
    w_hat = np.zeros(cfg.grid.n // 2 + 1, dtype=complex)
    w_hat[0] = xi[0] * amp[0] / np.sqrt(TWO_PI)
    w_hat[1:kmax + 1] = amp[1:] * (xi[1:kmax + 1] - 1j * xi[kmax + 1:]) \
        / (2.0 * np.sqrt(np.pi))
    w_hat += 0.0
    return w_hat


def reference_path(cfg, seed: int) -> ReferencePath:
    """Path seed of cfg.  It blows up in its initial state past the cap;
    at the start of step i when f(u) or g(u) is not finite (sigma_hat =
    i dt); or at step i's cap, when the state after it is not finite or
    passes the cap in sup-norm (sigma_hat = (i+1) dt).  A path that blows
    up after a step keeps the states before it and adds the last one's
    dt ||grad u||^2 to the gradient integral."""
    n, dt, cap = cfg.grid.n, float(cfg.dt), float(cfg.blowup_cap)
    f, g = cfg.nonlinearity.f, cfg.nonlinearity.g
    k = np.arange(n // 2 + 1, dtype=float)
    k2 = k ** 2
    weights = spectral_weights(n)
    high = ~dealiased(n)
    if cfg.scheme == "exp_euler":
        linear = np.exp(-k2 * dt)
    else:
        linear = 1.0 / (1.0 + k2 * dt)
    rng = np.random.Generator(np.random.PCG64(seed))

    u = initial_values(cfg)
    u_hat = np.fft.rfft(u, norm="forward")
    l2, head = norms(u_hat, weights, k2)
    initial, sup, grad, states = l2, l2, 0.0, [u]
    if not np.abs(u).max() <= cap:
        return ReferencePath(np.array(states), 0, 0.0, (l2, l2, 0.0, l2))

    def blew_up(i: int, t: float) -> ReferencePath:
        return ReferencePath(np.array(states), i, t,
                             (initial, sup, grad + dt * head, l2))

    for i in range(cfg.n_steps):
        xi = rng.standard_normal(2 * cfg.noise.modes + 1) \
            if cfg.nonlinearity.has_noise else None
        f_u = None if f is None else f(u)
        g_u = g(u) if callable(g) else None
        if not all(np.isfinite(v).all() for v in (f_u, g_u) if v is not None):
            return blew_up(i, i * dt)
        nxt = u_hat
        if f_u is not None:
            f_hat = np.fft.rfft(f_u, norm="forward") * (1j * k)
            f_hat[high] = 0.0
            nxt = dt * f_hat + u_hat
        if xi is not None:
            w_hat = noise_spectrum(cfg, xi)
            if g_u is None:
                g_hat = g * w_hat
            else:
                dw = np.fft.irfft(w_hat, n, norm="forward")
                g_hat = np.fft.rfft(g_u * dw, norm="forward")
                g_hat[high] = 0.0
            nxt = nxt + g_hat
        nxt = nxt * linear
        u = np.fft.irfft(nxt, n, norm="forward")
        if not np.abs(u).max() <= cap:
            return blew_up(i, (i + 1) * dt)
        u_hat = nxt
        grad = grad + dt * head
        l2, head = norms(u_hat, weights, k2)
        sup = max(sup, l2)
        states.append(u)
    return ReferencePath(np.array(states), cfg.n_steps, float(cfg.t_end),
                         (initial, sup, grad, l2))
