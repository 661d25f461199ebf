import hashlib
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critspde import harness, presets, sim
from critspde.exponents import ParameterError
from critspde.harness import EnsembleConfig, mc_run, save_trajectory_csv
from critspde.sim import (
    NoiseSpec,
    NonlinearitySpec,
    SimConfig,
    SpectralStepper,
    TorusGrid,
    _save_indices,
    basis_coefficient,
    drift_pairing,
    initial_values,
    l2_norm_sq,
    simulate_path,
)

GRID = TorusGrid(64)


def heat_cfg(**kw):
    base = dict(grid=GRID, nonlinearity=NonlinearitySpec(),
                t_end=1.0, dt=0.05, u0=np.cos)
    base.update(kw)
    return SimConfig(**base)


def ou_cfg(dt=5e-3, seed=0, modes=21, n=64):
    return SimConfig(grid=TorusGrid(n), nonlinearity=NonlinearitySpec(g=1.0),
                     noise=NoiseSpec(lam=0.75, modes=modes), t_end=1.0,
                     dt=dt, seed=seed, u0=None)


def step_spectra(stepper, values, xi=None):
    """The (drift, noise) spectra update() takes in a step from values on
    the unit draw xi (None without noise)."""
    grids, _ = stepper.coefficients(values)
    dw = None if xi is None else stepper.noise_increments(xi)
    u_hat = np.zeros(np.shape(values)[:-1] + (stepper.n // 2 + 1,),
                     dtype=complex)
    return stepper.update(u_hat, grids, dw)[1:]


def noise_field(stepper, rng):
    """One Brownian increment field on the grid, from the stepper's draw."""
    xi = rng.standard_normal(stepper.draws)
    w_hat = step_spectra(stepper, np.zeros(stepper.n), xi)[1]
    return np.fft.irfft(w_hat * stepper.n, n=stepper.n)


def drift_field(values, f):
    """d/dx f(u) on the grid, by the stepper's dealiased derivative."""
    st = SpectralStepper(heat_cfg(nonlinearity=NonlinearitySpec(f=f)))
    return np.fft.irfft(step_spectra(st, values)[0] * st.n, n=st.n)


# --- validation ------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ParameterError):
        TorusGrid(12)
    with pytest.raises(ParameterError):
        TorusGrid(4)
    g = TorusGrid(8)
    assert g.n == 8
    assert np.array_equal(g.x, 2 * np.pi * np.arange(8) / 8)


def test_noise_spec_validation():
    with pytest.raises(ParameterError):
        NoiseSpec(lam=0.5)
    with pytest.raises(ParameterError):
        NoiseSpec(lam=1.0)
    amps = NoiseSpec(lam=0.75, modes=2).amplitudes()
    assert amps[0] == 1.0
    assert amps[1] == pytest.approx(2.0 ** -0.375)


@pytest.mark.parametrize("modes", [2.5, 3.0, True, -1, "3", None])
def test_noise_spec_rejects_modes_that_are_no_cutoff(modes):
    # 2.5 was accepted and the run died in a TypeError; True ran as 1 mode
    with pytest.raises(ParameterError, match="integer >= 0"):
        NoiseSpec(modes=modes)


def test_noise_spec_takes_numpy_integer_modes():
    cfg = ou_cfg(dt=0.1)
    lone = simulate_path(replace(cfg, noise=NoiseSpec(modes=np.int64(21))))
    assert np.array_equal(lone.states, simulate_path(cfg).states)
    assert NoiseSpec(modes=0).amplitudes().tolist() == [1.0]


def test_nonlinearity_validation():
    with pytest.raises(ParameterError):
        NonlinearitySpec(nu=0.0)
    spec = NonlinearitySpec(g=2)
    assert spec.g == 2.0 and spec.has_noise


@pytest.mark.parametrize("seed", [2.5, "3", None, True],
                         ids=["float", "str", "none", "bool"])
def test_config_rejects_a_seed_that_is_no_integer(seed):
    # with noise 2.5, '3' and None died in a TypeError inside numpy and True
    # ran as seed 1; without noise any of them ran
    for cfg in (heat_cfg(), ou_cfg(dt=0.1)):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            replace(cfg, seed=seed)
        with pytest.raises(ParameterError, match="seed must be an integer"):
            sim._integrate(cfg, [0, seed])


def test_config_takes_numpy_integer_seeds():
    # negative seeds stay legal too: a path's own stream refuses them
    # (tests/test_cli.py), a montecarlo master seed mixes them
    cfg = ou_cfg(dt=0.1)
    lone = simulate_path(replace(cfg, seed=np.int64(3)))
    assert np.array_equal(lone.states, simulate_path(replace(cfg, seed=3))
                          .states)


def test_config_validation():
    with pytest.raises(ParameterError):
        heat_cfg(dt=-1.0)
    with pytest.raises(ParameterError):
        heat_cfg(scheme="euler")
    # noise cutoff outside the dealiased band
    with pytest.raises(ParameterError):
        SimConfig(grid=GRID, nonlinearity=NonlinearitySpec(g=1.0),
                  noise=NoiseSpec(modes=22), t_end=1.0, dt=0.1)
    # g present but no noise spec
    with pytest.raises(ParameterError):
        SimConfig(grid=GRID, nonlinearity=NonlinearitySpec(g=1.0),
                  t_end=1.0, dt=0.1)
    with pytest.raises(ParameterError):
        heat_cfg(dt=0.3).n_steps
    # a non-finite step or horizon has no step count
    for bad in (float("nan"), float("inf"), -float("inf")):
        for field in ("dt", "t_end"):
            with pytest.raises(ParameterError, match="finite"):
                heat_cfg(**{field: bad})
    # finite inputs whose step count overflows a float
    with pytest.raises(ParameterError, match="integer number of steps"):
        heat_cfg(dt=1e-300, t_end=1e10).n_steps
    assert heat_cfg(dt=0.05).n_steps == 20
    # past 1e50 a state under the cap can overflow its squared norms
    for cap in (0.0, -1.0, float("nan"), 1e51, 1e100, 1e300):
        with pytest.raises(ParameterError, match="overflow"):
            heat_cfg(blowup_cap=cap)
    assert heat_cfg(blowup_cap=1e50).blowup_cap == 1e50


def test_initial_values_forms():
    assert np.all(initial_values(heat_cfg(u0=None)) == 0.0)
    assert initial_values(heat_cfg(u0=2.5))[3] == 2.5
    v = initial_values(heat_cfg(u0=np.cos))
    assert v[0] == pytest.approx(1.0)
    arr = np.arange(64.0)
    assert np.array_equal(initial_values(heat_cfg(u0=arr)), arr)
    with pytest.raises(ParameterError):
        initial_values(heat_cfg(u0=np.arange(32.0)))


# --- spectral bookkeeping ----------------------------------------------------

def test_parseval_consistency():
    rng = np.random.default_rng(1)
    u_hat_band = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    full = np.zeros(33, dtype=complex)
    full[:11] = u_hat_band
    full[0] = full[0].real
    values = np.fft.irfft(full * 64, n=64)
    # the kernel takes the initial ||u||^2 from the state's spectrum
    traj = simulate_path(heat_cfg(u0=values, t_end=0.05))
    assert traj.stats.initial_l2_sq == pytest.approx(l2_norm_sq(values),
                                                     rel=1e-10)


def test_state_round_trip():
    # the rfft/n convention: u(x) = sum_k u_hat_k e^{ikx}
    x = GRID.x
    values = np.cos(3 * x) + 0.25
    spec = np.fft.rfft(values) / 64
    back = np.fft.irfft(spec * 64, n=64)
    assert np.allclose(back, values, atol=1e-13)
    assert spec[0] == pytest.approx(0.25)
    assert spec[3] == pytest.approx(0.5)


def test_basis_coefficient_recovers_modes():
    x = GRID.x
    u = 3.0 * np.cos(2 * x) / np.sqrt(np.pi) + 0.5 / np.sqrt(2 * np.pi)
    assert basis_coefficient(u, 2, "cos") == pytest.approx(3.0, abs=1e-12)
    assert basis_coefficient(u, 0) == pytest.approx(0.5, abs=1e-12)
    assert basis_coefficient(u, 2, "sin") == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k, kind, message", [
    (0, "bogus", "basis kind must be cos or sin"),
    (2, "bogus", "basis kind must be cos or sin"),
    (-1, "sin", "mode number must be an integer >= 0, not -1"),
    (1.0, "cos", "mode number must be an integer >= 0, not 1.0"),
    (True, "cos", "mode number must be an integer >= 0, not True"),
])
def test_basis_coefficient_rejects_bad_kind_and_mode(k, kind, message):
    # the kind is checked before the k = 0 shortcut, and k = -1 is no
    # mode (sin(-x) would give the negated coefficient)
    with pytest.raises(ParameterError) as err:
        basis_coefficient(np.cos(GRID.x), k, kind)
    assert str(err.value) == message


# --- noise ------------------------------------------------------------------

def test_noise_constant_mode_only():
    stepper = SpectralStepper(ou_cfg(dt=0.01, modes=0))
    rng = np.random.default_rng(3)
    field = noise_field(stepper, rng)
    assert np.ptp(field) == pytest.approx(0.0, abs=1e-15)
    draws = np.array([basis_coefficient(noise_field(stepper, rng), 0)
                      for _ in range(10000)])
    assert draws.var() == pytest.approx(0.01, rel=0.05)
    assert abs(draws.mean()) < 3 * 0.1 / np.sqrt(10000)


def test_noise_per_mode_variance():
    dt = 0.02
    stepper = SpectralStepper(ou_cfg(dt=dt, modes=8))
    rng = np.random.default_rng(5)
    fields = np.array([noise_field(stepper, rng) for _ in range(10000)])
    sig = NoiseSpec(lam=0.75, modes=8).amplitudes()
    for k, kind in [(1, "cos"), (1, "sin"), (4, "cos"), (8, "sin")]:
        coef = np.array([basis_coefficient(f, k, kind) for f in fields])
        assert coef.var() == pytest.approx(sig[k] ** 2 * dt, rel=0.05)


def test_noise_determinism():
    stepper = SpectralStepper(ou_cfg(dt=0.1, modes=5))
    a = noise_field(stepper, np.random.default_rng(42))
    b = noise_field(stepper, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_noise_rejects_wide_band():
    # the cutoff may reach the edge of the dealiased band, K = n // 3
    for n in (32, 64, 128):
        ok = SimConfig(grid=TorusGrid(n), nonlinearity=NonlinearitySpec(g=1.0),
                       noise=NoiseSpec(modes=n // 3), t_end=0.1, dt=0.1)
        assert SpectralStepper(ok).draws == 2 * (n // 3) + 1
        with pytest.raises(ParameterError):
            SimConfig(grid=TorusGrid(n), nonlinearity=NonlinearitySpec(g=1.0),
                      noise=NoiseSpec(modes=n // 3 + 1), t_end=0.1, dt=0.1)


# --- drift --------------------------------------------------------------------

def test_drift_cubic_flux_oracle():
    x = GRID.x
    got = drift_field(np.cos(x), lambda y: y ** 3)
    want = -3.0 * np.cos(x) ** 2 * np.sin(x)
    assert np.max(np.abs(got - want)) <= 1e-8


# unit roundoff of float64: fl(x op y) = (x op y)(1 + d) with |d| <= U
_U = Fraction(1, 2 ** 53)


@given(st.one_of(st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)))
@settings(max_examples=500)
def test_property_cubic_flux_rounding_bound(y):
    # (y*y)*y rounds twice, so it is y^3 (1+d1)(1+d2); the range keeps y^2
    # and y^3 normal and finite
    got = presets.cubic_flux(np.array([y]))[0]
    exact = Fraction(y) ** 3
    assert abs(Fraction(float(got)) - exact) <= (2 * _U + _U ** 2) * abs(exact)


def test_drift_zero_and_linear():
    x = GRID.x
    u = np.cos(5 * x)
    assert step_spectra(SpectralStepper(heat_cfg()), u)[0] is None
    got = drift_field(u, lambda y: y)
    assert np.allclose(got, -5.0 * np.sin(5 * x), atol=1e-12)


def test_drift_overflow_flags_blowup():
    st = SpectralStepper(heat_cfg(
        nonlinearity=NonlinearitySpec(f=lambda y: y ** 3)))
    rows = np.stack([np.full(64, 1e200), np.full(64, 0.5)])
    with np.errstate(over="ignore"):
        ok = st.coefficients(rows)[1]
    assert ok.tolist() == [False, True]
    # a flux that overflows on its 16th call, the step that starts at 0.75
    calls = []

    def flux(y):
        calls.append(None)
        return np.full_like(y, np.inf if len(calls) == 16 else 0.0)

    traj = simulate_path(heat_cfg(nonlinearity=NonlinearitySpec(f=flux)))
    assert traj.status == "blew_up" and traj.sigma_hat == 0.75
    assert traj.stats.steps_taken == 15 and traj.times[-1] == 0.75


def test_drift_pairing_vanishes():
    rng = np.random.default_rng(11)
    n = 128
    for _ in range(20):
        u_hat = np.zeros(n // 2 + 1, dtype=complex)
        u_hat[:32] = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        u_hat[0] = u_hat[0].real
        u = np.fft.irfft(u_hat * n, n=n)
        val = drift_pairing(u, lambda y: y ** 3)
        l4 = (2 * np.pi / n) * float(np.sum(u ** 4))
        assert abs(val) <= 1e-8 * (1.0 + l4)


# --- stepping -------------------------------------------------------------------

def test_single_heat_step_exact():
    traj = simulate_path(heat_cfg(dt=0.05, t_end=0.05))
    assert traj.times[-1] == pytest.approx(0.05)
    assert traj.stats.steps_taken == 1
    assert np.allclose(traj.states[-1], np.exp(-0.05) * np.cos(GRID.x),
                       atol=1e-14)


def test_semi_implicit_multiplier():
    traj = simulate_path(heat_cfg(dt=0.1, t_end=0.1, scheme="semi_implicit"))
    assert traj.stats.steps_taken == 1
    assert np.allclose(traj.states[-1], np.cos(GRID.x) / 1.1, atol=1e-14)


def test_heat_path_exactness_any_partition():
    for dt in (0.5, 0.05, 0.01):
        traj = simulate_path(heat_cfg(dt=dt))
        err = traj.states[-1] - np.exp(-1.0) * np.cos(GRID.x)
        assert np.sqrt(l2_norm_sq(err)) <= 1e-12
        assert traj.completed and traj.sigma_hat == 1.0


def test_ou_mode_variance():
    # d a = -a dt + sigma_1 d beta; Var a(1) = sigma_1^2 (1-e^-2)/2
    target = 2.0 ** -0.75 * (1.0 - np.exp(-2.0)) / 2.0
    vals = []
    for seed in range(300):
        traj = simulate_path(ou_cfg(seed=seed), n_save=2)
        vals.append(basis_coefficient(traj.states[-1], 1, "cos") ** 2)
    est = float(np.mean(vals))
    mc = 3.0 * target * np.sqrt(2.0 / len(vals))
    assert abs(est - target) <= mc


def test_cubic_conservative_l2_decrease():
    cfg = heat_cfg(nonlinearity=NonlinearitySpec(f=lambda y: y ** 3),
                   dt=1e-3)
    traj = simulate_path(cfg, n_save=11)
    assert traj.completed
    assert traj.stats.sup_l2_sq <= traj.stats.initial_l2_sq * (1 + 1e-9)
    assert traj.stats.final_l2_sq < traj.stats.initial_l2_sq


def test_blowup_cap_at_start():
    cfg = heat_cfg(u0=lambda x: 2.0 * np.cos(x), blowup_cap=1.0)
    traj = simulate_path(cfg)
    assert traj.status == "blew_up"
    assert traj.sigma_hat == 0.0
    assert traj.times.shape == (1,)


def test_non_finite_initial_data_is_rejected(tmp_path, monkeypatch):
    # initial data holding an infinity or a NaN is no blow-up but a bad
    # config: it raises before any path runs, so an ensemble forks no
    # worker and writes no file, whether it would split or not
    def no_fork():
        raise AssertionError("forked on rejected initial data")

    monkeypatch.setattr(harness.os, "fork", no_fork)
    for bad in (np.inf, -np.inf, np.nan):
        cfg = heat_cfg(u0=np.where(np.arange(64) == 3, bad, 1.0))
        with pytest.raises(ParameterError, match="initial data must be finite"):
            simulate_path(cfg)
        for w in (1, 3):
            monkeypatch.setattr(harness, "_workers", lambda n_paths, n_steps: w)
            with pytest.raises(ParameterError,
                               match="initial data must be finite"):
                mc_run(EnsembleConfig(base=cfg, n_paths=3,
                                      outdir=str(tmp_path)))
    assert list(tmp_path.iterdir()) == []


def test_blowup_cap_is_on_the_sup_norm():
    # a one-point spike: sup |u| = 2 > cap = 1 > ||u||_L2 = (4 pi/32)^(1/2)
    spike = np.zeros(64)
    spike[5] = 2.0
    assert np.sqrt(l2_norm_sq(spike)) < 1.0
    traj = simulate_path(heat_cfg(u0=spike, blowup_cap=1.0))
    assert traj.status == "blew_up" and traj.sigma_hat == 0.0
    # a constant: ||u||_L2 = 0.5 (2 pi)^(1/2) > cap = 1 > sup |u| = 0.5
    assert np.sqrt(l2_norm_sq(np.full(64, 0.5))) > 1.0
    traj = simulate_path(heat_cfg(u0=0.5, blowup_cap=1.0))
    assert traj.completed and traj.sigma_hat == 1.0


def test_blowup_mid_path_truncates():
    # unstable growth: f pumps energy through a negative flux gradient
    cfg = heat_cfg(nonlinearity=NonlinearitySpec(f=lambda y: 1e8 * y ** 3),
                   dt=0.05, blowup_cap=10.0)
    traj = simulate_path(cfg)
    assert traj.status == "blew_up"
    assert 0.0 < traj.sigma_hat <= 1.0
    assert traj.times.size < 21
    assert np.all(np.abs(traj.states) <= 10.0)


def test_path_determinism_and_table_equivalence():
    # a path is a function of its config: every state and the stats.  Both
    # horizons end in a partial block, and with a map g (sublinear-global)
    # each block's noise takes its own irfft
    for cfg in (ou_cfg(dt=0.01, seed=9),
                replace(presets.sublinear_global(), t_end=0.25, seed=9)):
        a = simulate_path(cfg)
        b = simulate_path(cfg)
        assert a.completed
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert a.stats == b.stats


def test_common_noise_refinement_agrees():
    # same Brownian path at two resolutions: solutions stay close and the
    # gap shrinks as the coarse step halves (strong self-convergence)
    base = ou_cfg(dt=1.0 / 512, seed=21, modes=5, n=32)
    ref = simulate_path(base, n_save=2)
    errs = []
    for m in (8, 4):
        cfg = ou_cfg(dt=m / 512, seed=21, modes=5, n=32)
        traj = sim._integrate(cfg, [cfg.seed], 2, substeps=m)[0]
        errs.append(np.sqrt(l2_norm_sq(traj.states[-1] - ref.states[-1])))
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 1.3


def test_save_schedule():
    traj = simulate_path(heat_cfg(dt=0.05), n_save=5)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.states.shape == (5, 64)
    with pytest.raises(ParameterError):
        simulate_path(heat_cfg(dt=0.05), n_save=1)
    # 2.5 died in numpy with a TypeError, and True ran as 1
    for n_save in (2.5, True):
        with pytest.raises(ParameterError, match="n_save must be an integer"):
            simulate_path(heat_cfg(dt=0.05), n_save=n_save)


def test_save_indices_match_unique():
    # the distinct rounded grid points, as np.unique gives them
    for n_steps in range(1, 160):
        for n_save in range(2, min(n_steps + 1, 120)):
            want = np.unique(np.round(np.linspace(0, n_steps, n_save))
                             .astype(int))
            got = _save_indices(n_steps, n_save)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_grad_integral_heat_oracle():
    # d/dt ||u||^2 = -2||grad u||^2 for pure heat flow, so the accumulated
    # integral must match (||u0||^2 - ||u(T)||^2)/2
    cfg = heat_cfg(dt=1e-3)
    traj = simulate_path(cfg, n_save=2)
    drop = (traj.stats.initial_l2_sq - traj.stats.final_l2_sq) / 2.0
    assert traj.stats.grad_integral == pytest.approx(drop, rel=2e-3)


def test_stepper_mode_tables():
    st = SpectralStepper(heat_cfg(dt=0.1))
    assert st.linear[0] == 1.0
    assert st.linear[2] == pytest.approx(np.exp(-0.4))
    assert st.band == 22  # bins 0..21 = 64 // 3 survive the 2/3 rule
    assert st.deriv[-1] == 1j * 32.0


@pytest.mark.parametrize("f", [None, presets.cubic_flux], ids=["no_f", "cubic"])
@pytest.mark.parametrize("g", [None, 1.5, presets.one_plus_abs],
                         ids=["no_g", "const_g", "map_g"])
def test_update_spectra_match_drift_and_noise_hat(f, g):
    # the spectra update() returns, one rfft for both terms when f and a map
    # g are present, are the bits of drift_hat and noise_hat
    noise = None if g is None else NoiseSpec(lam=0.75, modes=7)
    st = SpectralStepper(heat_cfg(nonlinearity=NonlinearitySpec(f=f, g=g),
                                  noise=noise))
    rng = np.random.default_rng(5)
    x = GRID.x
    values = np.stack([np.cos(x) + 0.3 * a * np.sin(3 * x)
                       for a in rng.standard_normal(5)])
    xi = rng.standard_normal((5, st.draws))
    for v, draw in ((values, xi), (values[2], xi[2])):
        u_hat = np.fft.rfft(v, norm="forward")
        grids, ok = st.coefficients(v)
        assert ok is None
        dw = None if g is None else st.noise_increments(draw)
        _, f_hat, g_hat = st.update(u_hat, grids, dw)
        drift = st.drift_hat(v, 0.0)
        if f is None:
            assert f_hat is None and not drift.any()
        else:
            assert f_hat.tobytes() == drift.tobytes()
        noise_hat = st.noise_hat(v, draw, 0.0)
        if g is None:
            assert g_hat is None and noise_hat is None
        else:
            assert g_hat.tobytes() == noise_hat.tobytes()


def _update_lines():
    rng = np.random.default_rng(2024)
    x = GRID.x
    values = np.stack([np.cos(x) + 0.3 * a * np.sin(3 * x)
                       for a in rng.standard_normal(5)])
    for scheme in ("exp_euler", "semi_implicit"):
        for f in (None, presets.cubic_flux):
            for g in (None, 1.5, presets.one_plus_abs):
                noise = None if g is None else NoiseSpec(lam=0.75, modes=7)
                st = SpectralStepper(heat_cfg(
                    nonlinearity=NonlinearitySpec(f=f, g=g), noise=noise,
                    scheme=scheme, dt=0.01))
                xi = rng.standard_normal((5, st.draws))
                for v, draw in ((values, xi), (values[3], xi[3])):
                    u_hat = np.fft.rfft(v, norm="forward")
                    grids, _ = st.coefficients(v)
                    dw = None if g is None else st.noise_increments(draw)
                    yield st.update(u_hat, grids, dw)[0].tobytes()


def test_update_bytes_pinned():
    # update() sums in place into one fresh array; the digest was recorded
    # when it built a new array for each term, in both schemes, with and
    # without a flux, a constant g and a map g, on a batch and on one row
    h = hashlib.sha256()
    for line in _update_lines():
        h.update(line)
    assert h.hexdigest() == ("3012e378b751ab10567b6d94f4c2a75f"
                             "4747ad7c23c03e0de2ecb8122803d3c6")


# (rfft, irfft) calls of a run of s steps in blocks of b steps
FFT_CALLS = {
    "sublinear-global": (lambda s, b: 1 + s, lambda s, b: s + -(-s // b)),
    "linear-noise": (lambda s, b: 1, lambda s, b: -(-s // b)),
    "cubic-conservative": (lambda s, b: 1 + s, lambda s, b: s),
    "heat": (lambda s, b: 1, lambda s, b: -(-s // b)),
}


@pytest.mark.parametrize(
    "name, width", [(name, 1) for name in FFT_CALLS]
    + [(name, 8) for name in FFT_CALLS],
    ids=list(FFT_CALLS) + [f"{name}-8-rows" for name in FFT_CALLS])
def test_fft_calls_per_step(name, width, monkeypatch):
    # per step of the batch: one rfft takes f(u) and g(u) dW together and
    # one irfft gives the new state; a map g adds one irfft per block of b
    # steps; without a flux and with g constant or absent a step reads no
    # grid, and one irfft gives the states of a whole block.  A lone row
    # takes blocks of _block_steps(1) steps, 8 rows blocks of 16; 200 steps
    # end in a short block either way.  The kernel's transforms go through
    # sim's helpers, all but the initial state's rfft, which goes through
    # np.fft
    calls = {"rfft": 0, "irfft": 0}

    def counted(fn, kind):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, prefix in ((np.fft, ""), (sim, "_")):
        for kind in calls:
            fn = getattr(module, prefix + kind)
            monkeypatch.setattr(module, prefix + kind, counted(fn, kind))
    cfg = presets.SIM_PRESETS[name]()
    steps = 200
    block = sim._block_steps(width)
    assert block == (sim.RNG_BLOCK if width == 8 else sim._block_steps(1))
    assert steps % block and steps > block
    ens = sim._integrate(replace(cfg, t_end=steps * cfg.dt),
                         range(cfg.seed, cfg.seed + width), 2)
    assert ens.steps.tolist() == [steps] * width
    rfft, irfft = FFT_CALLS[name]
    assert calls == {"rfft": rfft(steps, block), "irfft": irfft(steps, block)}


def test_block_steps_follow_the_batch_width():
    # the least 16 * 2^j steps with at least 128 row-steps per block
    got = {rows: sim._block_steps(rows) for rows in (1, 2, 3, 4, 7, 8, 200)}
    assert got == {1: 128, 2: 64, 3: 64, 4: 32, 7: 32, 8: 16, 200: 16}
    assert sim.RNG_BLOCK == 16


def every_other_row(buffer_of):
    """A view that skips every other row of a larger buffer (every other
    entry of a lone row): buffer_of(shape) makes the buffer."""
    def view(lead, core):
        if not lead:
            return buffer_of((2 * core,))[::2]
        shape = lead[:-1] + (2 * lead[-1] + 1, core)
        return buffer_of(shape)[..., 1::2, :]
    return view


@pytest.mark.parametrize("n", [8, 64, 128])
@pytest.mark.parametrize("lead", [(), (17,), (2, 17), (16, 200)],
                         ids=["row", "rows", "stack", "block"])
def test_fft_helpers_match_numpy(n, lead):
    # sim's helpers call numpy's pocketfft gufuncs straight into out: the
    # bits of np.fft with norm="forward", on contiguous arrays and on views
    # into larger buffers, read and written
    rng = np.random.default_rng(n)
    nh = n // 2 + 1
    real = every_other_row(rng.standard_normal)
    cplx = every_other_row(lambda shape: rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
    empty = every_other_row(lambda shape: np.full(shape, np.nan))
    empty_c = every_other_row(lambda shape: np.full(shape, np.nan + 0j))
    grids, hats = real(lead, n), cplx(lead, nh)
    for x, h in ((grids, hats), (grids.copy(), hats.copy())):
        for out in (empty_c(lead, nh), np.empty(lead + (nh,), complex)):
            assert sim._rfft(x, out) is out
            assert out.tobytes() == np.fft.rfft(x, norm="forward").tobytes()
        for out in (empty(lead, n), np.empty(lead + (n,))):
            assert sim._irfft(h, out) is out
            assert out.tobytes() == \
                np.fft.irfft(h, n=n, norm="forward").tobytes()


# --- the batched kernel -----------------------------------------------------------


def csv_bytes(traj, path):
    save_trajectory_csv(traj, path)
    return path.read_bytes()


@pytest.mark.parametrize("flux", [lambda y: y ** 3, presets.cubic_flux],
                         ids=["pow", "cubic_flux"])
def test_batch_width_invariance(flux, tmp_path):
    # path i has the same CSV bytes and stats alone, among 17 and among 200;
    # the cap and g = 3|y|^2 make about a fifth of the paths blow up
    cfg = SimConfig(grid=TorusGrid(32),
                    nonlinearity=NonlinearitySpec(
                        f=flux, g=lambda y: 3 * np.abs(y) ** 2),
                    noise=NoiseSpec(lam=0.75, modes=5), t_end=0.5,
                    dt=1 / 64, u0=np.cos, blowup_cap=50.0)
    seeds = [1000 + 7 * i for i in range(200)]
    wide = sim._integrate(cfg, seeds)
    narrow = sim._integrate(cfg, seeds[:17])
    assert 0 < sum(not t.completed for t in wide) < 200
    assert sum(not t.completed for t in narrow) > 0
    for i, seed in enumerate(seeds):
        lone = simulate_path(replace(cfg, seed=seed))
        want = csv_bytes(lone, tmp_path / "lone.csv")
        runs = [wide[i]] + ([narrow[i]] if i < 17 else [])
        for traj in runs:
            assert traj.config.seed == seed
            assert csv_bytes(traj, tmp_path / "batch.csv") == want
            assert traj.stats == lone.stats
            assert (traj.status, traj.sigma_hat) == \
                (lone.status, lone.sigma_hat)


@pytest.mark.parametrize("preset", [presets.heat, presets.linear_noise,
                                    presets.sublinear_global],
                         ids=["heat", "linear-noise", "sublinear-global"])
def test_no_seed_gives_an_empty_record(preset):
    # it died in blown_up's reduction over a (0, n) state
    cfg = preset()
    ens = sim._integrate(cfg, [], 3)
    one = sim._integrate(cfg, [cfg.seed], 3)
    assert len(ens) == 0 and ens[:] == [] and ens.seeds == ()
    assert ens.times.tobytes() == one.times.tobytes()
    assert ens.states.shape == (0,) + one.states.shape[1:]
    assert ens.stats.shape == (4, 0)
    assert ens.kept.shape == ens.steps.shape == ens.sigma_hat.shape == (0,)
    for name in ("states", "kept", "steps", "sigma_hat", "stats"):
        assert getattr(ens, name).dtype == getattr(one, name).dtype, name


def test_blowup_sites_set_sigma_hat():
    # the same noise paths, stopped by a flux that is not finite past 0.5
    # (start of the step: sigma_hat = t, the state at t is kept) or by a cap
    # of 0.5 (end of the step: sigma_hat = t + dt, the state is dropped)
    dt = 0.01
    flux = SimConfig(grid=TorusGrid(32), nonlinearity=NonlinearitySpec(
        f=lambda y: np.where(np.abs(y) > 0.5, np.inf, 0.0), g=1.0),
        noise=NoiseSpec(lam=0.75, modes=5), t_end=0.5, dt=dt, u0=None)
    capped = replace(flux, nonlinearity=NonlinearitySpec(g=1.0),
                     blowup_cap=0.5)
    at_flux = sim._integrate(flux, range(24))
    at_cap = sim._integrate(capped, range(24))
    blown = [i for i, t in enumerate(at_flux) if not t.completed]
    assert 0 < len(blown) < 24
    for i, (a, b) in enumerate(zip(at_flux, at_cap)):
        assert a.status == b.status
        if a.completed:
            continue
        steps = a.stats.steps_taken
        assert a.sigma_hat == steps * dt == a.times[-1]
        assert np.abs(a.states[-1]).max() > 0.5
        assert np.abs(a.states[:-1]).max() <= 0.5
        assert b.stats.steps_taken == steps - 1
        assert b.sigma_hat == (b.stats.steps_taken + 1) * dt
        assert b.sigma_hat == a.sigma_hat
        assert b.times[-1] == b.stats.steps_taken * dt
        assert np.array_equal(b.states, a.states[:-1])


def test_paths_share_no_state_memory():
    # a batch's states are never shared between paths, also where a path
    # blew up and keeps only a prefix of the snapshots: overwriting one
    # path's states leaves every other path's as it was
    cfg = SimConfig(grid=TorusGrid(32), nonlinearity=NonlinearitySpec(g=1.0),
                    noise=NoiseSpec(lam=0.75, modes=5), t_end=0.5, dt=0.01,
                    u0=None, blowup_cap=0.5)
    trajs = sim._integrate(cfg, range(8))
    assert {t.status for t in trajs} == {"completed", "blew_up"}
    for i, a in enumerate(trajs):
        assert a.states.shape == (a.times.size, 32)
        for b in trajs[i + 1:]:
            assert not np.shares_memory(a.states, b.states)
    before = [t.states.copy() for t in trajs]
    trajs[0].states[:] = np.nan
    for t, want in zip(trajs[1:], before[1:]):
        assert np.array_equal(t.states, want)


def edge_flux(y):
    return np.where(np.abs(y) > 0.6, np.inf, 0.5 * y * y * y)


def half_cubic(y):
    return 0.5 * y * y * y


EDGE_SEEDS = [12, 48, 68, 16, 36, 273, 203, 0, 7]
# (seed, steps_taken, sigma_hat, sup_l2_sq, grad_integral, final_l2_sq),
# recorded with a kernel that folds the stats into them after every step
EDGE_AT_FLUX = [
    (12, 15, 0.15, 0.6957970308602283, 0.05669399077298969, 0.6957970308602283),
    (48, 16, 0.16, 0.6590653073623912, 0.10195985702330548, 0.6590653073623912),
    (68, 17, 0.17, 0.7007410242473652, 0.07674332184706191, 0.7007410242473652),
    (16, 18, 0.18, 0.8048046194821312, 0.13343678325052927, 0.8048046194821312),
    (36, 31, 0.31, 0.807654719671461, 0.20390871962816853, 0.807654719671461),
    (273, 32, 0.32, 0.7002461929569085, 0.29068430416528757, 0.3785946159280991),
    (203, 33, 0.33, 0.8060916697989122, 0.23341385254326463, 0.5333040870142185),
    (0, 40, 0.4, 0.6551698042313109, 0.23029035429224895, 0.0865458430062021),
    (7, 40, 0.4, 0.5730445886249678, 0.41573402835374906, 0.45409962314201174),
]
EDGE_AT_CAP = [
    (12, 14, 0.15, 0.5750845748345712, 0.04977801205883538, 0.5750845748345712),
    (48, 15, 0.16, 0.4146179679272289, 0.08535278691195354, 0.3908504606423651),
    (68, 16, 0.17, 0.5792351446333911, 0.07084345006967095, 0.5792351446333911),
    (16, 17, 0.18, 0.5158451574248509, 0.124634794637975, 0.4064548422320137),
    (36, 30, 0.31, 0.6289598232642518, 0.19138924423305056, 0.6289598232642518),
    (273, 31, 0.32, 0.7002461929569085, 0.28265428315313396, 0.3165874757998349),
    (203, 32, 0.33, 0.8060916697989122, 0.21685795704013525, 0.5102306650041628),
    (0, 40, 0.4, 0.6551698042313109, 0.23029035429224895, 0.0865458430062021),
    (7, 40, 0.4, 0.5730445886249678, 0.41573402835374906, 0.45409962314201174),
]


def edge_config(site):
    """(config, pinned rows): rows leave by a flux that is not finite past
    0.6 (start of the step) or by a cap of 0.6 (end of the step)."""
    base = dict(grid=TorusGrid(32), noise=NoiseSpec(lam=0.75, modes=5),
                t_end=0.4, dt=0.01, u0=None)
    if site == "flux":
        return SimConfig(nonlinearity=NonlinearitySpec(
            f=edge_flux, g=presets.one_plus_abs), **base), EDGE_AT_FLUX
    return SimConfig(nonlinearity=NonlinearitySpec(
        f=half_cubic, g=presets.one_plus_abs), blowup_cap=0.6, **base), \
        EDGE_AT_CAP


@pytest.mark.parametrize("site", ["flux", "cap"])
def test_path_stats_at_block_edges(site):
    # rows blow up at steps 15, 16, 17, 31 and 32, on both sides of the
    # 16-step blocks in which the kernel folds its stats, at the start or
    # at the end of the step; two rows complete the 40 steps
    cfg, want = edge_config(site)
    trajs = sim._integrate(cfg, EDGE_SEEDS)
    assert {15, 16, 17, 31, 32} <= {t.stats.steps_taken for t in trajs}
    for traj, (seed, steps, sigma_hat, sup, grad, final) in zip(trajs, want):
        st = traj.stats
        assert traj.config.seed == seed
        assert traj.completed == (steps == 40)
        assert (st.steps_taken, traj.sigma_hat) == (steps, sigma_hat)
        assert (st.sup_l2_sq, st.grad_integral, st.final_l2_sq) == \
            (sup, grad, final)
        lone = simulate_path(replace(cfg, seed=seed))
        assert traj.stats == lone.stats
        assert (traj.status, traj.sigma_hat) == (lone.status, lone.sigma_hat)
        assert np.array_equal(traj.times, lone.times)
        assert np.array_equal(traj.states, lone.states)


def sparse_saves(*cases, saves=(None, 6, 14)):
    """Parameters (case, n_save) of a 40-step run: each (id, case) at every
    state, under its own id, and at the other saves.  6 saves land on the
    block edges 16 and 32, and 14 on steps 15, 31 and 37, where rows blow
    up."""
    return [pytest.param(case, n_save, id=name if n_save is None
                         else f"{name}-n_save{n_save}")
            for name, case in cases for n_save in saves]


def assert_saves_of_every_state(ens, every, n_save):
    """Each row of ens is every's row, a run that saved every state, at
    the save steps of n_save up to its kept ones, and NaN after them."""
    save_idx = sim._save_indices(40, n_save)
    assert ens.times.tobytes() == every.times[save_idx].tobytes()
    assert ens.kept.tolist() == \
        save_idx.searchsorted(every.steps, side="right").tolist()
    for p, kept in enumerate(ens.kept):
        assert ens.states[p, :kept].tobytes() == \
            every.states[p, save_idx[:kept]].tobytes()
        assert np.isnan(ens.states[p, kept:]).all()


@pytest.mark.parametrize("site, n_save",
                         sparse_saves(("flux", "flux"), ("cap", "cap")))
def test_block_length_keeps_rows_bytes(site, n_save):
    # batches of 1, 2, 4 and 8 rows take blocks of 128, 64, 32 and 16
    # steps, so the 40 steps are one block, one block, 32 + 8 and 16 + 16
    # + 8, with rows leaving on both sides of each edge (the 9 seeds split
    # into batches of the width and one of the rows left): every row has
    # its pinned stats and the states and times of the 9-row run, which
    # are those of the run that saves every state at the save steps
    cfg, want = edge_config(site)
    ref = sim._integrate(cfg, EDGE_SEEDS, n_save)
    assert_saves_of_every_state(ref, sim._integrate(cfg, EDGE_SEEDS), n_save)
    for width, block in ((1, 128), (2, 64), (4, 32), (8, 16)):
        assert sim._block_steps(width) == block
        got = []
        for lo in range(0, len(EDGE_SEEDS), width):
            got += sim._integrate(cfg, EDGE_SEEDS[lo:lo + width], n_save)[:]
        for traj, lone, row in zip(got, ref, want):
            st = traj.stats
            assert (traj.config.seed, st.steps_taken, traj.sigma_hat,
                    st.sup_l2_sq, st.grad_integral, st.final_l2_sq) == row
            assert st == lone.stats
            assert (traj.status, traj.sigma_hat) == \
                (lone.status, lone.sigma_hat)
            assert traj.times.tobytes() == lone.times.tobytes()
            assert traj.states.tobytes() == lone.states.tobytes()


def edge_noise(y):
    return np.where(np.abs(y) > 0.6, np.inf, 1.0 + np.abs(y))


@pytest.mark.parametrize("f, g", [(edge_flux, presets.one_plus_abs),
                                  (half_cubic, edge_noise),
                                  (edge_flux, edge_noise)],
                         ids=["flux", "map_g", "both"])
def test_start_of_step_blowup_warns_nothing(f, g):
    # f(u) or g(u) turns non-finite past 0.6 where the other keeps the
    # values of the flux site above, so the same rows leave at the same
    # steps: the start-of-step test runs before any arithmetic reaches a
    # non-finite grid (inf * 0 would warn)
    cfg = SimConfig(grid=TorusGrid(32),
                    nonlinearity=NonlinearitySpec(f=f, g=g),
                    noise=NoiseSpec(lam=0.75, modes=5), t_end=0.4, dt=0.01,
                    u0=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajs = sim._integrate(cfg, EDGE_SEEDS)
    got = [(t.config.seed, t.stats.steps_taken, t.sigma_hat,
            t.stats.sup_l2_sq, t.stats.grad_integral, t.stats.final_l2_sq)
           for t in trajs]
    assert got == EDGE_AT_FLUX


def test_reads_grid_follows_the_config():
    reads = {name: SpectralStepper(make()).reads_grid
             for name, make in presets.SIM_PRESETS.items()}
    assert reads == {"heat": False, "linear-noise": False,
                     "cubic-conservative": True, "sublinear-global": True}
    assert not SpectralStepper(presets.regularity_ensemble().base).reads_grid


def digest(states):
    return hashlib.sha256(states.tobytes()).hexdigest()[:16]


# a constant g steps in spectral space a block at a time: 16 steps among 17
# or 200 rows, all 40 steps for a lone row.  The cap of 0.6 trips rows at
# steps 15, 16, 17, 31, 32 and 37 (in the last 16-step block, which is 8
# steps short) and two rows complete the 40 steps.  (seed, status,
# steps_taken, sigma_hat, sup_l2_sq, grad_integral, final_l2_sq, digest of
# the states), recorded with a kernel that takes one step at a time
GRID_FREE_CAP = [
    (13, "blew_up", 15, 0.16, 0.4519335938447589, 0.07242289506717121,
     0.4519335938447589, "5452fdeae40c8f68"),
    (74, "blew_up", 16, 0.17, 0.727262081193799, 0.07384668348073087,
     0.727262081193799, "ead69930bef9c2ed"),
    (6, "blew_up", 17, 0.18, 0.41562802764658374, 0.07874369798319268,
     0.41562802764658374, "66de30f5d226a8e5"),
    (73, "blew_up", 31, 0.32, 0.9543308414769193, 0.16754640002086194,
     0.9543308414769193, "ee9257da562009a7"),
    (163, "blew_up", 32, 0.33, 0.8377400632105889, 0.14142195116422468,
     0.4248498625819616, "1475dcc6826a4f7c"),
    (87, "blew_up", 37, 0.38, 0.43660555700964376, 0.2442596190678169,
     0.4166354159865134, "b395eb64af4af048"),
    (0, "completed", 40, 0.4, 0.5520421313243217, 0.2052957083049619,
     0.1349435631855125, "5a11e1928e45c009"),
    (5, "completed", 40, 0.4, 0.7238619821521041, 0.15262764971382436,
     0.29473995399081676, "ac3d5add856cca44"),
]

def grid_free_capped():
    return SimConfig(grid=TorusGrid(32), nonlinearity=NonlinearitySpec(g=1.0),
                     noise=NoiseSpec(lam=0.75, modes=5), t_end=0.4, dt=0.01,
                     u0=None, blowup_cap=0.6)


def pinned(traj):
    st = traj.stats
    return (traj.status, st.steps_taken, traj.sigma_hat, st.sup_l2_sq,
            st.grad_integral, st.final_l2_sq, digest(traj.states))


def test_grid_free_blowup_at_block_edges():
    # each row has the pinned bytes alone, among 17 and among 200 paths,
    # whichever blocks of its neighbours are taken again step by step
    cfg = grid_free_capped()
    assert not SpectralStepper(cfg).reads_grid
    first = [row[0] for row in GRID_FREE_CAP]
    seeds = first + [s for s in range(300) if s not in first][:200 - 8]
    wide = sim._integrate(cfg, seeds)
    narrow = sim._integrate(cfg, seeds[:17])
    assert 0 < sum(not t.completed for t in narrow) < 17
    for i, seed in enumerate(seeds):
        lone = simulate_path(replace(cfg, seed=seed))
        if i < len(GRID_FREE_CAP):
            assert (seed,) + pinned(lone) == GRID_FREE_CAP[i]
        assert np.array_equal(lone.times,
                              np.arange(lone.stats.steps_taken + 1) * cfg.dt)
        for traj in [wide[i]] + ([narrow[i]] if i < 17 else []):
            assert traj.config.seed == seed
            assert pinned(traj) == pinned(lone)
            assert traj.times.tobytes() == lone.times.tobytes()


# common noise: each config run at f times its step on its fine stream's
# draws summed in groups of f.  (blown-up rows, one sha256 over the states,
# times, status, sigma_hat and stats of seeds 0..16), recorded on one-row
# runs fed a table of the stream's draws, summed in groups of f and divided
# by sqrt(f).  Capped at 1.8, sublinear-global loses 7 rows; the grid-free
# config, whose blocks are taken again step by step when a row passes its
# cap, loses 8 or 9
SUBSTEP_PINS = {
    ("sublinear", 2): (0, "1694cd55c64505c7"),
    ("sublinear", 3): (0, "8de50a6a69260f12"),
    ("sublinear", 4): (0, "6304d5bd4db2ae93"),
    ("sublinear_capped", 2): (7, "433d2ebcf1f1d22c"),
    ("sublinear_capped", 3): (7, "f6ac959a942e58d4"),
    ("sublinear_capped", 4): (7, "fed9d795f9bd168e"),
    ("grid_free", 2): (9, "b4c26542651f152e"),
    ("grid_free", 3): (9, "f775228a9b038b04"),
    ("grid_free", 4): (8, "9cad543e459d6000"),
}


def substep_config(name):
    """A fine config whose step count 2, 3 and 4 divide."""
    if name == "grid_free":
        return replace(grid_free_capped(), t_end=0.24, dt=0.0025)
    cfg = replace(presets.sublinear_global(), t_end=0.48)
    return replace(cfg, blowup_cap=1.8) if name == "sublinear_capped" else cfg


def substep_pin(trajs):
    h = hashlib.sha256()
    for t in trajs:
        st = t.stats
        h.update(t.states.tobytes())
        h.update(t.times.tobytes())
        h.update(repr((t.status, t.sigma_hat, st.initial_l2_sq, st.sup_l2_sq,
                       st.grad_integral, st.final_l2_sq,
                       st.steps_taken)).encode())
    return sum(not t.completed for t in trajs), h.hexdigest()[:16]


@pytest.mark.parametrize("name, f", sorted(SUBSTEP_PINS),
                         ids=lambda v: str(v))
def test_common_noise_substeps_pinned(name, f):
    # the pins hold for each row alone, among 17 and among 200 paths
    fine = substep_config(name)
    cfg = replace(fine, dt=f * fine.dt)
    lone = [sim._integrate(cfg, [seed], None, substeps=f)[0]
            for seed in range(17)]
    narrow = sim._integrate(cfg, range(17), None, substeps=f)
    wide = sim._integrate(cfg, range(200), None, substeps=f)
    for trajs in (lone, narrow, wide[:17]):
        assert substep_pin(trajs) == SUBSTEP_PINS[name, f]


def signed_zero_table():
    """A draw table holding exact +0.0 and -0.0 cosine and sine draws."""
    table = np.random.default_rng(31).standard_normal((40, 11))
    table[::2, 1:6] = -0.0
    table[1::4, 1:6] = 0.0
    table[::3, 6:] = -0.0
    table[1::3, 6:] = 0.0
    table[7:10] = -0.0
    table[20:22] = 0.0
    return table


# digest of noise_increments of the whole table, recorded with a kernel
# whose runs took the same bits from it as those of a kernel that built the
# noise from complex temporaries: every part that comes out zero is +0.0,
# whatever the sign of its draw
SIGNED_ZERO_NOISE = [
    (1.0, "13c4736fd53cd503"),
    (presets.one_plus_abs, "3c4806953d4714ff"),
]


@pytest.mark.parametrize("g, want", SIGNED_ZERO_NOISE,
                         ids=["const_g", "map_g"])
def test_signed_zero_draws_pinned(g, want):
    cfg = SimConfig(grid=TorusGrid(32), nonlinearity=NonlinearitySpec(g=g),
                    noise=NoiseSpec(lam=0.75, modes=5), t_end=0.4, dt=0.01,
                    u0=np.cos)
    noise = SpectralStepper(cfg).noise_increments(signed_zero_table())
    assert digest(noise) == want


def mixed_flux(y):
    return np.where(np.abs(y) > 0.6, np.inf, 0.5 * y * y * y)


# a flux that is not finite past 0.6 and a cap of 0.75: a row whose state
# lands in (0.6, 0.75] leaves at the start of its next step (sigma_hat =
# steps * dt), one that jumps past 0.75 at the cap (sigma_hat = (steps + 1)
# * dt).  Seeds 2 and 43, 3 and 13, 20 and 26, 44 and 69, 170 and 186 leave
# at the same step by the two sites, in each of the three blocks; 12 and 48
# leave by the flux at steps 15 and 16; 0 and 7 complete the 40 steps.
# (seed, status, steps_taken, sigma_hat, sup_l2_sq, grad_integral,
# final_l2_sq, digest of the states), recorded with a kernel that wrote out
# each compaction site by hand.
MIXED_SITES = [
    (2, "blew_up", 13, 0.14, 0.3587316460522252, 0.03637033685280263,
     0.3587316460522252, "e2635065b4e21225"),
    (43, "blew_up", 13, 0.13, 0.4963055535737241, 0.06408313896223986,
     0.4569095502013218, "49caae3b9d2f51d3"),
    (3, "blew_up", 10, 0.11, 0.47186187903611454, 0.053006592750555456,
     0.47186187903611454, "57c52aa102d4c965"),
    (13, "blew_up", 10, 0.1, 0.4864166579969615, 0.05285744671834497,
     0.45170467696933814, "7af893883e3621e2"),
    (12, "blew_up", 15, 0.15, 0.6957970308602283, 0.05669399077298969,
     0.6957970308602283, "8e89f93f90fb3ab8"),
    (48, "blew_up", 16, 0.16, 0.6590653073623912, 0.10195985702330548,
     0.6590653073623912, "38256d802b328d75"),
    (20, "blew_up", 27, 0.28, 0.644319572175215, 0.22982542304335465,
     0.5365140167134135, "530b43de9134e52c"),
    (26, "blew_up", 27, 0.27, 0.919193489549371, 0.17227697558277022,
     0.8480850984437236, "d56ccaa864702832"),
    (21, "blew_up", 19, 0.2, 0.6186143569640816, 0.14079453500007671,
     0.5658267458940134, "3c311e0cfa1fccd8"),
    (44, "blew_up", 37, 0.38, 0.542403608856557, 0.2759903970225882,
     0.38826681015382347, "15a09a05c35e9481"),
    (69, "blew_up", 37, 0.37, 0.7689487936035861, 0.142850133855125,
     0.7689487936035861, "191598666f679471"),
    (170, "blew_up", 34, 0.35000000000000003, 0.5566872310786092,
     0.14412685690859542, 0.5566872310786092, "043465109a59e41b"),
    (186, "blew_up", 34, 0.34, 0.9411738122081573, 0.2827871089672792,
     0.8980026715058809, "5ded80c52d0d478f"),
    (0, "completed", 40, 0.4, 0.6551698042313109, 0.23029035429224895,
     0.0865458430062021, "32f208476c9ad347"),
    (7, "completed", 40, 0.4, 0.5730445886249678, 0.41573402835374906,
     0.45409962314201174, "a605dabd47e1aad2"),
]


def mixed_sites():
    return SimConfig(grid=TorusGrid(32), nonlinearity=NonlinearitySpec(
        f=mixed_flux, g=presets.one_plus_abs),
        noise=NoiseSpec(lam=0.75, modes=5), t_end=0.4, dt=0.01, u0=None,
        blowup_cap=0.75)


def test_mixed_blowup_sites_in_one_batch():
    cfg = mixed_sites()
    seeds = [row[0] for row in MIXED_SITES]
    trajs = sim._integrate(cfg, seeds)
    for traj, row in zip(trajs, MIXED_SITES):
        assert (traj.config.seed,) + pinned(traj) == row
        # a row that leaves at the start of a step keeps the state on which
        # the flux is not finite; one that leaves at the cap keeps none
        at_start = traj.sigma_hat == traj.stats.steps_taken * cfg.dt
        assert (np.abs(traj.states[-1]).max() > 0.6) == \
            (at_start and not traj.completed)
        lone = simulate_path(replace(cfg, seed=row[0]))
        assert pinned(lone) == pinned(traj)
        assert lone.stats == traj.stats
        assert traj.times.tobytes() == lone.times.tobytes()
    sites = {(t.sigma_hat == t.stats.steps_taken * cfg.dt)
             for t in trajs if not t.completed}
    assert sites == {True, False}


@pytest.mark.parametrize("make", [mixed_sites, grid_free_capped],
                         ids=["reads_grid", "grid_free"])
def test_path_scalars_are_python_numbers(make):
    # summary.json is written with json.dumps: a path's step count and
    # sigma_hat must be a Python int and float whether it completed or not
    trajs = sim._integrate(make(), range(12))
    assert {t.status for t in trajs} == {"completed", "blew_up"}
    for traj in trajs:
        assert type(traj.stats.steps_taken) is int
        assert type(traj.sigma_hat) is float
        for name in ("initial_l2_sq", "sup_l2_sq", "grad_integral",
                     "final_l2_sq"):
            assert type(getattr(traj.stats, name)) is float


# --- the ensemble record ----------------------------------------------------------


def stillborn():
    """mixed_sites() with initial data past its cap: every path blows up in
    its initial state."""
    return replace(mixed_sites(), u0=1.0)


def same_path(a, b):
    """a and b are the same path, bit for bit."""
    return (a.config == b.config and a.status == b.status
            and a.sigma_hat == b.sigma_hat and a.stats == b.stats
            and a.times.tobytes() == b.times.tobytes()
            and a.states.tobytes() == b.states.tobytes())


@pytest.mark.parametrize("make, n_save", sparse_saves(
    ("start_and_cap", mixed_sites), ("grid_free_cap", grid_free_capped),
    ("initial", stillborn)))
def test_record_rows_are_lone_paths(make, n_save):
    # blow-ups at the start of a step and at the cap (reads_grid), at the
    # cap inside a block taken again step by step (grid_free), and in the
    # initial state: row p of a record of width 1, 17 or 200 is its seed's
    # lone run at n_save, and its states past the kept ones are NaN; the
    # kept ones are those of the record that saves every state
    cfg = make()
    seeds = [row[0] for row in MIXED_SITES]
    seeds += [s for s in range(300) if s not in seeds][:200 - len(seeds)]
    lone = [simulate_path(replace(cfg, seed=s), n_save) for s in seeds]
    size = sim._save_indices(cfg.n_steps, n_save).size
    sites = {"completed" if t.completed else
             "initial" if t.stats.steps_taken == 0 and t.sigma_hat == 0.0
             else "start" if t.sigma_hat == t.stats.steps_taken * cfg.dt
             else "cap" for t in lone}
    assert sites == {"mixed_sites": {"completed", "start", "cap"},
                     "grid_free_capped": {"completed", "cap"},
                     "stillborn": {"initial"}}[make.__name__]
    for width in (1, 17, 200):
        ens = sim._integrate(cfg, seeds[:width], n_save)
        assert len(ens) == width and ens.seeds == tuple(seeds[:width])
        assert ens.states.shape == (width, size, 32)
        assert ens.stats.shape == (4, width)
        assert ens.kept.tolist() == [t.times.size for t in lone[:width]]
        assert ens.steps.tolist() == \
            [t.stats.steps_taken for t in lone[:width]]
        for p in range(width):
            assert same_path(ens[p], lone[p])
            assert np.isnan(ens.states[p, ens.kept[p]:]).all()
        assert same_path(ens[-1], lone[width - 1])
        assert all(map(same_path, ens[1::3], lone[1:width:3]))
        assert_saves_of_every_state(ens, sim._integrate(cfg, seeds[:width]),
                                    n_save)


@pytest.mark.parametrize("make, n_save", sparse_saves(
    ("start_and_cap", mixed_sites),
    ("semi_implicit", lambda: replace(mixed_sites(), scheme="semi_implicit")),
    ("grid_free_cap", grid_free_capped), saves=(None, 14)))
def test_ito_defects_leave_paths_and_rows_alone(make, n_save):
    # with the Ito defects on, every path keeps its bits, and a row's
    # defects are its lone run's bit for bit among 17 rows that blow up at
    # the start of a step and at the cap; entries past a row's steps stay.
    # The fold saves and takes the defects together: at 14 saves the
    # defects are those of the run that saves every state
    cfg = make()
    seeds = [row[0] for row in MIXED_SITES]
    seeds = (seeds + [s for s in range(300) if s not in seeds])[:17]
    plain = sim._integrate(cfg, seeds, n_save)
    found = np.full((17, cfg.n_steps), np.nan)
    ens = sim._integrate(cfg, seeds, n_save, ito_defect=found)
    assert {t.status for t in plain} == {"completed", "blew_up"}
    every = np.full((17, cfg.n_steps), np.nan)
    sim._integrate(cfg, seeds, ito_defect=every)
    assert found.tobytes() == every.tobytes()
    for p, seed in enumerate(seeds):
        assert same_path(ens[p], plain[p])
        lone = np.full(cfg.n_steps, np.nan)
        assert same_path(simulate_path(replace(cfg, seed=seed), n_save,
                                       ito_defect=lone), plain[p])
        assert found[p].tobytes() == lone.tobytes()
        taken = int(plain.steps[p])
        assert np.isfinite(lone[:taken]).all()
        assert np.isnan(lone[taken:]).all()


def test_record_holds_python_seeds_and_checks_them_first():
    cfg = mixed_sites()
    ens = sim._integrate(cfg, [np.int64(2), 43], n_save=9)
    assert ens.seeds == (2, 43) and all(type(s) is int for s in ens.seeds)
    assert ens.times.tolist() == (np.arange(0, 41, 5) * cfg.dt).tolist()
    assert ens.kept.tolist() == [3, 3] and ens.steps.tolist() == [13, 13]
    assert np.isnan(ens.states[:, 3:]).all()
    assert not np.isnan(ens.states[:, :3]).any()
    with pytest.raises(IndexError):
        ens[2]
    with pytest.raises(ParameterError, match="seed must be an integer"):
        sim._integrate(cfg, [0, 1.5])
