import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import critspde
from critspde import presets
from critspde.exponents import (
    GrowthSpec,
    GrowthTerm,
    ParameterError,
    Setting,
    SobolevScale,
    full_report,
    one_d_growth_params,
)
from critspde.harness import mix_seed
from critspde.monitors import (
    HoelderFit,
    MonitorSeries,
    XNormValue,
    _row_medians,
    blowup_functional,
    h_minus1_flux_norm,
    hoelder_estimate,
    hs_norm_G,
    ito_energy_residual,
    spatial_norm,
    x_space_norm,
)
from critspde.sim import (
    RNG_BLOCK,
    TWO_PI,
    NoiseSpec,
    NonlinearitySpec,
    PathStats,
    SimConfig,
    SpectralStepper,
    TorusGrid,
    Trajectory,
    _energy,
    _path_stream,
    _rfft,
    dealiased,
    drift_pairing,
    l2_norm_sq,
    simulate_path,
    spectral_weights,
)
from critspde.weights import PowerWeight, SampledFunction, weighted_lp_norm

H2 = SobolevScale(F(-1), F(1), F(2))
L2_SETTING = Setting(H2, F(2), F(0))
GRID = TorusGrid(64)


def heat_cfg(**kw):
    base = dict(grid=GRID, nonlinearity=NonlinearitySpec(),
                t_end=1.0, dt=1e-3, u0=np.cos)
    base.update(kw)
    return SimConfig(**base)


def additive_cfg(dt=1e-3, seed=0, n=64, t_end=1.0):
    return SimConfig(grid=TorusGrid(n), nonlinearity=NonlinearitySpec(g=1.0),
                     noise=NoiseSpec(lam=0.75, modes=21), t_end=t_end,
                     dt=dt, seed=seed, u0=None)


def constant_trajectory(values, cfg, n_times=5, t_end=1.0):
    times = np.linspace(0.0, t_end, n_times)
    states = np.tile(values, (n_times, 1))
    return Trajectory(times, states, PathStats(), "completed", t_end, cfg)


# --- Hilbert-Schmidt norm ------------------------------------------------------

def test_hs_norm_zero_and_constant():
    spec = NoiseSpec(lam=0.75, modes=4)
    u = np.cos(GRID.x)
    assert hs_norm_G(u, 0.0, spec) == 0.0
    assert hs_norm_G(u, None, spec) == 0.0
    assert hs_norm_G(u, None, None) == 0.0
    sig = spec.amplitudes()
    want = np.sqrt(sig[0] ** 2 + 2.0 * np.sum(sig[1:] ** 2))
    assert hs_norm_G(u, 1.0, spec) == pytest.approx(want, rel=1e-12)
    # independent of the state for constant g
    assert hs_norm_G(5 * u + 1, 1.0, spec) == pytest.approx(want, rel=1e-12)


def test_hs_norm_linear_scaling():
    spec = NoiseSpec(lam=0.75, modes=8)
    u = np.sin(3 * GRID.x) + 0.2
    a = hs_norm_G(u, lambda y: y, spec)
    b = hs_norm_G(3.0 * u, lambda y: y, spec)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_hs_norm_bounded_by_lq_norm():
    # density is constant, so hs <= sqrt(D) * ||u||_{L2} <= C ||u||_{L6}
    spec = NoiseSpec(lam=0.75, modes=21)
    sig = spec.amplitudes()
    density = sig[0] ** 2 / (2 * np.pi) + np.sum(sig[1:] ** 2) / np.pi
    c_chain = np.sqrt(density) * (2 * np.pi) ** (1 / 3)
    rng = np.random.default_rng(17)
    for _ in range(100):
        u_hat = np.zeros(33, dtype=complex)
        u_hat[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        u_hat[0] = u_hat[0].real
        u = np.fft.irfft(u_hat * 64, n=64)
        l6 = (2 * np.pi * np.mean(np.abs(u) ** 6)) ** (1 / 6)
        assert hs_norm_G(u, lambda y: y, spec) <= c_chain * l6 * (1 + 1e-12)


# --- spatial norms ---------------------------------------------------------------

def test_spatial_norm_single_mode():
    u = np.cos(3 * GRID.x)
    want = np.sqrt(np.pi) * 10.0 ** (1.0 / 6.0)
    assert spatial_norm(u, 1.0 / 3.0) == pytest.approx(want, rel=1e-12)
    assert spatial_norm(u, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)


def test_spatial_norm_lq_constant():
    u = np.full(64, 2.0)
    want = 2.0 * (2 * np.pi) ** 0.25
    assert spatial_norm(u, 0.0, q=4.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("q", [0.0, -1.0, 0.5, np.nan, np.inf])
def test_spatial_norm_rejects_q_outside_one_to_infinity(q):
    with pytest.raises(ParameterError, match="spatial norm needs 1 <= q < oo"):
        spatial_norm(np.cos(GRID.x), 0.0, q)


BLOCK_NORMS = {
    "spatial_q2": lambda u: spatial_norm(u, 1.0 / 3.0),
    "spatial_q6": lambda u: spatial_norm(u, 0.25, q=6.0),
    "flux_cubic": lambda u: h_minus1_flux_norm(u, presets.cubic_flux),
    "flux_none": lambda u: h_minus1_flux_norm(u, None),
    "hs_map": lambda u: hs_norm_G(u, presets.one_plus_abs, NoiseSpec()),
    "hs_const": lambda u: hs_norm_G(u, 2.0, NoiseSpec()),
}


@pytest.mark.parametrize("n", [64, 48])
@pytest.mark.parametrize("name", sorted(BLOCK_NORMS))
def test_norms_batch_invariance(name, n):
    # a (T, n) block gives the stacked one-state calls bit for bit, and one
    # state still gives a float
    norm = BLOCK_NORMS[name]
    rng = np.random.default_rng(29)
    block = rng.standard_normal((17, n)) * np.logspace(-2, 1, 17)[:, None]
    block[3] = 0.0
    rows = [norm(u) for u in block]
    assert all(isinstance(r, float) for r in rows)
    batch = norm(block)
    assert batch.shape == (17,)
    assert np.array_equal(batch, rows)


# The spellings the diagnostics used before they took the kernel's _rfft and
# _irfft: the reference their bytes are checked against
def np_fft_spatial_norm(values, smoothness, q):
    n = values.shape[-1]
    u_hat = np.fft.rfft(values) / n
    k = np.arange(n // 2 + 1, dtype=float)
    mult = (1.0 + k * k) ** (smoothness / 2.0)
    if q == 2.0:
        m_hat = mult * u_hat
        mode_sq = m_hat.real ** 2 + m_hat.imag ** 2
        return np.sqrt(2 * np.pi * np.vecdot(mode_sq, spectral_weights(n)))
    shifted = np.fft.irfft(mult * u_hat * n, n=n)
    power = 2 * np.pi * np.mean(np.abs(shifted) ** q, axis=-1, keepdims=True)
    return (power ** (1.0 / q))[..., 0]


def np_fft_flux_norm(values, f):
    n = values.shape[-1]
    f_hat = np.fft.rfft(f(values)) / n
    k = np.arange(n // 2 + 1, dtype=float)
    f_hat[..., ~dealiased(n)] = 0.0
    mode_sq = (k * k / (1.0 + k * k)) * (f_hat.real ** 2 + f_hat.imag ** 2)
    return np.sqrt(2 * np.pi * np.vecdot(mode_sq, spectral_weights(n)))


def np_fft_drift_pairing(values, f):
    n = values.size
    d_hat = 1j * np.arange(n // 2 + 1) * (np.fft.rfft(values) / n)
    d_hat[-1] = 0.0
    dudx = np.fft.irfft(d_hat * n, n=n)
    return 2 * np.pi * float(f(values) @ dudx) / n


def same_bytes(a, b):
    return np.asarray(a, dtype=float).tobytes() \
        == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("n", [8, 64, 128])
def test_diagnostic_spectra_match_numpy_fft(n):
    # bit for bit, signed zeros included: rounded states hold exact zeros
    rng = np.random.default_rng(n)
    for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
        for rounded in (False, True):
            block = scale * rng.standard_normal((5, n))
            if rounded:
                block = np.round(block)
            for values in (block, block[2]):
                for q, s in ((2.0, -1.0), (2.0, 1.0 / 3.0), (6.0, 0.25),
                             (6.0, 1.5)):
                    assert same_bytes(spatial_norm(values, s, q),
                                      np_fft_spatial_norm(values, s, q))
                for f in (presets.cubic_flux, np.sin):
                    assert same_bytes(h_minus1_flux_norm(values, f),
                                      np_fft_flux_norm(values, f))
            for u in block:
                for f in (presets.cubic_flux, np.sin):
                    assert same_bytes(drift_pairing(u, f),
                                      np_fft_drift_pairing(u, f))


@pytest.mark.parametrize("n", [9, 48, 63])
def test_diagnostic_spectra_take_any_grid_size(n):
    # a TorusGrid's n is a power of two, but the norms take any state; an
    # odd n needs pocketfft's odd-length rfft, and 1/n rounds, so only
    # the values are compared
    block = np.random.default_rng(n).standard_normal((4, n))
    for q in (2.0, 6.0):
        assert np.allclose(spatial_norm(block, 0.5, q),
                           np_fft_spatial_norm(block, 0.5, q),
                           rtol=1e-13, atol=0.0)
    assert np.allclose(h_minus1_flux_norm(block, np.sin),
                       np_fft_flux_norm(block, np.sin), rtol=1e-13, atol=0.0)
    assert np.isclose(drift_pairing(block[0], np.sin),
                      np_fft_drift_pairing(block[0], np.sin),
                      rtol=1e-12, atol=1e-15)


def test_flux_norm_linear_oracle():
    u = np.cos(GRID.x)
    assert h_minus1_flux_norm(u, lambda y: y) == pytest.approx(
        np.sqrt(np.pi / 2.0), rel=1e-12)
    assert h_minus1_flux_norm(u, None) == 0.0


# --- blow-up functional ----------------------------------------------------------

def test_blowup_functional_zero_path():
    cfg = heat_cfg(u0=None, nonlinearity=NonlinearitySpec(f=lambda y: y ** 3),
                   dt=0.05)
    traj = simulate_path(cfg)
    assert blowup_functional(traj, L2_SETTING, (0.0, 1.0)) == 0.0


def test_blowup_functional_monotone_and_finite():
    traj = simulate_path(additive_cfg(dt=1e-3, seed=3), n_save=201)
    vals = [blowup_functional(traj, L2_SETTING, (0.0, b))
            for b in (0.25, 0.5, 0.75, 1.0)]
    assert all(np.isfinite(v) for v in vals)
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_blowup_functional_weight_comparison():
    # (t-0)^1 <= T^1 pointwise, so the weighted value is bounded by the
    # unweighted one times T^{1/p}
    traj = simulate_path(additive_cfg(dt=1e-3, seed=5), n_save=201)
    s6 = Setting(H2, F(6), F(0))
    s6w = Setting(H2, F(6), F(1))
    v0 = blowup_functional(traj, s6, (0.0, 1.0))
    v1 = blowup_functional(traj, s6w, (0.0, 1.0))
    assert v1 <= v0 * 1.0 ** (1 / 6) * (1 + 1e-9)
    assert v1 > 0


def test_blowup_functional_window_guard():
    traj = simulate_path(heat_cfg(dt=0.05))
    with pytest.raises(ParameterError):
        blowup_functional(traj, L2_SETTING, (0.0, 1.5))
    with pytest.raises(ParameterError):
        blowup_functional(traj, L2_SETTING, (0.9, 0.2))


# --- continuation-class norms -----------------------------------------------------

def l2_report():
    return full_report(one_d_growth_params("l2_eps", eps=F(0)), L2_SETTING)


def test_x_space_norm_critical_entries():
    traj = simulate_path(heat_cfg(dt=0.05))
    out = x_space_norm(traj, l2_report(), (0.0, 1.0))
    assert len(out) == 4  # two terms, two slots each
    f_entries = [o for o in out if o.part == "f"]
    assert all(o.time_exponent == 6.0 for o in f_entries)
    assert all(o.smoothness == pytest.approx(1 / 3) for o in f_entries)
    # critical case: trace and interpolation slots coincide
    assert f_entries[0].value == pytest.approx(f_entries[1].value, rel=1e-12)


def test_x_space_norm_zero_path():
    cfg = heat_cfg(u0=None, dt=0.05)
    traj = simulate_path(cfg)
    out = x_space_norm(traj, l2_report(), (0.0, 1.0))
    assert all(o.value == 0.0 for o in out)


def test_x_space_norm_heat_closed_form():
    traj = simulate_path(heat_cfg(dt=1e-3))
    out = x_space_norm(traj, l2_report(), (0.0, 1.0))
    want = (np.pi ** 3 * 2.0 * (1.0 - np.exp(-6.0)) / 6.0) ** (1 / 6)
    assert out[0].value == pytest.approx(want, rel=1e-3)


def test_x_space_norm_monotone_in_endpoint():
    traj = simulate_path(additive_cfg(dt=1e-3, seed=7), n_save=201)
    a = x_space_norm(traj, l2_report(), (0.0, 0.5))
    b = x_space_norm(traj, l2_report(), (0.0, 1.0))
    assert all(x.value <= y.value + 1e-12 for x, y in zip(a, b))


def uncached_x_norms(traj, report, window, kappa):
    """x_space_norm's entries, each computed on its own."""
    grid = critspde.monitors._window_grid(traj, window)
    states = critspde.monitors._window_states(traj, grid)
    w = PowerWeight(float(kappa), offset=grid.a)
    out = []
    for term in report.exponents:
        for slot, entry in zip(("trace", "interp"), term.x_entries):
            s, q = float(entry.smoothness), float(entry.space_q)
            p_time = float(entry.time_exponent)
            series = spatial_norm(states, s, q)
            val = weighted_lp_norm(SampledFunction(grid, series), p_time, w)
            out.append(XNormValue(term.part, term.index, slot, p_time, s, q,
                                  float(val)))
    return out


def subcritical_report():
    # f0 and g0 share both entries, g1 has its own: 4 distinct of 6
    return full_report(GrowthSpec(
        f_terms=(GrowthTerm(F(1), F(3, 4), F(5, 8)),),
        g_terms=(GrowthTerm(F(1), F(3, 4), F(5, 8)),
                 GrowthTerm(F(1), F(2, 3), F(7, 12)))), L2_SETTING)


def mixed_report():
    # entries that differ in one of time exponent, q or smoothness only
    rep = l2_report()
    f, g = rep.exponents
    base = f.x_entries[0]
    entries = [replace(base, time_exponent=F(4)), replace(base, space_q=F(3)),
               replace(base, smoothness=F(1, 4)), base]
    return replace(rep, exponents=(replace(f, x_entries=tuple(entries[:2])),
                                   replace(g, x_entries=tuple(entries[2:]))))


@pytest.mark.parametrize("report, distinct", [(l2_report, 1),
                                              (subcritical_report, 4),
                                              (mixed_report, 4)],
                         ids=["l2_eps", "subcritical", "mixed"])
@pytest.mark.parametrize("kappa", [0.0, 0.25])
def test_x_space_norm_takes_each_distinct_entry_once(report, distinct, kappa,
                                                     monkeypatch):
    # the benchmark's report has four equal entries; a report whose
    # entries differ takes each distinct one once, and the list equals
    # the one computed entry by entry
    traj = simulate_path(additive_cfg(dt=1e-3, seed=7), n_save=201)
    rep = report()
    want = uncached_x_norms(traj, rep, (0.1, 1.0), kappa)
    assert len({(v.smoothness, v.space_q, v.time_exponent)
                for v in want}) == distinct
    calls = []
    norm = critspde.monitors.spatial_norm

    def counted(*args):
        calls.append(args[1:])
        return norm(*args)

    monkeypatch.setattr(critspde.monitors, "spatial_norm", counted)
    got = x_space_norm(traj, rep, (0.1, 1.0), kappa)
    assert got == want and len(calls) == distinct
    assert [v.value for v in got] == [v.value for v in want]


# --- growth-vs-continuation ratio --------------------------------------------------

def test_functional_ratio_bounded_and_grid_stable():
    growth = one_d_growth_params("l2_eps", eps=F(0))
    zeta = 3.0  # 1 + max growth power
    rng = np.random.default_rng(23)
    nl = NonlinearitySpec(f=lambda y: y ** 3, g=lambda y: y, growth=growth)
    ratios = []
    drifts = []
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-1.0, 1.2)
        u_hat = np.zeros(33, dtype=complex)
        u_hat[:11] = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        u_hat[0] = u_hat[0].real
        vals = {}
        for n in (64, 128):
            full = np.zeros(n // 2 + 1, dtype=complex)
            full[:33] = u_hat
            u = scale * np.fft.irfft(full * n, n=n)
            cfg = SimConfig(grid=TorusGrid(n), nonlinearity=nl,
                            noise=NoiseSpec(lam=0.75, modes=21),
                            t_end=1.0, dt=0.25, u0=u)
            traj = constant_trajectory(u, cfg)
            num = blowup_functional(traj, L2_SETTING, (0.0, 1.0))
            xn = max(o.value for o in
                     x_space_norm(traj, l2_report(), (0.0, 1.0)))
            vals[n] = num / (1.0 + xn + xn ** zeta)
        ratios.append(vals[64])
        drifts.append(abs(vals[128] - vals[64]) / vals[64])
    assert max(ratios) < 10.0
    assert max(drifts) <= 0.15


# --- Ito residual -------------------------------------------------------------------

def test_ito_residual_pure_heat():
    series = ito_energy_residual(simulate_path(heat_cfg(dt=0.05)))
    assert np.max(np.abs(series.values["residual"])) <= 1e-10


def test_ito_residual_conservative_drift():
    # with an x-independent flux the pairing term vanishes exactly; what is
    # left is the scheme's own dt^2 ||F||^2 per-step quadrature error, so the
    # cumulative residual is O(dt) and refines at first order
    def worst(dt):
        cfg = heat_cfg(nonlinearity=NonlinearitySpec(f=lambda y: y ** 3),
                       t_end=0.2, dt=dt)
        series = ito_energy_residual(simulate_path(cfg))
        return float(np.max(np.abs(series.values["residual"])))

    coarse = worst(1e-3)
    fine = worst(2.5e-4)
    assert coarse <= 1e-3
    assert fine / coarse == pytest.approx(0.25, abs=0.1)


def test_ito_residual_rms_scales_like_sqrt_dt():
    def rms_at(dt, n_paths=40):
        finals = []
        for seed in range(n_paths):
            traj = simulate_path(additive_cfg(dt=dt, seed=seed, t_end=0.5),
                                 n_save=2)
            res = ito_energy_residual(traj)
            finals.append(res.values["residual"][-1])
        return float(np.sqrt(np.mean(np.square(finals))))

    coarse = rms_at(4e-3)
    fine = rms_at(1e-3)
    assert coarse / fine == pytest.approx(2.0, abs=0.9)


# Reference series of the one-step-at-a-time residual; the block pass
# differs by roundoff only.  Each path runs 24 steps: one block of a lone
# replay, and a 16-step block and a short one among 8 rows.  The additive
# series, whose replay steps a block at a time, was recorded with the block
# pass and a kernel stepping one step at a time.
PINNED_RESIDUALS = {
    "additive": [
        0.004581477049440008, 0.011913970810507615, -0.0013175873614304223,
        -0.0030635571547279195, -0.011808482321829836, -0.016676092764899147,
        -0.029856236667838, -0.024310803453998317, -0.027516881946296062,
        -0.03467605459258158, -0.039633980817206343, -0.04267260976179941,
        -0.04354225376197813, -0.04361513455522129, -0.04098642790690752,
        -0.04303413333877953, -0.047925059943943894, -0.03546639389919868,
        -0.02122545302216767, -0.02185250417170958, -0.03446646111680202,
        -0.045561556965038906, -0.047713964137934155, -0.05003918253878333,
    ],
    "semi_implicit": [
        -0.040469417180324485, -0.10206696921515923, -0.09045470320157448,
        -0.13554924465833487, -0.14105870222828468, -0.1563184077632613,
        -0.20027093330396753, -0.22666088889141692, -0.2152436342510934,
        -0.22919826082295044, -0.1826628937873541, -0.21018397657302523,
        -0.24271384890490233, -0.26596967783272046, -0.26861546116841223,
        -0.2961422689372328, -0.3242386973826341, -0.3566044066151014,
        -0.3683296236973508, -0.4090385265199028, -0.4263000120208465,
        -0.4182329814334229, -0.4237417062449463, -0.4386513924165139,
    ],
    "callable_g": [
        -0.000250388956387515, -0.002165121089109906, -0.010499307669819935,
        -0.00877357901603637, -0.01348477548018931, 0.0089485839337696,
        0.007057041969176985, 0.01216289742143704, 0.002778563025732008,
        0.008974740342427009, 0.016949010357333007, 0.014961752979221834,
        0.01314520561848331, 0.015697050063829165, 0.010357145257443665,
        0.008547760932698264, 0.02195970172773767, 0.018433848900019662,
        0.016293939632056453, 0.011998065139542257, 0.013978860880459036,
        0.010786243450992073, 0.017699856754173023, 0.0248444913124408,
    ],
    "drift_pairing": [
        0.03864005396880743, 0.04654388760177018, 0.07302959677873737,
        0.06883969204257089, 0.05590572038213969, 0.05163005159501416,
        0.06760805656166646, 0.05720620406089988, 0.057808705327242596,
        0.06356777564919282, 0.06049347911136953, 0.07250795417351584,
        0.06643335717791228, 0.05580558839696406, 0.07870224119644009,
        0.08623325622983335, 0.09850036141573354, 0.09903787627691703,
        0.09732818280807658, 0.11246527653890386, 0.11227726341508378,
        0.10829984707735353, 0.09764375893095906, 0.12650133905561484,
    ],
}


def branch_cfg(branch):
    grid = TorusGrid(32)
    noise = NoiseSpec(lam=0.75, modes=5)
    common = dict(grid=grid, noise=noise, t_end=0.5, dt=1 / 48)
    if branch == "semi_implicit":
        return SimConfig(nonlinearity=NonlinearitySpec(f=presets.cubic_flux,
                                                       g=1.0),
                         scheme="semi_implicit", seed=11, u0=np.cos, **common)
    if branch == "callable_g":
        return SimConfig(nonlinearity=NonlinearitySpec(
            g=lambda y: 0.5 * y + 0.25), seed=12, u0=np.cos, **common)
    if branch == "additive":
        # no flux and a constant g: the replay steps a block at a time
        return SimConfig(nonlinearity=NonlinearitySpec(g=0.5), seed=14,
                         u0=lambda x: np.cos(x) + 0.5 * np.sin(2 * x),
                         **common)
    return SimConfig(nonlinearity=NonlinearitySpec(
        f=np.sin, g=0.5, f_x_independent=False), seed=13,
        u0=lambda x: np.cos(x) + 0.5 * np.sin(2 * x), **common)


@pytest.mark.parametrize("branch", sorted(PINNED_RESIDUALS))
def test_ito_residual_pinned_branches(branch):
    cfg = branch_cfg(branch)
    series = ito_energy_residual(simulate_path(cfg))
    assert np.allclose(series.times, np.arange(1, 25) / 48)
    assert np.allclose(series.values["residual"], PINNED_RESIDUALS[branch],
                       rtol=0.0, atol=1e-12)
    # among 8 rows the fold at the 16-step block edge splits the steps:
    # row 0's defects are the lone replay's bit for bit
    found = np.empty((8, cfg.n_steps))
    critspde.sim._integrate(cfg, range(cfg.seed, cfg.seed + 8),
                            ito_defect=found)
    assert np.cumsum(found[0]).tobytes() == \
        series.values["residual"].tobytes()


def blown_up_cfg():
    """A sublinear-global path whose state after step 43 passes the cap."""
    base = presets.sublinear_global()
    wired = replace(base.nonlinearity, g=lambda y: 3.0 * np.abs(y) ** 2)
    return replace(base, nonlinearity=wired, t_end=0.25, seed=mix_seed(3, 2))


def two_pass_residual(cfg):
    """The residual of cfg's path in two passes: a replay that keeps every
    state, then the steps taken again from the kept states RNG_BLOCK at a
    time, each block on the next RNG_BLOCK steps of draws from the path's
    own stream, the draws the replay took."""
    stepper = SpectralStepper(cfg)
    replay = simulate_path(cfg)
    nl = cfg.nonlinearity
    k2 = stepper.k.astype(float) ** 2
    decay = 0.5 * (1.0 - np.exp(-2.0 * k2 * stepper.dt))
    w_decay = stepper.weights * decay

    def pairing(spec, other):
        return TWO_PI * np.vecdot((spec * np.conj(other)).real,
                                  stepper.weights)

    steps = replay.stats.steps_taken
    per_step = np.empty(steps)
    rng = _path_stream(cfg.seed)
    for i in range(0, steps, RNG_BLOCK):
        j = min(i + RNG_BLOCK, steps)
        values = replay.states[i:j]
        before = _rfft(values)
        grids, _ = stepper.coefficients(values)
        dw = stepper.noise_increments(rng.standard_normal(
            (j - i, stepper.draws))) if stepper.draws else None
        after, f_hat, g_hat = stepper.update(before, grids, dw)
        if cfg.scheme == "exp_euler":
            plus = before if f_hat is None else before + stepper.dt * f_hat
            if g_hat is not None:
                plus = plus + g_hat
            grad_inc = _energy(plus, w_decay)
        else:
            grad_inc = 0.5 * stepper.dt * (
                _energy(before, stepper.grad_weights)
                + _energy(after, stepper.grad_weights))
        term_i = term_ii = term_iii = 0.0
        if nl.f is not None and not nl.f_x_independent:
            term_i = 2.0 * stepper.dt * pairing(before, f_hat)
        if g_hat is not None:
            hs = hs_norm_G(values, nl.g, cfg.noise)
            term_ii = stepper.dt * hs * hs
            term_iii = 2.0 * pairing(before, g_hat)
        per_step[i:j] = (_energy(after, stepper.weights)
                         - _energy(before, stepper.weights)) \
            + 2.0 * grad_inc - (term_i + term_ii + term_iii)
    return np.cumsum(per_step)


@pytest.mark.parametrize("branch", sorted(PINNED_RESIDUALS) + ["blown_up"])
def test_ito_residual_matches_two_pass_oracle(branch):
    # the kernel's one pass takes each step's terms from its own spectra,
    # the oracle from the saved states' transforms: roundoff apart, on both
    # schemes and on a path that blew up
    cfg = blown_up_cfg() if branch == "blown_up" else branch_cfg(branch)
    series = ito_energy_residual(simulate_path(cfg, n_save=2))
    want = two_pass_residual(cfg)
    assert series.values["residual"].shape == want.shape
    assert np.allclose(series.values["residual"], want, rtol=0.0,
                       atol=1e-12)


def test_ito_residual_stops_at_last_kept_state():
    # this path's state after step 43 passes the cap and is dropped; the
    # series ends at the last kept state, one entry per kept step
    cfg = blown_up_cfg()
    traj = simulate_path(cfg)
    assert traj.status == "blew_up"
    series = ito_energy_residual(traj)
    assert series.times.size == traj.stats.steps_taken
    assert series.times[-1] == pytest.approx(traj.times[-1])
    assert np.all(np.isfinite(series.values["residual"]))


def test_ito_residual_rejects_foreign_states():
    traj = simulate_path(heat_cfg(dt=0.05))
    traj.states[-1] = traj.states[-1] + 1.0
    with pytest.raises(ParameterError):
        ito_energy_residual(traj)


@pytest.mark.parametrize("blown_up", [False, True],
                         ids=["completed", "blown_up"])
def test_ito_replay_is_compared_bit_for_bit(blown_up):
    # the replay is bitwise the trajectory at every saved step, so one ulp
    # in a middle snapshot is a foreign state, on a path that blew up too
    cfg = blown_up_cfg() if blown_up else branch_cfg("callable_g")
    traj = simulate_path(cfg)
    assert traj.completed != blown_up and traj.times.size >= 5
    ito_energy_residual(traj)
    states = traj.states.copy()
    mid = states.shape[0] // 2
    states[mid, 3] = np.nextafter(states[mid, 3], np.inf)
    with pytest.raises(ParameterError, match="does not replay"):
        ito_energy_residual(replace(traj, states=states))


@pytest.mark.parametrize("case", ["schedule", "prefix", "blown_up"])
def test_ito_replay_at_the_save_schedule(case, monkeypatch):
    # a completed path saved on the kernel's schedule of 257 snapshots is
    # replayed at that schedule and compared row for row; its first 200
    # snapshots, or a path that blew up, are replayed keeping every
    # state.  Either way the residual is the every-state replay's, and one
    # ulp in a middle snapshot is a foreign state
    if case == "blown_up":
        cfg = blown_up_cfg()
    else:
        cfg = replace(presets.regularity_ensemble(seed=5).base, t_end=0.5)
    traj = simulate_path(cfg, n_save=257)
    assert traj.completed == (case != "blown_up") and traj.times.size >= 5
    if case == "prefix":
        traj = replace(traj, times=traj.times[:200], states=traj.states[:200])
    per_step = np.empty(cfg.n_steps)
    steps = simulate_path(cfg, ito_defect=per_step).stats.steps_taken
    want = np.cumsum(per_step[:steps])
    replays = []
    replay = critspde.monitors.simulate_path

    def recorded(cfg, n_save=None, **kw):
        replays.append(n_save)
        return replay(cfg, n_save, **kw)

    monkeypatch.setattr(critspde.monitors, "simulate_path", recorded)
    series = ito_energy_residual(traj)
    assert replays == [257 if case == "schedule" else None]
    assert series.values["residual"].tobytes() == want.tobytes()
    states = traj.states.copy()
    mid = states.shape[0] // 2
    states[mid, 3] = np.nextafter(states[mid, 3], np.inf)
    with pytest.raises(ParameterError, match="does not replay"):
        ito_energy_residual(replace(traj, states=states))


# --- Hoelder fits --------------------------------------------------------------------

def test_hoelder_smooth_heat_path():
    cfg = SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec(),
                    t_end=1.0, dt=1.0 / 1024, u0=np.cos)
    traj = simulate_path(cfg, n_save=257)
    fit = hoelder_estimate(traj)
    assert fit.theta_time >= 0.9
    assert fit.theta_space >= 0.9
    assert fit.r2_time > 0.99
    assert fit.t_start == pytest.approx(0.1)


def test_hoelder_stochastic_bands_loose():
    thetas_t, thetas_x = [], []
    for seed in range(4):
        cfg = SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec(g=1.0),
                        noise=NoiseSpec(lam=0.75, modes=42), t_end=1.0,
                        dt=1.0 / 1024, seed=seed, u0=None)
        traj = simulate_path(cfg, n_save=257)
        fit = hoelder_estimate(traj)
        thetas_t.append(fit.theta_time)
        thetas_x.append(fit.theta_space)
    assert 0.3 <= float(np.median(thetas_t)) <= 0.65
    assert float(np.median(thetas_x)) >= 0.7


def test_row_medians_match_numpy():
    # the fit's row medians are np.median's bits, odd and even widths (128
    # is the regularity grid's), with a NaN row giving NaN, an inf sorting
    # as a number and an all-zero row giving 0; the argument is left alone
    rng = np.random.default_rng(11)
    for cols in (1, 2, 7, 8, 128, 129):
        a = np.abs(rng.standard_normal((6, cols)))
        a[1, 0] = np.nan
        a[2, -1] = np.inf
        a[3, :] = np.round(a[3], 1)
        a[4, :] = np.inf
        a[5, :] = 0.0
        before = a.tobytes()
        assert _row_medians(a).tobytes() == np.median(a, axis=1).tobytes()
        assert a.tobytes() == before


@pytest.mark.parametrize("cfg, where", [
    (heat_cfg(grid=TorusGrid(128), dt=1.0 / 1024, u0=None), "time lag 1"),
    (replace(presets.heat(), grid=TorusGrid(128), dt=1.0 / 1024, u0=1.0),
     "time lag 1"),
    # the noise's one mode is the constant: the path moves in time only
    (SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec(g=1.0),
               noise=NoiseSpec(modes=0), t_end=1.0, dt=1.0 / 1024, u0=None),
     "space shift 1"),
], ids=["zero_data", "heat_u0_one", "constant_in_space"])
def test_hoelder_rejects_a_constant_path(cfg, where):
    # a zero increment statistic took log(0) with two RuntimeWarnings, and
    # the NaN slope failed as "fitted exponents must lie in [0, 1]"
    traj = simulate_path(cfg, n_save=257)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError,
                           match=f"increment statistic at {where} is 0.0"):
            hoelder_estimate(traj)


def test_hoelder_fit_imports_no_numpy_ma():
    # np.unique and np.median import numpy.ma on first use (some 15 ms and
    # 1 MB); a saved path, a Hoelder fit and criterion 10, which takes the
    # ensemble's median exponents, reach neither
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from critspde.monitors import hoelder_estimate\n"
        "from critspde.sim import (NoiseSpec, NonlinearitySpec, SimConfig,"
        " TorusGrid, simulate_path)\n"
        "cfg = SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec("
        "g=1.0), noise=NoiseSpec(lam=0.75, modes=21), t_end=1.0, "
        "dt=1.0 / 512, u0=np.cos)\n"
        "hoelder_estimate(simulate_path(cfg, n_save=129))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        "from critspde.acceptance import check_regularity_bands\n"
        "failures, _ = check_regularity_bands()\n"
        "assert not failures, failures\n"
        "assert 'numpy.ma' not in sys.modules, 'criterion 10 imported "
        "numpy.ma'\n")
    env = dict(os.environ)
    src = str(Path(critspde.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_hoelder_needs_enough_lags():
    traj = simulate_path(heat_cfg(dt=0.05), n_save=11)
    with pytest.raises(ParameterError):
        hoelder_estimate(traj)


def test_hoelder_window_validation():
    cfg = SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec(),
                    t_end=1.0, dt=1.0 / 1024, u0=np.cos)
    traj = simulate_path(cfg, n_save=257)
    with pytest.raises(ParameterError):
        hoelder_estimate(traj, t0=0.0)
    with pytest.raises(ParameterError):
        hoelder_estimate(traj, t0=1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: hoelder_estimate(simulate_path(
        heat_cfg(grid=TorusGrid(128), dt=1.0 / 1024), n_save=257),
        t0=np.nan), "fit start must lie inside"),
    (lambda: spatial_norm(np.cos(GRID.x), np.nan), "finite smoothness"),
    (lambda: spatial_norm(np.cos(GRID.x), np.inf, q=3.0),
     "finite smoothness"),
    (lambda: spatial_norm(np.cos(GRID.x), -np.inf), "finite smoothness"),
    (lambda: hs_norm_G(np.cos(GRID.x), 1.0, None), "needs its NoiseSpec"),
    (lambda: hs_norm_G(np.cos(GRID.x), np.abs, None), "needs its NoiseSpec"),
], ids=["hoelder_nan_t0", "smoothness_nan", "smoothness_inf",
        "smoothness_minus_inf", "hs_constant_g", "hs_map_g"])
def test_monitor_inputs_are_checked(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


# --- containers -----------------------------------------------------------------------

def test_monitor_series_validation():
    with pytest.raises(ParameterError):
        MonitorSeries(np.array([0.0, -1.0]), {})
    with pytest.raises(ParameterError):
        MonitorSeries(np.array([0.0, 1.0]), {"x": np.array([1.0])})
    with pytest.raises(ParameterError):
        MonitorSeries(np.array([0.0, 1.0]), {"x": np.array([1.0, np.inf])})


def test_hoelder_fit_validation():
    with pytest.raises(ParameterError):
        HoelderFit(1.5, 0.5, 0.1, 1.0, 0.9, 0.9)
    with pytest.raises(ParameterError):
        HoelderFit(0.5, 0.5, 0.0, 1.0, 0.9, 0.9)
