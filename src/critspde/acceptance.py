"""Executable acceptance checks for the whole package.

Twelve numbered checks cover the exponent calculus (exact rational
identities), the bootstrap planner, the spectral simulator, the Monte Carlo
harness, and the decision table.  Each check returns its failures and a
measured detail string; ``run_checks`` names, times and reports it, and
``run_suite`` groups them for the command line ``verify`` subcommand.
Tolerances and sample counts are part of the contract, not to be loosened.
"""

from __future__ import annotations

import filecmp
import math
import random
import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from .bootstrap import full_chain_1d, chain_composition_ok
from .exponents import (
    GrowthSpec,
    GrowthTerm,
    Setting,
    SobolevScale,
    critical_weight,
    criterion_select,
    interpolation_exponents,
    one_d_growth_params,
    rho_star_and_x_exponents,
    star_params,
    trace_space,
    xi_exponents,
)
from .harness import (
    EnsembleConfig,
    experiment_energy,
    experiment_regularity,
    run_ensemble,
)
from .presets import (
    cubic_flux,
    heat,
    linear_noise,
    regularity_ensemble,
    sublinear_global,
)
from .sim import TorusGrid, basis_coefficient, drift_pairing, simulate_path
from .weights import (
    PowerWeight,
    SampledFunction,
    TimeGrid,
    slobodeckij_seminorm,
    weighted_lp_norm,
)

F = Fraction

__all__ = [
    "CheckResult",
    "CHECKS",
    "SUITES",
    "run_checks",
    "run_suite",
    "format_result",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numbered acceptance check."""

    name: str
    passed: bool
    detail: str
    elapsed: float


Outcome = Tuple[List[str], str]  # a check's failures and its detail


_H2 = SobolevScale(F(-1), F(1), F(2))

_TIMED_CALLS = 7


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """(result, median, slowest) of _TIMED_CALLS calls of fn, in seconds,
    after one warm call so the timings exclude imports.  Checks print the
    median and gate the slowest, so the gate is no looser than one call.
    Each call is timed on the thread's CPU clock: a call that loses its core
    to another process is not charged for the wait.
    """
    fn()
    times = []
    for _ in range(_TIMED_CALLS):
        t0 = time.thread_time()
        result = fn()
        times.append(time.thread_time() - t0)
    return result, statistics.median(times), max(times)


# --- 1: exponent calculus on the energy-space instance --------------------------


def check_exponent_calculus() -> Outcome:
    """Energy-space exponents come out as the exact rationals 2, 3, 3/2."""
    g = one_d_growth_params("l2_eps", eps=0)
    s = Setting(_H2, F(2), F(0))
    terms, per_call, slowest = _timed(lambda: rho_star_and_x_exponents(g, s))

    failures: List[str] = []
    term = terms[0]
    expected = {
        "rho_star": F(2),
        "r": F(3),
        "r_conj": F(3, 2),
    }
    for attr, want in expected.items():
        got = getattr(term, attr)
        if got != want or not isinstance(got, Fraction):
            failures.append(f"{attr}={got!r}, expected {want}")
    for entry in term.x_entries:
        if entry.time_exponent != 6 or entry.smoothness != F(1, 3) \
                or entry.space_q != 2:
            failures.append(
                f"mixed-norm entry L^{entry.time_exponent}"
                f"(H^{entry.smoothness}) != L^6(H^(1/3))")
        if not isinstance(entry.smoothness, Fraction):
            failures.append("entry smoothness is not an exact rational")
    if slowest >= 1e-3:
        failures.append(f"slowest of {_TIMED_CALLS} calls took "
                        f"{slowest * 1e6:.0f} us (budget 1 ms)")
    detail = (f"rho*=2, r=3, r'=3/2, X=L^6(H^(1/3)) exact, "
              f"{per_call * 1e6:.0f} us per call (median of {_TIMED_CALLS})")
    return failures, detail


# --- 2: critical weight closed form ----------------------------------------------


def check_critical_weight_formula() -> Outcome:
    """kappa_crit = -1 + (p/2)(3/2 - s - 1/q) exactly on 1000 random triples."""
    failures: List[str] = []
    rng = random.Random(20217)
    accepted = 0
    # on the thread's CPU clock, as in _timed: waiting for a core is free
    loop_start = time.thread_time()
    while accepted < 1000 and not failures:
        den = rng.randint(12, 48)
        s = F(rng.randint(1, (den - 1) // 3), den)
        q = 2 + (F(2, 1) / s - 2) * F(rng.randint(1, 15), 16)
        margin = F(3, 2) - s - 1 / q
        if margin >= 1:  # critical weight would exceed the admissible window
            continue
        p = 2 / margin + F(rng.randint(1, 64), 16)
        expected = -1 + p * margin / 2
        g = one_d_growth_params("rough", s=s, q=q)
        got = critical_weight(g, p)
        if got != expected:
            failures.append(
                f"critical_weight mismatch at (s={s}, q={q}, p={p}): "
                f"{got} != {expected}")
            break
        scale = SobolevScale(-(1 + s), 1 - s, q)
        tr = trace_space(Setting(scale, p, expected))
        if tr.smoothness != 1 / q - F(1, 2):
            failures.append(
                f"trace smoothness {tr.smoothness} != 1/q-1/2 at "
                f"(s={s}, q={q}, p={p})")
            break
        if tr.q != q or tr.p != p:
            failures.append(f"trace indices ({tr.q},{tr.p}) != ({q},{p})")
            break
        accepted += 1
    loop_time = time.thread_time() - loop_start
    if loop_time >= 1.0:
        failures.append(f"1000 checks took {loop_time:.2f} s CPU (budget 1 s)")
    detail = (f"1000 random (s,q,p) match -1+(p/2)(3/2-s-1/q) and trace "
              f"smoothness 1/q-1/2 exactly in {loop_time * 1e3:.0f} ms CPU")
    return failures, detail


# --- 3: conjugacy and star identities ---------------------------------------------


def _random_setting_and_term(rng: random.Random) -> Tuple[GrowthSpec, Setting]:
    """One random admissible (term, setting), each value built once from
    integer parts.  With the draws a, b, m, n, k it equals
      p = 2 + a/16, kappa = (p/2-1)*b/16 (or p = 2, kappa = 0),
      c = (1+kappa)/p, phi = 1-c + c*m/24,
      beta = (1-c) + (phi-(1-c))*n/24, rho = (1-beta)/(phi-1+c)*k/16."""
    if rng.random() < 0.1:
        p, kappa = F(2), F(0)
        cn, cd = 1, 2
    else:
        a = rng.randint(1, 96)
        ab = a * rng.randint(0, 15)
        p, kappa = F(32 + a, 16), F(ab, 512)
        cn, cd = 512 + ab, 32 * (32 + a)
    m = rng.randint(1, 23)
    mn = m * rng.randint(1, 24)
    # phi = 1 - c*(24-m)/24, beta = 1 - c*(576-m*n)/576, and
    # rho = (576-m*n)/(24*m) * k/16, as c cancels from (1-beta)/(phi-1+c)
    phi = F(24 * cd - (24 - m) * cn, 24 * cd)
    beta = F(576 * cd - (576 - mn) * cn, 576 * cd)
    rho = F((576 - mn) * rng.randint(0, 16), 384 * m)
    g = GrowthSpec(f_terms=(GrowthTerm(rho, phi, beta),))
    return g, Setting(_H2, p, kappa)


def check_identity_suites() -> Outcome:
    """1/r+1/r', 1/xi+1/xi' and the star identity are exact on 10^4 draws."""
    failures: List[str] = []
    rng = random.Random(30317)
    for i in range(10_000):
        g, s = _random_setting_and_term(rng)
        c = s.weight_index
        (te,) = rho_star_and_x_exponents(g, s)
        if 1 / te.r + 1 / te.r_conj != 1:
            failures.append(f"r-conjugacy broke at draw {i}: r={te.r}")
            break
        (xe,) = xi_exponents(g, s)
        if 1 / xe.xi + 1 / xe.xi_conj != 1:
            failures.append(f"xi-conjugacy broke at draw {i}: xi={xe.xi}")
            break
        (sp,) = star_params(g, s)
        if sp.rho_eff * (sp.phi_star - 1 + c) + sp.beta_star != 1:
            failures.append(f"star identity broke at draw {i}")
            break
        term = g.f_terms[0]
        critical = term.rho * (term.phi - 1 + c) + term.beta == 1
        if critical and term.rho > 0 and (xe.xi, xe.xi_conj) != (te.r, te.r_conj):
            failures.append(f"critical term xi != r at draw {i}")
            break
    detail = "conjugacy and star identities exact on 10^4 random settings"
    return failures, detail


# --- 4: interpolation exponents, exact and numeric --------------------------------


def _monomial_constant(psi: Fraction, p: Fraction, kappa: Fraction,
                       a: float, m: int, n_grid: int) -> float:
    """Interpolation ratio for f(t) = t^a cos(mx) on an n-point graded grid."""
    ie = interpolation_exponents(psi, p, kappa)
    grid = TimeGrid.graded(0.0, 1.0, n_grid)
    w = PowerWeight(float(kappa))
    tt = grid.nodes

    def series(theta: Fraction) -> SampledFunction:
        sm = float(_H2.smoothness_at(theta))
        vals = tt ** a * math.sqrt(math.pi) * (1 + m * m) ** (sm / 2)
        return SampledFunction(grid, vals)

    num = weighted_lp_norm(series(psi), float(ie.zeta), w)
    f_delta = series(ie.delta)
    den = weighted_lp_norm(f_delta, float(p), w)
    if ie.theta0 > 0:
        den += slobodeckij_seminorm(f_delta, float(ie.theta0), float(p), w)
    den += weighted_lp_norm(series(F(1)), float(p), w)
    return num / den


def check_interpolation_estimate() -> Outcome:
    """Exponent identities exact on 10^4 draws; monomial ratios grid-stable."""
    failures: List[str] = []
    rng = random.Random(40417)
    for i in range(10_000):
        p = 1 + F(rng.randint(1, 176), 16)
        kappa = (p - 1) * F(rng.randint(0, 15), 16)
        c = (1 + kappa) / p
        psi = 1 - c + c * F(rng.randint(1, 23), 24)
        ie = interpolation_exponents(psi, p, kappa)
        if ie.zeta * (psi - 1 + c) != 1 + kappa:
            failures.append(f"zeta identity broke at draw {i}")
            break
        if ie.case_id == 3:
            ok = ie.delta == 1 and ie.theta0 == 0 \
                and ie.phi == p * (psi - 1 + 1 / p)
        else:
            ok = (1 - ie.delta) * ie.phi == (p / (1 + kappa)) * (psi - 1 + c)
        if not ok:
            failures.append(f"case-{ie.case_id} exponent relation broke "
                            f"at draw {i} (psi={psi}, p={p}, kappa={kappa})")
            break
        if not (0 <= ie.theta0 < c):
            failures.append(f"theta0={ie.theta0} outside [0, c) at draw {i}")
            break

    spot = interpolation_exponents(F(2, 3), 2, 0)
    if (spot.zeta, spot.delta, spot.phi, spot.case_id, spot.theta0) != \
            (6, 1, F(1, 3), 3, 0):
        failures.append("spot instance (2/3, 2, 0) mismatch")
    spot = interpolation_exponents(F(9, 10), 4, 1)
    if (spot.zeta, spot.delta, spot.phi, spot.case_id, spot.theta0) != \
            (5, F(1, 5), 1, 1, F(1, 16)):
        failures.append("spot instance (9/10, 4, 1) mismatch")

    worst = 0.0
    largest = 0.0
    if not failures:
        instances = ((F(2, 3), F(2), F(0)), (F(9, 10), F(4), F(1)))
        powers = (0.25, 0.5, 0.75, 1.0, 1.5)
        for psi, p, kappa in instances:
            for a in powers:
                for m in (1, 3):
                    coarse = _monomial_constant(psi, p, kappa, a, m, 200)
                    fine = _monomial_constant(psi, p, kappa, a, m, 400)
                    if not (np.isfinite(fine) and fine > 0):
                        failures.append(
                            f"non-finite ratio at (a={a}, m={m}, psi={psi})")
                        break
                    drift = abs(fine / coarse - 1.0)
                    worst = max(worst, drift)
                    largest = max(largest, fine)
                    if drift > 0.10:
                        failures.append(
                            f"ratio drifts {drift:.1%} under grid doubling "
                            f"at (a={a}, m={m}, psi={psi})")
                        break
    detail = (f"exponent identities exact on 10^4 draws; monomial constants "
              f"<= {largest:.3f}, worst grid drift {worst:.1%}")
    return failures, detail


# --- 5: bootstrap chain reproduction ----------------------------------------------


def check_bootstrap_chain() -> Outcome:
    """The energy-start chain reproduces the frozen step parameters."""
    eps = F(1, 5)
    chain, per_call, slowest = _timed(lambda: full_chain_1d("L2_start",
                                                            eps=eps))

    failures: List[str] = []
    s1, s2, s3, s4 = chain.steps
    if s1.rule != "weight_insertion" or s1.params["r"] != 6 \
            or s1.params["delta"] != F(1, 10) or s1.params["alpha"] != F(7, 5):
        failures.append(f"insertion step params {s1.params} != "
                        "(r=6, delta=1/10, alpha=7/5)")
    if s1.params["alpha"] != 2 - 3 * eps:
        failures.append("alpha != 2 - 3*eps")
    mids = [c for c in s2.checks
            if c.name.endswith("@intermediate") and "slack" in c.witness]
    if not mids:
        failures.append("no intermediate-target slack checks on the time step")
    for c in mids:
        if not c.passed or c.witness["slack"] <= 0:
            failures.append(f"intermediate target slack not positive: {c.name}")
    if s3.params.get("emb_case") != 4:
        failures.append(f"scale recovery used case {s3.params.get('emb_case')}"
                        ", expected 4")
    target = s4.to_setting
    if s4.rule != "space_bootstrap" or target.kappa != target.p / 4:
        failures.append(f"final weight {target.kappa} != p/4 with p={target.p}")
    if target.p != s2.params["r_hat"]:
        failures.append("final time exponent does not carry r_hat")
    zeta = target.scale.q
    if 2 * target.kappa / target.p + F(1, 1) / zeta < F(1, 2):
        failures.append("trace-embedding index 2*kappa/p + 1/zeta < 1/2")
    if not all(c.passed for st in chain.steps for c in st.checks):
        failures.append("some emitted check did not pass")
    if not chain_composition_ok(chain):
        failures.append("consecutive steps do not compose")
    if slowest >= 0.01:
        failures.append(f"slowest of {_TIMED_CALLS} chains took "
                        f"{slowest * 1e3:.1f} ms (budget 10 ms)")
    detail = (f"steps (r=6, delta=1/10, alpha=7/5) -> r_hat=12 -> case-4 "
              f"recovery -> weight p/4={target.kappa} with 2k/p+1/zeta="
              f"{2 * target.kappa / target.p + F(1, 1) / zeta}, "
              f"{per_call * 1e3:.2f} ms per call (median of {_TIMED_CALLS})")
    return failures, detail


# --- 6: simulator exactness on the heat preset -------------------------------------


def check_heat_exactness() -> Outcome:
    """The heat preset tracks e^{-t} cos x to 1e-12 in L^2."""
    cfg = heat()
    traj, per_call, slowest = _timed(lambda: simulate_path(cfg))

    failures: List[str] = []
    exact = math.exp(-cfg.t_end) * np.cos(cfg.grid.x)
    diff = traj.states[-1] - exact
    err = math.sqrt(2 * math.pi * float(np.mean(diff * diff)))
    if not traj.completed:
        failures.append(f"heat run ended with status {traj.status}")
    if err > 1e-12:
        failures.append(f"L2 error {err:.3e} > 1e-12")
    if slowest >= 0.1:
        failures.append(f"slowest of {_TIMED_CALLS} runs took "
                        f"{slowest:.3f} s (budget 0.1 s)")
    detail = (f"L2 error {err:.2e} at T=1, N=64; {per_call * 1e3:.1f} ms "
              f"per run (median of {_TIMED_CALLS})")
    return failures, detail


# --- 7: noise calibration against the scalar OU moment -----------------------------


def check_noise_calibration() -> Outcome:
    """Mode-1 second moment of the stochastic convolution matches OU."""
    failures: List[str] = []
    cfg = linear_noise()
    ens = EnsembleConfig(base=cfg, n_paths=400,
                         experiment="noise-calibration", n_save=2)
    t0 = time.perf_counter()
    run = run_ensemble(ens)
    elapsed = time.perf_counter() - t0
    coeffs = np.array([basis_coefficient(u, 1, "cos")
                       for u in run.states[:, -1]])
    moment = float(np.mean(coeffs ** 2))
    sigma1_sq = 2.0 ** (-0.75)
    target = sigma1_sq * (1 - math.exp(-2.0)) / 2
    tol = 3 * target * math.sqrt(2.0 / len(coeffs))
    if (run.steps != cfg.n_steps).any():
        failures.append("a linear-noise path failed to complete")
    if abs(moment - target) > tol:
        failures.append(f"moment {moment:.4f} misses {target:.4f} "
                        f"by more than {tol:.4f}")
    if elapsed >= 60:
        failures.append(f"400 paths took {elapsed:.1f} s (budget 60 s)")
    detail = (f"mode-1 moment {moment:.4f} vs OU {target:.4f} "
              f"(3 MC std = {tol:.4f}), 400 paths in {elapsed:.1f} s")
    return failures, detail


# --- 8: energy bound at ensemble scale ---------------------------------------------


def check_energy_bound() -> Outcome:
    """Sublinear-noise cubic problem survives and its energy ratio is stable."""
    failures: List[str] = []
    ens = EnsembleConfig(base=sublinear_global(), n_paths=200,
                         experiment="energy-bound", n_save=2)
    t0 = time.perf_counter()
    rep = experiment_energy(ens)
    elapsed = time.perf_counter() - t0
    if rep.stats.survival != 1.0 or rep.stats_refined.survival != 1.0:
        failures.append(f"survival {rep.stats.survival}/"
                        f"{rep.stats_refined.survival} != 1.0")
    if rep.blew_up:
        failures.append("blow-up flagged")
    if not (np.isfinite(rep.c_hat) and np.isfinite(rep.c_hat_refined)):
        failures.append("energy constant not finite")
    if rep.drift > 0.10:
        failures.append(f"energy constant drifts {rep.drift:.1%} "
                        "under dt halving")
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f} s (budget 300 s)")
    detail = (f"survival 1.0 on 200 paths, C={rep.c_hat:.3f} vs "
              f"{rep.c_hat_refined:.3f} at dt/2 (drift {rep.drift:.1%}), "
              f"{elapsed:.0f} s")
    return failures, detail


# --- 9: conservative drift pairing --------------------------------------------------


def check_drift_conservation() -> Outcome:
    """The flux pairing vanishes on random band-limited states."""
    failures: List[str] = []
    grid = TorusGrid(128)
    rng = np.random.default_rng(90917)
    x = grid.x
    worst = 0.0
    for i in range(100):
        u = np.zeros(grid.n)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        for k in range(32):
            a, b = rng.standard_normal(2) * scale / (1 + k)
            u += a * np.cos(k * x) + b * np.sin(k * x)
        val = abs(drift_pairing(u, cubic_flux))
        bound = 1e-8 * (1 + 2 * math.pi * float(np.mean(u ** 4)))
        worst = max(worst, val / bound)
        if val > bound:
            failures.append(f"pairing {val:.2e} exceeds bound {bound:.2e} "
                            f"on state {i}")
            break
    detail = (f"|flux pairing| <= 1e-8*(1+||u||_L4^4) on 100 band-limited "
              f"states, worst ratio {worst:.2e}")
    return failures, detail


# --- 10: regularization bands --------------------------------------------------------


def check_regularity_bands() -> Outcome:
    """Ensemble Hoelder fits land in the theorem-shaped exponent bands."""
    failures: List[str] = []
    cfg = regularity_ensemble(24)
    rep = experiment_regularity(cfg)
    if rep.n_completed != cfg.n_paths:
        failures.append(f"only {rep.n_completed}/{cfg.n_paths} paths usable")
    if not (0.4 <= rep.median_theta_time <= 0.55):
        failures.append(f"median time exponent {rep.median_theta_time:.3f} "
                        "outside [0.4, 0.55]")
    if rep.median_theta_space < 0.8:
        failures.append(f"median space exponent {rep.median_theta_space:.3f} "
                        "< 0.8")
    detail = (f"median time exponent {rep.median_theta_time:.3f} in "
              f"[0.4, 0.55], median space exponent "
              f"{rep.median_theta_space:.3f} >= 0.8 on 24 paths")
    return failures, detail


# --- 11: determinism across batch widths --------------------------------------------


def check_determinism() -> Outcome:
    """A path's CSV is bitwise the same in a 16- and a 17-path ensemble."""
    failures: List[str] = []
    names = [f"path_{i}.csv" for i in range(16)]
    n_files = 0
    with tempfile.TemporaryDirectory() as tmp:
        for preset in (linear_noise, sublinear_global):
            base = replace(preset(), t_end=0.25, seed=77)
            dirs = []
            for width in (16, 17):
                out = Path(tmp) / f"{preset.__name__}{width}"
                run_ensemble(EnsembleConfig(base=base, n_paths=width,
                                            experiment="determinism",
                                            outdir=str(out), n_save=9))
                dirs.append(out / "determinism")
            agree, differ, funny = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                                    shallow=False)
            if differ or funny:
                failures.append(f"{preset.__name__}: path files differ "
                                f"between 16 and 17 paths: {differ + funny}")
            n_files += len(agree)
    detail = (f"{n_files} path files (linear-noise, sublinear-global) "
              "bitwise identical in 16- and 17-path ensembles")
    return failures, detail


# --- 12: decision table ---------------------------------------------------------------


_EXPECTED_CLAUSES: Dict[Tuple[bool, bool, bool, bool], str] = {}
for _sl in (False, True):
    for _crit in (False, True):
        for _sup in (False, True):
            for _lp in (False, True):
                if not _sl:
                    if not _crit:
                        _clause = "blow_up_non_critical"
                    elif _lp:
                        _clause = "blow_up_limit_and_lp_bound"
                    else:
                        _clause = "blow_up_nonlinearity_functional"
                elif not _sup:
                    _clause = "semilinear_nonlinearity_functional_or_serrin"
                elif not _crit:
                    _clause = "semilinear_sup_bound_non_critical"
                else:
                    _clause = "semilinear_sup_and_lp_bound"
                _EXPECTED_CLAUSES[(_sl, _crit, _sup, _lp)] = _clause


def check_decision_table() -> Outcome:
    """criterion_select routes all 16 flag combinations to the right clause."""
    failures: List[str] = []
    for flags, want in _EXPECTED_CLAUSES.items():
        semilinear, critical, sup, lp = flags
        got = criterion_select(semilinear, critical, sup, lp)
        if got.clause != want:
            failures.append(f"flags {flags}: {got.clause} != {want}")
        if not got.description:
            failures.append(f"flags {flags}: empty description")
    detail = "all 16 flag combinations route to the expected clause"
    return failures, detail


# --- driver -----------------------------------------------------------------------


CHECKS: Dict[int, Callable[[], Outcome]] = {
    1: check_exponent_calculus,
    2: check_critical_weight_formula,
    3: check_identity_suites,
    4: check_interpolation_estimate,
    5: check_bootstrap_chain,
    6: check_heat_exactness,
    7: check_noise_calibration,
    8: check_energy_bound,
    9: check_drift_conservation,
    10: check_regularity_bands,
    11: check_determinism,
    12: check_decision_table,
}

SUITES: Dict[str, Tuple[int, ...]] = {
    "calculus": (1, 2, 3, 4, 12),
    "chain": (5,),
    "sim": (6, 9),
    "noise": (7,),
    "energy": (8,),
    "regularity": (10,),
    "determinism": (11,),
    "all": tuple(sorted(CHECKS)),
}


def run_checks(numbers: Iterable[int]) -> List[Tuple[int, CheckResult]]:
    """Run the numbered checks.  Each is named after its function, timed
    over its whole call and, if it raises, reported as a failure."""
    out = []
    for num in numbers:
        fn = CHECKS[num]
        t0 = time.perf_counter()
        try:
            failures, detail = fn()
        except Exception as exc:  # surface, never hide, misconfiguration
            failures, detail = [f"raised {exc!r}"], ""
        elapsed = time.perf_counter() - t0
        name = fn.__name__.replace("check_", "", 1).replace("_", "-")
        if failures:
            detail = "; ".join(failures[:4])
        out.append((num, CheckResult(name, not failures, detail, elapsed)))
    return out


def run_suite(name: str = "all") -> List[Tuple[int, CheckResult]]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; "
                       f"choose from {sorted(SUITES)}")
    return run_checks(SUITES[name])


def format_result(num: int, res: CheckResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return (f"criterion {num:2d} [{res.name}] {status} "
            f"({res.detail}; {res.elapsed:.2f} s)")
