"""Seeded inputs for the benchmark's workloads.

Everything here is a pure function of the workload seed: the program sees
only the values built here (configs, master seeds, exact parameter draws),
never the seed itself.  The distributions follow the acceptance checks they
are named after, so a draw here is a draw the test suite could make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction as F
from typing import Optional, Tuple

import numpy as np

from critspde import exponents, presets
from critspde.exponents import GrowthSpec, GrowthTerm, Setting, SobolevScale
from critspde.harness import EnsembleConfig
from critspde.sim import NoiseSpec, NonlinearitySpec, SimConfig, TorusGrid

H2 = SobolevScale(F(-1), F(1), F(2))

# ensemble-global: experiment_global(h=2, noise_scale=3) on sublinear-global.
# Criteria 7 and 8 run 200 and 400 paths per call, and a batched kernel
# keeps per-call state that grows with the width (ROADMAP B: about 69 MB of
# steps x paths x modes at 200 paths).  At 18 paths that state is about
# 6 MB, 14% of the run's peak RSS and above peak_rss_mb's 10% bound, so an
# unchunked one shows.  Wider calls last longer than the host's speed swings
# and the calibration kernel at their ends stops following them: on the
# build host, 36-path calls on fixed inputs spread twice as much as 18-path
# calls (interquartile range 23% against 12% of the median).  Four calls
# keep 72 paths per pass.
GLOBAL_BLOCKS = 4        # experiment_global calls per pass, one master each
GLOBAL_PATHS = 18        # paths per call
GLOBAL_SAMPLED = 3       # paths per call whose CSV is read back and compared
GLOBAL_H = 2.0
GLOBAL_NOISE_SCALE = 3.0

# regularity-monitors: run_ensemble on presets.regularity_ensemble
REG_PATHS = 8
REG_ITO_PATHS = 2
REG_WINDOW = (0.1, 1.0)

# calculus, and the calculus reference batch of the simulation workloads;
# 1100 samples leave 11 beyond the p99 rank
CALC_SIZES = {"draws": 1100, "triples": 300, "reports": 60, "plans": 1100}
REF_CALC_SIZES = {"draws": 1100, "triples": 20, "reports": 10, "plans": 1100}

# reference simulation batch of the calculus workload: one-path mc_runs
REF_SIM_BLOCKS = 4


def workload_rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def master_seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


# --- calculus ----------------------------------------------------------------


def draw_setting(rng: random.Random) -> Tuple[GrowthSpec, Setting]:
    """One random (growth term, setting) pair, drawn as criterion 3 draws.

    p = 2, kappa = 0 with probability 1/10; otherwise p in (2, 8] and an
    admissible weight, with the term inside its window and subcritical.
    """
    if rng.random() < 0.1:
        p, kappa = F(2), F(0)
    else:
        p = 2 + F(rng.randint(1, 96), 16)
        kappa = (p / 2 - 1) * F(rng.randint(0, 15), 16)
    c = (1 + kappa) / p
    phi = 1 - c + c * F(rng.randint(1, 23), 24)
    beta = (1 - c) + (phi - (1 - c)) * F(rng.randint(1, 24), 24)
    rho = (1 - beta) / (phi - 1 + c) * F(rng.randint(0, 16), 16)
    g = GrowthSpec(f_terms=(GrowthTerm(rho, phi, beta),))
    return g, Setting(H2, p, kappa)


def draw_triple(rng: random.Random) -> Tuple[F, F, F]:
    """An admissible (s, q, p) triple, drawn as criterion 2 draws."""
    while True:
        den = rng.randint(12, 48)
        s = F(rng.randint(1, (den - 1) // 3), den)
        q = 2 + (F(2, 1) / s - 2) * F(rng.randint(1, 15), 16)
        margin = F(3, 2) - s - 1 / q
        if margin < 1:
            return s, q, 2 / margin + F(rng.randint(1, 64), 16)


def critical_weight_closed_form(phi1: F, p: F) -> Optional[F]:
    """kappa_crit of the 1d growth family with f-term (2, phi1, phi1).

    The f-term binds (its threshold (1-phi1)*3/2 is below the g-term's), so
    kappa = p*(3/2)*(1-phi1) - 1 when admissible; for the rough variant this
    is criterion 2's -1 + (p/2)(3/2 - s - 1/q).
    """
    kappa = p * F(3, 2) * (1 - phi1) - 1
    if kappa == 0 or (p > 2 and 0 <= kappa < p / 2 - 1):
        return kappa
    return None


@dataclass(frozen=True)
class ReportCase:
    growth: GrowthSpec
    setting: Setting
    kappa_crit: Optional[F]


def draw_report_case(rng: random.Random) -> ReportCase:
    """full_report input: a one_d_growth_params variant at a random setting."""
    variant = rng.choice(("l2_eps", "lzeta", "rough"))
    if variant == "l2_eps":
        g = exponents.one_d_growth_params(
            "l2_eps", eps=F(rng.randint(0, 47), 96))
    elif variant == "lzeta":
        g = exponents.one_d_growth_params(
            "lzeta", zeta=2 + F(rng.randint(1, 64), 8))
    else:
        s, q, _ = draw_triple(rng)
        g = exponents.one_d_growth_params("rough", s=s, q=q)
    if rng.random() < 0.2:
        p, kappa = F(2), F(0)
    else:
        p = 2 + F(rng.randint(1, 48), 8)
        kappa = (p / 2 - 1) * F(rng.randint(0, 15), 16)
    phi1 = g.f_terms[0].phi
    return ReportCase(g, Setting(H2, p, kappa),
                      critical_weight_closed_form(phi1, p))


@dataclass(frozen=True)
class PlanCase:
    variant: str
    eps: Optional[F] = None
    s: Optional[F] = None
    q: Optional[F] = None
    p: Optional[F] = None

    def kwargs(self) -> dict:
        if self.variant == "L2_start":
            return {"eps": self.eps}
        return {"s": self.s, "q": self.q, "p": self.p}


def draw_plan_case(rng: random.Random, variant: str) -> PlanCase:
    """A chain-plan input: L2_start eps in (0, 1/3), or an admissible rough
    (s, q, p) with 1/p + 1/(2q) <= (3-2s)/4."""
    if variant == "L2_start":
        return PlanCase(variant, eps=F(rng.randint(1, 95), 288))
    s = F(rng.randint(1, 31), 96)
    q = 2 + (2 / (1 - 2 * s) - 2) * F(rng.randint(1, 15), 16)
    p_min = 1 / ((3 - 2 * s) / 4 - 1 / (2 * q))
    return PlanCase(variant, s=s, q=q, p=p_min + F(rng.randint(0, 64), 8))


@dataclass(frozen=True)
class CalcInputs:
    draws: Tuple[Tuple[GrowthSpec, Setting], ...]
    triples: Tuple[Tuple[F, F, F], ...]
    reports: Tuple[ReportCase, ...]
    plans: Tuple[PlanCase, ...]


def calc_inputs(rng: random.Random, sizes: dict) -> CalcInputs:
    plans = [PlanCase("L2_start", eps=F(1, 5))]  # criterion 5's frozen chain
    while len(plans) < sizes["plans"]:
        plans.append(draw_plan_case(
            rng, ("L2_start", "rough")[len(plans) % 2]))
    return CalcInputs(
        draws=tuple(draw_setting(rng) for _ in range(sizes["draws"])),
        triples=tuple(draw_triple(rng) for _ in range(sizes["triples"])),
        reports=tuple(draw_report_case(rng) for _ in range(sizes["reports"])),
        plans=tuple(plans),
    )


# --- simulation --------------------------------------------------------------


def global_noise(noise_scale: float, h: float):
    """The coefficient experiment_global wires in: g(y) = scale*|y|^h."""
    return lambda y: noise_scale * np.abs(y) ** h


@dataclass(frozen=True)
class GlobalInputs:
    configs: Tuple[EnsembleConfig, ...]  # one per block, outdir unset
    lone_base: SimConfig                 # base with the wired coefficient
    sampled: Tuple[Tuple[int, ...], ...]  # per block, CSVs read back


def global_inputs(rng: random.Random) -> GlobalInputs:
    preset = presets.sublinear_global()
    nl = preset.nonlinearity
    wired = NonlinearitySpec(
        f=nl.f, g=global_noise(GLOBAL_NOISE_SCALE, GLOBAL_H), nu=nl.nu,
        f_x_independent=nl.f_x_independent, growth=nl.growth,
        sublinear_noise_bound=nl.sublinear_noise_bound)
    configs, sampled = [], []
    for _ in range(GLOBAL_BLOCKS):
        base = replace(preset, seed=master_seed(rng))
        configs.append(EnsembleConfig(base=base, n_paths=GLOBAL_PATHS,
                                      experiment="global", n_save=2))
        sampled.append(tuple(sorted(
            rng.sample(range(GLOBAL_PATHS), GLOBAL_SAMPLED))))
    return GlobalInputs(tuple(configs), replace(preset, nonlinearity=wired),
                        tuple(sampled))


@dataclass(frozen=True)
class RegularityInputs:
    config: EnsembleConfig
    ito_paths: Tuple[int, ...]
    setting: Setting
    report: exponents.CriticalityReport


def regularity_inputs(rng: random.Random) -> RegularityInputs:
    cfg = presets.regularity_ensemble(REG_PATHS, seed=master_seed(rng))
    setting = Setting(H2, F(2), F(0))
    report = exponents.full_report(
        exponents.one_d_growth_params("l2_eps", eps=F(0)), setting)
    return RegularityInputs(
        cfg, tuple(sorted(rng.sample(range(REG_PATHS), REG_ITO_PATHS))),
        setting, report)


def ref_sim_configs(rng: random.Random) -> Tuple[EnsembleConfig, ...]:
    """The calculus workload's reference ensembles: sublinear-global paths."""
    preset = presets.sublinear_global()
    return tuple(EnsembleConfig(base=replace(preset, seed=master_seed(rng)),
                                n_paths=1, experiment="reference", n_save=2)
                 for _ in range(REF_SIM_BLOCKS))


def monitor_config(seed: int) -> SimConfig:
    """Short additive-noise path on the regularity grid for the monitor
    reference batch (n=128 gives the six dyadic space shifts a fit needs)."""
    return SimConfig(grid=TorusGrid(128), nonlinearity=NonlinearitySpec(g=1.0),
                     noise=NoiseSpec(lam=0.75, modes=42), t_end=0.25,
                     dt=1e-3, seed=seed, u0=None)
