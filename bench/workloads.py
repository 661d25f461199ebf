"""The benchmark's workloads: timed operations on critspde and their checks.

A pass runs every operation of a workload once, on the same inputs; the run
repeats passes.  Each operation is timed on its own and reported at the
reference host speed (see calibration.py); an operation's time is the
median over the run's passes.  Each operation's output is checked on every
pass.

Each workload also carries reference batches for the end-to-end metrics its
own operations do not produce (BENCHMARK.json gives every workload the same
metric set): the simulation workloads time a calculus batch, and the
calculus workload a small ensemble.  Reference operations are timed and
checked like the rest but stay out of ``wall_s``.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import calibration
import inputs
from critspde import bootstrap, exponents, harness, monitors, sim

F = Fraction


def integrated_steps(sigma_hat: float, dt: float) -> int:
    """Time steps a path integrated: sigma_hat / dt.

    A blown-up path counts the step whose result failed the cap check, since
    the kernel computed it.
    """
    return int(round(sigma_hat / dt))


class Recorder:
    """Times operations, checks their outputs and keeps their timings."""

    GROUP_S = 0.025  # measured time between two calibration kernel runs

    def __init__(self) -> None:
        self.clock = calibration.Clock()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.kind: Dict[str, str] = {}
        self.ref: Dict[str, bool] = {}
        self.steps: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.pass_total = 0.0  # reference-speed seconds since reset
        self._pending: List[Tuple[str, float]] = []
        self._pending_s = 0.0

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {why}")

    def op(self, name: str, kind: str, fn: Callable[[], object],
           check: Optional[Callable[[object], Optional[str]]] = None,
           steps: Optional[Callable[[object], int]] = None,
           ref: bool = False):
        """Time fn(), then check its output outside the timed region.

        An operation fails when it raises or when check returns a message;
        it returns None in the first case and its output otherwise.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(name, f"raised {exc!r}")
            return None
        elapsed = perf_counter() - start
        self._pending.append((name, elapsed))
        self._pending_s += elapsed
        if self._pending_s >= self.GROUP_S:
            self.flush()
        self.kind[name] = kind
        self.ref[name] = ref
        try:
            if steps is not None:
                self.steps[name] = steps(out)
            why = check(out) if check is not None else None
        except Exception as exc:  # malformed output is a wrong output
            why = f"output check raised {exc!r}"
        if why:
            self.fail(name, why)
        return out

    def flush(self) -> None:
        """Close the open group of timings with a calibration kernel run."""
        factor = self.clock.mark()
        for name, raw in self._pending:
            self.samples[name].append(raw * factor)
            self.pass_total += raw * factor
        self._pending, self._pending_s = [], 0.0

    def time(self, name: str) -> float:
        """Median reference-speed time of one operation over the passes."""
        return statistics.median(self.samples[name])

    def gate(self, name: str, why: Optional[str]) -> None:
        """Count one end-of-run check."""
        self.attempted += 1
        if why:
            self.fail(name, why)

    def names(self, kind: str) -> List[str]:
        """Operations of a kind: the workload's own, else reference ones."""
        own = [n for n, k in self.kind.items()
               if k == kind and not self.ref[n]]
        return own or [n for n, k in self.kind.items() if k == kind]


# --- checks ------------------------------------------------------------------


def _all_fractions(*xs) -> bool:
    return all(isinstance(x, Fraction) for x in xs)


def check_draw(g, s, out) -> Optional[str]:
    (te,), (xe,), (sp,) = out
    if not _all_fractions(te.rho_star, te.r, te.r_conj, xe.xi, xe.xi_conj,
                          sp.rho_eff, sp.phi_star, sp.beta_star):
        return "result is not exact"
    c = s.weight_index
    if 1 / te.r + 1 / te.r_conj != 1:
        return f"1/r + 1/r' != 1 at r={te.r}"
    if 1 / xe.xi + 1 / xe.xi_conj != 1:
        return f"1/xi + 1/xi' != 1 at xi={xe.xi}"
    if sp.rho_eff * (sp.phi_star - 1 + c) + sp.beta_star != 1:
        return "star identity broke"
    t = g.f_terms[0]
    if t.rho > 0 and t.rho * (t.phi - 1 + c) + t.beta == 1 \
            and (xe.xi, xe.xi_conj) != (te.r, te.r_conj):
        return "critical term has xi != r"
    return None


def triple_call(s, q, p):
    g = exponents.one_d_growth_params("rough", s=s, q=q)
    kappa = exponents.critical_weight(g, p)
    scale = exponents.SobolevScale(-(1 + s), 1 - s, q)
    return kappa, exponents.trace_space(exponents.Setting(scale, p, kappa))


def check_triple(s, q, p, out) -> Optional[str]:
    kappa, tr = out
    want = -1 + p * (F(3, 2) - s - 1 / q) / 2
    if not _all_fractions(kappa, tr.smoothness, tr.q, tr.p):
        return "result is not exact"
    if kappa != want:
        return f"kappa_crit {kappa} != closed form {want} at ({s}, {q}, {p})"
    if (tr.smoothness, tr.q, tr.p) != (1 / q - F(1, 2), q, p):
        return f"trace space {tr} != B^(1/q-1/2)_(q,p) at ({s}, {q}, {p})"
    return None


def check_report(case: inputs.ReportCase, rep) -> Optional[str]:
    if rep.kappa_crit != case.kappa_crit or (
            rep.kappa_crit is not None
            and not isinstance(rep.kappa_crit, Fraction)):
        return (f"kappa_crit {rep.kappa_crit!r} != closed form "
                f"{case.kappa_crit}")
    for te in rep.exponents or ():
        if not _all_fractions(te.r, te.r_conj, te.rho_star):
            return "exponents are not exact"
        if 1 / te.r + 1 / te.r_conj != 1:
            return f"1/r + 1/r' != 1 in term {te.part}{te.index}"
    return None


def check_plan(case: inputs.PlanCase, chain) -> Optional[str]:
    failed = [c.name for st in chain.steps for c in st.checks if not c.passed]
    if failed:
        return f"emitted checks failed: {failed[:3]}"
    if not bootstrap.chain_composition_ok(chain):
        return "consecutive steps do not compose"
    if case.variant == "L2_start":
        # criterion 5's frozen chain, as functions of eps: at eps = 1/5 it
        # is (r=6, delta=1/10, alpha=7/5) -> r_hat=12 -> case 4 -> p/4
        if len(chain.steps) != 4:
            return f"{len(chain.steps)} steps, expected 4"
        s1, s2, s3, s4 = chain.steps
        eps = case.eps
        if (s1.rule, s1.params.get("r"), s1.params.get("delta"),
                s1.params.get("alpha")) != ("weight_insertion", 6, eps / 2,
                                            2 - 3 * eps):
            return f"insertion step {s1.params} != (6, eps/2, 2-3eps)"
        if s2.params.get("r_hat") != 12 or s3.params.get("emb_case") != 4:
            return "time bootstrap or scale recovery off the frozen chain"
        target = s4.to_setting
        if s4.rule != "space_bootstrap" or target.kappa != target.p / 4 \
                or target.p != s2.params["r_hat"]:
            return f"final setting {target} is not (r_hat, r_hat/4)"
        return None
    kappa = inputs.critical_weight_closed_form(
        (1 / case.q + case.s) / 3 + F(1, 2), case.p)
    if chain.steps[0].from_setting.kappa != kappa:
        return f"base weight {chain.steps[0].from_setting.kappa} != {kappa}"
    if chain.steps[-1].rule != "extrapolation" \
            or len(chain.steps) != (5 if kappa == 0 else 4):
        return f"rough chain has rules {[st.rule for st in chain.steps]}"
    return None


def same_bits(loaded, times: np.ndarray, states: np.ndarray) -> Optional[str]:
    t, x = loaded
    if not (np.array_equal(t, times) and np.array_equal(x, states)):
        return "CSV read-back differs from the states in memory"
    return None


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def check_fit(fit) -> Optional[str]:
    if not _finite(fit.theta_time, fit.theta_space, fit.r2_time, fit.r2_space):
        return "Hoelder fit is not finite"
    return None


def check_x_norms(out) -> Optional[str]:
    if len(out) != 4 or not _finite(*(v.value for v in out)):
        return "continuation-class norms are not four finite values"
    return None


def check_functional(value) -> Optional[str]:
    if not (math.isfinite(value) and value >= 0):
        return f"blow-up functional {value!r} is not finite and >= 0"
    return None


def check_ito(series, traj) -> Optional[str]:
    resid = series.values["residual"]
    if series.times.size != traj.stats.steps_taken:
        return (f"{series.times.size} residuals for "
                f"{traj.stats.steps_taken} steps")
    if not np.all(np.isfinite(resid)):
        return "Ito residual is not finite"
    return None


# --- operation groups shared by workloads ------------------------------------


def calc_ops(rec: Recorder, inp: inputs.CalcInputs, ref: bool) -> None:
    tag = "ref/" if ref else ""
    for j, (g, s) in enumerate(inp.draws):
        rec.op(f"{tag}draw/{j}", "draw",
               lambda: (exponents.rho_star_and_x_exponents(g, s),
                        exponents.xi_exponents(g, s),
                        exponents.star_params(g, s)),
               check=lambda out: check_draw(g, s, out), ref=ref)
    for j, (s, q, p) in enumerate(inp.triples):
        rec.op(f"{tag}triple/{j}", "triple", lambda: triple_call(s, q, p),
               check=lambda out: check_triple(s, q, p, out), ref=ref)
    for j, case in enumerate(inp.reports):
        rec.op(f"{tag}report/{j}", "report",
               lambda: exponents.full_report(case.growth, case.setting),
               check=lambda out: check_report(case, out), ref=ref)
    for j, case in enumerate(inp.plans):
        rec.op(f"{tag}plan/{j}", "plan",
               lambda: bootstrap.full_chain_1d(case.variant, **case.kwargs()),
               check=lambda out: check_plan(case, out), ref=ref)


def monitor_ops(rec: Recorder, prefix: str, traj, setting, report,
                window, ref: bool) -> list:
    """Hoelder fit, continuation-class norms and blow-up functional."""
    fit = rec.op(f"{prefix}/hoelder", "hoelder",
                 lambda: monitors.hoelder_estimate(traj), check=check_fit,
                 ref=ref)
    norms = rec.op(f"{prefix}/x_space_norm", "x_space_norm",
                   lambda: monitors.x_space_norm(traj, report, window),
                   check=check_x_norms, ref=ref)
    value = rec.op(f"{prefix}/blowup_functional", "blowup_functional",
                   lambda: monitors.blowup_functional(traj, setting, window),
                   check=check_functional, ref=ref)
    return [None if fit is None else [fit.theta_time, fit.theta_space],
            None if norms is None else [v.value for v in norms], value]


def ito_op(rec: Recorder, name: str, traj, ref: bool) -> None:
    rec.op(name, "ito", lambda: monitors.ito_energy_residual(traj),
           check=lambda out: check_ito(out, traj), ref=ref)


# --- workloads ---------------------------------------------------------------


class Workload:
    """Seeded inputs, a warm-up, and one pass of timed operations."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def rng(self, part: str):
        return inputs.workload_rng(self.name, self.seed, part)

    def build_inputs(self) -> None:
        """Everything the passes need, drawn from the seed (set-up time)."""
        self.warm = inputs.calc_inputs(self.rng("warm-up"), {
            "draws": 1, "triples": 1, "reports": 1, "plans": 1})
        self.monitor_traj = sim.simulate_path(
            inputs.monitor_config(inputs.master_seed(self.rng("monitor"))),
            n_save=129)
        self.monitor_setting = exponents.Setting(inputs.H2, F(2), F(0))
        self.monitor_report = exponents.full_report(
            exponents.one_d_growth_params("l2_eps", eps=F(0)),
            self.monitor_setting)

    def warm_up(self) -> None:
        """One call into every layer, so no pass pays first-call costs."""
        rec = Recorder()
        calc_ops(rec, self.warm, ref=True)
        cfg = replace(self.monitor_traj.config, t_end=0.01)
        out = self.scratch / "warm-up"
        ens = harness.EnsembleConfig(base=cfg, n_paths=1, n_save=2,
                                     experiment="warm-up", outdir=str(out))
        rec.op("mc_run", "sim", lambda: harness.mc_run(ens), ref=True)
        rec.op("csv", "csv_read", lambda: harness.load_trajectory_csv(
            out / "warm-up" / "path_0.csv"), ref=True)
        monitor_ops(rec, "warm-up", self.monitor_traj, self.monitor_setting,
                    self.monitor_report, (0.05, 0.25), ref=True)
        ito_op(rec, "ito", sim.simulate_path(cfg), ref=True)
        shutil.rmtree(out, ignore_errors=True)
        if rec.failed:
            raise RuntimeError(f"warm-up failed: {rec.errors}")

    def traced_ops(self, rec: Recorder) -> None:
        """Reference operations only the traced run needs, after each traced
        pass: the monitors on one short path, for workloads that run none
        (no end-to-end metric reads them)."""
        monitor_ops(rec, "ref/monitor", self.monitor_traj,
                    self.monitor_setting, self.monitor_report, (0.05, 0.25),
                    ref=True)
        ito_op(rec, "ref/ito", self.monitor_traj, ref=True)

    def run_pass(self, rec: Recorder, k: int) -> None:
        raise NotImplementedError

    def stage_config(self) -> sim.SimConfig:
        """The simulation config the stage probe times."""
        raise NotImplementedError

    def finish(self, rec: Recorder, passes: int) -> None:
        """End-of-run checks."""

    def params(self) -> dict:
        raise NotImplementedError


class EnsembleGlobal(Workload):
    """experiment_global(h=2, noise_scale=3) on the sublinear-global base."""

    name = "ensemble-global"

    def build_inputs(self) -> None:
        super().build_inputs()
        self.inp = inputs.global_inputs(self.rng("global"))
        self.calc = inputs.calc_inputs(self.rng("calc"), inputs.REF_CALC_SIZES)
        self.summaries: Dict[int, bytes] = {}
        self.lone: Dict[int, List[sim.Trajectory]] = {}

    def params(self) -> dict:
        base = self.inp.configs[0].base
        return {"blocks": inputs.GLOBAL_BLOCKS,
                "paths_per_block": inputs.GLOBAL_PATHS,
                "masters": [c.base.seed for c in self.inp.configs],
                "sampled_paths": [list(s) for s in self.inp.sampled],
                "h": inputs.GLOBAL_H, "noise_scale": inputs.GLOBAL_NOISE_SCALE,
                "n": base.grid.n, "modes": base.noise.modes, "dt": base.dt,
                "steps": base.n_steps, "n_save": 2, "parallelism": 1,
                "reference": {
                    "calc": inputs.REF_CALC_SIZES,
                    "monitor_steps": self.monitor_traj.config.n_steps}}

    def stage_config(self) -> sim.SimConfig:
        return replace(self.inp.lone_base, seed=self.inp.configs[0].base.seed)

    def lone_paths(self, b: int) -> List[sim.Trajectory]:
        """Every path of block b run alone at mix_seed(master, i); computed
        on first use, outside any timed region, and kept for the run."""
        if b not in self.lone:
            master = self.inp.configs[b].base.seed
            self.lone[b] = [
                sim.simulate_path(replace(self.inp.lone_base,
                                          seed=harness.mix_seed(master, i)),
                                  n_save=2)
                for i in range(self.inp.configs[b].n_paths)]
        return self.lone[b]

    def block_steps(self, b: int) -> int:
        """Steps the block's paths integrate, counted on the lone runs."""
        return sum(integrated_steps(t.sigma_hat, t.config.dt)
                   for t in self.lone_paths(b))

    def check_block(self, b: int, cfg, rep, summary: Path) -> Optional[str]:
        seeds = tuple(harness.mix_seed(cfg.base.seed, i)
                      for i in range(cfg.n_paths))
        if rep.stats.seeds != seeds:
            return "returned seeds differ from mix_seed(master, i)"
        raw = summary.read_bytes()
        if json.loads(raw)["stats"]["seeds"] != list(seeds):
            return "summary.json seeds differ from mix_seed(master, i)"
        if self.summaries.setdefault(b, raw) != raw:
            return "summary.json differs between repeats of the same inputs"
        # the ensemble's statistics, bit for bit, from the lone runs
        lone = self.lone_paths(b)
        samples = {
            "initial_l2_sq": [t.stats.initial_l2_sq for t in lone],
            "sup_l2_sq": [t.stats.sup_l2_sq for t in lone],
            "grad_integral": [t.stats.grad_integral for t in lone],
            "final_l2_sq": [t.stats.final_l2_sq for t in lone],
            "sigma_hat": [t.sigma_hat for t in lone],
        }
        for name, xs in samples.items():
            got = rep.stats.functionals[name]
            want = (float(np.mean(xs)), float(np.var(xs, ddof=1)))
            if (got.mean, got.var) != want:
                return (f"{name} mean/var {(got.mean, got.var)} differ from "
                        f"the lone runs' {want}")
        survived = sum(t.completed and t.sigma_hat >= cfg.base.t_end - 1e-12
                       for t in lone)
        if rep.survival != survived / cfg.n_paths:
            return (f"survival {rep.survival} != {survived}/{cfg.n_paths} "
                    "of the lone runs")
        return None

    def check_sampled(self, b: int, i: int, loaded) -> Optional[str]:
        lone = self.lone_paths(b)[i]
        times, states = loaded
        if not np.array_equal(states[-1], lone.states[-1]):
            return f"path {i}: final CSV row differs from a lone run"
        completed = times[-1] == lone.config.t_end
        if completed != lone.completed:
            return f"path {i}: status differs from a lone run ({lone.status})"
        return same_bits(loaded, lone.times, lone.states)

    def run_pass(self, rec: Recorder, k: int) -> None:
        for b, cfg in enumerate(self.inp.configs):
            out = self.scratch / f"pass{k}" / f"block{b}"
            run_cfg = replace(cfg, outdir=str(out))
            directory = out / cfg.experiment
            rep = rec.op(
                f"global/{b}", "sim",
                lambda: harness.experiment_global(
                    inputs.GLOBAL_H, run_cfg,
                    noise_scale=inputs.GLOBAL_NOISE_SCALE),
                check=lambda r: self.check_block(
                    b, cfg, r, directory / "summary.json"),
                steps=lambda r: self.block_steps(b))
            if rep is None:
                continue
            for i in self.inp.sampled[b]:
                rec.op(f"csv_read/{b}/{i}", "csv_read",
                       lambda: harness.load_trajectory_csv(
                           directory / f"path_{i}.csv"),
                       check=lambda x: self.check_sampled(b, i, x))
        calc_ops(rec, self.calc, ref=True)
        shutil.rmtree(self.scratch / f"pass{k}", ignore_errors=True)

    def finish(self, rec: Recorder, passes: int) -> None:
        rec.gate("repeat", None if passes >= 2 and len(self.summaries)
                 == len(self.inp.configs) else "no repeat to compare")


class RegularityMonitors(Workload):
    """run_ensemble on the regularity preset, then monitors and read-back."""

    name = "regularity-monitors"

    def build_inputs(self) -> None:
        super().build_inputs()
        self.inp = inputs.regularity_inputs(self.rng("regularity"))
        self.calc = inputs.calc_inputs(self.rng("calc"), inputs.REF_CALC_SIZES)

    def params(self) -> dict:
        base = self.inp.config.base
        return {"paths": self.inp.config.n_paths, "master": base.seed,
                "ito_paths": list(self.inp.ito_paths), "n": base.grid.n,
                "modes": base.noise.modes, "dt": base.dt,
                "steps": base.n_steps, "n_save": self.inp.config.n_save,
                "window": list(inputs.REG_WINDOW), "parallelism": 1,
                "reference": {"calc": inputs.REF_CALC_SIZES}}

    def stage_config(self) -> sim.SimConfig:
        return self.inp.config.base

    def traced_ops(self, rec: Recorder) -> None:
        """The workload's own monitors already cover the monitor layer."""

    def check_ensemble(self, trajs) -> Optional[str]:
        cfg = self.inp.config
        if len(trajs) != cfg.n_paths:
            return f"{len(trajs)} trajectories for {cfg.n_paths} paths"
        for i, t in enumerate(trajs):
            if not t.completed or t.stats.steps_taken != cfg.base.n_steps:
                return f"path {i} ended {t.status} after {t.stats.steps_taken}"
            if t.states.shape != (cfg.n_save, cfg.base.grid.n) \
                    or not np.all(np.isfinite(t.states)):
                return f"path {i} has malformed or non-finite snapshots"
        return None

    def run_pass(self, rec: Recorder, k: int) -> None:
        inp = self.inp
        out = self.scratch / f"pass{k}"
        cfg = replace(inp.config, outdir=str(out))
        directory = out / cfg.experiment
        trajs = rec.op(
            "ensemble", "sim", lambda: harness.run_ensemble(cfg),
            check=self.check_ensemble,
            steps=lambda ts: sum(integrated_steps(t.sigma_hat, cfg.base.dt)
                                 for t in ts))
        if trajs is not None:
            results = {}
            for i, traj in enumerate(trajs):
                rec.op(f"csv_read/{i}", "csv_read",
                       lambda: harness.load_trajectory_csv(
                           directory / f"path_{i}.csv"),
                       check=lambda x: same_bits(x, traj.times, traj.states))
                results[f"path_{i}"] = monitor_ops(
                    rec, f"monitor/{i}", traj, inp.setting, inp.report,
                    inputs.REG_WINDOW, ref=False)
            rec.op("summary_write", "summary_write",
                   lambda: harness.write_summary(directory, results),
                   check=lambda p: None if json.loads(p.read_text())
                   == results else "summary does not read back")
            for i in inp.ito_paths:
                ito_op(rec, f"ito/{i}", trajs[i], ref=False)
        calc_ops(rec, self.calc, ref=True)
        shutil.rmtree(out, ignore_errors=True)


class Calculus(Workload):
    """Exact-exponent draws, critical weights, reports and chain plans."""

    name = "calculus"

    def build_inputs(self) -> None:
        super().build_inputs()
        self.calc = inputs.calc_inputs(self.rng("calc"), inputs.CALC_SIZES)
        self.ref_sim = inputs.ref_sim_configs(self.rng("reference"))
        self.ref_csv: Dict[int, tuple] = {}

    def params(self) -> dict:
        base = self.ref_sim[0].base
        return {**inputs.CALC_SIZES,
                "plan_variants": ["L2_start", "rough"],
                "reference": {"mc_runs": len(self.ref_sim), "paths_per_run": 1,
                              "masters": [c.base.seed for c in self.ref_sim],
                              "n": base.grid.n, "dt": base.dt,
                              "steps": base.n_steps,
                              "monitor_steps":
                                  self.monitor_traj.config.n_steps}}

    def stage_config(self) -> sim.SimConfig:
        return self.ref_sim[0].base

    def check_ref_csv(self, b: int, loaded) -> Optional[str]:
        first = self.ref_csv.setdefault(b, loaded)
        if not all(np.all(np.isfinite(a)) for a in loaded):
            return "reference path has non-finite values"
        return same_bits(loaded, *first)

    def run_pass(self, rec: Recorder, k: int) -> None:
        calc_ops(rec, self.calc, ref=False)
        out = self.scratch / f"pass{k}"
        for b, cfg in enumerate(self.ref_sim):
            cfg = replace(cfg, outdir=str(out / f"block{b}"))
            seed = harness.mix_seed(cfg.base.seed, 0)
            stats = rec.op(
                f"ref/mc_run/{b}", "sim", lambda: harness.mc_run(cfg),
                check=lambda st: None if st.seeds == (seed,)
                else "seed differs from mix_seed(master, 0)",
                steps=lambda st: integrated_steps(
                    st.functionals["sigma_hat"].mean, cfg.base.dt),
                ref=True)
            if stats is not None:
                rec.op(f"ref/csv_read/{b}", "csv_read",
                       lambda: harness.load_trajectory_csv(
                           out / f"block{b}" / cfg.experiment / "path_0.csv"),
                       check=lambda x: self.check_ref_csv(b, x), ref=True)
        shutil.rmtree(out, ignore_errors=True)

WORKLOADS = {w.name: w for w in (EnsembleGlobal, RegularityMonitors, Calculus)}
