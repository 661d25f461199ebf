"""Command line front door for the calculus, planner, simulator, and harness.

Subcommands: calc | plan | simulate | montecarlo | verify.  JSON is the
single config file format; rational parameters are "num/den" strings.
Precedence, lowest to highest: preset defaults, config file fields, command
line flags.  The CRITSPDE_OUTDIR environment variable supplies the default
output directory when --outdir is not given.

Exit codes: 0 on success, 1 on usage errors (unknown flags, malformed or
empty config files), 2 on failed domain checks (window violations, rejected
chains, failed verification suites).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import acceptance
from .bootstrap import chain_to_dict, full_chain_1d
from .exponents import (
    ParameterError,
    Setting,
    fraction_from_json,
    fraction_to_json,
    full_report,
    growth_spec_from_dict,
    growth_spec_to_dict,
    one_d_growth_params,
    report_to_dict,
    setting_from_dict,
    setting_to_dict,
    trace_space,
)
from .harness import EnsembleConfig, mc_run, save_trajectory_csv, write_summary
from .presets import CHAIN_PRESETS, SIM_PRESETS
from .sim import NoiseSpec, TorusGrid, simulate_path

__all__ = ["main"]

_OUTDIR_ENV = "CRITSPDE_OUTDIR"


class CliError(Exception):
    """Error with an explicit process exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e}", 1)
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {path}: {e}", 1)
    if not isinstance(data, dict):
        raise CliError(f"config {path} must hold a JSON object", 1)
    return data


def _resolve_outdir(args, cfg: dict) -> Path:
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    if cfg.get("outdir"):
        return Path(cfg["outdir"])
    return Path(os.environ.get(_OUTDIR_ENV, "critspde-out"))


# --- calc -----------------------------------------------------------------------


_GROWTH_FLAGS = ("variant", "eps", "zeta", "s", "q", "nu")


def _build_growth(section: dict):
    if "variant" in section:
        kwargs = {}
        for key in ("eps", "zeta", "s", "q", "nu"):
            if section.get(key) is not None:
                kwargs[key] = fraction_from_json(section[key])
        return one_d_growth_params(section["variant"], **kwargs)
    if section.get("f_terms") or section.get("g_terms"):
        return growth_spec_from_dict(section)
    raise CliError("empty calc config: give a growth variant or explicit "
                   "f_terms/g_terms", 1)


def _build_setting(section: dict) -> Setting:
    merged = {
        "scale": {"low": "-1", "high": "1", "q": "2"},
        "p": "2",
        "kappa": "0",
    }
    merged["scale"].update(section.get("scale", {}))
    for key in ("p", "kappa"):
        if section.get(key) is not None:
            merged[key] = section[key]
    return setting_from_dict(merged)


def _format_setting(s: Setting) -> str:
    sc = s.scale
    return (f"scale [{sc.low}, {sc.high}] q={sc.q}, p={s.p}, kappa={s.kappa}")


def _format_param(value) -> str:
    if isinstance(value, Fraction):
        return fraction_to_json(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_format_param(v) for v in value) + ")"
    return str(value)


def _render_report(report, s: Setting) -> list:
    lines = [f"setting: {_format_setting(s)} (weight index {s.weight_index})"]
    header = (f"{'term':<6}{'rho':>8}{'phi':>10}{'beta':>10}"
              f"{'lhs':>10}{'slack':>10}  window    critical")
    lines.append(header)
    for tc in report.terms:
        t = tc.term
        lines.append(
            f"{tc.part + '[' + str(tc.index) + ']':<6}{str(t.rho):>8}"
            f"{str(t.phi):>10}{str(t.beta):>10}{str(tc.lhs):>10}"
            f"{str(tc.slack):>10}  {'ok' if tc.window_ok else 'VIOLATED':<8}"
            f"  {'yes' if tc.critical else 'no'}")
    if report.all_subcritical:
        verdict = "critical" if report.is_critical else "strictly subcritical"
    else:
        verdict = "supercritical"
    lines.append(f"verdict: windows "
                 f"{'ok' if report.all_windows_ok else 'violated'}, {verdict}")
    if report.kappa_crit is not None:
        binding = ", ".join(f"{p}[{i}]" for p, i in report.binding_terms)
        lines.append(f"critical weight kappa_crit = {report.kappa_crit}"
                     f" (binding: {binding})")
        try:
            bd = trace_space(Setting(s.scale, s.p, report.kappa_crit))
            lines.append(f"trace space at kappa_crit: "
                         f"B^({bd.smoothness})_({bd.q},{bd.p})")
        except ParameterError:
            pass
    bd = trace_space(s)
    lines.append(f"trace space at kappa={s.kappa}: "
                 f"B^({bd.smoothness})_({bd.q},{bd.p})")
    if report.exponents:
        for te in report.exponents:
            spaces = " and ".join(
                f"L^({e.time_exponent})(H^({e.smoothness}), q={e.space_q})"
                for e in te.x_entries)
            lines.append(f"{te.part}[{te.index}]: rho*={te.rho_star}, "
                         f"r={te.r}, r'={te.r_conj}, X = {spaces}")
    return lines


def _cmd_calc(args) -> int:
    cfg = _load_config(args.config)
    if args.config is not None and not cfg:
        raise CliError(f"config {args.config} is empty", 1)
    growth_section = dict(cfg.get("growth", {}))
    for key in _GROWTH_FLAGS:
        value = getattr(args, key)
        if value is not None:
            growth_section[key] = value if key == "variant" else str(value)
    setting_section = dict(cfg.get("setting", {}))
    for key in ("p", "kappa"):
        value = getattr(args, key)
        if value is not None:
            setting_section[key] = str(value)
    scale_section = dict(setting_section.get("scale", {}))
    for flag, key in (("scale_low", "low"), ("scale_high", "high"),
                      ("scale_q", "q")):
        value = getattr(args, flag)
        if value is not None:
            scale_section[key] = str(value)
    if scale_section:
        setting_section["scale"] = scale_section

    g = _build_growth(growth_section)
    s = _build_setting(setting_section)
    report = full_report(g, s)
    for line in _render_report(report, s):
        print(line)
    payload = {
        "growth": growth_spec_to_dict(g),
        "setting": setting_to_dict(s),
        "report": report_to_dict(report),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not report.all_windows_ok:
        c = s.weight_index
        for tc in report.terms:
            if not tc.window_ok:
                print(f"window violation in {tc.part}[{tc.index}]: "
                      f"phi={tc.term.phi}, beta={tc.term.beta} outside "
                      f"phi in ({1 - c}, 1), beta in ({1 - c}, phi]",
                      file=sys.stderr)
        return 2
    return 0


# --- plan -----------------------------------------------------------------------


_VARIANTS = {"l2_start": "L2_start", "rough": "rough"}


def _cmd_plan(args) -> int:
    cfg = _load_config(args.config)
    preset = args.preset or cfg.get("preset")
    if preset is not None:
        if preset not in CHAIN_PRESETS:
            raise CliError(f"unknown chain preset {preset!r}; choose from "
                           f"{sorted(CHAIN_PRESETS)}", 1)
        chain = CHAIN_PRESETS[preset]()
    else:
        variant = args.variant or cfg.get("variant")
        if variant is None:
            raise CliError("plan needs --preset or --variant", 1)
        key = str(variant).lower()
        if key not in _VARIANTS:
            raise CliError(f"unknown variant {variant!r}; choose from "
                           f"{sorted(_VARIANTS)}", 1)
        kwargs = {}
        for name in ("eps", "s", "q", "p"):
            value = getattr(args, name)
            if value is None and cfg.get(name) is not None:
                value = fraction_from_json(cfg[name])
            if value is not None:
                kwargs[name] = value
        chain = full_chain_1d(_VARIANTS[key], **kwargs)
    for idx, st in enumerate(chain.steps, start=1):
        params = ", ".join(f"{k}={_format_param(v)}"
                           for k, v in st.params.items())
        print(f"step {idx}: {st.rule}")
        print(f"  from {_format_setting(st.from_setting)}")
        print(f"  to   {_format_setting(st.to_setting)}")
        print(f"  params: {params}")
        print(f"  checks: {len(st.checks)} passed")
    cl = chain.claim
    print(f"terminal claim: theta_sup={cl.theta_sup}, "
          f"time exponent {cl.time_exponent}, smoothness {cl.smoothness}")
    print(json.dumps(chain_to_dict(chain), indent=2, sort_keys=True))
    return 0


# --- simulate / montecarlo --------------------------------------------------------


# the config-file fields of simulate and montecarlo, parsed as their flags
_SIM_FIELDS = {"dt": _positive_float, "t_end": _positive_float, "seed": int,
               "scheme": str, "blowup_cap": _positive_float,
               "grid_n": _positive_int, "noise_lam": _positive_float,
               "noise_modes": _positive_int, "n_save": _positive_int,
               "n_paths": _positive_int}


def _pick(args, cfg: dict, key: str):
    """The flag's value if given, else the config field's, else None."""
    value = getattr(args, key)
    if value is not None or cfg.get(key) is None:
        return value
    try:
        return _SIM_FIELDS[key](str(cfg[key]))
    except (argparse.ArgumentTypeError, ValueError) as e:
        raise CliError(f"config field {key!r}: {e}", 1)


def _build_sim_config(args, cfg: dict):
    preset = args.preset or cfg.get("preset")
    if preset is None:
        raise CliError("a simulation preset is required (--preset or a "
                       "\"preset\" config field)", 1)
    if preset not in SIM_PRESETS:
        raise CliError(f"unknown simulation preset {preset!r}; choose from "
                       f"{sorted(SIM_PRESETS)}", 1)
    sim_cfg = SIM_PRESETS[preset]()
    # one replace, so the config is checked only as a whole
    fields = {}
    for key in ("dt", "t_end", "seed", "scheme", "blowup_cap"):
        value = _pick(args, cfg, key)
        if value is not None:
            fields[key] = value
    grid_n = _pick(args, cfg, "grid_n")
    if grid_n is not None:
        fields["grid"] = TorusGrid(grid_n)
    lam = _pick(args, cfg, "noise_lam")
    modes = _pick(args, cfg, "noise_modes")
    if lam is not None or modes is not None:
        base = sim_cfg.noise or NoiseSpec()
        fields["noise"] = NoiseSpec(
            lam=lam if lam is not None else base.lam,
            modes=modes if modes is not None else base.modes)
    if fields:
        sim_cfg = replace(sim_cfg, **fields)
    return sim_cfg, _pick(args, cfg, "n_save")


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sim_cfg, n_save = _build_sim_config(args, cfg)
    traj = simulate_path(sim_cfg, n_save=n_save)
    outdir = _resolve_outdir(args, cfg) / "simulate"
    outdir.mkdir(parents=True, exist_ok=True)
    save_trajectory_csv(traj, outdir / "path_0.csv")
    write_summary(outdir, {
        "status": traj.status,
        "sigma_hat": traj.sigma_hat,
        "dt": sim_cfg.dt,
        "t_end": sim_cfg.t_end,
        "seed": sim_cfg.seed,
        "stats": asdict(traj.stats),
    })
    print(f"status {traj.status}, sigma_hat {traj.sigma_hat:.6g}, "
          f"{len(traj.times)} saved states -> {outdir}")
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _load_config(args.config)
    sim_cfg, n_save = _build_sim_config(args, cfg)
    outdir = _resolve_outdir(args, cfg)
    ens = EnsembleConfig(
        base=sim_cfg,
        n_paths=_pick(args, cfg, "n_paths") or 8,
        experiment=args.experiment or cfg.get("experiment", "montecarlo"),
        outdir=str(outdir),
        n_save=n_save,
    )
    stats = mc_run(ens)
    print(json.dumps(asdict(stats), indent=2, sort_keys=True))
    print(f"survival {stats.survival}, outputs -> "
          f"{outdir / ens.experiment}", file=sys.stderr)
    return 0


# --- verify ------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    results = acceptance.run_suite(args.suite)
    for num, res in results:
        print(acceptance.format_result(num, res))
    failed = [num for num, res in results if not res.passed]
    total = len(results)
    if failed:
        print(f"{total - len(failed)}/{total} checks passed; "
              f"failed: {failed}")
        return 2
    print(f"{total}/{total} checks passed")
    return 0


# --- parser ------------------------------------------------------------------------


def _add_sim_flags(sub) -> None:
    sub.add_argument("--preset", choices=sorted(SIM_PRESETS),
                     help="simulation preset supplying grid and nonlinearity")
    sub.add_argument("--dt", type=_positive_float, help="time step")
    sub.add_argument("--t-end", type=_positive_float, help="time horizon")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--scheme", choices=("exp_euler", "semi_implicit"),
                     help="time stepping scheme")
    sub.add_argument("--blowup-cap", type=_positive_float,
                     help="sup-norm threshold treated as blow-up, at most "
                          "1e50 so the squared norms stay finite")
    sub.add_argument("--grid-n", type=_positive_int,
                     help="collocation points (power of two)")
    sub.add_argument("--noise-lam", type=_positive_float,
                     help="noise spectral decay exponent")
    sub.add_argument("--noise-modes", type=_positive_int,
                     help="noise mode cutoff")
    sub.add_argument("--n-save", type=_positive_int,
                     help="number of saved states per path")
    sub.add_argument("--outdir", help=f"output directory (default from "
                                      f"${_OUTDIR_ENV} or ./critspde-out)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="critspde",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", metavar="subcommand")

    calc = subs.add_parser("calc", help="criticality report for a growth "
                                        "spec at a setting")
    calc.add_argument("--config", "-c", help="JSON config with growth/setting")
    calc.add_argument("--variant", choices=("l2_eps", "lzeta", "rough"),
                      help="named growth family")
    for name in ("eps", "zeta", "s", "q", "nu"):
        calc.add_argument(f"--{name}", type=_rational,
                          help=f"growth parameter {name} (rational)")
    calc.add_argument("--p", type=_rational, help="time integrability")
    calc.add_argument("--kappa", type=_rational, help="time weight power")
    calc.add_argument("--scale-low", type=_rational,
                      help="bottom smoothness of the space scale")
    calc.add_argument("--scale-high", type=_rational,
                      help="top smoothness of the space scale")
    calc.add_argument("--scale-q", type=_rational,
                      help="spatial integrability of the scale")
    calc.set_defaults(func=_cmd_calc)

    plan = subs.add_parser("plan", help="validated bootstrap chain")
    plan.add_argument("--config", "-c", help="JSON config with chain fields")
    plan.add_argument("--preset", choices=sorted(CHAIN_PRESETS),
                      help="named reference chain")
    plan.add_argument("--variant", help="chain variant: l2_start or rough")
    plan.add_argument("--eps", type=_rational,
                      help="drift growth margin for l2_start")
    plan.add_argument("--s", type=_rational, help="data roughness for rough")
    plan.add_argument("--q", type=_rational,
                      help="data integrability for rough")
    plan.add_argument("--p", type=_rational,
                      help="trace integrability for rough")
    plan.set_defaults(func=_cmd_plan)

    simulate = subs.add_parser("simulate", help="run one path, write CSV")
    simulate.add_argument("--config", "-c", help="JSON simulation config")
    _add_sim_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    mc = subs.add_parser("montecarlo", help="run an ensemble, write summary")
    mc.add_argument("--config", "-c", help="JSON ensemble config")
    _add_sim_flags(mc)
    mc.add_argument("--n-paths", type=_positive_int, help="ensemble size")
    mc.add_argument("--experiment", help="output subdirectory name")
    mc.set_defaults(func=_cmd_montecarlo)

    verify = subs.add_parser("verify", help="run an acceptance suite")
    verify.add_argument("suite", nargs="?", default="all",
                        choices=sorted(acceptance.SUITES),
                        help="suite name (default: all)")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.error("a subcommand is required")
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ParameterError as e:
        print(f"check failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
