"""Command line front door for the calculus, planner, simulator, and harness.

Subcommands: calc | plan | simulate | montecarlo | verify.  JSON is the
single config file format; rational parameters are "num/den" strings.
Precedence, lowest to highest: preset defaults, config file fields, command
line flags.  Every config field is read as its flag, with the same type and
choices; a null field counts as absent.  The CRITSPDE_OUTDIR environment
variable supplies the default output directory when --outdir is not given.

Exit codes: 0 on success, 1 on usage errors (unknown flags, malformed or
empty config files, a config field its flag would reject, named in the
message), 2 on failed domain checks (window violations, rejected chains,
failed verification suites).
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
    SobolevScale,
    fraction_from_json,
    fraction_to_json,
    full_report,
    growth_spec_from_dict,
    growth_spec_to_dict,
    one_d_growth_params,
    report_to_dict,
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
    """argparse parser whose usage errors exit with code 1, not 2, and whose
    parsed namespace carries the action of each option as `actions`, so that
    _pick parses a config field with its flag's own type and choices."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        actions = self.get_default("actions") or {}
        self.set_defaults(actions={**actions, action.dest: action})
        return action


# Each type function reads a flag's text and a config field's JSON value
# alike.  str() of a JSON number is the text its flag would carry, and no
# number parses the str() of true, a list or an object.


def _string(value) -> str:
    if not isinstance(value, str):
        raise argparse.ArgumentTypeError(f"not a string: {value!r}")
    return value


def _lowercase(value) -> str:
    return _string(value).lower()


def _directory_name(value) -> str:
    """One plain directory name: not empty, not . or .., no separator."""
    name = _string(value)
    if name in ("", ".", "..") or any(
            sep in name for sep in (os.sep, os.altsep) if sep):
        raise argparse.ArgumentTypeError(
            f"not a plain directory name: {name!r}")
    return name


def _rational(value) -> Fraction:
    """A Fraction; a JSON number snaps as in as_fraction, so 0.2 means 1/5."""
    try:
        return fraction_from_json(value)
    except ParameterError:
        raise argparse.ArgumentTypeError(f"not a rational number: {value!r}")


def _integer(value) -> int:
    try:
        return int(str(value))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")


def _positive_int(value) -> int:
    number = _integer(value)
    if number <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return number


def _positive_float(value) -> float:
    try:
        number = float(str(value))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}")
    if number <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return number


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e}", 1)
    except (ValueError, RecursionError) as e:  # also bad UTF-8, deep nesting
        raise CliError(f"malformed JSON in {path}: {e}", 1)
    if not isinstance(data, dict):
        raise CliError(f"config {path} must hold a JSON object", 1)
    return data


def _section(cfg: dict, key: str) -> dict:
    """The JSON object under key; {} when the key is absent or null."""
    section = cfg.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise CliError(f"config field {key!r}: not a JSON object: "
                       f"{section!r}", 1)
    return section


def _pick(args, section: dict, key: str, flag: Optional[str] = None):
    """The flag's value (dest flag, default key) if the user gave it, else
    section[key] parsed by the flag's own type and choices, else None."""
    flag = flag or key
    value = getattr(args, flag)
    if value is not None or section.get(key) is None:
        return value
    action = args.actions[flag]
    try:
        value = (action.type or _string)(section[key])
    except argparse.ArgumentTypeError as e:
        raise CliError(f"config field {key!r}: {e}", 1)
    if action.choices is not None and value not in action.choices:
        raise CliError(f"config field {key!r}: invalid choice: {value!r} "
                       f"(choose from {', '.join(action.choices)})", 1)
    return value


def _picked(args, section: dict, keys, prefix: str = "") -> dict:
    """{key: value} of the keys that _pick finds a value for, each with the
    flag prefix + key."""
    picked = {key: _pick(args, section, key, prefix + key) for key in keys}
    return {key: value for key, value in picked.items() if value is not None}


# --- calc -----------------------------------------------------------------------


def _build_growth(args, cfg: dict):
    section = _section(cfg, "growth")
    variant = _pick(args, section, "variant")
    if variant is not None:
        return one_d_growth_params(variant, **_picked(
            args, section, ("eps", "zeta", "s", "q", "nu")))
    if section.get("f_terms") or section.get("g_terms"):
        return growth_spec_from_dict(section)
    raise CliError("empty calc config: give a growth variant or explicit "
                   "f_terms/g_terms", 1)


def _build_setting(args, cfg: dict) -> Setting:
    section = _section(cfg, "setting")
    scale = _picked(args, _section(section, "scale"), ("low", "high", "q"),
                    "scale_")
    return Setting(SobolevScale(**{"low": -1, "high": 1, "q": 2, **scale}),
                   **{"p": 2, "kappa": 0,
                      **_picked(args, section, ("p", "kappa"))})


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
    g = _build_growth(args, cfg)
    s = _build_setting(args, cfg)
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
    preset = _pick(args, cfg, "preset")
    if preset is not None:
        chain = CHAIN_PRESETS[preset]()
    else:
        variant = _pick(args, cfg, "variant")
        if variant is None:
            raise CliError("plan needs --preset or --variant", 1)
        chain = full_chain_1d(_VARIANTS[variant],
                              **_picked(args, cfg, ("eps", "s", "q", "p")))
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


def _resolve_outdir(args, cfg: dict) -> Path:
    return Path(_pick(args, cfg, "outdir")
                or os.environ.get(_OUTDIR_ENV, "critspde-out"))


def _build_sim_config(args, cfg: dict):
    preset = _pick(args, cfg, "preset")
    if preset is None:
        raise CliError("a simulation preset is required (--preset or a "
                       "\"preset\" config field)", 1)
    sim_cfg = SIM_PRESETS[preset]()
    # one replace, so the config is checked only as a whole
    fields = _picked(args, cfg, ("dt", "t_end", "seed", "scheme", "blowup_cap"))
    grid_n = _pick(args, cfg, "grid_n")
    if grid_n is not None:
        fields["grid"] = TorusGrid(grid_n)
    noise = _picked(args, cfg, ("noise_lam", "noise_modes"))
    if noise:
        fields["noise"] = replace(sim_cfg.noise or NoiseSpec(), **{
            key.removeprefix("noise_"): value for key, value in noise.items()})
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
    experiment = _pick(args, cfg, "experiment")
    ens = EnsembleConfig(
        base=sim_cfg,
        n_paths=_pick(args, cfg, "n_paths") or 8,
        experiment="montecarlo" if experiment is None else experiment,
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
    sub.add_argument("--seed", type=_integer, help="master seed")
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
    plan.add_argument("--variant", type=_lowercase, choices=sorted(_VARIANTS),
                      help="chain variant (any case)")
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
    mc.add_argument("--experiment", type=_directory_name,
                    help="output subdirectory name: one plain directory "
                         "name, not . or .. and without a path separator")
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
