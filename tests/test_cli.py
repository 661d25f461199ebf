"""Exit codes, config precedence, and rendering of the command line tool."""

import contextlib
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import critspde.cli
from critspde.cli import main


def invoke(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def json_payload(out):
    head, body = out.split("\n{", 1)
    return json.loads("{" + body)


def test_calc_energy_space_instance(capsys):
    code, out, err = invoke(["calc", "--variant", "l2_eps", "--eps", "0"],
                            capsys)
    assert code == 0
    assert "critical weight kappa_crit = 0" in out
    assert "rho*=2, r=3, r'=3/2" in out
    payload = json_payload(out)
    assert payload["report"]["is_critical"] is True
    assert payload["report"]["kappa_crit"] == "0"


def test_calc_rough_config_file(tmp_path, capsys):
    cfg = {
        "growth": {"variant": "rough", "s": "1/5", "q": "5/2"},
        "setting": {
            "scale": {"low": "-6/5", "high": "4/5", "q": "5/2"},
            "p": "4",
            "kappa": "4/5",
        },
    }
    path = tmp_path / "rough.json"
    path.write_text(json.dumps(cfg))
    code, out, err = invoke(["calc", "--config", str(path)], capsys)
    assert code == 0
    assert "critical weight kappa_crit = 4/5" in out
    assert "trace space at kappa_crit: B^(-1/10)_(5/2,4)" in out


def test_calc_flag_overrides_file(tmp_path, capsys):
    cfg = {"growth": {"variant": "l2_eps", "eps": "0"}}
    path = tmp_path / "l2.json"
    path.write_text(json.dumps(cfg))
    code, out, err = invoke(
        ["calc", "--config", str(path), "--eps", "1/5"], capsys)
    assert code == 0
    assert "supercritical" in out  # eps=1/5 is supercritical at kappa=0


def test_calc_malformed_json(tmp_path, capsys):
    # a field nested past the decoder's recursion limit is malformed too
    path = tmp_path / "bad.json"
    for text in ("{", '{"eps": ' + "[" * 100000 + "]" * 100000 + "}"):
        path.write_text(text)
        code, out, err = invoke(["calc", "--config", str(path)], capsys)
        assert code == 1
        assert "malformed JSON" in err


def test_calc_empty_config(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, out, err = invoke(["calc", "--config", str(path)], capsys)
    assert code == 1


def test_calc_window_violation_exit_2(capsys):
    code, out, err = invoke(
        ["calc", "--variant", "l2_eps", "--eps", "0", "--p", "4"], capsys)
    assert code == 2
    assert "window violation in f[0]" in err
    assert "window violation in g[0]" in err


def test_plan_l2_start_renders_chain(capsys):
    code, out, err = invoke(["plan", "--variant", "l2_start"], capsys)
    assert code == 0
    assert "step 1: weight_insertion" in out
    assert "r=6, delta=1/10, alpha=7/5" in out
    assert "theta_sup=1/2" in out
    payload = json_payload(out)
    rules = [st["rule"] for st in payload["steps"]]
    assert rules == ["weight_insertion", "time_bootstrap",
                     "space_bootstrap", "space_bootstrap"]


def test_plan_rough_preset(capsys):
    code, out, err = invoke(["plan", "--preset", "rough-data-chain"], capsys)
    assert code == 0
    assert "extrapolation" in out


def test_plan_requires_variant_or_preset(capsys):
    code, out, err = invoke(["plan"], capsys)
    assert code == 1


def test_plan_rejected_parameters_exit_2(capsys):
    code, out, err = invoke(
        ["plan", "--variant", "l2_start", "--eps", "1/3"], capsys)
    assert code == 2
    assert "check failure" in err


def test_simulate_heat_writes_files(tmp_path, capsys):
    out_a = tmp_path / "a"
    code, out, err = invoke(
        ["simulate", "--preset", "heat", "--outdir", str(out_a)], capsys)
    assert code == 0
    assert "status completed" in out
    summary = json.loads((out_a / "simulate" / "summary.json").read_text())
    assert summary["status"] == "completed"
    assert (out_a / "simulate" / "path_0.csv").exists()

    out_b = tmp_path / "b"
    invoke(["simulate", "--preset", "heat", "--outdir", str(out_b)], capsys)
    assert (out_a / "simulate" / "path_0.csv").read_bytes() == \
        (out_b / "simulate" / "path_0.csv").read_bytes()


def test_simulate_outdir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRITSPDE_OUTDIR", str(tmp_path / "envout"))
    code, out, err = invoke(["simulate", "--preset", "heat"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "simulate" / "summary.json").exists()


def test_simulate_unknown_preset_is_usage_error(capsys):
    code, out, err = invoke(["simulate", "--preset", "nope"], capsys)
    assert code == 1


def test_simulate_requires_preset(capsys):
    code, out, err = invoke(["simulate"], capsys)
    assert code == 1


def test_montecarlo_summary(tmp_path, capsys):
    code, out, err = invoke(
        ["montecarlo", "--preset", "linear-noise", "--t-end", "0.25",
         "--n-paths", "4", "--n-save", "3",
         "--outdir", str(tmp_path)], capsys)
    assert code == 0
    stats = json.loads(out)
    assert stats["n_paths"] == 4
    assert stats["survival"] == 1.0
    assert (tmp_path / "montecarlo" / "summary.json").exists()


def test_montecarlo_cap_past_its_limit_exit_2(tmp_path, capsys):
    code, out, err = invoke(
        ["montecarlo", "--preset", "heat", "--blowup-cap", "1e300",
         "--n-paths", "2", "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert "blow-up cap must lie in (0, 1e50]" in err
    assert not (tmp_path / "montecarlo").exists()


def test_montecarlo_config_file_fields(tmp_path, capsys):
    cfg = {"preset": "heat", "n_paths": 3, "n_save": 2,
           "outdir": str(tmp_path / "fromfile")}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    code, out, err = invoke(["montecarlo", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["n_paths"] == 3
    assert (tmp_path / "fromfile" / "montecarlo" / "summary.json").exists()


BAD_EXPERIMENTS = ["", ".", "..", "../../esc", "a/b", "/abs"]


@pytest.mark.parametrize("name", BAD_EXPERIMENTS)
def test_montecarlo_experiment_flag_is_one_plain_name(name, tmp_path,
                                                      capsys):
    # the experiment names a subdirectory of --outdir: an empty name, . and
    # .. or a path would write somewhere else
    outdir = tmp_path / "x" / "o"
    code, out, err = invoke(
        ["montecarlo", "--preset", "linear-noise", "--n-paths", "1", "--t-end",
         "0.01", "--outdir", str(outdir), f"--experiment={name}"], capsys)
    assert code == 1
    assert "not a plain directory name" in err
    assert [p.name for p in tmp_path.iterdir()] == []


@pytest.mark.parametrize("name", BAD_EXPERIMENTS)
def test_montecarlo_experiment_field_is_one_plain_name(name, tmp_path,
                                                       capsys):
    outdir = tmp_path / "x" / "o"
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"preset": "linear-noise", "n_paths": 1,
                                "t_end": 0.01, "outdir": str(outdir),
                                "experiment": name}))
    code, out, err = invoke(["montecarlo", "--config", str(path)], capsys)
    assert code == 1
    assert err == (f"error: config field 'experiment': not a plain "
                   f"directory name: {name!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["mc.json"]


def test_montecarlo_experiment_names_a_subdirectory(tmp_path, capsys):
    code, out, err = invoke(
        ["montecarlo", "--preset", "linear-noise", "--n-paths", "1", "--t-end",
         "0.01", "--outdir", str(tmp_path), "--experiment", "..run.1"],
        capsys)
    assert code == 0
    assert (tmp_path / "..run.1" / "summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["--variant", "rough", "--s", "1/5", "--q", "5/2", "--p", "0"],
    ["--variant", "rough", "--s", "1/5", "--q", "5/2", "--p=-4"]])
def test_plan_nonpositive_p_exit_2(argv, capsys):
    code, out, err = invoke(["plan", *argv], capsys)
    assert code == 2
    assert err == "check failure: time integrability p must be >= 2\n"


@pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--t-end", "inf"),
                                         ("--dt", "inf"), ("--t-end", "nan")])
def test_simulate_non_finite_time_exit_2(flag, value, tmp_path, capsys):
    code, out, err = invoke(["simulate", "--preset", "heat", flag, value,
                             "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert "time step and horizon must be positive and finite" in err
    assert not (tmp_path / "simulate").exists()


def test_simulate_negative_seed_exit_2(tmp_path, capsys):
    # the path seed seeds PCG64, which takes no negative seed (a montecarlo
    # master seed may be negative: it is mixed into the path seeds)
    code, out, err = invoke(["simulate", "--preset", "linear-noise",
                             "--seed=-1", "--t-end", "0.01",
                             "--outdir", str(tmp_path)], capsys)
    assert code == 2
    assert "a path seed must be non-negative, not -1" in err
    assert not (tmp_path / "simulate").exists()


SIM_FIELDS = {"dt": "abc", "t_end": [0.5], "seed": "1.5",
              "blowup_cap": "big", "grid_n": "abc", "noise_lam": {"x": 1},
              "noise_modes": "-3", "n_save": "many"}


@pytest.mark.parametrize("command, key", [
    *(("simulate", key) for key in sorted(SIM_FIELDS)),
    *(("montecarlo", key) for key in sorted(SIM_FIELDS) + ["n_paths"])])
def test_malformed_config_field_is_usage_error(command, key, tmp_path,
                                               capsys):
    # a field of the wrong type ends in exit 1 with a message naming it,
    # as the module docstring promises for malformed config files
    cfg = {"preset": "linear-noise", "outdir": str(tmp_path),
           key: SIM_FIELDS.get(key, "abc")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = invoke([command, "--config", str(path)], capsys)
    assert code == 1
    assert f"error: config field '{key}'" in err
    assert not (tmp_path / command).exists()


def test_malformed_config_prints_no_traceback(tmp_path):
    for key in ("grid_n", "dt"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"preset": "heat", key: "abc",
                                    "outdir": str(tmp_path)}))
        proc = subprocess.run(
            [sys.executable, "-m", "critspde", "simulate", "--config",
             str(path)], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 1
        assert proc.stderr == (f"error: config field '{key}': not "
                               f"{'an integer' if key == 'grid_n' else 'a number'}"
                               f": 'abc'\n")


def test_config_fields_match_their_flags(tmp_path, capsys):
    # the golden montecarlo case run from a config file: the same bytes
    golden = Path(__file__).parent / "golden" / "montecarlo_linear_noise"
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"preset": "linear-noise", "n_paths": 4,
                                "t_end": 0.05, "seed": 7, "n_save": 6,
                                "outdir": str(tmp_path)}))
    code, out, err = invoke(["montecarlo", "--config", str(path)], capsys)
    assert code == 0
    assert out.encode() == (golden / "stdout.txt").read_bytes()
    for name in ("summary.json", "path_2.csv"):
        assert (tmp_path / "montecarlo" / name).read_bytes() == \
            (golden / name).read_bytes()
    # every simulate field given in the file or as flags; grid_n 32 is
    # valid only with the noise cutoff that comes with it
    fields = {"dt": 0.002, "t_end": 0.1, "seed": 5, "scheme":
              "semi_implicit", "blowup_cap": 1e3, "grid_n": 32,
              "noise_lam": 0.8, "noise_modes": 4, "n_save": 5}
    path.write_text(json.dumps({"preset": "linear-noise",
                                "outdir": str(tmp_path / "file"), **fields}))
    flags = [f"--{key.replace('_', '-')}={value}"
             for key, value in fields.items()]
    assert invoke(["simulate", "--config", str(path)], capsys)[0] == 0
    assert invoke(["simulate", "--preset", "linear-noise", *flags,
                   "--outdir", str(tmp_path / "flags")], capsys)[0] == 0
    for name in ("summary.json", "path_0.csv"):
        assert (tmp_path / "file" / "simulate" / name).read_bytes() == \
            (tmp_path / "flags" / "simulate" / name).read_bytes()
    # the golden calc case with its setting from flags, and the golden
    # l2_start plan from a config file (the variant in any case)
    path.write_text(json.dumps({"growth": {
        "f_terms": [{"rho": "1", "phi": "7/8", "beta": "3/4"}],
        "g_terms": [{"rho": "0", "phi": "3/4", "beta": "3/4"}]}}))
    code, out, err = invoke(["calc", "--config", str(path), "--scale-low=-1",
                             "--scale-high", "1", "--scale-q", "2", "--p",
                             "4", "--kappa", "1/2"], capsys)
    assert code == 0
    assert out.encode() == (golden.parent / "calc_config_critical" /
                            "stdout.txt").read_bytes()
    path.write_text(json.dumps({"variant": "L2_start"}))
    code, out, err = invoke(["plan", "--config", str(path)], capsys)
    assert code == 0
    assert out.encode() == (golden.parent / "plan_l2_start" /
                            "stdout.txt").read_bytes()
    # every calc and plan field in the file or as flags; a JSON number
    # snaps to the rational its decimal text names
    for command, cfg, fields in CALC_PLAN_FIELDS:
        path.write_text(json.dumps(cfg))
        from_file = invoke([command, "--config", str(path)], capsys)
        flags = [f"--{flag.replace('_', '-')}={value}"
                 for flag, value in fields.items()]
        assert from_file[0] == 0
        assert from_file == invoke([command, *flags], capsys)


CALC_PLAN_FIELDS = [
    ("calc", {"growth": {"variant": "rough", "s": 0.2, "q": "5/2", "nu": 1},
              "setting": {"scale": {"low": "-6/5", "high": 0.8, "q": 2.5},
                          "p": 4, "kappa": "4/5"}},
     {"variant": "rough", "s": "1/5", "q": "5/2", "nu": "1",
      "scale_low": "-6/5", "scale_high": "4/5", "scale_q": "5/2", "p": "4",
      "kappa": "4/5"}),
    ("calc", {"growth": {"variant": "lzeta", "zeta": 3}},
     {"variant": "lzeta", "zeta": "3"}),
    ("calc", {"growth": {"variant": "l2_eps", "eps": 0.1}},
     {"variant": "l2_eps", "eps": "1/10"}),
    ("plan", {"variant": "rough", "s": 0.2, "q": "5/2", "p": 4},
     {"variant": "rough", "s": "1/5", "q": "5/2", "p": "4"}),
    ("plan", {"variant": "l2_start", "eps": "1/6"},
     {"variant": "l2_start", "eps": "1/6"}),
    ("plan", {"preset": "rough-data-chain"}, {"preset": "rough-data-chain"}),
]


# Every config field that has a flag, per subcommand: (section path, key).
# The base configs run; each case below spoils one field.
CALC_BASE = {"growth": {"variant": "rough", "s": "1/5", "q": "5/2"},
             "setting": {"scale": {"low": "-6/5", "high": "4/5", "q": "5/2"},
                         "p": "4", "kappa": "4/5"}}
PLAN_BASE = {"variant": "rough", "s": "1/5", "q": "5/2", "p": "4"}
SIM_BASE = {"preset": "linear-noise", "t_end": 0.01, "outdir": "out"}
SIM_KEYS = ("preset", "dt", "t_end", "seed", "scheme", "blowup_cap", "grid_n",
            "noise_lam", "noise_modes", "n_save", "outdir")
CONFIG_FIELDS = {
    "calc": [*((("growth",), key)
               for key in ("variant", "eps", "zeta", "s", "q", "nu")),
             (("setting",), "p"), (("setting",), "kappa"),
             *((("setting", "scale"), key) for key in ("low", "high", "q")),
             ((), "growth"), ((), "setting"), (("setting",), "scale")],
    "plan": [((), key) for key in ("preset", "variant", "eps", "s", "q", "p")],
    "simulate": [((), key) for key in SIM_KEYS],
    "montecarlo": [((), key)
                   for key in (*SIM_KEYS, "n_paths", "experiment")],
}
BASES = {"calc": CALC_BASE, "plan": PLAN_BASE, "simulate": SIM_BASE,
         "montecarlo": dict(SIM_BASE, n_paths=2)}
# fields whose flag takes any text, and sections, which hold an object
TEXT_FIELDS = {"outdir", "experiment"}
SECTIONS = {"growth", "setting", "scale"}


def spoiled(command, where, key, value):
    cfg = json.loads(json.dumps(BASES[command]))
    section = cfg
    for name in where:
        section = section[name]
    section[key] = value
    return cfg


WRONG_TYPES = {"text": "text", "list": [1], "object": {"a": 1}, "true": True}


@pytest.mark.parametrize("command, where, key, value", [
    pytest.param(command, where, key, value,
                 id=f"{command}-{'.'.join((*where, key))}-{name}")
    for command, fields in CONFIG_FIELDS.items() for where, key in fields
    for name, value in WRONG_TYPES.items()
    if not (key in TEXT_FIELDS and name == "text"
            or key in SECTIONS and name == "object")])
def test_wrong_type_config_field_exits_1(command, where, key, value,
                                         tmp_path, monkeypatch, capsys):
    # the field is parsed as its flag: a value of the wrong type is a usage
    # error naming the field, with no traceback and no output written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CRITSPDE_OUTDIR", str(tmp_path / "env"))
    Path("c.json").write_text(json.dumps(spoiled(command, where, key,
                                                 value)))
    code, out, err = invoke([command, "--config", "c.json"], capsys)
    assert code == 1
    assert f"error: config field '{key}'" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(field=("plan", (), "p"), value=0)
@example(field=("plan", (), "p"), value="0")
@given(field=st.sampled_from([(command, where, key)
                              for command in ("calc", "plan")
                              for where, key in CONFIG_FIELDS[command]]),
       value=JSON_VALUES)
def test_any_json_in_a_field_exits_cleanly(field, value, tmp_path):
    # any JSON value in any one calc or plan field ends in exit 0, 1 or 2,
    # never in another exception
    command, where, key = field
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spoiled(command, where, key, value)))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([command, "--config", str(path)])
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2)


def test_verify_chain_suite_passes(capsys):
    code, out, err = invoke(["verify", "chain"], capsys)
    assert code == 0
    assert "criterion  5 [bootstrap-chain] PASS" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    code, out, err = invoke(["verify", "nope"], capsys)
    assert code == 1


def test_unknown_flag_is_error(capsys):
    code, out, err = invoke(["simulate", "--bogus"], capsys)
    assert code == 1
    assert "unrecognized arguments" in err


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = invoke([], capsys)
    assert code == 1


SUBCOMMANDS = ("calc", "plan", "simulate", "montecarlo", "verify")


def child_env():
    """Environment in which a child process imports this same critspde."""
    src = str(Path(critspde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_help(command):
    return subprocess.run([*command, "--help"], capture_output=True,
                          text=True, env=child_env())


def listed_subcommands(help_text):
    """Names that start an indented line under "positional arguments:".

    The parser description names every subcommand as well, so a plain
    substring test would pass even with a subparser missing.
    """
    section = help_text.split("positional arguments:\n", 1)[1]
    section = section.split("\n\n", 1)[0]
    return {line.split()[0] for line in section.splitlines()
            if line.startswith("    ") and line.strip()}


def test_console_script_help():
    proc = run_help([sys.executable, "-m", "critspde"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: critspde ")
    assert set(SUBCOMMANDS) <= listed_subcommands(proc.stdout)


def test_module_entry_point_without_subcommand_is_usage_error():
    proc = subprocess.run([sys.executable, "-m", "critspde"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1
    assert "a subcommand is required" in proc.stderr


def test_console_script_entry_resolves_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["critspde"] == "critspde.cli:main"
    entry = importlib.metadata.EntryPoint(
        name="critspde", value=scripts["critspde"], group="console_scripts")
    assert entry.load() is critspde.cli.main


@pytest.mark.skipif(shutil.which("critspde") is None,
                    reason="critspde console script is not installed")
def test_installed_console_script_matches_module_entry_point():
    script = run_help(["critspde"])
    module = run_help([sys.executable, "-m", "critspde"])
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout
