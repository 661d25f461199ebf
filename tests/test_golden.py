"""Byte-for-byte golden outputs of the CLI and the harness experiments.

Each case runs a small, seeded computation and compares every file it
produces with the copy frozen under tests/golden/<case>/.  A refactor that
keeps the numerics must keep these bytes; a deliberate change regenerates
them with

    PYTHONPATH=src python tests/test_golden.py

and names the difference in CHANGES.md.  The files were recorded with
numpy 2.4.6 on Python 3.11; the simulated cases depend on numpy's pocketfft
and PCG64 bits, so another numpy may legitimately differ in the last digits.
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from critspde import cli
from critspde.harness import (
    EnsembleConfig,
    convergence_study,
    experiment_energy,
    experiment_global,
    experiment_regularity,
)
from critspde.presets import regularity_ensemble, sublinear_global

GOLDEN = Path(__file__).parent / "golden"


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue().encode()


def _calc(out: Path):
    return {"stdout.txt": _cli_stdout(["calc", "--variant", "l2_eps",
                                       "--eps", "0"])}


def _calc_config(out: Path):
    # theta differs from beta and phi in every mixed-norm entry here, so a
    # swap of the two scale parameters changes the bytes
    config = out / "calc.json"
    config.write_text(json.dumps({
        "growth": {"f_terms": [{"rho": "1", "phi": "7/8", "beta": "3/4"}],
                   "g_terms": [{"rho": "0", "phi": "3/4", "beta": "3/4"}]},
        "setting": {"scale": {"low": "-1", "high": "1", "q": "2"},
                    "p": "4", "kappa": "1/2"},
    }))
    return {"stdout.txt": _cli_stdout(["calc", "--config", str(config)])}


def _plan_l2(out: Path):
    return {"stdout.txt": _cli_stdout(["plan", "--variant", "l2_start"])}


def _plan_rough(out: Path):
    return {"stdout.txt": _cli_stdout(["plan", "--preset",
                                       "rough-data-chain"])}


def _montecarlo(out: Path):
    stdout = _cli_stdout(["montecarlo", "--preset", "linear-noise",
                          "--n-paths", "4", "--t-end", "0.05", "--seed", "7",
                          "--n-save", "6", "--outdir", str(out)])
    d = out / "montecarlo"
    return {"stdout.txt": stdout,
            "summary.json": (d / "summary.json").read_bytes(),
            "path_2.csv": (d / "path_2.csv").read_bytes()}


def _summary(out: Path, experiment: str):
    return {"summary.json": (out / experiment / "summary.json").read_bytes()}


def _energy(out: Path):
    base = replace(sublinear_global(), t_end=0.05, seed=3)
    experiment_energy(EnsembleConfig(base=base, n_paths=3, n_save=2,
                                     experiment="energy", outdir=str(out)))
    return _summary(out, "energy")


def _global(out: Path):
    base = replace(sublinear_global(), t_end=0.05, seed=5)
    experiment_global(2.0, EnsembleConfig(base=base, n_paths=4, n_save=2,
                                          experiment="global",
                                          outdir=str(out)),
                      noise_scale=3.0)
    return _summary(out, "global")


def _regularity(out: Path):
    ens = regularity_ensemble(n_paths=2, seed=11)
    ens = replace(ens, base=replace(ens.base, t_end=0.1), n_save=129,
                  outdir=str(out))
    experiment_regularity(ens)
    return _summary(out, "regularity")


def _convergence(out: Path):
    base = replace(sublinear_global(), t_end=0.064, seed=13)
    convergence_study(EnsembleConfig(base=base, n_paths=2,
                                     experiment="convergence",
                                     outdir=str(out)))
    return _summary(out, "convergence")


CASES = {
    "calc_l2_eps": _calc,
    "calc_config_critical": _calc_config,
    "plan_l2_start": _plan_l2,
    "plan_rough_data_chain": _plan_rough,
    "montecarlo_linear_noise": _montecarlo,
    "experiment_energy": _energy,
    "experiment_global": _global,
    "experiment_regularity": _regularity,
    "convergence_study": _convergence,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, tmp_path):
    produced = CASES[case](tmp_path)
    frozen = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(produced) == frozen
    for name, data in produced.items():
        assert data == (GOLDEN / case / name).read_bytes(), \
            f"{case}/{name} differs from its golden copy"


def _regenerate() -> None:
    import tempfile
    for case, run in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            produced = run(Path(tmp))
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for name, data in produced.items():
            (target / name).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
