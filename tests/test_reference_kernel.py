"""sim._integrate against the plain reference integrator, byte for byte.

Each row of a record of width 1 (a 128-step block) and of width 17 (16-step
blocks) has the bytes of reference_kernel.reference_path for its seed: every
kept state, kept, steps, sigma_hat and the four stats, all compared with ==.
"""

from dataclasses import replace

import numpy as np
import pytest

from critspde import presets, sim
from reference_kernel import reference_path
from test_sim import (GRID_FREE_CAP, MIXED_SITES, digest, grid_free_capped,
                      mixed_sites)


def assert_rows_are_reference(ens, refs, save_idx):
    """Row p of ens is refs[p] at the save steps save_idx, NaN past them."""
    for p, ref in enumerate(refs):
        kept = int(save_idx.searchsorted(ref.steps, side="right"))
        assert (ens.kept[p], ens.steps[p], ens.sigma_hat[p]) == \
            (kept, ref.steps, ref.sigma_hat)
        assert tuple(ens.stats[:, p].tolist()) == ref.stats
        assert ens.states[p, :kept].tobytes() == \
            ref.states[save_idx[:kept]].tobytes()
        assert np.isnan(ens.states[p, kept:]).all()


def check(cfg, seeds, compared):
    """The first compared of 17 seeds, alone and among the 17, at every
    state and at 14 saves."""
    refs = [reference_path(cfg, s) for s in seeds[:compared]]
    every = np.arange(cfg.n_steps + 1)
    for p, seed in enumerate(seeds[:compared]):
        assert_rows_are_reference(sim._integrate(cfg, [seed]), refs[p:p + 1],
                                  every)
    assert_rows_are_reference(sim._integrate(cfg, seeds), refs, every)
    assert_rows_are_reference(sim._integrate(cfg, seeds, 14), refs,
                              sim._save_indices(cfg.n_steps, 14))
    return refs


@pytest.mark.parametrize("scheme", ["exp_euler", "semi_implicit"])
@pytest.mark.parametrize("name", sorted(presets.SIM_PRESETS))
def test_presets_are_the_reference(name, scheme):
    # 200 steps (heat: 4): a lone row's 128-step block and a short one,
    # and 13 blocks among 17 rows
    cfg = replace(presets.SIM_PRESETS[name](), scheme=scheme, t_end=0.2)
    refs = check(cfg, list(range(17)), 3)
    assert all(ref.steps == cfg.n_steps for ref in refs)


@pytest.mark.parametrize("make, pins", [(mixed_sites, MIXED_SITES),
                                        (grid_free_capped, GRID_FREE_CAP)],
                         ids=["start_and_cap", "grid_free_cap"])
def test_blown_up_rows_are_the_reference(make, pins):
    # rows that leave at the start of a step and at the cap, on both sides
    # of the 16-step edges and inside a grid-free block taken again step by
    # step; the reference also gives each row's pinned bytes
    cfg = make()
    seeds = [row[0] for row in pins]
    seeds += [s for s in range(300) if s not in seeds][:17 - len(seeds)]
    refs = check(cfg, seeds, 17)
    for ref, row in zip(refs, pins):
        assert (ref.steps, ref.sigma_hat) + ref.stats[1:] + \
            (digest(ref.states),) == row[2:]
        assert row[1] == ("completed" if ref.steps == cfg.n_steps
                          else "blew_up")
