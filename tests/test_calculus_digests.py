"""The calculus's outputs keep their bytes, and its work stays counted.

Each group below hashes, with sha256, the reprs and JSON of a seeded batch
of calculus outputs; the pinned digests were recorded before the calculus
stored its derived values at construction, so any change to a value, a
repr, a JSON encoding or an error message shows as a changed digest.  The
Fraction operations of a draw and of a chain plan, and the Fractions a
plan builds, are counted, not timed.
"""
import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from critspde.acceptance import _random_setting_and_term
from critspde.bootstrap import (
    BootstrapError,
    chain_to_dict,
    check_extrapolation,
    full_chain_1d,
    plan_space_bootstrap,
    plan_time_bootstrap,
    plan_weight_insertion,
)
from critspde.exponents import (
    GrowthSpec,
    GrowthTerm,
    ParameterError,
    Setting,
    SobolevScale,
    _jsonable,
    full_report,
    one_d_growth_params,
    report_to_dict,
    rho_star_and_x_exponents,
    star_params,
    xi_exponents,
)

DRAWS = 600
REPORTS = 250
CHAINS = 60
REJECTIONS = 200


def _dump(v) -> str:
    return json.dumps(v, sort_keys=True)


def _draw_lines():
    # criterion 3's draws: the three public calls and the full report
    rng = random.Random(30317)
    for _ in range(DRAWS):
        g, s = _random_setting_and_term(rng)
        rep = full_report(g, s)
        for out in (rho_star_and_x_exponents(g, s), xi_exponents(g, s),
                    star_params(g, s)):
            yield repr(out)
            yield _dump(_jsonable(out))
        yield repr(rep)
        yield _dump(report_to_dict(rep))


def _report_lines():
    # one_d_growth_params variants at settings where windows and
    # subcriticality may fail: the reports and the public calls' errors
    rng = random.Random(7331)
    h2 = SobolevScale(-1, 1, 2)
    for _ in range(REPORTS):
        variant = rng.choice(("l2_eps", "lzeta", "rough"))
        if variant == "l2_eps":
            g = one_d_growth_params("l2_eps", eps=F(rng.randint(0, 47), 96))
        elif variant == "lzeta":
            g = one_d_growth_params("lzeta", zeta=2 + F(rng.randint(1, 64), 8))
        else:
            s = F(rng.randint(1, 15), 48)
            g = one_d_growth_params("rough", s=s,
                                    q=2 + (2 / s - 2) * F(rng.randint(1, 15), 16))
        p = 2 + F(rng.randint(0, 48), 8)
        kappa = (p / 2 - 1) * F(rng.randint(0, 15), 16)
        s = Setting(h2, p, kappa)
        rep = full_report(g, s)
        yield repr(rep)
        yield _dump(report_to_dict(rep))
        for fn in (rho_star_and_x_exponents, xi_exponents, star_params):
            try:
                yield repr(fn(g, s))
            except ParameterError as e:
                yield f"{type(e).__name__}: {e}"


def _chain_lines():
    rng = random.Random(5005)
    for j in range(CHAINS):
        if j % 2 == 0:
            kwargs = {"eps": F(rng.randint(1, 95), 288)}
            variant = "L2_start"
        else:
            s = F(rng.randint(1, 31), 96)
            q = 2 + (2 / (1 - 2 * s) - 2) * F(rng.randint(1, 15), 16)
            p_min = 1 / ((3 - 2 * s) / 4 - 1 / (2 * q))
            kwargs = {"s": s, "q": q, "p": p_min + F(rng.randint(-8, 64), 8)}
            variant = "rough"
        try:
            chain = full_chain_1d(variant, **kwargs)
        except ParameterError as e:
            yield f"{type(e).__name__}: {e}"
            yield _dump(_jsonable(getattr(e, "checks", ())))
            continue
        yield repr(chain)
        yield _dump(chain_to_dict(chain))


def _scale(rng: random.Random) -> SobolevScale:
    low = F(rng.randint(-24, 0), 12)
    return SobolevScale(low, low + F(rng.randint(12, 30), 12),
                        F(rng.randint(17, 64), 8))


def _setting(rng: random.Random, scale: SobolevScale) -> Setting:
    p = 2 + F(rng.randint(0, 96), 8)
    return Setting(scale, p, (p / 2 - 1) * F(rng.randint(0, 15), 16))


def _rejection_lines():
    # every step rule on random inputs, most of which fail a check
    rng = random.Random(9119)
    growths = [one_d_growth_params("l2_eps", eps=F(0)),
               one_d_growth_params("l2_eps", eps=F(1, 5)),
               one_d_growth_params("lzeta", zeta=F(4)),
               one_d_growth_params("rough", s=F(1, 6), q=F(5, 2))]
    energy = Setting(SobolevScale(-1, 1, 2), 2, 0)
    for _ in range(REJECTIONS):
        g = rng.choice(growths)
        scale = _scale(rng)
        attempts = (
            lambda: plan_weight_insertion(
                Setting(scale, 2 + F(rng.randint(0, 32), 8), 0),
                F(rng.randint(8, 96), 8), F(rng.randint(0, 12), 24), g),
            lambda: plan_time_bootstrap(
                _setting(rng, scale), F(rng.randint(16, 160), 8), g),
            lambda: plan_space_bootstrap(
                _setting(rng, scale),
                _setting(rng, SobolevScale(scale.low + F(rng.randint(-2, 4), 12),
                                           scale.high + F(rng.randint(-2, 4), 12),
                                           F(rng.randint(17, 64), 8))), g),
            lambda: check_extrapolation(energy, _setting(rng, _scale(rng)),
                                        _setting(rng, scale)),
        )
        for attempt in attempts:
            try:
                out = attempt()
            except BootstrapError as e:
                yield f"BootstrapError: {e}"
                yield _dump(_jsonable(e.checks))
                continue
            except ParameterError as e:
                yield f"{type(e).__name__}: {e}"
                continue
            yield repr(out)
            yield _dump(_jsonable(out))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


PINNED = {
    "draws":
        "d8848346c0fc64080a95a6f5c43d2a592a7d9300f12ad1263137499ad1188341",
    "reports":
        "fd5c3c46ea20503a668cbc698b928f294db1d876d629cd29357759489b4ed94a",
    "chains":
        "448b85089f7d7e974959bcf81dbedf9fcab8e9d8203c03ed0164674736f5206b",
    "rejections":
        "371f115e8a6c09b90234891da8cd51310b7d7f179a7f28f225a4bb39ce777367",
}

GROUPS = {"draws": _draw_lines, "reports": _report_lines,
          "chains": _chain_lines, "rejections": _rejection_lines}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_calculus_bytes(group):
    assert _digest(GROUPS[group]()) == PINNED[group]


# Fraction's arithmetic and comparison operators; Fraction.__new__ is not
# counted, since Python 3.12 builds results without calling it
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")
COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
DRAW_G = GrowthSpec(f_terms=(GrowthTerm(F(3, 2), F(4, 5), F(3, 4)),))
DRAW_S = Setting(SobolevScale(-1, 1, 2), F(6), F(1))


# before Setting, SobolevScale and GrowthTerm stored their derived values
# and the admissibility pass handed on each term's phi-1+c, the arithmetic
# counts were 61 (draw), 237 (L2_start) and 256 (rough); before the planner
# lifted terms in closed form, reused the settings' weight indices and
# built each growth spec once, and GrowthTerm stored beta <= phi < 1, they
# were 37, 169 and 205 arithmetic and 27, 149 and 185 comparisons; the step
# planners' checks that r and r_hat are positive raised the comparisons of
# a plan from 125 (L2_start) and 163 (rough); before the exponent calculus
# worked on integer numerators and denominators and the space step reused
# its trace indices, the counts were 37/18 (draw), 123/127 (L2_start) and
# 154/164 (rough): a draw then ran no Fraction operator at all; before the
# planner worked on integer numerators and denominators too, a plan ran
# 74/85 (L2_start) and 75/100 (rough), and now it runs none either
@pytest.mark.parametrize("call, arithmetic, comparisons", [
    (lambda: (rho_star_and_x_exponents(DRAW_G, DRAW_S),
              xi_exponents(DRAW_G, DRAW_S), star_params(DRAW_G, DRAW_S)),
     0, 0),
    (lambda: full_chain_1d("L2_start"), 0, 0),
    (lambda: full_chain_1d("rough", s=F(1, 5), q=F(5, 2), p=F(4)), 0, 0),
], ids=["draw", "L2_start", "rough"])
def test_fraction_operations_per_call(call, arithmetic, comparisons,
                                      monkeypatch):
    # the module's fixed growth specs compute their threshold weight index
    # on first read, so the counted call is the second one in the process
    call()
    calls = {"arithmetic": 0, "comparisons": 0}

    def counted(fn, kind):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    for kind, names in (("arithmetic", ARITHMETIC),
                        ("comparisons", COMPARISONS)):
        for name in names:
            monkeypatch.setattr(F, name, counted(getattr(F, name), kind))
    call()
    assert calls == {"arithmetic": arithmetic, "comparisons": comparisons}


ROUGH = {"s": F(1, 5), "q": F(5, 2), "p": F(4)}


# before the planner worked on spaces as integer parts, a plan built 14
# (L2_start) and 22 (rough) space descriptors and 63 and 68 Fractions; the
# Fractions left are its witnesses, params and settings, and the derived
# values the settings, scales and growth terms store
@pytest.mark.parametrize("variant, kwargs, fractions", [
    ("L2_start", {}, 57),
    ("rough", ROUGH, 59),
], ids=["L2_start", "rough"])
def test_constructions_per_plan(variant, kwargs, fractions):
    full_chain_1d(variant, **kwargs)
    built = 0
    new = F.__new__

    def counted_new(cls, *args, **kw):
        nonlocal built
        built += 1
        return new(cls, *args, **kw)

    # Fraction keeps its own __new__ as a staticmethod: put that object back
    saved_new = F.__dict__["__new__"]
    F.__new__ = staticmethod(counted_new)
    try:
        full_chain_1d(variant, **kwargs)
    finally:
        F.__new__ = saved_new
    assert built == fractions
