"""Every public call of the calculus returns or raises ParameterError.

Each public function, validating constructor and method of `exponents` and
`bootstrap` is called on rationals drawn through `rational_strategy`,
including 0, negatives and denominators up to 48.  Half of the compound
arguments (scales, settings, growth terms) are drawn freely and mostly
fail their own checks; the other half are shaped to pass them, so the
called function's own checks see the values.  A call must return or raise
ParameterError (or a subclass); any other exception, such as a
ZeroDivisionError from a division that a check should have come before,
fails the test.  The plain records and the exception classes validate
nothing and are listed apart; a public name in neither list fails
`test_contract_covers_every_public_callable`.
"""
import inspect
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critspde import bootstrap as B
from critspde import exponents as E
from critspde.exponents import ParameterError
from rational_strategy import rationals

# negatives and denominators up to 48, with the values at which checks
# switch (0, 1, 2) drawn often, and the bools, which equal 0 and 1 but are
# no number to the calculus
ANY = st.one_of(st.sampled_from([F(0), F(1), F(2), F(-1), True, False]),
                rationals(F(-4), F(8), 48))
UNIT = rationals(F(0), F(1), 48)


def q(data):
    return data.draw(ANY)


def unit(data):
    return data.draw(UNIT)


def maybe(data, value):
    return value if data.draw(st.booleans()) else None


def scale(data) -> E.SobolevScale:
    if data.draw(st.booleans()):
        return E.SobolevScale(q(data), q(data), q(data))
    low = q(data)
    return E.SobolevScale(low, low + 4 * unit(data), 1 + 4 * unit(data))


def setting(data) -> E.Setting:
    if data.draw(st.booleans()):
        return E.Setting(scale(data), q(data), q(data))
    p = 2 + 8 * unit(data)
    return E.Setting(scale(data), p, (p / 2 - 1) * unit(data))


def term(data) -> E.GrowthTerm:
    if data.draw(st.booleans()):
        return E.GrowthTerm(q(data), q(data), q(data))
    return E.GrowthTerm(4 * unit(data), unit(data), unit(data))


def spec(data) -> E.GrowthSpec:
    n_f, n_g = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    return E.GrowthSpec(tuple(term(data) for _ in range(n_f)),
                        tuple(term(data) for _ in range(n_g)))


def space(data) -> tuple:
    """The parts of a space as the planner builds them, from a validated
    setting or scale: a trace space or a Bessel space of the scale."""
    s = setting(data)
    sc = s.scale
    c = s.weight_index
    return data.draw(st.sampled_from([
        B._trace(s, c.numerator, c.denominator),
        B._trace(s, s.p.denominator, s.p.numerator),
        B._bessel(sc.low, sc.q),
        B._bessel_between(sc, *data.draw(st.tuples(st.integers(0, 4),
                                                   st.integers(1, 4)))),
    ]))


def chain(data) -> B.BootstrapChain:
    if data.draw(st.booleans()):
        return B.full_chain_1d("L2_start", eps=unit(data) / 3)
    s = unit(data) / 3
    q_ = 2 + unit(data) * (2 / (1 - 2 * s) - 2)
    return B.full_chain_1d("rough", s=s, q=q_, p=2 + 16 * unit(data))


def growth_dict(data) -> dict:
    d = E.growth_spec_to_dict(spec(data))
    rows = d["f_terms"] or d["g_terms"]
    if data.draw(st.booleans()):
        rows[0].pop(data.draw(st.sampled_from(["rho", "phi", "beta"])))
    return d


def growth_params(data) -> E.GrowthSpec:
    variant = data.draw(st.sampled_from(["l2_eps", "lzeta", "rough", "l4"]))
    kwargs = {name: maybe(data, q(data)) for name in ("eps", "zeta", "s", "q")}
    return E.one_d_growth_params(variant, nu=q(data), **kwargs)


def json_literal(data):
    return data.draw(st.one_of(ANY, ANY.map(str), ANY.map(float),
                               st.integers(-3, 3).map(lambda n: f"{n}/0")))


CONTRACT = {
    # exponents
    "as_fraction": lambda d: E.as_fraction(q(d)),
    "SobolevScale": scale,
    "SobolevScale.smoothness_at": lambda d: scale(d).smoothness_at(q(d)),
    "Setting": setting,
    "GrowthTerm": term,
    "GrowthTerm.window_ok": lambda d: term(d).window_ok(q(d)),
    "GrowthSpec": spec,
    "GrowthSpec.terms": lambda d: list(spec(d).terms()),
    "trace_space": lambda d: E.trace_space(setting(d)),
    "critical_weight": lambda d: E.critical_weight(spec(d), q(d)),
    "rho_star_and_x_exponents":
        lambda d: E.rho_star_and_x_exponents(spec(d), setting(d)),
    "star_params": lambda d: E.star_params(spec(d), setting(d)),
    "xi_exponents": lambda d: E.xi_exponents(spec(d), setting(d)),
    "interpolation_exponents":
        lambda d: E.interpolation_exponents(q(d), q(d), q(d)),
    "serrin_applicable": lambda d: E.serrin_applicable(
        spec(d), setting(d), revised=d.draw(st.booleans())),
    "criterion_select": lambda d: E.criterion_select(
        *d.draw(st.tuples(*[st.booleans()] * 4))),
    "one_d_growth_params": growth_params,
    "full_report": lambda d: E.full_report(spec(d), setting(d)),
    "fraction_to_json": lambda d: E.fraction_to_json(q(d)),
    "fraction_from_json": lambda d: E.fraction_from_json(json_literal(d)),
    "setting_to_dict": lambda d: E.setting_to_dict(setting(d)),
    "growth_spec_to_dict": lambda d: E.growth_spec_to_dict(spec(d)),
    "growth_spec_from_dict": lambda d: E.growth_spec_from_dict(growth_dict(d)),
    "report_to_dict":
        lambda d: E.report_to_dict(E.full_report(spec(d), setting(d))),
    # bootstrap
    "embeds": lambda d: B.embeds(space(d), space(d)),
    "sobolev_index": lambda d: B.sobolev_index(space(d)),
    "plan_weight_insertion": lambda d: B.plan_weight_insertion(
        setting(d), q(d), q(d), spec(d)),
    "plan_time_bootstrap":
        lambda d: B.plan_time_bootstrap(setting(d), q(d), spec(d)),
    "plan_space_bootstrap":
        lambda d: B.plan_space_bootstrap(setting(d), setting(d), spec(d)),
    "check_extrapolation": lambda d: B.check_extrapolation(
        setting(d), setting(d), setting(d)),
    "full_chain_1d": lambda d: B.full_chain_1d(
        d.draw(st.sampled_from(["L2_start", "rough", "L4_start"])),
        eps=q(d), s=maybe(d, q(d)), q=maybe(d, q(d)), p=maybe(d, q(d))),
    "chain_composition_ok": lambda d: B.chain_composition_ok(chain(d)),
    "step_to_dict": lambda d: B.step_to_dict(chain(d).steps[0]),
    "chain_to_dict": lambda d: B.chain_to_dict(chain(d)),
}

# classes that validate nothing: the results' records and the errors
RECORDS = {
    "BesovDescriptor", "TermCriticality", "XEntry", "TermExponents",
    "CriticalityReport", "StarParams", "XiExponents",
    "InterpolationExponents", "SerrinTerm", "SerrinReport",
    "ClauseSelection", "BootstrapCheck",
    "BootstrapStep", "TerminalClaim", "BootstrapChain",
    "ExtrapolationReport", "ParameterError", "GrowthWindowError",
    "BootstrapError",
}


def public_callables(module) -> set:
    """Public functions and classes the module defines, and the public
    methods of those classes."""
    out = set()
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__ or not callable(obj):
            continue
        out.add(name)
        if inspect.isclass(obj) and name not in RECORDS:
            out |= {f"{name}.{attr}" for attr, fn in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(fn)}
    return out


def test_contract_covers_every_public_callable():
    found = public_callables(E) | public_callables(B)
    assert found - RECORDS == set(CONTRACT)


@pytest.mark.parametrize("name", sorted(CONTRACT))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_public_call_returns_or_raises_parameter_error(name, data):
    try:
        CONTRACT[name](data)
    except ParameterError:
        pass
