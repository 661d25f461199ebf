import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from critspde.bootstrap import (
    BootstrapError,
    SpaceDescriptor,
    _lift_term,
    chain_composition_ok,
    chain_to_dict,
    check_extrapolation,
    emb_condition,
    embeds,
    full_chain_1d,
    plan_space_bootstrap,
    plan_time_bootstrap,
    plan_weight_insertion,
    step_to_dict,
    unweighted_trace,
    weighted_trace,
)
from critspde.exponents import (
    GrowthSpec,
    GrowthTerm,
    ParameterError,
    Setting,
    SobolevScale,
    one_d_growth_params,
    subcriticality,
)
from rational_strategy import rationals

H2 = SobolevScale(F(-1), F(1), F(2))
L2_BASE = Setting(H2, F(2), F(0))


def bessel(s, q):
    return SpaceDescriptor("bessel", s, q)


def besov(s, q, sec):
    return SpaceDescriptor("besov", s, q, sec)


# --- embedding arithmetic -----------------------------------------------------

def test_embeds_identity():
    assert embeds(bessel(F(1), F(2)), bessel(F(1), F(2)))
    assert embeds(besov(F(1, 3), F(4), F(12)), besov(F(1, 3), F(4), F(12)))


def test_embeds_strict_index_gain():
    # H^{5/6} in 2 -> H^{1/3} in 4 on the torus: 5/6-1/2 > 1/3-1/4
    assert embeds(bessel(F(5, 6), F(2)), bessel(F(1, 3), F(4)))
    assert not embeds(bessel(F(1, 3), F(4)), bessel(F(5, 6), F(2)))


def test_embeds_integrability_drop():
    assert embeds(bessel(F(1), F(4)), bessel(F(1), F(2)))
    assert embeds(bessel(F(1), F(4)), bessel(F(0), F(2)))
    assert not embeds(bessel(F(0), F(4)), bessel(F(1), F(2)))


def test_embeds_besov_equal_index_needs_secondary_order():
    a = besov(F(5, 6), F(2), F(6))
    b = besov(F(7, 12), F(4), F(12))  # 5/6-1/2 = 7/12-1/4 = 1/3
    assert embeds(a, b)
    a_big = besov(F(5, 6), F(2), F(24))
    assert not embeds(a_big, b)


def test_embeds_bessel_equal_index_fails():
    # strict-only policy for non-Besov comparisons at equal index
    assert not embeds(bessel(F(5, 6), F(2)), bessel(F(7, 12), F(4)))


@pytest.mark.parametrize("q", [F(0), F(-2), 0, -1.5])
def test_nonpositive_space_integrability_is_a_parameter_error(q):
    with pytest.raises(ParameterError, match="space integrability q must be positive"):
        SpaceDescriptor("bessel", 0, q)
    with pytest.raises(ParameterError, match="space integrability q must be positive"):
        SpaceDescriptor("besov", 0, q, 2)


def test_embeds_from_zero_integrability_is_a_parameter_error():
    # this call divided by zero before SpaceDescriptor rejected q <= 0
    with pytest.raises(ParameterError):
        embeds(SpaceDescriptor("bessel", 0, 0), SpaceDescriptor("bessel", 0, 2))


def test_embeds_cross_kind():
    assert embeds(besov(F(1), F(2), F(6)), bessel(F(1, 2), F(2)))
    assert not embeds(besov(F(1), F(2), F(6)), bessel(F(1), F(2)))


# --- emb_condition -------------------------------------------------------------

def test_emb_condition_cases():
    assert emb_condition(6, F(7, 5), 6, F(7, 5)) == 1
    assert emb_condition(6, F(7, 5), 12, F(17, 5)) == 2
    # same r, index raised by exactly eps
    r, alpha, eps = F(12), F(0), F(1, 10)
    alpha_hat = r * (1 / r + eps) - 1
    assert emb_condition(r, alpha, r, alpha_hat, eps) == 4
    # strictly inside the eps margin
    assert emb_condition(6, F(7, 5), 6, F(31, 20), F(1, 20)) == 3
    # no case: index raised with no eps given
    assert emb_condition(6, F(7, 5), 6, F(8, 5)) is None
    # eps outside its window never matches
    assert emb_condition(6, F(7, 5), 6, F(8, 5), F(1, 2)) is None


# --- weight insertion ----------------------------------------------------------

def g_l2(eps=F(0)):
    return one_d_growth_params("l2_eps", eps=eps)


def test_weight_insertion_reference_step():
    step = plan_weight_insertion(L2_BASE, F(6), F(1, 10), g_l2())
    assert step.rule == "weight_insertion"
    assert step.params["alpha"] == F(7, 5)
    to = step.to_setting
    assert (to.scale.low, to.scale.high) == (F(-6, 5), F(4, 5))
    assert to.p == 6 and to.kappa == F(7, 5)
    assert all(c.passed for c in step.checks)


def test_weight_insertion_alpha_formula():
    # 1/p = (1+alpha)/r + delta, so alpha = r(1/p - delta) - 1
    step = plan_weight_insertion(Setting(H2, F(4), F(0)), F(4), F(0),
                                 g_l2(F(3, 10)))
    assert step.params["alpha"] == 0
    assert step.to_setting.scale == H2  # delta=0 leaves the scale alone


def test_weight_insertion_needs_p_above_two_at_zero_delta():
    with pytest.raises(BootstrapError) as ei:
        plan_weight_insertion(L2_BASE, F(6), F(0), g_l2())
    assert any(c.name == "p_above_two_at_zero_delta" for c in ei.value.checks
               if not c.passed)


def test_weight_insertion_delta_window():
    with pytest.raises(BootstrapError):
        plan_weight_insertion(L2_BASE, F(6), F(1, 3), g_l2())  # 1-max_phi = 1/3


def test_weight_insertion_needs_unweighted_start():
    weighted = Setting(H2, F(6), F(1))
    with pytest.raises(ParameterError):
        plan_weight_insertion(weighted, F(12), F(1, 10), g_l2())


def test_weight_insertion_time_integrability_equality_passes():
    # 1/6 = 2/3 - 1 + 1/2 exactly
    step = plan_weight_insertion(L2_BASE, F(6), F(1, 10), g_l2())
    chk = {c.name: c for c in step.checks}
    assert chk["time_integrability"].passed
    assert chk["time_integrability"].witness["inv_r"] == chk[
        "time_integrability"].witness["bound"]


# --- time bootstrap -------------------------------------------------------------

def reference_weighted():
    return plan_weight_insertion(L2_BASE, F(6), F(1, 10), g_l2()).to_setting


def test_time_bootstrap_reference_step():
    step = plan_time_bootstrap(reference_weighted(), F(12), g_l2(F(1, 5)))
    assert step.params["eps"] == F(1, 15)
    assert step.params["alpha_hat"] == F(17, 5)
    assert step.params["emb_case"] == 2
    to = step.to_setting
    assert to.p == 12 and to.kappa == 0
    assert to.scale.low == F(-6, 5)


def test_time_bootstrap_same_r():
    step = plan_time_bootstrap(reference_weighted(), F(6), g_l2(F(1, 5)))
    alpha_hat = step.params["alpha_hat"]
    assert 0 < alpha_hat < F(7, 5)
    # emitted intermediate is strictly subcritical
    s_int = Setting(step.from_setting.scale, F(6), alpha_hat)
    rep = subcriticality(g_l2(F(1, 5)), s_int)
    assert all(row.slack > 0 for row in rep.terms)


def test_time_bootstrap_needs_positive_weight():
    with pytest.raises(ParameterError):
        plan_time_bootstrap(L2_BASE, F(12), g_l2())


def test_time_bootstrap_needs_larger_r():
    with pytest.raises(BootstrapError):
        plan_time_bootstrap(reference_weighted(), F(4), g_l2(F(1, 5)))


@pytest.mark.parametrize("r_hat", [F(3, 2), F(1), F(1, 7)])
def test_time_bootstrap_below_two_is_a_failed_check(r_hat):
    # the checks are validated before the target setting is built, so an
    # r_hat in (0, 2) names the failed integrability_order instead of
    # raising the Setting constructor's "p must be >= 2"
    with pytest.raises(BootstrapError) as ei:
        plan_time_bootstrap(Setting(H2, F(6), F(7, 5)), r_hat, g_l2(F(1, 5)))
    failed = [c.name for c in ei.value.checks if not c.passed]
    assert failed[0] == "integrability_order"
    assert str(ei.value).startswith(
        "time_bootstrap step rejected: integrability_order")


def test_time_bootstrap_intermediate_strictly_subcritical():
    step = plan_time_bootstrap(reference_weighted(), F(12), g_l2(F(1, 5)))
    inter = [c for c in step.checks if c.name.endswith("@intermediate")
             and c.name.startswith("subcritical")]
    assert inter and all(c.passed for c in inter)
    assert all(c.witness["slack"] > 0 for c in inter)


@pytest.mark.parametrize("x", [F(0), F(-6), 0])
@pytest.mark.parametrize("plan, message", [
    (lambda x: plan_weight_insertion(L2_BASE, x, F(1, 10), g_l2()),
     "time integrability r must be positive"),
    (lambda x: plan_time_bootstrap(reference_weighted(), x, g_l2(F(1, 5))),
     "time integrability r_hat must be positive"),
    (lambda x: emb_condition(x, F(7, 5), 12, F(17, 5)),
     "time integrabilities r and r_hat must be positive"),
    (lambda x: emb_condition(6, F(7, 5), x, F(17, 5)),
     "time integrabilities r and r_hat must be positive"),
], ids=["insertion-r", "time-r_hat", "emb-r", "emb-r_hat"])
def test_nonpositive_time_integrability_is_a_parameter_error(plan, message, x):
    # raised before any arithmetic, so a zero is no ZeroDivisionError
    with pytest.raises(ParameterError, match=f"^{message}$"):
        plan(x)


# --- space bootstrap ------------------------------------------------------------

def test_space_bootstrap_scale_recovery():
    base = plan_time_bootstrap(reference_weighted(), F(12), g_l2(F(1, 5)))
    recover = Setting(H2, F(12), F(6, 5))
    step = plan_space_bootstrap(base.to_setting, recover, g_l2())
    assert step.params["emb_case"] == 4
    assert step.params["eps_emb"] == F(1, 10)
    lifted = dict(((part, i), mid) for part, i, mid in step.params["lifted_terms"])
    assert lifted[("f", 0)] == F(61, 72)
    assert lifted[("g", 0)] == F(69, 80)
    # identical trace spaces on both sides
    assert unweighted_trace(base.to_setting) == weighted_trace(recover)


def test_space_bootstrap_integrability_step():
    from4 = Setting(H2, F(12), F(4))
    to4 = Setting(SobolevScale(F(-1), F(1), F(4)), F(12), F(3))
    step = plan_space_bootstrap(from4, to4, one_d_growth_params("lzeta", zeta=F(4)))
    assert step.params["emb_case"] == 2
    chk = {c.name: c for c in step.checks}
    assert chk["trace_embedding"].witness["src_index"] == F(1, 3)
    assert chk["trace_embedding"].witness["dst_index"] == F(1, 12)
    lifted = dict(((part, i), mid) for part, i, mid in step.params["lifted_terms"])
    assert lifted[("f", 0)] == F(13, 18)


def test_space_bootstrap_trace_failure_is_reported():
    from4 = Setting(H2, F(12), F(4))
    bad = Setting(SobolevScale(F(-1), F(1), F(8)), F(12), F(0))
    with pytest.raises(BootstrapError) as ei:
        plan_space_bootstrap(from4, bad, one_d_growth_params("lzeta", zeta=F(8)))
    failed = [c.name for c in ei.value.checks if not c.passed]
    assert "trace_embedding" in failed


@given(rationals(F(0), F(8), 32), rationals(F(1, 64), F(1), 64))
@settings(max_examples=500)
def test_property_lift_closed_form_matches_midpoint(rho, c):
    # the midpoint of (lo, (1+rho*lo)/(rho+1)) and the slack as the step
    # once computed them, against the closed forms lo + c/(2*(rho+1)), c/2
    lo = 1 - c
    mid = (lo + (1 + rho * lo) / (rho + 1)) / 2
    slack = 1 - (rho * (mid - lo) + mid)
    assert _lift_term(GrowthTerm(rho, F(0), F(0)), c, lo) == (mid, slack)
    assert slack == c / 2 and lo < mid < 1


H4 = SobolevScale(F(-1), F(1), F(4))


@pytest.mark.parametrize("term, why", [
    (GrowthTerm(F(2), F(1), F(1)), "phi = beta >= 1"),
    (GrowthTerm(F(2), F(5, 4), F(5, 4)), "phi = beta >= 1"),
    (GrowthTerm(F(2), F(1, 2), F(1, 3)), "phi != beta"),
])
def test_space_bootstrap_failed_lift_names_its_cause(term, why):
    with pytest.raises(BootstrapError) as ei:
        plan_space_bootstrap(Setting(H2, F(12), F(4)), Setting(H4, F(12), F(3)),
                             GrowthSpec(f_terms=(term,)))
    check = {c.name: c for c in ei.value.checks}["target_growth[f0]"]
    assert check.condition == f"no equalized lift available ({why})"
    assert not check.passed
    assert check.witness == {"phi": term.phi, "beta": term.beta}


def test_space_bootstrap_pure_weight_drop():
    from4 = Setting(H2, F(12), F(4))
    to = Setting(H2, F(12), F(3))
    step = plan_space_bootstrap(from4, to, one_d_growth_params("lzeta", zeta=F(4)))
    assert step.params["emb_case"] == 2


# --- extrapolation --------------------------------------------------------------

def test_extrapolation_trivial_identity():
    rep = check_extrapolation(L2_BASE, L2_BASE, L2_BASE)
    assert rep.ok


def test_extrapolation_rejects_small_r_hat():
    via = Setting(SobolevScale(F(-1), F(1), F(4)), F(2), F(0))
    base = Setting(SobolevScale(F(-6, 5), F(4, 5), F(5, 2)), F(4), F(4, 5))
    rep = check_extrapolation(L2_BASE, via, base)
    assert not rep.ok
    assert any(c.name == "integrability_order" and not c.passed for c in rep.checks)


# --- full chains ---------------------------------------------------------------

def test_l2_chain_reference_parameters():
    chain = full_chain_1d("L2_start", eps=F(1, 5))
    assert [s.rule for s in chain.steps] == [
        "weight_insertion", "time_bootstrap", "space_bootstrap", "space_bootstrap"]
    s1, s2, s3, s4 = chain.steps
    assert s1.params["r"] == 6 and s1.params["delta"] == F(1, 10)
    assert s1.params["alpha"] == F(7, 5)
    assert s2.params["alpha_hat"] == F(17, 5)
    assert s3.params["emb_case"] == 4
    assert s4.params["emb_case"] == 2
    assert s4.to_setting.scale.q == 4 and s4.to_setting.kappa == 3
    assert chain.claim.theta_sup == F(1, 2)


def test_l2_chain_default_eps():
    chain = full_chain_1d("L2_start")
    assert len(chain.steps) == 4
    assert chain_composition_ok(chain)


def test_l2_chain_composition():
    chain = full_chain_1d("L2_start", eps=F(1, 5))
    assert chain_composition_ok(chain)
    # the nontrivial link: emitted recovered setting into the step-4 source
    s3, s4 = chain.steps[2], chain.steps[3]
    assert weighted_trace(s3.to_setting).smoothness == F(19, 30)
    assert weighted_trace(s4.from_setting).smoothness == F(1, 6)


def test_l2_chain_eps_window():
    with pytest.raises(ParameterError):
        full_chain_1d("L2_start", eps=F(1, 3))


def test_rough_chain_positive_weight():
    chain = full_chain_1d("rough", s=F(1, 5), q=F(5, 2), p=F(4))
    rules = [s.rule for s in chain.steps]
    assert rules == ["time_bootstrap", "space_bootstrap", "space_bootstrap",
                     "extrapolation"]
    tb = chain.steps[0]
    assert tb.from_setting.kappa == F(4, 5)
    assert tb.params["alpha_hat"] == F(79, 20)
    recover = chain.steps[1]
    assert recover.params["emb_case"] == 4
    assert recover.params["eps_emb"] == F(1, 10)
    assert chain_composition_ok(chain)


def test_rough_chain_zero_weight_slice():
    # 1/p + 1/(2q) = (3-2s)/4 puts the critical weight exactly at zero
    s, q = F(1, 5), F(5, 2)
    p = 1 / ((3 - 2 * s) / 4 - 1 / (2 * q))
    chain = full_chain_1d("rough", s=s, q=q, p=p)
    rules = [st.rule for st in chain.steps]
    assert rules[0] == "weight_insertion"
    ins = chain.steps[0]
    assert ins.params["delta"] == 0
    assert ins.params["r"] == 3 * p
    assert ins.params["alpha"] == 2
    assert chain_composition_ok(chain)


def test_rough_chain_preconditions():
    with pytest.raises(ParameterError):
        full_chain_1d("rough", s=F(1, 5), q=F(4), p=F(4))  # q >= 2/(1-2s)
    with pytest.raises(ParameterError):
        full_chain_1d("rough", s=F(1, 5), q=F(5, 2), p=F(2))  # p too small
    with pytest.raises(ParameterError):
        full_chain_1d("nope")


@pytest.mark.parametrize("p", [F(0), F(-4), 0, -1.5])
def test_rough_chain_nonpositive_p_is_a_parameter_error(p):
    with pytest.raises(ParameterError,
                       match=r"^time integrability p must be >= 2$"):
        full_chain_1d("rough", s=F(1, 5), q=F(5, 2), p=p)


def test_rough_chain_checks_keep_their_order_at_zero_p():
    with pytest.raises(ParameterError, match="s must lie in"):
        full_chain_1d("rough", s=F(1, 2), q=F(5, 2), p=F(0))
    with pytest.raises(ParameterError, match="q must lie in"):
        full_chain_1d("rough", s=F(1, 5), q=F(4), p=F(0))


def test_chain_determinism():
    a = full_chain_1d("L2_start", eps=F(1, 5))
    b = full_chain_1d("L2_start", eps=F(1, 5))
    assert a == b


def test_chain_json_round():
    chain = full_chain_1d("rough", s=F(1, 5), q=F(5, 2), p=F(4))
    d = chain_to_dict(chain)
    blob = json.dumps(d, sort_keys=True)
    assert "extrapolation" in blob
    assert d["claim"]["theta_sup"] == "1/2"


def test_step_recheck_idempotent():
    base = plan_time_bootstrap(reference_weighted(), F(12), g_l2(F(1, 5)))
    again = plan_time_bootstrap(reference_weighted(), F(12), g_l2(F(1, 5)))
    assert step_to_dict(base) == step_to_dict(again)
