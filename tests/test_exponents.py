import copy
import pickle
from dataclasses import asdict, fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from critspde.exponents import (
    GrowthSpec,
    GrowthTerm,
    GrowthWindowError,
    ParameterError,
    Setting,
    SobolevScale,
    as_fraction,
    criterion_select,
    critical_weight,
    fraction_from_json,
    fraction_to_json,
    full_report,
    growth_spec_from_dict,
    growth_spec_to_dict,
    interpolation_exponents,
    one_d_growth_params,
    revised_serrin_term_raw,
    rho_star_and_x_exponents,
    serrin_applicable,
    star_params,
    star_params_term,
    trace_space,
    xi_exponents,
)
from rational_strategy import rationals

L2_SCALE = SobolevScale(F(-1), F(1), F(2))
L2_SETTING = Setting(L2_SCALE, F(2), F(0))


def l2_growth(eps=F(0)):
    return one_d_growth_params("l2_eps", eps=eps)


# --- coercion ---------------------------------------------------------------

def test_as_fraction_exact_passthrough():
    assert as_fraction(F(2, 3)) == F(2, 3)
    assert as_fraction(4) == F(4)


def test_as_fraction_snaps_decimals():
    assert as_fraction(0.2) == F(1, 5)
    assert as_fraction(0.6) == F(3, 5)


def test_as_fraction_rejects_junk():
    with pytest.raises(ParameterError):
        as_fraction(float("nan"))
    with pytest.raises(ParameterError):
        as_fraction("2/3")  # strings only via fraction_from_json
    with pytest.raises(ParameterError):
        as_fraction(True)


def test_inexact_flag_propagates():
    s = Setting(SobolevScale(-1.0, 1, 2), 2, 0)
    assert s.inexact
    assert not L2_SETTING.inexact


# --- setting invariants -----------------------------------------------------

def test_setting_weight_window():
    Setting(L2_SCALE, F(4), F(0))
    Setting(L2_SCALE, F(4), F(1, 2))
    with pytest.raises(ParameterError):
        Setting(L2_SCALE, F(2), F(1, 2))  # p=2 forces kappa=0
    with pytest.raises(ParameterError):
        Setting(L2_SCALE, F(4), F(1))  # kappa = p/2-1 excluded
    with pytest.raises(ParameterError):
        Setting(L2_SCALE, F(4), F(-1, 4))


# --- values derived at construction -----------------------------------------

DERIVED_SCALE = SobolevScale(F(-1), F(1), F(4))
DERIVED_SETTING = Setting(DERIVED_SCALE, F(6), F(1))
DERIVED_TERM = GrowthTerm(F(3, 2), F(4, 5), F(3, 4))


def test_derived_values_at_construction():
    assert DERIVED_SCALE.gap == 2
    assert (DERIVED_SETTING.weight_index, DERIVED_SETTING.window_low) == \
        (F(1, 3), F(2, 3))
    # (1-beta)/rho + (1-phi), the c at which rho*(phi-1+c) + beta = 1
    assert DERIVED_TERM.threshold_weight_index == F(11, 30)
    assert GrowthTerm(F(0), F(4, 5), F(3, 4)).threshold_weight_index is None
    # beta <= phi < 1, the weight-free half of the window
    assert DERIVED_TERM.ordered is True
    assert GrowthTerm(F(1), F(3, 4), F(4, 5)).ordered is False
    assert GrowthTerm(F(1), F(1), F(1)).ordered is False


def test_threshold_weight_index_is_computed_on_first_read():
    t = GrowthTerm(F(3, 2), F(4, 5), F(3, 4))
    assert "threshold_weight_index" not in vars(t)
    assert t.threshold_weight_index == F(11, 30)
    assert vars(t)["threshold_weight_index"] == F(11, 30)


def test_derived_values_are_not_fields():
    assert [f.name for f in fields(SobolevScale)] == ["low", "high", "q", "inexact"]
    assert [f.name for f in fields(Setting)] == ["scale", "p", "kappa", "inexact"]
    assert [f.name for f in fields(GrowthTerm)] == ["rho", "phi", "beta", "inexact"]
    assert asdict(DERIVED_SETTING) == {
        "scale": {"low": -1, "high": 1, "q": 4, "inexact": False},
        "p": 6, "kappa": 1, "inexact": False}
    assert asdict(DERIVED_TERM) == {"rho": F(3, 2), "phi": F(4, 5),
                                    "beta": F(3, 4), "inexact": False}


@pytest.mark.parametrize("obj, name", [(DERIVED_SCALE, "gap"),
                                       (DERIVED_SETTING, "weight_index"),
                                       (DERIVED_SETTING, "window_low"),
                                       (DERIVED_TERM, "threshold_weight_index"),
                                       (DERIVED_TERM, "ordered")])
def test_equality_and_hash_ignore_derived_values(obj, name):
    other = copy.copy(obj)
    object.__setattr__(other, name, F(-7))
    assert other == obj and hash(other) == hash(obj)
    assert repr(other) == repr(obj)


def test_replace_recomputes_derived_values():
    s = replace(DERIVED_SETTING, kappa=F(3, 2))
    assert (s.weight_index, s.window_low) == (F(5, 12), F(7, 12))
    assert replace(DERIVED_SCALE, high=F(2)).gap == 3
    assert replace(DERIVED_TERM, rho=F(0)).threshold_weight_index is None
    assert replace(DERIVED_TERM, phi=F(1)).ordered is False


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copies_keep_derived_values(clone):
    s, t = clone(DERIVED_SETTING), clone(DERIVED_TERM)
    assert s == DERIVED_SETTING and t == DERIVED_TERM
    assert (s.scale.gap, s.weight_index, s.window_low) == (2, F(1, 3), F(2, 3))
    assert t.threshold_weight_index == F(11, 30) and t.ordered is True


def test_trace_space_l2():
    tr = trace_space(L2_SETTING)
    assert tr.smoothness == 0
    assert tr.q == 2 and tr.p == 2


def test_trace_space_rough():
    # smoothness high - gap*(1+kappa)/p collapses to 1/q - 1/2 at the
    # critical weight of the rough variant
    s, q = F(1, 5), F(5, 2)
    g = one_d_growth_params("rough", s=s, q=q)
    p = F(4)
    kappa = critical_weight(g, p)
    scale = SobolevScale(-1 - s, 1 - s, q)
    st_ = Setting(scale, p, kappa)
    assert trace_space(st_).smoothness == 1 / q - F(1, 2)


# --- subcriticality ---------------------------------------------------------

def test_l2_growth_is_critical():
    rep = full_report(l2_growth(), L2_SETTING)
    assert rep.all_windows_ok and rep.all_subcritical and rep.is_critical
    f_row, g_row = rep.terms
    assert f_row.slack == 0 and f_row.critical
    assert g_row.slack == F(1, 6) and not g_row.critical


def test_slack_equals_rho_times_weight_margin():
    rep = full_report(l2_growth(F(1, 5)), L2_SETTING)
    for row in rep.terms:
        assert row.slack == row.term.rho * row.weight_margin


def test_window_violation_reported_not_raised():
    g = GrowthSpec(f_terms=(GrowthTerm(F(1), F(1, 4), F(1, 4)),))
    rep = full_report(g, L2_SETTING)  # phi=1/4 below 1-c=1/2
    assert not rep.all_windows_ok
    assert not rep.terms[0].window_ok


def test_supercritical_slack_negative():
    g = GrowthSpec(f_terms=(GrowthTerm(F(4), F(9, 10), F(9, 10)),))
    rep = full_report(g, L2_SETTING)
    assert rep.terms[0].slack < 0
    assert not rep.all_subcritical and not rep.is_critical


# --- critical weight --------------------------------------------------------

def test_critical_weight_l2_is_zero():
    assert critical_weight(l2_growth(), F(2)) == 0


def test_critical_weight_rough_formula():
    # kappa_crit = -1 + (p/2)*(3/2 - s - 1/q) for the rough variant
    for s, q, p in [(F(1, 5), F(5, 2), F(4)), (F(1, 4), F(3), F(6)),
                    (F(3, 10), F(11, 4), F(5))]:
        g = one_d_growth_params("rough", s=s, q=q)
        expect = -1 + p / 2 * (F(3, 2) - s - 1 / q)
        got = critical_weight(g, p)
        if expect == 0 or (p > 2 and 0 <= expect < p / 2 - 1):
            assert got == expect
        else:
            assert got is None


def test_critical_weight_binding_term_is_drift():
    g = one_d_growth_params("l2_eps", eps=F(1, 5))
    # kappa would be negative
    assert full_report(g, L2_SETTING).binding_terms == ()
    g0 = l2_growth()
    assert full_report(g0, L2_SETTING).binding_terms == (("f", 0),)


def test_critical_weight_rho_zero_never_binds():
    g = GrowthSpec(g_terms=(GrowthTerm(F(0), F(3, 4), F(3, 4)),))
    assert critical_weight(g, F(4)) is None


# --- exponents --------------------------------------------------------------

def test_l2_exponents_exact():
    exps = rho_star_and_x_exponents(l2_growth(), L2_SETTING)
    f = exps[0]
    assert (f.rho_star, f.r, f.r_conj) == (F(2), F(3), F(3, 2))
    e0, e1 = f.x_entries
    assert e0.time_exponent == 6 and e0.smoothness == F(1, 3) and e0.space_q == 2
    assert e1.time_exponent == 6 and e1.smoothness == F(1, 3)


SPEC_LEVEL = pytest.mark.parametrize(
    "fn", [rho_star_and_x_exponents, xi_exponents, star_params],
    ids=lambda fn: fn.__name__)
OUT_OF_WINDOW = GrowthTerm(F(1), F(1, 4), F(1, 4))   # phi below 1-c = 1/2
SUPERCRITICAL = GrowthTerm(F(4), F(9, 10), F(9, 10))


@SPEC_LEVEL
def test_exponents_reject_bad_window(fn):
    g = GrowthSpec(f_terms=(OUT_OF_WINDOW,))
    with pytest.raises(GrowthWindowError):
        fn(g, L2_SETTING)


@SPEC_LEVEL
def test_exponents_reject_supercritical(fn):
    g = GrowthSpec(f_terms=(SUPERCRITICAL,))
    with pytest.raises(ParameterError, match=r"term \(f,0\) is supercritical"):
        fn(g, L2_SETTING)
    # all windows hold: the first of several supercritical terms is named
    in_window = l2_growth().f_terms[0]
    g = GrowthSpec(f_terms=(in_window,), g_terms=(SUPERCRITICAL, SUPERCRITICAL))
    with pytest.raises(ParameterError) as err:
        fn(g, L2_SETTING)
    assert type(err.value) is ParameterError
    assert str(err.value) == "term (g,0) is supercritical at this setting"


@SPEC_LEVEL
def test_exponents_check_windows_before_subcriticality(fn):
    # the supercritical term comes first, yet the window error wins and
    # names every out-of-window term
    g = GrowthSpec(f_terms=(SUPERCRITICAL, OUT_OF_WINDOW),
                   g_terms=(OUT_OF_WINDOW,))
    with pytest.raises(GrowthWindowError) as err:
        fn(g, L2_SETTING)
    assert str(err.value) == (
        "terms outside the (1-(1+kappa)/p, 1) window at weight index 1/2: "
        "[('f', 1), ('g', 0)]")


# --- starred exponents ------------------------------------------------------

def test_star_params_case1_critical_term():
    sp = star_params_term(F(2), F(2, 3), F(2, 3), F(2), F(0))
    assert sp.case_id == 1
    assert sp.phi_star == F(2, 3) and sp.beta_star == F(2, 3)


def test_star_params_case2():
    sp = star_params_term(F(1), F(3, 5), F(3, 5), F(4), F(0))
    assert sp.case_id == 2
    assert sp.phi_star == sp.beta_star == F(7, 8)


def test_star_params_case1_beta_gains_slack():
    # strictly subcritical case-1 term: beta* = beta + slack
    rho, phi, beta, p, kappa = F(1), F(3, 4), F(2, 3), F(2), F(0)
    sp = star_params_term(rho, phi, beta, p, kappa)
    c = F(1, 2)
    slack = 1 - (rho * (phi - 1 + c) + beta)
    assert sp.case_id == 1
    assert sp.beta_star == beta + slack


def test_star_params_rho_zero_lands_in_case2():
    sp = star_params_term(F(0), F(3, 4), F(3, 4), F(4), F(1, 2))
    assert sp.case_id == 2
    assert sp.epsilon is not None and 0 < sp.epsilon
    assert sp.rho_eff == sp.epsilon


def test_negative_rho_is_rejected_by_the_raw_term_functions():
    # GrowthTerm rejects rho < 0; the raw-parameter functions once took
    # rho = -1 for rho = 0 (epsilon 3/4) and called the term Serrin-ready
    message = "growth power rho must be >= 0"
    with pytest.raises(ParameterError, match=message):
        GrowthTerm(F(-1), F(3, 4), F(3, 4))
    with pytest.raises(ParameterError, match=message):
        star_params_term(F(-1), F(3, 4), F(3, 4), F(4), F(1, 2))
    with pytest.raises(ParameterError, match=message):
        revised_serrin_term_raw(F(-1), F(3, 4), F(3, 4), F(4), F(1, 2))


def test_star_params_spec_wrapper_carries_indices():
    sps = star_params(l2_growth(), L2_SETTING)
    assert [(s.part, s.index) for s in sps] == [("f", 0), ("g", 0)]


# --- xi exponents -----------------------------------------------------------

def test_xi_reduces_to_r_on_critical_term():
    xi = xi_exponents(l2_growth(), L2_SETTING)[0]
    assert (xi.xi, xi.xi_conj) == (F(3), F(3, 2))
    assert xi.x_entries[0].time_exponent == 6
    assert xi.x_entries[0].smoothness == F(1, 3)


# --- interpolation ----------------------------------------------------------

def test_interpolation_case3():
    r = interpolation_exponents(F(2, 3), F(2), F(0))
    assert (r.zeta, r.delta, r.phi, r.case_id, r.theta0) == (
        F(6), F(1), F(1, 3), 3, F(0))


def test_interpolation_case1():
    r = interpolation_exponents(F(9, 10), F(4), F(1))
    assert (r.zeta, r.delta, r.phi, r.case_id) == (F(5), F(1, 5), F(1), 1)
    assert r.theta0 == F(1, 16)


def test_interpolation_boundary_is_case2():
    # psi = 1 - kappa/p: both case formulas coincide, reported as case 2
    p, kappa = F(4), F(1)
    r = interpolation_exponents(1 - kappa / p, p, kappa)
    assert r.case_id == 2
    assert r.delta == kappa / (kappa + 1)
    assert r.phi == 1 and r.theta0 == kappa / p


def test_interpolation_case2_deep():
    p, kappa = F(4), F(1)
    c = (1 + kappa) / p
    psi = 1 - c * (1 + kappa) / (2 + kappa)  # left edge of the case-1 window
    r = interpolation_exponents(psi, p, kappa)
    assert r.case_id == 2
    assert r.delta == F(1, 2) and r.theta0 == F(1, 4)
    assert r.phi == p * (psi - 1 + c)


def test_interpolation_rejects_outside_window():
    with pytest.raises(ParameterError):
        interpolation_exponents(F(1, 3), F(2), F(0))
    with pytest.raises(ParameterError):
        interpolation_exponents(F(2, 3), F(2), F(2))  # kappa >= p-1


# --- serrin -----------------------------------------------------------------

def test_serrin_plain_l2():
    rep = serrin_applicable(l2_growth(), L2_SETTING)
    # kappa=0 branch: rho <= 1; drift term has rho=2
    assert not rep.terms[0].ok and rep.terms[1].ok
    assert not rep.ok


def test_serrin_plain_needs_beta_eq_phi():
    g = GrowthSpec(f_terms=(GrowthTerm(F(1), F(3, 4), F(2, 3)),))
    rep = serrin_applicable(g, L2_SETTING)
    assert not rep.ok and "beta = phi" in rep.terms[0].reason


def test_revised_serrin_raw_example():
    ok, beta_s, phi_s, thr = revised_serrin_term_raw(
        F(2), F(2, 3), F(2, 3), F(6), F(2))
    assert ok
    assert beta_s == phi_s == F(2, 3)
    assert thr == F(5, 8)


def test_revised_serrin_spec_flavour():
    rep = serrin_applicable(l2_growth(), L2_SETTING, revised=True)
    # beta* = phi* = 2/3 > 1 - (1/2)*(1/2) = 3/4? no: threshold is 3/4
    thr = 1 - F(1, 2) * F(1, 2)
    assert thr == F(3, 4)
    assert not rep.terms[0].ok


# --- criterion selection ----------------------------------------------------

def test_criterion_select_table():
    # (semilinear, is_critical, have_sup, have_lp) -> clause id
    table = {
        (False, False, False, False): "blow_up_non_critical",
        (False, False, False, True): "blow_up_non_critical",
        (False, False, True, False): "blow_up_non_critical",
        (False, False, True, True): "blow_up_non_critical",
        (False, True, False, False): "blow_up_nonlinearity_functional",
        (False, True, True, False): "blow_up_nonlinearity_functional",
        (False, True, False, True): "blow_up_limit_and_lp_bound",
        (False, True, True, True): "blow_up_limit_and_lp_bound",
        (True, False, False, False): "semilinear_nonlinearity_functional_or_serrin",
        (True, True, False, False): "semilinear_nonlinearity_functional_or_serrin",
        (True, False, False, True): "semilinear_nonlinearity_functional_or_serrin",
        (True, True, False, True): "semilinear_nonlinearity_functional_or_serrin",
        (True, False, True, False): "semilinear_sup_bound_non_critical",
        (True, False, True, True): "semilinear_sup_bound_non_critical",
        (True, True, True, False): "semilinear_sup_and_lp_bound",
        (True, True, True, True): "semilinear_sup_and_lp_bound",
    }
    for args, clause in table.items():
        assert criterion_select(*args).clause == clause


def test_criterion_descriptions_name_the_estimates():
    assert "L^p(0,σ;X_{1-κ/p})" in criterion_select(False, True, False, True).description
    assert "clause (1) or Serrin theorem" in criterion_select(
        True, False, False, False).description


# --- 1d growth variants -----------------------------------------------------

def test_one_d_growth_l2_eps():
    g = one_d_growth_params("l2_eps", eps=F(1, 5))
    (f,) = g.f_terms
    (gg,) = g.g_terms
    assert f.rho == 2 and f.phi == f.beta == F(2, 3) + F(1, 15)
    assert gg.rho == 1 and gg.phi == f.phi


def test_one_d_growth_lzeta():
    g = one_d_growth_params("lzeta", zeta=F(4))
    assert g.f_terms[0].phi == F(1, 2) + F(1, 12)


def test_one_d_growth_rough():
    g = one_d_growth_params("rough", s=F(1, 5), q=F(5, 2))
    assert g.f_terms[0].phi == F(7, 10)


def test_one_d_growth_nu_scales_diffusion_power():
    g = one_d_growth_params("l2_eps", eps=F(0), nu=F(1, 2))
    assert g.g_terms[0].rho == F(3, 2)
    with pytest.raises(ParameterError):
        one_d_growth_params("l2_eps", eps=F(0), nu=F(5, 2))


def test_one_d_growth_validates_ranges():
    with pytest.raises(ParameterError):
        one_d_growth_params("l2_eps", eps=F(1, 2))
    with pytest.raises(ParameterError):
        one_d_growth_params("lzeta", zeta=F(2))
    with pytest.raises(ParameterError):
        one_d_growth_params("rough", s=F(1, 3), q=F(4))  # s = 1/3 excluded
    with pytest.raises(ParameterError):
        one_d_growth_params("unknown")


def test_rough_q_window_upper_edge():
    with pytest.raises(ParameterError):
        one_d_growth_params("rough", s=F(1, 4), q=F(8))  # q = 2/s excluded


# --- property tests ---------------------------------------------------------

@st.composite
def admissible_setting_and_term(draw, allow_supercritical=False):
    p = draw(rationals(F(2), F(10), 16))
    if p == 2:
        kappa = F(0)
    else:
        t = draw(rationals(F(0), F(15, 16), 16))
        kappa = t * (p / 2 - 1)
    c = (1 + kappa) / p
    a = draw(rationals(F(1, 16), F(15, 16), 16))
    phi = (1 - c) + a * c
    b = draw(rationals(F(1, 16), F(1), 16))
    beta = (1 - c) + b * (phi - (1 - c))
    if allow_supercritical:
        rho = draw(rationals(F(0), F(8), 16))
    else:
        rho_max = (1 - beta) / (phi - 1 + c)
        v = draw(rationals(F(0), F(1), 16))
        rho = v * rho_max
    return rho, phi, beta, p, kappa


@pytest.mark.parametrize("lo, hi, den", [
    (F(1, 16), F(15, 16), 16), (F(-1), F(3, 2), 24), (F(0), F(8), 32),
])
def test_rationals_reach_both_endpoints(lo, hi, den):
    strategy = rationals(lo, hi, den)
    for end in (lo, hi):
        assert find(strategy, lambda x: x == end,
                    settings=settings(max_examples=2000,
                                      derandomize=True)) == end


@given(admissible_setting_and_term())
@settings(max_examples=300)
def test_property_conjugacy_and_slack(params):
    rho, phi, beta, p, kappa = params
    c = (1 + kappa) / p
    g = GrowthSpec(f_terms=(GrowthTerm(rho, phi, beta),))
    scale = SobolevScale(F(-1), F(1), F(2))
    s = Setting(scale, p, kappa)
    rep = full_report(g, s)
    row = rep.terms[0]
    assert row.slack == 1 - (rho * (phi - 1 + c) + beta)
    if rho > 0:
        assert row.slack == rho * row.weight_margin
    if beta < 1:
        ex = rho_star_and_x_exponents(g, s)[0]
        assert 1 / ex.r + 1 / ex.r_conj == 1
        assert ex.rho_star * (phi - 1 + c) == 1 - beta
        # the raw-parameter formulas are the reference
        assert (ex.rho_star, ex.r, ex.r_conj) == (
            (1 - beta) / (phi - 1 + c), c / (beta - 1 + c), c / (1 - beta))
        e0, e1 = ex.x_entries
        assert (e0.theta, e1.theta) == (beta, phi)
        assert e0.time_exponent == p * ex.r
        assert e1.time_exponent == ex.rho_star * p * ex.r_conj
        assert e0.smoothness == (1 - beta) * scale.low + beta * scale.high
        assert e1.smoothness == (1 - phi) * scale.low + phi * scale.high


@given(admissible_setting_and_term())
@settings(max_examples=300)
def test_property_star_identity(params):
    rho, phi, beta, p, kappa = params
    c = (1 + kappa) / p
    sp = star_params_term(rho, phi, beta, p, kappa)
    assert sp.rho_eff * (sp.phi_star - 1 + c) + sp.beta_star == 1
    assert 1 - c < sp.phi_star < 1
    assert 1 - c < sp.beta_star <= 1
    g = GrowthSpec(f_terms=(GrowthTerm(rho, phi, beta),))
    scale = SobolevScale(F(-1), F(1), F(2))
    s = Setting(scale, p, kappa)
    xi = xi_exponents(g, s)[0]
    assert 1 / xi.xi + 1 / xi.xi_conj == 1
    # the raw-parameter formulas are the reference
    assert xi.xi == c / (sp.beta_star - 1 + c)
    assert xi.xi_conj == 1 / (sp.rho_eff * (sp.phi_star - 1 + c) / c)
    e0, e1 = xi.x_entries
    assert (e0.theta, e1.theta) == (sp.beta_star, sp.phi_star)
    assert e0.time_exponent == p * xi.xi
    assert e1.time_exponent == sp.rho_eff * p * xi.xi_conj
    assert e0.smoothness == (1 - sp.beta_star) * scale.low + sp.beta_star * scale.high
    assert e1.smoothness == (1 - sp.phi_star) * scale.low + sp.phi_star * scale.high


@given(admissible_setting_and_term(), admissible_setting_and_term())
@settings(max_examples=200)
def test_property_spec_star_rows_match_raw_terms(first, second):
    # the second draw contributes its term only, at the first draw's setting
    rho, phi, beta, p, kappa = first
    s = Setting(SobolevScale(F(-1), F(1), F(2)), p, kappa)
    c = s.weight_index
    terms = [GrowthTerm(rho, phi, beta)]
    rho2, phi2, beta2 = second[:3]
    t2 = GrowthTerm(rho2, phi2, beta2)
    if t2.window_ok(s.window_low) and rho2 * (phi2 - 1 + c) + beta2 <= 1:
        terms.append(t2)
    g = GrowthSpec(f_terms=tuple(terms[:1]), g_terms=tuple(terms[1:]))
    rows = star_params(g, s)
    assert [(r.part, r.index) for r in rows] == [(part, i) for part, i, _ in g.terms()]
    for row, (_, _, t) in zip(rows, g.terms()):
        raw = star_params_term(t.rho, t.phi, t.beta, p, kappa)
        assert replace(row, part="", index=-1) == raw


@given(
    rationals(F(0), F(4), 16),
    rationals(F(-1), F(3, 2), 24),
    rationals(F(-1), F(3, 2), 24),
    rationals(F(-1), F(3, 2), 24),
)
@settings(max_examples=500)
def test_property_window_ok_matches_the_window(rho, phi, beta, lo):
    # the stored beta <= phi < 1 and one comparison give the full window
    t = GrowthTerm(rho, phi, beta)
    assert t.window_ok(lo) == (lo < phi < 1 and lo < beta <= phi)
    for edge in (phi, beta, F(1)):
        assert t.window_ok(edge) == (edge < phi < 1 and edge < beta <= phi)


@given(
    rationals(F(-3), F(1), 12),
    rationals(F(1, 12), F(4), 12),
    st.one_of(
        st.sampled_from([0, 1, F(0), F(1), -2, 3]),
        rationals(F(-2), F(3), 64),
    ),
)
@settings(max_examples=300)
def test_property_smoothness_at_interpolates(low, width, theta):
    scale = SobolevScale(low, low + width, F(2))
    assert scale.smoothness_at(theta) == (1 - theta) * scale.low + theta * scale.high


@pytest.mark.parametrize("theta", [True, False])
def test_smoothness_at_rejects_bools(theta):
    # True == 1 and False == 0, yet a bool is no number to as_fraction, and
    # the endpoint fast path must not return high or low for one
    scale = SobolevScale(-1, 1, 2)
    with pytest.raises(ParameterError, match=f"^not a number: {theta}$"):
        scale.smoothness_at(theta)
    assert scale.smoothness_at(0) is scale.low
    assert scale.smoothness_at(1) is scale.high


@given(
    rationals(F(2), F(8), 12),
    rationals(F(0), F(15, 16), 16),
    rationals(F(1, 32), F(31, 32), 32),
)
@settings(max_examples=300)
def test_property_interpolation_identities(p, kt, t):
    kappa = kt * (p - 1)
    c = (1 + kappa) / p
    psi = (1 - c) + t * c
    r = interpolation_exponents(psi, p, kappa)
    assert r.zeta == (1 + kappa) / (psi - 1 + c)
    assert 0 < r.delta <= 1
    assert 0 < r.phi <= 1
    assert 0 <= r.theta0 < (1 + kappa) / p
    lhs = (1 - r.delta) * r.phi
    rhs = p / (1 + kappa) * (psi - 1 + c)
    if r.case_id == 3:
        assert lhs == 0
    else:
        assert lhs == rhs


# --- json round trips -------------------------------------------------------

def test_fraction_json_round_trip():
    assert fraction_to_json(F(2, 3)) == "2/3"
    assert fraction_to_json(F(4)) == "4"
    assert fraction_from_json("2/3") == F(2, 3)
    assert fraction_from_json(5) == F(5)
    with pytest.raises(ParameterError):
        fraction_from_json("x/y")


def test_growth_spec_round_trip():
    g = one_d_growth_params("rough", s=F(1, 5), q=F(5, 2))
    assert growth_spec_from_dict(growth_spec_to_dict(g)) == g
    # keys of the dropped metadata fields are ignored on input
    legacy = dict(growth_spec_to_dict(g), has_trace_part_f=True,
                  has_trace_part_g=True, sublinearity_constant=1.0)
    assert growth_spec_from_dict(legacy) == g


def test_full_report_shape():
    rep = full_report(l2_growth(), L2_SETTING)
    assert rep.kappa_crit == 0
    assert rep.is_critical
    assert rep.exponents is not None and len(rep.exponents) == 2
