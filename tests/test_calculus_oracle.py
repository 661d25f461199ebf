"""Differential oracle for the exponent calculus's integer closed forms.

`exponents.py` computes its hot outputs from the integer numerators and
denominators of its Fraction inputs, and each such form names in its
docstring the Fraction formula it equals.  Here each output is compared,
with == and as a Fraction, against that formula written out on Fractions,
on bounded random rationals that reach inadmissible values too; the
errors are compared by type and message.  Criterion 3's draw generator,
built from integer parts, is compared with the Fraction generator it
replaced on all 10^4 of its draws.
"""
import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from critspde.acceptance import _H2, _random_setting_and_term
from critspde.exponents import (
    GrowthSpec,
    GrowthTerm,
    GrowthWindowError,
    ParameterError,
    Setting,
    SobolevScale,
    critical_weight,
    full_report,
    one_d_growth_params,
    rho_star_and_x_exponents,
    star_params,
    star_params_term,
    subcriticality,
    trace_space,
    xi_exponents,
)
from rational_strategy import rationals

WIDE = rationals(F(-3), F(6), 48)
UNIT = rationals(F(0), F(1), 48)


def edged(strategy, *edges):
    """strategy, or one of the edges, at which some check switches."""
    return st.one_of(st.sampled_from(edges), strategy)


def exact(got, want):
    """got is the Fraction want: equal, and a Fraction, not an int."""
    assert type(got) is F and got == want, (got, want)


def raised(fn, *args, **kwargs):
    """(type, message) of the ParameterError fn raises, or None."""
    try:
        fn(*args, **kwargs)
    except ParameterError as e:
        return type(e), str(e)
    return None


# --- the constructors' derived values and checks ----------------------------


@given(WIDE, WIDE, WIDE, WIDE)
@settings(max_examples=150)
def test_scale_closed_forms(low, high, q, theta):
    if not high > low:
        want = "scale needs high > low smoothness"
    elif not q > 1:
        want = "scale integrability must exceed 1"
    else:
        want = None
    assert raised(SobolevScale, low, high, q) == (
        None if want is None else (ParameterError, want))
    if want is None:
        sc = SobolevScale(low, high, q)
        exact(sc.gap, high - low)
        exact(sc.smoothness_at(theta), low + theta * (high - low))


@given(edged(WIDE, F(2)), WIDE, st.booleans(), edged(UNIT, F(0), F(1)))
@example(F(4), F(1), False, F(0))   # kappa = p/2-1
@example(F(2), F(0), False, F(0))
@example(F(2), F(1, 2), False, F(0))
@settings(max_examples=150)
def test_setting_closed_forms(p, kappa, scaled, frac):
    # a scaled kappa lands on 0 and on p/2-1 often
    if scaled:
        kappa = (p / 2 - 1) * frac
    scale = SobolevScale(F(-1, 3), F(5, 4), F(7, 3))
    if p < 2:
        want = "time integrability p must be >= 2"
    elif p == 2 and kappa != 0:
        want = "p = 2 forces kappa = 0"
    elif p > 2 and not 0 <= kappa < p / 2 - 1:
        want = f"kappa={kappa} outside [0, p/2-1) for p={p}"
    else:
        want = None
    assert raised(Setting, scale, p, kappa) == (
        None if want is None else (ParameterError, want))
    if want is None:
        s = Setting(scale, p, kappa)
        exact(s.weight_index, (1 + kappa) / p)
        exact(s.window_low, 1 - (1 + kappa) / p)
        tr = trace_space(s)
        exact(tr.smoothness, scale.high - scale.gap * s.weight_index)
        assert (tr.q, tr.p) == (scale.q, p)


@given(WIDE, WIDE, WIDE, WIDE)
@settings(max_examples=150)
def test_growth_term_closed_forms(rho, phi, beta, lo):
    if rho < 0:
        assert raised(GrowthTerm, rho, phi, beta) == (
            ParameterError, "growth power rho must be >= 0")
        return
    t = GrowthTerm(rho, phi, beta)
    assert t.ordered is (beta <= phi < 1)
    if rho == 0:
        assert t.threshold_weight_index is None
    else:
        exact(t.threshold_weight_index, (1 - beta) / rho + (1 - phi))
    d, lhs = t.lhs(lo)
    exact(d, phi - lo)
    exact(lhs, rho * (phi - lo) + beta)
    assert t.window_ok(lo) is (lo < beta <= phi < 1)


# --- the per-setting passes -------------------------------------------------


@st.composite
def setting_and_spec(draw):
    """An admissible setting and one or two terms, each inside its window
    with a random rho that may make it supercritical, or drawn freely."""
    p = 2 + 8 * draw(UNIT)
    kappa = F(0) if p == 2 else (p / 2 - 1) * draw(
        rationals(F(0), F(47, 48), 48))
    low = draw(rationals(F(-2), F(1), 12))
    scale = SobolevScale(low, low + 1 + draw(UNIT), 1 + 4 * draw(UNIT) + F(1, 8))
    s = Setting(scale, p, kappa)
    c, lo = s.weight_index, s.window_low
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        if terms and draw(st.booleans()):
            # a repeated term ties with the first for the critical weight
            terms.append(terms[0])
        elif draw(st.booleans()):
            phi = lo + c * draw(rationals(F(1, 48), F(47, 48), 48))
            beta = lo + (phi - lo) * draw(rationals(F(1, 48), F(1), 48))
            # rho*d + phi = 1 at rho = (1-phi)/d: the star cases' boundary;
            # rho*d + beta = 1 at rho = (1-beta)/d: a critical term
            rho = draw(edged(rationals(F(0), F(5, 4), 48).map(
                lambda v: (1 - beta) / (phi - lo) * v),
                (1 - phi) / (phi - lo), (1 - beta) / (phi - lo)))
        else:
            rho, phi, beta = (draw(rationals(F(0), F(4), 24)),
                              draw(WIDE), draw(WIDE))
        terms.append(GrowthTerm(rho, phi, beta))
    split = draw(st.integers(0, len(terms)))
    return s, GrowthSpec(tuple(terms[:split]), tuple(terms[split:]))


def reference_rows(g, s):
    """Per term: (part, index, term, d = phi-1+c, rho*d + beta, window)."""
    c = (1 + s.kappa) / s.p
    for part, i, t in g.terms():
        d = t.phi - 1 + c
        yield part, i, t, d, t.rho * d + t.beta, 1 - c < t.beta <= t.phi < 1


def reference_error(g, s):
    rows = list(reference_rows(g, s))
    bad = [(part, i) for part, i, _, _, _, ok in rows if not ok]
    if bad:
        c = (1 + s.kappa) / s.p
        return GrowthWindowError, ("terms outside the (1-(1+kappa)/p, 1) "
                                   f"window at weight index {c}: {bad}")
    for part, i, _, _, lhs, _ in rows:
        if lhs > 1:
            return ParameterError, f"term ({part},{i}) is supercritical at this setting"
    return None


def reference_star(t, s, d):
    """(rho_eff, phi*, beta*, case, eps): case 1 keeps phi* = phi and takes
    beta* = 1 - rho_eff*d; case 2 takes phi* = beta* = 1 - rho_eff/(rho_eff+1)*c."""
    c = (1 + s.kappa) / s.p
    eps = None if t.rho > 0 else min(s.kappa + 1, (1 - t.phi) / d) / 2
    rho_eff = t.rho if t.rho > 0 else eps
    if rho_eff * d + t.phi >= 1:
        return rho_eff, t.phi, 1 - rho_eff * d, 1, eps
    star = 1 - rho_eff / (rho_eff + 1) * c
    return rho_eff, star, star, 2, eps


def check_entries(entries, s, rho, phi, beta, r, r_conj):
    """The mixed-norm entries L^{p*r} at beta and L^{rho*p*r'} at phi."""
    sc = s.scale
    for e, time_exponent, theta in ((entries[0], s.p * r, beta),
                                    (entries[1], rho * s.p * r_conj, phi)):
        exact(e.time_exponent, time_exponent)
        assert e.theta == theta and e.space_q == sc.q
        exact(e.smoothness, (1 - theta) * sc.low + theta * sc.high)


@given(setting_and_spec())
@settings(max_examples=150)
def test_subcriticality_and_critical_weight_closed_forms(drawn):
    s, g = drawn
    c = (1 + s.kappa) / s.p
    rep = subcriticality(g, s)
    for row, (part, i, t, d, lhs, ok) in zip(rep.terms, reference_rows(g, s)):
        assert (row.part, row.index, row.term) == (part, i, t)
        exact(row.lhs, lhs)
        exact(row.slack, 1 - lhs)
        assert row.window_ok is ok and row.critical is (lhs == 1)
        if t.rho == 0:
            assert row.weight_margin is None
        else:
            exact(row.weight_margin, (1 - t.beta) / t.rho + (1 - t.phi) - c)
    slacks = [1 - lhs for *_, lhs, _ in reference_rows(g, s)]
    assert rep.all_subcritical is all(x >= 0 for x in slacks)
    assert rep.is_critical is (rep.all_subcritical and 0 in slacks)

    # kappa = p*c* - 1 per binding term, c* = (1-beta)/rho + (1-phi)
    ks = {(part, i): s.p * ((1 - t.beta) / t.rho + (1 - t.phi)) - 1
          for part, i, t in g.terms() if t.rho > 0}
    kappa = min(ks.values(), default=None)
    if kappa is not None and not (kappa == 0 or (
            s.p > 2 and 0 <= kappa < s.p / 2 - 1)):
        kappa = None
    got = critical_weight(g, s.p)
    if kappa is None:
        assert got is None
    else:
        exact(got, kappa)
    full = full_report(g, s)
    assert full.binding_terms == (() if kappa is None else tuple(
        key for key, k in ks.items() if k == kappa))


@given(setting_and_spec())
@settings(max_examples=150)
def test_exponent_tables_closed_forms(drawn):
    s, g = drawn
    c = (1 + s.kappa) / s.p
    want = reference_error(g, s)
    for fn in (rho_star_and_x_exponents, xi_exponents, star_params):
        assert raised(fn, g, s) == want
    if want is not None:
        return
    rows = list(reference_rows(g, s))
    for te, (part, i, t, d, _, _) in zip(rho_star_and_x_exponents(g, s), rows):
        assert (te.part, te.index) == (part, i)
        exact(te.rho_star, (1 - t.beta) / d)
        exact(te.r, c / (t.beta - 1 + c))
        exact(te.r_conj, c / (1 - t.beta))
        check_entries(te.x_entries, s, te.rho_star, t.phi, t.beta, te.r,
                      te.r_conj)
    for sp, xe, (part, i, t, d, _, _) in zip(star_params(g, s),
                                            xi_exponents(g, s), rows):
        rho_eff, phi_star, beta_star, case, eps = reference_star(t, s, d)
        assert (sp.part, sp.index, sp.case_id) == (part, i, case)
        exact(sp.rho_eff, rho_eff)
        exact(sp.phi_star, phi_star)
        exact(sp.beta_star, beta_star)
        if eps is None:
            assert sp.epsilon is None
        else:
            exact(sp.epsilon, eps)
        assert replace(sp, part="", index=-1) == star_params_term(
            t.rho, t.phi, t.beta, s.p, s.kappa)
        assert (xe.part, xe.index) == (part, i)
        exact(xe.xi, c / (beta_star - 1 + c))
        exact(xe.xi_conj, c / (1 - beta_star))
        check_entries(xe.x_entries, s, rho_eff, phi_star, beta_star, xe.xi,
                      xe.xi_conj)


# --- the 1d growth terms ----------------------------------------------------


def reference_growth(variant, nu, eps=None, zeta=None, s=None, q=None):
    """(phi1, 2-nu) of one_d_growth_params, or the error message."""
    if not 0 < nu <= 2:
        return "nu must lie in (0, 2]"
    if variant == "l2_eps":
        if not 0 <= eps < F(1, 2):
            return "eps must lie in [0, 1/2)"
        return F(2, 3) + eps / 3, 2 - nu
    if variant == "lzeta":
        if not zeta > 2:
            return "zeta must exceed 2"
        return F(1, 2) + 1 / (3 * zeta), 2 - nu
    if not 0 < s < F(1, 3):
        return "s must lie in (0, 1/3)"
    if not 2 < q < 2 / s:
        return "q must lie in (2, 2/s)"
    return (1 / q + s) / 3 + F(1, 2), 2 - nu


@given(st.sampled_from(["l2_eps", "lzeta", "rough"]),
       edged(rationals(F(-1), F(3), 48), F(0), F(1), F(2)),
       edged(rationals(F(-1), F(1), 48), F(0), F(1, 2)),
       edged(rationals(F(-1), F(8), 48), F(2)),
       edged(rationals(F(-1, 6), F(1, 2), 48), F(0), F(1, 3)),
       edged(rationals(F(-1), F(16), 48), F(2)), st.booleans())
@example("rough", F(1), F(0), F(3), F(1, 6), F(12), False)  # q = 2/s
@example("rough", F(1), F(0), F(3), F(1, 6), F(2), False)
@example("rough", F(2), F(0), F(3), F(1, 3), F(3), False)
@example("l2_eps", F(0), F(1, 2), F(3), F(1, 6), F(3), False)
@example("lzeta", F(2), F(0), F(2), F(1, 6), F(3), False)
@settings(max_examples=150)
def test_one_d_growth_params_closed_forms(variant, nu, eps, zeta, s, q,
                                          q_at_bound):
    if q_at_bound and s != 0:
        q = 2 / s
    want = reference_growth(variant, nu, eps=eps, zeta=zeta, s=s, q=q)
    kwargs = {"l2_eps": {"eps": eps}, "lzeta": {"zeta": zeta},
              "rough": {"s": s, "q": q}}[variant]
    if isinstance(want, str):
        assert raised(one_d_growth_params, variant, nu=nu, **kwargs) == (
            ParameterError, want)
        return
    phi1, rho_g = want
    g = one_d_growth_params(variant, nu=nu, **kwargs)
    (f_term,), (g_term,) = g.f_terms, g.g_terms
    exact(f_term.rho, F(2))
    exact(g_term.rho, rho_g)
    for t in (f_term, g_term):
        exact(t.phi, phi1)
        exact(t.beta, phi1)


# --- criterion 3's generator ------------------------------------------------


def fraction_generator(rng: random.Random):
    """Criterion 3's draw as it was computed on Fractions: the oracle."""
    if rng.random() < 0.1:
        p, kappa = F(2), F(0)
    else:
        p = 2 + F(rng.randint(1, 96), 16)
        kappa = (p / 2 - 1) * F(rng.randint(0, 15), 16)
    c = (1 + kappa) / p
    phi = 1 - c + c * F(rng.randint(1, 23), 24)
    beta = (1 - c) + (phi - (1 - c)) * F(rng.randint(1, 24), 24)
    rho = (1 - beta) / (phi - 1 + c) * F(rng.randint(0, 16), 16)
    g = GrowthSpec(f_terms=(GrowthTerm(rho, phi, beta),))
    return g, Setting(_H2, p, kappa)


def test_criterion_3_generator_matches_fraction_oracle():
    # same random calls, same Fractions, on all 10^4 draws of criterion 3
    ours, oracle = random.Random(30317), random.Random(30317)
    for i in range(10_000):
        g, s = _random_setting_and_term(ours)
        g_ref, s_ref = fraction_generator(oracle)
        assert (g, s) == (g_ref, s_ref), i
        (t,), (t_ref,) = g.f_terms, g_ref.f_terms
        for got, want in ((t.rho, t_ref.rho), (t.phi, t_ref.phi),
                          (t.beta, t_ref.beta), (s.p, s_ref.p),
                          (s.kappa, s_ref.kappa)):
            exact(got, want)
    assert ours.getstate() == oracle.getstate()
