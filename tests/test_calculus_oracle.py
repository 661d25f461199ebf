"""Differential oracle for the calculus's integer closed forms.

`exponents.py` and the chain planner in `bootstrap.py` compute their hot
outputs from the integer numerators and denominators of their Fraction
inputs, and each such form names in its docstring the Fraction formula it
equals.  Here each output is compared, with == and as a Fraction, against
that formula written out on Fractions, on bounded random rationals that
reach inadmissible values too, with explicit examples where a comparison
switches; the errors are compared by type and message, and each planner
check's verdict with the same comparison made on Fractions.  The
planner's spaces, tuples of integer parts, are checked to be in lowest
terms and to label, index and compare as the same spaces written with
Fraction indices do, each label against one written with str of each
Fraction.  Criterion 3's
draw generator, built from integer parts, is compared with the Fraction
generator it replaced on all 10^4 of its draws.
"""
import random
from dataclasses import replace
from fractions import Fraction as F
from math import gcd
from typing import NamedTuple, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from critspde.acceptance import _H2, _random_setting_and_term
from critspde.bootstrap import (
    BootstrapError,
    _bessel,
    _bessel_between,
    _emb_case,
    _label,
    _unweighted_trace,
    _weighted_trace,
    check_extrapolation,
    embeds,
    full_chain_1d,
    plan_space_bootstrap,
    plan_time_bootstrap,
    plan_weight_insertion,
    sobolev_index,
)
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
    rep = full_report(g, s)
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


# --- the chain planner ------------------------------------------------------


def fresh(x):
    """A Fraction equal to x that is not the same object."""
    return None if x is None else F(x.numerator, x.denominator)


class Space(NamedTuple):
    """A space with Fraction indices: the oracle's form of the planner's
    integer parts."""
    kind: str
    smoothness: F
    q: F
    secondary: Optional[F] = None

    @property
    def parts(self):
        """The planner's (kind, sn, sd, qn, qd, secondary) of this space."""
        a = self.secondary
        return (self.kind, self.smoothness.numerator,
                self.smoothness.denominator, self.q.numerator,
                self.q.denominator,
                None if a is None else (a.numerator, a.denominator))


def bessel(smoothness, q):
    return Space("bessel", smoothness, q)


def besov(smoothness, q, secondary):
    return Space("besov", smoothness, q, secondary)


def reference_embeds(src, dst):
    """embeds as it was computed on Fractions: the oracle."""
    if src == dst:
        return True
    if dst.q > src.q:
        i_src, i_dst = src.smoothness - 1 / src.q, dst.smoothness - 1 / dst.q
        if i_src > i_dst:
            return True
        return (i_src == i_dst and src.kind == dst.kind == "besov"
                and src.secondary is not None and dst.secondary is not None
                and src.secondary <= dst.secondary)
    if src.smoothness > dst.smoothness:
        return True
    if src.smoothness == dst.smoothness and src.kind == dst.kind:
        if src.kind == "bessel":
            return True
        return (src.secondary is not None and dst.secondary is not None
                and src.secondary <= dst.secondary)
    return False


def reference_emb_case(r, alpha, r_hat, alpha_hat, ci_from, ci_to, eps):
    """The first inclusion case, on Fractions: the oracle of _emb_case."""
    if r == r_hat and alpha == alpha_hat:
        return 1
    if ci_to < ci_from:
        return 2
    if eps is not None and 0 < eps < F(1, 2) - ci_from:
        if ci_to < ci_from + eps:
            return 3
        if r == r_hat and ci_to == ci_from + eps:
            return 4
    return None


def planned(fn, *args):
    """(checks by name, step) of a step planner's call; the step is None
    when the call raised a BootstrapError, whose checks are returned."""
    try:
        step = fn(*args)
    except BootstrapError as e:
        return {c.name: c for c in e.checks}, None
    return {c.name: c for c in step.checks}, step


def check_all_or_none(checks, step):
    """A step is emitted exactly when all its checks pass."""
    assert (step is not None) is all(c.passed for c in checks.values())


def check_embedding(check, src, dst):
    """An embedding check names src and dst and passes as the oracle
    says."""
    assert (check.witness["src"], check.witness["dst"]) == (
        reference_label(src), reference_label(dst))
    assert check.passed is reference_embeds(src, dst)


def check_growth(checks, g, c, strict, suffix=""):
    """The window and subcriticality checks at weight index c, against
    lo < beta <= phi < 1 and lhs = rho*(phi - lo) + beta with lo = 1 - c."""
    lo = 1 - c
    for part, i, t in g.terms():
        window = checks[f"growth_window[{part}{i}]{suffix}"]
        assert window.passed is (lo < t.beta <= t.phi < 1)
        assert window.witness["weight_index"] == c
        sub = checks[f"subcritical[{part}{i}]{suffix}"]
        lhs = t.rho * (t.phi - lo) + t.beta
        exact(sub.witness["lhs"], lhs)
        exact(sub.witness["slack"], 1 - lhs)
        assert sub.passed is (lhs < 1 if strict else lhs <= 1)


KINDS = st.sampled_from(["bessel", "besov"])
SPACE_Q = rationals(F(1, 4), F(6), 48)
SECONDARY = st.one_of(st.none(), rationals(F(1), F(8), 12))
H2 = SobolevScale(F(-1), F(1), F(2))
G_L2 = one_d_growth_params("l2_eps", eps=F(0))
SPECS = st.one_of(
    st.sampled_from([G_L2, one_d_growth_params("l2_eps", eps=F(1, 5)),
                     one_d_growth_params("lzeta", zeta=F(4)),
                     one_d_growth_params("rough", s=F(1, 6), q=F(5, 2))]),
    setting_and_spec().map(lambda drawn: drawn[1]))


@st.composite
def space_pairs(draw):
    """(src, dst): dst drawn freely, or equal to src in fresh Fractions, or
    sharing its q, its Sobolev index or its smoothness, where embeds
    moves from one comparison to the next."""
    src = Space(draw(KINDS), draw(WIDE), draw(SPACE_Q), draw(SECONDARY))
    how = draw(st.sampled_from(["free", "equal", "q", "index", "smoothness"]))
    if how == "equal":
        return src, Space(src.kind, fresh(src.smoothness), fresh(src.q),
                          fresh(src.secondary))
    q = src.q if how == "q" else draw(SPACE_Q)
    smoothness = draw(WIDE)
    if how == "index":
        smoothness = src.smoothness - 1 / src.q + 1 / q
    elif how == "smoothness":
        smoothness = src.smoothness
    return src, Space(draw(KINDS), smoothness, q, draw(SECONDARY))


@given(space_pairs())
# equal Sobolev indices, dst more integrable: only ordered Besov passes
@example((besov(F(1, 2), F(2), F(2)), besov(F(1, 4), F(4), F(3))))
@example((besov(F(1, 2), F(2), F(3)), besov(F(1, 4), F(4), F(2))))
@example((bessel(F(1, 2), F(2)), bessel(F(1, 4), F(4))))
# equal q and smoothness: same kind, and ordered secondaries for Besov
@example((besov(F(1, 2), F(2), F(2)), besov(F(1, 2), F(2), F(3))))
@example((besov(F(1, 2), F(2), F(3)), besov(F(1, 2), F(2), F(2))))
@example((bessel(F(1, 2), F(2)), besov(F(1, 2), F(2), F(2))))
@example((bessel(F(1, 2), F(2)), bessel(F(1, 2), F(2))))
@settings(max_examples=300)
def test_embeds_closed_form(pair):
    # on the spaces' integer parts, against the comparison on Fractions
    src, dst = pair
    assert embeds(src.parts, dst.parts) is reference_embeds(src, dst)
    for space in pair:
        check_parts(space.parts, space)
        exact(sobolev_index(space.parts), space.smoothness - 1 / space.q)


def check_parts(parts, space):
    """parts are the normalized integer parts of the Space space:
    each index in lowest terms with a positive denominator, equal to its
    Fraction."""
    kind, sn, sd, qn, qd, a = parts
    assert kind == space.kind
    pairs = [(sn, sd, space.smoothness), (qn, qd, space.q)]
    if space.secondary is None:
        assert a is None
    else:
        pairs.append((*a, space.secondary))
    for n, d, want in pairs:
        assert d > 0 and gcd(n, d) == 1 and F(n, d) == want, (n, d, want)


def reference_label(space):
    """The label written out with str of each Fraction."""
    if space.kind == "bessel":
        return f"H^{{{space.smoothness},{space.q}}}"
    return f"B^{{{space.smoothness}}}_{{{space.q},{space.secondary}}}"


@given(KINDS, WIDE, SPACE_Q, SECONDARY)
# negative, integer and large-denominator smoothness, integer q and a
# missing secondary
@example("bessel", F(-3), F(2), None)
@example("besov", F(-7, 48), F(4), None)
@example("besov", F(0), F(5, 2), F(3))
@example("besov", F(-1, 10**9 + 7), F(7), F(12, 5))
@example("bessel", F(10**12 + 1, 10**12), F(1, 3), F(2))
@settings(max_examples=150)
def test_space_label_closed_form(kind, smoothness, q, secondary):
    space = Space(kind, smoothness, q, secondary)
    assert _label(space.parts) == reference_label(space)
    check_parts(space.parts, space)


@st.composite
def scales(draw):
    low = draw(rationals(F(-2), F(1), 12))
    return SobolevScale(low, low + 1 + draw(UNIT), 1 + 4 * draw(UNIT) + F(1, 8))


@given(setting_and_spec(), scales(), UNIT)
@settings(max_examples=150)
def test_trace_and_bessel_parts_closed_forms(drawn, scale, theta):
    # each space the planner builds from a setting or a scale holds
    # normalized parts, those of the space written with Fraction indices
    s = drawn[0]
    sc = s.scale
    gap, c = sc.gap, s.weight_index
    spaces = [
        (_weighted_trace(s), besov(sc.high - gap * c, sc.q, s.p)),
        (_unweighted_trace(s), besov(sc.high - gap / s.p, sc.q, s.p)),
        (_bessel(sc.low, sc.q), bessel(sc.low, sc.q)),
        (_bessel_between(scale, theta.numerator, theta.denominator),
         bessel(scale.low + theta * scale.gap, scale.q)),
    ]
    for parts, want in spaces:
        check_parts(parts, want)


@st.composite
def insertion_inputs(draw):
    """An unweighted setting, a growth spec, delta and r; delta drawn at 0
    or at 1 - max phi_j too, and r at 2, at p or at 1/bound for the bound
    max phi_j - 1 + 1/p, where the checks switch."""
    p = draw(edged(rationals(F(2), F(10), 24), F(2)))
    g = draw(SPECS)
    max_phi = max(t.phi for _, _, t in g.terms())
    delta = draw(edged(rationals(F(-1, 4), F(1), 48), F(0), 1 - max_phi))
    bound = max_phi - 1 + 1 / p
    r = draw(edged(rationals(F(1, 2), F(16), 24), F(2), p,
                   *([1 / bound] if bound > 0 else [])))
    return Setting(draw(scales()), p, F(0)), g, delta, r


@given(insertion_inputs())
@example((Setting(H2, F(2), F(0)), G_L2, F(1, 10), F(6)))  # criterion 5
@settings(max_examples=150)
def test_weight_insertion_closed_forms(drawn):
    s, g, delta, r = drawn
    p, max_phi = s.p, max(t.phi for _, _, t in g.terms())
    exact(g.max_phi, max_phi)
    checks, step = planned(plan_weight_insertion, s, r, delta, g)
    check_growth(checks, g, 1 / p, strict=False)
    assert checks["delta_window"].passed is (0 <= delta < 1 - max_phi)
    assert checks["p_above_two_at_zero_delta"].passed is (
        not (delta == 0 and p <= 2))
    assert checks["r_range"].passed is (r > 2 and r >= p)
    bound, alpha = max_phi - (1 - 1 / p), r * (1 / p - delta) - 1
    timed = checks["time_integrability"]
    exact(timed.witness["inv_r"], 1 / r)
    exact(timed.witness["bound"], bound)
    assert timed.passed is (1 / r >= bound)
    exact(checks["alpha_admissible"].witness["alpha"], alpha)
    assert checks["alpha_admissible"].passed is (0 <= alpha < r / 2 - 1)
    check_all_or_none(checks, step)
    if step is not None:
        shift, to = delta * s.scale.gap, step.to_setting
        exact(to.scale.low, s.scale.low - shift)
        exact(to.scale.high, s.scale.high - shift)
        exact(to.kappa, alpha)
        exact(step.params["alpha"], alpha)


def reference_margin(g, s):
    """min(min_j beta_j - (1 - c), kappa/p): the time step's 2*eps."""
    return min(min(t.beta for _, _, t in g.terms()) - (1 - s.weight_index),
               s.kappa / s.p)


@st.composite
def time_inputs(draw):
    """A weighted setting, a growth spec and r_hat; r_hat drawn at r, or at
    1/r_hat = (1+alpha)/r - eps, where the interval's low end switches."""
    p = draw(rationals(F(17, 8), F(12), 24))
    kappa = (p / 2 - 1) * draw(rationals(F(1, 48), F(47, 48), 48))
    s = Setting(draw(scales()), p, kappa)
    g = draw(SPECS)
    lo = s.weight_index - reference_margin(g, s) / 2
    r_hat = draw(edged(rationals(F(1, 2), F(40), 12), p,
                       *([1 / lo] if lo > 0 else [])))
    return s, g, r_hat


@given(time_inputs())
# beta - lo == alpha/r == 1/12: a margin tie
@example((Setting(H2, F(3), F(1, 4)), G_L2, F(12)))
# lo_a == 1/r_hat == (1+alpha)/r - eps == 1/3
@example((Setting(H2, F(6), F(7, 5)),
          one_d_growth_params("l2_eps", eps=F(1, 5)), F(3)))
@settings(max_examples=150)
def test_time_bootstrap_closed_forms(drawn):
    s, g, r_hat = drawn
    r, alpha, c = s.p, s.kappa, (1 + s.kappa) / s.p
    checks, step = planned(plan_time_bootstrap, s, r_hat, g)
    check_growth(checks, g, c, strict=False)
    assert checks["integrability_order"].passed is (r_hat >= r)
    margin = reference_margin(g, s)
    exact(checks["positive_margin"].witness["two_eps"], margin)
    assert checks["positive_margin"].passed is (margin > 0)
    eps = margin / 2
    lo_a, hi_a = max(c - eps, 1 / r_hat), min(c, F(1, 2))
    # a positive weight is admissible only at c < 1/2, so hi_a is c and
    # its switch hi_a == 1/2 cannot be reached
    assert hi_a == c < F(1, 2)
    interval = checks["weight_index_interval"]
    exact(interval.witness["lo"], lo_a)
    exact(interval.witness["hi"], hi_a)
    assert interval.passed is (lo_a < hi_a)
    c_mid = (lo_a + hi_a) / 2
    alpha_hat = r_hat * c_mid - 1
    exact(checks["alpha_hat_admissible"].witness["alpha_hat"], alpha_hat)
    assert checks["alpha_hat_admissible"].passed is (
        0 <= alpha_hat < r_hat / 2 - 1)
    check_growth(checks, g, c_mid, strict=True, suffix="@intermediate")
    assert checks["weighted_embedding_case"].witness["case"] == \
        reference_emb_case(r, alpha, r_hat, alpha_hat, c, c_mid, None)
    check_all_or_none(checks, step)
    if step is not None:
        for key, want in (("eps", eps), ("c_mid", c_mid),
                          ("alpha_hat", alpha_hat)):
            exact(step.params[key], want)
        assert step.to_setting == Setting(s.scale, r_hat, 0)


POSITIVE = rationals(F(1, 8), F(12), 24)


@given(POSITIVE, WIDE, POSITIVE, WIDE, st.one_of(st.none(), WIDE),
       st.sampled_from(["free", "same_r", "case_4", "at_eps", "eps_edge"]))
@example(F(6), F(7, 5), F(6), F(7, 5), None, "free")              # case 1
@example(F(12), F(6, 5), F(12), F(12, 5), F(1, 10), "free")       # case 4
@example(F(12), F(6, 5), F(6), F(7, 10), F(1, 10), "free")        # r != r_hat
@example(F(12), F(6, 5), F(12), F(12, 5), F(19, 60), "free")      # eps edge
@settings(max_examples=300)
def test_emb_case_closed_form(r, alpha, r_hat, alpha_hat, eps, how):
    # the planner's steps reach _emb_case with these values too, and with
    # the weight indices (1+alpha)/r and (1+alpha_hat)/r_hat their settings
    # hold
    ci_from = (1 + alpha) / r
    if how == "same_r":
        r_hat = r
    elif how == "case_4" and eps is not None:
        r_hat, alpha_hat = r, alpha + r * eps
    elif how == "at_eps" and eps is not None:
        alpha_hat = r_hat * (ci_from + eps) - 1  # case 4's equality at r_hat
    elif how == "eps_edge":
        eps = F(1, 2) - ci_from
    ci_to = (1 + alpha_hat) / r_hat
    want = reference_emb_case(r, alpha, r_hat, alpha_hat, ci_from, ci_to, eps)
    assert _emb_case(r, alpha, r_hat, alpha_hat, ci_from, ci_to, eps) == want


@st.composite
def space_step_inputs(draw):
    """Source and target settings and a growth spec.  The target scale has
    the source's gap (or, now and then, another), its low end shifted by
    shift*gap with shift 0 drawn often, and its weight index drawn freely
    or at c_from + shift, the switch of inclusion cases 3 and 4."""
    fs = draw(time_inputs())[0] if draw(st.booleans()) else Setting(
        draw(scales()), F(2), F(0))
    scale, gap = fs.scale, fs.scale.gap
    shift = draw(edged(rationals(F(-1, 4), F(1, 2), 48), F(0)))
    widen = draw(st.sampled_from([F(0)] * 7 + [F(1, 12)]))
    to_scale = SobolevScale(scale.low + shift * gap,
                            scale.high + shift * gap + widen,
                            draw(edged(rationals(F(9, 8), F(6), 24), scale.q)))
    p = draw(edged(rationals(F(2), F(16), 12), fs.p))
    kappa = F(0) if p == 2 else (p / 2 - 1) * draw(UNIT) * F(47, 48)
    edge = (fs.weight_index + shift) * p - 1
    if draw(st.booleans()) and (edge == 0 or (p > 2 and 0 <= edge < p / 2 - 1)):
        kappa = edge
    return fs, Setting(to_scale, p, kappa), draw(SPECS)


L2_STEPS = full_chain_1d("L2_start").steps


@given(space_step_inputs())
# criterion 5's recovery step: shift 1/10 > 0, case 4, both terms lifted
@example((L2_STEPS[2].from_setting, L2_STEPS[2].to_setting, G_L2))
# its integrability step: shift = 0, so no eps and case 2
@example((L2_STEPS[3].from_setting, L2_STEPS[3].to_setting,
          one_d_growth_params("lzeta", zeta=F(4))))
@settings(max_examples=200)
def test_space_bootstrap_closed_forms(drawn):
    fs, ts, g = drawn
    checks, step = planned(plan_space_bootstrap, fs, ts, g)
    check_all_or_none(checks, step)
    gap = fs.scale.gap
    assert checks["scale_gap"].passed is (gap == ts.scale.gap)
    if gap != ts.scale.gap:
        assert list(checks) == ["scale_gap"]
        return
    fsc, tsc = fs.scale, ts.scale
    check_embedding(checks["scale_component[0]"], bessel(tsc.low, tsc.q),
                    bessel(fsc.low, fsc.q))
    check_embedding(checks["scale_component[1]"], bessel(tsc.high, tsc.q),
                    bessel(fsc.high, fsc.q))
    c_from, c_to = (1 + fs.kappa) / fs.p, (1 + ts.kappa) / ts.p
    tr_src = besov(fsc.high - gap / fs.p, fsc.q, fs.p)
    tr_dst = besov(tsc.high - gap * c_to, tsc.q, ts.p)
    check_parts(_unweighted_trace(fs), tr_src)
    trace = checks["trace_embedding"]
    check_embedding(trace, tr_src, tr_dst)
    exact(trace.witness["src_index"], tr_src.smoothness - 1 / fsc.q)
    exact(trace.witness["dst_index"], tr_dst.smoothness - 1 / tsc.q)

    shift = (tsc.low - fsc.low) / gap
    eps = shift if shift > 0 else None
    case = reference_emb_case(fs.p, fs.kappa, ts.p, ts.kappa, c_from, c_to,
                              eps)
    inclusion = checks["weighted_class_inclusion"]
    assert inclusion.witness["case"] == case
    if eps is None:
        assert inclusion.witness["eps"] is None
    else:
        exact(inclusion.witness["eps"], eps)
    if case in (3, 4):
        check_embedding(checks["shift_proviso_high"],
                        bessel(tsc.low + (1 - eps) * gap, tsc.q),
                        bessel(fsc.high, fsc.q))
        check_embedding(checks["shift_proviso_low"], bessel(tsc.low, tsc.q),
                        bessel(fsc.low + eps * gap, fsc.q))
    else:
        assert "shift_proviso_high" not in checks

    lo = 1 - c_to
    lifted = []
    for part, i, t in g.terms():
        target = checks[f"target_growth[{part}{i}]"]
        if lo < t.beta <= t.phi < 1:
            slack = 1 - (t.rho * (t.phi - lo) + t.beta)
            exact(target.witness["slack"], slack)
            assert target.passed is (slack >= 0)
        elif t.phi != t.beta or not t.phi < 1:
            assert not target.passed
        else:
            mid = lo + c_to / (2 * (t.rho + 1))
            exact(target.witness["lifted_phi"], mid)
            exact(target.witness["slack"], c_to / 2)
            assert target.passed
            lifted.append((part, i, mid))
        if t.rho > 0:
            assert checks[f"target_noncritical[{part}{i}]"].passed is (
                c_to < (1 - t.beta) / t.rho + (1 - t.phi))
    if step is not None:
        assert step.params["lifted_terms"] == tuple(lifted)
        assert (step.params["emb_case"], step.params["eps_emb"]) == (case, eps)


@given(st.data())
@settings(max_examples=150)
def test_extrapolation_closed_forms(data):
    def setting():
        p = data.draw(edged(rationals(F(2), F(24), 12), F(2)))
        kappa = F(0) if p == 2 else (p / 2 - 1) * data.draw(UNIT) * F(47, 48)
        return Setting(data.draw(scales()), p, kappa)

    from_y, via, base = setting(), setting(), setting()
    rep = check_extrapolation(from_y, via, base)
    checks = {c.name: c for c in rep.checks}
    assert checks["integrability_order"].passed is (
        via.p >= max(from_y.p, base.p))
    theta = 1 - base.kappa / base.p
    check_embedding(checks["top_space_embedding"],
                    bessel(via.scale.high, via.scale.q),
                    bessel((1 - theta) * base.scale.low
                           + theta * base.scale.high, base.scale.q))
    assert rep.note.startswith("energy branch") is (from_y.p == 2)
    assert rep.ok is all(c.passed for c in rep.checks)


def reference_chain_error(variant, eps, s, q, p):
    """The message of full_chain_1d's failed range check, or None."""
    if variant == "L2_start":
        return None if 0 < eps < F(1, 3) else "eps must lie in (0, 1/3)"
    if not 0 < s < F(1, 3):
        return "s must lie in (0, 1/3)"
    if not 2 < q < 2 / (1 - 2 * s):
        return "q must lie in (2, 2/(1-2s))"
    if not p > 0:
        return "time integrability p must be >= 2"
    if 1 / p + 1 / (2 * q) > (3 - 2 * s) / 4:
        return "need 1/p + 1/(2q) <= (3-2s)/4"
    return None


RANGE_ERRORS = {"eps must lie in (0, 1/3)", "s must lie in (0, 1/3)",
                "q must lie in (2, 2/(1-2s))",
                "time integrability p must be >= 2",
                "need 1/p + 1/(2q) <= (3-2s)/4"}


@given(st.sampled_from(["L2_start", "rough"]),
       edged(rationals(F(-1, 6), F(1, 2), 96), F(0), F(1, 3)),
       edged(rationals(F(-1, 6), F(1, 2), 96), F(0), F(1, 3)),
       edged(rationals(F(1), F(16), 24), F(2)),
       edged(rationals(F(-2), F(24), 12), F(0)),
       st.sampled_from(["free", "q_edge", "p_edge"]))
@example("rough", F(0), F(1, 6), F(3), F(4), "q_edge")    # q == 2/(1-2s)
@example("rough", F(0), F(1, 6), F(5, 2), F(4), "p_edge")
@example("rough", F(0), F(1, 5), F(5, 2), F(4), "free")
@example("L2_start", F(1, 5), F(0), F(2), F(0), "free")
@settings(max_examples=200)
def test_full_chain_range_checks_and_inputs_closed_forms(variant, eps, s, q,
                                                         p, how):
    if how == "q_edge" and 0 < s < F(1, 2):
        q = 2 / (1 - 2 * s)
    elif how == "p_edge" and 0 < q and (3 - 2 * s) / 4 > 1 / (2 * q):
        p = 1 / ((3 - 2 * s) / 4 - 1 / (2 * q))   # 1/p + 1/(2q) == (3-2s)/4
    want = reference_chain_error(variant, eps, s, q, p)
    try:
        chain = full_chain_1d(variant, eps=eps, s=s, q=q, p=p)
    except ParameterError as e:
        if want is None:
            assert str(e) not in RANGE_ERRORS
        else:
            assert (type(e), str(e)) == (ParameterError, want)
        return
    assert want is None
    steps = chain.steps
    if variant == "L2_start":
        exact(steps[0].params["delta"], eps / 2)
        r_hat = steps[1].to_setting.p
        exact(steps[2].to_setting.kappa, r_hat * eps / 2)
    else:
        base = steps[0].from_setting
        exact(base.scale.low, -1 - s)
        exact(base.scale.high, 1 - s)
        current = base
        if base.kappa == 0:
            phi1 = (1 / q + s) / 3 + F(1, 2)
            exact(steps[0].params["r"], 1 / (phi1 - 1 + 1 / p))
            current = steps[0].to_setting
        time_step = steps[-4]
        r_hat = max(F(12), 2 * current.p)
        exact(time_step.params["r_hat"], r_hat)
        exact(steps[-3].to_setting.kappa, r_hat * s / 2)
    integrability = steps[3] if variant == "L2_start" else steps[-2]
    exact(integrability.from_setting.kappa, (r_hat / 4 + (r_hat / 2 - 1)) / 2)
    exact(integrability.to_setting.kappa, r_hat / 4)
