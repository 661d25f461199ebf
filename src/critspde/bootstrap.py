"""Planner for regularity bootstrap chains over Sobolev scales.

A chain is a sequence of validated setting-to-setting steps, each one of
four rules: inserting a time weight at t=0, trading the weight for higher
time integrability, moving to a smoother or more integrable space scale,
and extrapolating the life-span through an auxiliary high-integrability
setting.  Every step records its conditions as named checks with exact
rational witnesses; a step is only emitted when all checks pass.

Space comparisons on the 1-torus reduce to index arithmetic: smoothness
minus 1/q, with strict inequalities everywhere except the same-scale Besov
comparison at equal indices (secondary index ordering decides there).
The planner holds each space as the integer parts of its indices.

As in `exponents`, the planner computes from the integer numerators and
denominators of its Fraction inputs (denominators are positive, so a
comparison is one cross-multiplication) and builds a Fraction only for a
value a caller sees: a witness, a param or a target setting.  Each such
form names in its docstring or comment the Fraction formula it equals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .exponents import (
    GrowthSpec,
    GrowthTerm,
    ParameterError,
    Rational,
    Setting,
    SobolevScale,
    _jsonable,
    _trace_smoothness,
    as_fraction,
    critical_weight,
    one_d_growth_params,
    setting_to_dict,
)


class BootstrapError(ParameterError):
    """A planned step failed validation; carries the failed checks."""

    def __init__(self, message: str, checks: tuple = ()):
        super().__init__(message)
        self.checks = checks


# A space is the tuple of its normalized integer parts
# (kind, sn, sd, qn, qd, secondary): kind "bessel" or "besov", smoothness
# sn/sd and integrability qn/qd in lowest terms with sd, qd > 0, and
# secondary None or the pair (an, ad), in lowest terms with ad > 0.  These
# are the parts of the indices' Fractions, so two equal spaces have equal
# tuples.  The comparison, the label and the Sobolev index are computed on
# them alone, and a space's parts always come from a validated setting or
# scale.


def _text(n: int, d: int) -> str:
    """str(Fraction(n, d)) of n/d in lowest terms, d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _label(space: tuple) -> str:
    """H^{s,q} or B^{s}_{q,secondary} of a space's parts, with each index
    written as str of its Fraction (None for a missing secondary)."""
    kind, sn, sd, qn, qd, a = space
    if kind == "bessel":
        return f"H^{{{_text(sn, sd)},{_text(qn, qd)}}}"
    sec = "None" if a is None else _text(*a)
    return f"B^{{{_text(sn, sd)}}}_{{{_text(qn, qd)},{sec}}}"


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d, d > 0, in lowest terms: the parts of Fraction(n, d)."""
    g = gcd(n, d)
    return n // g, d // g


def _index(space: tuple) -> tuple[int, int]:
    """Integer parts (n, d), d > 0, of a space's Sobolev index
    smoothness - 1/q, which orders spaces of different integrability."""
    _, sn, sd, qn, qd, _ = space
    return sn * qn - sd * qd, sd * qn


def sobolev_index(space: tuple) -> Fraction:
    """The Sobolev index smoothness - 1/q of a space's parts."""
    return Fraction(*_index(space))


def _bessel(sm: Fraction, q: Fraction) -> tuple:
    """The parts of the Bessel space H^{sm,q}."""
    return ("bessel", sm.numerator, sm.denominator, q.numerator,
            q.denominator, None)


def _bessel_between(scale: SobolevScale, tn: int, td: int) -> tuple:
    """The parts of the Bessel space of scale at theta = tn/td, td > 0:
    smoothness low + theta*gap, integrability q."""
    low, gap, q = scale.low, scale.gap, scale.q
    ln, ld = low.numerator, low.denominator
    n, d = _reduced(ln * td * gap.denominator + tn * gap.numerator * ld,
                    ld * td * gap.denominator)
    return ("bessel", n, d, q.numerator, q.denominator, None)


def _trace(s: Setting, cn: int, cd: int) -> tuple:
    """The parts of the Besov trace space of s's scale at weight index
    c = cn/cd, cd > 0: smoothness high - gap*c, secondary index p."""
    q, p = s.scale.q, s.p
    n, d = _reduced(*_trace_smoothness(s.scale, cn, cd))
    return ("besov", n, d, q.numerator, q.denominator,
            (p.numerator, p.denominator))


def _weighted_trace(s: Setting) -> tuple:
    """The parts of trace_space(s): the trace at s's weight index."""
    c = s.weight_index
    return _trace(s, c.numerator, c.denominator)


def _unweighted_trace(s: Setting) -> tuple:
    """The parts of s's data space with the weight dropped: the trace at
    weight index 1/p, smoothness high - gap/p."""
    return _trace(s, s.p.denominator, s.p.numerator)


def embeds(src: tuple, dst: tuple) -> bool:
    """Continuous inclusion src -> dst on the 1-torus, by index arithmetic
    on the spaces' parts.

    Strict inequalities only, with one exception: a Besov-to-Besov
    comparison at equal Sobolev indices passes when the secondary indices
    are ordered.  Cross-kind comparisons at equal smoothness fail (no
    inclusion either way in general).
    """
    if src == dst:  # normalized parts: equal spaces, equal tuples
        return True
    # each Fraction comparison on the integer parts of src's smoothness
    # sn/sd and integrability qn/qd and of dst's tn/td and un/ud
    kind, sn, sd, qn, qd, a = src
    dst_kind, tn, td, un, ud, b = dst
    if un * qd > qn * ud:  # dst.q > src.q: compare the Sobolev indices
        xn, xd = _index(src)
        yn, yd = _index(dst)
        if xn * yd > yn * xd:
            return True
        return (xn * yd == yn * xd and kind == "besov"
                and dst_kind == "besov" and _secondary_le(a, b))
    if sn * td > tn * sd:
        return True
    if sn * td == tn * sd and kind == dst_kind:
        return kind == "bessel" or _secondary_le(a, b)
    return False


def _secondary_le(a: Optional[tuple[int, int]],
                  b: Optional[tuple[int, int]]) -> bool:
    """Both secondary indices given and a <= b, by cross-multiplication."""
    return a is not None and b is not None and a[0] * b[1] <= b[0] * a[1]


def _plus(x: Fraction, n: int, d: int) -> Fraction:
    """x + n/d, d > 0, built once from the integer parts."""
    xn, xd = x.numerator, x.denominator
    return Fraction(xn * d + n * xd, xd * d)


@dataclass(frozen=True)
class BootstrapCheck:
    name: str
    condition: str
    passed: bool
    witness: dict


@dataclass(frozen=True)
class BootstrapStep:
    rule: str
    from_setting: Setting
    to_setting: Setting
    checks: tuple[BootstrapCheck, ...]
    params: dict


@dataclass(frozen=True)
class TerminalClaim:
    theta_sup: Fraction
    time_exponent: str
    smoothness: str
    note: str


@dataclass(frozen=True)
class BootstrapChain:
    steps: tuple[BootstrapStep, ...]
    claim: TerminalClaim


def _passed(rule: str, checks) -> tuple[BootstrapCheck, ...]:
    """The checks as a tuple; a BootstrapError naming the failed ones
    unless every check passed."""
    checks = tuple(checks)
    failed = [c for c in checks if not c.passed]
    if failed:
        names = ", ".join(c.name for c in failed)
        raise BootstrapError(f"{rule} step rejected: {names}", checks)
    return checks


def _embedding_check(name: str, src: tuple, dst: tuple,
                     **witness) -> BootstrapCheck:
    """The check that the space with parts src embeds in the one with parts
    dst, witnessed by both labels and any further witness entries."""
    src_label, dst_label = _label(src), _label(dst)
    return BootstrapCheck(name, f"{src_label} embeds in {dst_label}",
                          embeds(src, dst),
                          {"src": src_label, "dst": dst_label, **witness})


def _growth_checks(g: GrowthSpec, c: Fraction, lo: Fraction, strict: bool,
                   suffix: str = "") -> list[BootstrapCheck]:
    """Window and subcriticality checks for every term at weight index c,
    window_low lo = 1 - c, each name ending in suffix.  Each term's
    lhs = rho*(phi-lo) + beta and slack = 1 - lhs are built once from the
    integer parts."""
    ln, ld = lo.numerator, lo.denominator
    out = []
    for part, i, t in g.terms():
        _, _, hn, hd = t._lhs_parts(ln, ld)
        out.append(
            BootstrapCheck(
                name=f"growth_window[{part}{i}]{suffix}",
                condition="1-(1+kappa)/p < beta <= phi < 1",
                passed=t.window_ok(lo),
                witness={"phi": t.phi, "beta": t.beta, "weight_index": c},
            )
        )
        out.append(
            BootstrapCheck(
                name=f"subcritical[{part}{i}]{suffix}",
                condition="rho*(phi-1+(1+kappa)/p)+beta "
                + ("< 1" if strict else "<= 1"),
                passed=hn < hd if strict else hn <= hd,
                witness={"lhs": Fraction(hn, hd),
                         "slack": Fraction(hd - hn, hd)},
            )
        )
    return out


def plan_weight_insertion(
    from_setting: Setting, r: Rational, delta: Rational, g: GrowthSpec
) -> BootstrapStep:
    """Trade instantaneous regularization for a power weight at t=0.

    From an unweighted (p, kappa=0) setting, moves to time integrability r
    with weight alpha solved from 1/p = (1+alpha)/r + delta; the space scale
    shifts down by delta*(high-low).  Requires r > 2, delta in
    [0, 1-max phi_j), p > 2 when delta = 0, and the time-integrability
    bound 1/r >= max_j phi_j - 1 + 1/p (equality allowed).

    alpha = r*(1/p - delta) - 1, inv_r = 1/r, bound = max phi_j - (1 - 1/p)
    and the shifted scale's low - delta*gap and high - delta*gap are each
    built once from the integer parts; every check cross-multiplies.
    """
    r, delta = as_fraction(r), as_fraction(delta)
    rn, rd = r.numerator, r.denominator
    if rn <= 0:
        raise ParameterError("time integrability r must be positive")
    if from_setting.kappa.numerator != 0:
        raise ParameterError("weight insertion starts from an unweighted setting")
    p, lo = from_setting.p, from_setting.window_low
    inv_p = from_setting.weight_index  # 1/p at kappa = 0
    max_phi = g.max_phi
    pn, pd = p.numerator, p.denominator
    cn, cd = inv_p.numerator, inv_p.denominator
    ln, ld = lo.numerator, lo.denominator
    dn, dd = delta.numerator, delta.denominator
    mn, md = max_phi.numerator, max_phi.denominator
    an, ad = rn * (cn * dd - dn * cd) - rd * cd * dd, rd * cd * dd
    alpha = Fraction(an, ad)

    checks = _growth_checks(g, inv_p, lo, strict=False)
    checks.append(
        BootstrapCheck(
            "delta_window", "0 <= delta < 1 - max phi_j",
            dn >= 0 and dn * md < (md - mn) * dd,
            {"delta": delta, "max_phi": max_phi},
        )
    )
    checks.append(
        BootstrapCheck(
            "p_above_two_at_zero_delta", "p > 2 when delta = 0",
            not (dn == 0 and pn <= 2 * pd), {"p": p, "delta": delta},
        )
    )
    checks.append(
        BootstrapCheck(
            "r_range", "r > 2 and r >= p", rn > 2 * rd and rn * pd >= pn * rd,
            {"r": r, "p": p},
        )
    )
    bn, bd = mn * ld - ln * md, md * ld
    checks.append(
        BootstrapCheck(
            "time_integrability", "1/r >= max phi_j - 1 + 1/p",
            rd * bd >= bn * rn,
            {"inv_r": Fraction(rd, rn), "bound": Fraction(bn, bd)},
        )
    )
    checks.append(
        BootstrapCheck(
            "alpha_admissible", "alpha = r*(1/p-delta)-1 in [0, r/2-1)",
            an >= 0 and 2 * an * rd < (rn - 2 * rd) * ad, {"alpha": alpha},
        )
    )
    scale = from_setting.scale
    gap = scale.gap
    sn, sd = dn * gap.numerator, dd * gap.denominator  # shift = delta*gap
    to_scale = SobolevScale(
        _plus(scale.low, -sn, sd), _plus(scale.high, -sn, sd), scale.q)
    params = {"r": r, "delta": delta, "alpha": alpha}
    # validate checks before constructing the target Setting so a window
    # failure reports the inequality, not a constructor error
    checks = _passed("weight_insertion", checks)
    return BootstrapStep("weight_insertion", from_setting,
                         Setting(to_scale, r, alpha), checks, params)


def plan_time_bootstrap(
    from_setting: Setting, r_hat: Rational, g: GrowthSpec
) -> BootstrapStep:
    """Trade the time weight for higher time integrability away from t=0.

    With margin 2*eps = min_j{beta_j - 1 + (1+alpha)/r, alpha/r} > 0, any
    (1+alpha_hat)/r_hat inside ((1+alpha)/r - eps, (1+alpha)/r) works; the
    midpoint is chosen.  The emitted setting is unweighted at integrability
    r_hat (the weighted intermediate with alpha_hat is kept as a witness)
    and is strictly subcritical for the same growth terms.

    The margin, eps = margin/2, the interval's low end lo_a, the midpoint
    c_mid and alpha_hat = r_hat*c_mid - 1 are each built once from the
    integer parts; every check cross-multiplies.  The checks are
    validated before the target setting is built, so an r_hat below 2
    reports the failed integrability_order, not a constructor error.
    """
    r_hat = as_fraction(r_hat)
    hn, hd = r_hat.numerator, r_hat.denominator
    if hn <= 0:
        raise ParameterError("time integrability r_hat must be positive")
    r, alpha = from_setting.p, from_setting.kappa
    if alpha.numerator <= 0:
        raise ParameterError("time bootstrap needs a positive weight to trade")
    c_from, lo_from = from_setting.weight_index, from_setting.window_low
    rn, rd = r.numerator, r.denominator
    cn, cd = c_from.numerator, c_from.denominator
    ln, ld = lo_from.numerator, lo_from.denominator

    checks = _growth_checks(g, c_from, lo_from, strict=False)
    checks.append(
        BootstrapCheck("integrability_order", "r_hat >= r",
                       hn * rd >= rn * hd, {"r_hat": r_hat, "r": r})
    )
    # margin mn/md = min(min_j beta_j - lo_from, alpha/r)
    bn = bd = 0
    for _, _, t in g.terms():
        beta = t.beta
        if bd == 0 or beta.numerator * bd < bn * beta.denominator:
            bn, bd = beta.numerator, beta.denominator
    mn, md = bn * ld - ln * bd, bd * ld
    vn, vd = alpha.numerator * rd, alpha.denominator * rn
    if vn * md < mn * vd:
        mn, md = vn, vd
    checks.append(
        BootstrapCheck(
            "positive_margin",
            "min_j{beta_j-1+(1+alpha)/r, alpha/r} > 0",
            mn > 0, {"two_eps": Fraction(mn, md)},
        )
    )
    eps = Fraction(mn, 2 * md)
    # alpha_hat interval in weight units, intersected with the admissible
    # weight range for r_hat, then the midpoint:
    # lo_a = xn/xd = max(c_from - eps, 1/r_hat), as alpha_hat >= 0, and
    # hi_a = min(c_from, 1/2), as alpha_hat < r_hat/2 - 1; hi_a is c_from,
    # since a positive weight is admissible only below c = 1/2
    xn, xd = 2 * cn * md - mn * cd, 2 * cd * md
    if hd * xd > xn * hn:
        xn, xd = hd, hn
    checks.append(
        BootstrapCheck(
            "weight_index_interval",
            "((1+alpha)/r - eps, (1+alpha)/r) meets [1/r_hat, 1/2)",
            xn * cd < cn * xd, {"lo": Fraction(xn, xd), "hi": c_from},
        )
    )
    # c_mid = zn/zd = (lo_a + hi_a)/2; alpha_hat = r_hat*c_mid - 1
    zn, zd = xn * cd + cn * xd, 2 * xd * cd
    c_mid = Fraction(zn, zd)
    an, ad = hn * zn - hd * zd, hd * zd
    alpha_hat = Fraction(an, ad)
    checks.append(
        BootstrapCheck(
            "alpha_hat_admissible", "alpha_hat in [0, r_hat/2-1)",
            an >= 0 and 2 * an * hd < (hn - 2 * hd) * ad,
            {"alpha_hat": alpha_hat},
        )
    )
    # growth at the intermediate weighted setting, whose weight index
    # (1+alpha_hat)/r_hat is c_mid exactly: windows survive the small
    # decrease of the weight index, and the slack turns strictly positive
    checks.extend(_growth_checks(g, c_mid, Fraction(zd - zn, zd),
                                 strict=True, suffix="@intermediate"))
    case = _emb_case(r, alpha, r_hat, alpha_hat, c_from, c_mid, None)
    checks.append(
        BootstrapCheck(
            "weighted_embedding_case", "(1+alpha_hat)/r_hat < (1+alpha)/r",
            case in (1, 2), {"case": case},
        )
    )
    checks = _passed("time_bootstrap", checks)
    params = {"r_hat": r_hat, "alpha_hat": alpha_hat, "eps": eps,
              "c_mid": c_mid, "emb_case": case}
    return BootstrapStep("time_bootstrap", from_setting,
                         Setting(from_setting.scale, r_hat, Fraction(0)),
                         checks, params)


def _emb_case(
    r: Fraction, alpha: Fraction, r_hat: Fraction, alpha_hat: Fraction,
    ci_from: Fraction, ci_to: Fraction, eps: Optional[Fraction],
) -> Optional[int]:
    """First matching case for the weighted-class inclusion, or None.

    (1) r = r_hat and alpha = alpha_hat;
    (2) ci_to < ci_from;
    (3) ci_to < ci_from + eps for eps in (0, 1/2 - ci_from), with scale
        provisos checked by the caller;
    (4) r = r_hat and ci_to = ci_from + eps exactly,
    with the weight indices ci_from = (1+alpha)/r and
    ci_to = (1+alpha_hat)/r_hat, which the planner's settings already hold.
    Each comparison is on the integer parts: equality of (numerator,
    denominator), or cross-multiplication."""
    same_r = (r.numerator == r_hat.numerator
              and r.denominator == r_hat.denominator)
    if (same_r and alpha.numerator == alpha_hat.numerator
            and alpha.denominator == alpha_hat.denominator):
        return 1
    fn, fd = ci_from.numerator, ci_from.denominator
    tn, td = ci_to.numerator, ci_to.denominator
    if tn * fd < fn * td:
        return 2
    if eps is not None:
        en, ed = eps.numerator, eps.denominator
        if en > 0 and 2 * en * fd < (fd - 2 * fn) * ed:
            # ci_to - ci_from against eps, over the denominator td*fd*ed
            diff, bound = (tn * fd - fn * td) * ed, en * td * fd
            if diff < bound:
                return 3
            if same_r and diff == bound:
                return 4
    return None


def _lift_term(t: GrowthTerm, c: Fraction,
               lo: Fraction) -> tuple[Fraction, Fraction]:
    """(lifted phi, slack) of a term phi = beta < 1 below the window at
    weight index c, window_low lo = 1 - c.

    Replacing (phi, beta) by a common larger value is always a weaker
    growth hypothesis (the space scale is monotone), so the term is lifted
    to the midpoint mid of (lo, hi), hi = (1 + rho*lo)/(rho+1) the critical
    value.  As hi - lo = c/(rho+1) > 0, mid = lo + c/(2*(rho+1)), above
    phi <= lo.  Its slack 1 - (rho*(mid-lo) + mid) is exactly c/2:
    rho*(mid-lo) + mid = (rho+1)*(mid-lo) + lo = c/2 + lo = 1 - c/2.
    Both are built once from the integer parts, with
    c/(2*(rho+1)) = cn*rd / (2*cd*(rn+rd)).
    """
    cn, cd = c.numerator, c.denominator
    rn, rd = t.rho.numerator, t.rho.denominator
    return (_plus(lo, cn * rd, 2 * cd * (rn + rd)),
            Fraction(cn, 2 * cd))


def plan_space_bootstrap(
    from_setting: Setting, to_setting: Setting, g: GrowthSpec
) -> BootstrapStep:
    """Move the solution to a shifted or more integrable space scale.

    Checks, in order: componentwise scale embeddings, the data-space
    embedding (unweighted trace of the source into the weighted trace of
    the target), the weighted-class inclusion case (with its scale
    provisos when the scales are shifted), the growth windows at the
    target (terms with phi = beta below the window are lifted to an
    equalized in-window value, recorded as a witness), and strict
    non-criticality of the target for the original terms.

    The shift (to.low - from.low)/gap, the provisos' scale parameters
    1 - shift and shift, and each target slack 1 - lhs are built once from
    the integer parts; every comparison cross-multiplies.
    """
    fs, ts = from_setting, to_setting
    checks: list[BootstrapCheck] = []
    params: dict = {}

    gap = fs.scale.gap
    gn, gd = gap.numerator, gap.denominator
    to_gap = ts.scale.gap
    same_gap = gn == to_gap.numerator and gd == to_gap.denominator
    checks.append(
        BootstrapCheck("scale_gap", "source and target scales have equal gap",
                       same_gap, {"from_gap": gap, "to_gap": to_gap})
    )
    if not same_gap:
        _passed("space_bootstrap", checks)  # raises on the failed scale_gap

    fsc, tsc = fs.scale, ts.scale
    to_low, to_high = _bessel(tsc.low, tsc.q), _bessel(tsc.high, tsc.q)
    from_low, from_high = _bessel(fsc.low, fsc.q), _bessel(fsc.high, fsc.q)
    checks.append(_embedding_check("scale_component[0]", to_low, from_low))
    checks.append(_embedding_check("scale_component[1]", to_high, from_high))

    tr_src = _unweighted_trace(fs)
    tr_dst = _weighted_trace(ts)
    checks.append(_embedding_check(
        "trace_embedding", tr_src, tr_dst,
        src_index=sobolev_index(tr_src), dst_index=sobolev_index(tr_dst)))

    # shift = en/ed = (to.low - from.low)/gap, with gap > 0
    low, to_lo = fsc.low, tsc.low
    en = (to_lo.numerator * low.denominator
          - low.numerator * to_lo.denominator) * gd
    ed = to_lo.denominator * low.denominator * gn
    eps_emb = Fraction(en, ed) if en > 0 else None
    c_to, lo_to = ts.weight_index, ts.window_low
    case = _emb_case(fs.p, fs.kappa, ts.p, ts.kappa, fs.weight_index, c_to,
                     eps_emb)
    checks.append(
        BootstrapCheck(
            "weighted_class_inclusion",
            "one of the four inclusion cases applies",
            case is not None, {"case": case, "eps": eps_emb},
        )
    )
    params["emb_case"] = case
    params["eps_emb"] = eps_emb
    if case in (3, 4):
        # provisos of the shifted-scale cases
        checks.append(_embedding_check("shift_proviso_high",
                                       _bessel_between(tsc, ed - en, ed),
                                       from_high))
        checks.append(_embedding_check("shift_proviso_low", to_low,
                                       _bessel_between(fsc, en, ed)))

    ln, ld = lo_to.numerator, lo_to.denominator
    lifted = []
    for part, i, t in g.terms():
        if t.window_ok(lo_to):
            _, _, hn, hd = t._lhs_parts(ln, ld)
            checks.append(
                BootstrapCheck(
                    f"target_growth[{part}{i}]",
                    "window holds and term subcritical at target",
                    hn <= hd, {"slack": Fraction(hd - hn, hd)},
                )
            )
            continue
        phi, beta = t.phi, t.beta
        equal = (phi.numerator == beta.numerator
                 and phi.denominator == beta.denominator)
        if not (equal and t.ordered):
            # a term phi = beta < 1 outside the window lies at or below
            # lo_to, so only these two kinds cannot be lifted
            why = "phi = beta >= 1" if equal else "phi != beta"
            checks.append(
                BootstrapCheck(
                    f"target_growth[{part}{i}]",
                    f"no equalized lift available ({why})",
                    False, {"phi": t.phi, "beta": t.beta},
                )
            )
            continue
        mid, slack = _lift_term(t, c_to, lo_to)
        lifted.append((part, i, mid))
        checks.append(
            BootstrapCheck(
                f"target_growth[{part}{i}]",
                "term lifted to equalized in-window exponents",
                slack.numerator > 0, {"lifted_phi": mid, "slack": slack},
            )
        )
    params["lifted_terms"] = tuple(lifted)

    cn, cd = c_to.numerator, c_to.denominator
    for part, i, t in g.terms():
        cstar = t.threshold_weight_index
        if cstar is None:
            continue
        checks.append(
            BootstrapCheck(
                f"target_noncritical[{part}{i}]",
                "(1+alpha_hat)/r_hat < critical weight index of the term",
                cn * cstar.denominator < cstar.numerator * cd,
                {"weight_index": c_to, "critical_index": cstar},
            )
        )

    return BootstrapStep("space_bootstrap", fs, ts,
                         _passed("space_bootstrap", checks), params)


@dataclass(frozen=True)
class ExtrapolationReport:
    ok: bool
    checks: tuple[BootstrapCheck, ...]
    note: str


def check_extrapolation(
    from_Y: Setting, via_setting: Setting, base_X: Setting
) -> ExtrapolationReport:
    """Life-span extrapolation through a high-integrability setting.

    Conditions: the auxiliary integrability dominates both others; the
    auxiliary weighted data space embeds into the base data space; the
    top of the auxiliary scale embeds into the base scale at parameter
    1 - kappa/p; both auxiliary scale components embed into the energy
    scale.  Returns a report rather than raising.
    Each comparison is on the integer parts, and the base scale's
    parameter 1 - kappa/p is (kd*pn - kn*pd)/(kd*pn).
    """
    checks: list[BootstrapCheck] = []
    r_hat, r, p = via_setting.p, from_Y.p, base_X.p
    hn, hd = r_hat.numerator, r_hat.denominator
    rn, rd = r.numerator, r.denominator
    pn, pd = p.numerator, p.denominator
    checks.append(
        BootstrapCheck(
            "integrability_order", "r_hat >= max(r, p)",
            hn * rd >= rn * hd and hn * pd >= pn * hd,
            {"r_hat": r_hat, "r": r, "p": p},
        )
    )
    checks.append(_embedding_check("trace_embedding",
                                   _weighted_trace(via_setting),
                                   _weighted_trace(base_X)))
    via, energy = via_setting.scale, from_Y.scale
    via_high = _bessel(via.high, via.q)
    kn, kd = base_X.kappa.numerator, base_X.kappa.denominator
    checks.append(_embedding_check(
        "top_space_embedding", via_high,
        _bessel_between(base_X.scale, kd * pn - kn * pd, kd * pn)))
    checks.append(_embedding_check("energy_component[0]",
                                   _bessel(via.low, via.q),
                                   _bessel(energy.low, energy.q)))
    checks.append(_embedding_check("energy_component[1]", via_high,
                                   _bessel(energy.high, energy.q)))
    if rn == 2 * rd:
        note = ("energy branch r = 2: continuity into the midpoint space and "
                "a local L2 bound at the top of the scale are the inputs")
    else:
        note = "branch r > 2: weighted continuity near the initial time is the input"
    ok = all(c.passed for c in checks)
    return ExtrapolationReport(ok=ok, checks=tuple(checks), note=note)


_CLAIM = TerminalClaim(
    theta_sup=Fraction(1, 2),
    time_exponent="any finite r",
    smoothness="1 - 2*theta",
    note=(
        "locally on (0, sigma): time smoothness theta for every theta < 1/2, "
        "any time integrability, space smoothness 1-2*theta, any space "
        "integrability"
    ),
)


# fixed inputs of the 1d chains: the H^{-1,1}_2 and H^{-1,1}_4 scales, the
# L2 energy setting, and the growth terms at eps = 0 and at zeta = 4
_H2 = SobolevScale(Fraction(-1), Fraction(1), Fraction(2))
_H4 = SobolevScale(Fraction(-1), Fraction(1), Fraction(4))
_ENERGY = Setting(_H2, Fraction(2), Fraction(0))
_G_L2 = one_d_growth_params("l2_eps", eps=Fraction(0))
_G_L4 = one_d_growth_params("lzeta", zeta=Fraction(4))


def _integrability_step(h_from: SobolevScale, h_to: SobolevScale,
                        r_hat: Fraction, g: GrowthSpec) -> BootstrapStep:
    """The space step from weight (r_hat/4 + (r_hat/2 - 1))/2 =
    (3*r_hat - 4)/8 on h_from to weight r_hat/4 on h_to, at time
    integrability r_hat; both weights are built once from the integer
    parts."""
    hn, hd = r_hat.numerator, r_hat.denominator
    return plan_space_bootstrap(
        Setting(h_from, r_hat, Fraction(3 * hn - 4 * hd, 8 * hd)),
        Setting(h_to, r_hat, Fraction(hn, 4 * hd)), g)


def full_chain_1d(
    variant: str,
    eps: Rational = Fraction(1, 5),
    s: Optional[Rational] = None,
    q: Optional[Rational] = None,
    p: Optional[Rational] = None,
) -> BootstrapChain:
    """Validated bootstrap chain for the 1d conservative problem.

    L2_start: data in L2, weight insertion (r=6, delta=eps/2), time
    bootstrap to r_hat=12, recovery of the unshifted scale, then the
    integrability step to L^4 in space.  rough: data in B^{1/q-1/2}_{q,p},
    optional weight insertion on the zero-weight slice, time bootstrap,
    scale recovery, integrability step, and the life-span extrapolation
    check against the L2 energy setting.

    The range checks cross-multiply, and each derived input (delta, the
    recovery weight, r_ins, r_hat and the rough base scale) is built once
    from the integer parts.
    """
    if variant == "L2_start":
        eps = as_fraction(eps)
        en, ed = eps.numerator, eps.denominator
        if not (en > 0 and 3 * en < ed):
            raise ParameterError("eps must lie in (0, 1/3)")
        g_eps = one_d_growth_params("l2_eps", eps=eps)

        s1 = plan_weight_insertion(_ENERGY, Fraction(6), Fraction(en, 2 * ed),
                                   _G_L2)
        s2 = plan_time_bootstrap(s1.to_setting, Fraction(12), g_eps)
        r_hat = s2.to_setting.p
        hn, hd = r_hat.numerator, r_hat.denominator
        # recovery weight r_hat*eps/2
        recover = Setting(_H2, r_hat, Fraction(hn * en, 2 * hd * ed))
        s3 = plan_space_bootstrap(s2.to_setting, recover, _G_L2)
        s4 = _integrability_step(_H2, _H4, r_hat, _G_L4)
        return BootstrapChain(steps=(s1, s2, s3, s4), claim=_CLAIM)

    if variant == "rough":
        if s is None or q is None or p is None:
            raise ParameterError("rough variant needs s, q, p")
        s, q, p = as_fraction(s), as_fraction(q), as_fraction(p)
        sn, sd = s.numerator, s.denominator
        qn, qd = q.numerator, q.denominator
        pn, pd = p.numerator, p.denominator
        if not (sn > 0 and 3 * sn < sd):
            raise ParameterError("s must lie in (0, 1/3)")
        # q < 2/(1-2s), where 1 - 2s > 0
        if not (qn > 2 * qd and qn * (sd - 2 * sn) < 2 * qd * sd):
            raise ParameterError("q must lie in (2, 2/(1-2s))")
        if not pn > 0:
            raise ParameterError("time integrability p must be >= 2")
        # 1/p + 1/(2q) = (2*pd*qn + qd*pn)/(2*pn*qn) against (3-2s)/4
        if 2 * (2 * pd * qn + qd * pn) * sd > (3 * sd - 2 * sn) * pn * qn:
            raise ParameterError("need 1/p + 1/(2q) <= (3-2s)/4")
        g_rough = one_d_growth_params("rough", s=s, q=q)
        kappa_crit = critical_weight(g_rough, p)
        if kappa_crit is None:
            raise ParameterError("no admissible critical weight for these (s,q,p)")
        scale = SobolevScale(Fraction(-sd - sn, sd), Fraction(sd - sn, sd), q)
        base = Setting(scale, p, kappa_crit)
        steps: list[BootstrapStep] = []

        current = base
        if kappa_crit.numerator == 0:
            # r_ins = 1/(phi1 - 1 + 1/p), with phi1 - 1 + 1/p > 0 at a
            # zero critical weight
            phi1 = g_rough.f_terms[0].phi
            fn, fd = phi1.numerator, phi1.denominator
            r_ins = Fraction(fd * pn, (fn - fd) * pn + fd * pd)
            step_a = plan_weight_insertion(base, r_ins, Fraction(0), g_rough)
            steps.append(step_a)
            current = step_a.to_setting
        # r_hat = max(12, 2*p) at the current setting
        cp = current.p
        r_hat = (Fraction(2 * cp.numerator, cp.denominator)
                 if cp.numerator > 6 * cp.denominator else Fraction(12))
        step_b = plan_time_bootstrap(current, r_hat, g_rough)
        steps.append(step_b)

        # the (-1, 1, q) scale and lzeta(q) serve steps c and z; the
        # integrability step goes to zeta = max(4, q)
        h_q = SobolevScale(Fraction(-1), Fraction(1), q)
        g_q = one_d_growth_params("lzeta", zeta=q)
        h_big, g_big = (_H4, _G_L4) if qn < 4 * qd else (h_q, g_q)
        # recovery weight r_hat*s/2
        recover = Setting(h_q, r_hat, Fraction(r_hat.numerator * sn,
                                               2 * r_hat.denominator * sd))
        step_c = plan_space_bootstrap(step_b.to_setting, recover, g_q)
        steps.append(step_c)

        step_z = _integrability_step(h_q, h_big, r_hat, g_big)
        steps.append(step_z)
        to_z = step_z.to_setting

        rep = check_extrapolation(_ENERGY, to_z, base)
        if not rep.ok:
            raise BootstrapError("extrapolation conditions failed", rep.checks)
        steps.append(
            BootstrapStep(
                rule="extrapolation",
                from_setting=to_z,
                to_setting=base,
                checks=rep.checks,
                params={"note": rep.note},
            )
        )
        return BootstrapChain(steps=tuple(steps), claim=_CLAIM)

    raise ParameterError(f"unknown chain variant {variant!r}")


def chain_composition_ok(chain: BootstrapChain) -> bool:
    """Data space of each emitted setting embeds into the next step's source."""
    for a, b in zip(chain.steps, chain.steps[1:]):
        if b.rule == "extrapolation":
            continue  # the report step points back to the base setting
        if not embeds(_weighted_trace(a.to_setting),
                      _weighted_trace(b.from_setting)):
            return False
    return True


# --- JSON rendering ---------------------------------------------------------

def step_to_dict(step: BootstrapStep) -> dict:
    return {
        "rule": step.rule,
        "from": setting_to_dict(step.from_setting),
        "to": setting_to_dict(step.to_setting),
        "params": _jsonable(step.params),
        "checks": _jsonable(step.checks),
    }


def chain_to_dict(chain: BootstrapChain) -> dict:
    return {"steps": [step_to_dict(s) for s in chain.steps],
            "claim": _jsonable(chain.claim)}
