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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .exponents import (
    BesovDescriptor,
    GrowthSpec,
    GrowthTerm,
    ParameterError,
    Rational,
    Setting,
    SobolevScale,
    _jsonable,
    as_fraction,
    critical_weight,
    one_d_growth_params,
    setting_to_dict,
    trace_space,
)


class BootstrapError(ParameterError):
    """A planned step failed validation; carries the failed checks."""

    def __init__(self, message: str, checks: tuple = ()):
        super().__init__(message)
        self.checks = checks


@dataclass(frozen=True)
class SpaceDescriptor:
    """A Bessel-potential or Besov space on the 1-torus."""

    kind: str  # "bessel" | "besov"
    smoothness: Fraction
    q: Fraction
    secondary: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in ("bessel", "besov"):
            raise ParameterError(f"unknown space kind {self.kind!r}")
        object.__setattr__(self, "smoothness", as_fraction(self.smoothness))
        object.__setattr__(self, "q", as_fraction(self.q))
        if not self.q.numerator > 0:
            raise ParameterError("space integrability q must be positive")
        if self.secondary is not None:
            object.__setattr__(self, "secondary", as_fraction(self.secondary))

    @cached_property
    def sobolev_index(self) -> Fraction:
        """smoothness - 1/q, which orders spaces of different
        integrability; computed on first read, so a witness and embeds
        share it."""
        return self.smoothness - 1 / self.q

    def label(self) -> str:
        if self.kind == "bessel":
            return f"H^{{{self.smoothness},{self.q}}}"
        return f"B^{{{self.smoothness}}}_{{{self.q},{self.secondary}}}"


def bessel_at(scale: SobolevScale, theta: Rational) -> SpaceDescriptor:
    return SpaceDescriptor("bessel", scale.smoothness_at(theta), scale.q)


def besov_descriptor(b: BesovDescriptor) -> SpaceDescriptor:
    return SpaceDescriptor("besov", b.smoothness, b.q, b.p)


def unweighted_trace(s: Setting) -> SpaceDescriptor:
    """Data space of the same setting with the weight dropped."""
    return SpaceDescriptor(
        "besov", s.scale.high - s.scale.gap / s.p, s.scale.q, s.p
    )


def weighted_trace(s: Setting) -> SpaceDescriptor:
    return besov_descriptor(trace_space(s))


def embeds(src: SpaceDescriptor, dst: SpaceDescriptor) -> bool:
    """Continuous inclusion src -> dst on the 1-torus, by index arithmetic.

    Strict inequalities only, with one exception: a Besov-to-Besov
    comparison at equal Sobolev indices passes when the secondary indices
    are ordered.  Cross-kind comparisons at equal smoothness fail (no
    inclusion either way in general).
    """
    if src == dst:
        return True
    if dst.q > src.q:
        i_src, i_dst = src.sobolev_index, dst.sobolev_index
        if i_src > i_dst:
            return True
        if (
            i_src == i_dst
            and src.kind == "besov"
            and dst.kind == "besov"
            and src.secondary is not None
            and dst.secondary is not None
            and src.secondary <= dst.secondary
        ):
            return True
        return False
    if src.smoothness > dst.smoothness:
        return True
    if src.smoothness == dst.smoothness and src.kind == dst.kind:
        if src.kind == "bessel":
            return True
        return (
            src.secondary is not None
            and dst.secondary is not None
            and src.secondary <= dst.secondary
        )
    return False


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


def _embedding_check(name: str, src: SpaceDescriptor, dst: SpaceDescriptor,
                     **witness) -> BootstrapCheck:
    """The check that src embeds in dst, witnessed by both labels and any
    further witness entries."""
    src_label, dst_label = src.label(), dst.label()
    return BootstrapCheck(name, f"{src_label} embeds in {dst_label}",
                          embeds(src, dst),
                          {"src": src_label, "dst": dst_label, **witness})


def _growth_checks(g: GrowthSpec, c: Fraction, lo: Fraction, strict: bool,
                   suffix: str = "") -> list[BootstrapCheck]:
    """Window and subcriticality checks for every term at weight index c,
    window_low lo = 1 - c, each name ending in suffix."""
    out = []
    for part, i, t in g.terms():
        _, lhs = t.lhs(lo)
        ok_slack = lhs < 1 if strict else lhs <= 1
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
                passed=ok_slack,
                witness={"lhs": lhs, "slack": 1 - lhs},
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
    """
    r, delta = as_fraction(r), as_fraction(delta)
    if r <= 0:
        raise ParameterError("time integrability r must be positive")
    if from_setting.kappa != 0:
        raise ParameterError("weight insertion starts from an unweighted setting")
    p = from_setting.p
    inv_p = from_setting.weight_index  # 1/p at kappa = 0
    max_phi = g.max_phi
    alpha = r * (inv_p - delta) - 1

    checks = _growth_checks(g, inv_p, from_setting.window_low, strict=False)
    checks.append(
        BootstrapCheck(
            "delta_window", "0 <= delta < 1 - max phi_j",
            0 <= delta < 1 - max_phi, {"delta": delta, "max_phi": max_phi},
        )
    )
    checks.append(
        BootstrapCheck(
            "p_above_two_at_zero_delta", "p > 2 when delta = 0",
            not (delta == 0 and p <= 2), {"p": p, "delta": delta},
        )
    )
    checks.append(
        BootstrapCheck(
            "r_range", "r > 2 and r >= p", r > 2 and r >= p, {"r": r, "p": p},
        )
    )
    inv_r, bound = 1 / r, max_phi - from_setting.window_low
    checks.append(
        BootstrapCheck(
            "time_integrability", "1/r >= max phi_j - 1 + 1/p",
            inv_r >= bound, {"inv_r": inv_r, "bound": bound},
        )
    )
    checks.append(
        BootstrapCheck(
            "alpha_admissible", "alpha = r*(1/p-delta)-1 in [0, r/2-1)",
            0 <= alpha < r / 2 - 1, {"alpha": alpha},
        )
    )
    shift = delta * from_setting.scale.gap
    to_scale = SobolevScale(
        from_setting.scale.low - shift, from_setting.scale.high - shift,
        from_setting.scale.q,
    )
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
    """
    r_hat = as_fraction(r_hat)
    if r_hat <= 0:
        raise ParameterError("time integrability r_hat must be positive")
    r, alpha = from_setting.p, from_setting.kappa
    if alpha <= 0:
        raise ParameterError("time bootstrap needs a positive weight to trade")
    c_from, lo_from = from_setting.weight_index, from_setting.window_low

    checks = _growth_checks(g, c_from, lo_from, strict=False)
    checks.append(
        BootstrapCheck("integrability_order", "r_hat >= r", r_hat >= r,
                       {"r_hat": r_hat, "r": r})
    )
    margin = min(min(t.beta for _, _, t in g.terms()) - lo_from,
                 alpha / r)
    checks.append(
        BootstrapCheck(
            "positive_margin",
            "min_j{beta_j-1+(1+alpha)/r, alpha/r} > 0",
            margin > 0, {"two_eps": margin},
        )
    )
    eps = margin / 2
    lo, hi = c_from - eps, c_from
    # alpha_hat interval in weight units, intersected with the admissible
    # weight range for r_hat, then the midpoint
    lo_a = max(lo, 1 / r_hat)          # alpha_hat >= 0
    hi_a = min(hi, Fraction(1, 2))     # alpha_hat < r_hat/2 - 1
    checks.append(
        BootstrapCheck(
            "weight_index_interval",
            "((1+alpha)/r - eps, (1+alpha)/r) meets [1/r_hat, 1/2)",
            lo_a < hi_a, {"lo": lo_a, "hi": hi_a},
        )
    )
    c_mid = (lo_a + hi_a) / 2
    alpha_hat = r_hat * c_mid - 1
    checks.append(
        BootstrapCheck(
            "alpha_hat_admissible", "alpha_hat in [0, r_hat/2-1)",
            0 <= alpha_hat < r_hat / 2 - 1, {"alpha_hat": alpha_hat},
        )
    )
    # growth at the intermediate weighted setting, whose weight index
    # (1+alpha_hat)/r_hat is c_mid exactly: windows survive the small
    # decrease of the weight index, and the slack turns strictly positive
    checks.extend(_growth_checks(g, c_mid, 1 - c_mid, strict=True,
                                 suffix="@intermediate"))
    case = _emb_case(r, alpha, r_hat, alpha_hat, c_from, c_mid, None)
    checks.append(
        BootstrapCheck(
            "weighted_embedding_case", "(1+alpha_hat)/r_hat < (1+alpha)/r",
            case in (1, 2), {"case": case},
        )
    )
    to_setting = Setting(from_setting.scale, r_hat, Fraction(0))
    params = {"r_hat": r_hat, "alpha_hat": alpha_hat, "eps": eps,
              "c_mid": c_mid, "emb_case": case}
    return BootstrapStep("time_bootstrap", from_setting, to_setting,
                         _passed("time_bootstrap", checks), params)


def emb_condition(
    r: Rational, alpha: Rational, r_hat: Rational, alpha_hat: Rational,
    eps: Optional[Rational] = None,
) -> Optional[int]:
    """First matching case for the weighted-class inclusion, or None.

    (1) r = r_hat and alpha = alpha_hat;
    (2) (1+alpha_hat)/r_hat < (1+alpha)/r;
    (3) (1+alpha_hat)/r_hat < (1+alpha)/r + eps for eps in
        (0, 1/2-(1+alpha)/r), with scale provisos checked by the caller;
    (4) r = r_hat and (1+alpha_hat)/r = (1+alpha)/r + eps exactly.
    """
    r, alpha = as_fraction(r), as_fraction(alpha)
    r_hat, alpha_hat = as_fraction(r_hat), as_fraction(alpha_hat)
    if r <= 0 or r_hat <= 0:
        raise ParameterError("time integrabilities r and r_hat must be positive")
    return _emb_case(r, alpha, r_hat, alpha_hat, (1 + alpha) / r,
                     (1 + alpha_hat) / r_hat, eps)


def _emb_case(
    r: Fraction, alpha: Fraction, r_hat: Fraction, alpha_hat: Fraction,
    ci_from: Fraction, ci_to: Fraction, eps: Optional[Rational],
) -> Optional[int]:
    """emb_condition from Fractions and the weight indices
    ci_from = (1+alpha)/r and ci_to = (1+alpha_hat)/r_hat, which the
    planner's settings already hold."""
    if r == r_hat and alpha == alpha_hat:
        return 1
    if ci_to < ci_from:
        return 2
    if eps is not None:
        eps = as_fraction(eps)
        if 0 < eps < Fraction(1, 2) - ci_from:
            if ci_to < ci_from + eps:
                return 3
            if r == r_hat and ci_to == ci_from + eps:
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
    """
    slack = c / 2
    return lo + slack / (t.rho + 1), slack


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
    """
    fs, ts = from_setting, to_setting
    checks: list[BootstrapCheck] = []
    params: dict = {}

    same_gap = fs.scale.gap == ts.scale.gap
    checks.append(
        BootstrapCheck("scale_gap", "source and target scales have equal gap",
                       same_gap, {"from_gap": fs.scale.gap, "to_gap": ts.scale.gap})
    )
    if not same_gap:
        _passed("space_bootstrap", checks)  # raises on the failed scale_gap

    to_low, to_high = bessel_at(ts.scale, 0), bessel_at(ts.scale, 1)
    from_low, from_high = bessel_at(fs.scale, 0), bessel_at(fs.scale, 1)
    checks.append(_embedding_check("scale_component[0]", to_low, from_low))
    checks.append(_embedding_check("scale_component[1]", to_high, from_high))

    tr_src = unweighted_trace(fs)
    tr_dst = weighted_trace(ts)
    checks.append(_embedding_check(
        "trace_embedding", tr_src, tr_dst,
        src_index=tr_src.sobolev_index, dst_index=tr_dst.sobolev_index))

    shift = (ts.scale.low - fs.scale.low) / fs.scale.gap
    eps_emb = shift if shift > 0 else None
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
                                       bessel_at(ts.scale, 1 - eps_emb),
                                       from_high))
        checks.append(_embedding_check("shift_proviso_low", to_low,
                                       bessel_at(fs.scale, eps_emb)))

    lifted = []
    for part, i, t in g.terms():
        if t.window_ok(lo_to):
            _, lhs = t.lhs(lo_to)
            checks.append(
                BootstrapCheck(
                    f"target_growth[{part}{i}]",
                    "window holds and term subcritical at target",
                    lhs <= 1, {"slack": 1 - lhs},
                )
            )
            continue
        if t.phi != t.beta or not t.ordered:
            # a term phi = beta < 1 outside the window lies at or below
            # lo_to, so only these two kinds cannot be lifted
            why = "phi != beta" if t.phi != t.beta else "phi = beta >= 1"
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
                slack > 0, {"lifted_phi": mid, "slack": slack},
            )
        )
    params["lifted_terms"] = tuple(lifted)

    for part, i, t in g.terms():
        cstar = t.threshold_weight_index
        if cstar is None:
            continue
        checks.append(
            BootstrapCheck(
                f"target_noncritical[{part}{i}]",
                "(1+alpha_hat)/r_hat < critical weight index of the term",
                c_to < cstar, {"weight_index": c_to, "critical_index": cstar},
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
    """
    checks: list[BootstrapCheck] = []
    r_hat = via_setting.p
    checks.append(
        BootstrapCheck(
            "integrability_order", "r_hat >= max(r, p)",
            r_hat >= max(from_Y.p, base_X.p),
            {"r_hat": r_hat, "r": from_Y.p, "p": base_X.p},
        )
    )
    checks.append(_embedding_check("trace_embedding",
                                   weighted_trace(via_setting),
                                   weighted_trace(base_X)))
    checks.append(_embedding_check(
        "top_space_embedding", bessel_at(via_setting.scale, 1),
        bessel_at(base_X.scale, 1 - base_X.kappa / base_X.p)))
    for i in (0, 1):
        checks.append(_embedding_check(f"energy_component[{i}]",
                                       bessel_at(via_setting.scale, i),
                                       bessel_at(from_Y.scale, i)))
    if from_Y.p == 2:
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
    """
    if variant == "L2_start":
        eps = as_fraction(eps)
        if not 0 < eps < Fraction(1, 3):
            raise ParameterError("eps must lie in (0, 1/3)")
        g_eps = one_d_growth_params("l2_eps", eps=eps)

        s1 = plan_weight_insertion(_ENERGY, Fraction(6), eps / 2, _G_L2)
        s2 = plan_time_bootstrap(s1.to_setting, Fraction(12), g_eps)
        r_hat = s2.to_setting.p
        recover = Setting(_H2, r_hat, r_hat * eps / 2)
        s3 = plan_space_bootstrap(s2.to_setting, recover, _G_L2)
        alpha4 = (r_hat / 4 + (r_hat / 2 - 1)) / 2
        from4 = Setting(_H2, r_hat, alpha4)
        to4 = Setting(_H4, r_hat, r_hat / 4)
        s4 = plan_space_bootstrap(from4, to4, _G_L4)
        return BootstrapChain(steps=(s1, s2, s3, s4), claim=_CLAIM)

    if variant == "rough":
        if s is None or q is None or p is None:
            raise ParameterError("rough variant needs s, q, p")
        s, q, p = as_fraction(s), as_fraction(q), as_fraction(p)
        if not (0 < s < Fraction(1, 3)):
            raise ParameterError("s must lie in (0, 1/3)")
        if not (2 < q < 2 / (1 - 2 * s)):
            raise ParameterError("q must lie in (2, 2/(1-2s))")
        if not p > 0:
            raise ParameterError("time integrability p must be >= 2")
        if 1 / p + 1 / (2 * q) > (3 - 2 * s) / 4:
            raise ParameterError("need 1/p + 1/(2q) <= (3-2s)/4")
        g_rough = one_d_growth_params("rough", s=s, q=q)
        kappa_crit = critical_weight(g_rough, p)
        if kappa_crit is None:
            raise ParameterError("no admissible critical weight for these (s,q,p)")
        scale = SobolevScale(-1 - s, 1 - s, q)
        base = Setting(scale, p, kappa_crit)
        steps: list[BootstrapStep] = []

        current = base
        if kappa_crit == 0:
            phi1 = g_rough.f_terms[0].phi
            r_ins = 1 / (phi1 - 1 + 1 / p)
            step_a = plan_weight_insertion(base, r_ins, Fraction(0), g_rough)
            steps.append(step_a)
            current = step_a.to_setting
        r_hat = max(Fraction(12), 2 * current.p)
        step_b = plan_time_bootstrap(current, r_hat, g_rough)
        steps.append(step_b)

        # the (-1, 1, q) scale and lzeta(q) serve steps c and z; the
        # integrability step goes to zeta = max(4, q)
        h_q = SobolevScale(Fraction(-1), Fraction(1), q)
        g_q = one_d_growth_params("lzeta", zeta=q)
        h_big, g_big = (_H4, _G_L4) if q < 4 else (h_q, g_q)
        recover = Setting(h_q, r_hat, r_hat * s / 2)
        step_c = plan_space_bootstrap(step_b.to_setting, recover, g_q)
        steps.append(step_c)

        alpha_mid = (r_hat / 4 + (r_hat / 2 - 1)) / 2
        from_z = Setting(h_q, r_hat, alpha_mid)
        to_z = Setting(h_big, r_hat, r_hat / 4)
        step_z = plan_space_bootstrap(from_z, to_z, g_big)
        steps.append(step_z)

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
        if not embeds(weighted_trace(a.to_setting), weighted_trace(b.from_setting)):
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
