"""Exact exponent calculus for weighted parabolic evolution settings.

Exact rational arithmetic: criticality slacks, critical weights, the mixed
time-space integrability exponents, the starred exponents behind
Serrin-type criteria, and the interpolation-lemma exponents.  Every output
is a `fractions.Fraction`; the hot closed forms compute it from the integer
numerators and denominators of their Fraction inputs (denominators are
positive, so a comparison is one cross-multiplication) and build each
output once with the public `Fraction(num, den)`.  Each such form names in
its docstring the Fraction formula it equals.  Outputs are exact whenever
inputs are exact; a float snaps through `as_fraction` wherever it enters,
and no record flags it, so a record built from floats equals the exact one.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Union

Rational = Union[int, float, Fraction]

# floats snap to the nearest rational with denominator <= this
_COERCE_DENOM = 10**12
_TWO = Fraction(2)


class ParameterError(ValueError):
    """Inadmissible parameter combination."""


class GrowthWindowError(ParameterError):
    """A growth term's (phi, beta) lies outside the admissible window."""


def as_fraction(x: Rational) -> Fraction:
    """Coerce a number to an exact Fraction: the calculus's one float rule.

    Fractions and integers, numpy's too, pass through exactly; any other
    real snaps to the nearest rational with denominator <= 1e12, so that
    0.2 means 1/5, and nothing records the snap.  A bool is no number.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ParameterError(f"not a number: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, numbers.Real):
        x = float(x)
        if not math.isfinite(x):
            raise ParameterError(f"non-finite value: {x!r}")
        return Fraction(x).limit_denominator(_COERCE_DENOM)
    raise ParameterError(f"not a number: {x!r}")


def _snap_fields(obj, names: tuple[str, ...]) -> list:
    """The named fields of the frozen dataclass obj, each stored back as
    as_fraction(field), in order.  The constructors take this path unless
    every field is already a Fraction, when there is nothing to store."""
    vals = [as_fraction(getattr(obj, name)) for name in names]
    for name, v in zip(names, vals):
        object.__setattr__(obj, name, v)
    return vals


@dataclass(frozen=True)
class SobolevScale:
    """Interpolation scale of Bessel-potential spaces on the torus.

    The space at parameter theta in [0,1] has smoothness
    (1-theta)*low + theta*high and integrability q.  gap = high - low is
    derived at construction as an attribute, not a field.
    """

    low: Fraction
    high: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        low, high, q = self.low, self.high, self.q
        if not (isinstance(low, Fraction) and isinstance(high, Fraction)
                and isinstance(q, Fraction)):
            low, high, q = _snap_fields(self, ("low", "high", "q"))
        ln, ld = low.numerator, low.denominator
        hn, hd = high.numerator, high.denominator
        if not hn * ld > ln * hd:
            raise ParameterError("scale needs high > low smoothness")
        if not q.numerator > q.denominator:
            raise ParameterError("scale integrability must exceed 1")
        # gap == high - low
        object.__setattr__(self, "gap", Fraction(hn * ld - ln * hd, hd * ld))

    def smoothness_at(self, theta: Rational) -> Fraction:
        """low + theta*gap, which equals (1-theta)*low + theta*high; the
        endpoints need no arithmetic, not even a coercion.  A bool, numpy's
        too, is no number here, as in as_fraction."""
        if isinstance(theta, bool) or not isinstance(theta, numbers.Number):
            raise ParameterError(f"not a number: {theta!r}")
        if theta == 0:
            return self.low
        if theta == 1:
            return self.high
        return _plus_times(self.low, as_fraction(theta), self.gap)


def _plus_times(a: Fraction, t: Fraction, b: Fraction) -> Fraction:
    """a + t*b, built once from the integer parts."""
    an, ad = a.numerator, a.denominator
    tn, td = t.numerator, t.denominator
    bn, bd = b.numerator, b.denominator
    return Fraction(an * td * bd + tn * bn * ad, ad * td * bd)


@dataclass(frozen=True)
class Setting:
    """A (scale, p, kappa) configuration for the weighted evolution problem.

    Weight admissibility: kappa in [0, p/2-1) for p > 2, and kappa = 0 when
    p = 2 (the Hilbert-space endpoint admits no weight).  Derived at
    construction as attributes, not fields (equality, hashing, reprs and
    JSON see the fields only): weight_index = (1+kappa)/p, the weight's
    contribution to every exponent window, and window_low = 1-weight_index.
    """

    scale: SobolevScale
    p: Fraction
    kappa: Fraction

    def __post_init__(self) -> None:
        p, kappa = self.p, self.kappa
        if not (isinstance(p, Fraction) and isinstance(kappa, Fraction)):
            p, kappa = _snap_fields(self, ("p", "kappa"))
        pn, pd = p.numerator, p.denominator
        kn, kd = kappa.numerator, kappa.denominator
        if pn < 2 * pd:
            raise ParameterError("time integrability p must be >= 2")
        # c = cn/cd == (1+kappa)/p, with cd > 0 as p >= 2
        cn, cd = (kd + kn) * pd, kd * pn
        if pn == 2 * pd:
            if kn != 0:
                raise ParameterError("p = 2 forces kappa = 0")
        elif not (kn >= 0 and 2 * cn < cd):  # kappa < p/2 - 1 iff c < 1/2
            raise ParameterError(
                f"kappa={self.kappa} outside [0, p/2-1) for p={self.p}"
            )
        object.__setattr__(self, "weight_index", Fraction(cn, cd))
        object.__setattr__(self, "window_low", Fraction(cd - cn, cd))


@dataclass(frozen=True)
class GrowthTerm:
    """One polynomial-growth term (rho, phi, beta) of the nonlinearity.

    Admissibility relative to a Setting: phi in (1-(1+kappa)/p, 1) and
    beta in (1-(1+kappa)/p, phi].  Derived attributes, not fields
    (equality, hashing, reprs and JSON see the fields only):
      ordered = (beta <= phi < 1), the weight-free half of the window, set
        at construction;
      threshold_weight_index = (1-beta)/rho + (1-phi), the c that solves
        rho*(phi-1+c) + beta = 1, or None when rho = 0 (such a term never
        binds: its gap 1-beta is positive and weight-independent); computed
        on first read, since only the criticality passes read it.
    """

    rho: Fraction
    phi: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        rho, phi, beta = self.rho, self.phi, self.beta
        if not (isinstance(rho, Fraction) and isinstance(phi, Fraction)
                and isinstance(beta, Fraction)):
            rho, phi, beta = _snap_fields(self, ("rho", "phi", "beta"))
        if rho.numerator < 0:
            raise ParameterError("growth power rho must be >= 0")
        fn, fd = phi.numerator, phi.denominator
        bn, bd = beta.numerator, beta.denominator
        object.__setattr__(self, "ordered", bn * fd <= fn * bd and fn < fd)

    @cached_property
    def threshold_weight_index(self) -> Optional[Fraction]:
        """(1-beta)/rho + (1-phi), built once from the integer parts."""
        rn, rd = self.rho.numerator, self.rho.denominator
        if rn == 0:
            return None
        fn, fd = self.phi.numerator, self.phi.denominator
        bn, bd = self.beta.numerator, self.beta.denominator
        return Fraction((bd - bn) * rd * fd + (fd - fn) * bd * rn, bd * rn * fd)

    def window_ok(self, lo: Fraction) -> bool:
        """Whether the term lies in its window at window_low lo = 1-c: with
        beta <= phi < 1 stored, lo < beta is the one comparison left."""
        return self.ordered and (lo.numerator * self.beta.denominator
                                 < self.beta.numerator * lo.denominator)

    def _lhs_parts(self, ln: int, ld: int) -> tuple[int, int, int, int]:
        """Integer parts (dn, dd, hn, hd), denominators positive, of
        d = phi - lo and rho*d + beta at lo = ln/ld.  At window_low
        lo = 1-c, c = (1+kappa)/p, d = phi-1+c and rho*d + beta is the left
        side of every subcriticality test: the term is subcritical when it
        is at most 1 and critical when it equals 1."""
        fn, fd = self.phi.numerator, self.phi.denominator
        bn, bd = self.beta.numerator, self.beta.denominator
        dn, dd = fn * ld - ln * fd, fd * ld
        rn, rd = self.rho.numerator, self.rho.denominator
        return dn, dd, rn * dn * bd + bn * rd * dd, rd * dd * bd


@dataclass(frozen=True)
class GrowthSpec:
    """Growth terms of the drift (f) and diffusion (g) nonlinearities."""

    f_terms: tuple[GrowthTerm, ...] = ()
    g_terms: tuple[GrowthTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_terms", tuple(self.f_terms))
        object.__setattr__(self, "g_terms", tuple(self.g_terms))
        if not self.f_terms and not self.g_terms:
            raise ParameterError("growth spec needs at least one term")

    def terms(self) -> Iterator[tuple[str, int, GrowthTerm]]:
        for i, t in enumerate(self.f_terms):
            yield "f", i, t
        for i, t in enumerate(self.g_terms):
            yield "g", i, t

    @property
    def max_phi(self) -> Fraction:
        """max_j phi_j, the first maximal phi, compared by
        cross-multiplication."""
        best = None
        for _, _, t in self.terms():
            phi = t.phi
            if best is None or (phi.numerator * best.denominator
                                > best.numerator * phi.denominator):
                best = phi
        return best


@dataclass(frozen=True)
class BesovDescriptor:
    """B^{smoothness}_{q,p} on the torus; p is the secondary index."""

    smoothness: Fraction
    q: Fraction
    p: Fraction


def trace_space(s: Setting) -> BesovDescriptor:
    """Besov space of admissible initial data for a Setting.

    Real interpolation of the Bessel scale at parameter 1-(1+kappa)/p gives
    smoothness high - (high-low)*(1+kappa)/p, secondary index p.  The
    smoothness is high - gap*c, built once from the integer parts.
    """
    c = s.weight_index
    sm = Fraction(*_trace_smoothness(s.scale, c.numerator, c.denominator))
    return BesovDescriptor(smoothness=sm, q=s.scale.q, p=s.p)


def _trace_smoothness(scale: SobolevScale, cn: int,
                      cd: int) -> tuple[int, int]:
    """Integer parts (n, d), d > 0, of high - gap*c at c = cn/cd, cd > 0:
    the smoothness of the scale's trace space at weight index c."""
    hn, hd = scale.high.numerator, scale.high.denominator
    gn, gd = scale.gap.numerator, scale.gap.denominator
    return hn * gd * cd - gn * cn * hd, hd * gd * cd


@dataclass(frozen=True)
class TermCriticality:
    part: str
    index: int
    term: GrowthTerm
    window_ok: bool
    lhs: Fraction
    slack: Fraction
    weight_margin: Optional[Fraction]
    critical: bool


@dataclass(frozen=True)
class XEntry:
    """One mixed-norm entry: time integrability, scale parameter, smoothness."""

    time_exponent: Fraction
    theta: Fraction
    smoothness: Fraction
    space_q: Fraction


@dataclass(frozen=True)
class TermExponents:
    part: str
    index: int
    rho_star: Fraction
    r: Fraction
    r_conj: Fraction
    x_entries: tuple[XEntry, XEntry]


@dataclass(frozen=True)
class CriticalityReport:
    terms: tuple[TermCriticality, ...]
    is_critical: bool
    all_subcritical: bool
    all_windows_ok: bool
    kappa_crit: Optional[Fraction] = None
    binding_terms: tuple[tuple[str, int], ...] = ()
    exponents: Optional[tuple[TermExponents, ...]] = None


def _subcriticality(
    g: GrowthSpec, s: Setting
) -> tuple[CriticalityReport, tuple[tuple[int, int], ...]]:
    """Per-term criticality arithmetic at a given Setting, and the integer
    parts of each term's phi-1+c.

    slack = 1 - [rho*(phi-1+(1+kappa)/p) + beta].  A term is critical when
    its slack is exactly zero; the report is critical when some term is and
    none is supercritical.  Window violations never raise here: they are
    reported per term via window_ok (the synthesis ops reject instead).
    lhs, slack = 1 - lhs and weight_margin = threshold_weight_index - c
    are each built once from the integer parts."""
    c, lo = s.weight_index, s.window_low
    cn, cd = c.numerator, c.denominator
    ln, ld = lo.numerator, lo.denominator
    rows, offsets = [], []
    all_sub = True
    for part, i, t in g.terms():
        dn, dd, hn, hd = t._lhs_parts(ln, ld)
        offsets.append((dn, dd))
        all_sub = all_sub and hn <= hd
        thr = t.threshold_weight_index
        if thr is None:
            margin = None
        else:
            tn, td = thr.numerator, thr.denominator
            margin = Fraction(tn * cd - cn * td, td * cd)
        rows.append(
            TermCriticality(
                part=part,
                index=i,
                term=t,
                window_ok=t.window_ok(lo),
                lhs=Fraction(hn, hd),
                slack=Fraction(hd - hn, hd),
                weight_margin=margin,
                critical=(hn == hd),
            )
        )
    rows = tuple(rows)
    return CriticalityReport(
        terms=rows,
        is_critical=all_sub and any(r.critical for r in rows),
        all_subcritical=all_sub,
        all_windows_ok=all(r.window_ok for r in rows),
    ), tuple(offsets)


def critical_weight(g: GrowthSpec, p: Rational) -> Optional[Fraction]:
    """Smallest admissible kappa >= 0 at which some term turns critical.

    Per binding term (rho > 0) the equality kappa = p*c* - 1 with
    c* = (1-beta)/rho + (1-phi); the minimum over terms is returned when it
    lies in the admissible weight range for p (kappa = 0 is the only
    admissible value at p = 2), otherwise None.
    """
    return _critical_weight(g, p)[0]


def _critical_weight(
    g: GrowthSpec, p: Rational
) -> tuple[Optional[Fraction], tuple[tuple[str, int], ...]]:
    """(critical weight, binding terms) from one pass over the thresholds;
    (None, ()) when no term binds at an admissible weight.  Each term's
    p*threshold_weight_index - 1 is kept as integer parts, and the least
    is built once."""
    p = as_fraction(p)
    pn, pd = p.numerator, p.denominator
    if pn < 2 * pd:
        raise ParameterError("time integrability p must be >= 2")
    kn = kd = None
    binding = []
    for part, i, t in g.terms():
        thr = t.threshold_weight_index
        if thr is None:
            continue
        n, d = pn * thr.numerator - pd * thr.denominator, pd * thr.denominator
        if kn is None or n * kd < kn * d:
            kn, kd, binding = n, d, [(part, i)]
        elif n * kd == kn * d:
            binding.append((part, i))
    # kappa == 0, or p > 2 and 0 <= kappa < p/2 - 1
    if kn is not None and (kn == 0 or (pn > 2 * pd and kn >= 0
                                       and 2 * kn * pd < (pn - 2 * pd) * kd)):
        return Fraction(kn, kd), tuple(binding)
    return None, ()


def _admissible_offsets(g: GrowthSpec,
                        s: Setting) -> tuple[tuple[int, int], ...]:
    """Integer parts (n, d), d > 0, of phi-1+c of every term,
    c = (1+kappa)/p, once all are admissible.

    One pass over the terms.  Windows come first: if any term lies outside
    its window, the GrowthWindowError names all of them; otherwise the
    first supercritical term raises a ParameterError.
    """
    lo = s.window_low
    ln, ld = lo.numerator, lo.denominator
    bad, offsets = [], []
    supercritical = None
    for part, i, t in g.terms():
        dn, dd, hn, hd = t._lhs_parts(ln, ld)
        offsets.append((dn, dd))
        if not t.window_ok(lo):
            bad.append((part, i))
        elif not bad and supercritical is None and hn > hd:
            supercritical = (part, i)
    if bad:
        raise GrowthWindowError(
            "terms outside the (1-(1+kappa)/p, 1) window at weight index "
            f"{s.weight_index}: {bad}"
        )
    if supercritical is not None:
        part, i = supercritical
        raise ParameterError(f"term ({part},{i}) is supercritical at this setting")
    return tuple(offsets)


def rho_star_and_x_exponents(g: GrowthSpec, s: Setting) -> tuple[TermExponents, ...]:
    """Per-term mixed time-space integrability exponents.

    rho* = (1-beta)/(phi-1+c), r' = c/(1-beta), r = c/(beta-1+c) with
    c = (1+kappa)/p; conjugacy 1/r + 1/r' = 1 is exact.  The two mixed-norm
    entries are (p*r at scale parameter beta) and (rho*p*r' at phi).
    """
    return _x_exponents(g, s, _admissible_offsets(g, s))


def _x_exponents(
    g: GrowthSpec, s: Setting, offsets: tuple[tuple[int, int], ...]
) -> tuple[TermExponents, ...]:
    """rho_star_and_x_exponents after the checks, from the integer parts of
    each term's d = phi-1+c; rho_star == (1-beta)/d."""
    out = []
    for (part, i, t), (dn, dd) in zip(g.terms(), offsets):
        bn, bd = t.beta.numerator, t.beta.denominator
        rho_star = Fraction((bd - bn) * dd, bd * dn)  # > 0 inside the window
        r, r_conj, entries = _mixed_norm(s, rho_star, t.phi, t.beta,
                                         bd - bn, bd)
        out.append(
            TermExponents(
                part=part, index=i, rho_star=rho_star, r=r, r_conj=r_conj,
                x_entries=entries,
            )
        )
    return tuple(out)


def _mixed_norm(
    s: Setting, rho: Fraction, phi: Fraction, beta: Fraction, on: int, od: int
) -> tuple[Fraction, Fraction, tuple[XEntry, XEntry]]:
    """(r, r', entries) of one term from 1-beta = on/od: the conjugate pair
    r' = c/(1-beta), r = c/(beta-1+c) at c = (1+kappa)/p and the mixed-norm
    entries L^{p*r} at scale parameter beta and L^{rho*p*r'} at phi, whose
    smoothness is scale.smoothness_at(theta).  Each output is built once
    from the integer parts."""
    scale, c, p = s.scale, s.weight_index, s.p
    cn, cd = c.numerator, c.denominator
    pn, pd = p.numerator, p.denominator
    # r' = a/(cd*on) and r = a/b
    a = cn * od
    b = a - on * cd
    entries = (
        XEntry(
            time_exponent=Fraction(pn * a, pd * b),
            theta=beta,
            smoothness=_plus_times(scale.low, beta, scale.gap),
            space_q=scale.q,
        ),
        XEntry(
            time_exponent=Fraction(rho.numerator * pn * a,
                                   rho.denominator * pd * cd * on),
            theta=phi,
            smoothness=_plus_times(scale.low, phi, scale.gap),
            space_q=scale.q,
        ),
    )
    return Fraction(a, b), Fraction(a, cd * on), entries


@dataclass(frozen=True)
class StarParams:
    part: str
    index: int
    rho_eff: Fraction
    phi_star: Fraction
    beta_star: Fraction
    case_id: int
    epsilon: Optional[Fraction]


def _star_row(
    part: str, index: int, rho: Fraction, phi: Fraction, kappa: Fraction,
    c: Fraction, dn: int, dd: int,
) -> tuple[StarParams, tuple[int, int]]:
    """Starred exponents of one term and the integer parts of their 1-beta*,
    unchecked, from d = phi-1+c = dn/dd, dd > 0: the caller has made sure
    that rho >= 0, that phi < 1, that the term is subcritical at c, and
    that d > 0 when rho = 0.

    Each output is built once from the integer parts: rho = 0 takes
    rho_eff = eps == min(kappa+1, (1-phi)/d)/2; case 1 has
    beta* == 1 - rho_eff*d, case 2 phi* = beta* == 1 - rho_eff/(rho_eff+1)*c.
    """
    fn, fd = phi.numerator, phi.denominator
    if rho.numerator > 0:
        rho_eff, eps = rho, None
    else:
        # kappa+1 against (1-phi)/d, which is positive as d > 0
        mn, md = kappa.numerator + kappa.denominator, kappa.denominator
        wn, wd = (fd - fn) * dd, fd * dn
        if wn * md < mn * wd:
            mn, md = wn, wd
        eps = Fraction(mn, 2 * md)
        rho_eff = eps
    en, ed = rho_eff.numerator, rho_eff.denominator
    # lift = rho_eff*d = un/ud
    un, ud = en * dn, ed * dd
    if un * fd + fn * ud >= ud * fd:  # lift + phi >= 1
        return StarParams(part=part, index=index, rho_eff=rho_eff,
                          phi_star=phi, beta_star=Fraction(ud - un, ud),
                          case_id=1, epsilon=eps), (un, ud)
    # drop = rho_eff/(rho_eff+1)*c = wn/wd
    wn, wd = en * c.numerator, (en + ed) * c.denominator
    phi_star = Fraction(wd - wn, wd)
    return StarParams(part=part, index=index, rho_eff=rho_eff,
                      phi_star=phi_star, beta_star=phi_star, case_id=2,
                      epsilon=eps), (wn, wd)


def _star_rows(
    g: GrowthSpec, s: Setting
) -> Iterator[tuple[StarParams, tuple[int, int]]]:
    """_star_row of every term, after the admissibility checks."""
    for (part, i, t), (dn, dd) in zip(g.terms(), _admissible_offsets(g, s)):
        yield _star_row(part, i, t.rho, t.phi, s.kappa, s.weight_index, dn, dd)


def star_params(g: GrowthSpec, s: Setting) -> tuple[StarParams, ...]:
    """Starred exponents for every term of a GrowthSpec at a Setting."""
    return tuple(sp for sp, _ in _star_rows(g, s))


@dataclass(frozen=True)
class XiExponents:
    part: str
    index: int
    xi: Fraction
    xi_conj: Fraction
    x_entries: tuple[XEntry, XEntry]


def xi_exponents(g: GrowthSpec, s: Setting) -> tuple[XiExponents, ...]:
    """Conjugate time exponents built on the starred parameters.

    1/xi' = rho_eff*(phi*-1+c)/c and 1/xi = (beta*-1+c)/c; the star identity
    makes 1/xi' = (1-beta*)/c, so 1/xi + 1/xi' = 1 is exact.  For a critical
    term (xi, xi') reduce to (r, r').
    """
    out = []
    for sp, (on, od) in _star_rows(g, s):
        xi, xi_conj, entries = _mixed_norm(s, sp.rho_eff, sp.phi_star,
                                           sp.beta_star, on, od)
        out.append(
            XiExponents(part=sp.part, index=sp.index, xi=xi, xi_conj=xi_conj,
                        x_entries=entries)
        )
    return tuple(out)


@dataclass(frozen=True)
class InterpolationExponents:
    zeta: Fraction
    delta: Fraction
    phi: Fraction
    case_id: int
    theta0: Fraction


def interpolation_exponents(
    psi: Rational, p: Rational, kappa: Rational
) -> InterpolationExponents:
    """Exponents of the three-factor interpolation estimate.

    zeta = (1+kappa)/(psi-1+(1+kappa)/p) always.  Case selection for
    kappa > 0: case 1 (delta = 1-p/(1+kappa)*(psi-1+c), phi = 1) on
    (1-c*(1+kappa)/(2+kappa), 1), case 2 (delta = kappa/(kappa+1),
    phi = p*(psi-1+c)) on (1-c, 1-kappa/p]; in the overlap the interior
    prefers case 1 and the right endpoint psi = 1-kappa/p reports case 2
    (the two formula sets agree there).  kappa = 0 is case 3: delta = 1,
    phi = p*(psi-1+1/p).  theta0 is the least admissible time-smoothness
    parameter of the middle factor.
    """
    psi, p, kappa = as_fraction(psi), as_fraction(p), as_fraction(kappa)
    if p <= 1:
        raise ParameterError("need p > 1")
    if not (0 <= kappa < p - 1):
        raise ParameterError("need kappa in [0, p-1)")
    c = (1 + kappa) / p
    if not (1 - c < psi < 1):
        raise ParameterError(f"psi={psi} outside (1-(1+kappa)/p, 1)")
    zeta = (1 + kappa) / (psi - 1 + c)
    if kappa == 0:
        delta = Fraction(1)
        phi = p * (psi - 1 + 1 / p)
        return InterpolationExponents(zeta, delta, phi, 3, Fraction(0))
    case1_lo = 1 - c * (1 + kappa) / (2 + kappa)
    if psi > case1_lo and psi != 1 - kappa / p:
        delta = 1 - p / (1 + kappa) * (psi - 1 + c)
        phi = Fraction(1)
        theta0 = kappa / p - c * (psi - 1 + kappa / p) / (psi - 1 + c)
        return InterpolationExponents(zeta, delta, phi, 1, theta0)
    delta = kappa / (kappa + 1)
    phi = p * (psi - 1 + c)
    return InterpolationExponents(zeta, delta, phi, 2, kappa / p)


@dataclass(frozen=True)
class SerrinTerm:
    part: str
    index: int
    ok: bool
    reason: str


@dataclass(frozen=True)
class SerrinReport:
    ok: bool
    terms: tuple[SerrinTerm, ...]
    revised: bool


def serrin_applicable(g: GrowthSpec, s: Setting, revised: bool = False) -> SerrinReport:
    """Whether the Serrin-type criterion applies to every growth term.

    Plain mode per term: beta = phi and (rho < 1+kappa when kappa > 0,
    rho <= 1 when kappa = 0).  Revised mode: both starred exponents exceed
    1 - (1+kappa)/p*(1+kappa)/(2+kappa) strictly.

    Both modes admit a term without the (1-(1+kappa)/p, 1) window that
    star_params asks for: it needs phi < 1 (else GrowthWindowError), the
    term subcritical at the setting (else ParameterError), and, when
    rho = 0, phi above 1-(1+kappa)/p (else GrowthWindowError).  So beta
    may lie below the window or above phi, and phi below the window when
    rho > 0.  The first term that fails raises, in the order of g.terms().
    """
    kappa, c, lo = s.kappa, s.weight_index, s.window_low
    ln, ld = lo.numerator, lo.denominator
    thr = 1 - c * (1 + kappa) / (2 + kappa)
    rows = []
    for part, i, t in g.terms():
        if not t.phi < 1:
            raise GrowthWindowError(f"phi={t.phi} must be below 1")
        dn, dd, hn, hd = t._lhs_parts(ln, ld)
        if hn > hd:
            raise ParameterError("supercritical term has no starred exponents")
        if t.rho.numerator == 0 and dn <= 0:
            raise GrowthWindowError(
                f"rho=0 term needs phi={t.phi} above 1-(1+kappa)/p={lo}")
        if revised:
            sp, _ = _star_row(part, i, t.rho, t.phi, kappa, c, dn, dd)
            bs, ps = sp.beta_star, sp.phi_star
            ok = bs > thr and ps > thr
            reason = (
                f"beta*={bs}, phi*={ps} vs threshold {thr}"
                if ok
                else f"starred exponents ({bs},{ps}) not above threshold {thr}"
            )
        elif t.beta != t.phi:
            ok, reason = False, "needs beta = phi"
        elif kappa > 0:
            ok = t.rho < 1 + kappa
            reason = f"rho={t.rho} vs 1+kappa={1 + kappa} (strict)"
        else:
            ok = t.rho <= 1
            reason = f"rho={t.rho} vs 1 (kappa=0 branch)"
        rows.append(SerrinTerm(part, i, ok, reason))
    rows = tuple(rows)
    return SerrinReport(ok=all(r.ok for r in rows), terms=rows, revised=revised)


@dataclass(frozen=True)
class ClauseSelection:
    clause: str
    description: str


_QL_NON_CRITICAL = ClauseSelection(
    "blow_up_non_critical",
    "non-critical data space: finiteness of sup_t ||u(t)||_trace alone "
    "rules out blow-up",
)
_QL_CRITICAL_LP = ClauseSelection(
    "blow_up_limit_and_lp_bound",
    "critical data space with an a priori estimate: blow-up ruled out by "
    "sup_t ||u(t)||_trace < oo together with ||u||_{L^p(0,σ;X_{1-κ/p})} < oo",
)
_QL_CRITICAL_NO_LP = ClauseSelection(
    "blow_up_nonlinearity_functional",
    "critical data space without an L^p estimate: use finiteness of the "
    "weighted nonlinearity functional",
)
_SL_NO_SUP = ClauseSelection(
    "semilinear_nonlinearity_functional_or_serrin",
    "no sup-norm control: use the nonlinearity functional clause (1) or "
    "Serrin theorem",
)
_SL_SUP_NON_CRITICAL = ClauseSelection(
    "semilinear_sup_bound_non_critical",
    "sup-norm bound with a non-critical data space suffices",
)
_SL_SUP_CRITICAL = ClauseSelection(
    "semilinear_sup_and_lp_bound",
    "critical data space: combine the sup-norm bound with "
    "||u||_{L^p(0,σ;X_{1-κ/p})} < oo",
)


def criterion_select(
    semilinear: bool,
    is_critical: bool,
    have_sup_bound: bool,
    have_lp_bound: bool,
) -> ClauseSelection:
    """Route to the applicable blow-up criterion clause.

    The quasilinear tree branches on criticality then on the L^p estimate
    (the sup-norm flag is not consulted); the semilinear tree branches on
    the sup-norm bound then on criticality.
    """
    if not semilinear:
        if not is_critical:
            return _QL_NON_CRITICAL
        return _QL_CRITICAL_LP if have_lp_bound else _QL_CRITICAL_NO_LP
    if not have_sup_bound:
        return _SL_NO_SUP
    return _SL_SUP_NON_CRITICAL if not is_critical else _SL_SUP_CRITICAL


def one_d_growth_params(
    variant: str,
    *,
    eps: Rational | None = None,
    zeta: Rational | None = None,
    s: Rational | None = None,
    q: Rational | None = None,
    nu: Rational = 1,
) -> GrowthSpec:
    """Growth terms of the 1d conservative-drift problem on the torus.

    Variants fix the drift exponent phi1 = beta1 of the f-term (rho = 2):
      l2_eps:  phi1 = 2/3 + eps/3           for eps in [0, 1/2)
      lzeta:   phi1 = 1/2 + 1/(3*zeta)      for zeta in (2, oo)
      rough:   phi1 = (1/q + s)/3 + 1/2     for s in (0,1/3), q in (2, 2/s)
    The diffusion term is (2-nu, phi1, phi1) with nu in (0, 2].  phi1 and
    2-nu are built once from the integer parts.
    """
    nu = as_fraction(nu)
    nn, nd = nu.numerator, nu.denominator
    if not (0 < nn <= 2 * nd):
        raise ParameterError("nu must lie in (0, 2]")
    if variant == "l2_eps":
        if eps is None:
            raise ParameterError("l2_eps variant needs eps")
        eps = as_fraction(eps)
        en, ed = eps.numerator, eps.denominator
        if not (0 <= en and 2 * en < ed):
            raise ParameterError("eps must lie in [0, 1/2)")
        phi1 = Fraction(2 * ed + en, 3 * ed)  # 2/3 + eps/3
    elif variant == "lzeta":
        if zeta is None:
            raise ParameterError("lzeta variant needs zeta")
        zeta = as_fraction(zeta)
        zn, zd = zeta.numerator, zeta.denominator
        if not zn > 2 * zd:
            raise ParameterError("zeta must exceed 2")
        phi1 = Fraction(3 * zn + 2 * zd, 6 * zn)  # 1/2 + 1/(3*zeta)
    elif variant == "rough":
        if s is None or q is None:
            raise ParameterError("rough variant needs s and q")
        s, q = as_fraction(s), as_fraction(q)
        sn, sd = s.numerator, s.denominator
        qn, qd = q.numerator, q.denominator
        if not (0 < sn and 3 * sn < sd):
            raise ParameterError("s must lie in (0, 1/3)")
        if not (2 * qd < qn and qn * sn < 2 * sd * qd):  # 2 < q < 2/s
            raise ParameterError("q must lie in (2, 2/s)")
        # (1/q + s)/3 + 1/2
        phi1 = Fraction(2 * (qd * sd + sn * qn) + 3 * qn * sd, 6 * qn * sd)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    return GrowthSpec(
        f_terms=(GrowthTerm(_TWO, phi1, phi1),),
        g_terms=(GrowthTerm(Fraction(2 * nd - nn, nd), phi1, phi1),),
    )


def full_report(g: GrowthSpec, s: Setting) -> CriticalityReport:
    """Criticality report with the critical weight and exponent tables filled."""
    base, offsets = _subcriticality(g, s)
    kappa, binding = _critical_weight(g, s.p)
    exps = None
    if base.all_windows_ok and base.all_subcritical:
        exps = _x_exponents(g, s, offsets)
    return CriticalityReport(
        terms=base.terms,
        is_critical=base.is_critical,
        all_subcritical=base.all_subcritical,
        all_windows_ok=base.all_windows_ok,
        kappa_crit=kappa,
        binding_terms=binding,
        exponents=exps,
    )


# ---------------------------------------------------------------------------
# JSON codecs.  Fractions serialize as "num/den" strings; parsing accepts
# "num/den", integers, and decimal floats.

def fraction_to_json(x: Fraction) -> str:
    x = as_fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_json(v) -> Fraction:
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ParameterError(f"bad rational literal {v!r}") from e
    return as_fraction(v)


def _jsonable(v):
    """JSON form of a Fraction, or of a tuple, dict or dataclass of them:
    tuples become lists and dataclasses dicts by field."""
    if isinstance(v, Fraction):
        return fraction_to_json(v)
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if is_dataclass(v):
        return {f.name: _jsonable(getattr(v, f.name)) for f in fields(v)}
    return v


def _term_to_dict(t: GrowthTerm) -> dict:
    return {"rho": fraction_to_json(t.rho), "phi": fraction_to_json(t.phi),
            "beta": fraction_to_json(t.beta)}


def setting_to_dict(s: Setting) -> dict:
    return {
        "scale": {
            "low": fraction_to_json(s.scale.low),
            "high": fraction_to_json(s.scale.high),
            "q": fraction_to_json(s.scale.q),
        },
        "p": fraction_to_json(s.p),
        "kappa": fraction_to_json(s.kappa),
    }


def growth_spec_to_dict(g: GrowthSpec) -> dict:
    return {"f_terms": [_term_to_dict(t) for t in g.f_terms],
            "g_terms": [_term_to_dict(t) for t in g.g_terms]}


def growth_spec_from_dict(d: dict) -> GrowthSpec:
    def dec(rows):
        return tuple(
            GrowthTerm(
                fraction_from_json(r["rho"]),
                fraction_from_json(r["phi"]),
                fraction_from_json(r["beta"]),
            )
            for r in rows
        )

    try:
        return GrowthSpec(
            f_terms=dec(d.get("f_terms", [])),
            g_terms=dec(d.get("g_terms", [])),
        )
    except (KeyError, TypeError) as e:
        raise ParameterError(f"malformed growth spec: {e}") from e


def report_to_dict(rep: CriticalityReport) -> dict:
    out = {
        "is_critical": rep.is_critical,
        "all_subcritical": rep.all_subcritical,
        "all_windows_ok": rep.all_windows_ok,
        "kappa_crit": _jsonable(rep.kappa_crit),
        "binding_terms": _jsonable(rep.binding_terms),
        "terms": [
            {
                "part": r.part,
                "index": r.index,
                **_term_to_dict(r.term),
                "window_ok": r.window_ok,
                "lhs": fraction_to_json(r.lhs),
                "slack": fraction_to_json(r.slack),
                "weight_margin": _jsonable(r.weight_margin),
                "critical": r.critical,
            }
            for r in rep.terms
        ],
    }
    if rep.exponents is not None:
        out["exponents"] = _jsonable(rep.exponents)
    return out
