"""Power-weighted time norms, numerically.

Norms of the form (int |f|^p |t-a|^kappa dt)^{1/p} on a time interval, and
the difference-quotient (Slobodeckij) seminorm standing in for fractional
time smoothness.

Quadrature convention: the weight factor is integrated exactly cell by cell
(the left endpoint may be singular), the function factor by the trapezoid
average.  All fractional-smoothness assertions are refinement-based, never
exact-constant-based: the difference-quotient seminorm is an equivalent
norm, not the canonical one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ParameterError


@dataclass(frozen=True)
class PowerWeight:
    """w(t) = |t - offset|^kappa; admissible with integrability p iff
    kappa in (-1, p-1)."""

    kappa: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.kappa) or self.kappa <= -1:
            raise ParameterError("weight exponent must be > -1")
        if not np.isfinite(self.offset) or self.offset < 0:
            raise ParameterError("weight offset must be finite and >= 0")

    def admissible_for(self, p: float) -> bool:
        return -1 < self.kappa < p - 1

    def cell_integrals(self, nodes: np.ndarray) -> np.ndarray:
        """Exact integral of the weight over each grid cell.

        Requires offset <= nodes[0]: the singularity may sit on the left
        endpoint but never inside the interval.
        """
        if self.offset > nodes[0] + 1e-15:
            raise ParameterError("weight offset must not exceed the interval start")
        s = np.maximum(nodes - self.offset, 0.0)
        e = 1.0 + self.kappa
        prim = s**e / e
        return np.diff(prim)


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ParameterError("grid needs at least 3 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ParameterError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ParameterError("grid nodes must be strictly increasing")

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @staticmethod
    def graded(a: float, b: float, n: int, power: float = 2.0) -> "TimeGrid":
        """Nodes clustered at the left endpoint, t = a + (b-a)*(i/n)^power."""
        x = (np.arange(n + 1) / n) ** power
        return TimeGrid(a + (b - a) * x)


@dataclass(frozen=True)
class SampledFunction:
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.shape[0] != self.grid.nodes.size:
            raise ParameterError("sample count must match the grid")
        if not np.all(np.isfinite(v)):
            raise ParameterError("samples must be finite")


def _cell_averages(power_values: np.ndarray, singular_first: bool) -> np.ndarray:
    avg = 0.5 * (power_values[:-1] + power_values[1:])
    if singular_first:
        # the weight may be singular at the first node; the sample there is
        # ignored and the cell carries the right-endpoint value
        avg = avg.copy()
        avg[0] = power_values[1]
    return avg


def weighted_lp_norm(f: SampledFunction, p: float, w: PowerWeight) -> float:
    """(int_a^b |f|^p w dt)^{1/p} by exact-weight trapezoid quadrature.

    The integral itself only needs kappa > -1 (enforced by PowerWeight);
    the stricter (-1, p-1) window matters for the seminorm, not for the
    norm.
    """
    if not 1 <= p < np.inf:  # a NaN fails too
        raise ParameterError(f"need 1 <= p < oo, not {p}")
    v = f.values
    if v.ndim != 1:
        raise ParameterError("scalar samples required")
    nodes = f.grid.nodes
    W = w.cell_integrals(nodes)
    vp = np.abs(v)**p
    singular = abs(f.grid.a - w.offset) < 1e-15 and w.kappa != 0
    avg = _cell_averages(vp, singular)
    return float(np.sum(avg * W)) ** (1.0 / p)


def slobodeckij_seminorm(
    f: SampledFunction, theta: float, p: float, w: PowerWeight
) -> float:
    """Weighted difference-quotient seminorm

        (int int |f(t)-f(s)|^p / |t-s|^{1+theta*p} w(t) ds dt)^{1/p}.

    Diagonal cells use the local-slope closed form (the kernel exponent
    gamma = p-1-theta*p is integrable there); off-diagonal cells use
    midpoint values with the exact weight integral on the t-axis.
    """
    if not 0 < theta < 1:
        raise ParameterError("need theta in (0,1)")
    if not 1 <= p < np.inf:  # a NaN fails too
        raise ParameterError(f"need 1 <= p < oo, not {p}")
    if not w.admissible_for(p):
        raise ParameterError(f"kappa={w.kappa} outside (-1, p-1) for p={p}")
    nodes = f.grid.nodes
    v = np.asarray(f.values, dtype=float)
    if v.ndim != 1:
        raise ParameterError("scalar samples required")
    h = np.diff(nodes)
    W = w.cell_integrals(nodes)
    gamma = p - 1.0 - theta * p

    slope = np.abs(np.diff(v) / h)
    diag = slope**p * (2.0 * h ** (2.0 + gamma) / ((1.0 + gamma) * (2.0 + gamma)))
    diag *= W / h  # cell-averaged weight on the diagonal

    tm = 0.5 * (nodes[:-1] + nodes[1:])
    vm = 0.5 * (v[:-1] + v[1:])
    dt = np.abs(tm[:, None] - tm[None, :])
    dv = np.abs(vm[:, None] - vm[None, :])
    np.fill_diagonal(dt, 1.0)  # masked below
    kern = dv**p / dt ** (1.0 + theta * p)
    np.fill_diagonal(kern, 0.0)
    off = np.sum(kern * (W[:, None] * h[None, :]))

    return float(diag.sum() + off) ** (1.0 / p)
