"""Convex weight functions and the sharp drift-estimate constant.

The weight catalog consists of strictly increasing convex functions on
``[0, inf)`` whose ratio ``u w'(u) / w(u)`` has a limit in ``[1, inf]``:
powers (limit = exponent), the exponential (limit infinite), and
``u*log(1+u)`` (limit one).  The powers vanish at zero, which every
downstream formula tolerates.

``estimate_constant`` maximizes ``w'(u)(c*sqrt(u) - beta*u) + B*w(u)`` over
``u >= 0``.  A closed bracket ``max(c^2/beta^2, c^2/(4(beta-B)^2))`` is valid
only when ``B < beta``; for ``B >= beta`` (allowed when the ratio limit
exceeds one) the maximizer can sit far beyond it, so the search bracket is
expanded geometrically until the maximum is interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightFunction:
    """One member of the catalog: ``power`` (with exponent ``p >= 1``),
    ``exponential`` or ``xlog``."""

    kind: str
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("power", "exponential", "xlog"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "power" and self.p < 1:
            raise ValueError("power weight needs exponent >= 1")

    @property
    def ratio_limit(self) -> float:
        if self.kind == "power":
            return self.p
        if self.kind == "exponential":
            return np.inf
        return 1.0

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            return np.power(u, self.p)
        if self.kind == "exponential":
            with np.errstate(over="ignore"):
                return np.exp(u)
        with np.errstate(invalid="ignore"):
            return u * np.log1p(u)

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            if self.p == 1:
                return np.ones_like(u)
            return self.p * np.power(u, self.p - 1.0)
        if self.kind == "exponential":
            with np.errstate(over="ignore"):
                return np.exp(u)
        return np.log1p(u) + u / (1.0 + u)

    def second(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            if self.p == 1:
                return np.zeros_like(u)
            return self.p * (self.p - 1.0) * np.power(u, self.p - 2.0)
        if self.kind == "exponential":
            with np.errstate(over="ignore"):
                return np.exp(u)
        return (u + 2.0) / (1.0 + u) ** 2

    def log_value(self, u):
        """log of the weight, safe for arguments where the value overflows."""
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                return self.p * np.log(u)
        if self.kind == "exponential":
            return u.copy()
        with np.errstate(divide="ignore"):
            return np.log(u) + np.log(np.log1p(u))

    def describe(self):
        d = {"kind": self.kind}
        if self.kind == "power":
            d["p"] = self.p
        return d


def make_weight(kind: str, p: float | None = None) -> WeightFunction:
    return WeightFunction(kind, p if p is not None else 2.0)


@dataclass
class EstimateConstant:
    value: float
    u_bracket: float            # right end of the search bracket actually used
    u_argmax: float
    closed_form: float | None   # exact value when available, else an upper bound
    closed_form_is_upper: bool


def _objective(w: WeightFunction, c: float, beta: float, B: float, u):
    with np.errstate(over="ignore", invalid="ignore"):
        f = w.deriv(u) * (c * np.sqrt(u) - beta * u) + B * w.value(u)
    return np.where(np.isnan(f), -np.inf, f)


def estimate_constant(w: WeightFunction, c: float, beta: float, B: float,
                      grid_points: int = 4096) -> EstimateConstant:
    """Sharp constant dominating ``w'(u)(c*sqrt(u) - beta*u) + B*w(u)``.

    Requires ``0 < B < beta * ratio_limit`` (any positive ``B`` when the
    limit is infinite).  Dense grid search over an expanding bracket, then
    golden-section refinement around the best cell.
    """
    if c < 0 or beta <= 0 or B <= 0:
        raise ValueError("need c >= 0, beta > 0, B > 0")
    L = w.ratio_limit
    if np.isfinite(L) and not B < beta * L:
        raise ValueError(f"need B < beta * {L} = {beta * L}, got B={B}")

    u0 = max(c**2 / beta**2, c**2 / (4.0 * (beta - B) ** 2)) if B < beta \
        else c**2 / beta**2
    hi = max(u0, 1.0)
    for _ in range(200):
        grid = np.linspace(0.0, hi, grid_points)
        vals = _objective(w, c, beta, B, grid)
        k = int(np.argmax(vals))
        if k < grid_points - int(0.02 * grid_points) - 1:
            break
        hi *= 2.0
    else:
        raise RuntimeError("estimate constant bracket expansion failed")

    lo_u = grid[max(k - 1, 0)]
    hi_u = grid[min(k + 1, grid_points - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_u, hi_u
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = float(_objective(w, c, beta, B, np.array(x1)))
    f2 = float(_objective(w, c, beta, B, np.array(x2)))
    while b - a > 1e-12 * max(1.0, b):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = float(_objective(w, c, beta, B, np.array(x1)))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = float(_objective(w, c, beta, B, np.array(x2)))
    u_star = 0.5 * (a + b)
    value = float(max(np.max(vals), _objective(w, c, beta, B, np.array(u_star))))

    closed, upper = closed_form_constant(w, c, beta, B)
    return EstimateConstant(value, float(hi), float(u_star), closed, upper)


def closed_form_constant(w: WeightFunction, c: float, beta: float, B: float):
    """Known closed forms: exact for powers (any admissible ``B``) and for the
    generic ``B = beta/2`` case; a rough upper bound for ``xlog``."""
    if w.kind == "power":
        # maximum of  c p u^{p-1/2} - (p beta - B) u^p
        val = (c ** (2 * w.p) / 2.0) * ((w.p - 0.5) / (w.p * beta - B)) ** (2 * w.p - 1)
        return float(val), False
    if B == beta / 2.0:
        return float(0.5 * beta * w.value(c**2 / beta**2)), False
    if w.kind == "xlog":
        val = (c**2 / 4.0) * (c**2 / (beta - B) ** 3 + 1.0 / beta)
        return float(val), True
    return None, False


@dataclass
class MomentBoundReport:
    weight: str
    violations: int
    worst_margin: float
    overflow_nodes: int
    n_nodes: int

    @property
    def passed(self):
        return self.violations == 0


def check_moment_bound_on_fields(fields, w0_fields, runmax_fields, snap_times,
                                 x_start, w: WeightFunction, beta: float,
                                 bound_fn, dt: float, slack_mult: float = 10.0,
                                 k_scale: float = 2.0) -> MomentBoundReport:
    """Node-wise moment bound on strided field snapshots.

    Used for weak-limit candidates, where only ``(paths, nodes, d)`` field
    arrays exist; running maxima are supplied from the full-resolution pass.

    Fails closed: a node holds only when its margin is ``>= 0``.  A NaN margin
    (a NaN field, or both sides overflowing) is a violation and makes the
    worst margin NaN; an overflowing left side against a finite right side
    gives ``-inf``, also a violation.  A right side that overflows alone
    holds.  Nodes with either side non-finite are counted as overflow.
    """
    slack = 1.0 + slack_mult * dt
    xn2 = float(np.sum(np.asarray(x_start, dtype=float) ** 2))
    n0 = np.linalg.norm(w0_fields, axis=-1)
    a_rm = np.asarray(bound_fn(runmax_fields), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        head = 0.5 * np.exp(-beta * snap_times) * w.value(4.0 * xn2)
        rhs = head + 0.5 * w.value(k_scale * n0**2) \
            + 0.5 * beta * snap_times * w.value(k_scale * a_rm**2 / beta**2)
        lhs = w.value(np.sum(np.asarray(fields) ** 2, axis=-1))
        margin = rhs * slack - lhs
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    return MomentBoundReport(w.kind, int(np.sum(~(margin >= 0))),
                             float(np.min(margin)), int(np.sum(~finite)),
                             int(margin.size))

