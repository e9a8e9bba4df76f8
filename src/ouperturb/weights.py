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

SLACK_MULT = 10.0    # node-wise bounds allow their right side times 1 + SLACK_MULT*dt


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


def objective(w: WeightFunction, c: float, beta: float, B: float, u):
    """``w'(u)(c*sqrt(u) - beta*u) + B*w(u)``, the function
    :func:`estimate_constant` maximizes, with NaN read as ``-inf``."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = w.deriv(u) * (c * np.sqrt(u) - beta * u) + B * w.value(u)
    return np.where(np.isnan(f), -np.inf, f)


def estimate_constant(w: WeightFunction, c, beta, B):
    """Sharp constant dominating ``w'(u)(c*sqrt(u) - beta*u) + B*w(u)``.

    Requires ``0 < B < beta * ratio_limit`` (any positive ``B`` when the
    limit is infinite).  Dense grid search (4096 points) over an expanding
    bracket, one triple at a time, then golden-section refinement around the
    best cell.

    Scalar ``c``, ``beta``, ``B`` give one :class:`EstimateConstant`.  1-D
    arrays, broadcast together, give a list with one per element: the
    refinement then runs for all of them at once, each element stopping on
    its own, so every entry is bit-identical to the scalar call.
    """
    cs, betas, Bs = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (c, beta, B)))
    if cs.ndim > 1:
        raise ValueError("c, beta and B must be scalars or 1-D arrays")
    scalar = cs.ndim == 0
    cs, betas, Bs = (np.atleast_1d(v) for v in (cs, betas, Bs))
    L = w.ratio_limit
    n = cs.size
    grid_points = 4096
    lo, up, bracket, grid_max = (np.empty(n) for _ in range(4))
    for i in range(n):
        ci, bi, Bi = float(cs[i]), float(betas[i]), float(Bs[i])
        if ci < 0 or bi <= 0 or Bi <= 0:
            raise ValueError("need c >= 0, beta > 0, B > 0")
        if np.isfinite(L) and not Bi < bi * L:
            raise ValueError(f"need B < beta * {L} = {bi * L}, got B={Bi}")
        u0 = max(ci**2 / bi**2, ci**2 / (4.0 * (bi - Bi) ** 2)) if Bi < bi \
            else ci**2 / bi**2
        hi = max(u0, 1.0)
        for _ in range(200):
            grid = np.linspace(0.0, hi, grid_points)
            vals = objective(w, ci, bi, Bi, grid)
            k = int(np.argmax(vals))
            if k < grid_points - int(0.02 * grid_points) - 1:
                break
            hi *= 2.0
        else:
            raise RuntimeError("estimate constant bracket expansion failed")
        lo[i] = grid[max(k - 1, 0)]
        up[i] = grid[min(k + 1, grid_points - 1)]
        bracket[i] = hi
        grid_max[i] = np.max(vals)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = objective(w, cs, betas, Bs, x1)
    f2 = objective(w, cs, betas, Bs, x2)
    while True:
        live = b - a > 1e-12 * np.maximum(1.0, b)
        if not live.any():
            break
        left = live & (f1 >= f2)        # keep [a, x2]
        right = live & ~left            # keep [x1, b]
        b = np.where(left, x2, b)
        a = np.where(right, x1, a)
        x1, x2 = np.where(right, x2, x1), np.where(left, x1, x2)
        f1, f2 = np.where(right, f2, f1), np.where(left, f1, f2)
        x1 = np.where(left, b - invphi * (b - a), x1)
        x2 = np.where(right, a + invphi * (b - a), x2)
        f_new = objective(w, cs, betas, Bs, np.where(left, x1, x2))
        f1 = np.where(left, f_new, f1)
        f2 = np.where(right, f_new, f2)
    u_star = 0.5 * (a + b)
    f_star = objective(w, cs, betas, Bs, u_star)
    value = np.where(f_star > grid_max, f_star, grid_max)

    out = [EstimateConstant(float(value[i]), float(bracket[i]), float(u_star[i]),
                            *closed_form_constant(w, float(cs[i]), float(betas[i]),
                                                  float(Bs[i])))
           for i in range(n)]
    return out[0] if scalar else out


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
                                 bound_fn, dt: float,
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
    slack = 1.0 + SLACK_MULT * dt
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

