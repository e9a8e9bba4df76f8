"""Convex weight functions and the sharp drift-estimate constant.

The weight catalog consists of strictly increasing convex functions on
``[0, inf)`` whose ratio ``u w'(u) / w(u)`` has a limit in ``[1, inf]``:
powers (limit = exponent), the exponential (limit infinite), and
``u*log(1+u)`` (limit one).  The powers vanish at zero, which every
downstream formula tolerates.

``estimate_constant`` maximizes ``w'(u)(c*sqrt(u) - beta*u) + B*w(u)`` over
``u >= 0`` from the closed bracket of :func:`search_bracket`, valid only when
``B < beta``; for ``B >= beta`` (allowed when the ratio limit exceeds one) the
maximizer can sit far beyond it, so the bracket is expanded geometrically
until the maximum is interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drifts import norm

SLACK_MULT = 10.0    # node-wise bounds allow their right side times 1 + SLACK_MULT*dt
MOMENT_FORMS = {"stated": 2.0, "derived": 4.0}   # moment_rhs's k, in axis order


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
    def name(self) -> str:
        """The weight in check ids and file names: ``power<p>`` or the kind."""
        return f"power{self.p:g}" if self.kind == "power" else self.kind

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
            return self.p * np.power(u, self.p - 1.0)
        if self.kind == "exponential":
            with np.errstate(over="ignore"):
                return np.exp(u)
        return np.log1p(u) + u / (1.0 + u)


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


def search_bracket(c: float, beta: float, B: float) -> float:
    """The closed bracket ``max(c^2/beta^2, c^2/(4(beta-B)^2))`` of the
    maximizer of :func:`objective`, or ``c^2/beta^2`` when ``B >= beta``."""
    return max(c**2 / beta**2, c**2 / (4.0 * (beta - B) ** 2)) if B < beta \
        else c**2 / beta**2


def estimate_constant(w: WeightFunction, c, beta, B):
    """Sharp constant dominating ``w'(u)(c*sqrt(u) - beta*u) + B*w(u)``.

    Requires ``0 < B < beta * ratio_limit`` (any positive ``B`` when the
    limit is infinite).  Dense grid search (4096 points) over an expanding
    bracket, one triple at a time, then golden-section refinement around the
    best cell.

    ``c``, ``beta``, ``B`` are scalars or 1-D arrays, broadcast together; the
    result is a list with one :class:`EstimateConstant` per element (one for
    scalars).  The refinement runs for all elements at once, each stopping on
    its own, so every entry is bit-identical to the call on its triple alone.
    """
    cs, betas, Bs = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (c, beta, B)))
    if cs.ndim > 1:
        raise ValueError("c, beta and B must be scalars or 1-D arrays")
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
        hi = max(search_bracket(ci, bi, Bi), 1.0)
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

    return [EstimateConstant(float(value[i]), float(bracket[i]), float(u_star[i]),
                             *closed_form_constant(w, float(cs[i]), float(betas[i]),
                                                   float(Bs[i])))
            for i in range(n)]


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
    violations: int
    worst_margin: float
    overflow_nodes: int


def moment_rhs(w: WeightFunction, beta: float, t, xn: float, n2, ab2,
               k: float):
    """Weighted moment right side ``e^{-beta t} w(4 xn^2)/2 + w(k n2)/2 +
    beta t w(k ab2)/2``, ``n2 = |w0|^2``, ``ab2 = a(rm)^2/beta^2``, with the
    ``k`` of a form of :data:`MOMENT_FORMS`."""
    with np.errstate(over="ignore", invalid="ignore"):
        head = 0.5 * np.exp(-beta * t) * w.value(4.0 * xn * xn)
        return head + 0.5 * w.value(k * n2) + 0.5 * beta * t * w.value(k * ab2)


def check_moment_bound_on_fields(fields, w0_fields, runmax_fields, snap_times,
                                 x_start, w: WeightFunction, beta: float,
                                 bound_fn, dt: float,
                                 k_scale: float = 2.0) -> MomentBoundReport:
    """Node-wise moment bound on strided field snapshots.

    Used for weak-limit candidates, where only ``(paths, nodes, d)`` field
    arrays exist; running maxima are supplied from the full-resolution pass.
    The right side is :func:`moment_rhs`, as in the pass.

    Fails closed: a node holds only when its margin is ``>= 0``.  A NaN margin
    (a NaN field, or both sides overflowing) is a violation and makes the
    worst margin NaN; an overflowing left side against a finite right side
    gives ``-inf``, also a violation.  A right side that overflows alone
    holds.  Nodes with either side non-finite are counted as overflow.
    """
    slack = 1.0 + SLACK_MULT * dt
    xn = float(norm(np.asarray(x_start, dtype=float)))
    a_rm = np.asarray(bound_fn(runmax_fields), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = moment_rhs(w, beta, snap_times, xn, norm(w0_fields) ** 2,
                         a_rm**2 / beta**2, k_scale)
        lhs = w.value(norm(np.asarray(fields)) ** 2)
        margin = rhs * slack - lhs
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    return MomentBoundReport(int(np.sum(~(margin >= 0))), float(np.min(margin)),
                             int(np.sum(~finite)))
