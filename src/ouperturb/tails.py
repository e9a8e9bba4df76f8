"""Tail tables and uniform-integrability certificates.

From stopped-exit frequencies a nonincreasing tail function ``p(y)`` is
tabulated; increasing unbounded weights with finite ``int Psi'(y) p(y) dy``
then certify uniform integrability of the density family.  Three
constructions ship: a sum of unit plateau bumps anchored at knots where the
tail drops below ``1/k^2``, a mollified envelope ``1/sqrt(p)``, and the
closed form ``exp((log(1+y))^delta)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest knot coordinate at which unit spacing is still resolved by float64
FLOAT_SANE_Y = 1e15


def wilson_interval(successes: int, n: int):
    """Wilson score interval for a binomial proportion, at 95% (z = 1.96)."""
    if n == 0:
        return 0.0, 1.0
    z = 1.96
    ph = successes / n
    z2 = z * z
    den = 1.0 + z2 / n
    center = (ph + z2 / (2 * n)) / den
    half = z * np.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def level_y(a: float, inv_sigma_norm: float, horizon: float):
    """``exp(5 (a |s^-1|)^2 T)``, the tail abscissa of the drift bound ``a``."""
    return np.exp(5.0 * (a * inv_sigma_norm) ** 2 * horizon)


def admissible_y_start(bound_fn, inv_sigma_norm: float, horizon: float) -> float:
    """Smallest admissible tail abscissa, :func:`level_y` at ``a(0)``."""
    a0 = float(np.asarray(bound_fn(np.asarray(0.0))))
    return float(level_y(a0, inv_sigma_norm, horizon))


def level_for_y(y, bound_fn, inv_sigma_norm: float, horizon: float,
                max_level: int):
    """Largest integer level with radial envelope below the log threshold.

    Returns ``(levels, capped)``; levels are capped at ``max_level`` (the
    largest level with computed exit statistics), which only enlarges the
    tabulated tail and is therefore conservative.
    """
    y = np.asarray(y, dtype=float)
    thr = np.sqrt(np.log(y) / (5.0 * horizon)) / inv_sigma_norm
    ladder = np.asarray(bound_fn(np.arange(max_level + 2, dtype=float)))
    if np.any(ladder[0] >= thr):
        raise ValueError("tail grid starts below the admissible threshold")
    # n(y) = max n with ladder[n] < thr; searchsorted on a nondecreasing ladder
    n = np.searchsorted(ladder, thr, side="left") - 1
    capped = n > max_level
    return np.minimum(n, max_level).astype(int), bool(np.any(capped))


@dataclass
class TailTable:
    y: np.ndarray
    level: np.ndarray
    p: np.ndarray             # min(1, 1/y + exit frequency at level(y))
    p_rearranged: np.ndarray  # nonincreasing rearrangement (running minimum)
    p_upper: np.ndarray       # Wilson-upper variant, for conservative envelopes
    capped: bool


def tail_table(y_grid, exit_counts, n_paths: int, levels, bound_fn,
               inv_sigma_norm: float, horizon: float) -> TailTable:
    """Tabulate the tail function from per-level exit counts.

    ``exit_counts[i]`` counts paths whose threshold reached ``levels[i]``
    strictly before the horizon.  ``levels`` must be the contiguous integer
    ladder ``0..max``.
    """
    levels = [int(v) for v in levels]
    if levels != list(range(len(levels))):
        raise ValueError("tail table needs the contiguous level ladder 0..max")
    y = np.asarray(y_grid, dtype=float)
    if y.size == 0:
        raise ValueError("empty tail grid")
    n_of_y, capped = level_for_y(y, bound_fn, inv_sigma_norm, horizon,
                                 len(levels) - 1)
    freq = np.asarray(exit_counts, dtype=float) / max(n_paths, 1)
    hi = np.array([wilson_interval(int(c), n_paths)[1] for c in exit_counts])
    p = np.minimum(1.0, 1.0 / y + freq[n_of_y])
    p_up = np.minimum(1.0, 1.0 / y + hi[n_of_y])
    return TailTable(y, n_of_y, p, np.minimum.accumulate(p),
                     np.minimum.accumulate(p_up), capped)


# ---------------------------------------------------------------------------
# integrability weights


class UIWeight:
    """Increasing weight with a derivative; the uniform-integrability probe."""

    def value(self, y):
        raise NotImplementedError

    def deriv(self, y):
        raise NotImplementedError

    def value_from_log(self, log_y):
        """Evaluate at ``exp(log_y)``; overridden where a log form avoids
        overflow for exponents beyond float range."""
        with np.errstate(over="ignore"):
            return self.value(np.exp(np.asarray(log_y, dtype=float)))


@dataclass(frozen=True)
class ClosedFormWeight(UIWeight):
    """``Psi(y) = exp((log(1+y))**delta)`` for ``0 < delta <= 1``.

    Unbounded and increasing with ``Psi(0) = 1``; at ``delta = 1`` it reduces
    to ``1 + y``.  The derivative is unbounded at zero when ``delta < 1``.
    """

    delta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(np.log1p(y) ** self.delta)

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            lead = self.delta * np.log1p(y) ** (self.delta - 1.0) / (1.0 + y)
        return self.value(y) * lead

    def value_from_log(self, log_y):
        # log(1 + e^l) = logaddexp(0, l) stays finite for any exponent
        log_y = np.asarray(log_y, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(np.logaddexp(0.0, log_y) ** self.delta)


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_integral(u):
    # integral of the cubic ramp from 0, equals 1/2 at u = 1
    u = np.clip(u, 0.0, 1.0)
    return u**3 - 0.5 * u**4


@dataclass(frozen=True)
class BumpSumWeight(UIWeight):
    """Integral of a sum of unit plateau bumps supported on ``[y_k, y_k+3]``.

    Each bump ramps up on ``[y_k, y_k+1]``, sits at one on ``[y_k+1, y_k+2]``
    and ramps down on ``[y_k+2, y_k+3]``; each contributes mass 2 to the
    integral, so the weight is increasing, continuous and unbounded as knots
    accumulate.  :func:`check_weight_integral` bounds its integral by
    :attr:`series_bound`.
    """

    knots: tuple

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for yk in self.knots:
            u = y - yk
            out += np.where((u > 0) & (u < 1), _smoothstep(u), 0.0)
            out += np.where((u >= 1) & (u <= 2), 1.0, 0.0)
            out += np.where((u > 2) & (u < 3), _smoothstep(3.0 - u), 0.0)
        return out

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for yk in self.knots:
            u = y - yk
            out += _smoothstep_integral(np.clip(u, 0.0, 1.0))
            out += np.clip(u - 1.0, 0.0, 1.0)
            out += 0.5 - _smoothstep_integral(np.clip(3.0 - u, 0.0, 1.0))
        return out

    @property
    def series_bound(self) -> float:
        """``sum 3/k^2`` over the knots: bump ``k`` has ``Psi' <= 1`` on a
        support of length 3 where ``p <= 1/k^2``."""
        return sum(3.0 / (i + 1) ** 2 for i in range(len(self.knots)))


def build_bump_weight(p_y, p_vals, max_knots: int = 64) -> BumpSumWeight:
    """Greedy knot placement: smallest tabulated ``y`` with ``p <= 1/k^2``,
    spaced at least 3 apart.

    The construction stops at the first ``k`` whose ``1/k^2`` the table never
    drops to, at the first knot whose support would leave the float-sane
    range, or after ``max_knots`` knots; ``knots`` says where it stopped.
    """
    p_y = np.asarray(p_y, dtype=float)
    p_vals = np.asarray(p_vals, dtype=float)
    knots = []
    prev = -np.inf
    for k in range(1, max_knots + 1):
        ok = np.nonzero(p_vals <= 1.0 / k**2)[0]
        if ok.size == 0:
            break
        yk = max(float(p_y[ok[0]]), prev + 3.0)
        if yk + 3.0 > FLOAT_SANE_Y or yk + 3.0 == yk:
            break
        knots.append(yk)
        prev = yk
    return BumpSumWeight(tuple(knots))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_MOLLIFIER_NORM = 35.0 / 32.0  # unit mass for (1 - r^2)^3 on [-1, 1]


def _mollifier(r):
    r = np.asarray(r, dtype=float)
    return np.where(np.abs(r) < 1.0, _MOLLIFIER_NORM * (1.0 - r**2) ** 3, 0.0)


def _mollifier_deriv(r):
    r = np.asarray(r, dtype=float)
    return np.where(np.abs(r) < 1.0, -6.0 * _MOLLIFIER_NORM * r * (1.0 - r**2) ** 2,
                    0.0)


@dataclass(frozen=True, eq=False)
class TabulatedTail:
    """Nonincreasing interpolant of a tail table, extended by constants."""

    y: np.ndarray
    p: np.ndarray

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.interp(s, self.y, self.p, left=self.p[0], right=self.p[-1])


@dataclass(frozen=True)
class MollifiedWeight(UIWeight):
    """Smoothed envelope ``Psi_delta(y) = int (1/sqrt(p(s - delta))) m((s-y)/delta) ds/delta``.

    Evaluated with a fixed 64-node Gauss-Legendre rule after substituting
    ``s = y + delta*u``; the derivative differentiates the kernel, so no
    derivative of the tail is needed.
    """

    tail: TabulatedTail
    delta: float = 1e-2

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    def _q(self, s):
        return 1.0 / np.sqrt(self.tail(s))

    def value(self, y):
        y = np.asarray(y, dtype=float)
        s = y[..., None] + self.delta * (_GL_NODES - 1.0)
        return np.sum(self._q(s) * _mollifier(_GL_NODES) * _GL_WEIGHTS, axis=-1)

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        s = y[..., None] + self.delta * (_GL_NODES - 1.0)
        kern = -_mollifier_deriv(_GL_NODES) / self.delta
        return np.sum(self._q(s) * kern * _GL_WEIGHTS, axis=-1)


@dataclass(frozen=True)
class EnvelopeWeight(UIWeight):
    """Un-mollified envelope ``Psi(y) = 1/sqrt(p(y))`` over a tabulated tail."""

    tail: TabulatedTail

    def value(self, y):
        return 1.0 / np.sqrt(self.tail(y))

    def deriv(self, y):
        """Central difference with step ``1e-6 * (1 + |y|)``, one-sided at 0."""
        y = np.asarray(y, dtype=float)
        h = 1e-6 * (1.0 + np.abs(y))
        return (self.value(y + h) - self.value(np.maximum(y - h, 0.0))) / \
            (y + h - np.maximum(y - h, 0.0))


@dataclass
class IntegralReport:
    value: float
    bound: float
    tail_remainder: float
    margin: float  # the verdict's slacked bound minus the value, or -inf

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0)


def check_weight_integral(weight: UIWeight, p_fn, y_max: float) -> IntegralReport:
    """Certify finiteness of ``int Psi'(y) p(y) dy`` up to ``y_max``.

    The weight's type picks the rule.  A :class:`BumpSumWeight` is integrated
    per bump with the Gauss rule (a log grid misses unit-width plateaus at
    large ``y``) and bounded by its ``series_bound`` up to a 1e-9 relative
    slack.  Any other weight gets the trapezoid rule on 512 linear nodes below
    1, then 20000 log-spaced ones, and the envelope bound ``sqrt(p(0))`` up to
    a 1e-3 slack plus the remainder ``sqrt(p(y_max))``.  A non-finite
    integral (NaN integrands are kept) has margin ``-inf`` and fails.
    """
    remainder = float(np.sqrt(np.asarray(p_fn(np.asarray(y_max)))))
    if isinstance(weight, BumpSumWeight):
        val = 0.0
        for yk in weight.knots:
            if yk >= y_max:
                break
            hi = min(yk + 3.0, y_max)
            mid = 0.5 * (yk + hi)
            half = 0.5 * (hi - yk)
            s = mid + half * _GL_NODES
            val += float(np.sum(weight.deriv(s) * np.asarray(p_fn(s))
                                * _GL_WEIGHTS) * half)
        bound = weight.series_bound
        slacked = bound * (1.0 + 1e-9)
    else:
        grid = np.concatenate([np.linspace(1e-9, 1.0, 512, endpoint=False),
                               np.geomspace(1.0, y_max, 20000)])
        f = weight.deriv(grid) * np.asarray(p_fn(grid))
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        val = float(trapezoid(f, grid))
        bound = float(np.sqrt(np.asarray(p_fn(np.asarray(0.0)))))
        slacked = bound * (1.0 + 1e-3) + remainder
    return IntegralReport(val, float(bound), remainder,
                          slacked - val if np.isfinite(val) else -np.inf)


# ---------------------------------------------------------------------------
# centered-path tail and the nested-inverse admissibility chain


def p0_from_counts(s_grid, counts, n_paths: int) -> TabulatedTail:
    """``p0(s) = max over nodes of P(|centered state| > s)`` from node counts,
    tabulated on the s-grid."""
    counts = np.asarray(counts, dtype=float)
    return TabulatedTail(np.asarray(s_grid, dtype=float),
                         counts.max(axis=0) / max(n_paths, 1))


@dataclass
class ChainFitReport:
    c1: float
    c2: float
    fraction_held: float
    worst_margin: float


def admissibility_chain_fit(p0: TabulatedTail, bound_inverse, weight: UIWeight,
                            y_grid) -> ChainFitReport:
    """Fit constants making ``Psi(y) < 1/sqrt(p0(C1 a^-1(C2 a^-1(sqrt(log(C3+y))))))``.

    ``bound_inverse`` inverts the radial envelope.  ``C3 = 1``, and ``C1``,
    ``C2`` range over 25 log-spaced values in ``[0.05, 20]`` each.  The
    constants are a best-fit report (existence only); the fit maximizes the
    fraction of the grid where the chain holds, then the worst log-margin.
    """
    y = np.asarray(y_grid, dtype=float)
    psi_vals = weight.value(y)
    best = None
    c_grid = np.geomspace(0.05, 20.0, 25)
    for c1 in c_grid:
        for c2 in c_grid:
            s = c1 * np.asarray(bound_inverse(c2 * np.asarray(
                bound_inverse(np.sqrt(np.log(1.0 + y))))))
            rhs = 1.0 / np.sqrt(np.maximum(p0(s), 1e-300))
            with np.errstate(divide="ignore"):
                margin = np.log(rhs) - np.log(psi_vals)
            frac = float(np.mean(margin > 0))
            worst = float(np.min(margin))
            key = (frac, worst)
            if best is None or key > best[0]:
                best = (key, (float(c1), float(c2)))
    (frac, worst), (c1, c2) = best
    return ChainFitReport(c1, c2, frac, worst)
