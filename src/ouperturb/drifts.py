"""Catalog of maximal dissipative drifts.

Each drift exposes these maps, all vectorized over states of shape
``(..., dim)`` with a time argument broadcastable to the leading axes:

* ``minimal_section(t, x)`` -- the least-norm element of the drift set;
* ``resolvent(t, alpha, x)`` -- the single-valued inverse of ``I - alpha*F``;
* ``yosida(t, alpha, x)``   -- ``(resolvent - identity) / alpha``, the
  globally Lipschitz regularization (constant at most ``2/alpha``);
* ``resolvent_warm(t, alpha, x)`` -- the same regularization in the
  factored form ``coef[..., None] * base`` that the step loop consumes, a
  pure function of its arguments, under the name ``perfbench/tracer.py``
  patches;
* ``bound(r)``              -- the increasing radial envelope ``a`` with
  ``|minimal_section(t, x)| <= a(|x|)``.

The catalog is closed under multiplication by a measurable time modulation
with values in ``[0, 1]``.

The radial drifts (:class:`RadialFamily`) scale their argument:
``resolvent(t, alpha, x) = (s/r) x`` with ``r = |x|`` and ``s`` the root of
one scalar norm equation, so their regularization is the scalar
``(s/r - 1)/alpha`` times ``x`` itself, and ``resolvent_warm`` returns that
scalar per state with ``base = x``, uncopied.  Every other kind returns
``coef = 1`` and ``base = yosida``.

For ``RadialDrift`` the norm equation is ``s + alpha_eff * g(s) * s = r``.
For growth power 2, the cubic drift of every shipped config, it is a cubic
in ``s`` and is solved in closed form (:func:`closed_radial_scale`), then
polished by one Newton step.  The solve fails closed: an element whose
polished residual misses ``|h| <= RESIDUAL_TOL * r`` goes back to the Newton
solve :func:`solve_radial_scale`, which starts cold at ``s = r`` and raises
:class:`DriftSolverError` naming the element if it cannot meet the contract
either.  Other powers use the Newton solve throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# every radial norm solve stops at |h| <= RESIDUAL_TOL * r, h its residual
RESIDUAL_TOL = 1e-13


class DriftSolverError(RuntimeError):
    """Scalar resolvent solve failed to converge (should never happen)."""


def colsum(x):
    """Sum over the last axis, adding its columns left to right.

    Every d-axis sum, norm and dot product of the stepping loop goes through
    this one fixed order.  On the short state axis it is several times faster
    than ``np.sum(x, axis=-1)``, and for fewer than 8 columns it is bitwise
    equal to it (numpy adds that few terms sequentially too).
    """
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def norm(x, out=None):
    """Euclidean norm over the last axis, summed by :func:`colsum`."""
    return np.sqrt(colsum(x * x), out=out)


# ---------------------------------------------------------------------------
# scalar helpers


@dataclass(frozen=True)
class RadialGrowth:
    """Power-law radial coefficient ``g(r) = coef * r**power``.

    ``power`` must be zero (constant coefficient) or at least one so that the
    derivative stays bounded near the origin; ``coef`` must be nonnegative so
    the induced drift is dissipative.
    """

    coef: float = 1.0
    power: float = 2.0

    def __post_init__(self):
        if self.coef < 0:
            raise ValueError("growth coefficient must be nonnegative")
        if self.power != 0 and self.power < 1:
            raise ValueError("growth power must be 0 or >= 1")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.power == 0:
            return np.full_like(r, self.coef)
        return self.coef * np.power(r, self.power)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        if self.power == 0:
            return np.zeros_like(r)
        return self.coef * self.power * np.power(r, self.power - 1.0)


def solve_radial_scale(growth: RadialGrowth, alpha_eff, r, max_iter=80):
    """Solve ``s + alpha_eff * g(s) * s = r`` for ``s >= 0``, elementwise.

    ``alpha_eff`` broadcasts against the norms ``r >= 0`` and the result has
    the broadcast shape.  The iteration starts cold at ``s = r``, at or above
    the root; the left side is increasing and convex in ``s``, so Newton
    steps from there decrease monotonically to the root: convergence is
    guaranteed.

    Each element stops on its own, at the first iterate whose residual
    ``h = s + alpha_eff * g(s) * s - r`` satisfies ``|h| <= RESIDUAL_TOL * r``.
    The stop is relative, so small norms are solved as accurately as large
    ones, and per element, so each value depends only on its own
    ``(r, alpha_eff)``, never on the other elements of the call.
    """
    shape = np.broadcast(r, alpha_eff).shape

    def flat(v):
        out = np.empty(shape)
        out[...] = v
        return out.ravel()

    ri, ai = flat(r), flat(alpha_eff)
    s = flat(r)
    live = np.arange(s.size)
    si = s
    for it in range(max_iter + 1):
        g = growth(si)
        h = si + ai * g * si - ri
        keep = ~(np.abs(h) <= RESIDUAL_TOL * ri)
        if not keep.all():
            s[live[~keep]] = si[~keep]
            live, si, ri, ai, g, h = (v[keep] for v in (live, si, ri, ai, g, h))
        if not live.size:
            break
        if it == max_iter:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = int(np.argmax(np.abs(h) / ri))
            raise DriftSolverError(
                f"radial resolvent Newton iteration did not converge in "
                f"{max_iter} steps ({live.size} of {s.size} elements left); "
                f"worst: alpha={ai[w]:.6g}, r={ri[w]:.6g}, "
                f"residual={h[w]:.6g}")
        hp = 1.0 + ai * (g + growth.deriv(si) * si)
        si = si - h / hp
        np.maximum(si, 0.0, out=si)
    return s.reshape(shape)


def closed_radial_scale(growth: RadialGrowth, alpha_eff, r):
    """Closed-form root of ``s + alpha_eff * g(s) * s = r`` for power 2.

    With ``a = alpha_eff * coef`` the equation is ``s**3 + p s - q = 0`` with
    ``p = 1/a``, ``q = r/a``.  Cardano's root is ``u - v`` with
    ``u = cbrt(q/2 + sqrt(q**2/4 + p**3/27))`` and ``v = p/(3u)``.  Since
    ``u**3 - v**3 = q``, it equals ``q / (u**2 + uv + v**2)``, which does not
    cancel as ``r -> 0`` (Blinn, "How to solve a cubic equation", IEEE CG&A
    2006-07; Press et al., Numerical Recipes, section 5.6).

    One Newton step polishes the root.  Returns ``s`` and its residual
    ``h = s + a s**3 - r`` after the polish, both of the broadcast shape.
    Where the formula breaks down -- ``a = 0``, or ``p**3`` overflowing at
    tiny ``a`` -- the result is NaN, and only the residual shows it:
    :func:`radial_scale` checks it.
    """
    a = np.multiply(alpha_eff, growth.coef)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = 1.0 / a
        q = r * p
        h = 0.5 * q
        u = np.cbrt(h + np.sqrt(h * h + p * p * p / 27.0))
        v = (p / 3.0) / u
        s = q / (u * u + v * (u + v))
        ag = a * (s * s)
        s = s - (s + ag * s - r) / (1.0 + 3.0 * ag)
        return s, s + a * (s * s) * s - r


def radial_scale(growth: RadialGrowth, alpha_eff, r):
    """Solve ``s + alpha_eff * g(s) * s = r`` with the contract
    ``|h| <= RESIDUAL_TOL * r``, the stop of :func:`solve_radial_scale`.

    Power 2 takes the closed form (:func:`closed_radial_scale`) and fails
    closed: an element whose polished residual misses the contract -- NaN
    included -- is solved again by :func:`solve_radial_scale`.  Other powers
    use that Newton solve throughout.  Each value depends only on its own
    ``(r, alpha_eff)``.
    """
    if growth.power != 2:
        return solve_radial_scale(growth, alpha_eff, r)
    s, h = closed_radial_scale(growth, alpha_eff, r)
    with np.errstate(invalid="ignore"):
        ok = np.abs(h) <= RESIDUAL_TOL * r
    if ok.all():
        return s
    s = np.array(s, dtype=float)
    miss = np.flatnonzero(~ok)
    s.reshape(-1)[miss] = solve_radial_scale(growth, *(
        np.broadcast_to(v, s.shape).reshape(-1)[miss] for v in (alpha_eff, r)))
    return s


@dataclass(frozen=True)
class Modulation:
    """Time factor with values in ``[0, 1]``.

    ``kind`` is ``"abs_sin"`` (``|sin t|``) or ``"piecewise"`` with knots
    ``times`` and ``values`` (right-open intervals, last value extends).
    """

    kind: str = "abs_sin"
    times: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("abs_sin", "piecewise"):
            raise ValueError(f"unknown modulation kind {self.kind!r}")
        if self.kind == "piecewise":
            if len(self.times) != len(self.values) or not self.times:
                raise ValueError("piecewise modulation needs matching knots and values")
            if any(not 0.0 <= v <= 1.0 for v in self.values):
                raise ValueError("modulation values must lie in [0, 1]")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "abs_sin":
            return np.abs(np.sin(t))
        idx = np.clip(np.searchsorted(np.asarray(self.times), t, side="right") - 1, 0, None)
        return np.asarray(self.values, dtype=float)[idx]


# ---------------------------------------------------------------------------
# drift catalog


class Drift:
    """Common surface of the drift catalog."""

    kind = "abstract"

    def minimal_section(self, t, x):
        raise NotImplementedError

    def resolvent(self, t, alpha, x):
        raise NotImplementedError

    def resolvent_warm(self, t, alpha, x):
        """Yosida regularization in factored form, for tight step loops.

        Returns ``(coef, base)`` with
        ``yosida(t, alpha, x) = coef[..., None] * base``, where ``coef`` has
        the leading shape of the broadcast of ``alpha`` (a column against the
        leading axes, as in :meth:`resolvent`) with ``x``.  ``t`` may be a
        scalar or an array broadcast against the leading axes as well, such
        as one time per row of a stack of states.  A step loop can then sum
        ``coef * colsum(base * other)`` and never build the regularization
        itself.  The result depends on ``(t, alpha, x)`` alone, and the
        resolvent behind ``coef`` is the one :meth:`resolvent` computes.

        This default returns ``coef = 1`` and ``base = yosida``;
        :class:`RadialFamily` returns a scalar per state and ``base = x``.
        """
        x = np.asarray(x, dtype=float)
        a = np.asarray(alpha, dtype=float)
        base = (self.resolvent(t, alpha, x) - x) / (a[..., None] if a.ndim else a)
        return np.ones(base.shape[:-1]), base

    def yosida(self, t, alpha, x):
        return (self.resolvent(t, alpha, x) - x) / alpha

    def bound(self, r):
        raise NotImplementedError

    def bound_name(self) -> str:
        raise NotImplementedError


class RadialFamily(Drift):
    """Drifts whose resolvent scales its argument, ``J = (s/r) x``.

    Here ``r = |x|`` and ``s = norm_solve(alpha, r)`` solves the drift's
    scalar norm equation.  The regularization is then ``(s/r - 1)/alpha``
    times ``x``, which :meth:`resolvent_warm` returns in that factored form.
    """

    def norm_solve(self, alpha, r):
        raise NotImplementedError

    def scale(self, alpha, x):
        """``s/r`` (0 at ``r = 0``), of the leading shape."""
        r = norm(x)
        s = self.norm_solve(alpha, r)
        return np.divide(s, r, out=np.zeros_like(s), where=r > 0)

    def resolvent(self, t, alpha, x):
        x = np.asarray(x, dtype=float)
        return self.scale(alpha, x)[..., None] * x

    def resolvent_warm(self, t, alpha, x):
        x = np.asarray(x, dtype=float)
        return (self.scale(alpha, x) - 1.0) / alpha, x


@dataclass(frozen=True)
class ZeroDrift(Drift):
    kind = "zero"

    def minimal_section(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def resolvent(self, t, alpha, x):
        return np.asarray(x, dtype=float).copy()

    def yosida(self, t, alpha, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def bound(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def bound_name(self):
        return "zero"


@dataclass(frozen=True)
class RadialDrift(RadialFamily):
    """``F(x) = -g(|x|) x`` for a nondecreasing radial coefficient ``g``.

    The gradient of a convex radial potential, hence single-valued and
    dissipative on the whole space.  Resolvent reduces to one scalar monotone
    equation on the norm, ``s + alpha * g(s) * s = |x|``, solved by
    :func:`radial_scale`: in closed form with one Newton polish for power 2,
    with a per-element fallback to the Newton solve where the polished
    residual misses its contract, and by the Newton solve alone for other
    powers.
    """

    growth: RadialGrowth = field(default_factory=RadialGrowth)
    kind = "radial"

    def minimal_section(self, t, x):
        x = np.asarray(x, dtype=float)
        return -self.growth(norm(x))[..., None] * x

    def norm_solve(self, alpha, r):
        return radial_scale(self.growth, alpha, r)

    def bound(self, r):
        r = np.asarray(r, dtype=float)
        return self.growth(r) * r

    def bound_name(self):
        return f"g(r)*r with g(r)={self.growth.coef}*r^{self.growth.power}"


@dataclass(frozen=True)
class L1SubgradientDrift(Drift):
    """Negative subgradient of the l1 norm, componentwise and multivalued at zeros.

    The least-norm selection is ``-sign`` with value 0 at 0; the resolvent is
    componentwise soft-thresholding at level ``alpha``.
    """

    dim: int = 1
    kind = "l1_subgradient"

    def minimal_section(self, t, x):
        return -np.sign(np.asarray(x, dtype=float))

    def resolvent(self, t, alpha, x):
        x = np.asarray(x, dtype=float)
        alpha = np.asarray(alpha, dtype=float)[..., None] if np.ndim(alpha) else alpha
        return np.sign(x) * np.maximum(np.abs(x) - alpha, 0.0)

    def bound(self, r):
        r = np.asarray(r, dtype=float)
        return np.full_like(r, np.sqrt(float(self.dim)))

    def bound_name(self):
        return f"sqrt(dim)={np.sqrt(float(self.dim)):.6g}"


@dataclass(frozen=True)
class SaturatingDrift(RadialFamily):
    """Bounded drift ``F(x) = -x / (eps + |x|)`` with unit radial envelope.

    The resolvent norm solves a quadratic, so no iteration is needed.
    """

    eps: float = 1.0
    kind = "saturating"

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("saturating drift needs eps > 0")

    def minimal_section(self, t, x):
        x = np.asarray(x, dtype=float)
        return -x / (self.eps + norm(x))[..., None]

    def norm_solve(self, alpha, r):
        # positive root of s^2 + s (eps + alpha - r) - r eps = 0, with alpha
        # broadcast against the norms
        b = r - self.eps - np.asarray(alpha, dtype=float)
        return 0.5 * (b + np.sqrt(b * b + 4.0 * self.eps * r))

    def bound(self, r):
        return np.ones_like(np.asarray(r, dtype=float))

    def bound_name(self):
        return "1"


@dataclass(frozen=True)
class TimeModulatedDrift(Drift):
    """``F(t, x) = m(t) * base(x)`` for a modulation ``m`` with values in [0, 1].

    The resolvent at time ``t`` is the base resolvent at the effective
    parameter ``alpha * m(t)``; at ``m(t) = 0`` it is the identity.  Over a
    radial base the factored regularization solves the norm equation at
    ``alpha * m(t)`` and divides by ``alpha`` itself.
    """

    base: Drift = field(default_factory=lambda: RadialDrift())
    modulation: Modulation = field(default_factory=Modulation)
    kind = "time_modulated"

    def _m(self, t, like):
        m = np.asarray(self.modulation(t), dtype=float)
        return np.broadcast_to(m, np.asarray(like).shape[:-1])

    def minimal_section(self, t, x):
        x = np.asarray(x, dtype=float)
        return self._m(t, x)[..., None] * self.base.minimal_section(t, x)

    def resolvent(self, t, alpha, x):
        x = np.asarray(x, dtype=float)
        return self.base.resolvent(t, alpha * self._m(t, x), x)

    def resolvent_warm(self, t, alpha, x):
        if not isinstance(self.base, RadialFamily):
            return super().resolvent_warm(t, alpha, x)
        x = np.asarray(x, dtype=float)
        return (self.base.scale(alpha * self._m(t, x), x) - 1.0) / alpha, x

    def bound(self, r):
        return self.base.bound(r)

    def bound_name(self):
        return self.base.bound_name()


def make_drift(kind: str, *, dim: int | None = None, **params) -> Drift:
    """Build a catalog drift from its config key and parameters."""
    if kind == "zero":
        return ZeroDrift()
    if kind == "radial":
        return RadialDrift(RadialGrowth(coef=params.get("coef", 1.0),
                                        power=params.get("power", 2.0)))
    if kind == "l1_subgradient":
        if dim is None:
            raise ValueError("l1_subgradient drift needs the state dimension")
        return L1SubgradientDrift(dim=dim)
    if kind == "saturating":
        return SaturatingDrift(eps=params.get("eps", 1.0))
    if kind == "time_modulated":
        base = make_drift(params["base_kind"], dim=dim,
                          **params.get("base_params", {}))
        mod = params.get("modulation", {"kind": "abs_sin"})
        modulation = Modulation(kind=mod.get("kind", "abs_sin"),
                                times=tuple(mod.get("times", ())),
                                values=tuple(mod.get("values", ())))
        return TimeModulatedDrift(base=base, modulation=modulation)
    raise ValueError(f"unknown drift kind {kind!r}")


def resolvent_residual(drift: Drift, t, alpha, x) -> np.ndarray:
    """A-posteriori resolvent residual ``|J - alpha*F0(J) - x|`` (per sample).

    For time-modulated drifts the minimal section already carries the time
    factor, so the same identity applies verbatim.
    """
    x = np.asarray(x, dtype=float)
    j = drift.resolvent(t, alpha, x)
    alpha_col = np.asarray(alpha, dtype=float)
    if alpha_col.ndim:
        alpha_col = alpha_col[..., None]
    return norm(j - alpha_col * drift.minimal_section(t, j) - x)
