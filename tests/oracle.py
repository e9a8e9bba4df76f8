"""Per-path reference implementations that the streaming engine is tested against.

Each function here works on one stored path and recomputes, in the plainest
form, a quantity that ``ouperturb.engine.run_ensemble`` accumulates in its
streaming pass.  The package itself never imports this module.

Splitting integrator for the regularized random evolution equation.  Per
step: exact linear flow, then an explicit drift increment evaluated at the
end point.  The regularized drift is globally Lipschitz with constant at
most ``2/alpha``, and it is also ``alpha``-cocoercive, so the explicit step
is nonexpansive whenever ``dt <= 2*alpha``; we enforce the stricter rule
``dt <= alpha/8``.

Also houses the node-wise transient-bound checks and the threshold stopping
times.  Two variants of the transient envelope are tracked throughout:

* ``half``: coefficient 1/2 on the forcing integral (the stated form);
* ``full``: coefficient 1 (the sharp form; attained by aligned forcing).

The ``half`` form is false: monotonicity gives the ``full`` form, and an l1
drift with aligned forcing attains it, so the ``half`` form fails on that
path (proof and counterexample in notes/decisions.md, section 1).  Both
margins are always reported.

Girsanov exponents use left-point (non-anticipating) sums along the stored
path; the weighted moment bound is checked node by node along one solution.

The weak-limit gap matrix is kept here in its plain loop form, one
projection per (window, path subset, time mode).

Also here, because the package does not need them: the bounded
regularization of the linear generator (the doubly-regularized reference),
the sampled dissipativity check of a drift, and the identity probe weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ouperturb.drifts import Drift, colsum, norm
from ouperturb.model import GalerkinModel
from ouperturb.ou import PathGrid, SamplePath, sample_ou_block
from ouperturb.pseudoweak import GapMatrix, TestMeasureGrid, compress
from ouperturb.tails import UIWeight
from ouperturb.weights import MomentBoundReport, WeightFunction

# ---------------------------------------------------------------------------
# stored paths


def sample_ou_path(model: GalerkinModel, grid: PathGrid, master_seed: int,
                   path_index: int = 0) -> SamplePath:
    """Sample one path, exact in distribution at every node."""
    w0, dW = sample_ou_block(model, grid, master_seed, [path_index])
    return SamplePath(grid, model.x0, w0[0], dW[0], model.eigenvalues.copy(),
                      (master_seed, path_index))


def zero_noise_path(model: GalerkinModel, grid: PathGrid) -> SamplePath:
    """Deterministic-flow path: zero noise, so ``w = exp(tA) x0`` exactly."""
    d = model.dim
    return SamplePath(grid, model.x0, np.zeros((grid.n_steps + 1, d)),
                      np.zeros((grid.n_steps, d)), model.eigenvalues.copy(),
                      ("zero-noise",))


def w0_norms(path: SamplePath) -> np.ndarray:
    """Node-wise norm of the centered path (started at zero)."""
    return np.linalg.norm(path.w0, axis=1)


def w0_running_max(path: SamplePath) -> np.ndarray:
    """Running maximum of :func:`w0_norms`."""
    return np.maximum.accumulate(w0_norms(path))


def inject(grid: PathGrid, *, x0, w0, dW=None, eigenvalues=None,
           seed_tag=("injected",)) -> SamplePath:
    """Build a path from explicit arrays."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    w0 = np.asarray(w0, dtype=float)
    d = w0.shape[1]
    if dW is None:
        dW = np.zeros((grid.n_steps, d))
    if eigenvalues is None:
        eigenvalues = np.full(d, -1.0)
    return SamplePath(grid, x0, w0, np.asarray(dW, dtype=float),
                      np.asarray(eigenvalues, dtype=float), seed_tag)


# ---------------------------------------------------------------------------
# the bounded regularization of the linear generator


def yosida_eigenvalues(model: GalerkinModel, lambda_y: float) -> np.ndarray:
    """Eigenvalues of the bounded regularization of the generator.

    Mode ``i`` maps to ``lambda * lam_i / (lambda - lam_i)``; these converge to
    ``lam_i`` as ``lambda`` grows and stay below ``-lambda*beta/(lambda+beta)``.
    """
    if lambda_y < 1:
        raise ValueError("regularization parameter must satisfy lambda >= 1")
    lam = model.eigenvalues
    return lambda_y * lam / (lambda_y - lam)


def yosida_linear(model: GalerkinModel, lambda_y: float, x: np.ndarray) -> np.ndarray:
    """Apply the bounded regularization of the generator to ``x``."""
    return yosida_eigenvalues(model, lambda_y) * x


def regularized_beta(model: GalerkinModel, lambda_y: float | None) -> float:
    """Dissipativity constant of the regularized generator.

    The quadratic form of the regularized generator is dominated by
    ``-lambda*beta/(lambda+beta) |x|^2``; at ``lambda = None`` (no
    regularization) the constant is ``beta`` itself.
    """
    if lambda_y is None:
        return model.beta
    return lambda_y * model.beta / (lambda_y + model.beta)


def resolvent_linear(model: GalerkinModel, lambda_y: float, x: np.ndarray) -> np.ndarray:
    """Resolvent of the generator at ``lambda``: mode ``i`` scaled by ``1/(lambda - lam_i)``."""
    if lambda_y <= 0:
        raise ValueError("resolvent parameter must be positive")
    return x / (lambda_y - model.eigenvalues)


# ---------------------------------------------------------------------------
# regularized integration and the transient bounds


def _check_dt(alpha: float, dt: float):
    if dt > alpha / 8.0 * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt:g} too large for alpha={alpha:g}; need dt <= {alpha / 8.0:g}")


@dataclass(eq=False)
class RegularizedSolution:
    """Trajectory of the regularized state on the source path's grid."""

    alpha: float
    lambda_y: float | None
    z: np.ndarray                # (N+1, d)
    source: SamplePath
    x_start: np.ndarray

    @property
    def x_path(self) -> np.ndarray:
        """Perturbed state: regularized component plus the centered noise path."""
        return self.z + self.source.w0


def integrate_Z(model: GalerkinModel, drift: Drift, alpha: float,
                ou_path: SamplePath, x0=None,
                lambda_y: float | None = None) -> RegularizedSolution:
    """Integrate the regularized equation along one noise realization."""
    x0 = model.x0 if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    times, w0 = ou_path.grid.times, ou_path.w0
    dt = float(times[1] - times[0])
    _check_dt(alpha, dt)
    if lambda_y is None:
        flow = np.exp(model.eigenvalues * dt)
    else:
        flow = np.exp(yosida_eigenvalues(model, lambda_y) * dt)
    z = np.empty_like(w0)
    z[0] = x0
    for k in range(times.size - 1):
        zp = flow * z[k]
        z[k + 1] = zp + dt * drift.yosida(times[k + 1], alpha, zp + w0[k + 1])
        if not np.all(np.isfinite(z[k + 1])):
            raise RuntimeError(f"integration overflow/NaN at step {k + 1}")
    return RegularizedSolution(alpha, lambda_y, z, ou_path, x0)


def exp_decay_quadrature(values: np.ndarray, beta: float, dt: float) -> np.ndarray:
    """Trapezoid quadrature of ``int_0^t exp(-beta (t-s)) f(s) ds`` on the grid.

    ``values`` holds ``f`` at the nodes (leading axis = time); the recursion
    keeps the cost linear in the number of nodes.
    """
    e = np.exp(-beta * dt)
    out = np.zeros_like(values)
    for k in range(1, values.shape[0]):
        out[k] = e * out[k - 1] + 0.5 * dt * (e * values[k - 1] + values[k])
    return out


@dataclass
class BoundCheck:
    name: str
    violations: int
    worst_margin: float        # min over nodes of rhs*slack - lhs (negative = violated)
    n_nodes: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class PathwiseBoundReport:
    z_half: BoundCheck
    z_full: BoundCheck
    x_full: BoundCheck
    gronwall_sq: BoundCheck
    slack: float

    def all_passed(self, include_half=False) -> bool:
        checks = [self.z_full, self.x_full, self.gronwall_sq]
        if include_half:
            checks.append(self.z_half)
        return all(c.passed for c in checks)


def transient_envelopes(model: GalerkinModel, drift: Drift, path: SamplePath,
                        x_start, lambda_y=None):
    """Node-wise right sides of the transient bounds.

    Returns ``(rhs_half, rhs_full, rhs_x, rhs_sq)`` where the first three
    bound the state norm and the last bounds the squared regularized
    component (identity-weight energy inequality).
    """
    beta = regularized_beta(model, lambda_y)
    times = path.grid.times
    dt = path.grid.dt
    a_vals = drift.bound(w0_norms(path))
    integ = exp_decay_quadrature(a_vals, beta, dt)
    integ_sq = exp_decay_quadrature(a_vals**2, beta, dt)
    xn = float(np.linalg.norm(x_start))
    decay = np.exp(-beta * times)
    rhs_half = xn * decay + 0.5 * integ
    rhs_full = xn * decay + integ
    rhs_x = rhs_full + w0_norms(path)
    rhs_sq = xn**2 * decay + integ_sq / beta
    return rhs_half, rhs_full, rhs_x, rhs_sq


def check_pathwise_bound(solution: RegularizedSolution, model: GalerkinModel,
                         drift: Drift, slack_mult: float = 10.0) -> PathwiseBoundReport:
    """Verify the transient bounds at every node of one solution."""
    path = solution.source
    dt = path.grid.dt
    slack = 1.0 + slack_mult * dt
    rhs_half, rhs_full, rhs_x, rhs_sq = transient_envelopes(
        model, drift, path, solution.x_start, solution.lambda_y)
    zn = np.linalg.norm(solution.z, axis=1)
    xn = np.linalg.norm(solution.x_path, axis=1)

    def mk(name, lhs, rhs):
        margin = rhs * slack - lhs
        return BoundCheck(name, int(np.sum(margin < 0)), float(np.min(margin)),
                          lhs.size)

    return PathwiseBoundReport(
        z_half=mk("z_half", zn, rhs_half),
        z_full=mk("z_full", zn, rhs_full),
        x_full=mk("x_full", xn, rhs_x),
        gronwall_sq=mk("gronwall_sq", zn**2, rhs_sq),
        slack=slack,
    )


@dataclass
class StoppingRecord:
    level: float
    tau: float
    hit: bool
    cert_violations: int = 0      # nodes t <= tau with |X| > level*slack
    cert_violations_raw: int = 0  # same without slack
    z_star_form: str = "half"


def threshold_series(model: GalerkinModel, drift: Drift, path: SamplePath,
                     x_start, z_star_form: str = "half") -> np.ndarray:
    """The adapted threshold: transient envelope + mean decay + state norm."""
    rhs_half, rhs_full, _, _ = transient_envelopes(model, drift, path, x_start)
    z_star = rhs_half if z_star_form == "half" else rhs_full
    mean_norm = np.linalg.norm(path.mean_path, axis=1)
    return z_star + mean_norm + np.linalg.norm(path.w, axis=1)


def stopping_time(solution: RegularizedSolution, model: GalerkinModel,
                  drift: Drift, level: float, z_star_form: str = "half",
                  slack_mult: float = 10.0) -> StoppingRecord:
    """First grid node where the threshold reaches ``level`` (horizon if never).

    Also certifies on the same path that the perturbed state norm stays at or
    below the level up to the stopping time, with and without the
    discretization slack.
    """
    path = solution.source
    times = path.grid.times
    expr = threshold_series(model, drift, path, solution.x_start, z_star_form)
    hits = np.nonzero(expr >= level)[0]
    hit = hits.size > 0
    tau = float(times[hits[0]]) if hit else float(path.grid.horizon)
    xn = np.linalg.norm(solution.x_path, axis=1)
    active = times <= tau
    slack = 1.0 + slack_mult * path.grid.dt
    cert = int(np.sum(active & (xn > level * slack)))
    cert_raw = int(np.sum(active & (xn > level)))
    return StoppingRecord(level, tau, hit, cert, cert_raw, z_star_form)


# ---------------------------------------------------------------------------
# Girsanov exponents


def _cutoff(times: np.ndarray, t_end: float | None) -> int:
    if t_end is None:
        return times.size - 1
    k = int(np.searchsorted(times, t_end * (1 + 1e-12), side="right") - 1)
    if not np.isclose(times[k], t_end, rtol=1e-9, atol=1e-12):
        raise ValueError(f"t_end={t_end} is not a grid node")
    return k


def zeta_parts(ou_path: SamplePath, drift: Drift, alpha: float,
               model: GalerkinModel, t_end: float | None = None):
    """Martingale and quadratic parts of the exponent along the source path.

    Left-point sums over steps ending at or before ``t_end``:
    ``mart = sum <s^-1 F_alpha(t_k, w_k), dW_k>`` and
    ``quad = sum |s^-1 F_alpha(t_k, w_k)|^2 dt``.
    """
    times = ou_path.grid.times
    K = _cutoff(times, t_end)
    w = ou_path.w[:K]
    v = drift.yosida(times[:K], alpha, w) / model.sigma_diag
    mart = float(np.sum(v * ou_path.dW[:K]))
    quad = float(np.sum(v * v) * ou_path.grid.dt)
    return mart, quad


def zeta(ou_path: SamplePath, drift: Drift, alpha: float, model: GalerkinModel,
         t_end: float | None = None) -> float:
    """Girsanov exponent: martingale part minus half the quadratic part."""
    mart, quad = zeta_parts(ou_path, drift, alpha, model, t_end)
    return mart - 0.5 * quad


def log_rho_tilde(solution: RegularizedSolution, drift: Drift, alpha: float,
                  model: GalerkinModel) -> float:
    """Log of the transformed density along the perturbed state path.

    Same martingale sum but evaluated on the perturbed states, with the
    quadratic part entering with a *plus* sign.
    """
    path = solution.source
    times = path.grid.times
    x = solution.x_path[:-1]
    u = drift.yosida(times[:-1], alpha, x) / model.sigma_diag
    mart = float(np.sum(u * path.dW))
    quad = float(np.sum(u * u) * path.grid.dt)
    return mart + 0.5 * quad


def rho_tilde(solution: RegularizedSolution, drift: Drift, alpha: float,
              model: GalerkinModel) -> float:
    """Transformed density; may overflow to ``inf`` (reported, not clipped)."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_rho_tilde(solution, drift, alpha, model)))


# ---------------------------------------------------------------------------
# the weighted moment bound


def noise_functionals(path, w: WeightFunction, beta: float, bound_fn,
                      k_scale: float = 2.0):
    """Node-wise random weights entering the moment bound.

    Returns ``(k_state, k_drift)``: the weight of ``k_scale`` times the
    squared centered norm, and the weight of
    ``k_scale * a(max-so-far)^2 / beta^2``.  ``k_scale=2`` is the stated
    form; ``k_scale=4`` is the derived form (the convexity split
    ``w(u+v) <= (w(2u)+w(2v))/2`` applies to ``|X|^2 <= 2|Z|^2 + 2|W0|^2``,
    which doubles the arguments once more).  Overflowing values are reported
    through the third return (node indices), never clipped.
    """
    n0 = w0_norms(path)
    rm = w0_running_max(path)
    with np.errstate(over="ignore"):
        k_state = w.value(k_scale * n0**2)
        k_drift = w.value(k_scale * np.asarray(bound_fn(rm), dtype=float) ** 2
                          / beta**2)
    overflow = np.nonzero(~np.isfinite(k_state) | ~np.isfinite(k_drift))[0]
    return k_state, k_drift, overflow


def moment_bound_rhs(times, x_start, w: WeightFunction, beta: float,
                     k_state, k_drift):
    """Right side of the node-wise moment bound for the perturbed state."""
    xn2 = float(np.sum(np.asarray(x_start, dtype=float) ** 2))
    with np.errstate(over="ignore"):
        head = 0.5 * np.exp(-beta * times) * w.value(4.0 * xn2)
    return head + 0.5 * k_state + 0.5 * beta * times * k_drift


def check_moment_bound(solution, model, drift, w: WeightFunction,
                       slack_mult: float = 10.0,
                       k_scale: float = 2.0) -> MomentBoundReport:
    """Node-wise check of the weighted moment bound along one solution.

    ``k_scale=2`` checks the bound as stated; ``k_scale=4`` checks the
    derived variant whose convexity step is valid (see
    :func:`noise_functionals`).
    """
    path = solution.source
    times = path.grid.times
    slack = 1.0 + slack_mult * path.grid.dt
    k_state, k_drift, _ = noise_functionals(path, w, model.beta, drift.bound,
                                            k_scale)
    rhs = moment_bound_rhs(times, solution.x_start, w, model.beta, k_state, k_drift)
    xn2 = np.sum(solution.x_path**2, axis=1)
    with np.errstate(over="ignore"):
        lhs = w.value(xn2)
    with np.errstate(invalid="ignore"):
        margin = rhs * slack - lhs
    # fails closed, as the engine: only a margin >= 0 holds, so a left side
    # that overflows (margin -inf or NaN) is a violation
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    return MomentBoundReport(int(np.sum(~(margin >= 0))), float(np.min(margin)),
                             int(np.sum(~finite)))


# ---------------------------------------------------------------------------
# weak-limit gaps


def weak_gap(field_a: np.ndarray, field_b: np.ndarray,
             grid: TestMeasureGrid) -> GapMatrix:
    """Quadrature gaps ``|int_A <psi(Fa) - psi(Fb), h> dmu|`` over the family.

    Fields have shape ``(n_paths, n_nodes, d)``; the measure is
    ``dt x uniform(paths)``.  Clipped per-path scalar functionals are included
    alongside the bilinear ones.
    """
    diff = compress(field_a) - compress(field_b)         # (P, S, d)
    P = diff.shape[0]
    rows = []
    worst = 0.0
    for wname, wmask in grid.time_windows:
        for pname, pmask in grid.path_subsets:
            if not pmask.any():
                continue
            sub = diff[pmask]
            for mname, mvals in grid.time_modes:
                wv = grid.weights * mvals * wmask
                proj = np.einsum("k,pkj->pj", wv, sub) / grid.n_paths
                for j in grid.space_modes:
                    gap = abs(float(np.sum(proj[:, j])))
                    rows.append((f"{wname}|{pname}", f"{mname}*e{j}", gap))
                    worst = max(worst, gap)
    # clipped scalar functionals on the full window
    ca = compress(field_a)
    cb = compress(field_b)
    for mname, mvals in grid.time_modes:
        wv = grid.weights * mvals
        ga = np.einsum("k,pkj->pj", wv, ca)
        gb = np.einsum("k,pkj->pj", wv, cb)
        for j in grid.space_modes:
            for level in grid.clip_levels:
                da = np.clip(ga[:, j], -level, level)
                db = np.clip(gb[:, j], -level, level)
                gap = abs(float(np.mean(da - db)))
                rows.append(("all_t|all_p", f"{mname}*e{j}|clip{level:g}", gap))
                worst = max(worst, gap)
    return GapMatrix(rows, worst)


# ---------------------------------------------------------------------------
# dissipativity of a drift, and the identity probe weight


@dataclass
class DissipativityReport:
    max_monotone_gap: float
    lipschitz_ratio: dict
    n_pairs: int
    passed: bool


def check_dissipative(drift: Drift, seed: int, n_pairs: int, *, dim: int,
                      t_max: float = 1.0, scale: float = 3.0,
                      alphas=(1e-1, 1e-2, 1e-3)) -> DissipativityReport:
    """Sample pairs and report the worst monotonicity gap and Lipschitz ratios.

    The monotone gap ``<F0(t,x1)-F0(t,x2), x1-x2>`` must stay nonpositive and
    the regularized map must have difference quotients at most ``2/alpha``.
    A positive gap is reported in the result, not raised.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, t_max, size=n_pairs)
    x1 = scale * rng.standard_normal((n_pairs, dim))
    x2 = scale * rng.standard_normal((n_pairs, dim))
    gap = colsum((drift.minimal_section(t, x1) - drift.minimal_section(t, x2))
                 * (x1 - x2))
    max_gap = float(np.max(gap)) if n_pairs else 0.0
    ratios = {}
    denom = norm(x1 - x2)
    ok = denom > 1e-12
    for alpha in alphas:
        diff = norm(drift.yosida(t, alpha, x1) - drift.yosida(t, alpha, x2))
        ratio = np.divide(diff, denom, out=np.zeros_like(diff), where=ok)
        ratios[alpha] = float(np.max(ratio)) if n_pairs else 0.0
    tol = 1e-9
    passed = max_gap <= tol and all(v <= 2.0 / a * (1 + 1e-9) for a, v in ratios.items())
    return DissipativityReport(max_gap, ratios, n_pairs, passed)


@dataclass(frozen=True)
class IdentityWeight(UIWeight):
    """``Psi(y) = y``; not admissible as a certificate, used as a probe."""

    def value(self, y):
        return np.asarray(y, dtype=float).copy()

    def deriv(self, y):
        return np.ones_like(np.asarray(y, dtype=float))
