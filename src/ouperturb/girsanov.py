"""Density statistics of the change-of-measure exponents along simulated paths.

Each statistic reads the result of one streaming pass: its exponents
``log_rho`` and ``log_rho_tilde`` and its half-form stopping times
``tau[0]``.  Stochastic integrals use left-point (non-anticipating) sums,
so the discrete stochastic exponential along the unperturbed path is an
exact mean-one martingale at any step size.  Log-densities are kept in log
space and only exponentiated inside aggregations, behind overflow masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drifts import Drift
from .engine import EnsembleResult
from .model import GalerkinModel
from .ou import mean_stderr
from .tails import level_y


@dataclass
class MartingaleReport:
    mean: float
    stderr: float
    overflow: int

    @property
    def passed(self) -> bool:
        return self.overflow == 0 and abs(self.mean - 1.0) <= 4.0 * self.stderr + 1e-12

    @property
    def margin(self) -> float:
        """``4 - |mean - 1|/stderr``; with stderr 0, 4 on a mean within the
        verdict's 1e-12 floor of one.  Any other mean with stderr 0, an
        overflow or a non-finite statistic scores ``-inf``."""
        gap = abs(self.mean - 1.0)
        if self.overflow or not np.isfinite(gap + self.stderr) \
                or (self.stderr == 0 and gap > 1e-12):
            return -np.inf
        return 4.0 - gap / self.stderr if self.stderr > 0 else 4.0


def martingale_check(res: EnsembleResult, alpha_index: int = 0) -> MartingaleReport:
    """Sample mean of the density must sit within four standard errors of one;
    a non-finite density is counted in ``overflow`` and fails the report."""
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.exp(res.log_rho[alpha_index])
        return MartingaleReport(*mean_stderr(rho), int(np.sum(~np.isfinite(rho))))


@dataclass
class StoppedMomentReport:
    estimate: float
    stderr: float
    bound: float
    n_kept: int
    overflow: int

    @property
    def passed(self) -> bool:
        rel = self.stderr / self.estimate if self.estimate > 0 else 0.0
        return self.overflow == 0 and \
            self.estimate <= self.bound * (1.0 + 4.0 * rel) + 1e-12


def stopped_moment_bound(res: EnsembleResult, level: float,
                         model: GalerkinModel, drift: Drift,
                         alpha_index: int = 0) -> StoppedMomentReport:
    """Second moment of the transformed density on ``{tau_level >= T}``,
    ``T`` the horizon.

    Must stay below :func:`tails.level_y` at ``a(level)`` up to Monte Carlo
    error.  The exponential is only evaluated on the indicator set, where the
    exponent is bounded by construction; a non-finite value there fails.
    """
    li = list(res.tasks.tau_levels).index(level)
    keep = res.tau[0, li] >= res.grid.horizon - 1e-15
    vals = np.zeros(res.n_paths)
    overflow = 0
    if keep.any():
        with np.errstate(over="ignore"):
            ex = np.exp(2.0 * res.log_rho_tilde[alpha_index][keep])
        overflow = int(np.sum(~np.isfinite(ex)))
        vals[keep] = ex
    a_n = float(np.asarray(drift.bound(np.asarray(float(level)))))
    with np.errstate(over="ignore", invalid="ignore"):
        m, se = mean_stderr(vals)
        bound = float(level_y(a_n, model.inv_sigma_norm, model.horizon))
    return StoppedMomentReport(m, se, bound, int(np.sum(keep)), overflow)


@dataclass
class TwoRouteReport:
    route_source: float      # mean of rho * Psi(rho) on unperturbed paths
    stderr_source: float
    route_perturbed: float   # mean of Psi(rho_tilde) on perturbed paths
    stderr_perturbed: float
    overflow: int

    @property
    def combined_stderr(self) -> float:
        return float(np.hypot(self.stderr_source, self.stderr_perturbed))

    @property
    def passed(self) -> bool:
        # fails closed: a path left out of a route's mean fails the report
        return self.overflow == 0 and abs(self.route_source - self.route_perturbed) \
            <= 4.0 * self.combined_stderr + 1e-12


def entropy_statistic(res: EnsembleResult, weight,
                      alpha_index: int = 0) -> TwoRouteReport:
    """Two independent routes to the same expectation.

    Route one reweights by the density on the unperturbed ensemble; route two
    evaluates the weight of the transformed density on the perturbed
    trajectories of the same seed family.  Agreement within combined Monte
    Carlo error is the change-of-measure identity at work.  A non-finite
    value is left out of its route's mean and counted in ``overflow``.
    """
    lr = res.log_rho[alpha_index]
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = np.exp(lr) * np.asarray(weight.value_from_log(lr))
        r2 = np.asarray(weight.value_from_log(res.log_rho_tilde[alpha_index]))
    overflow = int(np.sum(~np.isfinite(r1)) + np.sum(~np.isfinite(r2)))
    m1, s1 = mean_stderr(r1[np.isfinite(r1)]) if np.isfinite(r1).any() else (np.inf, 0)
    m2, s2 = mean_stderr(r2[np.isfinite(r2)]) if np.isfinite(r2).any() else (np.inf, 0)
    return TwoRouteReport(m1, s1, m2, s2, overflow)


def entropy_stability(reports) -> float:
    """Max/min ratio of the reweighted statistic across the regularization sweep."""
    vals = [r.route_source for r in reports if np.isfinite(r.route_source)]
    if len(vals) < 2 or min(vals) <= 0:
        return np.inf
    return max(vals) / min(vals)
