"""Density statistics of the change-of-measure exponents along simulated paths.

Stochastic integrals use left-point (non-anticipating) sums, so the discrete
stochastic exponential along the unperturbed path is an exact mean-one
martingale at any step size.  Log-densities are kept in log space and only
exponentiated inside aggregations, behind overflow masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drifts import Drift
from .model import GalerkinModel


@dataclass(eq=False)
class DensityEnsemble:
    """Per-path density statistics for one drift at several regularizations."""

    alphas: tuple
    drift_id: dict
    model_id: dict
    n_paths: int
    master_seed: int
    log_rho: np.ndarray            # (A, P) exponent along unperturbed paths
    log_rho_tilde: np.ndarray      # (A, P) exponent along perturbed paths
    tau_levels: tuple = ()
    tau: np.ndarray | None = None       # (L, P) stopping times
    stopped_log_rho: np.ndarray | None = None  # (Ls, A, P) exponent frozen at tau
    stop_levels: tuple = ()
    horizon: float = 0.0

    def exit_counts(self) -> np.ndarray:
        """Per level: number of paths whose threshold hit strictly before T."""
        return np.sum(self.tau < self.horizon - 1e-15, axis=1).astype(int)


def _mean_stderr(vals: np.ndarray):
    m = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return m, se


@dataclass
class MartingaleReport:
    alpha: float
    mean: float
    stderr: float
    n_paths: int

    @property
    def passed(self) -> bool:
        return abs(self.mean - 1.0) <= 4.0 * self.stderr + 1e-12


def martingale_check(ens: DensityEnsemble, alpha_index: int = 0) -> MartingaleReport:
    """Sample mean of the density must sit within four standard errors of one."""
    with np.errstate(over="ignore"):
        rho = np.exp(ens.log_rho[alpha_index])
    m, se = _mean_stderr(rho)
    return MartingaleReport(ens.alphas[alpha_index], m, se, ens.n_paths)


@dataclass
class StoppedMomentReport:
    level: float
    alpha: float
    estimate: float
    stderr: float
    bound: float
    n_kept: int
    overflow: int

    @property
    def passed(self) -> bool:
        rel = self.stderr / self.estimate if self.estimate > 0 else 0.0
        return self.estimate <= self.bound * (1.0 + 4.0 * rel) + 1e-12


def stopped_moment_bound(ens: DensityEnsemble, level: float, model: GalerkinModel,
                         drift: Drift, alpha_index: int = 0) -> StoppedMomentReport:
    """Second moment of the transformed density on ``{tau_level >= T}``,
    ``T`` the horizon.

    Must stay below ``exp(5 (a(level) |s^-1|)^2 T)`` up to Monte Carlo error.
    The exponential is only evaluated on the indicator set, where the exponent
    is bounded by construction.
    """
    li = list(ens.tau_levels).index(level)
    keep = ens.tau[li] >= ens.horizon - 1e-15
    vals = np.zeros(ens.n_paths)
    overflow = 0
    if keep.any():
        with np.errstate(over="ignore"):
            ex = np.exp(2.0 * ens.log_rho_tilde[alpha_index][keep])
        overflow = int(np.sum(~np.isfinite(ex)))
        vals[keep] = ex
    m, se = _mean_stderr(vals)
    a_n = float(np.asarray(drift.bound(np.asarray(float(level)))))
    with np.errstate(over="ignore"):
        bound = float(np.exp(5.0 * (a_n * model.inv_sigma_norm) ** 2
                             * model.horizon))
    return StoppedMomentReport(level, ens.alphas[alpha_index], m, se, bound,
                               int(np.sum(keep)), overflow)


@dataclass
class TwoRouteReport:
    alpha: float
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
        return abs(self.route_source - self.route_perturbed) <= \
            4.0 * self.combined_stderr + 1e-12


def entropy_statistic(ens: DensityEnsemble, weight, alpha_index: int = 0) -> TwoRouteReport:
    """Two independent routes to the same expectation.

    Route one reweights by the density on the unperturbed ensemble; route two
    evaluates the weight of the transformed density on the perturbed
    trajectories of the same seed family.  Agreement within combined Monte
    Carlo error is the change-of-measure identity at work.
    """
    lr = ens.log_rho[alpha_index]
    with np.errstate(over="ignore"):
        r1 = np.exp(lr) * np.asarray(weight.value_from_log(lr))
        r2 = np.asarray(weight.value_from_log(ens.log_rho_tilde[alpha_index]))
    overflow = int(np.sum(~np.isfinite(r1)) + np.sum(~np.isfinite(r2)))
    m1, s1 = _mean_stderr(r1[np.isfinite(r1)]) if np.isfinite(r1).any() else (np.inf, 0)
    m2, s2 = _mean_stderr(r2[np.isfinite(r2)]) if np.isfinite(r2).any() else (np.inf, 0)
    return TwoRouteReport(ens.alphas[alpha_index], m1, s1, m2, s2, overflow)


def entropy_stability(reports) -> float:
    """Max/min ratio of the reweighted statistic across the regularization sweep."""
    vals = [r.route_source for r in reports if np.isfinite(r.route_source)]
    if len(vals) < 2 or min(vals) <= 0:
        return np.inf
    return max(vals) / min(vals)
