"""Exact sampling of the linear (Ornstein-Uhlenbeck) process.

Transitions are exact in distribution per mode.  Each step draws the raw
Wiener increment and the stochastic-convolution increment *jointly* from
their closed-form 2x2 Gaussian covariance, so the stored Wiener increments
are consistent with the states for later change-of-measure integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import GalerkinModel, semigroup_apply


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid ``0 = t_0 < ... < t_N = horizon``."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("grid needs at least one step")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.horizon * np.arange(self.n_steps + 1) / self.n_steps


def step_constants(model: GalerkinModel, dt: float):
    """Per-mode exact one-step constants.

    Returns ``(decay, a1, a2)`` where the state update is
    ``w' = decay * w + a1 * xi1 + a2 * xi2`` and the Wiener increment is
    ``sqrt(dt) * xi1`` for independent standard normals ``xi1, xi2``.
    ``a1 = cov(conv, dW)/sqrt(dt)`` and ``a2`` carries the residual variance.
    """
    lam = model.eigenvalues
    decay = np.exp(lam * dt)
    conv_var = model.sigma_diag**2 * (1.0 - np.exp(2.0 * lam * dt)) / (-2.0 * lam)
    cross = model.sigma_diag * (1.0 - decay) / (-lam)
    a1 = cross / np.sqrt(dt)
    a2 = np.sqrt(np.maximum(conv_var - cross**2 / dt, 0.0))
    return decay, a1, a2


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Deterministic per-path generator.

    The stream depends only on ``(master_seed, path_index)``, so ensembles are
    reproducible regardless of block size or worker count.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(path_index),))
    return np.random.default_rng(ss)


@dataclass(eq=False)
class SamplePath:
    """One realization: centered states, Wiener increments, and derived views.

    ``w0`` is the path started at zero; the path started at ``x0`` is
    ``w = w0 + exp(tA) x0`` (exact).  ``running_max`` tracks the norm of the
    started-at-``x0`` path.
    """

    grid: PathGrid
    x0: np.ndarray
    w0: np.ndarray          # (N+1, d) states started at zero
    dW: np.ndarray          # (N, d) raw Wiener increments
    eigenvalues: np.ndarray
    seed_tag: tuple = ()

    @cached_property
    def mean_path(self) -> np.ndarray:
        return np.exp(np.outer(self.grid.times, self.eigenvalues)) * self.x0

    @property
    def w(self) -> np.ndarray:
        return self.w0 + self.mean_path

    @cached_property
    def running_max(self) -> np.ndarray:
        return np.maximum.accumulate(np.linalg.norm(self.w, axis=1))


def sample_ou_block(model: GalerkinModel, grid: PathGrid, master_seed: int,
                    indices) -> tuple[np.ndarray, np.ndarray]:
    """Sample a block of centered paths; returns ``(w0, dW)``.

    Shapes ``(B, N+1, d)`` and ``(B, N, d)``.  Noise is drawn per path from
    :func:`path_rng`, so the result does not depend on how paths are blocked.
    """
    indices = list(indices)
    B, N, d = len(indices), grid.n_steps, model.dim
    dt = grid.dt
    decay, a1, a2 = step_constants(model, dt)
    sq = np.sqrt(dt)
    dW = np.empty((B, N, d))
    conv = np.empty((B, N, d))
    for b, idx in enumerate(indices):
        xi = path_rng(master_seed, idx).standard_normal((N, 2, d))
        dW[b] = sq * xi[:, 0, :]
        conv[b] = a1 * xi[:, 0, :] + a2 * xi[:, 1, :]
    w0 = np.zeros((B, N + 1, d))
    for k in range(N):
        w0[:, k + 1] = decay * w0[:, k] + conv[:, k]
    return w0, dW


def sample_ou_paths(model: GalerkinModel, grid: PathGrid, n_paths: int,
                    master_seed: int) -> list[SamplePath]:
    """Sample an ensemble as a list of paths (full storage; desk scale),
    in blocks of 256 paths."""
    out = []
    for lo in range(0, n_paths, 256):
        idx = range(lo, min(lo + 256, n_paths))
        w0, dW = sample_ou_block(model, grid, master_seed, idx)
        for b, i in enumerate(idx):
            out.append(SamplePath(grid, model.x0, w0[b], dW[b],
                                  model.eigenvalues.copy(), (master_seed, i)))
    return out


def ou_moments(model: GalerkinModel, t: float):
    """Exact per-mode mean and variance of the path started at ``x0``."""
    if not 0.0 <= t <= model.horizon:
        raise ValueError(f"t={t} outside [0, {model.horizon}]")
    mean = semigroup_apply(model, t, model.x0)
    lam = model.eigenvalues
    var = model.sigma_diag**2 * (1.0 - np.exp(2.0 * lam * t)) / (-2.0 * lam)
    return mean, var


@dataclass
class FerniqueRow:
    gamma: float
    estimate: float
    stderr: float
    stable: bool


def fernique_probe(maxima, gamma_grid) -> list[FerniqueRow]:
    """Empirical exponential moments of the terminal running maximum.

    ``maxima`` holds the per-path maxima of the centered norm.  A row is
    stable when the estimate is finite with relative standard error below
    10%; overflow rows are flagged unstable rather than clipped.
    """
    maxima = np.asarray(maxima, dtype=float)
    if maxima.size == 0:
        raise ValueError("fernique probe needs a nonempty ensemble")
    rows = []
    for gamma in gamma_grid:
        with np.errstate(over="ignore"):
            vals = np.exp(float(gamma) * maxima)
        if not np.all(np.isfinite(vals)):
            rows.append(FerniqueRow(float(gamma), float("inf"), float("inf"), False))
            continue
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        stable = est > 0 and (se / est) < 0.10
        rows.append(FerniqueRow(float(gamma), est, se, stable))
    return rows


def largest_stable_gamma(rows) -> float | None:
    stable = [r.gamma for r in rows if r.stable]
    return max(stable) if stable else None
