"""Finite spectral truncation of the linear state equation.

The linear part is a diagonal operator with strictly negative eigenvalues,
so the semigroup, its resolvent and the regularized (bounded) approximations
of the generator are all closed-form per mode.  States are plain numpy
arrays of shape ``(..., dim)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ModelValidationError(ValueError):
    """Raised when a model violates one of its structural constraints."""


@dataclass(eq=False)
class GalerkinModel:
    """Diagonal truncation of the state space: rates, noise amplitudes, horizon.

    Constraints (see :func:`validate_model`):

    * every eigenvalue satisfies ``lam_i <= -beta < 0``, so the quadratic
      form of the generator is dominated by ``-beta |x|^2`` exactly;
    * every noise amplitude is positive, so the diagonal noise operator and
      its inverse are bounded with ``inv_sigma_norm = 1 / min(sigma_diag)``.
    """

    eigenvalues: np.ndarray
    beta: float
    sigma_diag: np.ndarray
    horizon: float
    x0: np.ndarray

    def __post_init__(self):
        self.eigenvalues = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        self.sigma_diag = np.atleast_1d(np.asarray(self.sigma_diag, dtype=float))
        if self.sigma_diag.size == 1 and self.eigenvalues.size > 1:
            self.sigma_diag = np.full(self.eigenvalues.size, float(self.sigma_diag[0]))
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        self.beta = float(self.beta)
        self.horizon = float(self.horizon)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @cached_property
    def inv_sigma_norm(self) -> float:
        """Operator norm of the inverse noise operator, ``1 / min sigma_i``."""
        return float(1.0 / np.min(self.sigma_diag))


def validate_model(model: GalerkinModel) -> GalerkinModel:
    """Check all structural constraints; return the model unchanged if valid.

    Raises :class:`ModelValidationError` listing every violated constraint.
    """
    problems = []
    if model.beta <= 0:
        problems.append(f"beta must be positive, got {model.beta}")
    if not model.horizon > 0:
        problems.append(f"horizon must be positive, got {model.horizon}")
    if model.x0.size != model.dim:
        problems.append(f"x0 has length {model.x0.size}, expected dim {model.dim}")
    if model.sigma_diag.size != model.dim:
        problems.append(
            f"sigma_diag has length {model.sigma_diag.size}, expected dim {model.dim}"
        )
    for i, lam in enumerate(model.eigenvalues):
        if not lam <= -model.beta:
            problems.append(f"eigenvalue {lam} violates lam <= -beta = {-model.beta}")
    for i, s in enumerate(model.sigma_diag):
        if not s > 0:
            problems.append(f"sigma_diag[{i}] = {s} is not positive")
    if not np.all(np.isfinite(model.eigenvalues)) or not np.all(np.isfinite(model.x0)):
        problems.append("eigenvalues and x0 must be finite")
    if problems:
        raise ModelValidationError("; ".join(problems))
    model.inv_sigma_norm  # materialize the cached norm
    return model


def semigroup_apply(model: GalerkinModel, t, v: np.ndarray) -> np.ndarray:
    """Apply the semigroup at time ``t >= 0``: mode ``i`` is scaled by ``exp(lam_i t)``.

    ``t`` may be a scalar or an array broadcast against the leading axes of
    ``v``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("semigroup_apply requires t >= 0")
    return np.exp(t[..., None] * model.eigenvalues) * v
