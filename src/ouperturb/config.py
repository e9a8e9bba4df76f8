"""Experiment configuration: one nested JSON file, validated into dataclasses.

Key schema (normative): ``model`` (dim, beta, eigenvalues | "auto",
sigma_diag, horizon, x0), ``grid`` (n_steps | dt), ``drift`` (kind + params
+ optional bound echo), ``sweep`` (alpha_list), ``mc`` (n_paths,
master_seed), ``phi`` (kinds list; ``B`` is accepted but not read),
``girsanov`` (tau_levels, y_grid, psi kind + delta; the kind must be
``closed_form``), ``output`` (directory).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .drifts import Drift, make_drift
from .model import GalerkinModel, validate_model
from .ou import PathGrid
from .tails import ClosedFormWeight, admissible_y_start
from .weights import WeightFunction


class ConfigError(ValueError):
    """Configuration is structurally or numerically invalid."""


@dataclass
class ExperimentConfig:
    raw: dict
    model: GalerkinModel
    grid: PathGrid
    drift: Drift
    alphas: tuple
    n_paths: int
    master_seed: int
    weights: tuple
    tau_levels: tuple
    y_grid: np.ndarray
    psi_delta: float
    out_dir: Path
    s_grid: np.ndarray

    def describe(self) -> dict:
        return json.loads(json.dumps(self.raw, sort_keys=True))


def _auto_eigenvalues(dim: int, beta: float):
    # linearly spaced decay rates starting at -beta
    return [-beta * (1.0 + i) for i in range(dim)]


def _read(key: str, value, kind):
    """``kind(value)``; a value of the wrong type, or a NaN or infinity where
    an integer is due, is a config error naming ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: cannot read {value!r} as "
                          f"{kind.__name__}") from None


def _floats(key: str, value) -> list:
    """A list of floats, read entry by entry by :func:`_read`."""
    return [_read(key, v, float) for v in _read(key, value, list)]


def _require(cond, errors, msg):
    if not cond:
        errors.append(msg)


def parse_config(raw: dict) -> ExperimentConfig:
    errors = []
    mb = raw.get("model", {})
    dim = _read("model.dim", mb.get("dim", 4), int)
    beta = _read("model.beta", mb.get("beta", 1.0), float)
    eig = mb.get("eigenvalues", "auto")
    eig = _auto_eigenvalues(dim, beta) if eig == "auto" \
        else _floats("model.eigenvalues", eig)
    sig = mb.get("sigma_diag", 1.0)
    if isinstance(sig, (int, float)):
        sig = [float(sig)] * dim
    elif len(sig := _floats("model.sigma_diag", sig)) != len(eig):
        errors.append(f"model.sigma_diag: length {len(sig)}, expected one "
                      f"entry per mode ({len(eig)})")
        sig = 1.0
    x0 = mb.get("x0", 0.0)
    x0 = [float(x0)] * dim if isinstance(x0, (int, float)) \
        else _floats("model.x0", x0)
    horizon = _read("model.horizon", mb.get("horizon", 1.0), float)
    model = GalerkinModel(eigenvalues=eig, beta=beta, sigma_diag=sig,
                          horizon=horizon, x0=x0)
    try:
        validate_model(model)
    except ValueError as exc:
        errors.append(f"model: {exc}")

    gb = raw.get("grid", {})
    n_steps = 0
    if "n_steps" in gb:
        n_steps = _read("grid.n_steps", gb["n_steps"], int)
        _require(n_steps >= 1, errors, "grid.n_steps: must be >= 1")
    elif "dt" in gb:
        dt = _read("grid.dt", gb["dt"], float)
        if not 0 < dt < np.inf:
            errors.append("grid.dt: must be finite and > 0")
        elif horizon > 0:
            n_steps = max(int(round(horizon / dt)), 1)
    else:
        errors.append("grid: need n_steps or dt")
    # no grid from invalid inputs: the errors above are raised below
    grid = PathGrid(n_steps, horizon) if n_steps >= 1 and horizon > 0 else None

    db = raw.get("drift", {"kind": "radial"})
    params = _read("drift.params", db.get("params", {}), dict)
    try:
        drift = make_drift(db.get("kind", "radial"), dim=dim, **params)
    except (ValueError, KeyError) as exc:
        errors.append(f"drift: {exc}")
        drift = make_drift("zero")
    bound_echo = db.get("bound")
    if bound_echo is not None and bound_echo != drift.bound_name():
        errors.append(
            f"drift.bound: declared {bound_echo!r} but catalog derives "
            f"{drift.bound_name()!r}")

    alphas = tuple(_floats("sweep.alpha_list", raw.get("sweep", {}).get(
        "alpha_list", [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])))
    _require(len(alphas) >= 2, errors, "sweep.alpha_list: need >= 2 entries")
    _require(all(a > 0 for a in alphas), errors, "sweep.alpha_list: must be positive")
    _require(all(a1 > a2 for a1, a2 in zip(alphas, alphas[1:])), errors,
             "sweep.alpha_list: must be strictly decreasing")
    if grid is not None and alphas and grid.dt > min(alphas) / 8.0 * (1 + 1e-12):
        need = int(np.ceil(horizon / (min(alphas) / 8.0)))
        errors.append(
            f"grid: dt={grid.dt:g} violates dt <= min(alpha)/8 = "
            f"{min(alphas) / 8.0:g}; need n_steps >= {need}")

    mc = raw.get("mc", {})
    n_paths = _read("mc.n_paths", mc.get("n_paths", 1000), int)
    master_seed = _read("mc.master_seed", mc.get("master_seed", 0), int)
    _require(n_paths >= 1, errors, "mc.n_paths: must be >= 1")

    pb = raw.get("phi", {})
    kinds = pb.get("kinds", [{"kind": "power", "p": 2.0},
                             {"kind": "exponential"}, {"kind": "xlog"}])
    weights = []
    for spec in _read("phi.kinds", kinds, list):
        try:
            weights.append(WeightFunction(spec["kind"], float(spec.get("p", 2.0))))
        except (TypeError, ValueError, KeyError) as exc:
            errors.append(f"phi.kinds: {exc}")

    gk = raw.get("girsanov", {})
    tau_levels = tuple(_read("girsanov.tau_levels", v, int) for v in _read(
        "girsanov.tau_levels", gk.get("tau_levels", list(range(0, 9))), list))
    if list(tau_levels) != list(range(len(tau_levels))):
        errors.append("girsanov.tau_levels: need the contiguous ladder 0..max")
    yb = gk.get("y_grid", {"start": 1.5, "stop": 1e9, "count": 40})
    if isinstance(yb, dict):
        y_grid = np.geomspace(
            _read("girsanov.y_grid.start", yb.get("start", 1.5), float),
            _read("girsanov.y_grid.stop", yb.get("stop", 1e9), float),
            _read("girsanov.y_grid.count", yb.get("count", 40), int))
    else:
        y_grid = np.asarray(_floats("girsanov.y_grid", yb))
    y_min = admissible_y_start(drift.bound, model.inv_sigma_norm, horizon)
    if y_grid.size and y_grid[0] <= y_min:
        errors.append(
            f"girsanov.y_grid: start {y_grid[0]:g} must exceed the "
            f"admissible threshold {y_min:g}")
    psi = gk.get("psi", {"kind": "closed_form", "delta": 0.5})
    _require(psi.get("kind", "closed_form") == "closed_form", errors,
             "girsanov.psi.kind: only 'closed_form' is supported")
    psi_delta = _read("girsanov.psi.delta", psi.get("delta", 0.5), float)
    try:
        ClosedFormWeight(psi_delta)
    except ValueError as exc:
        errors.append(f"girsanov.psi.delta: {exc}")

    out_dir = Path(raw.get("output", {}).get("directory", "out"))

    # exceedance grid for the centered-path tail, derived from the model scale
    rms = float(np.sqrt(np.sum(model.sigma_diag**2 /
                               (-2.0 * model.eigenvalues))))
    s_grid = np.round(np.linspace(0.0, 5.0 * rms, 26), 12)

    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(raw=raw, model=model, grid=grid, drift=drift,
                            alphas=alphas, n_paths=n_paths,
                            master_seed=master_seed, weights=tuple(weights),
                            tau_levels=tau_levels, y_grid=y_grid,
                            psi_delta=psi_delta,
                            out_dir=out_dir, s_grid=s_grid)


def load_config(path, overrides=None) -> ExperimentConfig:
    """Read and check the config at ``path``, after ``overrides`` (``"section.key"``
    names to values) replace the file's values, so the check sees the run's."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    for name, value in (overrides or {}).items():
        section, key = name.split(".")
        raw.setdefault(section, {})[key] = value
    return parse_config(raw)
