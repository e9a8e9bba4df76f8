"""The benchmark's workloads and how each one builds its inputs.

Every path here is relative to the root of the checkout.  The package under
``src/`` is imported from the checkout itself, never from an installed copy,
so the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEFAULT_SEED = 7
WORKERS = 2      # worker processes of every timed operation


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "cli": load_config -> make_state -> run_stages(all)
                     # "density": run_ensemble -> density_ensemble -> martingale_check
    config: str      # relative to ROOT


WORKLOADS = {
    w.name: w for w in (
        Workload("smoke", "cli", "configs/smoke.json"),
        Workload("cubic_ensemble", "cli", "perfbench/configs/cubic_ensemble.json"),
        Workload("saturating_density", "density",
                 "perfbench/configs/saturating_density.json"),
    )
}


def import_program():
    """Import ``ouperturb`` from ``ROOT/src``; raise if that is not possible."""
    if not (SRC / "ouperturb" / "__init__.py").is_file():
        raise ImportError(f"no ouperturb package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ouperturb

    where = Path(ouperturb.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"ouperturb imported from {where}, not from {SRC}")
    return ouperturb


@dataclass
class DensityInputs:
    model: object
    drift: object
    grid: object
    alphas: tuple
    n_paths: int
    master_seed: int


def density_inputs(wl: Workload, seed: int) -> DensityInputs:
    """Model, drift and grid of a ``density`` workload, built directly.

    ``load_config`` cannot carry these inputs: it requires
    ``dt <= min(alpha) / 8`` for every run, while a density-only pass (no
    regularized step) is exact at any step size, as the ``mart_1e5``
    acceptance fixture uses it.
    """
    from ouperturb import GalerkinModel, PathGrid, make_drift, validate_model

    spec = json.loads((ROOT / wl.config).read_text())
    m = spec["model"]
    model = validate_model(GalerkinModel(
        eigenvalues=m["eigenvalues"], beta=m["beta"], sigma_diag=m["sigma_diag"],
        horizon=m["horizon"], x0=m["x0"]))
    drift = make_drift(spec["drift"]["kind"], dim=model.dim,
                       **spec["drift"].get("params", {}))
    return DensityInputs(model, drift, PathGrid(spec["n_steps"], model.horizon),
                         tuple(spec["alphas"]), spec["n_paths"], seed)


def cli_config(wl: Workload, seed: int, out: Path):
    """The parsed config of a ``cli`` workload, overridden as ``--seed`` and
    ``--out`` override it on the command line."""
    from ouperturb.config import load_config

    cfg = load_config(ROOT / wl.config)
    cfg.master_seed = int(seed)
    cfg.out_dir = Path(out)
    return cfg
