"""Layer probe: the streaming pass on one block with task subsets.

Each subset adds one layer of the pass, so differences of their costs, in µs
per path-step, isolate the layers:

    ou_step          empty task set (the exact OU step and the node norms)
    girsanov_sums    Girsanov only, minus OU only
    regularized_step integrate only, minus OU only
    diagnostics      full task set, minus integrate plus Girsanov

The probe runs ``PROBE_STEPS`` steps at ``dt = min(dt, min(alpha) / 8)``: the
regularized step needs that bound, and the density workload's grid is
coarser than it.

Run as a script, it prints the reference table: cubic and saturating drift,
d = 4, dt = 1e-4, five alphas, blocks of 256, 1024 and 4096 paths.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

PROBE_STEPS = 200
SUBSETS = ("ou", "girsanov", "integrate", "integrate_girsanov", "full")
SWEEP5 = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def full_tasks(alphas, tau_levels, weights, s_grid, n_paths, n_steps):
    """The task set ``harness.ensure_ensemble`` asks of the pass."""
    from ouperturb.engine import EnsembleTasks
    from ouperturb.harness import N_CHECK_PATHS, N_FIELD_PATHS

    return EnsembleTasks(
        alphas=tuple(alphas), integrate=True, girsanov=True,
        tau_levels=tuple(tau_levels), stop_zeta_levels=(tau_levels[-1],),
        n_check_paths=min(N_CHECK_PATHS, n_paths), weights=tuple(weights),
        cert_levels=tuple(lvl for lvl in tau_levels if lvl > 0),
        n_field_paths=min(N_FIELD_PATHS, n_paths),
        field_stride=max(1, n_steps // 512), s_grid=tuple(s_grid),
        track_gaps=True)


def acceptance_full(alphas):
    """The full task set of the ``eng_full`` acceptance fixture, for inputs
    that come without a config."""
    from ouperturb import make_weight
    from ouperturb.engine import EnsembleTasks

    weights = (make_weight("power", 2.0), make_weight("exponential"),
               make_weight("xlog"))
    return EnsembleTasks(
        alphas=tuple(alphas), integrate=True, girsanov=True,
        tau_levels=tuple(range(9)), stop_zeta_levels=(6,), n_check_paths=1000,
        weights=weights, cert_levels=(2, 4, 6, 8), n_field_paths=48,
        field_stride=20, track_gaps=True)


def probe(model, drift, dt, alphas, block, seed, full=None) -> dict:
    """µs per path-step of each task subset on one block of ``block`` paths."""
    from ouperturb import PathGrid
    from ouperturb.engine import EnsembleTasks, run_ensemble

    dt = min(dt, min(alphas) / 8.0)
    grid = PathGrid(PROBE_STEPS, PROBE_STEPS * dt)
    alphas = tuple(alphas)
    if full is None:
        full = acceptance_full(alphas)
    tasks = {
        "ou": EnsembleTasks(),
        "girsanov": EnsembleTasks(alphas=alphas, girsanov=True),
        "integrate": EnsembleTasks(alphas=alphas, integrate=True),
        "integrate_girsanov": EnsembleTasks(alphas=alphas, integrate=True,
                                            girsanov=True),
        "full": full,
    }
    us = {}
    for name in SUBSETS:
        t0 = perf_counter()
        run_ensemble(model, drift, grid, tasks[name], block, seed,
                     block_size=block, n_workers=1)
        us[name] = 1e6 * (perf_counter() - t0) / (block * PROBE_STEPS)
    return us


def layer_us(us: dict) -> dict:
    """The probe's per-layer metrics from the subset costs."""
    return {
        "engine.ou_step_us": us["ou"],
        "engine.girsanov_sums_us": us["girsanov"] - us["ou"],
        "engine.regularized_step_us": us["integrate"] - us["ou"],
        "engine.diagnostics_us": us["full"] - us["integrate_girsanov"],
    }


def table():
    from ouperturb import GalerkinModel, make_drift, validate_model

    model = validate_model(GalerkinModel(
        eigenvalues=[-1.0, -2.0, -3.0, -4.0], beta=1.0, sigma_diag=[1.0] * 4,
        horizon=1.0, x0=[0.3, -0.2, 0.1, 0.0]))
    drifts = {"cubic": make_drift("radial", power=2.0),
              "saturating": make_drift("saturating", eps=1.0)}
    rows = {}
    for block in (256, 1024, 4096):
        for name, drift in drifts.items():
            us = probe(model, drift, 1e-4, SWEEP5, block, 20260810)
            rows[(block, name)] = us
            print(json.dumps({"block": block, "drift": name,
                              **{k: round(v, 3) for k, v in us.items()}}),
                  flush=True)
    print(f"\nµs per path-step; d=4, dt=1e-4, 5 alphas, {PROBE_STEPS} steps")
    print(f"{'tasks':20s}" + "".join(f"{f'{d} {b}':>16s}" for b in (256, 1024, 4096)
                                      for d in drifts))
    for s in SUBSETS:
        print(f"{s:20s}" + "".join(f"{rows[(b, d)][s]:16.2f}"
                                   for b in (256, 1024, 4096) for d in drifts))


if __name__ == "__main__":
    from workloads import import_program

    try:
        import_program()
    except ImportError as exc:
        sys.exit(f"probe: {exc}")
    table()
