"""One operation of a workload, in a fresh interpreter.

Prints one JSON line: ``ready`` (the ``perf_counter`` reading when the inputs
are ready, on the clock the parent read before starting this process),
``wall_s`` (the workload's work after set-up), the exit code of
``run_stages``, and the peak resident memory of this process and of its
largest worker.  With ``--trace FILE`` the layers are timed from outside the
program (see ``tracer.py``) and the table is written to ``FILE``.  With
``--probe`` it runs the layer probe instead (see ``probe.py``).

    python3 perfbench/op.py --workload smoke --seed 7 --out perfbench/out/x
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads as W


def peak_rss_kb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own, workers


def run_cli(wl, args, tracer):
    from ouperturb import harness
    from ouperturb.cli import SUBCOMMAND_STAGES

    t0 = perf_counter()
    cfg = W.cli_config(wl, args.seed, args.out)
    if tracer:
        tracer.add("config.load", perf_counter() - t0)
        tracer.patch_harness(harness)
        tracer.patch_drift(cfg.drift)
    state = harness.make_state(cfg, n_workers=args.workers, quiet=True)
    ready = perf_counter()
    if args.probe:
        from probe import PROBE_STEPS, full_tasks, probe

        block = min(1024, cfg.n_paths)
        full = full_tasks(cfg.alphas, cfg.tau_levels, cfg.weights, cfg.s_grid,
                          block, PROBE_STEPS)
        return {"probe_us": probe(cfg.model, cfg.drift, cfg.grid.dt, cfg.alphas,
                                  block, cfg.master_seed, full)}
    if args.setup_only:
        return {"ready": ready}
    t0 = perf_counter()
    rc = harness.run_stages(state, SUBCOMMAND_STAGES["all"])
    wall = perf_counter() - t0
    return {"ready": ready, "wall_s": wall, "rc": rc,
            "path_steps": cfg.n_paths * cfg.grid.n_steps}


def run_density(wl, args, tracer):
    import numpy as np
    from ouperturb import engine, girsanov

    inp = W.density_inputs(wl, args.seed)
    if tracer:
        tracer.patch_density(engine, girsanov)
        tracer.patch_drift(inp.drift)
    tasks = engine.EnsembleTasks(alphas=inp.alphas, girsanov=True)
    ready = perf_counter()
    if args.probe:
        from probe import probe

        return {"probe_us": probe(inp.model, inp.drift, inp.grid.dt, inp.alphas,
                                  min(1024, inp.n_paths), inp.master_seed)}
    if args.setup_only:
        return {"ready": ready}
    t0 = perf_counter()
    res = engine.run_ensemble(inp.model, inp.drift, inp.grid, tasks, inp.n_paths,
                              inp.master_seed, n_workers=args.workers)
    ens = res.density_ensemble(inp.model, inp.drift, inp.master_seed)
    for ai in range(len(inp.alphas)):
        girsanov.martingale_check(ens, ai)
    wall = perf_counter() - t0
    args.out.mkdir(parents=True, exist_ok=True)
    np.save(args.out / "log_rho.npy", ens.log_rho)
    return {"ready": ready, "wall_s": wall, "rc": 0,
            "path_steps": inp.n_paths * inp.grid.n_steps}


def main(argv=None):
    ap = argparse.ArgumentParser(description="one benchmark operation")
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workers", type=int, default=W.WORKERS)
    ap.add_argument("--trace", type=Path, default=None,
                    help="time the layers and write the table here")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    W.import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = run_cli if wl.kind == "cli" else run_density
    result = run(wl, args, tracer)
    if tracer:
        args.trace.write_text(json.dumps(tracer.dump()))
    if "wall_s" in result:
        result["rss_kb"] = peak_rss_kb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
