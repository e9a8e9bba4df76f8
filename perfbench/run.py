"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload smoke --seed 7 --seconds 40 --trace 0

Each operation runs in a fresh interpreter (``op.py``), one at a time, and
the run starts another operation while it should end within ``--seconds``.  After each
operation the benchmark checks its outputs with its own computations
(``checks.py``) and compares its digest with the first operation's.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
operations; set-up-only interpreters between the operations add samples of
``setup_s``.  ``--trace 1`` runs rounds of three: an untraced operation on
2 workers, a traced one on a single worker (the layer timings live in the
process that makes the calls), and the layer probe.  It reports
the per-layer metrics, each the median over the rounds, and prints every
layer figure as a table.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
set-up-only or probe launch counts as one more attempted and failed
operation.  If no operation succeeds, the JSON line has ``correct`` false and
no metrics, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as W

OP = Path(__file__).resolve().with_name("op.py")
RUN_SLACK_S = 130.0    # beyond --seconds: the last operation, set-ups, checks
SETUPS_PER_OP = 2      # set-up-only samples after each operation
MIN_SETUPS = 9


class OpFailed(Exception):
    pass


LAUNCH_ERRORS = (OpFailed, OSError, IndexError, KeyError, ValueError)


def launch(args, deadline):
    """Run ``op.py`` with ``args``; return its result with ``setup_s`` added."""
    t_launch = perf_counter()
    proc = subprocess.Popen([sys.executable, str(OP), *args], cwd=W.ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise OpFailed("timed out")
    if proc.returncode != 0:
        raise OpFailed(f"exit {proc.returncode}: {err.strip().splitlines()[-1:]}")
    res = json.loads(out.strip().splitlines()[-1])
    if "ready" in res:
        res["setup_s"] = res["ready"] - t_launch
    return res


class Run:
    """One invocation: its operations, their checks and the first digest."""

    def __init__(self, wl, seed, deadline):
        self.wl, self.seed, self.deadline = wl, seed, deadline
        self.out = W.OUT / wl.name
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None
        self.raw = json.loads((W.ROOT / wl.config).read_text())

    def op_args(self, *extra, workers=None):
        return ["--workload", self.wl.name, "--seed", str(self.seed),
                "--out", str(self.out / "op"),
                "--workers", str(workers or W.WORKERS), *extra]

    def check_program(self):
        """Resolvents at the workload's alphas, outside any timed region."""
        from checks import check_resolvent

        if self.wl.kind == "cli":
            cfg = W.cli_config(self.wl, self.seed, self.out)
            drift, alphas, dim = cfg.drift, cfg.alphas, cfg.model.dim
        else:
            inp = W.density_inputs(self.wl, self.seed)
            drift, alphas, dim = inp.drift, inp.alphas, inp.model.dim
        spec = self.raw["drift"]
        return check_resolvent(drift, spec, alphas, self.seed, dim)

    def check_outputs(self):
        from checks import check_cli_run, check_density_run

        if self.wl.kind == "cli":
            return check_cli_run(self.out / "op", self.raw)
        return check_density_run(self.out / "op", self.raw["alphas"])

    def fail(self, what):
        self.failed += 1
        self.failures.append(f"op {self.attempted}: {what}")
        print(f"FAILED op {self.attempted}: {what}", flush=True)

    def op(self, *extra, workers=None):
        """One operation and its checks; ``None`` if it failed."""
        shutil.rmtree(self.out / "op", ignore_errors=True)
        self.attempted += 1
        try:
            res = launch(self.op_args(*extra, workers=workers), self.deadline)
            if res["rc"] not in (0, 1):
                raise OpFailed(f"run_stages returned {res['rc']}")
            bad, digest = self.check_outputs()
        except LAUNCH_ERRORS as exc:
            bad = [f"{type(exc).__name__}: {exc}"]
        else:
            self.digest = self.digest or digest
            if digest != self.digest:
                bad.append("outputs differ from the first operation of this run")
        if bad:
            self.fail("; ".join(bad))
            return None
        return res

    def aux(self, *extra):
        """A set-up-only or probe launch; ``None`` if it failed, which counts
        as one more attempted and failed operation."""
        try:
            return launch(self.op_args(*extra), self.deadline)
        except LAUNCH_ERRORS as exc:
            self.attempted += 1
            self.fail(f"{' '.join(extra)}: {type(exc).__name__}: {exc}")
            return None

    def setups(self, n):
        """``setup_s`` of up to ``n`` set-up-only launches."""
        runs = (self.aux("--setup-only") for _ in range(n))
        return [r["setup_s"] for r in runs if r is not None]


def timed(run, seconds):
    t0 = perf_counter()
    ops, setups = [], []
    last = 0.0
    # start another operation only if it should end within the run
    while not ops and run.attempted < 3 or perf_counter() - t0 + last <= seconds:
        t_op = perf_counter()
        res = run.op()
        if res is not None:
            ops.append(res)
            setups.append(res["setup_s"])
            print(f"op {run.attempted}: setup {res['setup_s']:.3f} s, "
                  f"wall {res['wall_s']:.3f} s", flush=True)
        # set-up samples spread over the run, not bunched at its end
        setups += run.setups(SETUPS_PER_OP)
        last = perf_counter() - t_op
    if not ops:
        return None
    setups += run.setups(MIN_SETUPS - len(setups))
    med = statistics.median
    return {
        "setup_s": med(setups),
        "wall_s": med(o["wall_s"] for o in ops),
        "path_steps_per_s": med(o["path_steps"] / o["wall_s"] for o in ops),
        "peak_rss_mb": med((o["rss_kb"][0] + o["rss_kb"][1]) / 1024.0 for o in ops),
    }


def traced(run, seconds):
    from probe import layer_us
    from tracer import layer_metrics

    t0 = perf_counter()
    rounds = []
    last = 0.0
    trace_file = run.out / "trace.json"
    while not rounds and run.attempted < 4 or perf_counter() - t0 + last <= seconds:
        t_round = perf_counter()
        ref = run.op()
        tr = run.op("--trace", str(trace_file), workers=1)
        both = ref is not None and tr is not None
        probe = run.aux("--probe") if both else None
        if probe is not None:
            metrics = layer_metrics(json.loads(trace_file.read_text()),
                                    tr["path_steps"])
            metrics.update(layer_us(probe["probe_us"]))
            metrics["trace.untraced_wall_s"] = ref["wall_s"]
            metrics["trace.traced_wall_s"] = tr["wall_s"]
            rounds.append(metrics)
        last = perf_counter() - t_round
    if not rounds:
        return None
    table = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    print(f"layer figures of {run.wl.name}, median of {len(rounds)} round(s); "
          "traced operation on 1 worker:")
    for k, v in table.items():
        print(f"  {k:34s} {v:14.6g}")
    (run.out / "layers.json").write_text(json.dumps(table, indent=1))
    return table


def main(argv=None):
    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="ouperturb benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + args.seconds + RUN_SLACK_S
    try:
        W.import_program()
    except ImportError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    run = Run(wl, args.seed, deadline)
    run.out.mkdir(parents=True, exist_ok=True)
    bad = run.check_program()
    for b in bad:
        print(f"INCORRECT: {b}", flush=True)
    run.aux("--setup-only")   # compiles and caches, untimed
    measured = traced(run, args.seconds) if args.trace else timed(run, args.seconds)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = {k: measured[k] for k in units} if measured else {}
    for k, v in metrics.items():
        print(f"{wl.name} {k} = {v:.6g} {units[k]}")
    print(f"{wl.name}: {run.attempted} operations attempted, {run.failed} failed")
    print(json.dumps({
        "correct": bool(measured) and not bad and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if measured else 1


if __name__ == "__main__":
    sys.exit(main())
