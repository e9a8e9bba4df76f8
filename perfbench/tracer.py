"""Call timing for the traced run, installed from outside the program.

Each traced name is replaced, where its caller looks it up, by a wrapper that
adds the call's duration and count to a per-process table.  Nothing under
``src/`` is edited: ``harness`` imports its helpers by name, so they are
patched in ``harness``; the density workload calls ``engine.run_ensemble``
and ``girsanov.martingale_check`` through their modules, so they are
patched there; resolvents are patched on the drift's class.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

# span name -> names patched in ouperturb.harness
HARNESS_SPANS = {
    "engine.pass": ("run_ensemble",),
    "harness.simulate": ("stage_simulate",),
    "harness.sweep": ("stage_sweep",),
    "harness.phi": ("stage_phi",),
    "harness.girsanov": ("stage_girsanov",),
    "harness.psi": ("stage_psi",),
    "harness.report": ("stage_report",),
    "harness.manifest": ("write_manifest",),
    "weights.estimate_constant": ("estimate_constant",),
    "weights.candidate_bound": ("check_moment_bound_on_fields",),
    "pseudoweak.weak_limit": ("cesaro_limit", "weak_gap", "limsup_check"),
    "tails.tail_weights": ("tail_table", "build_bump_weight",
                           "check_weight_integral", "admissibility_chain_fit",
                           "p0_from_counts"),
    "girsanov.checks": ("martingale_check", "stopped_moment_bound",
                        "entropy_statistic"),
    "_util.sha256": ("sha256_file",),
    "ou.sample_paths": ("sample_ou_paths",),
}


class Tracer:
    """Per-span total seconds and call counts for one process."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.csv_bytes = 0

    def add(self, span, seconds):
        self.seconds[span] += seconds
        self.calls[span] += 1

    def wrap(self, span, fn):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(span, perf_counter() - t0)
        return traced

    def count(self, span, fn):
        def counted(*args, **kwargs):
            self.calls[span] += 1
            return fn(*args, **kwargs)
        return counted

    def patch(self, owner, attr, span):
        setattr(owner, attr, self.wrap(span, getattr(owner, attr)))

    def patch_drift(self, drift):
        """Time every resolvent the engine asks of ``drift``.

        The engine calls ``resolvent_warm``; for a radial drift also count the
        scalar solves and the derivative evaluations, one per Newton step.
        """
        from ouperturb import drifts

        self.patch(type(drift), "resolvent_warm", "drifts.resolvent")
        if isinstance(drift, drifts.RadialDrift):
            drifts.solve_radial_scale = self.count(
                "drifts.solve", drifts.solve_radial_scale)
            drifts.RadialGrowth.deriv = self.count(
                "drifts.deriv", drifts.RadialGrowth.deriv)

    def patch_harness(self, harness):
        for span, names in HARNESS_SPANS.items():
            for name in names:
                self.patch(harness, name, span)
        write_csv = self.wrap("_util.write_csv", harness.write_csv)

        def write_csv_counted(path, header, rows):
            out = write_csv(path, header, rows)
            self.csv_bytes += os.path.getsize(out)
            return out
        harness.write_csv = write_csv_counted

    def patch_density(self, engine, girsanov):
        self.patch(engine, "run_ensemble", "engine.pass")
        self.patch(girsanov, "martingale_check", "girsanov.checks")

    def dump(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "csv_bytes": self.csv_bytes}


def layer_metrics(trace: dict, path_steps: int) -> dict:
    """Per-layer figures of one traced operation, by metric name.

    The figures of the layers only ``run_stages`` calls are left out when the
    operation did not call it.
    """
    sec = defaultdict(float, trace["seconds"])
    calls = defaultdict(int, trace["calls"])
    solves = calls["drifts.solve"]
    figures = {
        "engine.pass_s": sec["engine.pass"],
        "engine.us_per_path_step": 1e6 * sec["engine.pass"] / path_steps,
        "drifts.resolvent_s": sec["drifts.resolvent"],
        "drifts.resolvent_calls": calls["drifts.resolvent"],
        "drifts.newton_iters_per_solve": calls["drifts.deriv"] / solves if solves else 0.0,
        "girsanov.checks_s": sec["girsanov.checks"],
        "weights.estimate_constant_calls": calls["weights.estimate_constant"],
        "util.csv_bytes": trace["csv_bytes"],
    }
    if calls["harness.simulate"]:
        figures.update({
            "harness.simulate_s": sec["harness.simulate"] - sec["engine.pass"],
            "harness.sweep_s": sec["harness.sweep"],
            "harness.phi_s": sec["harness.phi"],
            "harness.girsanov_s": sec["harness.girsanov"],
            "harness.psi_s": sec["harness.psi"],
            "harness.report_s": sec["harness.report"],
            "harness.manifest_s": sec["harness.manifest"],
            "weights.estimate_constant_s": sec["weights.estimate_constant"],
            "weights.candidate_bound_s": sec["weights.candidate_bound"],
            "pseudoweak.weak_limit_s": sec["pseudoweak.weak_limit"],
            "tails.tail_weights_s": sec["tails.tail_weights"],
            "util.write_csv_s": sec["_util.write_csv"],
            "util.sha256_s": sec["_util.sha256"],
            "ou.sample_paths_s": sec["ou.sample_paths"],
            "config.load_s": sec["config.load"],
        })
    return figures
