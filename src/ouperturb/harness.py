"""Experiment orchestration: stages, artifact files, manifest, report.

One comprehensive streaming pass feeds every stage; stages slice its results
into CSV artifacts and pass/fail checks with margins.  The manifest is
written atomically last and inventories every emitted file with a digest.
All numeric output is deterministic for a fixed (config, seed) regardless of
worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._util import sha256_file, write_csv, write_json
from .config import ExperimentConfig
from .engine import EnsembleTasks, run_ensemble
from .girsanov import (entropy_stability, entropy_statistic, martingale_check,
                       stopped_moment_bound)
from .ou import fernique_probe, largest_stable_gamma, ou_moments, sample_ou_paths
from .pseudoweak import BallCompression, TestMeasureGrid, cesaro_limit, \
    limsup_check, weak_gap
from .tails import (ClosedFormWeight, EnvelopeWeight, MollifiedWeight,
                    TabulatedTail, admissibility_chain_fit, build_bump_weight,
                    check_weight_integral, p0_from_counts, tail_table)
from .weights import check_moment_bound_on_fields, estimate_constant, objective

N_CHECK_PATHS = 1000     # node-wise bound checks cover this prefix
N_FIELD_PATHS = 48       # strided fields for the weak-limit diagnostics
N_DUMP_PATHS = 4         # full trajectories dumped to CSV
GAMMA_GRID = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)


@dataclass
class Check:
    id: str
    passed: bool
    margin: float
    detail: str = ""

    def row(self):
        return {"id": self.id, "pass": bool(self.passed),
                "margin": float(self.margin), "detail": self.detail}


def check_line(row: dict) -> str:
    """A check's manifest row as ``summary.txt`` and ``report`` print it."""
    return (f"{row['id']:46s} {'PASS' if row.get('pass') else 'FAIL':6s} "
            f"{row.get('margin', 0):12.4g}  {row.get('detail', '')}")


def bound_gate(viol: int, worst: float) -> bool:
    """Pass a bound check only on zero violations and a finite worst margin.

    A NaN margin counts no violation (``NaN < 0`` is False), and a check whose
    nodes all overflowed keeps an infinite margin; both must FAIL.
    """
    return viol == 0 and bool(np.isfinite(worst))


@dataclass
class RunState:
    cfg: ExperimentConfig
    out: Path
    n_workers: int = 1
    quiet: bool = False
    checks: list = field(default_factory=list)
    files: list = field(default_factory=list)
    stages_done: list = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)   # stage (or "pass") -> s
    result: object = None
    tail: object = None
    tail_table: object = None
    candidate: object = None

    def say(self, msg):
        if not self.quiet:
            print(msg, flush=True)

    def add(self, check: Check):
        self.checks.append(check)
        self.say(f"  [{'PASS' if check.passed else 'FAIL'}] {check.id} "
                 f"margin={check.margin:.6g} {check.detail}")

    def emit(self, name, header, columns):
        """Write one CSV artifact from whole columns and list it in the manifest.

        ``columns`` follows ``write_csv``: one equal-length 1-D column per
        header entry.  Per-path tables are built from the result arrays in
        alpha-major order (``np.repeat`` over alphas, ``np.tile`` over paths).
        """
        path = write_csv(self.out / name, header, columns)
        self.files.append(path)
        return path


def make_state(cfg: ExperimentConfig, out=None, n_workers: int | None = None,
               quiet: bool = False) -> RunState:
    out = Path(out) if out else cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if n_workers is None:
        n_workers = min(4, os.cpu_count() or 1)
    return RunState(cfg, out, n_workers, quiet)


def ensure_ensemble(state: RunState):
    """Run the comprehensive streaming pass once and cache it."""
    if state.result is not None:
        return state.result
    cfg = state.cfg
    stride = max(1, cfg.grid.n_steps // 512)
    tasks = EnsembleTasks(
        alphas=cfg.alphas, integrate=True, girsanov=True,
        tau_levels=cfg.tau_levels,
        stop_zeta_levels=(cfg.tau_levels[-1],) if cfg.tau_levels else (),
        n_check_paths=min(N_CHECK_PATHS, cfg.n_paths),
        weights=cfg.weights,
        cert_levels=tuple(l for l in cfg.tau_levels if l > 0),
        n_field_paths=min(N_FIELD_PATHS, cfg.n_paths),
        field_stride=stride,
        s_grid=tuple(cfg.s_grid),
        track_gaps=True,
    )
    state.say(f"running streaming pass: {cfg.n_paths} paths x "
              f"{cfg.grid.n_steps} steps x {len(cfg.alphas)} alphas "
              f"({state.n_workers} workers)")
    t0 = time.perf_counter()
    state.result = run_ensemble(cfg.model, cfg.drift, cfg.grid, tasks,
                                cfg.n_paths, cfg.master_seed,
                                n_workers=state.n_workers)
    state.stage_seconds["pass"] = time.perf_counter() - t0
    state.say(f"  pass done in {state.stage_seconds['pass']:.1f}s")
    return state.result


# ---------------------------------------------------------------------------
# stages


def stage_simulate(state: RunState):
    cfg = state.cfg
    res = ensure_ensemble(state)
    model, grid = cfg.model, cfg.grid
    state.say("stage simulate")

    mean_ex, var_ex = ou_moments(model, grid.horizon)
    w_T = res.final_w(model)
    emp_mean = w_T.mean(axis=0)
    emp_var = w_T.var(axis=0, ddof=1)
    n = w_T.shape[0]
    se_mean = np.sqrt(var_ex / n)
    se_var = var_ex * np.sqrt(2.0 / max(n - 1, 1))
    z_mean = np.abs(emp_mean - mean_ex) / se_mean
    z_var = np.abs(emp_var - var_ex) / se_var
    state.emit("moments.csv",
               ["mode", "mean_emp", "mean_exact", "z_mean", "var_emp",
                "var_exact", "z_var"],
               [np.arange(model.dim)] + [np.asarray(c, dtype=float) for c in
                                         (emp_mean, mean_ex, z_mean, emp_var,
                                          var_ex, z_var)])
    state.add(Check("ou.moments", bool(np.all(z_mean <= 4) and np.all(z_var <= 4)),
                    float(4 - max(z_mean.max(), z_var.max())),
                    f"max z_mean={z_mean.max():.2f} z_var={z_var.max():.2f}"))

    fr = fernique_probe(res.w0_max, GAMMA_GRID)
    state.emit("fernique.csv", ["gamma", "estimate", "stderr", "stable"],
               [[r.gamma for r in fr], [r.estimate for r in fr],
                [r.stderr for r in fr], [r.stable for r in fr]])
    g_star = largest_stable_gamma(fr)
    state.add(Check("ou.fernique_stable_gamma", g_star is not None,
                    g_star or 0.0, f"largest stable gamma = {g_star}"))

    state.tail = p0_from_counts(cfg.s_grid, res.p0_counts, cfg.n_paths)
    state.emit("p0.csv", ["s", "p0"],
               [np.asarray(state.tail.s, dtype=float),
                np.asarray(state.tail.p0, dtype=float)])

    paths = sample_ou_paths(model, grid, min(N_DUMP_PATHS, cfg.n_paths),
                            cfg.master_seed)
    # one row per (path, node); the increment column is 0 at node 0
    d, n_nodes = model.dim, grid.n_steps + 1
    w = np.concatenate([p.w for p in paths])
    dw = np.concatenate([np.vstack([np.zeros((1, d)), p.dW]) for p in paths])
    state.emit("paths.csv",
               ["path_id", "k", "t"] + [f"w_{j+1}" for j in range(d)]
               + [f"dW_{j+1}" for j in range(d)] + ["running_max"],
               [np.repeat(np.arange(len(paths)), n_nodes),
                np.tile(np.arange(n_nodes), len(paths)),
                np.tile(grid.times, len(paths)),
                *w.T, *dw.T,
                np.concatenate([p.running_max for p in paths])])
    state.stages_done.append("simulate")


def stage_sweep(state: RunState):
    cfg = state.cfg
    res = ensure_ensemble(state)
    state.say("stage sweep")
    A = len(cfg.alphas)
    nc = res.bound_viol["z_half"].shape[1]

    # one row per (alpha, path); the finest alpha has no next gap, and only
    # the first nc paths carry bound violations
    P = cfg.n_paths
    gap = np.full((A, P), np.nan)
    gap[:A - 1] = res.sup_gaps[:A - 1]
    bv = np.full((A, P), "", dtype=object)
    bv[:, :nc] = (res.bound_viol["z_full"] + res.bound_viol["x_full"]
                  + res.bound_viol["gronwall_sq"]).astype(np.int64)
    tau = np.asarray(res.tau_half, dtype=float)
    state.emit("sweep.csv",
               ["alpha", "path_id", "sup_gap_to_next_alpha", "bound_violations"]
               + [f"tau_{l}" for l in cfg.tau_levels],
               [np.repeat(np.asarray(cfg.alphas, dtype=float), P),
                np.tile(np.arange(P), A), gap.reshape(-1), bv.reshape(-1),
                *(np.tile(tau[li], A) for li in range(len(cfg.tau_levels)))])

    for name, stated in (("z_half", True), ("z_full", False), ("x_full", False),
                         ("gronwall_sq", False)):
        viol = int(res.bound_viol[name].sum())
        worst = float(res.bound_margin[name].min())
        label = "stated form" if name == "z_half" else ""
        state.add(Check(f"bounds.{name}", bound_gate(viol, worst), worst,
                        f"{viol} node violations over {nc} paths {label}"))
    for form in ("half", "full"):
        viol = int(res.cert_viol[form].sum())
        state.add(Check(f"bounds.level_cert_{form}", viol == 0,
                        -float(viol), f"{viol} violations (slacked)"))

    # weak-limit diagnostics on the strided fields
    comp = BallCompression()
    tail_count = max(2, A // 2)
    candidate, clamps = cesaro_limit(list(res.field_x[-tail_count:]), comp)
    tgrid = TestMeasureGrid.build(res.snap_times, res.field_x.shape[1],
                                  dim=cfg.model.dim)
    gms = [weak_gap(res.field_x[ai], candidate, tgrid, comp) for ai in range(A)]
    gap_seq = [gm.max_gap for gm in gms]
    set_ids, fids, gaps = zip(*(row for gm in gms for row in gm.rows))
    state.emit("gaps.csv", ["set_id", "functional_id", "alpha_index", "gap"],
               [set_ids, fids, np.repeat(np.arange(A), len(gms[0].rows)),
                np.array(gaps)])
    lr = limsup_check(list(res.field_x), candidate)
    state.add(Check("pseudoweak.limsup", lr.passed, -lr.worst_excess,
                    f"{lr.violations} violations on {lr.n_points} points"))
    dist = float(np.max(np.linalg.norm(candidate - res.field_x[-1], axis=-1)))
    finest = float(np.max(np.linalg.norm(res.field_x[-2] - res.field_x[-1],
                                         axis=-1)))
    state.add(Check("pseudoweak.candidate_near_finest",
                    dist <= 2.0 * finest + 1e-12, 2.0 * finest - dist,
                    f"dist={dist:.3g} finest_gap={finest:.3g} clamps={clamps}"))
    state.add(Check("pseudoweak.gap_sequence_decreasing",
                    all(g2 <= g1 * 1.5 + 1e-9
                        for g1, g2 in zip(gap_seq, gap_seq[1:])),
                    gap_seq[0] - gap_seq[-1],
                    " -> ".join(f"{g:.2e}" for g in gap_seq)))
    state.candidate = candidate
    state.stages_done.append("sweep")


def stage_phi(state: RunState):
    cfg = state.cfg
    res = ensure_ensemble(state)
    state.say("stage phi-check")
    A = len(cfg.alphas)
    nc = res.weight_viol.shape[2] if res.weight_viol is not None else 0
    for wi, w in enumerate(cfg.weights):
        viol = int(res.weight_viol[wi].sum())
        worst = float(res.weight_margin[wi].min())
        over = int(res.weight_overflow[wi])
        # one row per (alpha, path): the node attaining the smallest margin
        name = w.kind if w.kind != "power" else f"power{w.p:g}"
        state.emit(f"phi_bounds_{name}.csv",
                   ["path_id", "alpha", "node", "lhs", "rhs", "pass"],
                   [np.tile(np.arange(nc), A),
                    np.repeat(np.asarray(cfg.alphas, dtype=float), nc),
                    res.weight_node[wi, :, :nc].astype(np.int64).reshape(-1),
                    np.asarray(res.weight_lhs[wi, :, :nc], dtype=float).reshape(-1),
                    np.asarray(res.weight_rhs[wi, :, :nc], dtype=float).reshape(-1),
                    (res.weight_viol[wi, :, :nc] == 0).reshape(-1)])
        state.add(Check(f"phi.bound_{name}", bound_gate(viol, worst), worst,
                        f"stated form; {viol} node violations, "
                        f"{over} overflow nodes"))
        viol4 = int(res.weight_viol_derived[wi].sum())
        worst4 = float(res.weight_margin_derived[wi].min())
        over4 = int(res.weight_overflow_derived[wi])
        state.add(Check(f"phi.bound_derived_{name}", bound_gate(viol4, worst4),
                        worst4, f"derived form; {viol4} node violations, "
                        f"{over4} overflow nodes"))

    # the same bound on the weak-limit candidate fields (both variants)
    if state.candidate is not None:
        for w in cfg.weights:
            for scale, tag in ((2.0, ""), (4.0, "derived_")):
                rep = check_moment_bound_on_fields(
                    state.candidate, res.field_w0, res.field_runmax,
                    res.snap_times, cfg.model.x0, w, cfg.model.beta,
                    cfg.drift.bound, cfg.grid.dt, k_scale=scale)
                state.add(Check(f"phi.bound_candidate_{tag}{w.kind}",
                                bound_gate(rep.violations, rep.worst_margin),
                                rep.worst_margin,
                                f"{rep.violations} violations on candidate"))

    if not cfg.weights:
        state.stages_done.append("phi-check")
        return

    # estimate-constant certification on deterministic pseudo-random triples
    rng = np.random.default_rng(cfg.master_seed + 77)
    kinds, triples, ests = [], [], []
    worst_excess = -np.inf
    closed_bad = 0
    for w in cfg.weights:
        w_triples = []
        for _ in range(200):
            c = float(rng.uniform(0.01, 3.0))
            beta = float(rng.uniform(0.3, 2.0))
            bmax = beta * min(w.ratio_limit, 4.0)
            w_triples.append((c, beta, float(rng.uniform(1e-3, 0.95 * bmax))))
        for (c, beta, B), est in zip(w_triples,
                                     estimate_constant(w, *np.array(w_triples).T)):
            # one triple at a time: the re-check is arithmetic on 4001-point
            # rows, not per-call overhead, and 2-D row blocks ran no faster
            u0 = max(c**2 / beta**2, c**2 / (4 * (beta - B) ** 2)) \
                if B < beta else c**2 / beta**2
            grid = np.linspace(0.0, 10.0 * max(u0, 1e-9), 4001)
            fmax = objective(w, c, beta, B, grid).max()
            excess = float((fmax - est.value) / max(abs(est.value), 1e-300))
            worst_excess = max(worst_excess, excess)
            if est.closed_form is not None:
                if est.closed_form_is_upper:
                    if est.closed_form < est.value * (1 - 1e-9):
                        closed_bad += 1
                elif abs(est.closed_form - est.value) > 1e-6 * max(1.0, est.value):
                    closed_bad += 1
            ests.append(est)
        kinds += [w.kind] * len(w_triples)
        triples += w_triples
    state.emit("lemma_constants.csv",
               ["kind", "c", "beta", "B", "constant", "closed_form", "u_argmax"],
               [kinds, *np.array(triples).T, [e.value for e in ests],
                ["" if e.closed_form is None else e.closed_form for e in ests],
                [e.u_argmax for e in ests]])
    state.add(Check("phi.constant_dominates", worst_excess <= 1e-9, -worst_excess,
                    f"max relative excess {worst_excess:.2e}"))
    state.add(Check("phi.closed_forms", closed_bad == 0, -closed_bad,
                    f"{closed_bad} mismatches"))
    state.stages_done.append("phi-check")


def stage_girsanov(state: RunState):
    cfg = state.cfg
    res = ensure_ensemble(state)
    state.say("stage girsanov")
    ens = res.density_ensemble(cfg.model, cfg.drift, cfg.master_seed)

    # one row per (alpha, path)
    A, P = len(cfg.alphas), cfg.n_paths
    lr = np.asarray(ens.log_rho, dtype=float).reshape(-1)
    tau = np.asarray(ens.tau, dtype=float)
    state.emit("density.csv",
               ["path_id", "alpha", "zeta_T", "log_rho", "log_rho_tilde"]
               + [f"tau_{l}" for l in cfg.tau_levels],
               [np.tile(np.arange(P), A),
                np.repeat(np.asarray(cfg.alphas, dtype=float), P), lr, lr,
                np.asarray(ens.log_rho_tilde, dtype=float).reshape(-1),
                *(np.tile(tau[li], A) for li in range(len(cfg.tau_levels)))])

    mart = [martingale_check(ens, ai) for ai in range(A)]
    all_pass = all(r.passed for r in mart)
    worst = min([4.0] + [4.0 - abs(r.mean - 1.0) / r.stderr
                         for r in mart if r.stderr > 0])
    state.emit("martingale.csv", ["alpha", "mean", "stderr", "pass"],
               [cfg.alphas, [r.mean for r in mart], [r.stderr for r in mart],
                [r.passed for r in mart]])
    state.add(Check("girsanov.martingale", bool(all_pass), float(worst),
                    f"{len(cfg.alphas)} alphas"))

    cells = [(lvl, a, stopped_moment_bound(ens, lvl, cfg.model, cfg.drift, ai))
             for ai, a in enumerate(cfg.alphas)
             for lvl in cfg.tau_levels if lvl != 0]
    stop = [r for _, _, r in cells]
    state.emit("stopped.csv",
               ["level", "alpha", "estimate", "stderr", "bound", "n_kept", "pass"],
               [[lvl for lvl, _, _ in cells], [a for _, a, _ in cells],
                [r.estimate for r in stop], [r.stderr for r in stop],
                [r.bound for r in stop], [r.n_kept for r in stop],
                [r.passed for r in stop]])
    state.add(Check("girsanov.stopped_moment", all(r.passed for r in stop), 0.0,
                    f"{len(stop)} (level, alpha) cells"))

    tt = tail_table(cfg.y_grid, ens.exit_counts(), cfg.n_paths,
                    cfg.tau_levels, cfg.drift.bound,
                    cfg.model.inv_sigma_norm, cfg.model.horizon)
    state.emit("p_table.csv", ["y", "n_of_y", "p", "p_rearranged", "p_upper"],
               [np.asarray(tt.y, dtype=float), tt.level.astype(np.int64),
                *(np.asarray(c, dtype=float)
                  for c in (tt.p, tt.p_rearranged, tt.p_upper))])
    ok = bool(np.all(tt.p <= 1.0 + 1e-12)
              and np.all(tt.p >= 1.0 / tt.y - 1e-12))
    state.add(Check("girsanov.tail_table", ok,
                    float(np.min(1.0 - tt.p)), f"capped={tt.capped}"))
    state.tail_table = tt

    weight = ClosedFormWeight(cfg.psi_delta)
    reports = [entropy_statistic(ens, weight, ai) for ai in range(A)]
    state.emit("entropy.csv",
               ["alpha", "route_reweighted", "stderr_reweighted",
                "route_perturbed", "stderr_perturbed", "pass"],
               [cfg.alphas, [r.route_source for r in reports],
                [r.stderr_source for r in reports],
                [r.route_perturbed for r in reports],
                [r.stderr_perturbed for r in reports],
                [r.passed for r in reports]])
    ratio = entropy_stability(reports)
    state.add(Check("girsanov.entropy_two_route",
                    all(r.passed for r in reports), 0.0,
                    f"{len(cfg.alphas)} alphas"))
    state.add(Check("girsanov.entropy_alpha_stable", ratio < 3.0, 3.0 - ratio,
                    f"max/min ratio {ratio:.4f}"))
    state.stages_done.append("girsanov")


def stage_psi(state: RunState):
    cfg = state.cfg
    state.say("stage psi")
    if state.tail_table is None:
        stage_girsanov(state)
    tt = state.tail_table
    tabfn = TabulatedTail(tuple(tt.y), tuple(tt.p_upper))

    bump, info = build_bump_weight(tt.y, tt.p_upper)
    rep_bump = check_weight_integral(bump, tabfn, float(tt.y[-1]),
                                     series_bound=info.series_bound)
    state.add(Check("psi.bump_integral_finite",
                    bool(rep_bump.passed) if rep_bump.passed is not None else False,
                    (rep_bump.bound or 0.0) - rep_bump.value,
                    f"integral={rep_bump.value:.4g} knots={info.k_max} "
                    f"truncated={info.truncated}"))

    weights = {
        "closed_form": ClosedFormWeight(cfg.psi_delta),
        "bump": bump,
        "envelope": EnvelopeWeight(tabfn),
        "mollified": MollifiedWeight(tabfn, delta=0.05),
    }
    for name, wt in weights.items():
        ys = tt.y
        with np.errstate(over="ignore", divide="ignore"):
            vals = wt.value(ys)
            derivs = wt.deriv(ys)
        state.emit(f"psi_{name}.csv", ["y", "p", "n_of_y", "psi", "psi_prime"],
                   [np.asarray(ys, dtype=float), np.asarray(tt.p, dtype=float),
                    tt.level.astype(np.int64), np.asarray(vals, dtype=float),
                    np.asarray(derivs, dtype=float)])
        mono = bool(np.all(np.diff(vals) >= -1e-12))
        state.add(Check(f"psi.monotone_{name}", mono, 0.0, ""))

    rep_env = check_weight_integral(weights["envelope"], tabfn, float(tt.y[-1]),
                                    envelope_like=True)
    state.add(Check("psi.envelope_integral", bool(rep_env.passed),
                    (rep_env.bound or 0) * (1 + 1e-3) + rep_env.tail_remainder
                    - rep_env.value,
                    f"integral={rep_env.value:.4f} bound={rep_env.bound:.4f}"))

    if state.tail is not None:
        growth = getattr(cfg.drift, "growth", None)
        if growth is not None and growth.power > 0:
            inv = lambda v: np.power(np.maximum(np.asarray(v, dtype=float), 0.0)
                                     / growth.coef, 1.0 / (growth.power + 1.0))
            fit = admissibility_chain_fit(state.tail, inv,
                                          ClosedFormWeight(cfg.psi_delta), tt.y)
            state.add(Check("psi.chain_fit", True, fit.worst_margin,
                            f"C=({fit.c1:.3g},{fit.c2:.3g},{fit.c3:.3g}) "
                            f"held on {fit.fraction_held:.0%} of grid (reported)"))
    state.stages_done.append("psi")


def stage_report(state: RunState):
    state.say("stage report")
    lines = [f"ouperturb {__version__} run summary", ""]
    lines.append(f"{'check':46s} {'result':6s} {'margin':>12s}  detail")
    lines += [check_line(c.row()) for c in state.checks]
    n_fail = sum(1 for c in state.checks if not c.passed)
    lines.append("")
    lines.append(f"{len(state.checks)} checks, {n_fail} failures")
    text = "\n".join(lines) + "\n"
    path = state.out / "summary.txt"
    path.write_text(text)
    state.files.append(path)
    if not state.quiet:
        print(text)
    state.stages_done.append("report")


def write_manifest(state: RunState, status: str, wall: float) -> Path:
    manifest = {
        "artifact": "ouperturb",
        "version": __version__,
        "status": status,
        "wall_clock_s": wall,
        "stages": state.stages_done,
        "stage_seconds": state.stage_seconds,
        "config": state.cfg.describe(),
        "checks": [c.row() for c in state.checks],
        "files": [{"name": p.name, "sha256": sha256_file(p),
                   "bytes": p.stat().st_size} for p in sorted(set(state.files))],
    }
    if state.result is not None:
        manifest["blocks"] = {"n_workers": state.n_workers,
                              "paths": [b[0] for b in state.result.blocks],
                              "checked": [b[1] for b in state.result.blocks]}
    return write_json(state.out / "manifest.json", manifest)


def report_from_manifest(out_dir, quiet: bool = False) -> int:
    """Summarize an existing artifact directory from its manifest.

    Writes nothing, so the inventory it verifies stays as recorded.  Exit 0
    when every recorded check passed and every listed file has its recorded
    digest, 1 on failures or on a missing or changed file, 2 when the
    manifest itself is absent or unreadable.
    """
    import json

    out = Path(out_dir)
    mpath = out / "manifest.json"
    if not mpath.exists():
        print(f"no manifest at {mpath}")
        return 2
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError:
        print(f"manifest at {mpath} is not valid JSON")
        return 2
    missing, changed = [], []
    for f in manifest.get("files", []):
        path = out / f["name"]
        if not path.exists():
            missing.append(f["name"])
        elif sha256_file(path) != f.get("sha256"):
            changed.append(f["name"])
    lines = [f"ouperturb {manifest.get('version', '?')} artifact report",
             f"status: {manifest.get('status')}  "
             f"stages: {', '.join(manifest.get('stages', []))}", ""]
    n_fail = 0
    for c in manifest.get("checks", []):
        n_fail += 0 if c.get("pass") else 1
        lines.append(check_line(c))
    for label, names in (("missing files", missing),
                         ("files not matching their sha256", changed)):
        if names:
            n_fail += len(names)
            lines.append(f"{label}: " + ", ".join(names))
    lines.append("")
    lines.append(f"{len(manifest.get('checks', []))} checks, {n_fail} failures")
    if not quiet:
        print("\n".join(lines) + "\n")
        secs = manifest.get("stage_seconds", {})
        if secs:
            print("seconds: " + ", ".join(f"{k} {v:.3f}" for k, v in secs.items()))
        blocks = manifest.get("blocks")
        if blocks:
            print(f"blocks: {len(blocks['paths'])} on {blocks['n_workers']} "
                  f"workers, paths {'/'.join(map(str, blocks['paths']))}, "
                  f"checked {'/'.join(map(str, blocks['checked']))}")
    incomplete = manifest.get("status") == "failed"
    return 0 if (n_fail == 0 and not incomplete) else 1


def run_stages(state: RunState, stages) -> int:
    """Run the requested stages; returns the exit code (0 pass, 1 failures).

    Each stage's seconds go to ``state.stage_seconds``, less the streaming
    pass, which ``ensure_ensemble`` records under ``"pass"`` when the first
    stage that needs it runs it.
    """
    t0 = time.perf_counter()
    table = {"simulate": stage_simulate, "sweep": stage_sweep,
             "phi-check": stage_phi, "girsanov": stage_girsanov,
             "psi": stage_psi, "report": stage_report}
    status = "ok"
    try:
        for s in stages:
            t = time.perf_counter()
            pass_before = state.stage_seconds.get("pass", 0.0)
            table[s](state)
            state.stage_seconds[s] = (time.perf_counter() - t
                                      - (state.stage_seconds.get("pass", 0.0)
                                         - pass_before))
    except Exception:
        write_manifest(state, "failed", time.perf_counter() - t0)
        raise
    n_fail = sum(1 for c in state.checks if not c.passed)
    if n_fail:
        status = "check_failures"
    write_manifest(state, status, time.perf_counter() - t0)
    return 0 if n_fail == 0 else 1
