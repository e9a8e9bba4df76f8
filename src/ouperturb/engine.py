"""Streaming ensemble runner.

Processes path blocks step by step without storing trajectories, so ensembles
of 1e5 paths on 1e4-node grids fit in memory.  Per path, every accumulation
happens in fixed step order from a per-path generator stream, so results are
bit-identical for any block size and any worker count.

The regularized states of all alphas form one ``(A, B, d)`` array (alphas,
paths of the block, modes), and the Girsanov sums and the in-pass diagnostics
act on the alpha axis at once.  Each step makes one ``resolvent_warm`` call
per role -- the source path ``w``, the perturbed path ``X`` and the implicit
step ``y`` -- with alpha as an ``(A, 1)`` column against the ``(A, B)`` norms
and one ``(A, B)`` warm start per role.  Sums over the mode axis go through
:func:`drifts.colsum` in a fixed order.  Iterative resolvents stop their
Newton solve per element (:func:`drifts.solve_radial_scale`), so a path's
numbers depend neither on the other paths of its block nor on the other
alphas of the run: that per-element stop is what makes the cubic and
time-modulated drifts invariant to block size, worker count and alpha set.

One pass can compute, per regularization parameter: change-of-measure
exponents along both the unperturbed and the perturbed paths, threshold
stopping times (both transient-envelope variants), node-wise transient and
weighted-moment bound checks with margins, level certificates, adjacent-alpha
sup gaps, strided field snapshots for the weak-limit diagnostics, and
exceedance counts for the centered-path tail.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .drifts import Drift, colsum, norm
from .girsanov import DensityEnsemble
from .model import GalerkinModel, regularized_beta, yosida_eigenvalues
from .ou import PathGrid, path_rng, step_constants

BLOCK_SIZE = 1024
CHUNK_STEPS = 256


@dataclass(frozen=True)
class EnsembleTasks:
    """What the streaming pass should compute."""

    alphas: tuple = ()
    integrate: bool = False
    lambda_y: float | None = None
    girsanov: bool = False
    tau_levels: tuple = ()
    stop_zeta_levels: tuple = ()
    z_star_form: str = "half"
    n_check_paths: int = 0
    weights: tuple = ()
    cert_levels: tuple = ()
    n_field_paths: int = 0
    field_stride: int = 0
    s_grid: tuple = ()
    slack_mult: float = 10.0
    track_gaps: bool = False

    def validate(self, grid: PathGrid):
        if (self.girsanov or self.integrate or self.n_check_paths) and not self.alphas:
            raise ValueError("these tasks need at least one alpha")
        if self.integrate:
            for a in self.alphas:
                if grid.dt > a / 8.0 * (1 + 1e-12):
                    raise ValueError(
                        f"dt={grid.dt:g} too large for alpha={a:g}; "
                        f"need dt <= {a / 8.0:g}")
        if (self.n_check_paths or self.n_field_paths or self.track_gaps) \
                and not self.integrate:
            raise ValueError("bound checks, fields and gaps need integrate=True")
        if self.z_star_form not in ("half", "full"):
            raise ValueError("z_star_form must be 'half' or 'full'")
        for lvl in self.cert_levels:
            if lvl not in self.tau_levels:
                raise ValueError("certificate levels must be tracked tau levels")
        for lvl in self.stop_zeta_levels:
            if lvl not in self.tau_levels:
                raise ValueError("stop-zeta levels must be tracked tau levels")


@dataclass(eq=False)
class EnsembleResult:
    n_paths: int
    alphas: tuple
    grid: PathGrid
    tasks: EnsembleTasks
    final_w0: np.ndarray
    w0_max: np.ndarray
    w_max: np.ndarray
    zeta_mart: np.ndarray | None = None
    zeta_quad: np.ndarray | None = None
    rt_mart: np.ndarray | None = None
    rt_quad: np.ndarray | None = None
    tau_half: np.ndarray | None = None
    tau_full: np.ndarray | None = None
    stopped_mart: np.ndarray | None = None
    stopped_quad: np.ndarray | None = None
    bound_viol: dict = field(default_factory=dict)
    bound_margin: dict = field(default_factory=dict)
    cert_viol: dict = field(default_factory=dict)
    weight_viol: np.ndarray | None = None
    weight_margin: np.ndarray | None = None
    weight_overflow: np.ndarray | None = None
    weight_node: np.ndarray | None = None
    weight_lhs: np.ndarray | None = None
    weight_rhs: np.ndarray | None = None
    weight_viol_derived: np.ndarray | None = None
    weight_margin_derived: np.ndarray | None = None
    sup_gaps: np.ndarray | None = None
    field_x: np.ndarray | None = None
    field_w0: np.ndarray | None = None
    field_runmax: np.ndarray | None = None
    snap_times: np.ndarray | None = None
    p0_counts: np.ndarray | None = None
    z_final: np.ndarray | None = None

    @property
    def tau(self) -> np.ndarray | None:
        return self.tau_half if self.tasks.z_star_form == "half" else self.tau_full

    def log_rho(self) -> np.ndarray:
        return self.zeta_mart - 0.5 * self.zeta_quad

    def log_rho_tilde(self) -> np.ndarray:
        return self.rt_mart + 0.5 * self.rt_quad

    def stopped_log_rho(self) -> np.ndarray:
        return self.stopped_mart - 0.5 * self.stopped_quad

    def final_w(self, model: GalerkinModel) -> np.ndarray:
        decay = np.exp(model.eigenvalues * self.grid.horizon)
        return self.final_w0 + decay * model.x0

    def density_ensemble(self, model: GalerkinModel, drift: Drift,
                         master_seed: int) -> DensityEnsemble:
        return DensityEnsemble(
            alphas=self.alphas, drift_id=drift.describe(),
            model_id=model.describe(), n_paths=self.n_paths,
            master_seed=master_seed, log_rho=self.log_rho(),
            log_rho_tilde=(self.log_rho_tilde()
                           if self.rt_mart is not None else None),
            tau_levels=self.tasks.tau_levels, tau=self.tau,
            stopped_log_rho=(self.stopped_log_rho()
                             if self.stopped_mart is not None else None),
            stop_levels=self.tasks.stop_zeta_levels,
            horizon=self.grid.horizon)


def _run_block(model: GalerkinModel, drift: Drift, grid: PathGrid,
               tasks: EnsembleTasks, master_seed: int, p_lo: int, p_hi: int):
    B, N, d = p_hi - p_lo, grid.n_steps, model.dim
    dt = grid.dt
    times = grid.times
    decay, g1, g2 = step_constants(model, dt)
    sq = np.sqrt(dt)
    beta = regularized_beta(model, tasks.lambda_y)
    e_bdt = np.exp(-beta * dt)
    alphas = tasks.alphas
    A = len(alphas)
    alpha_col = np.asarray(alphas, dtype=float)[:, None]   # against (A, B) norms
    alpha_st = alpha_col[:, :, None]                       # against (A, B, d) states
    integrate = tasks.integrate
    girsanov = tasks.girsanov
    sig = model.sigma_diag
    if integrate:
        eig = model.eigenvalues if tasks.lambda_y is None else \
            yosida_eigenvalues(model, tasks.lambda_y)
        flow = np.exp(eig * dt)
    mean_path = np.exp(np.outer(times, model.eigenvalues)) * model.x0
    mean_norm = norm(mean_path)
    xn = float(np.linalg.norm(model.x0))
    ebt = np.exp(-beta * times)
    slack = 1.0 + tasks.slack_mult * dt
    weights = tasks.weights
    Wn = len(weights)
    with np.errstate(over="ignore"):
        head = [0.5 * ebt * float(w.value(4.0 * xn * xn)) for w in weights]

    levels = tasks.tau_levels
    L = len(levels)
    lvl_col = np.asarray(levels, dtype=float)[:, None]
    Ls = len(tasks.stop_zeta_levels)
    stop_li = [levels.index(lvl) for lvl in tasks.stop_zeta_levels]
    cert_li = [levels.index(lvl) for lvl in tasks.cert_levels]
    cert_lvl = np.asarray(tasks.cert_levels, dtype=float)[:, None, None]
    c = int(np.clip(tasks.n_check_paths - p_lo, 0, B))
    f = int(np.clip(tasks.n_field_paths - p_lo, 0, B))
    stride = tasks.field_stride
    snap_ks = list(range(0, N + 1, stride)) if (f and stride) else []
    S = len(snap_ks)
    s_arr = np.asarray(tasks.s_grid, dtype=float)
    m = s_arr.size

    # mutable state; the regularized state of every alpha is one (A, B, d) array
    w0 = np.zeros((B, d))
    z = np.tile(model.x0, (A, B, 1)) if integrate else None
    I1 = np.zeros(B)
    I2 = np.zeros(B)
    a_prev = None
    a2_prev = None
    runmax_w0 = np.zeros(B)
    runmax_w = np.zeros(B)
    zeta_mart = np.zeros((A, B)) if girsanov else None
    zeta_quad = np.zeros((A, B)) if girsanov else None
    rt_mart = np.zeros((A, B)) if girsanov and integrate else None
    rt_quad = np.zeros((A, B)) if girsanov and integrate else None
    tau_h = np.full((L, B), grid.horizon)
    tau_f = np.full((L, B), grid.horizon)
    hit_h = np.zeros((L, B), dtype=bool)
    hit_f = np.zeros((L, B), dtype=bool)
    frozen = np.zeros((Ls, B), dtype=bool)
    stopped_mart = np.zeros((Ls, A, B)) if (Ls and girsanov) else None
    stopped_quad = np.zeros((Ls, A, B)) if (Ls and girsanov) else None
    bnames = ("z_half", "z_full", "x_full", "gronwall_sq")
    bviol = {n: np.zeros((A, c), dtype=np.int64) for n in bnames} if c else {}
    bmarg = {n: np.full((A, c), np.inf) for n in bnames} if c else {}
    cert = {n: np.zeros((len(tasks.cert_levels), A, c), dtype=np.int64)
            for n in ("half", "full", "half_raw", "full_raw")} \
        if (c and tasks.cert_levels) else {}
    wviol = np.zeros((Wn, A, c), dtype=np.int64) if (c and Wn) else None
    wmarg = np.full((Wn, A, c), np.inf) if (c and Wn) else None
    wviol4 = np.zeros((Wn, A, c), dtype=np.int64) if (c and Wn) else None
    wmarg4 = np.full((Wn, A, c), np.inf) if (c and Wn) else None
    wnode = np.zeros((Wn, A, c), dtype=np.int64) if (c and Wn) else None
    wlhs = np.zeros((Wn, A, c)) if (c and Wn) else None
    wrhs = np.full((Wn, A, c), np.inf) if (c and Wn) else None
    wover = np.zeros(Wn, dtype=np.int64)
    gaps = np.zeros((A - 1, B)) if (tasks.track_gaps and A > 1) else None
    fx = np.zeros((A, f, S, d)) if S else None
    fw0 = np.zeros((f, S, d)) if S else None
    frm = np.zeros((f, S)) if S else None
    p0c = np.zeros((N + 1, m), dtype=np.int64) if m else None

    rngs = [path_rng(master_seed, i) for i in range(p_lo, p_hi)]
    buf = np.empty((B, CHUNK_STEPS, 2, d))
    ws_w = ws_x = ws_z = None   # (A, B) warm-start states, one per role

    def node(k):
        nonlocal I1, I2, a_prev, a2_prev
        t = times[k]
        norm_w0 = norm(w0)
        w_cur = w0 + mean_path[k]
        norm_w = norm(w_cur)
        np.maximum(runmax_w0, norm_w0, out=runmax_w0)
        np.maximum(runmax_w, norm_w, out=runmax_w)
        if L or c:
            a_now = np.asarray(drift.bound(norm_w0), dtype=float)
            a2_now = a_now * a_now
            if k > 0:
                I1 = e_bdt * I1 + 0.5 * dt * (e_bdt * a_prev + a_now)
                I2 = e_bdt * I2 + 0.5 * dt * (e_bdt * a2_prev + a2_now)
            a_prev, a2_prev = a_now, a2_now

        X = z + w0 if integrate else None
        normX = norm(X) if integrate else None

        if L:
            zs_h = xn * ebt[k] + 0.5 * I1
            zs_f = zs_h + 0.5 * I1
            base = mean_norm[k] + norm_w
            new_h = ~hit_h & (zs_h + base >= lvl_col)
            tau_h[new_h] = t
            np.logical_or(hit_h, new_h, out=hit_h)
            new_f = ~hit_f & (zs_f + base >= lvl_col)
            tau_f[new_f] = t
            np.logical_or(hit_f, new_f, out=hit_f)
            if stopped_mart is not None:
                primary_new = new_h if tasks.z_star_form == "half" else new_f
                for si, li in enumerate(stop_li):
                    fresh = primary_new[li] & ~frozen[si]
                    if fresh.any():
                        frozen[si] |= fresh
                        stopped_mart[si][:, fresh] = zeta_mart[:, fresh]
                        stopped_quad[si][:, fresh] = zeta_quad[:, fresh]

        if c:
            rhs_h = xn * ebt[k] + 0.5 * I1[:c]
            rhs_f = xn * ebt[k] + I1[:c]
            rhs_x = rhs_f + norm_w0[:c]
            rhs_sq = xn * xn * ebt[k] + I2[:c] / beta
            zn = norm(z[:, :c])
            nx = normX[:, :c]
            for name, lhs, rhs in (("z_half", zn, rhs_h),
                                   ("z_full", zn, rhs_f),
                                   ("x_full", nx, rhs_x),
                                   ("gronwall_sq", zn * zn, rhs_sq)):
                margin = rhs * slack - lhs
                bviol[name] += margin < 0
                np.minimum(bmarg[name], margin, out=bmarg[name])
            if cert:
                act_h = (tau_h[cert_li, :c] >= t - 1e-15)[:, None, :]
                act_f = (tau_f[cert_li, :c] >= t - 1e-15)[:, None, :]
                above_slack = nx > cert_lvl * slack
                above = nx > cert_lvl
                cert["half"] += act_h & above_slack
                cert["half_raw"] += act_h & above
                cert["full"] += act_f & above_slack
                cert["full_raw"] += act_f & above
            if Wn:
                # every weight is evaluated once per node on one stacked array:
                # rows 0-3 hold the right-side arguments (stated 2x, derived
                # 4x), rows 4.. the left side |X|^2 of each alpha
                a_rm = np.asarray(drift.bound(runmax_w0[:c]), dtype=float)
                with np.errstate(over="ignore"):
                    n2 = norm_w0[:c] ** 2
                    ab2 = a_rm**2 / beta**2
                    args = np.concatenate((
                        [2.0 * n2, 2.0 * ab2, 4.0 * n2, 4.0 * ab2], nx ** 2))
                for wi, wf in enumerate(weights):
                    with np.errstate(over="ignore"):
                        val = wf.value(args)
                        rhs = head[wi][k] + 0.5 * val[0] + 0.5 * beta * t * val[1]
                        rhs4 = head[wi][k] + 0.5 * val[2] + 0.5 * beta * t * val[3]
                    lhs = val[4:]
                    finite = np.isfinite(lhs) & np.isfinite(rhs)
                    wover[wi] += int(np.count_nonzero(~finite))
                    margin = np.where(finite, rhs * slack - lhs, np.inf)
                    wviol[wi] += finite & (margin < 0)
                    sel = margin < wmarg[wi]
                    np.copyto(wnode[wi], k, where=sel)
                    np.copyto(wlhs[wi], lhs, where=sel)
                    np.copyto(wrhs[wi], rhs, where=sel)
                    np.minimum(wmarg[wi], margin, out=wmarg[wi])
                    fin4 = np.isfinite(lhs) & np.isfinite(rhs4)
                    margin4 = np.where(fin4, rhs4 * slack - lhs, np.inf)
                    wviol4[wi] += fin4 & (margin4 < 0)
                    np.minimum(wmarg4[wi], margin4, out=wmarg4[wi])

        if S and k % stride == 0:
            pos = k // stride
            fx[:, :, pos] = X[:, :f]
            fw0[:, pos] = w0[:f]
            frm[:, pos] = runmax_w0[:f]

        if m:
            p0c[k] += np.count_nonzero(norm_w0[:, None] > s_arr, axis=0)

        if gaps is not None:
            np.maximum(gaps, norm(z[:-1] - z[1:]), out=gaps)
        return w_cur, X

    k = 0
    for chunk_start in range(0, N, CHUNK_STEPS):
        clen = min(CHUNK_STEPS, N - chunk_start)
        for b, rng in enumerate(rngs):
            rng.standard_normal(out=buf[b, :clen])
        for j in range(clen):
            k = chunk_start + j
            w_cur, X = node(k)
            xi1 = buf[:, j, 0, :]
            dWk = sq * xi1
            w0_next = decay * w0 + g1 * xi1 + g2 * buf[:, j, 1, :]
            t = times[k]
            if girsanov:
                J, ws_w = drift.resolvent_warm(t, alpha_col, w_cur, ws_w)
                v = ((J - w_cur) / alpha_st) / sig
                zeta_mart += colsum(v * dWk)
                zeta_quad += colsum(v * v) * dt
                if integrate:
                    Jx, ws_x = drift.resolvent_warm(t, alpha_col, X, ws_x)
                    u = ((Jx - X) / alpha_st) / sig
                    rt_mart += colsum(u * dWk)
                    rt_quad += colsum(u * u) * dt
            if integrate:
                zp = flow * z
                y = zp + w0_next
                Jz, ws_z = drift.resolvent_warm(times[k + 1], alpha_col, y, ws_z)
                z = zp + dt * (Jz - y) / alpha_st
            w0[...] = w0_next
    node(N)

    if stopped_mart is not None:
        for si in range(Ls):
            left = ~frozen[si]
            stopped_mart[si][:, left] = zeta_mart[:, left]
            stopped_quad[si][:, left] = zeta_quad[:, left]

    return {
        "final_w0": w0.copy(),
        "w0_max": runmax_w0, "w_max": runmax_w,
        "zeta_mart": zeta_mart, "zeta_quad": zeta_quad,
        "rt_mart": rt_mart, "rt_quad": rt_quad,
        "tau_half": tau_h if L else None, "tau_full": tau_f if L else None,
        "stopped_mart": stopped_mart, "stopped_quad": stopped_quad,
        "bound_viol": bviol, "bound_margin": bmarg, "cert_viol": cert,
        "weight_viol": wviol, "weight_margin": wmarg, "weight_overflow": wover,
        "weight_node": wnode, "weight_lhs": wlhs, "weight_rhs": wrhs,
        "weight_viol_derived": wviol4, "weight_margin_derived": wmarg4,
        "sup_gaps": gaps,
        "field_x": fx, "field_w0": fw0, "field_runmax": frm,
        "p0_counts": p0c,
        "z_final": z if integrate and A else None,
    }


def _block_star(args):
    return _run_block(*args)


def _cat(parts, key, axis):
    vals = [p[key] for p in parts if p[key] is not None]
    if not vals:
        return None
    return np.concatenate(vals, axis=axis)


def run_ensemble(model: GalerkinModel, drift: Drift, grid: PathGrid,
                 tasks: EnsembleTasks, n_paths: int, master_seed: int,
                 block_size: int = BLOCK_SIZE, n_workers: int = 1) -> EnsembleResult:
    """Run the streaming pass over ``n_paths`` paths.

    ``block_size`` and ``n_workers`` affect speed and memory only, never the
    numbers: per-path noise streams and per-path accumulators are independent
    of the blocking.  ``drift`` may be ``None`` for drift-free passes.
    """
    if drift is None:
        from .drifts import ZeroDrift

        drift = ZeroDrift()
    tasks.validate(grid)
    specs = [(model, drift, grid, tasks, master_seed, lo,
              min(lo + block_size, n_paths))
             for lo in range(0, n_paths, block_size)]
    if n_workers > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as ex:
            parts = list(ex.map(_block_star, specs))
    else:
        parts = [_run_block(*s) for s in specs]

    bviol, bmarg, certs = {}, {}, {}
    if parts[0]["bound_viol"]:
        for name in parts[0]["bound_viol"]:
            bviol[name] = np.concatenate([p["bound_viol"][name] for p in parts
                                          if p["bound_viol"]], axis=1)
            bmarg[name] = np.concatenate([p["bound_margin"][name] for p in parts
                                          if p["bound_margin"]], axis=1)
    if parts[0]["cert_viol"]:
        for name in parts[0]["cert_viol"]:
            certs[name] = np.concatenate([p["cert_viol"][name] for p in parts
                                          if p["cert_viol"]], axis=2)
    wover = None
    if parts[0]["weight_overflow"] is not None:
        wover = np.sum([p["weight_overflow"] for p in parts], axis=0)
    p0 = None
    if parts[0]["p0_counts"] is not None:
        p0 = np.sum([p["p0_counts"] for p in parts], axis=0)
    snap_times = None
    if tasks.field_stride and tasks.n_field_paths:
        snap_times = grid.times[::tasks.field_stride]

    return EnsembleResult(
        n_paths=n_paths, alphas=tasks.alphas, grid=grid, tasks=tasks,
        final_w0=_cat(parts, "final_w0", 0),
        w0_max=_cat(parts, "w0_max", 0),
        w_max=_cat(parts, "w_max", 0),
        zeta_mart=_cat(parts, "zeta_mart", 1),
        zeta_quad=_cat(parts, "zeta_quad", 1),
        rt_mart=_cat(parts, "rt_mart", 1),
        rt_quad=_cat(parts, "rt_quad", 1),
        tau_half=_cat(parts, "tau_half", 1),
        tau_full=_cat(parts, "tau_full", 1),
        stopped_mart=_cat(parts, "stopped_mart", 2),
        stopped_quad=_cat(parts, "stopped_quad", 2),
        bound_viol=bviol, bound_margin=bmarg, cert_viol=certs,
        weight_viol=_cat(parts, "weight_viol", 2),
        weight_margin=_cat(parts, "weight_margin", 2),
        weight_overflow=wover,
        weight_node=_cat(parts, "weight_node", 2),
        weight_lhs=_cat(parts, "weight_lhs", 2),
        weight_rhs=_cat(parts, "weight_rhs", 2),
        weight_viol_derived=_cat(parts, "weight_viol_derived", 2),
        weight_margin_derived=_cat(parts, "weight_margin_derived", 2),
        sup_gaps=_cat(parts, "sup_gaps", 1),
        field_x=_cat(parts, "field_x", 1),
        field_w0=_cat(parts, "field_w0", 0),
        field_runmax=_cat(parts, "field_runmax", 0),
        snap_times=snap_times,
        p0_counts=p0,
        z_final=_cat(parts, "z_final", 1),
    )
