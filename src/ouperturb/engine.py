"""Streaming ensemble runner.

Processes path blocks step by step without storing trajectories, so ensembles
of 1e5 paths on 1e4-node grids fit in memory.  Per path, every accumulation
happens in fixed step order from a per-path generator stream, so results are
bit-identical for any block size and any worker count.

Blocks.  :func:`split_paths` gives each block an equal share of the checked
paths and of the others.  A block's ids ascend, so its checked and field
paths are its leading rows; :func:`run_ensemble` joins each block result in
path-id order by the rule that its :class:`EnsembleResult` field declares.

Mode-major state.  The path state is stored with the mode axis slowest in
memory: ``w0`` is a ``(B, d)`` view of a ``(d, B)`` array, and likewise the
regularized states ``z`` and the role stack below.  The mode axis is still
the last axis of every view, so the code reads as on ``(..., d)`` arrays,
and every array computed from them follows the same layout through numpy's
``order='K'``.  Each mode's column is then one contiguous row, which is what
the per-mode broadcasts and the :func:`drifts.colsum` sums over the short
mode axis read.  Each step's noise is copied once into a ``(2, d, B)`` slab.

The regularized states of all alphas form one ``(A, B, d)`` array (alphas,
paths of the block, modes), and the Girsanov sums and the in-pass diagnostics
act on the alpha axis at once.  All three roles of a step are known when it
begins: the source path ``w`` and the perturbed path ``X`` at ``t_k``, and
the implicit step's ``y = decay * z + w0_{k+1}`` at ``t_{k+1}``.  An
integrate pass writes them into one preallocated ``(3, A, B, d)`` stack
(``w`` broadcast over the alphas) and makes one ``resolvent_warm`` call per
step, with a ``(3, 1, 1)`` time column, one time per role, and alpha as
an ``(A, 1)`` column against the ``(3, A, B)`` norms; without Girsanov only
the ``y`` row is resolved.  A Girsanov-only pass resolves ``w`` alone, as a
``(B, d)`` state.  The call is a pure function of ``(t, alpha, x)``; it
keeps its old name because ``perfbench/tracer.py`` patches it by name.  It
returns the Yosida regularization factored as ``coef[..., None] * base``,
and each role reads its row: the Girsanov sums add
``coef * colsum((base/sig) * dW)`` and ``coef**2 * colsum((base/sig)**2) * dt``
to the rows of ``zeta`` (``w``) or ``zeta_tilde`` (``X``), and the implicit
step adds ``dt * coef`` times ``base``.  For the radial drifts ``base`` is
the stack itself, so the ``w`` sums run on the unbroadcast ``(B, d)`` state,
once for all alphas; other kinds return ``coef = 1`` and the
full regularization as ``base``, and the ``w`` sums read its ``w`` row.  Sums
over the mode axis go through :func:`drifts.colsum` in a fixed order.  The
radial resolvents solve their norm equation in closed form for growth power 2
(:func:`drifts.radial_scale`), with a cold-started Newton fallback for an
element whose polished residual misses its contract, and by that Newton
solve for any other power.  The closed form and the Newton solve both act
per element, so a value depends neither on the other paths of its block,
nor on the other alphas of the run, nor on the other roles of its step, nor
on the memory layout: that is what makes the cubic and time-modulated
drifts invariant to block size, worker count and alpha set, and the stacked
call bitwise equal to one call per role.

Record and flush.  A step runs only what must run in sequence: the exact OU
step, the Girsanov sums, and the implicit regularized step with its
resolvents.  Before each step it records what the diagnostics need of the
node into chunk buffers: ``|w0|`` of every path, ``|w|`` of every path when
stopping times are asked for, ``|z|`` and ``|X|`` of the checked paths, the
adjacent-alpha gaps, and the running exponents when stopped exponents are
asked for.  Every ``CHUNK_STEPS`` nodes the buffers are flushed, and each
diagnostic folds the whole chunk at once along its time axis: running maxima
by accumulation, first hits by argmax, counts and worst margins by
reductions.  The exp-decay envelopes ``I1``, ``I2`` are the only
recurrences; the flush runs them row by row on ``(B,)`` vectors.  From
``I1`` it forms the transient envelope ``e^{-beta t}|x0| + coef * I1`` once
per flush, in both forms of :data:`ENVELOPE_FORMS` as one ``(n, 2, B)``
array, which the stopping times, the bound checks and the level
certificates all read.  Each element goes through the same floating-point
operations as it would node by node, and min, max and count reductions do
not depend on order, so no result depends on ``CHUNK_STEPS``.  The chunk
length bounds the buffers and the flush temporaries, which grow with it.

One pass computes what its :class:`EnsembleTasks` ask for, per
regularization parameter; :class:`EnsembleResult` lists each output with its
shape.  The regularized step flows with the model's own generator, and
every envelope decays at the model's ``beta``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .drifts import Drift, ZeroDrift, colsum, norm
from .model import GalerkinModel, semigroup_apply
from .ou import PathGrid, ou_step, path_rng, step_constants
from .weights import MOMENT_FORMS, SLACK_MULT, moment_rhs

BLOCK_SIZE = 1024
CHUNK_STEPS = 32     # nodes per noise draw and per diagnostics flush
ENVELOPE_FORMS = {"half": 0.5, "full": 1.0}   # forcing coefficient, in axis order
BOUND_FORMS = ("z_half", "z_full", "x_full", "gronwall_sq")   # z_half is stated


@dataclass(frozen=True)
class EnsembleTasks:
    """What the streaming pass should compute.

    Each of ``tau_levels`` gets a stopping time in both forms of
    :data:`ENVELOPE_FORMS`: ``tau[0]`` under the stated half-coefficient
    envelope, ``tau[1]`` under the derived full one.  The exponents of
    ``stop_zeta_levels`` stop at ``tau[0]``.
    """

    alphas: tuple = ()
    integrate: bool = False
    girsanov: bool = False
    tau_levels: tuple = ()
    stop_zeta_levels: tuple = ()
    n_check_paths: int = 0
    weights: tuple = ()
    cert_levels: tuple = ()
    n_field_paths: int = 0
    field_stride: int = 0
    s_grid: tuple = ()
    track_gaps: bool = False

    def validate(self, grid: PathGrid):
        if (self.girsanov or self.integrate or self.n_check_paths) and not self.alphas:
            raise ValueError("these tasks need at least one alpha")
        for a in self.alphas:
            if not (np.isfinite(a) and a > 0):
                raise ValueError(f"alpha={a!r} must be finite and > 0")
        if self.integrate:
            for a in self.alphas:
                if grid.dt > a / 8.0 * (1 + 1e-12):
                    raise ValueError(
                        f"dt={grid.dt:g} too large for alpha={a:g}; "
                        f"need dt <= {a / 8.0:g}")
        if (self.n_check_paths or self.n_field_paths or self.track_gaps) \
                and not self.integrate:
            raise ValueError("bound checks, fields and gaps need integrate=True")
        for lvl in (*self.cert_levels, *self.stop_zeta_levels):
            if lvl not in self.tau_levels:
                raise ValueError("certificate and stop-zeta levels must be "
                                 "tracked tau levels")


def _out(axis: int, paths: str):
    """A pass output, joined along ``axis`` in the order of the paths it holds
    (``"every"``, ``"checked"`` or ``"fields"``), or summed over the blocks
    (``"sum"``)."""
    return field(metadata={"join": (axis, paths)})


@dataclass(eq=False)
class EnsembleResult:
    """The joined outputs of one pass, each one array.  Shapes, for ``P``
    paths (the first ``c`` checked, the first ``f`` with fields), ``A``
    alphas, ``L`` tau levels (``Ls`` stopping the exponents, ``Lc``
    certified), ``W`` weights, ``S`` snapshots, ``m`` tail levels, ``N``
    steps and ``d`` modes: ``final_w0`` ``(P, d)``, ``w0_max`` ``(P,)``,
    ``z_final`` ``(A, P, d)``; the exponent sums ``zeta`` (along ``w``) and
    ``zeta_tilde`` (along ``X``) ``(2, A, P)``, rows martingale and
    quadratic, ``zeta_stopped`` ``(Ls, 2, A, P)``; ``tau`` ``(2, L, P)`` and
    ``cert_viol`` ``(2, Lc, A, c)`` in the forms of :data:`ENVELOPE_FORMS`,
    ``bound_viol`` and ``bound_margin`` ``(4, A, c)`` in :data:`BOUND_FORMS`;
    the weight checks ``(2, W, A, c)`` (overflow ``(2, W)``) in
    :data:`weights.MOMENT_FORMS`, the stated form's worst node ``(W, A, c)``;
    ``sup_gaps`` ``(A - 1, P)``; ``field_x`` ``(A, f, S, d)``, ``field_w0``
    ``(f, S, d)``, ``field_runmax`` ``(f, S)``; ``p0_counts`` ``(N + 1, m)``.

    An output that no task asked for has an axis of length 0, never
    ``None``: the alpha axis of the exponents without Girsanov (and of
    ``zeta_tilde`` and ``z_final`` without integration), the gap axis
    without ``track_gaps``, ``S`` without fields.  Every axis but the path
    axis comes from the tasks, so the blocks always join.
    """

    n_paths: int
    grid: PathGrid
    tasks: EnsembleTasks
    final_w0: np.ndarray = _out(0, "every")
    w0_max: np.ndarray = _out(0, "every")
    zeta: np.ndarray = _out(2, "every")
    zeta_tilde: np.ndarray = _out(2, "every")
    zeta_stopped: np.ndarray = _out(3, "every")
    tau: np.ndarray = _out(2, "every")
    bound_viol: np.ndarray = _out(2, "checked")
    bound_margin: np.ndarray = _out(2, "checked")
    cert_viol: np.ndarray = _out(3, "checked")
    weight_viol: np.ndarray = _out(3, "checked")
    weight_margin: np.ndarray = _out(3, "checked")
    weight_overflow: np.ndarray = _out(0, "sum")
    weight_node: np.ndarray = _out(2, "checked")
    weight_lhs: np.ndarray = _out(2, "checked")
    weight_rhs: np.ndarray = _out(2, "checked")
    sup_gaps: np.ndarray = _out(1, "every")
    field_x: np.ndarray = _out(1, "fields")
    field_w0: np.ndarray = _out(0, "fields")
    field_runmax: np.ndarray = _out(0, "fields")
    p0_counts: np.ndarray = _out(0, "sum")
    z_final: np.ndarray = _out(1, "every")
    blocks: tuple = ()      # (paths, checked paths) of each block, in order

    @property
    def snap_times(self) -> np.ndarray:
        """The times of the field snapshots (none without fields)."""
        return self.grid.times[::self.tasks.field_stride or 1][:self.field_x.shape[2]]

    # the change-of-measure exponents: (A, P), (A, P) and (Ls, A, P)
    @cached_property
    def log_rho(self) -> np.ndarray:
        return self.zeta[0] - 0.5 * self.zeta[1]

    @cached_property
    def log_rho_tilde(self) -> np.ndarray:
        return self.zeta_tilde[0] + 0.5 * self.zeta_tilde[1]

    @cached_property
    def stopped_log_rho(self) -> np.ndarray:
        return self.zeta_stopped[:, 0] - 0.5 * self.zeta_stopped[:, 1]

    def exit_counts(self) -> np.ndarray:
        """Per tau level: number of paths whose threshold hit strictly before T."""
        return np.sum(self.tau[0] < self.grid.horizon - 1e-15, axis=1).astype(int)

    def final_w(self, model: GalerkinModel) -> np.ndarray:
        return self.final_w0 + semigroup_apply(model, self.grid.horizon, model.x0)

    def density_ensemble(self, model: GalerkinModel, drift: Drift,
                         master_seed: int) -> EnsembleResult:
        """The result itself, under the name ``perfbench/op.py`` calls before
        it reads ``log_rho`` as an array; the arguments are not read."""
        return self


def _first_hits(reach, hit, tau, t):
    """Record the first crossing of each level within one chunk.

    ``reach`` is ``(n, ..., L, B)``: whether each node of the chunk is at or
    above each level.  A path not hit before the chunk gets ``tau`` = the time of
    its first reaching node.  Returns the mask of new hits and, per level and
    path, the chunk row of the first reaching node.
    """
    row = reach.argmax(axis=0)
    new = reach.any(axis=0) & ~hit
    tau[new] = t[row[new]]
    hit |= new
    return new, row


def _strict_new_min(margin, best):
    """Where a chunk's margins set a strict new minimum below ``best``.

    Scanning the rows in order, a node replaces the record when its margin is
    strictly below every margin before it; a NaN blocks all later
    replacements, since nothing compares below it.  The row kept is the
    first attaining the chunk's minimum among the rows before the first NaN.
    Returns the update mask and that row.
    """
    live = ~np.logical_or.accumulate(np.isnan(margin), axis=0)
    m = np.where(live, margin, np.inf)
    row = m.argmin(axis=0)
    return np.take_along_axis(m, row[None], axis=0)[0] < best, row


def _fold_margins(margin, viol, worst):
    """Fold a chunk's ``(n, ...)`` margins into violation counts and the
    worst margin of each entry.

    Fails closed: a node holds only when its margin is ``>= 0``, so a NaN
    margin is a violation, and it stays the worst margin.
    """
    viol += np.count_nonzero(~(margin >= 0), axis=0)
    np.minimum(worst, margin.min(axis=0), out=worst)


def _run_block(model: GalerkinModel, drift: Drift, grid: PathGrid,
               tasks: EnsembleTasks, master_seed: int, ids: np.ndarray):
    B, N, d = len(ids), grid.n_steps, model.dim
    dt = grid.dt
    times = grid.times
    decay, a1, a2 = step_constants(model, dt)
    sq = np.sqrt(dt)
    beta = model.beta
    e_bdt = np.exp(-beta * dt)
    alphas = tasks.alphas
    A = len(alphas)
    alpha_col = np.asarray(alphas, dtype=float)[:, None]   # against (A, B) norms
    integrate = tasks.integrate
    girsanov = tasks.girsanov
    sig = model.sigma_diag
    mean_path = semigroup_apply(model, times, model.x0)
    mean_norm = norm(mean_path)
    xn = float(norm(model.x0))
    ebt = np.exp(-beta * times)
    slack = 1.0 + SLACK_MULT * dt
    weights = tasks.weights
    Wn = len(weights)

    levels = tasks.tau_levels
    L = len(levels)
    lvl_col = np.asarray(levels, dtype=float)[:, None]
    stop_li = [levels.index(lvl) for lvl in tasks.stop_zeta_levels]
    cert_li = [levels.index(lvl) for lvl in tasks.cert_levels]
    cert_lvl = np.asarray(tasks.cert_levels, dtype=float)[:, None, None]
    # ids ascend, so the checked and the field paths are the leading rows
    c = int(np.count_nonzero(ids < tasks.n_check_paths))
    f = int(np.count_nonzero(ids < tasks.n_field_paths))
    # every other axis comes from the tasks, so that every block joins
    stride = tasks.field_stride
    S = len(range(0, N + 1, stride)) if (tasks.n_field_paths and stride) else 0
    G = A - 1 if (tasks.track_gaps and A > 1) else 0
    Ag = A if girsanov else 0          # alphas of the exponents
    s_arr = np.asarray(tasks.s_grid, dtype=float)
    m = s_arr.size

    # mutable state, stored mode-major: the mode axis is last in every view
    # but slowest in memory, so each mode's column is one contiguous row;
    # the regularized state of every alpha is one (A, B, d) array
    w0 = np.zeros((d, B)).T
    z = np.tile(model.x0[:, None, None],
                (1, A if integrate else 0, B)).transpose(1, 2, 0)
    runmax_w0 = np.zeros(B)
    zeta = np.zeros((2, Ag, B))                     # martingale, quadratic
    zeta_t = np.zeros((2, Ag if integrate else 0, B))
    nE, nB, nM = len(ENVELOPE_FORMS), len(BOUND_FORMS), len(MOMENT_FORMS)
    tau = np.full((nE, L, B), grid.horizon)
    hit = np.zeros((nE, L, B), dtype=bool)
    stopped = np.zeros((len(stop_li), 2, Ag, B))
    bviol = np.zeros((nB, A, c), dtype=np.int64)
    bmarg = np.full((nB, A, c), np.inf)
    cert = np.zeros((nE, len(tasks.cert_levels), A, c), dtype=np.int64)
    wviol = np.zeros((nM, Wn, A, c), dtype=np.int64)
    wmarg = np.full((nM, Wn, A, c), np.inf)
    wnode, wlhs, wrhs = (np.zeros((Wn, A, c), dtype=np.int64), np.zeros((Wn, A, c)),
                         np.full((Wn, A, c), np.inf))
    wover = np.zeros((nM, Wn), dtype=np.int64)
    gaps = np.zeros((G, B))
    fx = np.zeros((A, f, S, d))
    fw0 = np.zeros((f, S, d))
    frm = np.zeros((f, S))
    p0c = np.zeros((N + 1, m), dtype=np.int64)
    env_coef = np.array(list(ENVELOPE_FORMS.values()))[:, None]   # against (2, B)

    # chunk buffers: row j holds node chunk_start + j.  The drift bound and
    # the exp-decay envelopes I1, I2 keep one more row in front, the node
    # before the chunk, to carry their recurrences across chunks.
    F = CHUNK_STEPS
    noise = np.empty((B, F, 2, d))
    r_nw0, r_nw = np.empty((2, F, B))
    r_nz, r_nx = np.empty((2, F, A, c))
    r_gap = np.empty((F, G, B))
    r_zeta = np.empty((F, 2, A, B)) if (stop_li and girsanov) else None
    need_I = bool(L or c)
    r_a, r_I1, r_I2 = np.zeros((3, F + 1, B))
    cols = np.arange(c)

    # each diagnostic below reads the chunk buffers of nodes s .. s+n-1 and
    # folds them into its accumulators; as functions, their (n, ...)
    # temporaries are freed one diagnostic at a time

    def envelopes(s, n, nw0):
        """The ``(n, 2, B)`` transient envelope ``e^{-beta t}|x0| + coef * I1``
        in the forms of :data:`ENVELOPE_FORMS` and, for the checked paths,
        I2 at the chunk's nodes.

        ``I_k = e^{-beta dt} I_{k-1} + dt/2 (e^{-beta dt} a_{k-1} + a_k)``,
        ``I_0 = 0``, with ``a = drift.bound(|w0|)`` (squared for I2): the
        only recurrences among the diagnostics, run row by row.
        """
        r_a[1:n + 1] = drift.bound(nw0)
        first = 1 if s == 0 else 0
        for r_I, a_rows in zip((r_I1, r_I2), (r_a, r_a * r_a) if c else (r_a,)):
            inc = 0.5 * dt * (e_bdt * a_rows[:n] + a_rows[1:n + 1])
            for j in range(first, n):
                np.multiply(r_I[j], e_bdt, out=r_I[j + 1])
                r_I[j + 1] += inc[j]
            r_I[0] = r_I[n]
        r_a[0] = r_a[n]
        env = (xn * ebt[s:s + n])[:, None, None] + env_coef * r_I1[1:n + 1, None]
        return env, r_I2[1:n + 1, :c]

    def stopping_times(s, n, t, env, nw):
        base = (mean_norm[s:s + n, None] + nw)[:, None]
        new, row = _first_hits((env + base)[:, :, None] >= lvl_col, hit, tau, t)
        if r_zeta is None:
            return
        # freeze the exponents of the new half-form hits at their hitting node
        for si, li in enumerate(stop_li):
            idx = np.flatnonzero(new[0, li])
            if idx.size:
                stopped[si][..., idx] = np.moveaxis(r_zeta[row[0, li, idx], ..., idx],
                                                    0, -1)

    def bound_checks(s, n, env, I2, nw0):
        nz, nx = r_nz[:n], r_nx[:n]
        half, full = env[:, 0, :c], env[:, 1, :c]
        for bi, (lhs, rhs) in enumerate((      # in the order of BOUND_FORMS
                (nz, half), (nz, full), (nx, full + nw0[:, :c]),
                (nz * nz, (xn * xn * ebt[s:s + n])[:, None] + I2 / beta))):
            _fold_margins((rhs * slack)[:, None] - lhs, bviol[bi], bmarg[bi])

    def certificates(t, nx):
        # tau after the chunk's update: a path hit at row r has tau = t[r] >=
        # every earlier node, so the test matches the node-by-node one, which
        # saw tau = horizon before the hit
        lim = (t - 1e-15)[:, None, None, None]
        act = (tau[:, cert_li, :c] >= lim)[..., None, :]      # (n, 2, Lc, 1, c)
        above = nx[:, None] > cert_lvl * slack                # (n, Lc, A, c)
        cert[...] += np.count_nonzero(act & above[:, None], axis=0)

    def weight_check(wi, s, t, n2, ab2, x2):
        """The weighted moment bound in each form of :data:`MOMENT_FORMS`
        (right side :func:`weights.moment_rhs`); the stated form also records
        its worst node.

        An overflowing left side gives a ``-inf`` or NaN margin, a violation;
        an overflowing right side alone holds.  Nodes with either side
        non-finite are counted as overflow.
        """
        wf = weights[wi]
        with np.errstate(over="ignore"):
            lhs = wf.value(x2)
        lhs_ok = np.isfinite(lhs)
        for fi, k in enumerate(MOMENT_FORMS.values()):
            rhs = moment_rhs(wf, beta, t[:, None], xn, n2, ab2, k)
            margin = (rhs * slack)[:, None] - lhs
            if fi == 0:
                upd, row = _strict_new_min(margin, wmarg[0, wi])
                wnode[wi][upd] = s + row[upd]
                wlhs[wi][upd] = np.take_along_axis(lhs, row[None], axis=0)[0][upd]
                wrhs[wi][upd] = rhs[row, cols][upd]
            _fold_margins(margin, wviol[fi, wi], wmarg[fi, wi])
            del margin
            ok = lhs_ok & np.isfinite(rhs)[:, None]
            wover[fi, wi] += ok.size - np.count_nonzero(ok)

    def flush(s, n):
        t = times[s:s + n]
        nw0 = r_nw0[:n]
        rm = np.maximum.accumulate(nw0, axis=0)
        np.maximum(rm, runmax_w0, out=rm)
        runmax_w0[...] = rm[-1]
        if need_I:
            env, I2 = envelopes(s, n, nw0)
        if L:
            stopping_times(s, n, t, env, r_nw[:n])
        if c:
            bound_checks(s, n, env, I2, nw0)
            certificates(t, r_nx[:n])
            if Wn:
                a_rm = np.asarray(drift.bound(rm[:, :c]), dtype=float)
                with np.errstate(over="ignore"):
                    n2 = nw0[:, :c] ** 2
                    ab2 = a_rm**2 / beta**2
                    x2 = r_nx[:n] ** 2
                for wi in range(Wn):
                    weight_check(wi, s, t, n2, ab2, x2)
        if S:
            ks = np.arange(s + (-s) % stride, s + n, stride)
            frm[:, ks // stride] = rm[ks - s, :f].T
        if m:
            p0c[s:s + n] += np.count_nonzero(nw0[:, :, None] > s_arr, axis=1)
        np.maximum(gaps, r_gap[:n].max(axis=0), out=gaps)

    def girsanov_sums(coef, base, dW, acc):
        """Add one step of ``<F/sig, dW>`` and ``|F/sig|^2 dt`` for the
        factored ``F = coef[..., None] * base`` to the rows of ``acc``."""
        mart, quad = acc
        v = base / sig
        mart += coef * colsum(v * dW)
        quad += coef * coef * colsum(v * v) * dt

    # each path's generator with its rows of the noise buffer
    paths = list(zip((path_rng(master_seed, i) for i in ids), noise))
    # an integrate pass resolves its roles in one call per step: the source
    # path w and the perturbed path X (with Girsanov) at t_k, and the
    # implicit step's y at t_{k+1}, stacked in that order along a role axis
    if integrate:
        stack = np.empty((d, 3, A, B)).transpose(1, 2, 3, 0)
        roles = stack if girsanov else stack[2:]
        t_roles = np.stack((times[:-1], times[:-1], times[1:]),
                           axis=1)[:, 3 - len(roles):, None, None]
    for s in range(0, N + 1, F):
        n = min(F, N + 1 - s)       # nodes s .. s+n-1; node N takes no step
        steps = min(n, N - s)
        for rng, rows in paths:
            rng.standard_normal(out=rows[:steps])
        for j in range(n):
            k = s + j
            # record what the diagnostics need of node k
            norm(w0, out=r_nw0[j])
            w_cur = w0 + mean_path[k]
            if L:
                norm(w_cur, out=r_nw[j])
            if integrate:
                X = np.add(z, w0, out=stack[1])
                if c:
                    norm(z[:, :c], out=r_nz[j])
                    norm(X[:, :c], out=r_nx[j])
                if G:
                    norm(z[:-1] - z[1:], out=r_gap[j])
                if f and S and k % stride == 0:
                    fx[:, :, k // stride] = X[:, :f]
                    fw0[:, k // stride] = w0[:f]
            if r_zeta is not None:
                r_zeta[j] = zeta
            if k == N:
                break
            # step k -> k+1, on the step's noise as one mode-major slab
            xi = noise[:, j].transpose(1, 2, 0).copy()
            xi1 = xi[0].T
            dWk = sq * xi1
            w0_next = ou_step(decay, a1, a2, w0, xi1, xi[1].T)
            if integrate:
                zp = decay * z
                np.add(zp, w0_next, out=stack[2])
                if girsanov:
                    stack[0] = w_cur
                coef, base = drift.resolvent_warm(t_roles[k], alpha_col, roles)
                if girsanov:
                    # a radial base is the stack itself: its w rows repeat
                    # w_cur, so the w sums run once on the (B, d) state
                    girsanov_sums(coef[0], w_cur if base is roles else base[0],
                                  dWk, zeta)
                    girsanov_sums(coef[1], base[1], dWk, zeta_t)
                z = zp + (dt * coef[-1])[..., None] * base[-1]
            elif girsanov:
                coef, base = drift.resolvent_warm(times[k], alpha_col, w_cur)
                girsanov_sums(coef, base, dWk, zeta)
            w0[...] = w0_next
        flush(s, n)

    for si, li in enumerate(stop_li):
        left = ~hit[0, li]
        stopped[si][..., left] = zeta[..., left]

    return {
        "final_w0": np.ascontiguousarray(w0),
        "w0_max": runmax_w0,
        "zeta": zeta, "zeta_tilde": zeta_t, "zeta_stopped": stopped, "tau": tau,
        "bound_viol": bviol, "bound_margin": bmarg, "cert_viol": cert,
        "weight_viol": wviol, "weight_margin": wmarg, "weight_overflow": wover,
        "weight_node": wnode, "weight_lhs": wlhs, "weight_rhs": wrhs,
        "sup_gaps": gaps, "p0_counts": p0c,
        "field_x": fx, "field_w0": fw0, "field_runmax": frm,
        "z_final": np.ascontiguousarray(z),
    }


def split_paths(n_paths: int, n_check: int, block_size: int) -> list:
    """The ascending path ids of each block of the pass.

    There are ``K = ceil(n_paths / block_size)`` blocks.  Block ``i`` holds
    the checked ids ``[nc*i//K, nc*(i+1)//K)``, ``nc = min(n_check,
    n_paths)``, followed by the next run of the other ids, so every block
    holds an equal share of the checked paths (within one) and of all paths
    (within one), and none holds more than ``block_size``.  The blocks with
    one more checked path take the extra paths first, so no block holds
    fewer paths than checked ones.  Read in block order, the checked ids
    ascend, and so do the other ids.
    """
    K = -(-n_paths // block_size)
    nc = min(n_check, n_paths)
    checked = np.diff(nc * np.arange(K + 1) // K)
    total = np.full(K, n_paths // K)
    total[np.argsort(-checked, kind="stable")[:n_paths % K]] += 1
    c_edge = np.concatenate(([0], np.cumsum(checked)))
    r_edge = nc + np.concatenate(([0], np.cumsum(total - checked)))
    return [np.concatenate((np.arange(c_edge[i], c_edge[i + 1]),
                            np.arange(r_edge[i], r_edge[i + 1])))
            for i in range(K)]


def _path_order(blocks, limit):
    """The permutation that puts the rows of the paths below ``limit``,
    joined block after block, in path-id order; ``None`` where they already
    ascend."""
    ids = np.concatenate([b[b < limit] for b in blocks])
    return None if np.all(ids[1:] > ids[:-1]) else np.argsort(ids)


def _cat(vals, order, axis):
    """Join one result array of every block along the path axis, in path-id
    order (``order`` from :func:`_path_order`).  A single block's array is
    returned as is, not copied."""
    if len(vals) == 1:
        return vals[0]
    out = np.concatenate(vals, axis=axis)
    return out if order is None else np.take(out, order, axis=axis)


def run_ensemble(model: GalerkinModel, drift: Drift, grid: PathGrid,
                 tasks: EnsembleTasks, n_paths: int, master_seed: int,
                 block_size: int = BLOCK_SIZE, n_workers: int = 1) -> EnsembleResult:
    """Run the streaming pass over ``n_paths`` paths.

    The paths are split into ``ceil(n_paths / block_size)`` blocks of at most
    ``block_size`` paths each (:func:`split_paths`); ``block_size`` bounds a
    block's state and chunk buffers, which grow linearly with it.  A checked
    path (one of the first ``n_check_paths``) costs more than the others, as
    the pathwise and weighted-moment checks run on it node by node, so every
    block takes an equal share of the checked paths and an equal share of
    the rest: the blocks then cost about the same, and ``n_workers`` worker
    processes finish them together.  The joined results are in path-id
    order.

    ``block_size`` and ``n_workers`` affect speed and memory only, never the
    numbers: per-path noise streams and per-path accumulators are independent
    of the blocking.  ``drift`` may be ``None`` for drift-free passes.
    """
    drift = ZeroDrift() if drift is None else drift
    tasks.validate(grid)
    blocks = split_paths(n_paths, tasks.n_check_paths, block_size)
    specs = [(model, drift, grid, tasks, master_seed, ids) for ids in blocks]
    if n_workers > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as ex:
            parts = list(ex.map(_run_block, *zip(*specs)))
    else:
        parts = [_run_block(*s) for s in specs]

    rules = {f.name: f.metadata["join"] for f in fields(EnsembleResult)
             if "join" in f.metadata}
    orders = {paths: _path_order(blocks, n) for paths, n in (
        ("every", n_paths), ("checked", tasks.n_check_paths),
        ("fields", tasks.n_field_paths))}
    joined = {}
    for key in parts[0]:
        if key not in rules:
            raise ValueError(f"block result {key!r} has no join rule")
        axis, paths = rules[key]
        vals = [p[key] for p in parts]
        joined[key] = np.sum(vals, axis=0) if paths == "sum" else \
            _cat(vals, orders[paths], axis)

    return EnsembleResult(
        n_paths=n_paths, grid=grid, tasks=tasks, **joined,
        blocks=tuple((len(ids), int(np.count_nonzero(ids < tasks.n_check_paths)))
                     for ids in blocks),
    )
