"""Acceptance suite: the numbered quantitative criteria at their stated scale.

Each test prints one PASS/FAIL line.  Two stated inequalities (the
half-coefficient transient envelope and the stated-coefficient weighted
moment bound) are violated by the data itself; they are implemented exactly
as stated, fail honestly, and the corrected variants are asserted alongside.
The tests for those two assert the refutation: on a closed-form
counterexample path the stated check reports the violation the closed form
predicts, and on the acceptance ensemble the stated form is violated while
its derived companion holds.  The derivations and both counterexamples are
in notes/decisions.md.

Heavy fixtures are shared module-wide; they dominate the full suite, which
takes over ten minutes on two cores.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ouperturb import (GalerkinModel, PathGrid, estimate_constant,
                       fernique_probe, limsup_check, make_drift, make_weight,
                       martingale_check, ou_moments, stopped_moment_bound,
                       validate_model, wilson_interval)
from ouperturb.drifts import resolvent_residual
from ouperturb.engine import BOUND_FORMS, EnsembleTasks, run_ensemble
from ouperturb.girsanov import entropy_stability, entropy_statistic
from ouperturb.model import semigroup_apply
from ouperturb.pseudoweak import TestMeasureGrid, cesaro_limit, compress, \
    decompress, weak_gap
from ouperturb.tails import (ClosedFormWeight, build_bump_weight,
                             check_weight_integral, tail_table)
from ouperturb._util import sha256_file
from ouperturb.weights import closed_form_constant
from oracle import (IdentityWeight, check_moment_bound, check_pathwise_bound,
                    inject, integrate_Z, resolvent_linear, yosida_linear)

ROOT = Path(__file__).resolve().parents[1]
WORKERS = min(2, os.cpu_count() or 1)
SWEEP5 = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SWEEP3 = (1e-1, 1e-2, 1e-3)
SEED = 20260810

MODEL = validate_model(GalerkinModel(
    eigenvalues=[-1.0, -2.0, -3.0, -4.0], beta=1.0, sigma_diag=[1.0] * 4,
    horizon=1.0, x0=[0.3, -0.2, 0.1, 0.0]))
GRID = PathGrid(10_000, 1.0)          # dt = 1e-4, sweep-limited
WEIGHTS = (make_weight("power", 2.0), make_weight("exponential"),
           make_weight("xlog"))

CUBIC = make_drift("radial", power=2.0)
SAT = make_drift("saturating", eps=1.0)
CATALOG_SMALL = {
    "zero": make_drift("zero"),
    "l1_subgradient": make_drift("l1_subgradient", dim=4),
    "time_mod_pw": make_drift(
        "time_modulated", dim=4, base_kind="radial",
        base_params={"power": 2.0},
        modulation={"kind": "piecewise", "times": [0.0, 0.25, 0.5, 0.75],
                    "values": [1.0, 0.3, 0.8, 0.1]}),
    "time_mod_sin": make_drift("time_modulated", dim=4,
                               base_kind="saturating", base_params={"eps": 1.0},
                               modulation={"kind": "abs_sin"}),
}


def announce(ok: bool, label: str, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def eng_full():
    tasks = EnsembleTasks(
        alphas=SWEEP5, integrate=True, girsanov=True,
        tau_levels=tuple(range(9)), stop_zeta_levels=(6,),
        n_check_paths=1000, weights=WEIGHTS, cert_levels=(2, 4, 6, 8),
        n_field_paths=48, field_stride=20, track_gaps=True)
    return {name: run_ensemble(MODEL, drift, GRID, tasks, 10_000, SEED,
                               n_workers=WORKERS)
            for name, drift in (("cubic", CUBIC), ("saturating", SAT))}


@pytest.fixture(scope="module")
def eng_small():
    tasks = EnsembleTasks(alphas=SWEEP3, integrate=True,
                          tau_levels=(2, 4), cert_levels=(2, 4),
                          n_check_paths=1000)
    return {name: run_ensemble(MODEL, drift, GRID, tasks, 1000, SEED,
                               n_workers=WORKERS)
            for name, drift in CATALOG_SMALL.items()}


@pytest.fixture(scope="module")
def mart_1e5():
    # exponent-only statistics: the discrete stochastic exponential is an
    # exact mean-one martingale at any step size, so a coarser grid is valid
    grid = PathGrid(1000, 1.0)
    return run_ensemble(MODEL, SAT, grid,
                        EnsembleTasks(alphas=SWEEP5, girsanov=True),
                        100_000, SEED, n_workers=WORKERS)


# ---------------------------------------------------------------------------
# criterion 1: resolvent and regularized-drift correctness


def test_c1_yosida_correctness():
    rng = np.random.default_rng(SEED)
    singles = {"cubic": CUBIC, "saturating": SAT,
               "linear": make_drift("radial", coef=1.0, power=0.0),
               "time_mod_pw": CATALOG_SMALL["time_mod_pw"],
               "time_mod_sin": CATALOG_SMALL["time_mod_sin"]}
    worst = 0.0
    for drift in singles.values():
        t = rng.uniform(0, 1, 10_000)
        x = rng.standard_normal((10_000, 4)) * 2.0
        alpha = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), 10_000))
        res = resolvent_residual(drift, t, alpha, x)
        worst = max(worst, float(np.max(
            res / (1e-10 * (1 + np.linalg.norm(x, axis=1))))))
    announce(worst <= 1.0, "criterion 1a residual contract",
             f"max residual / tolerance = {worst:.3g}")

    l1 = make_drift("l1_subgradient", dim=4)
    x = rng.standard_normal((10_000, 4)) * 2.0
    alpha = np.exp(rng.uniform(np.log(1e-4), np.log(2.0), 10_000))
    j = l1.resolvent(0.0, alpha, x)
    oracle = np.empty_like(x)
    for i in range(x.shape[0]):          # independent componentwise loop
        for k in range(4):
            mag = abs(x[i, k]) - alpha[i]
            oracle[i, k] = 0.0 if mag <= 0 else \
                (mag if x[i, k] > 0 else -mag)
    gap = float(np.max(np.abs(j - oracle)))
    announce(gap <= 1e-14, "criterion 1b soft-threshold closed form",
             f"max abs gap = {gap:.3g}")

    viol_norm = viol_lip = 0
    for drift in list(singles.values()) + [l1]:
        t = rng.uniform(0, 1, 10_000)
        x1 = rng.standard_normal((10_000, 4)) * 3.0
        x2 = rng.standard_normal((10_000, 4)) * 3.0
        for a in (1e-1, 1e-2, 1e-3):
            fa1 = drift.yosida(t, a, x1)
            f0 = np.linalg.norm(drift.minimal_section(t, x1), axis=1)
            # scalar-solve residual of 1e-13(1+|x|) maps to 1e-13(1+|x|)/a
            # on the regularized drift
            tol = 1e-12 * (1 + np.linalg.norm(x1, axis=1)) / a
            viol_norm += int(np.sum(np.linalg.norm(fa1, axis=1) > f0 + tol))
            num = np.linalg.norm(fa1 - drift.yosida(t, a, x2), axis=1)
            den = np.linalg.norm(x1 - x2, axis=1)
            viol_lip += int(np.sum(num > (2.0 / a) * den * (1 + 1e-9) + 1e-12))
    announce(viol_norm == 0 and viol_lip == 0,
             "criterion 1c regularized-drift domination and Lipschitz",
             f"norm violations={viol_norm} lipschitz violations={viol_lip}")


# ---------------------------------------------------------------------------
# criterion 2: exact linear-path sampling


def test_c2_ou_exactness():
    grid = PathGrid(64, 1.0)
    res = run_ensemble(MODEL, None, grid, EnsembleTasks(), 100_000, SEED,
                       n_workers=WORKERS)
    w_T = res.final_w(MODEL)
    mean_ex, var_ex = ou_moments(MODEL, 1.0)
    n = w_T.shape[0]
    z_mean = np.abs(w_T.mean(axis=0) - mean_ex) / np.sqrt(var_ex / n)
    z_var = np.abs(w_T.var(axis=0, ddof=1) - var_ex) \
        / (var_ex * np.sqrt(2.0 / (n - 1)))
    announce(bool(np.all(z_mean <= 4) and np.all(z_var <= 4)),
             "criterion 2a terminal marginals",
             f"max z_mean={z_mean.max():.2f} z_var={z_var.max():.2f} "
             f"at {n} paths")

    rng = np.random.default_rng(SEED + 1)
    viol_semi = viol_chain = 0
    for _ in range(10_000):
        t, s = rng.uniform(0, 2, 2)
        v = rng.standard_normal(4) * 3
        lhs = semigroup_apply(MODEL, t + s, v)
        rhs = semigroup_apply(MODEL, t, semigroup_apply(MODEL, s, v))
        if np.max(np.abs(lhs - rhs)) > 1e-12 * (1 + np.max(np.abs(rhs))):
            viol_semi += 1
        lam = float(np.exp(rng.uniform(0, 6)))
        x = rng.standard_normal(4) * 3
        q = float(np.dot(yosida_linear(MODEL, lam, x), x))
        r = resolvent_linear(MODEL, lam, x)
        cap = -lam**2 * MODEL.beta * float(np.dot(r, r))
        if q > cap + 1e-10 * (1 + abs(cap)):
            viol_chain += 1
    announce(viol_semi == 0 and viol_chain == 0,
             "criterion 2b semigroup and regularized-generator chain",
             f"semigroup violations={viol_semi} chain violations={viol_chain}")


# ---------------------------------------------------------------------------
# criterion 3: transient envelopes at every node


def _bound_stats(res, names):
    """Per check: (node violations, worst margin).  A non-finite worst margin
    fails here: ``NaN < 0`` is False, so a NaN run would count 0 violations."""
    out = {}
    for n in names:
        worst = float(res.bound_margin[BOUND_FORMS.index(n)].min())
        assert np.isfinite(worst), f"{n}: non-finite worst margin {worst}"
        out[n] = (int(res.bound_viol[BOUND_FORMS.index(n)].sum()), worst)
    return out


# Closed-form counterexamples to the two stated forms (notes/decisions.md):
# d = 1, eigenvalue -1 (beta = 1), and an injected centered path that sits at
# a constant level on (0, 1].  The checks apply their default slack 1 + 10 dt.
CX_GRID = PathGrid(1000, 1.0)
CX_ALPHA = 0.01
CX_SLACK = 1.0 + 10.0 * CX_GRID.dt


def _cx_solution(x0: float, level: float, drift):
    model = validate_model(GalerkinModel(
        eigenvalues=[-1.0], beta=1.0, sigma_diag=[1.0], horizon=1.0, x0=[x0]))
    w0 = np.full((CX_GRID.n_steps + 1, 1), level)
    w0[0] = 0.0
    path = inject(CX_GRID, x0=[x0], w0=w0)
    return model, integrate_Z(model, drift, CX_ALPHA, path)


def test_c3_state_envelope(eng_full, eng_small):
    # |X(t)| <= |x| e^{-bt} + int e^{-b(t-s)} a(|W0(s)|) ds + |W0(t)|
    worst = np.inf
    total = 0
    for name, res in {**eng_full, **eng_small}.items():
        viol, margin = _bound_stats(res, ["x_full"])["x_full"]
        total += viol
        worst = min(worst, margin)
    announce(total == 0, "criterion 3a perturbed-state envelope",
             f"0 expected, got {total} node violations; worst margin "
             f"{worst:.4g} (6 drifts, 1000 paths, all sweep alphas)")
    total = 0
    for name, res in {**eng_full, **eng_small}.items():
        total += _bound_stats(res, ["gronwall_sq"])["gronwall_sq"][0]
    announce(total == 0, "criterion 3b identity-weight energy envelope",
             f"{total} node violations")


def test_c3_transient_envelope_stated(eng_full, eng_small):
    # the half-coefficient transient envelope, exactly as stated, is false:
    # monotonicity gives d|Z|/dt <= -beta |Z| + a(|W0|) with coefficient 1,
    # attained when the forcing lines up with the state (notes/decisions.md).
    # The stated check must report that failure; the full form must hold.
    stats = {}
    for name, res in {**eng_full, **eng_small}.items():
        stats[name] = _bound_stats(res, ["z_half", "z_full"])
    full_total = sum(s["z_full"][0] for s in stats.values())
    announce(full_total == 0,
             "criterion 3c transient envelope, full coefficient (derived)",
             f"{full_total} node violations across the catalog")
    detail = "; ".join(
        f"{n}: {s['z_half'][0]} violations (worst margin {s['z_half'][1]:.3g})"
        for n, s in stats.items() if s["z_half"][0])
    half_total = sum(s["z_half"][0] for s in stats.values())
    half_worst = min(s["z_half"][1] for s in stats.values())
    announce(half_total > 0 and half_worst < 0,
             "criterion 3d transient envelope, half coefficient (stated), "
             "refuted on the ensemble",
             detail or "0 violations, but the stated form is false")

    # l1 drift in d = 1 (a = 1), x0 = 0, w0 = -1 on (0, 1]: Z(t) = 1 - e^{-t}
    # equals the full right side and is twice the half right side, so the
    # stated margin is (1 - e^{-t})(slack/2 - 1) at every t > 0, worst at
    # t = 1; the explicit step adds an O(dt) error to Z
    l1 = make_drift("l1_subgradient", dim=1)
    model, sol = _cx_solution(0.0, -1.0, l1)
    rep = check_pathwise_bound(sol, model, l1)
    closed = (1.0 - np.exp(-1.0)) * (CX_SLACK / 2.0 - 1.0)
    gap = abs(rep.z_half.worst_margin - closed)
    announce(rep.z_half.violations == CX_GRID.n_steps and gap <= CX_GRID.dt
             and rep.z_full.violations == 0
             and np.isfinite(rep.z_full.worst_margin),
             "criterion 3d closed-form counterexample",
             f"half: {rep.z_half.violations}/{CX_GRID.n_steps} nodes after "
             f"t=0 violated, worst margin {rep.z_half.worst_margin:.4g} vs "
             f"closed form {closed:.4g}; full: {rep.z_full.violations} "
             "violations")


# ---------------------------------------------------------------------------
# criterion 4: weighted moment estimates


def _weight_stats(res, derived: bool = False):
    """(node violations, worst margin) of the weighted moment bound; a
    non-finite worst margin fails here, as in :func:`_bound_stats`."""
    viol = res.weight_viol[int(derived)]
    margin = res.weight_margin[int(derived)]
    worst = float(margin.min())
    form = "derived" if derived else "stated"
    assert np.isfinite(worst), f"{form} weight bound: non-finite worst margin"
    return int(viol.sum()), worst


def test_c4_estimate_constants():
    rng = np.random.default_rng(SEED + 2)
    worst_excess = -np.inf
    closed_power = closed_exp = 0.0
    xlog_ok = True
    for w in WEIGHTS:
        for _ in range(1000):
            c = float(rng.uniform(0.01, 3.0))
            beta = float(rng.uniform(0.3, 2.0))
            B = float(rng.uniform(1e-3, 0.95 * beta * min(w.ratio_limit, 4.0)))
            est = estimate_constant(w, c, beta, B)[0]
            u0 = max(c**2 / beta**2, c**2 / (4 * (beta - B) ** 2)) \
                if B < beta else c**2 / beta**2
            u = np.linspace(0.0, 10.0 * max(u0, 1e-9), 4001)
            with np.errstate(over="ignore", invalid="ignore"):
                f = w.deriv(u) * (c * np.sqrt(u) - beta * u) + B * w.value(u)
            f = np.where(np.isnan(f), -np.inf, f)
            worst_excess = max(worst_excess, float(
                (np.max(f) - est.value) / max(abs(est.value), 1e-300)))
            if w.kind == "power":
                closed_power = max(closed_power, abs(est.closed_form - est.value)
                                   / max(est.value, 1e-300))
            if w.kind == "xlog" and est.closed_form is not None:
                xlog_ok &= est.closed_form >= est.value * (1 - 1e-9)
        if w.kind == "exponential":
            for _ in range(200):
                c = float(rng.uniform(0.01, 3.0))
                beta = float(rng.uniform(0.3, 2.0))
                est = estimate_constant(w, c, beta, beta / 2.0)[0]
                closed_exp = max(closed_exp, abs(est.closed_form - est.value)
                                 / max(est.value, 1e-300))
    announce(worst_excess <= 1e-9, "criterion 4a constant dominates grid max",
             f"max relative excess {worst_excess:.2e} over 3000 triples")
    announce(closed_power <= 1e-6 and closed_exp <= 1e-6 and xlog_ok,
             "criterion 4b closed forms",
             f"power gap {closed_power:.2e}, exponential gap {closed_exp:.2e},"
             f" xlog upper bound holds: {xlog_ok}")


def test_c4_moment_bound_derived(eng_full):
    total = 0
    worst = np.inf
    for name, res in eng_full.items():
        viol, margin = _weight_stats(res, derived=True)
        total += viol
        worst = min(worst, margin)
    announce(total == 0,
             "criterion 4c weighted moment bound, derived coefficients",
             f"{total} node violations; worst margin {worst:.4g} "
             "(3 weights x 2 drifts x 5 alphas x 1000 paths)")


def test_c4_moment_bound_stated(eng_full):
    # stated coefficients, exactly as displayed, are false: they presume
    # |X|^2 <= |Z|^2 + |W0|^2, which fails when Z and W0 line up.  The valid
    # split |X|^2 <= 2|Z|^2 + 2|W0|^2 with Jensen on the Z envelope gives the
    # derived form (notes/decisions.md).  The stated check must report the
    # failure; the derived form must hold.
    total = 0
    worst = np.inf
    details = []
    for name, res in eng_full.items():
        v, m = _weight_stats(res)
        total += v
        worst = min(worst, m)
        details.append(f"{name}: {v} violations (worst margin {m:.3g})")
    derived = sum(_weight_stats(res, derived=True)[0]
                  for res in eng_full.values())
    announce(total > 0 and worst < 0 and derived == 0,
             "criterion 4d weighted moment bound, stated coefficients, "
             "refuted on the ensemble",
             "; ".join(details) + f"; derived form: {derived} violations")

    # zero drift (a = 0), x0 = 1, w0 = 1 on (0, 1]: the flow is exact, so
    # X(t) = 1 + e^{-t} and both right sides are closed forms in e^{-t}; near
    # t = 0 the left side is ~16, the stated right side ~10, the derived ~16
    zero = make_drift("zero")
    model, sol = _cx_solution(1.0, 1.0, zero)
    t = CX_GRID.times
    e = np.exp(-t)
    x_sq = np.where(t > 0, (1.0 + e) ** 2, 1.0)
    w0_sq = np.where(t > 0, 1.0, 0.0)
    ok = True
    rows = []
    for w in WEIGHTS:
        head = 0.5 * e * w.value(4.0) + 0.5 * t * w.value(0.0)
        closed = {k: (head + 0.5 * w.value(k * w0_sq)) * CX_SLACK
                  - w.value(x_sq) for k in (2.0, 4.0)}
        n_closed = int(np.sum(closed[2.0] < 0))
        stated = check_moment_bound(sol, model, zero, w)
        derived = check_moment_bound(sol, model, zero, w, k_scale=4.0)
        ok &= (n_closed > 0 and stated.violations == n_closed
               and stated.worst_margin == pytest.approx(closed[2.0].min(),
                                                        rel=1e-12)
               and derived.violations == 0
               and bool(np.all(closed[4.0] >= 0))
               and np.isfinite(derived.worst_margin))
        rows.append(f"{w.kind}: stated {stated.violations} violations "
                    f"(closed form {n_closed}), worst margin "
                    f"{stated.worst_margin:.4g} vs {closed[2.0].min():.4g}; "
                    f"derived {derived.violations}")
    announce(ok, "criterion 4d closed-form counterexample", "; ".join(rows))


# ---------------------------------------------------------------------------
# criterion 5: mean-one density


def test_c5_martingale(mart_1e5):
    worst_z = 0.0
    ok = True
    for i, a in enumerate(SWEEP5):
        rep = martingale_check(mart_1e5, i)
        z = abs(rep.mean - 1.0) / rep.stderr if rep.stderr else 0.0
        worst_z = max(worst_z, z)
        ok &= rep.passed
    announce(ok, "criterion 5a mean-one density at 1e5 paths",
             f"max |mean-1|/stderr = {worst_z:.2f} over the sweep")
    grid = PathGrid(200, 1.0)
    res = run_ensemble(MODEL, make_drift("zero"), grid,
                       EnsembleTasks(alphas=(0.5, 0.1), girsanov=True),
                       200, SEED)
    lr = res.log_rho
    announce(bool(np.all(lr == 0.0)), "criterion 5b unit density at zero drift",
             "all exponents exactly zero")


# ---------------------------------------------------------------------------
# criterion 6: stopped second moments


def test_c6_stopped_moment(eng_full):
    ok = True
    rows = []
    for name, drift in (("cubic", CUBIC), ("saturating", SAT)):
        ens = eng_full[name]
        for lvl in (2, 4, 6, 8):
            for ai in range(len(SWEEP5)):
                rep = stopped_moment_bound(ens, lvl, MODEL, drift, ai)
                ok &= rep.passed
                if ai == 2:
                    rows.append(f"{name} n={lvl}: {rep.estimate:.3f}<="
                                f"{min(rep.bound, 1e300):.3g}")
    announce(ok, "criterion 6a stopped second moment",
             "; ".join(rows[:4]) + " ...")

    # zero-drift equality case: both sides exactly one at an unreached level
    grid = PathGrid(800, 1.0)
    zero = make_drift("zero")
    tasks = EnsembleTasks(alphas=(0.5, 0.1), integrate=True, girsanov=True,
                          tau_levels=tuple(range(9)))
    ens = run_ensemble(MODEL, zero, grid, tasks, 2000, SEED)
    lvl = 8
    never_hit = bool(np.all(ens.tau[0, 8] == 1.0))
    rep = stopped_moment_bound(ens, lvl, MODEL, zero)
    announce(never_hit and rep.estimate == 1.0 and rep.bound == 1.0,
             "criterion 6b zero-drift equality case",
             f"estimate={rep.estimate} bound={rep.bound}")


# ---------------------------------------------------------------------------
# criterion 7: uniform-integrability machinery


def test_c7_envelope_identity():
    p_fn = lambda s: np.minimum(1.0, 1.0 / np.maximum(
        np.asarray(s, dtype=float), 1e-300))

    class Analytic:
        def value(self, y):
            return np.maximum(1.0, np.sqrt(np.asarray(y, dtype=float)))

        def deriv(self, y):
            y = np.asarray(y, dtype=float)
            return np.where(y > 1, 0.5 / np.sqrt(np.maximum(y, 1e-300)), 0.0)

    rep = check_weight_integral(Analytic(), p_fn, 1e8)
    gap = abs(rep.value + rep.tail_remainder - 1.0)
    announce(gap <= 1e-3, "criterion 7a envelope tail-integral identity",
             f"integral+remainder = {rep.value + rep.tail_remainder:.6f}")


def test_c7_bump_on_empirical_tail(eng_full):
    ens = eng_full["cubic"]
    y = np.geomspace(1.5, 1e9, 40)
    tt = tail_table(y, ens.exit_counts(), ens.n_paths, list(range(9)),
                    CUBIC.bound, MODEL.inv_sigma_norm, 1.0)
    from ouperturb.tails import TabulatedTail

    wt = build_bump_weight(tt.y, tt.p_upper)
    rep = check_weight_integral(wt, TabulatedTail(tuple(tt.y), tuple(tt.p)),
                                float(tt.y[-1]),
                                series_bound=wt.series_bound)
    announce(bool(rep.passed) and np.isfinite(rep.value),
             "criterion 7b bump weight on the empirical cubic tail",
             f"integral={rep.value:.4g} <= series {wt.series_bound:.4g}, "
             f"{len(wt.knots)} knots, truncated={wt.truncated}")


def test_c7_two_route_and_stability(eng_full):
    ens_sat = eng_full["saturating"]
    ens_cub = eng_full["cubic"]
    ok = True
    worst = 0.0
    for ens, weights in ((ens_sat, (IdentityWeight(), ClosedFormWeight(0.5))),
                         (ens_cub, (ClosedFormWeight(0.5),))):
        for wgt in weights:
            for ai in range(len(SWEEP5)):
                rep = entropy_statistic(ens, wgt, ai)
                ok &= rep.passed
                if rep.combined_stderr > 0:
                    worst = max(worst, abs(rep.route_source
                                           - rep.route_perturbed)
                                / rep.combined_stderr)
    announce(ok, "criterion 7c two-route change-of-measure identity",
             f"max |route gap|/stderr = {worst:.2f}")
    reps = [entropy_statistic(ens_cub, ClosedFormWeight(0.5), i)
            for i in range(len(SWEEP5))]
    ratio = entropy_stability(reps)
    finite = all(np.isfinite(r.route_source) for r in reps)
    announce(finite and ratio < 3.0,
             "criterion 7d reweighted statistic finite and sweep-stable",
             f"max/min ratio = {ratio:.4f}")


# ---------------------------------------------------------------------------
# criterion 8: weak-limit machinery


def test_c8_compression_round_trip():
    rng = np.random.default_rng(SEED + 3)
    h = rng.standard_normal((1000, 4)) * np.exp(rng.uniform(-3, 3, (1000, 1)))
    back = decompress(compress(h))
    worst = float(np.max(np.linalg.norm(back - h, axis=1)
                         / (1 + np.linalg.norm(h, axis=1))))
    announce(worst <= 1e-12, "criterion 8a compression round trip",
             f"max relative gap {worst:.2e}")


def test_c8_planted_rate_and_oscillation():
    times = np.linspace(0, 1, 41)
    grid = TestMeasureGrid.build(times, 16, dim=4)
    rng = np.random.default_rng(SEED + 4)
    f = rng.standard_normal((16, 41, 4))
    c = np.ones_like(f)
    gaps = [weak_gap(f + c / n, f, grid).max_gap for n in (8, 16, 32, 64)]
    ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])]
    ok = all(abs(r - 0.5) <= 0.15 for r in ratios)
    announce(ok, "criterion 8b planted-sequence gap rate",
             f"halving ratios {[f'{r:.3f}' for r in ratios]}")

    osc = np.full((16, 41, 4), 0.6)
    pair_mean = decompress((compress(osc) + compress(-osc)) / 2.0)
    gap = weak_gap(pair_mean, np.zeros_like(osc), grid).max_gap
    sup = float(np.max(np.linalg.norm(osc, axis=2)))
    announce(gap <= 1e-12 and sup == pytest.approx(1.2),
             "criterion 8c oscillating counterexample",
             f"averaged weak gap {gap:.2e} with sup gap {sup:.2f}")


def test_c8_sweep_candidate(eng_full):
    ok_all = True
    details = []
    for name, res in eng_full.items():
        tail = max(2, len(SWEEP5) // 2)
        cand, clamps = cesaro_limit(list(res.field_x[-tail:]))
        dist = float(np.max(np.linalg.norm(cand - res.field_x[-1], axis=-1)))
        finest = float(np.max(np.linalg.norm(
            res.field_x[-2] - res.field_x[-1], axis=-1)))
        lim = limsup_check(list(res.field_x), cand)
        ok = dist <= 2.0 * finest and lim.violations == 0 and clamps == 0
        ok_all &= ok
        details.append(f"{name}: dist={dist:.3g} <= 2x{finest:.3g}, "
                       f"limsup violations={lim.violations}")
    announce(ok_all, "criterion 8d sweep limit candidate", "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 9: determinism


def _digests(out: Path):
    return {p.name: sha256_file(p) for p in sorted(out.glob("*.csv"))}


def test_c9_determinism(tmp_path):
    cfg = ROOT / "configs" / "smoke.json"
    outs = [tmp_path / f"run{i}" for i in range(3)]
    for out, workers in zip(outs, ("1", "1", "2")):
        r = subprocess.run(
            [sys.executable, "-m", "ouperturb", "all", "--config", str(cfg),
             "--out", str(out), "--workers", workers, "--quiet"],
            capture_output=True, text=True)
        assert r.returncode in (0, 1), r.stdout + r.stderr
    d0, d1, d2 = (_digests(o) for o in outs)
    announce(d0 == d1, "criterion 9a rerun reproduces byte-identical CSVs",
             f"{len(d0)} files compared")
    announce(d0 == d2, "criterion 9b results independent of worker count",
             f"{len(d0)} files compared")
