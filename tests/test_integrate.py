import json
from pathlib import Path

import numpy as np
import pytest

from ouperturb import (GalerkinModel, PathGrid, cesaro_limit, limsup_check,
                       make_drift, sample_ou_paths, validate_model)
from ouperturb.config import parse_config
from ouperturb.engine import EnsembleTasks, run_ensemble
from oracle import (check_pathwise_bound, exp_decay_quadrature, integrate_Z,
                    regularized_beta, sample_ou_path, stopping_time,
                    threshold_series, zero_noise_path)

ZERO = make_drift("zero")
CUBIC = make_drift("radial", power=2.0)
SAT = make_drift("saturating", eps=1.0)
LIN = make_drift("radial", coef=1.0, power=0.0)
SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"


def test_zero_drift_is_pure_flow(model4, grid400):
    p = sample_ou_path(model4, grid400, 1)
    sol = integrate_Z(model4, ZERO, 1e-1, p)
    expect = np.exp(np.outer(grid400.times, model4.eigenvalues)) * model4.x0
    assert np.allclose(sol.z, expect, rtol=1e-13, atol=1e-300)


def test_linear_drift_zero_noise_closed_form():
    # z' = -2z on zero noise: z(1) = e^{-2} up to O(dt) + O(alpha)
    m = validate_model(GalerkinModel(eigenvalues=[-1.0], beta=1.0,
                                     sigma_diag=[1.0], horizon=1.0, x0=[1.0]))
    grid = PathGrid(8000, 1.0)
    sol = integrate_Z(m, LIN, 1e-3, zero_noise_path(m, grid))
    assert sol.z[-1, 0] == pytest.approx(np.exp(-2.0), abs=1e-3)


def test_dt_rule_rejected(model4):
    p = sample_ou_path(model4, PathGrid(100, 1.0), 2)
    with pytest.raises(ValueError, match="need dt"):
        integrate_Z(model4, SAT, 1e-3, p)


def coarsen(path, factor):
    """Restriction of a path to a coarser nested grid (exact for OU states)."""
    from ouperturb.ou import SamplePath

    grid = PathGrid(path.grid.n_steps // factor, path.grid.horizon)
    dW = path.dW.reshape(grid.n_steps, factor, -1).sum(axis=1)
    return SamplePath(grid, path.x0, path.w0[::factor].copy(), dW,
                      path.eigenvalues, path.seed_tag + ("coarse", factor))


def test_richardson_self_convergence(model4):
    # halving dt on nested noise changes z(T) by <= C*dt; rms ratio across
    # paths is consistent with (at least) first order
    dc, df = [], []
    for i in range(20):
        fine = sample_ou_path(model4, PathGrid(1600, 1.0), 7, path_index=i)
        z = {f: integrate_Z(model4, SAT, 0.1,
                            coarsen(fine, f) if f > 1 else fine).z[-1]
             for f in (1, 2, 4)}
        dc.append(np.linalg.norm(z[4] - z[2]))
        df.append(np.linalg.norm(z[2] - z[1]))
    assert max(dc) <= 5.0 * (4.0 / 1600)
    ratio = np.sqrt(np.mean(np.square(dc)) / np.mean(np.square(df)))
    assert 1.5 <= ratio <= 4.5


def test_assemble_identities(model4, grid400):
    p = sample_ou_path(model4, grid400, 3)
    sol = integrate_Z(model4, SAT, 0.1, p)
    x = sol.x_path
    assert np.array_equal(x, sol.z + p.w0)
    assert np.allclose(x[0], model4.x0, atol=0)
    sol0 = integrate_Z(model4, ZERO, 0.1, p)
    assert np.allclose(sol0.x_path, p.w, rtol=1e-12)


def test_quadrature_matches_constant_integrand():
    # int_0^t e^{-b(t-s)} ds has the closed form (1 - e^{-bt})/b
    beta, dt, n = 1.3, 1e-3, 1000
    vals = np.ones(n + 1)
    out = exp_decay_quadrature(vals, beta, dt)
    t = dt * np.arange(n + 1)
    assert np.allclose(out, (1 - np.exp(-beta * t)) / beta, atol=1e-6)


def test_bounds_zero_drift_equality(model4, grid400):
    p = sample_ou_path(model4, grid400, 4)
    sol = integrate_Z(model4, ZERO, 0.1, p)
    rep = check_pathwise_bound(sol, model4, ZERO)
    assert rep.z_half.violations == 0 and rep.z_full.violations == 0
    assert rep.x_full.violations == 0 and rep.gronwall_sq.violations == 0
    # the envelope |x| e^{-bt} is attained exactly when every mode decays at
    # the slowest rate
    m = validate_model(GalerkinModel(eigenvalues=[-1.0, -1.0], beta=1.0,
                                     sigma_diag=[1.0, 1.0], horizon=1.0,
                                     x0=[0.4, -0.3]))
    sol = integrate_Z(m, ZERO, 0.1, sample_ou_path(m, grid400, 4))
    zn = np.linalg.norm(sol.z, axis=1)
    envelope = 0.5 * np.exp(-grid400.times)
    assert np.allclose(zn, envelope, rtol=1e-12)


def test_bounds_saturating_many_paths(model4):
    grid = PathGrid(800, 1.0)
    paths = sample_ou_paths(model4, grid, 50, 11)
    for p in paths:
        sol = integrate_Z(model4, SAT, 0.1, p)
        rep = check_pathwise_bound(sol, model4, SAT)
        assert rep.z_full.passed and rep.x_full.passed and rep.gronwall_sq.passed


def test_bound_x0_zero_at_origin():
    m = validate_model(GalerkinModel(eigenvalues=[-1.0], beta=1.0,
                                     sigma_diag=[1.0], horizon=1.0, x0=[0.0]))
    grid = PathGrid(200, 1.0)
    sol = integrate_Z(m, SAT, 0.1, sample_ou_path(m, grid, 5))
    rep = check_pathwise_bound(sol, m, SAT)
    assert rep.z_full.violations == 0


def test_stopping_levels(model4, grid400):
    p = sample_ou_path(model4, grid400, 6)
    sol = integrate_Z(model4, SAT, 0.1, p)
    far = stopping_time(sol, model4, SAT, 1e6)
    assert far.tau == grid400.horizon and not far.hit
    zero = stopping_time(sol, model4, SAT, 0.0)
    assert zero.tau == 0.0 and zero.hit
    taus = [stopping_time(sol, model4, SAT, n).tau for n in (1, 2, 3, 4, 5)]
    assert all(t1 <= t2 for t1, t2 in zip(taus, taus[1:]))


def test_stopping_certificate_full_form(model4):
    grid = PathGrid(800, 1.0)
    for i in range(30):
        p = sample_ou_path(model4, grid, 21, path_index=i)
        sol = integrate_Z(model4, SAT, 0.1, p)
        for lvl in (1.0, 2.0, 3.0):
            rec = stopping_time(sol, model4, SAT, lvl, z_star_form="full")
            assert rec.cert_violations == 0


def test_threshold_series_is_adapted_shapewise(model4, grid400):
    p = sample_ou_path(model4, grid400, 8)
    expr = threshold_series(model4, SAT, p, model4.x0, "half")
    expr_f = threshold_series(model4, SAT, p, model4.x0, "full")
    assert expr.shape == grid400.times.shape
    assert np.all(expr_f >= expr - 1e-15)


def test_noise_coupled_contraction(model4):
    grid = PathGrid(800, 1.0)
    for drift in (CUBIC, SAT):
        for i in range(10):
            p = sample_ou_path(model4, grid, 33, path_index=i)
            s1 = integrate_Z(model4, drift, 0.1, p, x0=np.array([1.0, 0, 0, 0]))
            s2 = integrate_Z(model4, drift, 0.1, p, x0=np.array([-0.5, 0.3, 0, 0]))
            gap = np.linalg.norm(s1.z - s2.z, axis=1)
            bound = np.exp(-model4.beta * grid.times) \
                * np.linalg.norm(s1.x_start - s2.x_start)
            assert np.all(gap <= bound * (1 + 1e-10))


def test_doubly_regularized_converges(model4):
    grid = PathGrid(800, 1.0)
    p = sample_ou_path(model4, grid, 12)
    base = integrate_Z(model4, SAT, 0.1, p)
    gaps = []
    for lam in (1.0, 10.0, 100.0, 1000.0):
        sol = integrate_Z(model4, SAT, 0.1, p, lambda_y=lam)
        gaps.append(float(np.max(np.linalg.norm(sol.z - base.z, axis=1))))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


def test_doubly_regularized_energy_bound(model4):
    # the identity-weight energy bound holds with the regularized constant
    grid = PathGrid(800, 1.0)
    p = sample_ou_path(model4, grid, 13)
    for lam in (1.0, 4.0):
        sol = integrate_Z(model4, SAT, 0.1, p, lambda_y=lam)
        rep = check_pathwise_bound(sol, model4, SAT)
        assert rep.gronwall_sq.violations == 0
        assert regularized_beta(model4, lam) < model4.beta


def test_alpha_sweep_zero_drift_gaps_exactly_zero(model4):
    tasks = EnsembleTasks(alphas=(0.1, 0.05), integrate=True, track_gaps=True)
    res = run_ensemble(model4, ZERO, PathGrid(400, 1.0), tasks, 5, 14)
    assert np.array_equal(res.sup_gaps, np.zeros_like(res.sup_gaps))


def test_alpha_sweep_validation():
    # a sweep needs at least two strictly decreasing alphas; the config
    # checks the order and count, the engine refuses an empty alpha list
    grid = PathGrid(100, 1.0)
    with pytest.raises(ValueError, match="at least one alpha"):
        EnsembleTasks(alphas=(), integrate=True).validate(grid)
    raw = json.loads(SMOKE.read_text())
    raw["sweep"]["alpha_list"] = [0.1]
    with pytest.raises(ValueError):
        parse_config(raw)
    raw["sweep"]["alpha_list"] = [0.05, 0.1]
    with pytest.raises(ValueError):
        parse_config(raw)


def test_alpha_sweep_candidate_and_limsup(model4):
    # the weak-limit candidate averages the finest two of three alphas
    tasks = EnsembleTasks(alphas=(1e-1, 3e-2, 1e-2), integrate=True,
                          n_field_paths=12, field_stride=16, track_gaps=True)
    res = run_ensemble(model4, SAT, PathGrid(800, 1.0), tasks, 12, 16)
    candidate, clamps = cesaro_limit(list(res.field_x[-2:]))
    assert clamps == 0
    rep = limsup_check(list(res.field_x), candidate)
    assert rep.violations == 0
    dist = np.max(np.linalg.norm(candidate - res.field_x[-1], axis=-1))
    assert dist <= 2.0 * np.max(res.sup_gaps[-1])
