import numpy as np
import pytest

from ouperturb import (PathGrid, make_drift, martingale_check,
                       stopped_moment_bound)
from ouperturb.engine import EnsembleTasks, run_ensemble
from ouperturb.girsanov import MartingaleReport, entropy_statistic
from ouperturb.tails import ClosedFormWeight
from oracle import (IdentityWeight, inject, integrate_Z, log_rho_tilde,
                    rho_tilde, sample_ou_path, zeta, zeta_parts)

SAT = make_drift("saturating", eps=1.0)
CUBIC = make_drift("radial", power=2.0)
ZERO = make_drift("zero")


def test_zeta_zero_drift_is_exactly_zero(model4, grid400):
    p = sample_ou_path(model4, grid400, 50)
    assert zeta(p, ZERO, 0.1, model4) == 0.0


def test_zeta_closed_form_on_injected_path(model4, grid400):
    # constant state and constant increments make the sums arithmetic
    n = grid400.n_steps
    w_const = np.array([0.5, -0.25, 0.1, 0.3])
    w0 = np.tile(w_const, (n + 1, 1))
    dW = np.full((n, 4), 0.01)
    p = inject(grid400, x0=np.zeros(4), w0=w0, dW=dW,
               eigenvalues=model4.eigenvalues)
    alpha = 0.05
    v = SAT.yosida(0.0, alpha, w_const) / model4.sigma_diag
    expect = n * float(v @ dW[0]) - 0.5 * n * float(v @ v) * grid400.dt
    assert zeta(p, SAT, alpha, model4) == pytest.approx(expect, rel=1e-12)


def test_zeta_antisymmetry_under_increment_flip(model4, grid400):
    p = sample_ou_path(model4, grid400, 51)
    flipped = inject(grid400, x0=model4.x0, w0=p.w0, dW=-p.dW,
                     eigenvalues=model4.eigenvalues)
    m1, q1 = zeta_parts(p, SAT, 0.1, model4)
    m2, q2 = zeta_parts(flipped, SAT, 0.1, model4)
    assert m2 == pytest.approx(-m1, rel=1e-12)
    assert q2 == pytest.approx(q1, rel=1e-12)


def test_zeta_cutoff_must_hit_grid_node(model4, grid400):
    p = sample_ou_path(model4, grid400, 52)
    full = zeta(p, SAT, 0.1, model4, t_end=1.0)
    half = zeta(p, SAT, 0.1, model4, t_end=0.5)
    assert full != half
    with pytest.raises(ValueError, match="grid node"):
        zeta(p, SAT, 0.1, model4, t_end=0.5 + 0.3 * grid400.dt)


def test_rho_tilde_zero_drift_and_sign_identity(model4, grid400):
    p = sample_ou_path(model4, grid400, 53)
    sol0 = integrate_Z(model4, ZERO, 0.1, p)
    assert rho_tilde(sol0, ZERO, 0.1, model4) == 1.0
    sol = integrate_Z(model4, SAT, 0.1, p)
    lrt = log_rho_tilde(sol, SAT, 0.1, model4)
    # recompute the two parts directly: log rho_tilde - quad = mart - quad/2
    x = sol.x_path[:-1]
    u = SAT.yosida(grid400.times[:-1], 0.1, x) / model4.sigma_diag
    mart = float(np.sum(u * p.dW))
    quad = float(np.sum(u * u) * grid400.dt)
    assert lrt == pytest.approx(mart + 0.5 * quad, rel=1e-12)
    assert lrt - quad == pytest.approx(mart - 0.5 * quad, rel=1e-10)


def test_rho_tilde_pathwise_bound_bounded_drift(model4, grid400):
    # unit envelope: |log rho_tilde| <= sum |dW| + T/2 at unit noise
    for i in range(5):
        p = sample_ou_path(model4, grid400, 54, path_index=i)
        sol = integrate_Z(model4, SAT, 0.1, p)
        lrt = log_rho_tilde(sol, SAT, 0.1, model4)
        cap = float(np.sum(np.linalg.norm(p.dW, axis=1))) + 0.5
        assert abs(lrt) <= cap


def _ensemble(model, drift, n_paths=4000, n_steps=1000, seed=60,
              alphas=(0.1, 0.01), levels=(0, 1, 2, 3, 4, 5, 6), stops=(4,)):
    grid = PathGrid(n_steps, 1.0)
    tasks = EnsembleTasks(alphas=alphas, integrate=True, girsanov=True,
                          tau_levels=levels, stop_zeta_levels=stops)
    return run_ensemble(model, drift, grid, tasks, n_paths, seed)


def test_statistics_read_the_pass_result(model4):
    # the statistics read the exponents as cached properties of the result,
    # each computed once
    res = run_ensemble(model4, SAT, PathGrid(100, 1.0),
                       EnsembleTasks(alphas=(0.5, 0.1), girsanov=True), 30, 62)
    assert res.density_ensemble(model4, SAT, 62) is res
    lr = res.log_rho
    assert res.log_rho is lr
    assert np.array_equal(lr, res.zeta[0] - 0.5 * res.zeta[1])
    assert res.log_rho_tilde.size == 0 and res.stopped_log_rho.size == 0


def test_martingale_zero_drift_exact(model4):
    ens = _ensemble(model4, ZERO, n_paths=50, n_steps=100, alphas=(0.5, 0.1))
    rep = martingale_check(ens, 0)
    assert rep.mean == 1.0 and rep.stderr == 0.0 and rep.passed


def test_martingale_margin_scores_degenerate_alphas():
    assert MartingaleReport(1.0, 0.0, 0).margin == 4.0
    assert MartingaleReport(1.0 + 1e-9, 0.0, 0).margin == -np.inf
    assert MartingaleReport(1.1, 0.05, 0).margin == pytest.approx(2.0)
    assert MartingaleReport(np.nan, np.nan, 0).margin == -np.inf
    assert MartingaleReport(np.inf, np.nan, 1).margin == -np.inf
    assert MartingaleReport(1.0, 0.1, 1).margin == -np.inf


def test_martingale_bounded_drift(model4):
    ens = _ensemble(model4, SAT)
    for i in range(2):
        rep = martingale_check(ens, i)
        assert rep.passed, (rep.mean, rep.stderr)


def test_stopped_density_supermartingale(model4):
    ens = _ensemble(model4, CUBIC, n_paths=3000, stops=(6,))
    stopped = np.exp(ens.stopped_log_rho[0])
    for a in range(2):
        mean = float(np.mean(stopped[a]))
        se = float(np.std(stopped[a], ddof=1) / np.sqrt(stopped.shape[1]))
        assert mean <= 1.0 + 4.0 * se


def test_stopped_moment_bound_short_horizon():
    # unit envelope, unit noise, horizon 0.2: the bound is e^1
    from ouperturb import GalerkinModel, validate_model

    m = validate_model(GalerkinModel(eigenvalues=[-1.0, -2.0], beta=1.0,
                                     sigma_diag=[1.0, 1.0], horizon=0.2,
                                     x0=[0.1, 0.0]))
    grid = PathGrid(200, 0.2)
    tasks = EnsembleTasks(alphas=(0.1,), integrate=True, girsanov=True,
                          tau_levels=(0, 1, 2, 3))
    ens = run_ensemble(m, SAT, grid, tasks, 4000, 61)
    for lvl in (1, 2, 3):
        rep = stopped_moment_bound(ens, lvl, m, SAT)
        assert rep.bound == pytest.approx(np.exp(1.0), rel=1e-12)
        assert rep.passed


def test_stopped_moment_zero_drift_equality(model4):
    ens = _ensemble(model4, ZERO, n_paths=500, n_steps=200, alphas=(0.5, 0.1))
    # pick a level the threshold never reaches; estimate and bound both one
    lvl = 6
    assert np.all(ens.tau[0, list(ens.tasks.tau_levels).index(lvl)] == 1.0)
    rep = stopped_moment_bound(ens, lvl, model4, ZERO)
    assert rep.estimate == 1.0 and rep.bound == 1.0 and rep.passed


def test_two_route_identity_weight(model4):
    ens = _ensemble(model4, SAT)
    rep = entropy_statistic(ens, IdentityWeight(), 0)
    assert rep.passed, (rep.route_source, rep.route_perturbed,
                        rep.combined_stderr)


def test_two_route_zero_drift_exact(model4):
    ens = _ensemble(model4, ZERO, n_paths=50, n_steps=100, alphas=(0.5, 0.1))
    rep = entropy_statistic(ens, ClosedFormWeight(0.5), 0)
    assert rep.route_source == rep.route_perturbed == \
        pytest.approx(ClosedFormWeight(0.5).value(1.0))


def test_exit_counts_monotone(model4):
    ens = _ensemble(model4, CUBIC, n_paths=2000)
    counts = ens.exit_counts()
    assert np.all(np.diff(counts) <= 0)
    assert counts[0] == 2000  # level zero exits immediately
