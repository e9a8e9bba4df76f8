import numpy as np
import pytest

from ouperturb import (GalerkinModel, PathGrid, fernique_probe,
                       largest_stable_gamma, ou_moments, sample_ou_paths,
                       validate_model)
from ouperturb.ou import step_constants
from oracle import inject, sample_ou_path, w0_running_max, zero_noise_path


def test_grid_basics():
    g = PathGrid(4, 2.0)
    assert g.dt == 0.5
    assert np.allclose(g.times, [0, 0.5, 1.0, 1.5, 2.0])
    assert g.times[-1] == 2.0
    with pytest.raises(ValueError):
        PathGrid(0, 1.0)


def test_moments_boundaries(model4):
    mean, var = ou_moments(model4, 0.0)
    assert np.array_equal(mean, model4.x0)
    assert np.array_equal(var, np.zeros(4))
    with pytest.raises(ValueError):
        ou_moments(model4, 2.0)


def test_moments_stationary_limit():
    m = validate_model(GalerkinModel(eigenvalues=[-1.0], beta=1.0,
                                     sigma_diag=[1.0], horizon=50.0, x0=[3.0]))
    mean, var = ou_moments(m, 40.0)
    assert var[0] == pytest.approx(0.5, rel=1e-10)
    assert abs(mean[0]) < 1e-10


def test_mean_norm_contraction(model4):
    for t in (0.1, 0.5, 1.0):
        mean, _ = ou_moments(model4, t)
        assert np.linalg.norm(mean) <= np.exp(-t) * np.linalg.norm(model4.x0)


def test_terminal_marginals_match_closed_form(model4):
    # Monte Carlo oracle at moderate scale; acceptance reruns it at 1e5
    grid = PathGrid(32, 1.0)
    n = 20_000
    paths = sample_ou_paths(model4, grid, n, 123)
    w_T = np.stack([p.w[-1] for p in paths])
    mean_ex, var_ex = ou_moments(model4, 1.0)
    z_mean = np.abs(w_T.mean(axis=0) - mean_ex) / np.sqrt(var_ex / n)
    z_var = np.abs(w_T.var(axis=0, ddof=1) - var_ex) / \
        (var_ex * np.sqrt(2.0 / (n - 1)))
    assert np.all(z_mean < 5)
    assert np.all(z_var < 5)


def test_running_max_definition(model4, grid400):
    p = sample_ou_path(model4, grid400, 5)
    norms = np.linalg.norm(p.w, axis=1)
    assert np.array_equal(p.running_max, np.maximum.accumulate(norms))
    assert np.all(np.diff(p.running_max) >= 0)


def test_reproducibility_bitwise(model4, grid400):
    a = sample_ou_path(model4, grid400, 42, path_index=3)
    b = sample_ou_path(model4, grid400, 42, path_index=3)
    assert np.array_equal(a.w0, b.w0) and np.array_equal(a.dW, b.dW)
    c = sample_ou_path(model4, grid400, 43, path_index=3)
    assert not np.array_equal(a.w0, c.w0)


def test_zero_noise_path_is_deterministic_flow(model4, grid400):
    p = zero_noise_path(model4, grid400)
    expect = np.exp(np.outer(grid400.times, model4.eigenvalues)) * model4.x0
    assert np.allclose(p.w, expect, atol=0)
    assert np.array_equal(p.w0, np.zeros_like(p.w0))


def test_step_constants_positive_semidefinite(model4):
    for dt in (1e-4, 1e-2, 0.5, 2.0):
        decay, a1, a2 = step_constants(model4, dt)
        assert np.all(decay > 0) and np.all(a2 >= 0)
        # total conv variance equals a1^2 + a2^2
        lam = model4.eigenvalues
        v = model4.sigma_diag**2 * (1 - np.exp(2 * lam * dt)) / (-2 * lam)
        assert np.allclose(a1**2 + a2**2, v, rtol=1e-12)


def test_coupling_residual_halves_with_dt(model1):
    # discrete left-point convolution vs exact state; rms residual ~ O(dt)
    def residual_rms(n_steps, n_paths=3000):
        grid = PathGrid(n_steps, 1.0)
        lam = model1.eigenvalues[0]
        vals = []
        for i in range(n_paths):
            p = sample_ou_path(model1, grid, 99, path_index=i)
            t = grid.times
            disc = np.sum(np.exp((1.0 - t[:-1]) * lam) * p.dW[:, 0]
                          * model1.sigma_diag[0])
            vals.append(disc - p.w0[-1, 0])
        return float(np.sqrt(np.mean(np.square(vals))))

    r64, r128 = residual_rms(64), residual_rms(128)
    assert 1.6 < r64 / r128 < 2.5


def test_fernique_zero_paths_give_unit_estimate(model4, grid400):
    zero = [zero_noise_path(model4, grid400) for _ in range(10)]
    rows = fernique_probe([w0_running_max(p)[-1] for p in zero], (0.0, 0.5, 2.0))
    assert all(r.estimate == 1.0 and r.stderr == 0.0 for r in rows)


def test_fernique_gamma_zero_is_exactly_one(model4, grid400):
    paths = sample_ou_paths(model4, grid400, 50, 17)
    rows = fernique_probe([w0_running_max(p)[-1] for p in paths], (0.0,))
    assert rows[0].estimate == 1.0


def test_fernique_moderate_gamma_bracket(model1):
    grid = PathGrid(256, 1.0)
    paths = sample_ou_paths(model1, grid, 20_000, 31)
    maxima = np.array([w0_running_max(p)[-1] for p in paths])
    rows = fernique_probe(maxima, (0.1,))
    r = rows[0]
    assert 1.0 < r.estimate < 2.0
    assert r.stderr / r.estimate < 0.01
    assert largest_stable_gamma(rows) == 0.1


def test_fernique_overflow_flagged(model4, grid400):
    rows = fernique_probe(np.array([800.0, 900.0]), (1.0,))
    assert not rows[0].stable and np.isinf(rows[0].estimate)


def test_inject_and_centered_views(model4, grid400):
    w0 = np.zeros((grid400.n_steps + 1, 4))
    p = inject(grid400, x0=model4.x0, w0=w0, eigenvalues=model4.eigenvalues)
    assert np.allclose(p.w, p.mean_path)
    assert np.array_equal(w0_running_max(p), np.zeros(grid400.n_steps + 1))
