"""The streaming runner must agree with the stored-path reference ops and be
invariant to blocking and worker count."""

from dataclasses import replace

import numpy as np
import pytest

from ouperturb import (PathGrid, check_pathwise_bound, integrate_Z, make_drift,
                       make_weight, sample_ou_path, stopping_time, zeta)
from ouperturb.engine import EnsembleTasks, run_ensemble
from ouperturb.girsanov import log_rho_tilde
from ouperturb.weights import check_moment_bound

SAT = make_drift("saturating", eps=1.0)
CUBIC = make_drift("radial", power=2.0)
TMOD = make_drift("time_modulated", base_kind="radial",
                  base_params={"power": 2.0})

TASKS = EnsembleTasks(alphas=(0.1, 0.03), integrate=True, girsanov=True,
                      tau_levels=(0, 1, 2, 3), stop_zeta_levels=(2,),
                      n_check_paths=6, weights=(make_weight("power", 2.0),),
                      cert_levels=(2,), n_field_paths=3, field_stride=40,
                      s_grid=(0.0, 1.0, 2.0), track_gaps=True)


@pytest.fixture(scope="module")
def grid():
    return PathGrid(400, 1.0)


@pytest.fixture(scope="module", params=[SAT, CUBIC], ids=["sat", "cubic"])
def pair(request, model4, grid):
    drift = request.param
    res = run_ensemble(model4, drift, grid, TASKS, 12, 99)
    return drift, res


def test_engine_matches_stored_ops(model4, grid, pair):
    drift, res = pair
    for pid in (0, 5, 11):
        p = sample_ou_path(model4, grid, 99, path_index=pid)
        for ai, a in enumerate(TASKS.alphas):
            sol = integrate_Z(model4, drift, a, p)
            assert np.allclose(sol.z[-1], res.z_final[ai, pid], atol=1e-13)
            assert zeta(p, drift, a, model4) == \
                pytest.approx(res.log_rho()[ai, pid], rel=1e-11, abs=1e-13)
            assert log_rho_tilde(sol, drift, a, model4) == \
                pytest.approx(res.log_rho_tilde()[ai, pid], rel=1e-11, abs=1e-13)
        sol = integrate_Z(model4, drift, TASKS.alphas[0], p)
        rec = stopping_time(sol, model4, drift, 2)
        assert rec.tau == res.tau_half[2, pid]
        if pid < TASKS.n_check_paths:
            rep = check_pathwise_bound(sol, model4, drift)
            assert rep.z_half.worst_margin == \
                pytest.approx(res.bound_margin["z_half"][0, pid], rel=1e-9)
            assert rep.z_half.violations == res.bound_viol["z_half"][0, pid]
            wrep = check_moment_bound(sol, model4, drift,
                                      make_weight("power", 2.0))
            assert wrep.worst_margin == \
                pytest.approx(res.weight_margin[0, 0, pid], rel=1e-9)


def test_engine_fields_match_stored(model4, grid, pair):
    drift, res = pair
    p = sample_ou_path(model4, grid, 99, path_index=1)
    sol = integrate_Z(model4, drift, TASKS.alphas[1], p)
    sl = slice(0, grid.n_steps + 1, TASKS.field_stride)
    assert np.allclose(res.field_x[1, 1], sol.x_path[sl], atol=1e-13)
    assert np.allclose(res.field_w0[1], p.w0[sl], atol=0)
    assert np.allclose(res.field_runmax[1], p.w0_running_max()[sl], atol=0)


def test_engine_sup_gaps_match_stored(model4, grid, pair):
    drift, res = pair
    p = sample_ou_path(model4, grid, 99, path_index=2)
    z1 = integrate_Z(model4, drift, 0.1, p).z
    z2 = integrate_Z(model4, drift, 0.03, p).z
    gap = float(np.max(np.linalg.norm(z1 - z2, axis=1)))
    assert gap == pytest.approx(res.sup_gaps[0, 2], rel=1e-12)


def test_engine_blocking_and_worker_invariance(model4, grid):
    # the iterative drifts too: each Newton solve stops per element, so a
    # path's numbers never depend on which paths or alphas share its block
    for drift in (SAT, CUBIC, TMOD):
        base = run_ensemble(model4, drift, grid, TASKS, 12, 99)
        small = run_ensemble(model4, drift, grid, TASKS, 12, 99, block_size=5)
        multi = run_ensemble(model4, drift, grid, TASKS, 12, 99, block_size=4,
                             n_workers=2)
        for other in (small, multi):
            assert np.array_equal(base.final_w0, other.final_w0)
            assert np.array_equal(base.log_rho(), other.log_rho())
            assert np.array_equal(base.log_rho_tilde(), other.log_rho_tilde())
            assert np.array_equal(base.tau_half, other.tau_half)
            assert np.array_equal(base.p0_counts, other.p0_counts)
            assert np.array_equal(base.field_x, other.field_x)
            for name in base.bound_viol:
                assert np.array_equal(base.bound_viol[name], other.bound_viol[name])

        # alpha = 0.03 alone reproduces row 1 of the (0.1, 0.03) run
        one = run_ensemble(model4, drift, grid, replace(TASKS, alphas=(0.03,)),
                           12, 99)
        assert np.array_equal(one.log_rho()[0], base.log_rho()[1])
        assert np.array_equal(one.log_rho_tilde()[0], base.log_rho_tilde()[1])
        assert np.array_equal(one.stopped_log_rho()[:, 0],
                              base.stopped_log_rho()[:, 1])
        assert np.array_equal(one.z_final[0], base.z_final[1])
        assert np.array_equal(one.field_x[0], base.field_x[1])
        assert np.array_equal(one.weight_margin[:, 0], base.weight_margin[:, 1])
        for name in base.bound_viol:
            assert np.array_equal(one.bound_viol[name][0], base.bound_viol[name][1])
            assert np.array_equal(one.bound_margin[name][0],
                                  base.bound_margin[name][1])


def test_engine_p0_counts_match_stored(model4, grid):
    res = run_ensemble(model4, SAT, grid, TASKS, 12, 99)
    counts = np.zeros_like(res.p0_counts)
    for pid in range(12):
        p = sample_ou_path(model4, grid, 99, path_index=pid)
        n0 = p.w0_norms()
        counts += (n0[:, None] > np.asarray(TASKS.s_grid)).astype(np.int64)
    assert np.array_equal(res.p0_counts, counts)


def test_engine_stopped_exponent_frozen_at_tau(model4, grid):
    res = run_ensemble(model4, CUBIC, grid, TASKS, 12, 99)
    p = sample_ou_path(model4, grid, 99, path_index=4)
    tau = res.tau_half[2, 4]
    expect = zeta(p, CUBIC, 0.1, model4, t_end=float(tau))
    assert res.stopped_log_rho()[0, 0, 4] == pytest.approx(expect, rel=1e-11)


def test_engine_task_validation(model4, grid):
    with pytest.raises(ValueError):
        run_ensemble(model4, SAT, grid, EnsembleTasks(girsanov=True), 2, 1)
    with pytest.raises(ValueError):
        run_ensemble(model4, SAT, grid,
                     EnsembleTasks(alphas=(1e-3,), integrate=True), 2, 1)
    with pytest.raises(ValueError):
        run_ensemble(model4, SAT, grid,
                     EnsembleTasks(alphas=(0.1,), integrate=True,
                                   tau_levels=(1,), cert_levels=(2,)), 2, 1)
