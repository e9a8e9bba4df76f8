"""The streaming runner must agree with the per-path reference
implementations in ``oracle.py`` and be invariant to blocking and worker
count."""

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from ouperturb import (GalerkinModel, PathGrid, WeightFunction, engine, make_drift,
                       make_weight, validate_model)
from ouperturb.engine import EnsembleTasks, run_ensemble
from ouperturb.harness import bound_gate
from oracle import (check_moment_bound, check_pathwise_bound, integrate_Z,
                    log_rho_tilde, sample_ou_path, stopping_time, w0_norms,
                    w0_running_max, zeta)

SAT = make_drift("saturating", eps=1.0)
CUBIC = make_drift("radial", power=2.0)
TMOD = make_drift("time_modulated", base_kind="radial",
                  base_params={"power": 2.0})
# switched off at t = 0.5, node 200 of the 400-step grid: the step from node
# 199 resolves w and X at m = 1 and the implicit step's y at m = 0
TMOD_PW = make_drift("time_modulated", base_kind="saturating",
                     modulation={"kind": "piecewise", "times": [0.0, 0.5],
                                 "values": [1.0, 0.0]})
L1 = make_drift("l1_subgradient", dim=4)

TASKS = EnsembleTasks(alphas=(0.1, 0.03), integrate=True, girsanov=True,
                      tau_levels=(0, 1, 2, 3), stop_zeta_levels=(2,),
                      n_check_paths=6, weights=(make_weight("power", 2.0),),
                      cert_levels=(2,), n_field_paths=3, field_stride=40,
                      s_grid=(0.0, 1.0, 2.0), track_gaps=True)


@pytest.fixture(scope="module")
def grid():
    return PathGrid(400, 1.0)


@pytest.fixture(scope="module", params=[SAT, CUBIC, TMOD, TMOD_PW],
                ids=["sat", "cubic", "tmod", "tmod_pw"])
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
                pytest.approx(res.log_rho[ai, pid], rel=1e-11, abs=1e-13)
            assert log_rho_tilde(sol, drift, a, model4) == \
                pytest.approx(res.log_rho_tilde[ai, pid], rel=1e-11, abs=1e-13)
        sol = integrate_Z(model4, drift, TASKS.alphas[0], p)
        rec = stopping_time(sol, model4, drift, 2)
        assert rec.tau == res.tau[0, 2, pid]
        if pid < TASKS.n_check_paths:
            rep = check_pathwise_bound(sol, model4, drift)
            assert rep.z_half.worst_margin == \
                pytest.approx(res.bound_margin[0, 0, pid], rel=1e-9)
            assert rep.z_half.violations == res.bound_viol[0, 0, pid]
            wrep = check_moment_bound(sol, model4, drift,
                                      make_weight("power", 2.0))
            assert wrep.worst_margin == \
                pytest.approx(res.weight_margin[0, 0, 0, pid], rel=1e-9)


@pytest.mark.parametrize("drift", [CUBIC, L1], ids=["cubic", "l1"])
def test_engine_source_sums_match_girsanov_only(model4, grid, drift):
    # the full pass resolves w in the stacked call, a Girsanov-only pass
    # alone: the radial w sums run on the (B, d) state in both, the l1 ones
    # on the stack's w row against the (A, B, d) regularization
    full = run_ensemble(model4, drift, grid, TASKS, 12, 99)
    alone = run_ensemble(model4, drift, grid,
                         EnsembleTasks(alphas=TASKS.alphas, girsanov=True), 12, 99)
    assert np.array_equal(full.zeta, alone.zeta)


def test_engine_fields_match_stored(model4, grid, pair):
    drift, res = pair
    p = sample_ou_path(model4, grid, 99, path_index=1)
    sol = integrate_Z(model4, drift, TASKS.alphas[1], p)
    sl = slice(0, grid.n_steps + 1, TASKS.field_stride)
    assert np.allclose(res.field_x[1, 1], sol.x_path[sl], atol=1e-13)
    assert np.allclose(res.field_w0[1], p.w0[sl], atol=0)
    assert np.allclose(res.field_runmax[1], w0_running_max(p)[sl], atol=0)


def test_engine_sup_gaps_match_stored(model4, grid, pair):
    drift, res = pair
    p = sample_ou_path(model4, grid, 99, path_index=2)
    z1 = integrate_Z(model4, drift, 0.1, p).z
    z2 = integrate_Z(model4, drift, 0.03, p).z
    gap = float(np.max(np.linalg.norm(z1 - z2, axis=1)))
    assert gap == pytest.approx(res.sup_gaps[0, 2], rel=1e-12)


def test_join_rules_name_every_result_array(model4, grid):
    # every array in the result declares its join rule, and a block that
    # runs every task returns exactly the fields with a rule
    ruled = {f.name for f in fields(engine.EnsembleResult) if "join" in f.metadata}
    arrays = {f.name for f in fields(engine.EnsembleResult) if "ndarray" in f.type}
    assert ruled == arrays
    out = engine._run_block(model4, CUBIC, grid, TASKS, 99, np.arange(12))
    assert set(out) == ruled
    assert all(isinstance(out[name], np.ndarray) and out[name].size
               for name in ruled)
    # a joined pass gives every output as an array, also where no task asked
    # for it
    for tasks in (TASKS, EnsembleTasks(alphas=TASKS.alphas, girsanov=True)):
        res = run_ensemble(model4, CUBIC, grid, tasks, 12, 99, block_size=5)
        assert all(isinstance(getattr(res, name), np.ndarray) for name in ruled)


def test_join_rejects_unnamed_block_result(model4, monkeypatch):
    run_block = engine._run_block
    monkeypatch.setattr(engine, "_run_block",
                        lambda *a: {**run_block(*a), "extra": np.zeros(2)})
    with pytest.raises(ValueError, match="'extra' has no join rule"):
        run_ensemble(model4, None, PathGrid(8, 1.0), EnsembleTasks(), 4, 1,
                     block_size=2)


def test_split_paths_equal_shares():
    for n, nc, bs in ((12, 6, 5), (12, 6, 4), (12, 6, 3), (10, 3, 5), (7, 9, 2),
                      (4096, 1000, 1024), (8192, 0, 1024), (200, 1000, 1024),
                      (1400, 1000, 1024), (1, 1, 1), (5, 0, 7)):
        blocks = engine.split_paths(n, nc, bs)
        assert len(blocks) == -(-n // bs)
        joined = np.concatenate(blocks)
        assert np.array_equal(np.sort(joined), np.arange(n))   # disjoint, all
        checked = []
        for ids in blocks:
            assert np.all(np.diff(ids) > 0) and 0 < len(ids) <= bs
            checked.append(ids[ids < nc])
        counts = [len(c) for c in checked]
        assert max(counts) - min(counts) <= 1, (n, nc, bs)
        # the checked ids ascend across the blocks, so their rows join in order
        assert np.array_equal(np.concatenate(checked), np.arange(min(nc, n)))
    # one block, or no checked paths and equal blocks, keep the plain split
    assert np.array_equal(engine.split_paths(200, 1000, 1024)[0], np.arange(200))
    for i, ids in enumerate(engine.split_paths(8192, 0, 1024)):
        assert np.array_equal(ids, np.arange(1024 * i, 1024 * (i + 1)))


def test_engine_blocking_and_worker_invariance(model4, grid):
    # the iterative drifts too: each Newton solve stops per element, so a
    # path's numbers never depend on which paths or alphas share its block.
    # With 12 paths the checked shares and the field paths cross the block
    # boundaries, and the joined rows are put back in path-id order
    for drift in (SAT, CUBIC, TMOD):
        base = run_ensemble(model4, drift, grid, TASKS, 12, 99)
        ref = result_arrays(base)
        assert "field_x" in ref and "weight_node" in ref and "bound_viol" in ref
        for block_size, n_workers in ((5, 1), (5, 2), (4, 1), (4, 2), (3, 1)):
            other = run_ensemble(model4, drift, grid, TASKS, 12, 99,
                                 block_size=block_size, n_workers=n_workers)
            assert_same_arrays(ref, result_arrays(other), block_size)
            checked = [2, 2, 2] if block_size > 3 else [1, 2, 1, 2]
            assert [b[1] for b in other.blocks] == checked

        if drift is CUBIC:
            # more field paths than checked ones: the field rows of the
            # blocks interleave, and the join permutes them too.  In blocks
            # of 3 with 2 checked and 2 field paths, blocks 0 and 2 hold
            # neither, and their checked and field outputs have no rows
            for n_field, block_size, checked in ((7, 5, [0, 1, 1]),
                                                 (2, 3, [0, 1, 0, 1])):
                tasks = replace(TASKS, n_check_paths=2, n_field_paths=n_field)
                other = run_ensemble(model4, drift, grid, tasks, 12, 99,
                                     block_size=block_size)
                assert [b[1] for b in other.blocks] == checked
                assert_same_arrays(
                    result_arrays(run_ensemble(model4, drift, grid, tasks, 12, 99)),
                    result_arrays(other), block_size)

        # alpha = 0.03 alone reproduces row 1 of the (0.1, 0.03) run
        one = run_ensemble(model4, drift, grid, replace(TASKS, alphas=(0.03,)),
                           12, 99)
        assert np.array_equal(one.log_rho[0], base.log_rho[1])
        assert np.array_equal(one.log_rho_tilde[0], base.log_rho_tilde[1])
        assert np.array_equal(one.stopped_log_rho[:, 0],
                              base.stopped_log_rho[:, 1])
        assert np.array_equal(one.z_final[0], base.z_final[1])
        assert np.array_equal(one.field_x[0], base.field_x[1])
        assert np.array_equal(one.weight_margin[:, :, 0],
                              base.weight_margin[:, :, 1])
        assert np.array_equal(one.bound_viol[:, 0], base.bound_viol[:, 1])
        assert np.array_equal(one.bound_margin[:, 0], base.bound_margin[:, 1])


def result_arrays(res):
    """Every array of an ``EnsembleResult``, by field."""
    return {fd.name: getattr(res, fd.name) for fd in fields(res)
            if isinstance(getattr(res, fd.name), np.ndarray)}


def assert_same_arrays(ref, other, tag=None):
    """Both ``result_arrays`` dicts hold the same arrays, bit for bit."""
    assert other.keys() == ref.keys()
    for name, a in ref.items():
        assert np.array_equal(a, other[name]), (tag, name)


def test_engine_chunk_length_invariance(model4, grid, monkeypatch):
    # diagnostics are evaluated per flushed chunk; the chunk boundaries must
    # not show in any result, including the first-hit times, the stopped
    # exponents, the certificates and the node of each weight's worst margin
    tasks = replace(TASKS, weights=(make_weight("power", 2.0),
                                    make_weight("exponential"),
                                    make_weight("xlog")))
    runs = {}
    for chunk in (1, 7, engine.CHUNK_STEPS):
        assert chunk == 1 or (grid.n_steps % chunk and (grid.n_steps + 1) % chunk)
        monkeypatch.setattr(engine, "CHUNK_STEPS", chunk)
        runs[chunk] = result_arrays(run_ensemble(model4, CUBIC, grid, tasks, 12, 99))
    base = runs.pop(1)
    for name in ("weight_node", "weight_lhs", "weight_rhs", "zeta_stopped",
                 "cert_viol", "p0_counts", "field_runmax", "w0_max", "tau"):
        assert name in base
    for chunk, other in runs.items():
        assert_same_arrays(base, other, chunk)


@dataclass(frozen=True)
class SpikedWeight(WeightFunction):
    """The power-2 weight, but ``spike`` on arguments in (8.5, 20)."""

    spike: float = np.inf

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return np.where((u > 8.5) & (u < 20.0), self.spike, super().value(u))


@pytest.mark.parametrize("spike", [np.inf, np.nan], ids=["overflow", "nan"])
def test_engine_weight_checks_fail_closed(spike):
    # started at x0 = (3, 0, 0, 0) without drift, |X|^2 starts near 9, inside
    # the spiked band, while the right side's arguments (2|w0|^2 and 4|w0|^2
    # near 0, 4|x0|^2 = 36) stay outside it: a non-finite left side against a
    # finite right side must count as a violation and fail the gate
    model = validate_model(GalerkinModel(
        eigenvalues=[-1.0, -2.0, -3.0, -4.0], beta=1.0, sigma_diag=[1.0] * 4,
        horizon=1.0, x0=[3.0, 0.0, 0.0, 0.0]))
    tasks = EnsembleTasks(alphas=(0.1,), integrate=True, n_check_paths=4,
                          weights=(SpikedWeight("power", 2.0, spike),))
    res = run_ensemble(model, make_drift("zero"), PathGrid(100, 1.0), tasks, 4, 3)
    for viol, worst, over in zip(res.weight_viol, res.weight_margin,
                                 res.weight_overflow):
        n_viol, low = int(viol.sum()), float(worst.min())
        assert n_viol > 0 and over[0] > 0
        assert np.isnan(low) if np.isnan(spike) else low == -np.inf
        assert not bound_gate(n_viol, low)


def test_engine_p0_counts_match_stored(model4, grid):
    res = run_ensemble(model4, SAT, grid, TASKS, 12, 99)
    counts = np.zeros_like(res.p0_counts)
    for pid in range(12):
        p = sample_ou_path(model4, grid, 99, path_index=pid)
        n0 = w0_norms(p)
        counts += (n0[:, None] > np.asarray(TASKS.s_grid)).astype(np.int64)
    assert np.array_equal(res.p0_counts, counts)


DENSITY_ALPHAS = (0.1, 0.03, 0.01, 0.003, 0.001)   # the density benchmark's


def test_engine_girsanov_only_matches_stored_ops(model4, grid):
    # the source-path sums alone, down to alpha = 1e-3, where the factored
    # regularization coef * x and the definition (J - x)/alpha differ most
    tasks = EnsembleTasks(alphas=DENSITY_ALPHAS, girsanov=True)
    res = run_ensemble(model4, SAT, grid, tasks, 12, 99)
    for pid in range(12):
        p = sample_ou_path(model4, grid, 99, path_index=pid)
        for ai, a in enumerate(DENSITY_ALPHAS):
            assert zeta(p, SAT, a, model4) == \
                pytest.approx(res.log_rho[ai, pid], rel=1e-11, abs=1e-13)
    for block_size, n_workers in ((5, 1), (4, 2)):
        other = run_ensemble(model4, SAT, grid, tasks, 12, 99,
                             block_size=block_size, n_workers=n_workers)
        assert np.array_equal(res.zeta, other.zeta)
        assert np.array_equal(res.final_w0, other.final_w0)


def test_engine_stopped_exponent_frozen_at_tau(model4, grid):
    res = run_ensemble(model4, CUBIC, grid, TASKS, 12, 99)
    p = sample_ou_path(model4, grid, 99, path_index=4)
    tau = res.tau[0, 2, 4]
    expect = zeta(p, CUBIC, 0.1, model4, t_end=float(tau))
    assert res.stopped_log_rho[0, 0, 4] == pytest.approx(expect, rel=1e-11)


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


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_engine_rejects_bad_alpha(model4, grid, bad):
    # a Girsanov-only pass needs no step-size check, so the alpha itself
    # must be checked: 0 and NaN would give NaN exponents, a negative alpha
    # finite ones that mean nothing
    with pytest.raises(ValueError, match="alpha"):
        run_ensemble(model4, SAT, grid,
                     EnsembleTasks(alphas=(0.1, bad), girsanov=True), 2, 1)
