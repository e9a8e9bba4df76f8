import numpy as np
import pytest

from ouperturb import (GalerkinModel, PathGrid, estimate_constant, make_drift,
                       make_weight, validate_model)
from ouperturb.weights import (WeightFunction, check_moment_bound_on_fields,
                               closed_form_constant)
from oracle import (check_moment_bound, inject, integrate_Z, noise_functionals,
                    sample_ou_path, zero_noise_path)

POWER2 = make_weight("power", 2.0)
EXP = make_weight("exponential")
XLOG = make_weight("xlog")
ALL = (POWER2, EXP, XLOG, make_weight("power", 1.0))


def test_catalog_shape_constraints():
    u = np.linspace(1e-6, 50, 2000)
    for w in ALL:
        assert np.all(w.deriv(u) > 0)
        assert np.all(np.diff(w.deriv(u)) >= 0)     # convex


def test_weight_names_tell_powers_apart():
    # the check ids and file names of two power weights must differ
    assert [w.name for w in ALL] == ["power2", "exponential", "xlog", "power1"]
    assert make_weight("power", 1.5).name == "power1.5"


def test_ratio_limits():
    # u w'(u)/w(u) approaches the declared limit
    assert POWER2.ratio_limit == 2.0
    u = 1e6
    assert u * POWER2.deriv(u) / POWER2.value(u) == pytest.approx(2.0)
    # xlog approaches one like 1/log(u); below 1% only at astronomic arguments
    u = 1e45
    ratio = u * XLOG.deriv(u) / XLOG.value(u)
    assert abs(ratio - 1.0) < 0.01
    gaps = [abs(1e3**k * XLOG.deriv(1e3**k) / XLOG.value(1e3**k) - 1.0)
            for k in (1, 2, 3, 4)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert EXP.ratio_limit == np.inf


def test_superlinear_growth_when_limit_exceeds_one():
    # value(u)/u exceeds any fixed threshold at large arguments
    assert POWER2.value(1e8) / 1e8 > 1e6
    assert EXP.value(50.0) / 50.0 > 1e6


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        WeightFunction("power", 0.5)
    with pytest.raises(ValueError):
        WeightFunction("cubic")


# ---------------------------------------------------------------------------
# estimate constant


def test_constant_exponential_half_beta():
    c, beta = 1.3, 0.9
    r = estimate_constant(EXP, c, beta, beta / 2.0)[0]
    expect = 0.5 * beta * np.exp(c**2 / beta**2)
    assert r.value == pytest.approx(expect, rel=1e-9)
    assert r.closed_form == pytest.approx(expect, rel=1e-12)


def test_constant_power_one():
    r = estimate_constant(make_weight("power", 1.0), 2.0, 1.0, 0.5)[0]
    assert r.value == pytest.approx(2.0, rel=1e-9)


def test_constant_zero_c_exponential():
    r = estimate_constant(EXP, 0.0, 1.0, 0.5)[0]
    assert r.value == pytest.approx(0.5, rel=1e-12)


def test_constant_expands_bracket_beyond_stated():
    # for B >= beta the fixed bracket max(c^2/b^2, c^2/(4(b-B)^2)) misses the
    # maximizer; the closed form pins the true value
    r = estimate_constant(make_weight("power", 2.0), 1.0, 1.0, 1.5)[0]
    assert r.value == pytest.approx(13.5, rel=1e-9)
    assert r.u_argmax == pytest.approx(9.0, rel=1e-6)


def test_constant_rejects_bad_hypothesis():
    with pytest.raises(ValueError):
        estimate_constant(XLOG, 1.0, 1.0, 1.0)       # needs B < beta * 1
    with pytest.raises(ValueError):
        estimate_constant(POWER2, 1.0, 1.0, 2.0)     # needs B < 2 beta


def test_constant_dominates_on_random_triples():
    rng = np.random.default_rng(20)
    for w in (POWER2, EXP, XLOG):
        for _ in range(60):
            c = float(rng.uniform(0.01, 3))
            beta = float(rng.uniform(0.3, 2))
            B = float(rng.uniform(1e-3, 0.95 * beta * min(w.ratio_limit, 4)))
            r = estimate_constant(w, c, beta, B)[0]
            u0 = max(c**2 / beta**2, c**2 / (4 * (beta - B) ** 2)) \
                if B < beta else c**2 / beta**2
            u = np.linspace(0, 10 * max(u0, 1e-9), 20001)
            with np.errstate(over="ignore", invalid="ignore"):
                f = w.deriv(u) * (c * np.sqrt(u) - beta * u) + B * w.value(u)
            f = np.where(np.isnan(f), -np.inf, f)
            assert np.max(f) <= r.value * (1 + 1e-9) + 1e-300


def test_constant_batch_equals_scalar_calls():
    # one batched call refines every triple at once with a per-element stop;
    # each entry must be the scalar call's result bit for bit, bracket
    # expansion (B >= beta, exponential weight) included
    rng = np.random.default_rng(21)
    for w in (POWER2, XLOG, EXP):
        c = rng.uniform(0.0, 3.0, 40)
        beta = rng.uniform(0.3, 2.0, 40)
        B = beta * rng.uniform(1e-3, 0.95 * min(w.ratio_limit, 4.0), 40)
        batch = estimate_constant(w, c, beta, B)
        assert len(batch) == 40
        scalar = [estimate_constant(w, float(ci), float(bi), float(Bi))[0]
                  for ci, bi, Bi in zip(c, beta, B)]
        assert all(isinstance(one.value, float) for one in scalar)
        assert batch == scalar
    expanded = [one.u_bracket > max(ci**2 / bi**2, 1.0)
                for ci, bi, Bi, one in zip(c, beta, B, scalar) if Bi >= bi]
    assert any(expanded)        # the last weight is the exponential


def test_closed_form_xlog_is_upper_bound():
    val, upper = closed_form_constant(XLOG, 1.5, 1.0, 0.4)
    assert upper
    r = estimate_constant(XLOG, 1.5, 1.0, 0.4)[0]
    assert val >= r.value


# ---------------------------------------------------------------------------
# noise functionals and the moment bound


def test_noise_functionals_constant_envelope(model4, grid400):
    sat = make_drift("saturating", eps=1.0)
    p = sample_ou_path(model4, grid400, 40)
    ks, kd, overflow = noise_functionals(p, POWER2, model4.beta, sat.bound)
    assert np.allclose(kd, POWER2.value(2.0 / model4.beta**2))
    assert overflow.size == 0


def test_noise_functionals_zero_path(model4, grid400):
    p = zero_noise_path(model4, grid400)
    ks, kd, _ = noise_functionals(p, XLOG, model4.beta, make_drift("zero").bound)
    assert np.allclose(ks, XLOG.value(0.0))


def test_noise_functionals_drift_term_nondecreasing(model4, grid400):
    cubic = make_drift("radial", power=2.0)
    for i in range(5):
        p = sample_ou_path(model4, grid400, 41, path_index=i)
        for w in (POWER2, XLOG):
            _, kd, _ = noise_functionals(p, w, model4.beta, cubic.bound)
            assert np.all(np.diff(kd) >= -1e-12)


def test_moment_bound_boundary_case():
    # x = 0, t = 0: weight(0) <= weight(0)/2 + weight(0)/2 exactly
    m = validate_model(GalerkinModel(eigenvalues=[-1.0], beta=1.0,
                                     sigma_diag=[1.0], horizon=1.0, x0=[0.0]))
    grid = PathGrid(10, 1.0)
    sol = integrate_Z(m, make_drift("zero"), 1.0, zero_noise_path(m, grid))
    for w in (POWER2, EXP, XLOG):
        rep = check_moment_bound(sol, m, make_drift("zero"), w, k_scale=4.0)
        assert rep.violations == 0


def test_moment_bound_derived_form_holds_stated_fails(model4):
    # the derived split (k_scale=4) holds node by node; the stated split
    # (k_scale=2) is violated whenever the two components align
    grid = PathGrid(800, 1.0)
    cubic = make_drift("radial", power=2.0)
    stated_viol = 0
    for i in range(40):
        p = sample_ou_path(model4, grid, 42, path_index=i)
        sol = integrate_Z(model4, cubic, 0.1, p)
        for w in (POWER2, EXP, XLOG):
            derived = check_moment_bound(sol, model4, cubic, w, k_scale=4.0)
            assert derived.violations == 0, (i, w.kind)
            stated_viol += check_moment_bound(sol, model4, cubic, w,
                                              k_scale=2.0).violations
    assert stated_viol > 0


def test_moment_bound_zero_drift_identity_weight(model4):
    grid = PathGrid(800, 1.0)
    zero = make_drift("zero")
    w1 = make_weight("power", 1.0)
    for i in range(20):
        p = sample_ou_path(model4, grid, 43, path_index=i)
        sol = integrate_Z(model4, zero, 0.1, p)
        rep = check_moment_bound(sol, model4, zero, w1, k_scale=4.0)
        assert rep.violations == 0


def test_moment_bound_exponential_overflow_reported(model4, grid400):
    # inject a path with a huge excursion; overflow must be counted, not hidden
    w0 = np.zeros((grid400.n_steps + 1, 4))
    w0[200:, 0] = 40.0
    p = inject(grid400, x0=model4.x0, w0=w0, eigenvalues=model4.eigenvalues)
    ks, kd, overflow = noise_functionals(p, EXP, model4.beta,
                                         make_drift("radial", power=2.0).bound)
    assert overflow.size > 0


def test_fields_moment_bound_fails_closed():
    # node 0 holds; node 1: the left side overflows against a finite right
    # side (margin -inf); node 2: the right side overflows alone (holds);
    # node 3: both sides overflow (margin NaN)
    fields = np.array([[[0.0], [30.0], [0.0], [30.0]]])
    w0 = np.array([[[0.0], [0.0], [30.0], [30.0]]])
    times = np.array([0.0, 0.1, 0.2, 0.3])
    bound = make_drift("zero").bound
    rep = check_moment_bound_on_fields(fields[:, :3], w0[:, :3], np.zeros((1, 3)),
                                       times[:3], [0.0], EXP, 1.0, bound, 1e-3)
    assert (rep.violations, rep.worst_margin, rep.overflow_nodes) == (1, -np.inf, 2)
    rep = check_moment_bound_on_fields(fields, w0, np.zeros((1, 4)), times,
                                       [0.0], EXP, 1.0, bound, 1e-3)
    assert rep.violations == 2 and np.isnan(rep.worst_margin)
    assert rep.overflow_nodes == 3
