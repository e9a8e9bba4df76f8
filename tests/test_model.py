import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouperturb import (GalerkinModel, ModelValidationError, semigroup_apply,
                       validate_model)
from oracle import (regularized_beta, resolvent_linear, yosida_eigenvalues,
                    yosida_linear)


def test_validate_minimal():
    m = validate_model(GalerkinModel(eigenvalues=[-1.0], beta=1.0,
                                     sigma_diag=[1.0], horizon=1.0, x0=[0.0]))
    assert m.inv_sigma_norm == 1.0


def test_validate_rejects_slow_eigenvalue():
    m = GalerkinModel(eigenvalues=[-1.0, -0.5], beta=1.0,
                      sigma_diag=[1.0, 1.0], horizon=1.0, x0=[0.0, 0.0])
    with pytest.raises(ModelValidationError, match="-0.5"):
        validate_model(m)


def test_validate_inv_sigma_norm():
    m = validate_model(GalerkinModel(eigenvalues=[-1.0, -1.0, -1.0], beta=1.0,
                                     sigma_diag=[2.0, 1.0, 0.5], horizon=1.0,
                                     x0=[0.0, 0.0, 0.0]))
    assert m.inv_sigma_norm == pytest.approx(2.0, abs=0)


def test_validate_rejects_zero_sigma():
    m = GalerkinModel(eigenvalues=[-1.0], beta=1.0, sigma_diag=[0.0],
                      horizon=1.0, x0=[0.0])
    with pytest.raises(ModelValidationError, match="sigma"):
        validate_model(m)


def test_semigroup_identity_and_halving(model1):
    v = np.array([4.0])
    assert np.array_equal(semigroup_apply(model1, 0.0, v), v)
    out = semigroup_apply(model1, np.log(2.0), v)
    assert out[0] == pytest.approx(2.0, rel=1e-14)


def test_semigroup_rejects_negative_time(model1):
    with pytest.raises(ValueError):
        semigroup_apply(model1, -0.1, np.array([1.0]))


def test_semigroup_contraction(model4):
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = rng.uniform(0, 3)
        v = rng.standard_normal(4)
        out = semigroup_apply(model4, t, v)
        assert np.linalg.norm(out) <= np.exp(-model4.beta * t) \
            * np.linalg.norm(v) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0, 5), s=st.floats(0, 5),
       v=st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_semigroup_composition(t, s, v):
    m = validate_model(GalerkinModel(
        eigenvalues=[-1.0, -2.0, -3.0, -4.0], beta=1.0,
        sigma_diag=[1.0] * 4, horizon=1.0, x0=[0.0] * 4))
    v = np.asarray(v)
    lhs = semigroup_apply(m, t + s, v)
    rhs = semigroup_apply(m, t, semigroup_apply(m, s, v))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_generator_dissipativity_exact(model4):
    # the quadratic form of the generator dominated by -beta|v|^2, exactly
    rng = np.random.default_rng(1)
    v = rng.standard_normal((10_000, 4))
    quad = np.sum(model4.eigenvalues * v * v, axis=1)
    assert np.all(quad <= -model4.beta * np.sum(v * v, axis=1) + 1e-12)


def test_yosida_linear_values(model1):
    assert np.array_equal(yosida_linear(model1, 1.0, np.zeros(1)), np.zeros(1))
    out = yosida_linear(model1, 1.0, np.array([2.0]))
    assert out[0] == pytest.approx(-1.0, rel=1e-14)


def test_yosida_linear_rejects_small_lambda(model1):
    with pytest.raises(ValueError):
        yosida_linear(model1, 0.5, np.array([1.0]))


def test_yosida_quadratic_chain(model4):
    # <A_lam x, x> <= -lam^2 beta |R_lam x|^2 on random samples
    rng = np.random.default_rng(2)
    for _ in range(1000):
        lam = float(np.exp(rng.uniform(0, 7)))
        x = rng.standard_normal(4) * 3
        lhs = float(np.dot(yosida_linear(model4, lam, x), x))
        r = resolvent_linear(model4, lam, x)
        rhs = -lam**2 * model4.beta * float(np.dot(r, r))
        assert lhs <= rhs + 1e-10 * (1 + abs(rhs))


def test_yosida_converges_to_generator(model4):
    x = np.array([1.0, -0.5, 0.25, 2.0])
    ax = model4.eigenvalues * x
    gaps = [np.linalg.norm(yosida_linear(model4, lam, x) - ax)
            for lam in (1.0, 10.0, 100.0, 1000.0)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    # per-mode closed-form gap: lam_i^2 x_i / (lam - lam_i)
    exact = np.linalg.norm(model4.eigenvalues**2 * x
                           / (1000.0 - model4.eigenvalues))
    assert gaps[-1] == pytest.approx(exact, rel=1e-12)


def test_regularized_beta(model4):
    assert regularized_beta(model4, None) == model4.beta
    b = regularized_beta(model4, 4.0)
    assert b == pytest.approx(4.0 / 5.0)
    eig = yosida_eigenvalues(model4, 4.0)
    assert np.all(eig <= -b + 1e-12)
