import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ouperturb import drifts, make_drift, resolvent_residual
from ouperturb.drifts import (DriftSolverError, Modulation, RadialDrift,
                              RadialGrowth, solve_radial_scale)
from oracle import check_dissipative

CUBIC = make_drift("radial", power=2.0)
LIN = make_drift("radial", coef=1.0, power=0.0)   # F(x) = -x
L1 = make_drift("l1_subgradient", dim=2)
SAT = make_drift("saturating", eps=1.0)
TMOD = make_drift("time_modulated", dim=2, base_kind="radial",
                  base_params={"power": 2.0}, modulation={"kind": "abs_sin"})
SINGLE_VALUED = {"cubic": CUBIC, "linear": LIN, "saturating": SAT,
                 "modulated": TMOD}


def soft_threshold_oracle(x, alpha):
    # independent componentwise reference for the l1 resolvent
    out = []
    for v in np.atleast_1d(x):
        mag = abs(v) - alpha
        out.append(0.0 if mag <= 0 else (mag if v > 0 else -mag))
    return np.array(out)


def radial_scale_oracle(gfun, alpha, r):
    # bracketing root of s + alpha g(s) s = r on [0, r]
    if r == 0:
        return 0.0
    return brentq(lambda s: s + alpha * gfun(s) * s - r, 0.0, r, xtol=1e-15)


# ---------------------------------------------------------------------------
# minimal sections


def test_minimal_section_l1_zero_coordinate():
    out = L1.minimal_section(0.0, np.array([0.0, 3.0]))
    assert np.array_equal(out, [0.0, -1.0])


def test_minimal_section_cubic():
    out = CUBIC.minimal_section(0.0, np.array([1.0, 0.0]))
    assert np.allclose(out, [-1.0, 0.0], atol=1e-15)


def test_minimal_section_saturating_origin():
    assert np.array_equal(SAT.minimal_section(0.0, np.zeros(3)), np.zeros(3))


def test_minimal_section_modulated_vanishes_at_zero_time():
    x = np.array([1.0, 2.0])
    assert np.array_equal(TMOD.minimal_section(0.0, x), np.zeros(2))


# ---------------------------------------------------------------------------
# resolvents


def test_resolvent_l1_matches_soft_threshold_exactly():
    x = np.array([2.0, -0.3])
    out = L1.resolvent(0.0, 0.5, x)
    assert np.array_equal(out, [1.5, 0.0])
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = rng.standard_normal(2) * 3
        a = float(np.exp(rng.uniform(-6, 1)))
        assert np.max(np.abs(L1.resolvent(0.0, a, x)
                             - soft_threshold_oracle(x, a))) <= 1e-14


def test_resolvent_cubic_scalar_oracle():
    s = radial_scale_oracle(lambda r: r**2, 1.0, 1.0)
    assert s == pytest.approx(0.6823278, abs=1e-7)
    out = CUBIC.resolvent(0.0, 1.0, np.array([1.0]))
    assert out[0] == pytest.approx(s, abs=1e-12)


def test_resolvent_saturating_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r = float(rng.uniform(0, 5))
        a = float(np.exp(rng.uniform(-5, 1)))
        s = radial_scale_oracle(lambda q: 1.0 / (1.0 + q), a, r) if r else 0.0
        out = SAT.resolvent(0.0, a, np.array([r]))
        assert out[0] == pytest.approx(s, abs=1e-11)


def test_resolvent_small_alpha_limit():
    rng = np.random.default_rng(5)
    for drift in SINGLE_VALUED.values():
        x = rng.standard_normal(3) * 2
        j = drift.resolvent(0.3, 1e-8, x)
        a = float(np.asarray(drift.bound(np.linalg.norm(x))))
        assert np.linalg.norm(j - x) <= 1e-6 * (1 + a)


def test_resolvent_residual_contract():
    rng = np.random.default_rng(6)
    for name, drift in SINGLE_VALUED.items():
        t = rng.uniform(0, 1, 500)
        x = rng.standard_normal((500, 3)) * 3
        alpha = np.exp(rng.uniform(-6, 1, 500))
        res = resolvent_residual(drift, t, alpha, x)
        assert np.all(res <= 1e-10 * (1 + np.linalg.norm(x, axis=1))), name


def test_resolvent_warm_matches_cold():
    # the resolvent rebuilt from the factored regularization, J = x + alpha F
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 3))
    cold = CUBIC.resolvent(0.0, 0.05, x)
    coef, base, state = CUBIC.resolvent_warm(0.0, 0.05, x, None)
    warm = x + 0.05 * coef[:, None] * base
    coef, base, _ = CUBIC.resolvent_warm(0.0, 0.05, x, state)
    warm2 = x + 0.05 * coef[:, None] * base
    assert np.allclose(cold, warm, atol=1e-14)
    assert np.allclose(cold, warm2, atol=1e-12)


def test_solver_error_reports_worst_element():
    # one Newton step from the cold start s = r cannot meet the stop; the
    # error names the alpha, radius and residual of the worst element
    r = np.array([0.5, 40.0])
    alpha = np.array([0.1, 0.2])
    with pytest.raises(DriftSolverError) as err:
        solve_radial_scale(RadialGrowth(), alpha, r, max_iter=1)
    # the Newton step on s + a s^3 = r from s = r, in closed form
    s1 = r - alpha * r**3 / (1 + 3 * alpha * r**2)
    h = s1 + alpha * s1**3 - r
    assert np.argmax(np.abs(h) / r) == 1
    msg = str(err.value)
    for label, v in (("alpha", alpha[1]), ("r", r[1]), ("residual", h[1])):
        assert f"{label}={v:.6g}" in msg, msg


@pytest.mark.parametrize("power,coef", [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0)])
def test_closed_form_resolvent_contract(power, coef):
    # every element meets |h| <= 1e-13 r, at r = 0 too, from a cold and a
    # warm start, including alpha = 0 and alpha = 1e-200, where the cubic
    # formula gives NaN and the Newton fallback solves; powers 0 and 1 take
    # the Newton solve throughout.  The norm solution is the state that
    # resolvent_warm returns; J is built both as the resolvent builds it and,
    # for alpha > 0, from the factored form
    drift = RadialDrift(RadialGrowth(coef=coef, power=power))
    r = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 20_000)])
    x = np.zeros((r.size, 3))
    x[:, 1] = r
    eps = np.finfo(float).eps
    for alpha in (0.0, 1e-200, 1e-6, 0.01, 1.0):
        for warm in (None, 0.5 * r):
            with np.errstate(divide="ignore", invalid="ignore"):   # coef at alpha 0
                coef_, base, s = drift.resolvent_warm(0.0, alpha, x, warm)
            h = s + alpha * drift.growth(s) * s - r
            assert np.all(np.abs(h) <= 1e-13 * r), alpha
            assert np.all(s >= 0) and s[0] == 0.0
            assert base is x
            # J = (s/r) x as the resolvent builds it, from the same start
            factor, s_j = drift.scale(alpha, x, warm)
            j = factor[:, None] * x
            assert np.array_equal(s_j, s)
            if warm is None:
                assert np.array_equal(drift.resolvent(0.0, alpha, x), j)
            np.testing.assert_allclose(j[:, 1], s, rtol=1e-15, atol=0)
            assert not j[:, [0, 2]].any()
            if alpha > 0:
                # x + alpha coef x rounds twice more than (s/r) x: a few ulp of r
                j = x + alpha * coef_[:, None] * base
                assert np.all(np.abs(j[:, 1] - s) <= 4 * eps * r), alpha
                assert not j[:, [0, 2]].any()


def test_closed_form_miss_falls_back_to_newton(monkeypatch):
    # an element whose closed form misses the contract is solved again by
    # the Newton solve from its warm start; with one Newton step allowed,
    # the solver error names that element
    growth = RadialGrowth()
    alpha = np.array([0.1, 0.2])[:, None]
    r = np.array([[0.5, 3.0, 40.0], [0.7, 40.0, 2.0]])
    warm = 0.9 * r
    closed = drifts.closed_radial_scale
    clean = drifts.radial_scale(growth, alpha, r, s0=warm)

    def miss_one(g, a, rr):
        s, h = closed(g, a, rr)
        s[1, 1] = h[1, 1] = np.nan
        return s, h

    monkeypatch.setattr(drifts, "closed_radial_scale", miss_one)
    out = drifts.radial_scale(growth, alpha, r, s0=warm)
    newton = solve_radial_scale(growth, 0.2, r[1, 1], s0=warm[1, 1])
    assert out[1, 1] == newton
    mask = np.ones_like(r, dtype=bool)
    mask[1, 1] = False
    assert np.array_equal(out[mask], clean[mask])
    _, _, state = RadialDrift(growth).resolvent_warm(0.0, alpha, r[..., None], warm)
    assert state[1, 1] == newton

    monkeypatch.setattr(drifts, "solve_radial_scale",
                        lambda *a, **k: solve_radial_scale(*a, **k, max_iter=1))
    with pytest.raises(DriftSolverError) as err:
        drifts.radial_scale(growth, alpha, r)
    msg = str(err.value)
    assert "1 of 1 elements left" in msg
    assert "alpha=0.2," in msg and "r=40," in msg, msg


FACTORED = {
    **{f"radial power {p:g}": make_drift("radial", coef=2.0, power=p)
       for p in (0.0, 1.0, 1.5, 2.0)},
    "saturating": SAT,
    "modulated radial": TMOD,
    "modulated saturating": make_drift(
        "time_modulated", dim=3, base_kind="saturating",
        base_params={"eps": 0.5},
        modulation={"kind": "piecewise", "times": [0.0, 0.5], "values": [0.0, 0.6]}),
    "zero": make_drift("zero"),
    "l1": make_drift("l1_subgradient", dim=3),
}


@pytest.mark.parametrize("name", list(FACTORED))
@pytest.mark.parametrize("t", [0.0, 0.7], ids=["t0", "t07"])
def test_factored_yosida_matches_definition(name, t):
    # coef[..., None] * base against yosida = (resolvent - x)/alpha, row by
    # row at scalar alpha, for the (A, 1) alpha column against (B, d) source
    # states and (A, B, d) stacked states, with rows at r = 0.  Both forms
    # take the same resolvent factor s/r (the same solve on the same
    # (alpha, r)); they differ only in the last roundings.  The definition
    # loses up to ulp(|x|) in J = (s/r) x and again in J - x, and the
    # factored form at most a few relative ulp of |F| <= |x|/alpha, so each
    # component agrees within a small multiple of ulp * |x| / alpha (the
    # worst seen here is 1.05 of it; the bound allows 8).
    # t = 0 is a zero of both modulations (|sin 0| and the piecewise knot)
    drift = FACTORED[name]
    rng = np.random.default_rng(12)
    alpha = np.array([0.3, 0.01, 1e-3, 1e-5])[:, None]
    A, B, d = alpha.shape[0], 40, 3
    eps = np.finfo(float).eps
    for x in (rng.standard_normal((B, d)) * 3, rng.standard_normal((A, B, d)) * 3):
        x[..., ::7, :] = 0.0
        coef, base, _ = drift.resolvent_warm(t, alpha, x)
        assert coef.shape == (A, B)
        if isinstance(drift, drifts.RadialFamily) or (
                isinstance(drift, drifts.TimeModulatedDrift)
                and isinstance(drift.base, drifts.RadialFamily)):
            assert base is x
        got = coef[..., None] * base
        assert got.shape == (A, B, d)
        for i, a in enumerate(alpha[:, 0]):
            xi = x[i] if x.ndim == 3 else x
            want = drift.yosida(t, a, xi)
            tol = 8 * eps * np.linalg.norm(xi, axis=-1, keepdims=True) / a
            assert np.all(np.abs(got[i] - want) <= tol), (name, a)
            assert np.array_equal(got[i][::7], np.zeros_like(got[i][::7]))


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
       y=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
       a=st.floats(1e-4, 10.0))
def test_resolvent_nonexpansive(x, y, a):
    x, y = np.asarray(x), np.asarray(y)
    for drift in (CUBIC, L1, SAT):
        jx = drift.resolvent(0.0, a, x)
        jy = drift.resolvent(0.0, a, y)
        assert np.linalg.norm(jx - jy) <= np.linalg.norm(x - y) + 1e-9


def test_range_condition_reproduces_target():
    # single-valued kinds: x - alpha F0 at the resolvent recovers the input
    rng = np.random.default_rng(8)
    a = 0.3
    for drift in (CUBIC, SAT, TMOD):
        z = rng.standard_normal((200, 2)) * 3
        t = rng.uniform(0, 1, 200)
        j = drift.resolvent(t, a, z)
        back = j - a * drift.minimal_section(t, j)
        assert np.max(np.linalg.norm(back - z, axis=1)) <= 1e-10 * 4
    # multivalued kind: the implied selection (j - z)/alpha must lie in the
    # subgradient set, i.e. equal -sign away from zeros and lie in [-1, 1]
    # at zeros
    z = rng.standard_normal((500, 2)) * 0.5
    j = L1.resolvent(0.0, a, z)
    sel = (j - z) / a
    at_zero = j == 0.0
    assert np.all(np.abs(sel[at_zero]) <= 1.0 + 1e-12)
    assert np.allclose(sel[~at_zero], -np.sign(j[~at_zero]), atol=1e-12)


# ---------------------------------------------------------------------------
# regularized drift


def test_yosida_l1_equals_minimal_section_away_from_kink():
    out = L1.yosida(0.0, 0.5, np.array([2.0, 2.0]))
    assert np.allclose(out, [-1.0, -1.0], atol=1e-15)


def test_yosida_cubic_value():
    s = radial_scale_oracle(lambda r: r**2, 1.0, 1.0)
    out = CUBIC.yosida(0.0, 1.0, np.array([1.0]))
    assert out[0] == pytest.approx(s - 1.0, abs=1e-12)
    assert out[0] == pytest.approx(-0.3176722, abs=1e-7)


def test_yosida_fixed_point_at_drift_zero():
    assert np.array_equal(CUBIC.yosida(0.0, 0.5, np.zeros(3)), np.zeros(3))


def test_yosida_norm_below_minimal_section():
    rng = np.random.default_rng(9)
    for drift in (CUBIC, L1, SAT, TMOD):
        x = rng.standard_normal((1000, 2)) * 3
        t = rng.uniform(0, 1, 1000)
        for a in (1e-1, 1e-2, 1e-3):
            fa = np.linalg.norm(drift.yosida(t, a, x), axis=1)
            f0 = np.linalg.norm(drift.minimal_section(t, x), axis=1)
            assert np.all(fa <= f0 + 1e-8)


def test_yosida_converges_to_minimal_section():
    # gap ~ alpha * local drift gradient * envelope; moderate radii keep the
    # stated tolerance meaningful for the cubic kind
    rng = np.random.default_rng(10)
    for drift in (CUBIC, LIN, SAT):
        x = rng.standard_normal((200, 3))
        gap = np.linalg.norm(drift.yosida(0.0, 1e-6, x)
                             - drift.minimal_section(0.0, x), axis=1)
        a = np.asarray(drift.bound(np.linalg.norm(x, axis=1)))
        assert np.all(gap <= 1e-4 * (1 + a))


# ---------------------------------------------------------------------------
# radial envelope and sampled dissipativity


def test_bound_values():
    assert float(SAT.bound(np.asarray(17.0))) == 1.0
    assert float(CUBIC.bound(np.asarray(2.0))) == pytest.approx(8.0)
    assert float(L1.bound(np.asarray(0.0))) == pytest.approx(np.sqrt(2.0))
    r = np.linspace(0, 10, 101)
    for drift in (CUBIC, L1, SAT, TMOD):
        vals = np.asarray(drift.bound(r))
        assert np.all(np.diff(vals) >= -1e-15)


def test_bound_dominates_minimal_section():
    rng = np.random.default_rng(11)
    for drift in (CUBIC, L1, SAT, TMOD):
        x = rng.standard_normal((2000, 2)) * 4
        t = rng.uniform(0, 2, 2000)
        f0 = np.linalg.norm(drift.minimal_section(t, x), axis=1)
        a = np.asarray(drift.bound(np.linalg.norm(x, axis=1)))
        assert np.all(f0 <= a + 1e-12)


def test_check_dissipative_zero_drift():
    rep = check_dissipative(make_drift("zero"), 0, 100, dim=3)
    assert rep.max_monotone_gap == 0.0
    assert all(v == 0.0 for v in rep.lipschitz_ratio.values())


def test_check_dissipative_l1_many_pairs():
    rep = check_dissipative(L1, 1, 10_000, dim=2)
    assert rep.max_monotone_gap <= 0.0
    assert rep.passed


def test_check_dissipative_cubic_lipschitz():
    rep = check_dissipative(CUBIC, 2, 2000, dim=2, alphas=(0.1,))
    assert rep.lipschitz_ratio[0.1] <= 20.0
    assert rep.passed


# ---------------------------------------------------------------------------
# helpers


def test_modulation_piecewise():
    m = Modulation("piecewise", times=(0.0, 0.5), values=(1.0, 0.25))
    assert np.allclose(m(np.array([0.0, 0.49, 0.5, 2.0])),
                       [1.0, 1.0, 0.25, 0.25])
    with pytest.raises(ValueError):
        Modulation("piecewise", times=(0.0,), values=(2.0,))


def test_radial_growth_validation():
    with pytest.raises(ValueError):
        RadialGrowth(coef=-1.0)
    with pytest.raises(ValueError):
        RadialGrowth(power=0.5)


def test_make_drift_unknown_kind():
    with pytest.raises(ValueError):
        make_drift("nope")
