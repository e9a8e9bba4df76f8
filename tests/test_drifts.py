import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ouperturb import check_dissipative, make_drift, resolvent_residual
from ouperturb.drifts import (DriftSolverError, Modulation, RadialGrowth,
                              solve_radial_scale)

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
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 3))
    cold = CUBIC.resolvent(0.0, 0.05, x)
    warm, state = CUBIC.resolvent_warm(0.0, 0.05, x, None)
    warm2, _ = CUBIC.resolvent_warm(0.0, 0.05, x, state)
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
