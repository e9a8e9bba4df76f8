import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm as normal

from ouperturb import (BumpSumWeight, ClosedFormWeight, EnvelopeWeight,
                       GalerkinModel, MollifiedWeight, PathGrid, TabulatedTail,
                       build_bump_weight, check_weight_integral, tail_table,
                       validate_model, wilson_interval)
from ouperturb.engine import EnsembleTasks, run_ensemble
from ouperturb.tails import (FLOAT_SANE_Y, admissibility_chain_fit,
                             admissible_y_start, level_for_y, p0_from_counts)
from oracle import IdentityWeight


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 1000), n=st.integers(1, 1000))
def test_wilson_interval_properties(k, n):
    if k > n:
        return
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n + 1e-12
    assert k / n - 1e-12 <= hi <= 1.0


def test_admissible_start():
    bound = lambda r: np.ones_like(np.asarray(r, dtype=float))
    assert admissible_y_start(bound, 1.0, 0.2) == pytest.approx(np.e)
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    assert admissible_y_start(zero, 1.0, 1.0) == 1.0


def test_level_for_y_worked_example():
    # linear envelope, unit inverse-noise norm, horizon 0.2, y = e^4 -> level 1
    bound = lambda r: np.asarray(r, dtype=float)
    lev, capped = level_for_y(np.array([np.exp(4.0)]), bound, 1.0, 0.2, 8)
    assert lev[0] == 1 and not capped


def test_level_for_y_rejects_low_grid():
    bound = lambda r: 1.0 + np.asarray(r, dtype=float)
    with pytest.raises(ValueError, match="admissible"):
        level_for_y(np.array([1.01]), bound, 1.0, 1.0, 4)


def test_tail_table_bounds_and_rearrangement():
    y = np.geomspace(2.0, 1e6, 30)
    counts = [900, 500, 200, 50, 5]
    bound = lambda r: np.asarray(r, dtype=float)
    tt = tail_table(y, counts, 1000, [0, 1, 2, 3, 4], bound, 1.0, 1.0)
    assert np.all(tt.p <= 1.0) and np.all(tt.p >= 1.0 / tt.y - 1e-15)
    assert np.all(np.diff(tt.p_rearranged) <= 1e-15)
    assert np.all(tt.p_upper >= tt.p - 1e-15)
    with pytest.raises(ValueError, match="ladder"):
        tail_table(y, counts, 1000, [0, 2, 3, 4, 5], bound, 1.0, 1.0)


# ---------------------------------------------------------------------------
# integrability weights


def test_closed_form_weight_values():
    w = ClosedFormWeight(1.0)
    y = np.linspace(0, 50, 101)
    assert np.allclose(w.value(y), 1.0 + y, rtol=1e-14)
    w5 = ClosedFormWeight(0.5)
    assert float(w5.value(np.e - 1.0)) == pytest.approx(np.e, rel=1e-12)
    assert np.all(np.diff(w5.value(np.geomspace(0.1, 1e8, 200))) > 0)
    with pytest.raises(ValueError):
        ClosedFormWeight(1.5)


def test_closed_form_log_evaluation_matches_direct():
    w = ClosedFormWeight(0.5)
    log_y = np.array([-3.0, 0.0, 5.0, 400.0])
    direct = w.value(np.exp(log_y[:3]))
    assert np.allclose(w.value_from_log(log_y)[:3], direct, rtol=1e-12)
    assert np.isfinite(w.value_from_log(log_y)[3])  # beyond float range of y


def test_bump_knots_on_inverse_tail():
    # p(y) = 1/y puts knots at k^2, pushed apart to keep spacing >= 3
    y = np.geomspace(1.0, 1e4, 6000)
    wt = build_bump_weight(y, 1.0 / y, max_knots=8)
    assert wt.knots[0] == pytest.approx(1.0, abs=1e-3)
    assert wt.knots[1] == pytest.approx(4.0, abs=0.02)
    assert wt.knots[2] == pytest.approx(9.0, abs=0.02)
    diffs = np.diff(wt.knots)
    assert np.all(diffs >= 3.0 - 1e-12)
    # increasing, continuous, mass 2 per bump
    ys = np.linspace(0, wt.knots[-1] + 5.0, 2001)
    vals = wt.value(ys)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(2.0 * len(wt.knots), rel=1e-9)


def test_bump_construction_stops():
    # build_bump_weight stops in one of three ways, and knots says where
    y = np.geomspace(1.0, 1e4, 6000)
    # max_knots reached: p = 1/y^2 drops below every 1/k^2 (at y = k)
    for cap in (8, 9):
        wt = build_bump_weight(y, 1.0 / y**2, max_knots=cap)
        assert isinstance(wt, BumpSumWeight) and len(wt.knots) == cap
    # the table never drops low enough: p = 0.1 is below 1/k^2 for k <= 3 only
    wt = build_bump_weight(y, np.full_like(y, 0.1), max_knots=8)
    assert wt.knots == (1.0, 4.0, 7.0)
    # the float-sane limit: a knot whose support would pass FLOAT_SANE_Y is
    # not placed, one whose support ends on it is
    p = [1.0, 1e-6]
    assert build_bump_weight([1.0, FLOAT_SANE_Y], p).knots == (1.0,)
    assert build_bump_weight([1.0, FLOAT_SANE_Y - 3.0], p).knots == \
        (1.0, FLOAT_SANE_Y - 3.0)


def test_bump_integral_below_series_bound():
    y = np.geomspace(1.0, 1e6, 4000)
    p_fn = lambda s: np.minimum(1.0, 1.0 / np.maximum(np.asarray(s, float), 1e-300))
    wt = build_bump_weight(y, 1.0 / y)
    rep = check_weight_integral(wt, p_fn, 1e6)
    assert rep.passed
    assert rep.value <= np.pi**2 / 2.0


def test_bump_integral_fails_closed_on_nan():
    # one NaN tail value inside a knot's support reaches the per-bump Gauss
    # rule and fails the series check
    y = np.geomspace(1.0, 1e6, 4000)
    p = np.minimum(1.0, 1.0 / y)
    wt = build_bump_weight(y, p)
    rep = check_weight_integral(wt, TabulatedTail(y, p), 1e6)
    assert rep.passed is True
    assert isinstance(rep.bound, float) and np.isfinite(rep.bound)
    yk = wt.knots[2]
    i = int(np.nonzero((y > yk + 1.0) & (y < yk + 2.0))[0][0])
    bad = p.copy()
    bad[i] = np.nan
    rep = check_weight_integral(wt, TabulatedTail(y, bad), 1e6)
    assert np.isnan(rep.value)
    assert rep.passed is False
    assert isinstance(rep.bound, float) and np.isfinite(rep.bound)
    # the envelope check reports the same types
    tab = TabulatedTail(y, p)
    rep = check_weight_integral(EnvelopeWeight(tab), tab, 1e5)
    assert rep.passed is True
    assert isinstance(rep.bound, float) and np.isfinite(rep.bound)


def test_envelope_identity_inverse_tail():
    # int Psi' p = sqrt(p(0)) = 1 exactly for p = min(1, 1/y)
    p_fn = lambda s: np.minimum(1.0, 1.0 / np.maximum(np.asarray(s, float), 1e-300))

    class Analytic:
        name = "env"

        def value(self, y):
            return np.maximum(1.0, np.sqrt(np.asarray(y, dtype=float)))

        def deriv(self, y):
            y = np.asarray(y, dtype=float)
            return np.where(y > 1, 0.5 / np.sqrt(np.maximum(y, 1e-300)), 0.0)

    rep = check_weight_integral(Analytic(), p_fn, 1e8)
    assert rep.passed
    assert rep.value + rep.tail_remainder == pytest.approx(1.0, abs=1e-3)


def test_envelope_weight_from_table_monotone():
    y = np.geomspace(1.0, 1e5, 500)
    tab = TabulatedTail(tuple(y), tuple(np.minimum(1.0, 1.0 / y)))
    env = EnvelopeWeight(tab)
    vals = env.value(y)
    assert np.all(np.diff(vals) >= -1e-12)
    rep = check_weight_integral(env, tab, 1e5)
    assert rep.passed


def test_envelope_integral_fails_closed_on_nan():
    # one NaN tail value on the quadrature grid must reach the integral and
    # fail the check, not be read as a zero integrand
    y = np.geomspace(1.0, 1e5, 500)
    tab = TabulatedTail(tuple(y), tuple(np.minimum(1.0, 1.0 / y)))
    env = EnvelopeWeight(tab)
    assert check_weight_integral(env, tab, 1e5).passed

    def p_fn(s):
        out = np.asarray(tab(s), dtype=float)
        if out.size > 1:
            out = out.copy()
            out.flat[600] = np.nan
        return out

    rep = check_weight_integral(env, p_fn, 1e5)
    assert np.isnan(rep.value)
    assert not rep.passed


def test_weight_integral_fails_closed_on_minus_inf():
    # a -inf integral lies below every bound; both rules must fail it
    y = np.geomspace(1.0, 1e5, 500)
    p = np.minimum(1.0, 1.0 / y)
    tab = TabulatedTail(y, p)

    def p_fn(s):
        out = np.array(tab(s), dtype=float)
        if out.size > 1:
            out.flat[out.size // 2] = -np.inf
        return out

    for wt in (EnvelopeWeight(tab), build_bump_weight(y, p)):
        rep = check_weight_integral(wt, p_fn, 1e5)
        assert rep.value == -np.inf and rep.margin == -np.inf
        assert rep.passed is False
        assert check_weight_integral(wt, tab, 1e5).passed


def test_mollified_constant_tail():
    tab = TabulatedTail((0.0, 100.0), (0.25, 0.25))
    w = MollifiedWeight(tab, delta=0.3)
    ys = np.array([0.5, 3.0, 42.0])
    assert np.allclose(w.value(ys), 2.0, rtol=1e-12)
    assert np.allclose(w.deriv(ys), 0.0, atol=1e-12)


def test_mollified_converges_to_envelope():
    y = np.geomspace(1.0, 1e5, 4000)
    tab = TabulatedTail(tuple(y), tuple(np.minimum(1.0, 1.0 / y)))
    pts = np.array([4.0, 100.0, 2500.0])
    target = np.sqrt(pts)
    errs = []
    for delta in (1e-1, 1e-2, 1e-3):
        w = MollifiedWeight(tab, delta=delta)
        errs.append(np.max(np.abs(w.value(pts) - target) / target))
        assert np.all(w.deriv(pts) >= 0)
    assert errs[2] < errs[0] and errs[2] < 5e-3


def test_identity_weight_probe():
    w = IdentityWeight()
    assert np.array_equal(w.value(np.array([0.0, 2.0])), [0.0, 2.0])
    assert check_weight_integral(w, lambda s: np.exp(-np.asarray(s, float)),
                                 50.0).value == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# centered-path tail


def test_p0_tail_from_engine(model1):
    grid = PathGrid(256, 1.0)
    s_grid = np.linspace(0.0, 3.5, 15)
    res = run_ensemble(model1, None, grid, EnsembleTasks(s_grid=tuple(s_grid)),
                       20_000, 77)
    tab = p0_from_counts(s_grid, res.p0_counts, 20_000)
    assert tab.p[0] == 1.0
    assert np.all(np.diff(tab.p) <= 1e-15)
    # pointwise-in-time Gaussian tail oracle: the max over nodes is attained
    # at the terminal node where the marginal deviation is largest
    sd_T = np.sqrt(0.5 * (1 - np.exp(-2.0)))
    for i, s in enumerate(s_grid[1:], start=1):
        exact = 2.0 * (1.0 - normal.cdf(s / sd_T))
        se = np.sqrt(exact * (1 - exact) / 20_000)
        assert tab.p[i] <= exact + 5 * se + 1e-12


def test_chain_fit_reports():
    s = np.linspace(0, 5, 21)
    p0 = p0_from_counts(s, np.outer(np.ones(3), np.exp(-s**2)) * 1000, 1000)
    inv = lambda v: np.power(np.maximum(np.asarray(v, float), 0.0), 1.0 / 3.0)
    fit = admissibility_chain_fit(p0, inv, ClosedFormWeight(0.5),
                                  np.geomspace(2.0, 1e6, 30))
    assert 0.0 <= fit.fraction_held <= 1.0
    assert np.isfinite(fit.worst_margin)
