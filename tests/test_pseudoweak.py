import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouperturb import (TestMeasureGrid, cesaro_limit, compress, decompress,
                       limsup_check, weak_gap)
import oracle


def test_apply_at_origin_and_known_point():
    assert np.array_equal(compress(np.zeros(3)), np.zeros(3))
    out = compress(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.5, 2.0 / 3.0], rtol=1e-15)


def test_apply_norm_is_compressed_scalar():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((100, 3)) * 5
    r = np.linalg.norm(h, axis=1)
    assert np.allclose(np.linalg.norm(compress(h), axis=1), r / (1 + r))


def test_bounded_by_sup_and_two():
    rng = np.random.default_rng(1)
    h1 = rng.standard_normal((200, 4)) * 100
    h2 = rng.standard_normal((200, 4)) * 100
    c1, c2 = compress(h1), compress(h2)
    assert np.all(np.linalg.norm(c1, axis=1) < 1.0)
    assert np.all(np.linalg.norm(c1 - c2, axis=1) <= 2.0)


@settings(max_examples=200, deadline=None)
@given(h=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_round_trip(h):
    h = np.asarray(h)
    back = decompress(compress(h))
    assert np.linalg.norm(back - h) <= 1e-12 * (1 + np.linalg.norm(h))


def test_invert_rejects_outside_ball():
    with pytest.raises(ValueError):
        decompress(np.array([1.5, 0.0]))


def _grid(n_nodes=33, n_paths=8, dim=2):
    times = np.linspace(0.0, 1.0, n_nodes)
    return TestMeasureGrid.build(times, n_paths, dim=dim), times


def test_grid_weights_sum_to_horizon():
    grid, _ = _grid()
    assert np.sum(grid.weights) == pytest.approx(1.0, rel=1e-12)


def test_weak_gap_zero_for_equal_fields():
    grid, _ = _grid()
    rng = np.random.default_rng(2)
    f = rng.standard_normal((8, 33, 2))
    gm = weak_gap(f, f, grid)
    assert gm.max_gap == 0.0


def test_weak_gap_planted_rate():
    # fields F + c/n: gaps scale like 1/n (verified by halving)
    grid, _ = _grid()
    rng = np.random.default_rng(3)
    f = rng.standard_normal((8, 33, 2))
    c = np.ones((8, 33, 2))
    gaps = [weak_gap(f + c / n, f, grid).max_gap for n in (4, 8, 16, 32)]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g2 / g1 == pytest.approx(0.5, abs=0.15)


def test_weak_gap_oscillating_counterexample():
    # pair-averaged oscillation converges weakly while the sup gap stays put
    grid, _ = _grid()
    c = np.full((8, 33, 2), 0.7)
    zero = np.zeros_like(c)
    seq = [c if n % 2 == 0 else -c for n in range(8)]
    pair_means = [(decompress((compress(seq[2 * k])
                               + compress(seq[2 * k + 1])) / 2.0))
                  for k in range(4)]
    for pm in pair_means:
        assert weak_gap(pm, zero, grid).max_gap <= 1e-12
    sup_gap = np.max(np.linalg.norm(seq[0] - zero, axis=2))
    assert sup_gap == pytest.approx(np.linalg.norm([0.7, 0.7]))


def test_cesaro_constant_and_odd_pair():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((4, 17, 2))
    cand, clamps = cesaro_limit([f, f, f])
    assert np.allclose(cand, f, atol=1e-12)
    assert clamps == 0
    cand, _ = cesaro_limit([f, -f])
    assert np.allclose(cand, 0.0, atol=1e-14)


def test_cesaro_all_clamped_signals_divergence():
    # norms beyond float resolution compress to exactly 1
    huge = np.full((2, 5, 2), 1e20)
    with pytest.raises(ValueError, match="diverges"):
        cesaro_limit([huge, 2 * huge])


def test_limsup_equality_and_planted_defect():
    rng = np.random.default_rng(5)
    f = rng.standard_normal((4, 17, 2))
    rep = limsup_check([f, f], f)
    assert rep.violations == 0
    bad = f.copy()
    bad[1, 3] *= 5.0
    rep = limsup_check([f], bad)
    assert rep.violations == 1


def test_separating_family():
    grid, _ = _grid()
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 33, 2))
    b = a.copy()
    b[:, :, 0] += 0.3
    assert weak_gap(a, b, grid).max_gap > 1e-12
    assert not weak_gap(a, a, grid).max_gap > 1e-12


# the saturating compression is the only one; the ids name it
@pytest.mark.parametrize("n_paths", [1, 7, 48],
                         ids=lambda n: f"{n}-saturating")
def test_weak_gap_matches_plain_loop(n_paths):
    # one projection per (window, mode) gives the plain loop's rows bit for
    # bit; with 1 path the empty odd and first-half subsets are skipped
    grid, _ = _grid(n_nodes=41, n_paths=n_paths, dim=3)
    rng = np.random.default_rng(100 + n_paths)
    a = rng.standard_normal((n_paths, 41, 3)) * 3.0
    b = a + 0.1 * rng.standard_normal((n_paths, 41, 3))
    got = weak_gap(a, b, grid)
    want = oracle.weak_gap(a, b, grid)
    assert got.rows == want.rows
    assert got.max_gap == want.max_gap
