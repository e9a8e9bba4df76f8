"""Weak-limit diagnostics on the empirical product grid.

The abstract sigma-finite base space is instantiated as
``[0, horizon] x {paths}`` with trapezoid-in-time times uniform-in-paths
weights.  Vector fields on that grid are compressed radially into the unit
ball, and weak convergence statements become finite quadratures against a
capped separating family of test functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BallCompression:
    """Radial compression of the state space, ``h -> h/|h| * psi0(|h|)``.

    ``kind="saturating"`` uses ``psi0(r) = r/(1+|r|)`` (image = open unit
    ball); ``kind="identity"`` leaves fields unchanged.
    """

    kind: str = "saturating"

    @property
    def sup(self) -> float:
        return 1.0 if self.kind == "saturating" else np.inf

    def scalar(self, r):
        r = np.asarray(r, dtype=float)
        return r / (1.0 + np.abs(r)) if self.kind == "saturating" else r

    def scalar_inv(self, s):
        s = np.asarray(s, dtype=float)
        return s / (1.0 - np.abs(s)) if self.kind == "saturating" else s

    def apply(self, h):
        if self.kind == "identity":
            return np.asarray(h, dtype=float).copy()
        h = np.asarray(h, dtype=float)
        r = np.linalg.norm(h, axis=-1)
        factor = np.divide(self.scalar(r), r, out=np.zeros_like(r), where=r > 0)
        return factor[..., None] * h

    def invert(self, h):
        if self.kind == "identity":
            return np.asarray(h, dtype=float).copy()
        h = np.asarray(h, dtype=float)
        r = np.linalg.norm(h, axis=-1)
        if np.any(r >= 1.0):
            raise ValueError("inverse compression defined only inside the unit ball")
        factor = np.divide(self.scalar_inv(r), r, out=np.zeros_like(r), where=r > 0)
        return factor[..., None] * h


@dataclass(eq=False)
class TestMeasureGrid:
    """Product quadrature grid with test sets and a capped functional family."""

    __test__ = False     # not a pytest test class, despite its name

    times: np.ndarray
    weights: np.ndarray              # trapezoid weights, sum = horizon
    n_paths: int
    time_windows: list               # (name, node mask)
    path_subsets: list               # (name, path mask)
    time_modes: list                 # (name, values on nodes)
    space_modes: list                # coordinate indices
    clip_levels = (1.0, 2.0, 4.0)    # of the clipped functionals; not a field

    @classmethod
    def build(cls, times, n_paths, dim):
        """Four time windows and path subsets, eight time modes (a constant,
        then cosines and sines) and the first ``min(dim, 8)`` coordinates."""
        times = np.asarray(times, dtype=float)
        S = times.size
        w = np.zeros(S)
        if S > 1:
            dt = np.diff(times)
            w[:-1] += 0.5 * dt
            w[1:] += 0.5 * dt
        horizon = times[-1] - times[0]
        mid = times[0] + 0.5 * horizon
        q1 = times[0] + 0.25 * horizon
        q3 = times[0] + 0.75 * horizon
        windows = [
            ("all_t", np.ones(S, dtype=bool)),
            ("first_half_t", times <= mid),
            ("second_half_t", times >= mid),
            ("middle_t", (times >= q1) & (times <= q3)),
        ]
        idx = np.arange(n_paths)
        subsets = [
            ("all_p", np.ones(n_paths, dtype=bool)),
            ("even_p", idx % 2 == 0),
            ("odd_p", idx % 2 == 1),
            ("first_half_p", idx < n_paths // 2),
        ]
        modes = [("const", np.ones(S))]
        j = 1
        while len(modes) < 8:
            phase = 2.0 * np.pi * j * (times - times[0]) / max(horizon, 1e-300)
            modes.append((f"cos{j}", np.cos(phase)))
            if len(modes) < 8:
                modes.append((f"sin{j}", np.sin(phase)))
            j += 1
        return cls(times, w, n_paths, windows, subsets, modes,
                   list(range(min(dim, 8))))


@dataclass
class GapMatrix:
    rows: list                       # (set_id, functional_id, gap)
    max_gap: float


def weak_gap(field_a: np.ndarray, field_b: np.ndarray, grid: TestMeasureGrid,
             compression: BallCompression | None = None) -> GapMatrix:
    """Quadrature gaps ``|int_A <psi(Fa) - psi(Fb), h> dmu|`` over the family.

    Fields have shape ``(n_paths, n_nodes, d)``; the measure is
    ``dt x uniform(paths)``.  Clipped per-path scalar functionals are included
    alongside the bilinear ones.  Each (window, time mode) is projected once
    over all paths, and a path subset sums its rows of that projection: the
    einsum reduces each ``(path, coordinate)`` over nodes on its own, so the
    sums see the same values in the same order as a projection of the subset.
    """
    comp = compression or BallCompression()
    ca = comp.apply(field_a)
    cb = comp.apply(field_b)
    diff = ca - cb                                       # (P, S, d)
    rows = []
    worst = 0.0
    for wname, wmask in grid.time_windows:
        projs = [np.einsum("k,pkj->pj", grid.weights * mvals * wmask, diff)
                 / grid.n_paths for _, mvals in grid.time_modes]
        for pname, pmask in grid.path_subsets:
            if not pmask.any():
                continue
            for (mname, _), proj in zip(grid.time_modes, projs):
                sub = proj[pmask]
                for j in grid.space_modes:
                    gap = abs(float(np.sum(sub[:, j])))
                    rows.append((f"{wname}|{pname}", f"{mname}*e{j}", gap))
                    worst = max(worst, gap)
    # clipped scalar functionals on the full window
    for mname, mvals in grid.time_modes:
        wv = grid.weights * mvals
        ga = np.einsum("k,pkj->pj", wv, ca)
        gb = np.einsum("k,pkj->pj", wv, cb)
        for j in grid.space_modes:
            for level in grid.clip_levels:
                da = np.clip(ga[:, j], -level, level)
                db = np.clip(gb[:, j], -level, level)
                gap = abs(float(np.mean(da - db)))
                rows.append(("all_t|all_p", f"{mname}*e{j}|clip{level:g}", gap))
                worst = max(worst, gap)
    return GapMatrix(rows, worst)


def cesaro_limit(fields, compression: BallCompression | None = None):
    """Average the compressed fields and invert back into the state space.

    Entries whose compressed mean lands within 1e-9 of the unit sphere, or
    outside it, are clamped to radius ``1 - 1e-9`` (count reported).  Raises
    if every entry needed clamping, which signals divergence of the family.
    """
    comp = compression or BallCompression()
    if len(fields) < 2:
        raise ValueError("cesaro limit needs at least two fields")
    mean = np.mean([comp.apply(f) for f in fields], axis=0)
    clamped = 0
    if np.isfinite(comp.sup):
        r = np.linalg.norm(mean, axis=-1)
        # entries this close to the sphere are numerically outside the
        # inverse's sane range
        bad = r >= comp.sup - 1e-9
        clamped = int(np.sum(bad))
        if clamped and clamped == r.size:
            raise ValueError("all entries required clamping; family diverges")
        if clamped:
            factor = np.where(bad, (comp.sup - 1e-9) / np.where(bad, r, 1.0), 1.0)
            mean = factor[..., None] * mean
    return comp.invert(mean), clamped


@dataclass
class LimsupReport:
    violations: int
    worst_excess: float
    n_points: int

    @property
    def passed(self):
        return self.violations == 0


def limsup_check(fields, candidate) -> LimsupReport:
    """Pointwise ``|candidate| <= max_n |field_n| + 1e-9`` over the supplied
    tail."""
    norms = np.max([np.linalg.norm(f, axis=-1) for f in fields], axis=0)
    cn = np.linalg.norm(candidate, axis=-1)
    excess = cn - norms - 1e-9
    return LimsupReport(int(np.sum(excess > 0)), float(np.max(excess)), cn.size)
