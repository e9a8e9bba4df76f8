"""Correctness checks the benchmark computes itself.

None of them reads a pass/fail gate of the program.  Each returns a list of
failure messages; an empty list means the outputs are correct.  The
statistical checks use four standard errors, as the program's own gates do.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

Z = 4.0


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def model_from_config(raw: dict):
    """Eigenvalues, noise, start and horizon as the config states them.

    ``"eigenvalues": "auto"`` means ``-beta * (1, 2, ..., dim)``, as
    ``config.py`` documents; scalar ``sigma_diag`` and ``x0`` fill every mode.
    """
    m = raw["model"]
    dim = int(m.get("dim", 4))
    beta = float(m.get("beta", 1.0))
    lam = m.get("eigenvalues", "auto")
    lam = -beta * np.arange(1.0, dim + 1) if lam == "auto" else np.asarray(lam, float)
    sig = np.broadcast_to(np.asarray(m.get("sigma_diag", 1.0), float), lam.shape)
    x0 = np.broadcast_to(np.asarray(m.get("x0", 0.0), float), lam.shape)
    return lam, sig, x0, float(m.get("horizon", 1.0))


def check_moments(out: Path, raw: dict) -> list:
    """``moments.csv`` against the closed-form OU moments at the horizon."""
    lam, sig, x0, T = model_from_config(raw)
    n = int(raw["mc"]["n_paths"])
    mean = np.exp(lam * T) * x0
    var = sig**2 * (1.0 - np.exp(2.0 * lam * T)) / (-2.0 * lam)
    rows = _rows(out / "moments.csv")
    if len(rows) != lam.size:
        return [f"moments.csv: {len(rows)} rows for {lam.size} modes"]
    bad = []
    for i, r in enumerate(rows):
        got = {k: float(r[k]) for k in ("mean_exact", "var_exact", "mean_emp", "var_emp")}
        if not np.isclose(got["mean_exact"], mean[i], rtol=1e-12, atol=1e-15):
            bad.append(f"mode {i}: mean_exact {got['mean_exact']!r} != {mean[i]!r}")
        if not np.isclose(got["var_exact"], var[i], rtol=1e-12, atol=0):
            bad.append(f"mode {i}: var_exact {got['var_exact']!r} != {var[i]!r}")
        if abs(got["mean_emp"] - mean[i]) > Z * np.sqrt(var[i] / n):
            bad.append(f"mode {i}: mean_emp {got['mean_emp']:.4g} beyond {Z:g} s.e.")
        if abs(got["var_emp"] - var[i]) > Z * var[i] * np.sqrt(2.0 / (n - 1)):
            bad.append(f"mode {i}: var_emp {got['var_emp']:.4g} beyond {Z:g} s.e.")
    return [f"moments.csv: {b}" for b in bad]


def check_mean_one(log_rho: np.ndarray, alphas) -> list:
    """The left-point stochastic exponential is exactly mean-one."""
    bad = []
    for a, lr in zip(alphas, log_rho):
        if not np.all(np.isfinite(lr)):
            bad.append(f"alpha={a:g}: {int(np.sum(~np.isfinite(lr)))} non-finite log-densities")
            continue
        rho = np.exp(lr)
        se = np.std(rho, ddof=1) / np.sqrt(rho.size)
        if not abs(rho.mean() - 1.0) <= Z * se:
            bad.append(f"alpha={a:g}: mean density {rho.mean():.6g}, "
                       f"{abs(rho.mean() - 1.0) / se:.2f} s.e. from 1")
    return bad


def check_density_csv(out: Path, raw: dict) -> list:
    alphas = [float(a) for a in raw["sweep"]["alpha_list"]]
    n = int(raw["mc"]["n_paths"])
    rows = _rows(out / "density.csv")
    lr = np.full((len(alphas), n), np.nan)
    for r in rows:
        lr[alphas.index(float(r["alpha"])), int(r["path_id"])] = float(r["log_rho"])
    if len(rows) != lr.size:
        return [f"density.csv: {len(rows)} rows, expected {lr.size}"]
    return [f"density.csv: {b}" for b in check_mean_one(lr, alphas)]


def check_sweep(out: Path, raw: dict) -> list:
    """The full-coefficient transient and Gronwall bounds are theorems."""
    n = int(raw["mc"]["n_paths"])
    n_alpha = len(raw["sweep"]["alpha_list"])
    checked = [r["bound_violations"] for r in _rows(out / "sweep.csv")
               if int(r["path_id"]) < min(1000, n)]
    bad = []
    if len(checked) != n_alpha * min(1000, n):
        bad.append(f"{len(checked)} check-path rows, expected {n_alpha * min(1000, n)}")
    nonzero = [v for v in checked if v != "0"]
    if nonzero:
        bad.append(f"{len(nonzero)} check-path rows with bound violations")
    return [f"sweep.csv: {b}" for b in bad]


def check_phi_refuted(out: Path, raw: dict) -> list:
    """The stated weight form is refuted: each weight table has a failing row.

    The ``pass`` column holds numpy booleans, which the CSV writer prints as
    ``True``/``False`` where it prints Python booleans as ``1``/``0``.
    """
    bad = []
    for spec in raw["phi"]["kinds"]:
        kind = spec["kind"]
        name = f"power{float(spec.get('p', 2.0)):g}" if kind == "power" else kind
        path = out / f"phi_bounds_{name}.csv"
        if not path.exists():
            bad.append(f"{path.name} missing")
        elif not any(r["pass"] in ("0", "False") for r in _rows(path)):
            bad.append(f"{path.name}: no failing row")
    return bad


def check_manifest(out: Path):
    """Every file in ``manifest.json`` exists and has the recorded digest.

    Returns ``(failures, digest)``; the digest covers every listed file.
    """
    files = json.loads((out / "manifest.json").read_text())["files"]
    bad = []
    seen = []
    for f in files:
        path = out / f["name"]
        if not path.is_file():
            bad.append(f"manifest: {f['name']} missing")
            continue
        h = sha256(path)
        if h != f["sha256"]:
            bad.append(f"manifest: {f['name']} digest mismatch")
        seen.append((f["name"], h))
    if not seen:
        bad.append("manifest: no files listed")
    digest = hashlib.sha256(json.dumps(sorted(seen)).encode()).hexdigest()
    return bad, digest


def check_cli_run(out: Path, raw: dict):
    """All checks of one ``ouperturb all`` run; returns ``(failures, digest)``."""
    bad, digest = check_manifest(out)
    for check in (check_moments, check_density_csv, check_sweep, check_phi_refuted):
        bad += check(out, raw)
    return bad, digest


def check_density_run(out: Path, alphas):
    lr = np.load(out / "log_rho.npy")
    bad = []
    if lr.shape[0] != len(alphas):
        bad.append(f"log_rho has {lr.shape[0]} rows for {len(alphas)} alphas")
    bad += check_mean_one(lr, alphas)
    return bad, hashlib.sha256(np.ascontiguousarray(lr).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# resolvents against independent solves


def radial_scale_bisect(r, alpha, coef, power):
    """Root ``s`` of ``s + alpha * coef * s**power * s = r`` by bisection on [0, r]."""
    lo, hi = np.zeros_like(r), r.copy()
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        below = mid + alpha * coef * mid**power * mid < r
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.all(hi - lo <= 2.0 * np.spacing(hi)):
            break
    return 0.5 * (lo + hi)


def saturating_scale(r, alpha, eps):
    """Positive root of ``s**2 + (eps + alpha - r) s - eps r = 0``, in the form
    without cancellation on each side of ``r = eps + alpha``."""
    b = r - eps - alpha
    disc = np.sqrt(b * b + 4.0 * eps * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b >= 0, 0.5 * (b + disc), 2.0 * eps * r / (disc - b))


def check_resolvent(drift, drift_spec: dict, alphas, seed: int, dim: int) -> list:
    """``drift.resolvent`` against an independent scalar solve.

    States have log-uniform norms in [1e-3, 1e2]; the error is measured
    relative to the norm of the independent solution.
    """
    rng = np.random.default_rng([int(seed), 0x5e50])
    x = rng.standard_normal((4096, dim))
    r = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 4096))
    x *= (r / np.linalg.norm(x, axis=1))[:, None]
    r = np.linalg.norm(x, axis=1)
    params = drift_spec.get("params", {})
    bad = []
    for a in alphas:
        if drift_spec["kind"] == "radial":
            s = radial_scale_bisect(r, a, params.get("coef", 1.0), params.get("power", 2.0))
        elif drift_spec["kind"] == "saturating":
            s = saturating_scale(r, a, params.get("eps", 1.0))
        else:
            raise ValueError(f"no independent solve for drift {drift_spec['kind']!r}")
        ref = (s / r)[:, None] * x
        err = (np.linalg.norm(drift.resolvent(0.0, a, x) - ref, axis=1)
               / np.linalg.norm(ref, axis=1))
        if not np.max(err) <= 1e-12:
            bad.append(f"resolvent alpha={a:g}: error {np.max(err):.3g} > 1e-12")
    return bad
