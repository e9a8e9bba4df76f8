"""Truncation-dimension diagnostic.

Convergence in the truncation dimension is a diagnostic, not an asserted
theorem: higher modes decay faster, so tail quantities stabilize.  For each
dimension this prints the exact terminal variance mass, the empirical
exponential-moment probe of the running maximum, and the largest stable
probe exponent.
"""

import argparse

import numpy as np

from ouperturb import (GalerkinModel, PathGrid, fernique_probe,
                       largest_stable_gamma, validate_model)
from ouperturb.engine import EnsembleTasks, run_ensemble
from ouperturb.ou import convolution_variance


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", type=int, nargs="+",
                    default=[2, 4, 8, 16, 32, 64])
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--steps", type=int, default=512)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print(f"{'dim':>4s} {'var_mass(T)':>12s} {'E[exp(0.2 max)]':>16s} "
          f"{'stable_gamma':>13s}")
    for d in args.dims:
        model = validate_model(GalerkinModel(
            eigenvalues=[-(1.0 + i) for i in range(d)], beta=1.0,
            sigma_diag=[1.0] * d, horizon=1.0, x0=[0.0] * d))
        grid = PathGrid(args.steps, 1.0)
        res = run_ensemble(model, None, grid, EnsembleTasks(),
                           args.paths, args.seed)
        var_mass = float(np.sum(convolution_variance(model, model.horizon)))
        rows = fernique_probe(res.w0_max, (0.05, 0.1, 0.2, 0.4, 0.8, 1.6))
        probe = next(r.estimate for r in rows if r.gamma == 0.2)
        print(f"{d:4d} {var_mass:12.6f} {probe:16.6f} "
              f"{largest_stable_gamma(rows):13.2f}")


if __name__ == "__main__":
    main()
