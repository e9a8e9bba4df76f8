"""Ornstein-Uhlenbeck processes under singular dissipative drift perturbations.

Exact linear-path sampling, resolvent-regularized integration of the
perturbed dynamics, and quantitative verification suites for transient
bounds, weighted moment bounds, change-of-measure densities, and
uniform-integrability certificates.
"""

__version__ = "0.1.0"

from .drifts import (L1SubgradientDrift, Modulation, RadialDrift, RadialGrowth,
                     SaturatingDrift, TimeModulatedDrift, ZeroDrift,
                     make_drift, resolvent_residual)
from .model import (GalerkinModel, ModelValidationError, semigroup_apply,
                    validate_model)
from .ou import (PathGrid, SamplePath, fernique_probe, largest_stable_gamma,
                 ou_moments, sample_ou_paths)
from .weights import WeightFunction, estimate_constant, make_weight
from .girsanov import entropy_statistic, martingale_check, stopped_moment_bound
from .pseudoweak import (TestMeasureGrid, cesaro_limit, compress, decompress,
                         limsup_check, weak_gap)
from .tails import (BumpSumWeight, ClosedFormWeight, EnvelopeWeight,
                    MollifiedWeight, TabulatedTail, build_bump_weight,
                    check_weight_integral, tail_table, wilson_interval)
from .engine import EnsembleTasks, run_ensemble
