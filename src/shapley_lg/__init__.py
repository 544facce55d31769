"""Variance-based sensitivity indices for linear Gaussian models.

Exact Sobol indices, closed Sobol indices and Shapley effects through the
conditional-variance table of a linear model with Gaussian inputs; a
per-group shortcut when the covariance is block diagonal; permutation
estimators with exact conditional variances; and nested Monte Carlo
estimation for black-box models with Gaussian inputs.
"""

from .blocks import (BlockPartition, detect_blocks, lg_groups_indices,
                     verify_cross_block_zeros)
from .conditional import (CondVarTable, all_conditional_variances,
                          conditional_variance)
from .errors import (BudgetExceededError, DimensionCapError,
                     ExpressionParseError, FileFormatError,
                     ModelValidationError, ValidationKind)
from .indices import (SensitivityReport, closed_sobol_from_table, lg_indices,
                      shapley_from_table, sobol_from_table)
from .model import (LinearGaussianModel, generate_block_instance,
                    generate_random_instance, total_variance,
                    validate_covariance, validate_model)
from .montecarlo import (BlackBoxModel, GaussianInput, McConfig,
                         block_additive_shapley, double_mc_cond_var,
                         mc_shapley)
from .permutations import (CvSummary, PermutationEstimate, cv_experiment,
                           exact_permutation_shapley,
                           random_permutation_shapley, replicate_estimates,
                           verify_weight_collapse, weight_collapse_sides)

__version__ = "0.1.0"

__all__ = [
    "BlackBoxModel",
    "BlockPartition",
    "BudgetExceededError",
    "CondVarTable",
    "CvSummary",
    "DimensionCapError",
    "ExpressionParseError",
    "FileFormatError",
    "GaussianInput",
    "LinearGaussianModel",
    "McConfig",
    "ModelValidationError",
    "PermutationEstimate",
    "SensitivityReport",
    "ValidationKind",
    "all_conditional_variances",
    "block_additive_shapley",
    "closed_sobol_from_table",
    "conditional_variance",
    "cv_experiment",
    "detect_blocks",
    "double_mc_cond_var",
    "exact_permutation_shapley",
    "generate_block_instance",
    "generate_random_instance",
    "lg_groups_indices",
    "lg_indices",
    "mc_shapley",
    "random_permutation_shapley",
    "replicate_estimates",
    "shapley_from_table",
    "sobol_from_table",
    "total_variance",
    "validate_covariance",
    "validate_model",
    "verify_cross_block_zeros",
    "verify_weight_collapse",
    "weight_collapse_sides",
    "__version__",
]
