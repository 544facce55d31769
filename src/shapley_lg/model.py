"""Linear model with jointly Gaussian inputs, plus random benchmark instances.

The model is ``Y = beta . X`` with ``X ~ N(mu, gamma)``. The mean ``mu`` is
stored for file round-trips but has no influence on any variance-based
index, so every computation in the package treats it as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError, ValidationKind

#: Relative tolerance on ``|gamma - gamma.T|`` before a matrix is rejected.
SYM_TOL = 1e-10
#: Relative tolerance on negative eigenvalues before a matrix is rejected.
PSD_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """Validated coefficients and input covariance of a linear Gaussian model.

    Instances are produced by :func:`validate_model` and must be treated as
    immutable; every function in the package reads them without copying.

    Attributes
    ----------
    beta : ndarray, shape (p,)
        Coefficients of the linear map.
    gamma : ndarray, shape (p, p)
        Input covariance, symmetrised and checked positive semi-definite.
    mu : ndarray, shape (p,)
        Input mean. Stored for round-trips, ignored by index computations.
    """

    beta: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray = field(repr=False)

    @property
    def p(self) -> int:
        """Input dimension."""
        return self.beta.size


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ModelValidationError(ValidationKind.NOT_FINITE,
                                   f"{name} holds NaN or infinite values")


def _as_array(name: str, values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except ValueError:                        # e.g. rows of different lengths
        raise ModelValidationError(ValidationKind.DIMENSION_MISMATCH,
                                   f"{name} is not a rectangular array of "
                                   "numbers") from None


def validate_covariance(gamma) -> np.ndarray:
    """Check symmetry and positive semi-definiteness; return the symmetrised matrix.

    Shared by model validation and distribution-file loading.
    """
    gamma = _as_array("gamma", gamma)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ModelValidationError(
            ValidationKind.DIMENSION_MISMATCH,
            f"covariance must be square, got shape {gamma.shape}",
        )
    _require_finite("gamma", gamma)
    scale = np.abs(gamma).max()
    asym = np.abs(gamma - gamma.T).max()
    if asym > SYM_TOL * max(scale, 1e-300):
        raise ModelValidationError(
            ValidationKind.NOT_SYMMETRIC,
            f"max |gamma - gamma.T| = {asym:.3e} exceeds {SYM_TOL} * max|gamma|",
        )
    gamma = (gamma + gamma.T) / 2.0

    eigvals = np.linalg.eigvalsh(gamma)
    smallest, largest = float(eigvals[0]), float(eigvals[-1])
    if smallest < -PSD_TOL * max(largest, 0.0):
        raise ModelValidationError(
            ValidationKind.NOT_PSD,
            f"smallest eigenvalue {smallest:.3e} below -{PSD_TOL} * largest "
            f"({largest:.3e})",
        )
    return gamma


def validate_model(beta, gamma, mu=None) -> LinearGaussianModel:
    """Check model inputs and return a validated :class:`LinearGaussianModel`.

    The covariance is symmetrised to ``(gamma + gamma.T) / 2`` after the
    symmetry check, so downstream code may assume exact symmetry.

    Raises
    ------
    ModelValidationError
        With kind ``DimensionMismatch``, ``NotFinite``, ``NotSymmetric``,
        ``NotPSD`` or ``ZeroOutputVariance`` depending on the violated
        invariant.
    """
    beta = _as_array("beta", beta).reshape(-1)
    gamma = _as_array("gamma", gamma)
    p = beta.size
    if p == 0:
        raise ModelValidationError(ValidationKind.DIMENSION_MISMATCH, "beta is empty")
    _require_finite("beta", beta)
    if gamma.shape != (p, p):
        raise ModelValidationError(
            ValidationKind.DIMENSION_MISMATCH,
            f"gamma has shape {gamma.shape}, expected ({p}, {p})",
        )
    if mu is None:
        mu = np.zeros(p)
    else:
        mu = _as_array("mu", mu).reshape(-1)
        if mu.size != p:
            raise ModelValidationError(
                ValidationKind.DIMENSION_MISMATCH,
                f"mu has length {mu.size}, expected {p}",
            )
        _require_finite("mu", mu)

    gamma = validate_covariance(gamma)

    var_y = float(beta @ gamma @ beta)
    if var_y <= 0.0:
        raise ModelValidationError(
            ValidationKind.ZERO_OUTPUT_VARIANCE,
            f"beta' gamma beta = {var_y:.3e} is not positive",
        )

    return LinearGaussianModel(beta=beta, gamma=gamma, mu=mu)


def total_variance(model: LinearGaussianModel) -> float:
    """Output variance ``beta' gamma beta``."""
    return float(model.beta @ model.gamma @ model.beta)


def generate_random_instance(p: int, seed: int) -> LinearGaussianModel:
    """Random dense benchmark instance of dimension ``p``.

    ``beta`` has independent standard normal entries and ``gamma = A A'``
    for a square standard normal ``A``, which is positive definite with
    probability one. Deterministic for a fixed seed.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    a = rng.standard_normal((p, p))
    return validate_model(beta, a @ a.T)


def generate_block_instance(k: int, n: int, seed: int) -> LinearGaussianModel:
    """Random instance with ``k`` independent groups of ``n`` variables.

    The covariance is block diagonal with dense ``n x n`` blocks, each
    ``A A'`` for an independent standard normal ``A``; entries outside the
    blocks are exactly zero. ``beta`` is standard normal of length ``k * n``.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    rng = np.random.default_rng(seed)
    p = k * n
    beta = rng.standard_normal(p)
    gamma = np.zeros((p, p))
    for j in range(k):
        a = rng.standard_normal((n, n))
        sl = slice(j * n, (j + 1) * n)
        gamma[sl, sl] = a @ a.T
    return validate_model(beta, gamma)
