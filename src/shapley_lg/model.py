"""Linear model with jointly Gaussian inputs, plus random benchmark instances.

The model is ``Y = beta . X`` with ``X ~ N(mu, gamma)``. The mean ``mu`` has
no influence on any variance-based index: a model file may give it, and it
is checked but not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, ValidationKind, allocation

#: Relative tolerance on ``|gamma - gamma.T|`` before a matrix is rejected.
SYM_TOL = 1e-10
#: Relative tolerance on negative eigenvalues before a matrix is rejected.
PSD_TOL = 1e-8
#: Tolerance on index identities (sums to one, ranges) and on var(y)'s shift.
NUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """Validated coefficients and input covariance of a linear Gaussian model.

    Instances are produced by :func:`validate_model`, whose arrays are
    read-only; every function in the package reads them without copying.

    Attributes
    ----------
    beta : ndarray, shape (p,)
        Coefficients of the linear map.
    gamma : ndarray, shape (p, p)
        Input covariance, symmetrised and checked positive semi-definite.
    """

    beta: np.ndarray
    gamma: np.ndarray

    @property
    def p(self) -> int:
        """Input dimension."""
        return self.beta.size


def _require_finite(name: str, values, what="holds NaN or infinite values"):
    if not np.isfinite(values).all():
        raise ModelValidationError(ValidationKind.NOT_FINITE, f"{name} {what}")


def _as_array(name: str, values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:                     # an integer literal past 1e308
        raise ModelValidationError(ValidationKind.NOT_FINITE,
                                   f"{name} holds a number too large for a "
                                   "float") from None
    except ValueError:                        # e.g. rows of different lengths
        raise ModelValidationError(ValidationKind.DIMENSION_MISMATCH,
                                   f"{name} is not a rectangular array of "
                                   "numbers") from None


def validate_mean(mu, p: int) -> np.ndarray:
    """Check that ``mu`` holds ``p`` finite numbers; return it as a
    read-only array."""
    mu = _as_array("mu", mu).reshape(-1)
    if mu.size != p:
        raise ModelValidationError(ValidationKind.DIMENSION_MISMATCH,
                                   f"mu has length {mu.size}, expected {p}")
    _require_finite("mu", mu)
    mu.flags.writeable = False
    return mu


def validate_covariance(gamma) -> np.ndarray:
    """Check symmetry and positive semi-definiteness; return the symmetrised
    matrix, read-only.

    Shared by model validation and Gaussian inputs. Finite entries
    whose symmetrisation or eigenvalues pass the float range are
    ``NotFinite``.
    """
    return _covariance(gamma)[0]


def _covariance(gamma) -> tuple[np.ndarray, float]:
    gamma = _as_array("gamma", gamma)
    if gamma.ndim != 2 or not gamma.shape[0] == gamma.shape[1] > 0:
        raise ModelValidationError(
            ValidationKind.DIMENSION_MISMATCH,
            f"covariance must be square and not empty, got {gamma.shape}",
        )
    _require_finite("gamma", gamma)
    with np.errstate(over="ignore"):            # an overflow is checked below
        scale = np.abs(gamma).max()
        asym = np.abs(gamma - gamma.T).max()
        if asym > SYM_TOL * max(scale, 1e-300):
            raise ModelValidationError(
                ValidationKind.NOT_SYMMETRIC,
                f"max |gamma - gamma.T| = {asym:.3e} exceeds {SYM_TOL} * "
                "max|gamma|",
            )
        gamma = (gamma + gamma.T) / 2.0
    _require_finite("gamma", gamma, "overflows in (gamma + gamma.T) / 2")

    eigvals = np.linalg.eigvalsh(gamma)
    _require_finite("gamma", eigvals, "has an eigenvalue past the float range")
    smallest, largest = float(eigvals[0]), float(eigvals[-1])
    if smallest < -PSD_TOL * max(largest, 0.0):
        raise ModelValidationError(
            ValidationKind.NOT_PSD,
            f"smallest eigenvalue {smallest:.3e} below -{PSD_TOL} * largest "
            f"({largest:.3e})",
        )
    gamma.flags.writeable = False
    return gamma, smallest


def validate_model(beta, gamma, mu=None) -> LinearGaussianModel:
    """Check model inputs and return a validated :class:`LinearGaussianModel`.

    The covariance is symmetrised to ``(gamma + gamma.T) / 2`` after the
    symmetry check, so downstream code may assume exact symmetry. A given
    ``mu`` is checked by :func:`validate_mean` and then dropped.

    Raises
    ------
    ModelValidationError
        With kind ``DimensionMismatch``, ``NotFinite``, ``NotSymmetric``,
        ``NotPSD`` or ``ZeroOutputVariance`` depending on the violated
        invariant; ``NotPSD`` also when negative eigenvalues move var(y).
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
    if mu is not None:
        validate_mean(mu, p)

    gamma, smallest = _covariance(gamma)

    with np.errstate(over="ignore", invalid="ignore"):
        var_y = float(beta @ gamma @ beta)
        _require_finite("beta' gamma beta", var_y, "overflows")
        if var_y <= 0.0:
            raise ModelValidationError(
                ValidationKind.ZERO_OUTPUT_VARIANCE,
                f"beta' gamma beta = {var_y:.3e} is not positive")
        # var_y counts the negative eigenvalues that the root of every table
        # clips at 0; -smallest * beta'beta bounds the shift they make.
        if -smallest * float(beta @ beta) > NUM_TOL * var_y:
            lam, q = np.linalg.eigh(gamma)
            shift = float(lam[lam < 0.0] @ (beta @ q[:, lam < 0.0]) ** 2)
            if -shift > NUM_TOL * var_y:
                raise ModelValidationError(ValidationKind.NOT_PSD, (
                    f"negative eigenvalues move beta' gamma beta = "
                    f"{var_y:.3e} by {shift:.3e}, more than {NUM_TOL} of it"))

    beta.flags.writeable = False
    return LinearGaussianModel(beta=beta, gamma=gamma)


def total_variance(model: LinearGaussianModel) -> float:
    """Output variance ``beta' gamma beta``."""
    return float(model.beta @ model.gamma @ model.beta)


def generate_random_instance(p: int, seed: int) -> LinearGaussianModel:
    """Random dense benchmark instance of dimension ``p``: one group of
    :func:`generate_block_instance`, so ``gamma = A A'`` for a square
    standard normal ``A`` is positive definite with probability one."""
    return generate_block_instance(1, p, seed)


def generate_block_instance(k: int, n: int, seed: int) -> LinearGaussianModel:
    """Random instance with ``k`` independent groups of ``n`` variables.

    The covariance is block diagonal with dense ``n x n`` blocks, each
    ``A A'`` for an independent standard normal ``A``; entries outside the
    blocks are exactly zero. ``beta`` is standard normal of length ``k * n``.
    A ``p x p`` array that cannot be allocated raises ``MemoryError`` first.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    p = k * n
    with allocation():
        gamma = np.zeros((p, p))
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    for j in range(k):
        a = rng.standard_normal((n, n))
        sl = slice(j * n, (j + 1) * n)
        gamma[sl, sl] = a @ a.T
    return validate_model(beta, gamma)
