import numpy as np
import pytest

from shapley_lg import generate_random_instance, validate_model


@pytest.fixture
def correlated_p2():
    """beta=(1,1), unit variances, correlation 0.5; hand-checked throughout."""
    return validate_model([1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]])


@pytest.fixture
def skewed_p2():
    """beta=(1,0), correlation 0.6; only the first input enters the output."""
    return validate_model([1.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])


def assert_close(actual, expected, tol=1e-12):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= tol, (actual, expected)


def _duplicate_variable():
    # X4 copies X1: blocks holding both are singular.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 5))
    a[:, 3] = a[:, 0]
    return validate_model(rng.standard_normal(5), a.T @ a)


def _tiny_independent_variable():
    # X3 is independent of the rest with variance 1e-13: the blocks holding
    # it are badly scaled, and the normwise round-off of an eigh factor
    # would swamp the zeros of its covariances.
    model = generate_random_instance(5, seed=8)
    gamma = model.gamma.copy()
    gamma[2, :] = gamma[:, 2] = 0.0
    gamma[2, 2] = 1e-13
    return validate_model(model.beta, gamma)
