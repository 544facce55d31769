import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapley_lg import (GaussianInput, ModelValidationError, ValidationKind,
                        detect_blocks, generate_block_instance,
                        generate_random_instance, lg_indices, total_variance,
                        validate_covariance, validate_model)
from shapley_lg.model import validate_mean
from conftest import assert_close


def test_identity_covariance_is_valid():
    model = validate_model([1.0, 1.0], np.eye(2))
    assert model.p == 2
    assert_close(model.gamma, np.eye(2))


def test_indefinite_covariance_rejected():
    # Eigenvalues of [[1, 2], [2, 1]] are 3 and -1.
    with pytest.raises(ModelValidationError) as exc:
        validate_model([1.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    assert exc.value.kind is ValidationKind.NOT_PSD


def test_zero_output_variance_rejected():
    with pytest.raises(ModelValidationError) as exc:
        validate_model([0.0, 0.0], np.eye(2))
    assert exc.value.kind is ValidationKind.ZERO_OUTPUT_VARIANCE


def test_dimension_mismatch_rejected():
    with pytest.raises(ModelValidationError) as exc:
        validate_model([1.0, 1.0], np.eye(3))
    assert exc.value.kind is ValidationKind.DIMENSION_MISMATCH
    with pytest.raises(ModelValidationError) as exc:
        validate_model([1.0, 1.0], np.eye(2), mu=[0.0])
    assert exc.value.kind is ValidationKind.DIMENSION_MISMATCH
    with pytest.raises(ModelValidationError) as exc:
        validate_model([], np.zeros((0, 0)))
    assert exc.value.kind is ValidationKind.DIMENSION_MISMATCH


def test_ragged_inputs_are_a_dimension_mismatch():
    ragged = [[1.0, 0.0], [0.0]]
    for call in (lambda: validate_model([1.0, 1.0], ragged),
                 lambda: validate_model(ragged, np.eye(2)),
                 lambda: validate_model([1.0, 1.0], np.eye(2), mu=ragged),
                 lambda: validate_covariance(ragged)):
        with pytest.raises(ModelValidationError) as exc:
            call()
        assert exc.value.kind is ValidationKind.DIMENSION_MISMATCH


@pytest.mark.parametrize("beta,gamma,mu", [
    ([np.nan, 1.0], np.eye(2), None),
    ([1.0, 1.0], [[1.0, 0.0], [0.0, np.inf]], None),
    ([1.0, 1.0], np.eye(2), [0.0, -np.inf]),
])
def test_non_finite_inputs_rejected(beta, gamma, mu):
    with pytest.raises(ModelValidationError) as exc:
        validate_model(beta, gamma, mu)
    assert exc.value.kind is ValidationKind.NOT_FINITE


#: Finite inputs whose arithmetic passes the float range, each with the
#: kind it ends in: ``beta' gamma beta``, the symmetrisation, the largest
#: eigenvalue, and ``gamma - gamma.T`` in the symmetry check.
OVERFLOWING = {
    "var-y": ([1e200, 1.0], [[1e200, 0.0], [0.0, 1.0]],
              ValidationKind.NOT_FINITE),
    "var-y-nan": ([1e200, -1e200], [[1e200, 1e200], [1e200, 1e200]],
                  ValidationKind.NOT_FINITE),
    "symmetrise": ([1.0, 1.0], [[1e308, 1e308], [1e308, 1e308]],
                   ValidationKind.NOT_FINITE),
    "eigenvalue": ([1e-160] * 20, [[1e307] * 20] * 20,
                   ValidationKind.NOT_FINITE),
    "asymmetry": ([1.0, 1.0], [[1.0, 1e308], [-1e308, 1.0]],
                  ValidationKind.NOT_SYMMETRIC),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta, gamma, kind", OVERFLOWING.values(),
                         ids=list(OVERFLOWING))
def test_overflowing_inputs_are_rejected_without_warnings(beta, gamma, kind):
    with pytest.raises(ModelValidationError) as exc:
        validate_model(beta, gamma)
    assert exc.value.kind is kind


@pytest.mark.filterwarnings("error")
def test_overflowing_covariance_is_rejected_on_its_own():
    for gamma in ([[1e308, 1e308], [1e308, 1e308]], [[1e307] * 20] * 20):
        with pytest.raises(ModelValidationError) as exc:
            validate_covariance(gamma)
        assert exc.value.kind is ValidationKind.NOT_FINITE


def test_asymmetric_covariance_rejected():
    with pytest.raises(ModelValidationError) as exc:
        validate_model([1.0, 1.0], [[1.0, 0.5], [0.2, 1.0]])
    assert exc.value.kind is ValidationKind.NOT_SYMMETRIC


def test_small_asymmetry_is_symmetrised():
    gamma = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    model = validate_model([1.0, 1.0], gamma)
    assert model.gamma[0, 1] == model.gamma[1, 0]


def test_total_variance_examples(correlated_p2):
    assert total_variance(validate_model([1.0, 1.0], np.eye(2))) == 2.0
    assert total_variance(correlated_p2) == 3.0
    scaled = validate_model([3.0, 3.0], np.eye(2))
    assert total_variance(scaled) == pytest.approx(18.0, abs=1e-12)


def test_validation_is_idempotent(correlated_p2):
    again = validate_model(correlated_p2.beta, correlated_p2.gamma)
    assert np.array_equal(again.beta, correlated_p2.beta)
    assert np.array_equal(again.gamma, correlated_p2.gamma)


def test_validated_arrays_are_read_only(correlated_p2):
    # Roots are cached per model, so a gamma edited after a first call
    # would mix the old root with the new var(y): lg_indices then read
    # Sobol (0, 0.625, 0.625, -0.25) where (0, 0.5, 0.5, 0) is right.
    lg_indices(correlated_p2)
    with pytest.raises(ValueError, match="read-only"):
        correlated_p2.gamma[0, 1] = correlated_p2.gamma[1, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        correlated_p2.beta[0] = 2.0
    inp = GaussianInput(mu=[0.0, 1.0], gamma=correlated_p2.gamma)
    for array in (validate_mean([0.0, 1.0], 2), inp.mu, inp.gamma):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert_close(correlated_p2.gamma, [[1.0, 0.5], [0.5, 1.0]])


@given(st.integers(1, 8), st.integers(0, 10_000),
       st.floats(0.01, 100.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_total_variance_scales_quadratically(p, seed, c):
    model = generate_random_instance(p, seed)
    scaled = validate_model(c * model.beta, model.gamma)
    assert total_variance(scaled) == pytest.approx(
        c * c * total_variance(model), rel=1e-12)


def test_generate_random_instance_is_deterministic():
    a = generate_random_instance(3, seed=42)
    b = generate_random_instance(3, seed=42)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.gamma, b.gamma)


def test_generate_random_instance_construction_guarantees():
    model = generate_random_instance(5, seed=7)
    assert np.array_equal(model.gamma, model.gamma.T)
    assert np.linalg.eigvalsh(model.gamma)[0] > 0
    assert total_variance(model) > 0


def test_generators_reject_empty_sizes():
    with pytest.raises(ValueError):
        generate_random_instance(0, seed=7)
    with pytest.raises(ValueError):
        generate_block_instance(0, 1, seed=7)


def test_generate_random_instance_seed_sensitivity():
    a = generate_random_instance(5, seed=7)
    b = generate_random_instance(5, seed=8)
    assert not np.array_equal(a.beta, b.beta)


def test_block_instance_off_block_entries_are_exact_zeros():
    model = generate_block_instance(2, 3, seed=1)
    assert model.p == 6
    for i in range(6):
        for j in range(6):
            if i // 3 != j // 3:
                assert model.gamma[i, j] == 0.0


def test_block_instance_single_group_is_dense():
    model = generate_block_instance(1, 4, seed=1)
    assert model.p == 4
    assert np.all(model.gamma != 0.0)


def test_block_instance_groups_recovered_by_detection():
    model = generate_block_instance(3, 2, seed=9)
    partition = detect_blocks(model.gamma)
    assert partition.groups == ((1, 2), (3, 4), (5, 6))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_block_instance_invariants(k, n, seed):
    model = generate_block_instance(k, n, seed)
    assert model.p == k * n
    mask = np.kron(np.eye(k, dtype=bool), np.ones((n, n), dtype=bool))
    assert np.all(model.gamma[~mask] == 0.0)
    assert total_variance(model) > 0
