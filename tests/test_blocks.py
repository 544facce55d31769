import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapley_lg import (BlockPartition, combine_block_shapley,
                        conditional_variance, detect_blocks,
                        generate_block_instance, generate_random_instance,
                        group_weight, lg_groups_indices, lg_indices,
                        total_variance, validate_model,
                        verify_cross_block_zeros)
from shapley_lg import subsets
from conftest import assert_close


def test_detect_blocks_diagonal():
    partition = detect_blocks(np.eye(3))
    assert partition.groups == ((1,), (2,), (3,))
    assert list(partition.group_of) == [0, 1, 2]


def test_detect_blocks_two_groups():
    gamma = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
    partition = detect_blocks(gamma)
    assert partition.groups == ((1, 2), (3,))


def test_detect_blocks_dense_instance_is_one_group():
    model = generate_random_instance(6, seed=2)
    off_diag = model.gamma[~np.eye(6, dtype=bool)]
    assert np.min(np.abs(off_diag)) > 0.0
    partition = detect_blocks(model.gamma)
    assert partition.groups == (tuple(range(1, 7)),)


def test_detect_blocks_threshold():
    gamma = np.array([[1.0, 1e-6], [1e-6, 1.0]])
    assert detect_blocks(gamma).groups == ((1, 2),)
    assert detect_blocks(gamma, eps_block=1e-5).groups == ((1,), (2,))
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            detect_blocks(gamma, eps_block=bad)


def test_detect_blocks_permutation_invariance():
    model = generate_block_instance(3, 2, seed=4)
    base = detect_blocks(model.gamma)
    rng = np.random.default_rng(0)
    positions = rng.permutation(6)
    permuted = model.gamma[np.ix_(positions, positions)]
    relabeled = detect_blocks(permuted)
    # map each permuted group back to original labels
    back = {frozenset(int(positions[i - 1]) + 1 for i in g)
            for g in relabeled.groups}
    assert back == {frozenset(g) for g in base.groups}


def test_group_weight_examples():
    model = generate_random_instance(4, seed=0)
    assert group_weight(model, range(1, 5)) == pytest.approx(1.0, rel=1e-12)

    diag = validate_model([1.0, 2.0], np.eye(2))
    assert group_weight(diag, [2]) == pytest.approx(0.8, abs=1e-14)


@pytest.mark.parametrize("k,n,seed", [(2, 2, 0), (3, 3, 1), (4, 2, 2)])
def test_group_weights_sum_to_one(k, n, seed):
    model = generate_block_instance(k, n, seed)
    partition = detect_blocks(model.gamma)
    weights = [group_weight(model, g) for g in partition.groups]
    assert sum(weights) == pytest.approx(1.0, abs=1e-10)


def test_grouped_work_count_2x6():
    model = generate_block_instance(2, 6, seed=3)
    grouped = lg_groups_indices(model)
    assert grouped.eval_count == 128
    assert lg_indices(model).eval_count == 4096


@pytest.mark.parametrize("k,n,seed", [(2, 3, 0), (3, 4, 1), (3, 5, 2), (5, 3, 3)])
def test_grouped_shapley_matches_full_lattice(k, n, seed):
    model = generate_block_instance(k, n, seed)
    grouped = lg_groups_indices(model)
    full = lg_indices(model)
    assert_close(grouped.shapley, full.shapley, tol=1e-10)
    assert grouped.eval_count == k * (1 << n)
    assert grouped.group_weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert grouped.shapley.sum() == pytest.approx(1.0, abs=1e-10)


def test_grouped_report_corollary_structure():
    model = generate_block_instance(3, 2, seed=7)
    grouped = lg_groups_indices(model)
    for j, group in enumerate(grouped.partition.groups):
        idx = np.asarray(group) - 1
        assert_close(
            grouped.shapley[idx],
            grouped.group_weights[j] * grouped.group_reports[j].shapley,
            tol=1e-14,
        )
        assert grouped.group_reports[j].shapley.sum() == pytest.approx(
            1.0, abs=1e-10)


def test_single_dense_group_reduces_to_full_report():
    model = generate_random_instance(4, seed=6)
    grouped = lg_groups_indices(model)
    full = lg_indices(model)
    assert grouped.partition.groups == ((1, 2, 3, 4),)
    assert grouped.group_weights[0] == pytest.approx(1.0, rel=1e-12)
    assert_close(grouped.shapley, full.shapley, tol=1e-12)
    assert_close(grouped.scaled_sobol[0], full.sobol, tol=1e-12)
    assert grouped.eval_count == full.eval_count


def test_cross_block_zero_scan_clean_and_faulty():
    model = generate_block_instance(2, 2, seed=8)
    partition = detect_blocks(model.gamma)
    report = lg_indices(model)
    assert verify_cross_block_zeros(report, partition, tol=1e-10) == []

    report.sobol[subsets.encode([1, 3], 4)] = 0.1  # straddles the two groups
    violations = verify_cross_block_zeros(report, partition, tol=1e-10)
    assert violations == [(subsets.encode([1, 3], 4), 0.1)]


def test_cross_block_scan_vacuous_for_dense_partition():
    model = generate_random_instance(4, seed=1)
    partition = detect_blocks(model.gamma)
    report = lg_indices(model)
    assert partition.k == 1
    assert verify_cross_block_zeros(report, partition) == []


def test_combine_identity_and_singletons():
    one = BlockPartition.from_groups([[1, 2, 3]], 3)
    eta = combine_block_shapley([1.0], [np.array([0.2, 0.3, 0.5])], one)
    assert_close(eta, [0.2, 0.3, 0.5], tol=0.0)

    singles = BlockPartition.from_groups([[1], [2]], 2)
    eta = combine_block_shapley([0.7, 0.3], [np.array([1.0]), np.array([1.0])],
                                singles)
    assert_close(eta, [0.7, 0.3], tol=0.0)


def test_combine_weighted_example():
    partition = BlockPartition.from_groups([[1, 2], [3]], 3)
    eta = combine_block_shapley([0.6, 0.4],
                                [np.array([0.5, 0.5]), np.array([1.0])],
                                partition)
    assert_close(eta, [0.3, 0.3, 0.4], tol=1e-15)


def test_combine_rejects_inconsistencies():
    partition = BlockPartition.from_groups([[1, 2], [3]], 3)
    with pytest.raises(ValueError):
        combine_block_shapley([0.6], [np.array([0.5, 0.5])], partition)
    with pytest.raises(ValueError):
        combine_block_shapley([0.9, 0.4],
                              [np.array([0.5, 0.5]), np.array([1.0])],
                              partition)
    with pytest.raises(ValueError):
        combine_block_shapley([0.6, 0.4],
                              [np.array([1.0]), np.array([0.5, 0.5])],
                              partition)
    with pytest.raises(ValueError):
        combine_block_shapley([0.6, 0.4],
                              [np.array([0.7, 0.5]), np.array([1.0])],
                              partition)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2000))
@settings(max_examples=25, deadline=None)
def test_explained_variance_decomposes_per_group(k, n, seed):
    # For a linear model on a block covariance the explained variance of any
    # subset is the sum of the per-group explained variances.
    model = generate_block_instance(k, n, seed)
    p = model.p
    partition = detect_blocks(model.gamma)
    var_y = total_variance(model)
    rng = np.random.default_rng(seed)
    submodels = {}
    for g in partition.groups:
        idx = np.asarray(g) - 1
        submodels[g] = validate_model(model.beta[idx],
                                      model.gamma[np.ix_(idx, idx)])
    for mask in rng.integers(0, 1 << p, size=8):
        mask = int(mask)
        explained = var_y - conditional_variance(model, mask)
        per_group = 0.0
        for g in partition.groups:
            local = 0
            for t, i in enumerate(g):
                if mask >> (i - 1) & 1:
                    local |= 1 << t
            sub = submodels[g]
            per_group += total_variance(sub) - conditional_variance(sub, local)
        assert explained == pytest.approx(per_group, abs=1e-10 * var_y)


def test_partition_from_groups_validation():
    with pytest.raises(ValueError):
        BlockPartition.from_groups([[1, 2], [2, 3]], 3)
    with pytest.raises(ValueError):
        BlockPartition.from_groups([[1, 2]], 3)
    with pytest.raises(ValueError):
        BlockPartition.from_groups([[0, 1]], 2)
