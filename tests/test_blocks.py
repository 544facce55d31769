import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapley_lg import (BlockPartition, conditional_variance, detect_blocks,
                        generate_block_instance, generate_random_instance,
                        lg_groups_indices, lg_indices, total_variance,
                        validate_model, verify_cross_block_zeros)
from shapley_lg import blocks, subsets
from conftest import assert_close


def group_weight(model, group):
    """Variance share of one group: its own quadratic form over the total."""
    idx = np.asarray(group) - 1
    b = model.beta[idx]
    return b @ model.gamma[np.ix_(idx, idx)] @ b / total_variance(model)


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
    with pytest.raises(ValueError, match="square"):
        detect_blocks(np.zeros((2, 3)))


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


def _components(gamma, eps_block=0.0):
    """Connected components of the links ``|gamma[a, b]| > eps_block`` by
    breadth-first search, sorted by their smallest member, 1-based."""
    p = len(gamma)
    seen, groups = set(), []
    for start in range(p):
        if start in seen:
            continue
        group, queue = {start}, [start]
        for a in queue:
            for b in np.flatnonzero(np.abs(gamma[a]) > eps_block).tolist():
                if b not in group:
                    group.add(b)
                    queue.append(b)
        seen |= group
        groups.append(tuple(sorted(i + 1 for i in group)))
    return tuple(groups)


def test_detect_blocks_matches_breadth_first_search():
    rng = np.random.default_rng(7)
    for p in (1, 2, 5, 17, 40):
        for density in (0.0, 0.03, 0.1, 0.5):
            links = rng.random((p, p)) < density
            gamma = np.where(links | links.T, rng.standard_normal((p, p)), 0.0)
            gamma = gamma + gamma.T + np.eye(p)
            for eps in (0.0, 1.0):
                partition = detect_blocks(gamma, eps)
                assert partition.groups == _components(gamma, eps)
                assert np.array_equal(
                    partition.group_of,
                    BlockPartition.from_groups(partition.groups, p).group_of)


def test_detect_blocks_permuted_chain_is_one_group_in_linear_passes():
    # A tridiagonal covariance, shuffled: labels cross one link per pass,
    # so there are about p passes, each over the 3p links, not p**2 cells.
    p = 2000
    chain = np.eye(p) * 2 + np.eye(p, k=1) + np.eye(p, k=-1)
    order = np.random.default_rng(3).permutation(p)
    gamma = chain[np.ix_(order, order)]
    assert detect_blocks(gamma).groups == (tuple(range(1, p + 1)),)
    cut = order.tolist().index(1000), order.tolist().index(1001)
    gamma[cut[0], cut[1]] = gamma[cut[1], cut[0]] = 0.0
    assert detect_blocks(gamma).groups == _components(gamma)


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
    for group in grouped.partition.groups:
        assert grouped.shapley[np.asarray(group) - 1].sum() == pytest.approx(
            group_weight(model, group), abs=1e-10)
    assert grouped.shapley.sum() == pytest.approx(1.0, abs=1e-10)


def test_grouped_report_corollary_structure():
    model = generate_block_instance(3, 2, seed=7)
    grouped = lg_groups_indices(model)
    for group in grouped.partition.groups:
        idx = np.asarray(group) - 1
        weight = grouped.shapley[idx].sum()
        assert weight == pytest.approx(group_weight(model, group), abs=1e-10)
        assert weight > 0.0
        assert (grouped.shapley[idx] / weight).sum() == pytest.approx(
            1.0, abs=1e-10)


@pytest.mark.parametrize("p", [*range(1, 13), "singular"])
def test_single_dense_group_reduces_to_full_report(p):
    if p == "singular":
        # Rank 2 of 5: every pair is linked, three variables are dependent.
        a = np.random.default_rng(6).standard_normal((5, 2))
        model = validate_model(np.arange(1.0, 6.0), a @ a.T)
    else:
        model = generate_random_instance(p, seed=6)
    grouped = lg_groups_indices(model)
    full = lg_indices(model)
    assert grouped.partition.groups == (tuple(range(1, model.p + 1)),)
    assert grouped.shapley.sum() == pytest.approx(1.0, rel=1e-12)
    # The dense route is the one-group case, bit for bit.
    assert grouped.var_y == full.var_y
    assert grouped.masks.dtype == full.masks.dtype == np.int64
    assert np.array_equal(full.masks, np.arange(1 << model.p))
    for family in ("masks", "sobol", "closed_sobol", "shapley"):
        assert np.array_equal(getattr(grouped, family), getattr(full, family))
    assert grouped.eval_count == full.eval_count == 1 << model.p


def test_grouped_route_on_one_group_peaks_like_the_dense_route():
    # The grouped route builds no (2**n, n) bit matrix of a group: on one
    # group of 16 its traced peak stays within 1.25x of the dense route's.
    model = generate_random_instance(16, seed=3)
    peaks = []
    for route in (lg_indices, lg_groups_indices):
        tracemalloc.start()
        try:
            route(model)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_both_exact_routes_list_rows_by_ascending_mask():
    model = generate_random_instance(4, seed=6)
    dense = lg_indices(model)
    assert np.array_equal(dense.masks, np.arange(1 << 4))
    assert dense.partition is None
    # Groups {1, 3} and {2, 4}: their masks interleave.
    interleaved = validate_model([1.0, 2.0, 3.0, 4.0], [
        [1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, -0.3],
        [0.5, 0.0, 1.0, 0.0], [0.0, -0.3, 0.0, 1.0]])
    grouped = lg_groups_indices(interleaved)
    assert grouped.partition.groups == ((1, 3), (2, 4))
    assert grouped.masks.tolist() == [0, 1, 2, 4, 5, 8, 10]
    # 33 groups of 2: object masks past 2**64.
    wide_model = generate_block_instance(33, 2, seed=2)
    wide = lg_groups_indices(wide_model)
    assert wide.masks.dtype == object and wide.masks[-1] >= 1 << 64
    # The facts the report writer relies on without checking them.
    for rep in (dense, lg_groups_indices(model), grouped, wide):
        for values in (rep.sobol, rep.closed_sobol):
            assert values.dtype == np.float64
            assert values.shape == rep.masks.shape
        masks = rep.masks.tolist()
        assert masks[0] >= 0 and masks[-1] < 1 << rep.p
        assert all(a < b for a, b in zip(masks, masks[1:]))


#: Models the dense route answers whose groups would fail validation on
#: their own: a group of zero output variance (by a zero ``beta`` or by
#: ``beta`` in the null space of its covariance), and a group whose
#: negative round-off eigenvalue is small against the model's largest
#: eigenvalue but not against the group's.
SLICE_MODELS = {
    "zero-beta": ([1, 1, 0], [[1, .5, 0], [.5, 1, 0], [0, 0, 1]]),
    "null-space": ([1, 1, -1], [[1, 0, 0], [0, 1, 1], [0, 1, 1]]),
    "group-not-psd": ([1, 1, 1], [[1, 0, 0], [0, 1e-6, 1e-6],
                                  [0, 1e-6, 0.999998e-6]]),
}


def _zero_group_instance(k, n, seed, zero):
    model = generate_block_instance(k, n, seed)
    beta = model.beta.copy()
    beta[zero * n:(zero + 1) * n] = 0.0
    return validate_model(beta, model.gamma)


def _within_group_masks(group):
    """Global masks of the non-empty subsets of ``group``."""
    local = np.arange(1, 1 << len(group))
    return sum(((local >> t) & 1) << (i - 1) for t, i in enumerate(group))


def assert_grouped_matches_dense(model, grouped, zero_groups=()):
    full = lg_indices(model)
    assert_close(grouped.shapley, full.shapley, tol=1e-10)
    assert_close(grouped.sobol, full.sobol[grouped.masks], tol=1e-10)
    assert_close(grouped.closed_sobol, full.closed_sobol[grouped.masks],
                 tol=1e-10)
    within = [m for g in grouped.partition.groups
              for m in _within_group_masks(g).tolist()]
    assert grouped.masks.tolist() == [0] + sorted(within)
    for j, group in enumerate(grouped.partition.groups):
        w = grouped.shapley[np.asarray(group) - 1].sum()
        assert (w == 0.0) == (j in zero_groups)
        assert w == pytest.approx(group_weight(model, group), abs=1e-10)
    assert grouped.eval_count == sum(1 << len(g)
                                     for g in grouped.partition.groups)


@pytest.mark.parametrize("make,zero", [
    (lambda: validate_model(*SLICE_MODELS["zero-beta"]), 1),
    (lambda: validate_model(*SLICE_MODELS["null-space"]), 1),
    (lambda: _zero_group_instance(2, 3, seed=0, zero=0), 0),
    (lambda: _zero_group_instance(3, 2, seed=1, zero=1), 1),
    (lambda: _zero_group_instance(4, 3, seed=2, zero=3), 3),
    (lambda: _zero_group_instance(3, 4, seed=3, zero=0), 0),
], ids=["zero-beta", "null-space", "2x3", "3x2", "4x3", "3x4"])
def test_zero_share_group_matches_dense(make, zero):
    model = make()
    grouped = lg_groups_indices(model)
    assert_grouped_matches_dense(model, grouped, (zero,))
    group = grouped.partition.groups[zero]
    rows = np.isin(grouped.masks, _within_group_masks(group))
    assert rows.sum() == (1 << len(group)) - 1
    assert not grouped.sobol[rows].any()
    assert not grouped.closed_sobol[rows].any()
    assert not grouped.shapley[np.asarray(group) - 1].any()
    assert grouped.shapley.sum() == pytest.approx(1.0, abs=1e-12)


def test_group_psd_round_off_is_not_checked_again():
    # The group's round-off eigenvalue fails PSD_TOL against the group's
    # own largest one; the group is not rejected as NotPSD, and like the
    # dense route it warns about nothing.
    model = validate_model(*SLICE_MODELS["group-not-psd"])
    grouped = lg_groups_indices(model)
    assert_grouped_matches_dense(model, grouped)


def test_grouped_route_does_not_validate_groups_again(monkeypatch):
    model = _zero_group_instance(3, 3, seed=5, zero=1)
    before = lg_groups_indices(model)

    def refuse(*args, **kwargs):
        raise AssertionError("validate_model called by the grouped route")

    monkeypatch.setattr(blocks, "validate_model", refuse)
    after = lg_groups_indices(model)
    assert np.array_equal(after.shapley, before.shapley)
    assert np.array_equal(after.masks, before.masks)
    assert np.array_equal(after.sobol, before.sobol)
    assert np.array_equal(after.closed_sobol, before.closed_sobol)


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
    assert len(partition.groups) == 1
    assert verify_cross_block_zeros(report, partition) == []


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
