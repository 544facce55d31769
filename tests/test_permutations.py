import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapley_lg import (DimensionCapError, all_conditional_variances,
                        conditional_variance, cv_experiment,
                        exact_permutation_shapley,
                        generate_random_instance, lg_indices,
                        random_permutation_shapley, replicate_estimates,
                        shapley_from_table, total_variance, validate_model,
                        verify_weight_collapse, weight_collapse_sides)
from shapley_lg import conditional, permutations
from conftest import (_duplicate_variable, _tiny_independent_variable,
                      assert_close, prefix_variances)


def test_exact_p1():
    model = validate_model([2.0], [[3.0]])
    assert_close(exact_permutation_shapley(model), [1.0], tol=0.0)


def test_exact_exchangeable_p2(correlated_p2):
    assert_close(exact_permutation_shapley(correlated_p2), [0.5, 0.5],
                 tol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_matches_table_route_p5(seed):
    model = generate_random_instance(5, seed)
    table = all_conditional_variances(model)
    assert_close(exact_permutation_shapley(model), shapley_from_table(table),
                 tol=1e-10)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8])
def test_exact_identity_across_dimensions(p):
    model = generate_random_instance(p, seed=50 + p)
    assert_close(exact_permutation_shapley(model), lg_indices(model).shapley,
                 tol=1e-10)


def test_exact_memoized_and_literal_are_bit_identical():
    for model in (generate_random_instance(4, seed=17), _duplicate_variable(),
                  _tiny_independent_variable()):
        a = exact_permutation_shapley(model, memoize=True)
        b = exact_permutation_shapley(model, memoize=False)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("make", [lambda: generate_random_instance(7, 40),
                                  _duplicate_variable,
                                  _tiny_independent_variable],
                         ids=["dense", "duplicate", "tiny"])
def test_random_estimate_matches_the_literal_walk(make):
    # The same orderings walked one at a time: bit for bit with one sweep
    # per ordering, and within round-off with one scalar conditional
    # variance per step, whose sweep takes the members in ascending order.
    model = make()
    est = random_permutation_shapley(model, 30, seed=4)
    rng = np.random.default_rng(4)
    swept, scalar = np.zeros(model.p), np.zeros(model.p)
    for _ in range(30):
        order = rng.permutation(model.p)
        v = prefix_variances(model, order[None])[0]
        permutations._chain_update(swept, order,
                                   lambda mask: v[mask.bit_count()])
        permutations._chain_update(
            scalar, order, lambda mask: conditional_variance(model, mask))
    var_y = total_variance(model)
    assert np.array_equal(est.shapley_hat, swept / (30 * var_y))
    assert np.max(np.abs(est.shapley_hat - scalar / (30 * var_y))) <= 1e-13


def _literal_replicates(model, m, reps, seed):
    """Per-run sums of one sweep along each of ``m * reps`` orderings drawn
    one at a time from ``default_rng(seed)``, walked by ``_chain_update``."""
    rng = np.random.default_rng(seed)
    out = np.zeros((reps, model.p))
    for r in range(reps):
        for _ in range(m):
            order = rng.permutation(model.p)
            v = prefix_variances(model, order[None])[0]
            # Python ints, so that masks past 63 bits do not wrap.
            permutations._chain_update(out[r], order.tolist(),
                                       lambda mask: v[mask.bit_count()])
    return out / (m * total_variance(model))


@pytest.mark.parametrize("make, m", [
    (lambda: generate_random_instance(7, 40), 30),
    (_duplicate_variable, 30),
    (_tiny_independent_variable, 30),
    (lambda: generate_random_instance(70, 41), 3),
    (lambda: generate_random_instance(1, 42), 30),
], ids=["dense", "duplicate", "tiny", "p70", "p1"])
def test_replicates_are_runs_of_one_ordering_stream(make, m):
    # Stacking the replicates' orderings and summing their gains per run
    # changes no bit of any row, on the generalized-inverse paths and with
    # multi-byte prefix keys too; row 0 is the single estimate.
    model = make()
    samples = replicate_estimates(model, m, 4, seed=6)
    assert np.array_equal(samples, _literal_replicates(model, m, 4, 6))
    assert np.array_equal(
        samples[0], random_permutation_shapley(model, m, 6).shapley_hat)


def test_replicates_split_into_chunks_change_no_bit(monkeypatch):
    # Two replicates' prefix variances exceed BATCH_BYTES, so each one gets
    # its own draw; under four times the cap all three share one. Under a
    # cap below one ordering's sweep, each draw is also swept one ordering
    # at a time. Each draw's orderings reach one gains sum.
    model = generate_random_instance(5, seed=42)
    m = conditional.BATCH_BYTES // (8 * 6) // 2 + 1
    draws, sweeps = [], []
    uniform, along = permutations._uniform, conditional._along

    def counted(p, rng):
        draw = uniform(p, rng)

        def counted_draw(n):
            draws.append(n)
            return draw(n)
        return counted_draw

    def counted_along(model, orders):
        sweeps.append(len(orders))
        return along(model, orders)

    monkeypatch.setattr(permutations, "_uniform", counted)
    split = replicate_estimates(model, m, 3, seed=8)
    monkeypatch.setattr(conditional, "BATCH_BYTES",
                        4 * conditional.BATCH_BYTES)
    whole = replicate_estimates(model, m, 3, seed=8)
    assert draws == [m, m, m, 3 * m]
    assert np.array_equal(split, whole)
    monkeypatch.setattr(conditional, "BATCH_BYTES", 4 * 8 * 5 * 6 - 1)
    monkeypatch.setattr(conditional, "_along", counted_along)
    single = replicate_estimates(model, m, 3, seed=8)
    assert draws[4:] == [m, m, m] and sweeps == [1] * (3 * m)
    assert np.array_equal(single, whole)


def test_exact_enumeration_guard():
    model = generate_random_instance(9, seed=0)
    with pytest.raises(DimensionCapError):
        exact_permutation_shapley(model)


def test_random_estimate_components_sum_to_one():
    model = generate_random_instance(6, seed=12)
    for m in (1, 7, 100):
        est = random_permutation_shapley(model, m, seed=m)
        assert est.shapley_hat.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_estimate_deterministic_per_seed():
    model = generate_random_instance(5, seed=3)
    a = random_permutation_shapley(model, 25, seed=9)
    b = random_permutation_shapley(model, 25, seed=9)
    c = random_permutation_shapley(model, 25, seed=10)
    assert np.array_equal(a.shapley_hat, b.shapley_hat)
    assert not np.array_equal(a.shapley_hat, c.shapley_hat)


def test_random_estimate_p2_hand_enumeration(skewed_p2):
    # Two orderings exist; each chain telescopes Var(Y) across both
    # components, and their average is the exact value.
    table = all_conditional_variances(skewed_p2).values
    var_y = total_variance(skewed_p2)
    first = np.array([table[0] - table[1], table[1] - table[3]]) / var_y
    second = np.array([table[2] - table[3], table[0] - table[2]]) / var_y
    assert first.sum() == pytest.approx(1.0, abs=1e-14)
    assert second.sum() == pytest.approx(1.0, abs=1e-14)
    assert_close((first + second) / 2, exact_permutation_shapley(skewed_p2),
                 tol=1e-14)
    # any single-ordering estimate is one of the two chains
    est = random_permutation_shapley(skewed_p2, 1, seed=0).shapley_hat
    assert np.allclose(est, first) or np.allclose(est, second)


def test_estimator_is_unbiased_within_three_standard_errors():
    model = generate_random_instance(5, seed=123)
    samples = replicate_estimates(model, m=50, reps=200, seed=1)
    exact = exact_permutation_shapley(model)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    assert np.all(np.abs(mean - exact) <= 3 * se)


def test_cv_with_large_m_is_tiny():
    model = generate_random_instance(3, seed=77)
    summary = cv_experiment(model, m=5000, reps=20, seed=5)
    assert summary.mean_cv < 2.0


def test_cv_scales_like_inverse_sqrt_m():
    model = generate_random_instance(5, seed=123)
    cv_small = cv_experiment(model, m=100, reps=200, seed=11).mean_cv
    cv_large = cv_experiment(model, m=400, reps=200, seed=12).mean_cv
    assert 0.4 <= cv_large / cv_small <= 0.6


def test_cv_magnitude_small_instance():
    # p=3 with m=10 lands in the tens of percent.
    model = generate_random_instance(3, seed=2024)
    summary = cv_experiment(model, m=10, reps=500, seed=5)
    assert 10.0 <= summary.mean_cv <= 90.0


def test_cv_excludes_zero_mean_components():
    # X2 never contributes: every chain increment for it is exactly zero.
    model = validate_model([1.0, 0.0], np.eye(2))
    summary = cv_experiment(model, m=5, reps=25, seed=0)
    assert summary.excluded == (2,)
    assert np.isnan(summary.per_i_cv[1])
    assert summary.per_i_cv[0] >= 0.0
    assert summary.mean_cv == pytest.approx(summary.per_i_cv[0])


def test_cv_requires_two_replicates():
    model = generate_random_instance(3, seed=0)
    with pytest.raises(ValueError):
        cv_experiment(model, m=5, reps=1, seed=0)
    with pytest.raises(ValueError):
        random_permutation_shapley(model, 0, seed=0)


def test_replicates_matrix_shape_and_determinism():
    model = generate_random_instance(4, seed=2)
    a = replicate_estimates(model, m=10, reps=6, seed=3)
    b = replicate_estimates(model, m=10, reps=6, seed=3)
    assert a.shape == (6, 4)
    assert np.array_equal(a, b)
    assert_close(a.sum(axis=1), np.ones(6), tol=1e-12)


@given(st.integers(1, 6), st.integers(0, 3000), st.integers(1, 30),
       st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_estimate_sums_to_one_property(p, model_seed, m, seed):
    model = generate_random_instance(p, model_seed)
    est = random_permutation_shapley(model, m, seed)
    assert est.shapley_hat.sum() == pytest.approx(1.0, abs=1e-12)


def test_weight_collapse_spot_values():
    # p=3, c=2, u=0: (1/3) * (C(1,0)/C(2,0) + C(1,1)/C(2,1)) = 1/2
    lhs, rhs = weight_collapse_sides(3, 2, 0)
    assert lhs == rhs == Fraction(1, 2)
    lhs, rhs = weight_collapse_sides(5, 3, 1)
    assert lhs == rhs == Fraction(1, 3 * math.comb(2, 1))


def test_weight_collapse_identity_sweep():
    assert verify_weight_collapse(12) == []
