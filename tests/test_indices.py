import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapley_lg import (all_conditional_variances, closed_sobol_from_table,
                        exact_permutation_shapley, generate_block_instance,
                        generate_random_instance, lg_indices,
                        shapley_from_table, sobol_from_table, validate_model)
from shapley_lg import indices, subsets
from shapley_lg.conditional import CondVarTable, conditional_variance_tables
from shapley_lg.blocks import detect_blocks
from conftest import assert_close


def table_of(model):
    return all_conditional_variances(model)


def iterate_supersets(j, p):
    """Masks of all supersets of ``j`` within ``[1:p]``, each once."""
    free = ((1 << p) - 1) ^ j
    sub = free
    while True:
        yield j | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def sobol_naive(table):
    """Superset accumulation, cost 3**p: the oracle for the lattice transform."""
    p = table.p
    values = table.values
    out = np.zeros(1 << p)
    for j in range(1 << p):
        term = values[j] if subsets.cardinality(j) % 2 else -values[j]
        for u in iterate_supersets(j, p):
            out[u] += term
    out[0] = 0.0
    for j in range(1, 1 << p):
        sign = 1.0 if subsets.cardinality(j) % 2 == 0 else -1.0
        out[j] *= sign / table.var_y
    return out


def test_sobol_independent_symmetric():
    model = validate_model([1.0, 1.0], np.eye(2))
    assert_close(sobol_from_table(table_of(model)), [0.0, 0.5, 0.5, 0.0],
                 tol=1e-14)


def test_sobol_correlated_hand_value(correlated_p2):
    # Table (3, 0.75, 0.75, 0): singles 0.75 each, interaction -0.5.
    assert_close(sobol_from_table(table_of(correlated_p2)),
                 [0.0, 0.75, 0.75, -0.5], tol=1e-14)


def test_sobol_p1_is_one():
    model = validate_model([2.0], [[3.0]])
    assert_close(sobol_from_table(table_of(model)), [0.0, 1.0], tol=0.0)


def test_closed_sobol_values(correlated_p2):
    closed = closed_sobol_from_table(table_of(correlated_p2))
    assert closed[0] == 0.0
    assert closed[subsets.encode([1], 2)] == pytest.approx(0.75, abs=1e-14)
    assert closed[3] == 1.0


def test_shapley_exchangeable_inputs():
    for rho in (-0.7, 0.0, 0.4, 0.9):
        model = validate_model([1.0, 1.0], [[1.0, rho], [rho, 1.0]])
        assert_close(shapley_from_table(table_of(model)), [0.5, 0.5],
                     tol=1e-14)


def test_shapley_hand_value(skewed_p2):
    # eta_1 = (1 + (1 - 0.36)) / 2, eta_2 = 0.36 / 2, with Var(Y) = 1.
    assert_close(shapley_from_table(table_of(skewed_p2)), [0.82, 0.18],
                 tol=1e-14)


def test_independent_shapley_is_variance_share():
    beta = np.array([1.0, -2.0, 0.5])
    diag = np.array([3.0, 1.0, 2.0])
    model = validate_model(beta, np.diag(diag))
    share = beta ** 2 * diag / (beta ** 2 * diag).sum()
    rep = lg_indices(model)
    assert_close(rep.shapley, share, tol=1e-12)
    assert_close(rep.shapley, exact_permutation_shapley(model), tol=1e-12)


def test_report_matches_enumeration_oracle():
    model = generate_random_instance(6, seed=9)
    assert_close(lg_indices(model).shapley, exact_permutation_shapley(model),
                 tol=1e-10)


@given(st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_sobol_sum_and_shapley_efficiency(p, seed):
    rep = lg_indices(generate_random_instance(p, seed))
    assert rep.sobol[0] == 0.0
    assert rep.sobol.sum() == pytest.approx(1.0, abs=1e-10)
    assert rep.shapley.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(rep.shapley >= -1e-10)
    assert np.all(rep.shapley <= 1 + 1e-10)
    assert rep.closed_sobol[0] == 0.0
    assert rep.closed_sobol[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p,seed", [(2, 0), (5, 3), (12, 4)])
def test_sum_identities_up_to_p12(p, seed):
    rep = lg_indices(generate_random_instance(p, seed))
    assert rep.sobol.sum() == pytest.approx(1.0, abs=1e-10)
    assert rep.shapley.sum() == pytest.approx(1.0, abs=1e-10)


@given(st.integers(1, 6), st.integers(0, 5000),
       st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 0.01))
@settings(max_examples=30, deadline=None)
def test_indices_are_scale_invariant(p, seed, c):
    model = generate_random_instance(p, seed)
    scaled = validate_model(c * model.beta, model.gamma)
    a, b = lg_indices(model), lg_indices(scaled)
    assert_close(a.sobol, b.sobol, tol=1e-12)
    assert_close(a.closed_sobol, b.closed_sobol, tol=1e-12)
    assert_close(a.shapley, b.shapley, tol=1e-12)


def _new_mask(old_mask, positions):
    """Mask of the same subset after variables are reordered by ``positions``
    (new variable n+1 is old variable positions[n]+1)."""
    out = 0
    for new0, old0 in enumerate(positions):
        if old_mask >> old0 & 1:
            out |= 1 << new0
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_relabeling_equivariance(seed):
    model = generate_random_instance(5, seed)
    rng = np.random.default_rng(seed + 100)
    positions = rng.permutation(5)
    permuted = validate_model(model.beta[positions],
                              model.gamma[np.ix_(positions, positions)])
    a, b = lg_indices(model), lg_indices(permuted)
    assert_close(b.shapley, a.shapley[positions], tol=1e-12)
    for old_mask in range(1 << 5):
        assert b.sobol[_new_mask(old_mask, positions)] == pytest.approx(
            a.sobol[old_mask], abs=1e-12)


@pytest.mark.parametrize("p,seed", [(4, 0), (5, 2), (7, 1), (10, 2)])
def test_fast_and_naive_sobol_agree(p, seed):
    table = table_of(generate_random_instance(p, seed))
    assert_close(sobol_from_table(table), sobol_naive(table), tol=1e-12)


def test_diagonal_covariance_degeneration():
    model = validate_model([1.0, 2.0, -1.0], np.diag([1.0, 0.5, 2.0]))
    rep = lg_indices(model)
    for i in range(1, 4):
        mask = subsets.encode([i], 3)
        assert rep.shapley[i - 1] == pytest.approx(rep.sobol[mask], abs=1e-12)
        assert rep.shapley[i - 1] == pytest.approx(rep.closed_sobol[mask],
                                                   abs=1e-12)
    for mask in range(1 << 3):
        if subsets.cardinality(mask) > 1:
            assert abs(rep.sobol[mask]) <= 1e-12


def test_straddling_subsets_have_zero_sobol():
    model = generate_block_instance(2, 2, seed=5)
    rep = lg_indices(model)
    partition = detect_blocks(model.gamma)
    masks = partition.masks()
    for mask in range(1, 1 << 4):
        if not any(mask & ~g == 0 for g in masks):
            assert abs(rep.sobol[mask]) <= 1e-10


def test_eval_count_is_lattice_size():
    rep = lg_indices(generate_random_instance(5, seed=0))
    assert rep.eval_count == 32


@pytest.mark.parametrize("p", range(1, indices.SMALL_LATTICE + 1))
def test_small_lattice_product_matches_the_pass(p, monkeypatch):
    # A lattice this small takes the Sobol and Shapley families as one
    # product with a kept matrix; the per-bit passes give the same values,
    # alone and stacked.
    models = [generate_random_instance(p, seed=s) for s in range(3)]
    stacked = conditional_variance_tables(
        np.array([m.gamma for m in models]), np.array([m.beta for m in models]))
    tables = [stacked, CondVarTable(stacked.values[1], float(stacked.var_y[1]))]
    by_product = [(sobol_from_table(t), shapley_from_table(t)) for t in tables]
    monkeypatch.setattr(indices, "SMALL_LATTICE", 0)
    for table, (sobol, shapley) in zip(tables, by_product):
        assert_close(sobol, sobol_from_table(table), tol=1e-14)
        assert_close(shapley, shapley_from_table(table), tol=1e-14)
        assert not sobol[..., 0].any()
