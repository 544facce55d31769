"""Shapley estimation for black-box models with Gaussian inputs.

Nothing here assumes linearity: conditional variances are estimated by a
nested Monte Carlo loop (outer draw of the conditioning variables, inner
conditional draws of the rest) and plugged into the random-ordering
estimator. The draws come from the exact routes' Gram-Schmidt sweep, run
once along each ordering (``conditional.ordered_factors``), so step ``k``
draws ``k`` normals per outer point and ``p - k`` per inner point, the
ranks of the two laws. All normals of a call come from one stream; the
linear estimator's loop, ``permutations._ordering_shapley``, chunks the
orderings of its uniform draw, the factors are swept once per chunk, and
the model is evaluated once per slice of it.
When the model is a sum of functions of independent groups, each group's
own estimate times its share of the output variance gives its variables'
effects, which is dramatically cheaper than estimating on the full input
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import conditional, subsets
from .blocks import BlockPartition
from .errors import (BudgetExceededError, ModelValidationError, ValidationKind,
                     allocation)
from .model import validate_covariance, validate_mean
from .permutations import PermutationEstimate, _ordering_shapley, _uniform


@dataclass(frozen=True, eq=False)
class BlackBoxModel:
    """Deterministic scalar-valued function of a length-p input vector.

    ``eval`` is called with a batch array of shape (n, p), one row per
    point, and must return n values.
    """

    eval: Callable
    p: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ValueError(f"expected batch of shape (n, {self.p}), got {x.shape}")
        out = np.asarray(self.eval(x), dtype=float).reshape(-1)
        if out.size != x.shape[0]:
            raise ValueError(f"model returned {out.size} values for "
                             f"{x.shape[0]} points")
        return out


@dataclass(frozen=True, eq=False)
class GaussianInput:
    """Gaussian input distribution with a cached sampling factor.

    Construction checks ``gamma`` with :func:`validate_covariance` and
    ``mu`` with :func:`validate_mean`, as a distribution file is checked,
    and keeps the read-only symmetrised ``gamma``. ``factor`` is the exact
    routes' root of it, ordered along ``1..p`` by
    :func:`conditional.ordered_factors`: the lower-triangular ``F`` with
    ``F F' = gamma``, a non-negative diagonal and a zero column for each
    variable that depends on the ones before it. For a positive-definite
    ``gamma`` it is the Cholesky factor up to round-off. Frozen, so the
    factor cannot go stale.
    """

    mu: np.ndarray
    gamma: np.ndarray
    factor: np.ndarray = field(init=False)

    def __post_init__(self):
        gamma = validate_covariance(self.gamma)
        self._keep(validate_mean(self.mu, len(gamma)), gamma)

    def _keep(self, mu: np.ndarray, gamma: np.ndarray) -> None:
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "factor", conditional.ordered_factors(
            conditional.root(gamma), np.arange(len(gamma))[None])[0])

    def marginal(self, idx: np.ndarray) -> GaussianInput:
        """The input of the zero-based variables ``idx``: read-only slices
        of this checked one, not checked again. A principal slice of a
        checked ``gamma`` is positive semi-definite up to the whole
        matrix's round-off, which may exceed the slice's own tolerance."""
        mu, gamma = self.mu[idx], self.gamma[np.ix_(idx, idx)]
        mu.flags.writeable = gamma.flags.writeable = False
        out = object.__new__(GaussianInput)
        out._keep(mu, gamma)
        return out

    @property
    def p(self) -> int:
        return self.mu.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n joint draws, shape (n, p)."""
        with allocation():
            return self.mu + rng.standard_normal((n, self.p)) @ self.factor.T


def _ordering(p: int, u: Sequence[int]) -> np.ndarray:
    """The checked 1-based ``u``, in order, then the rest, zero-based."""
    mask = subsets.encode(u, p)
    return np.array([i - 1 for i in u]
                    + [i for i in range(p) if not mask >> i & 1])


def _floats(p: int, steps: Sequence[int], n_inner: int) -> int:
    """Floats of the normals, points and outer means of one ordering and
    outer draw in :func:`_nested`."""
    return sum(n_inner * (p - k) + k + (n_inner + 1) * p for k in steps)


def _nested(model: BlackBoxModel, inp: GaussianInput, factors: np.ndarray,
            rng: np.random.Generator, steps: Sequence[int], n_outer: int,
            n_inner: int, work: np.ndarray | None = None) -> np.ndarray:
    """Nested Monte Carlo variances ``(c, len(steps))``, the outer means of
    the inner sample variances, given the first ``k`` variables of each of
    ``c`` orderings, for each ``k`` of ``steps``, from its ordered factor
    ``F`` of ``factors`` ``(c, p, p)`` (:func:`conditional.ordered_factors`).

    Step ``k`` of each ordering, in turn, reads ``n_inner * n_outer * (p -
    k)`` normals ``w'`` of ``rng`` for its inner draws' noise ``F[:, k:]
    w'``, then ``n_outer * k`` for its outer draws' offsets ``F[:, :k] w``,
    each a slice of one draw at a running offset. The offsets of all steps
    fill one buffer ``(c, step, 1, n_outer, p)``; ``mu`` is added to that,
    and that to the noise, once per slice, with the bits of adding ``mu +
    F[:, :k] w`` step by step. All points, laid out ``(c, step, n_inner,
    n_outer, p)``, go to one model call.

    Normals, points and offsets are views of ``work``, a contiguous float
    buffer of at least ``c * n_outer * _floats(p, steps, n_inner)``, or of
    a new one. :func:`mc_shapley` passes one buffer to every slice of a
    stack: arrays of a slice's size, allocated anew, would be mapped,
    faulted in and unmapped again for each slice.
    """
    c, p = factors.shape[:2]
    ft = factors.swapaxes(-1, -2)
    if work is None:
        with allocation():
            work = np.empty((c, n_outer, _floats(p, steps, n_inner)))
    work = work.reshape(-1)
    n_z = c * n_outer * sum(n_inner * (p - k) + k for k in steps)
    n_o = c * len(steps) * n_outer * p
    z = rng.standard_normal(out=work[:n_z].reshape(c, -1))
    x = work[n_z:n_z + n_inner * n_o].reshape(
        c, len(steps), n_inner, n_outer, p)
    o = work[n_z + n_inner * n_o:n_z + (n_inner + 1) * n_o].reshape(
        c, len(steps), 1, n_outer, p)
    flat = x.reshape(c, len(steps), -1, p)          # a view: x is contiguous
    at = 0
    for s, k in enumerate(steps):
        mid = at + n_inner * n_outer * (p - k)
        np.matmul(z[:, at:mid].reshape(c, -1, p - k), ft[:, k:],
                  out=flat[:, s])
        at = mid + n_outer * k
        np.matmul(z[:, mid:at].reshape(c, n_outer, k), ft[:, :k],
                  out=o[:, s, 0])
    o += inp.mu
    x += o
    values = model(x.reshape(-1, p)).reshape(x.shape[:-1])
    return np.var(values, axis=2, ddof=1).mean(axis=-1)


def double_mc_cond_var(model: BlackBoxModel, inp: GaussianInput,
                       u: Sequence[int], n_outer: int, n_inner: int,
                       seed) -> float:
    """Nested Monte Carlo estimate of the mean conditional output variance.

    Draws ``n_outer`` values of the conditioning variables, then for each
    one the unbiased sample variance of the model over ``n_inner``
    conditional draws of the remaining variables; returns the outer mean.
    This is step ``|u|`` of :func:`mc_shapley` on the ordering ``u``, as
    given, then the rest ascending, on the next normals of ``seed``'s
    stream. Conditioning on the full set costs nothing and is exactly 0.
    """
    _check_minimums(n_outer=n_outer, n_inner=n_inner)
    order = _ordering(inp.p, u)
    if len(u) == inp.p:
        return 0.0
    return float(_nested(model, inp,
                         conditional.ordered_factors(inp.factor, order[None]),
                         np.random.default_rng(seed), [len(u)], n_outer,
                         n_inner)[0, 0])


def _check_variance(var: float, what: str) -> float:
    if not np.isfinite(var):
        raise ModelValidationError(
            ValidationKind.NOT_FINITE,
            f"estimated output variance of {what} is {var}",
        )
    if var <= 0.0:
        raise ModelValidationError(
            ValidationKind.ZERO_OUTPUT_VARIANCE,
            f"estimated output variance of {what} is zero; it looks constant",
        )
    return var


def _sample_variance(model: BlackBoxModel, inp: GaussianInput, n: int,
                     seed) -> float:
    values = model(inp.sample(n, np.random.default_rng(seed)))
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.var(values, ddof=1))


def output_variance(model: BlackBoxModel, inp: GaussianInput, n: int, seed,
                    what: str = "the model") -> float:
    """Unbiased sample variance of the model output over ``n`` joint draws.

    Raises :class:`ModelValidationError` (``NotFinite`` or
    ``ZeroOutputVariance``) unless the estimate is finite and positive;
    ``what`` names the model in the message.
    """
    return _check_variance(_sample_variance(model, inp, n, seed), what)


#: Smallest accepted sampling sizes; the two variance sizes need 2 draws
#: for a sample variance.
MC_MINIMUMS = {"m": 1, "n_var": 2, "n_outer": 1, "n_inner": 2}


def _check_minimums(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < MC_MINIMUMS[name]:
            raise ValueError(f"{name} must be >= {MC_MINIMUMS[name]}")


@dataclass(frozen=True)
class McConfig:
    """Sampling sizes of the black-box estimator.

    ``m`` orderings, ``n_var`` samples for the output variance, and the
    nested loop sizes. Construction fails if a size is below its entry in
    ``MC_MINIMUMS`` or ``m * n_outer * n_inner`` exceeds ``budget``.
    """

    m: int
    n_var: int = 10_000
    n_outer: int = 100
    n_inner: int = 2
    seed: int = 0
    budget: int = 100_000_000

    def __post_init__(self):
        _check_minimums(**{name: getattr(self, name) for name in MC_MINIMUMS})
        cost = self.m * self.n_outer * self.n_inner
        if cost > self.budget:
            raise BudgetExceededError(
                f"m * n_outer * n_inner = {cost} exceeds budget {self.budget}"
            )


def mc_shapley(model: BlackBoxModel, inp: GaussianInput, cfg: McConfig, *,
               var_y: float | None = None) -> PermutationEstimate:
    """Random-ordering Shapley estimate with nested-Monte-Carlo variances.

    The output variance is estimated once from ``cfg.n_var`` joint samples
    (or taken from ``var_y`` when the caller already has one) and anchors
    both ends of every telescoping chain, so the components sum to 1
    exactly. The output variance, the orderings and the normals each draw
    from their own child seed; every normal comes from one stream, in
    (ordering, step) order, as :func:`_nested` reads them. Each fill of
    ``permutations._ordering_shapley`` sweeps its orderings' factors once,
    in at most ``BATCH_BYTES``; each slice of it, at most ``BATCH_BYTES`` of
    normals, points and outer means in one buffer per fill, takes one draw
    and one model call.
    Raises ``NotFinite`` if the estimate is not finite.
    """
    p = model.p
    if inp.p != p:
        raise ValueError(f"input dimension {inp.p} does not match model p={p}")
    var_seed, order_seed, z_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    if var_y is None:
        var_y = output_variance(model, inp, cfg.n_var, var_seed)
    else:
        _check_variance(var_y, "the model")
    n_outer, n_inner = cfg.n_outer, cfg.n_inner
    rng = np.random.default_rng(z_seed)
    floats = _floats(p, range(1, p), n_inner)
    sub = max(1, conditional.BATCH_BYTES // (
        8 * (n_outer * floats + p * p)))        # and the ordering's factor

    def fill(orders: np.ndarray) -> np.ndarray:
        factors = conditional.ordered_factors(inp.factor, orders)
        with allocation():
            work = np.empty((min(sub, len(orders)), n_outer, floats))
        return np.concatenate([
            _nested(model, inp, factors[at:at + sub], rng, range(1, p),
                    n_outer, n_inner, work)
            for at in range(0, len(orders), sub)])

    shapley = _ordering_shapley(    # the sweep peaks at four times F's bytes
        p, cfg.m, 1, _uniform(p, np.random.default_rng(order_seed)), var_y,
        4 * 8 * p * p, fill)[0]
    if not np.isfinite(shapley).all():
        raise ModelValidationError(
            ValidationKind.NOT_FINITE,
            f"the Shapley estimate {shapley.tolist()} is not finite")
    return PermutationEstimate(shapley_hat=shapley)


def block_additive_shapley(blocks: Sequence[tuple[BlackBoxModel, GaussianInput]],
                           cfg: McConfig,
                           partition: BlockPartition | None = None) -> np.ndarray:
    """Shapley effects of a sum of independent per-group functions.

    Each term's variance is estimated, and each group's within-group
    estimate, scaled by its term's share of the summed variances, is
    written to its variables; this never samples the full joint space. A
    term whose variance estimate is exactly 0 (a constant) has share 0 and
    zero effects without being sampled further; if every term is constant,
    this raises ``ZeroOutputVariance``. ``partition`` maps groups to global
    variable indices, defaulting to consecutive runs in the given order.
    """
    k = len(blocks)
    if k == 0:
        raise ValueError("need at least one block")
    sizes = [bb.p for bb, _ in blocks]
    for bb, gi in blocks:
        if gi.p != bb.p:
            raise ValueError("block model and input dimensions disagree")
    p = sum(sizes)
    if partition is None:
        start = np.cumsum([0] + sizes)
        partition = BlockPartition.from_groups(
            [range(start[j] + 1, start[j + 1] + 1) for j in range(k)], p
        )
    else:
        if partition.p != p or [len(g) for g in partition.groups] != sizes:
            raise ValueError("partition does not match the block dimensions")

    children = np.random.SeedSequence(cfg.seed).spawn(2 * k)
    variances = np.empty(k)
    for j, (bb, gi) in enumerate(blocks):
        variances[j] = _sample_variance(bb, gi, cfg.n_var, children[j])
        if variances[j]:                # NaN too; a constant term's is 0
            _check_variance(variances[j], f"block {j}")
    total = _check_variance(variances.sum(), "every block")

    out = np.zeros(p)
    for j, ((bb, gi), group) in enumerate(zip(blocks, partition.groups)):
        share = variances[j] / total
        if share:
            sub_cfg = replace(cfg,
                              seed=int(children[k + j].generate_state(1)[0]))
            out[np.asarray(group) - 1] = share * mc_shapley(
                bb, gi, sub_cfg, var_y=float(variances[j])).shapley_hat
    return out
