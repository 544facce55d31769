"""Spans around the package's public functions, recorded from outside.

Each wrapper replaces a name where its caller looks it up (``cli.lg_indices``,
``indices.all_conditional_variances``, ``BlackBoxModel.__call__`` ...), so the
package itself is unchanged. Spans are kept in memory as
``[name, parent, start, end]`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import jsonschema

from shapley_lg import (blocks, cli, conditional, files, indices, montecarlo,
                        permutations)


#: (owner, attribute, span name) for every wrapped lookup site.
PATCH_POINTS = [
    (files, "read_model", "files.read"),
    (files, "read_distribution", "files.read"),
    (files, "read_expression_file", "files.read"),
    (files, "validate_model", "model.validate"),
    (files, "validate_covariance", "model.validate"),
    (blocks, "validate_model", "model.validate"),
    (jsonschema, "validate", "files.schema"),
    (files, "render_json", "files.render"),
    (files, "report_from_sensitivity", "files.build_doc"),
    (files, "report_from_grouped", "files.build_doc"),
    (files, "report_from_estimate", "files.build_doc"),
    (files, "write_report", "files.write"),
    (files, "build_function", "expressions.compile"),
    (files, "build_block_functions", "expressions.compile"),
    (cli, "lg_indices", "indices.lg_indices"),
    (blocks, "lg_indices", "indices.lg_indices"),
    (indices, "all_conditional_variances", "conditional.table"),
    (conditional, "conditional_variance", "conditional.scalar"),
    (permutations, "conditional_variance", "conditional.scalar"),
    (indices, "sobol_from_table", "indices.sobol"),
    (indices, "closed_sobol_from_table", "indices.closed_sobol"),
    (indices, "shapley_from_table", "indices.shapley"),
    (blocks, "detect_blocks", "blocks.detect"),
    (cli, "lg_groups_indices", "blocks.groups"),
    (cli, "random_permutation_shapley", "permutations.random_perm"),
    (permutations, "random_permutation_shapley",
     "permutations.random_perm"),
    (cli, "mc_shapley", "montecarlo.mc_shapley"),
    (montecarlo, "mc_shapley", "montecarlo.mc_shapley"),
    (cli, "block_additive_shapley", "montecarlo.block_additive"),
    (montecarlo, "double_mc_cond_var", "montecarlo.cond_var"),
    (montecarlo.BlackBoxModel, "__call__", "expressions.eval"),
]


#: Counters taken at span boundaries: span name -> (args, kwargs, result)
#: -> [(counter, amount)].
_COUNTERS = {
    "files.build_doc": lambda a, k, r: [
        ("files.report_rows", len(r["sobol"]) + len(r["closed_sobol"]))],
    "conditional.table": lambda a, k, r: [
        ("conditional.table_entries", r.values.size)],
    "conditional.scalar": lambda a, k, r: [("conditional.scalar_calls", 1)],
    "blocks.groups": lambda a, k, r: [("blocks.eval_count", r.eval_count)],
    "permutations.random_perm": lambda a, k, r: [
        ("permutations.orderings", a[1] if len(a) > 1 else k["m"])],
    "montecarlo.cond_var": lambda a, k, r: [("montecarlo.cond_var_calls", 1)],
    "expressions.eval": lambda a, k, r: [("expressions.points", len(a[1]))],
}

#: Per-layer metrics: (name, unit, kind, source). ``incl`` sums span
#: durations (no wrapped function calls another of the same span name),
#: ``self`` sums durations minus child spans, ``count`` reads a counter.
#: Every value is reported per call of the workload.
LAYER_METRICS = [
    ("cli.self_s", "s", "self", "cli.main"),
    ("files.read_s", "s", "self", "files.read"),
    ("model.validate_s", "s", "incl", "model.validate"),
    ("files.schema_s", "s", "incl", "files.schema"),
    ("files.render_s", "s", "incl", "files.render"),
    ("files.build_doc_s", "s", "incl", "files.build_doc"),
    ("files.write_s", "s", "self", "files.write"),
    ("files.report_rows", "count", "count", "files.report_rows"),
    ("conditional.table_s", "s", "incl", "conditional.table"),
    ("conditional.table_entries", "count", "count",
     "conditional.table_entries"),
    ("conditional.scalar_calls", "count", "count", "conditional.scalar_calls"),
    ("conditional.scalar_s", "s", "incl", "conditional.scalar"),
    ("indices.sobol_s", "s", "incl", "indices.sobol"),
    ("indices.closed_sobol_s", "s", "incl", "indices.closed_sobol"),
    ("indices.shapley_s", "s", "incl", "indices.shapley"),
    ("blocks.detect_s", "s", "incl", "blocks.detect"),
    ("blocks.groups_s", "s", "incl", "blocks.groups"),
    ("blocks.eval_count", "count", "count", "blocks.eval_count"),
    ("permutations.random_perm_s", "s", "incl", "permutations.random_perm"),
    ("permutations.orderings", "count", "count", "permutations.orderings"),
    ("montecarlo.mc_shapley_s", "s", "incl", "montecarlo.mc_shapley"),
    ("montecarlo.block_additive_s", "s", "incl", "montecarlo.block_additive"),
    ("montecarlo.cond_var_calls", "count", "count",
     "montecarlo.cond_var_calls"),
    ("montecarlo.cond_var_s", "s", "incl", "montecarlo.cond_var"),
    # Conditional factorisation and sampling: the nested-MC step minus the
    # model evaluations inside it.
    ("montecarlo.sample_factor_s", "s", "self", "montecarlo.cond_var"),
    ("expressions.compile_s", "s", "incl", "expressions.compile"),
    ("expressions.eval_s", "s", "incl", "expressions.eval"),
    ("expressions.points", "count", "count", "expressions.points"),
]


class Tracer:
    """Span recorder; ``install`` wraps the patch points, ``uninstall``
    restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if count is not None:
                for counter, amount in count(args, kwargs, result):
                    self.counts[counter] += amount
            return result

        return traced

    def _count_lookups(self, chain_update):
        """Wrap the subset lookup passed to ``_chain_update`` so that each
        cache read inside a random-ordering span is counted where it
        happens."""

        @functools.wraps(chain_update)
        def counted(acc, order, value):
            if not (self._stack and self.spans[self._stack[-1]][0]
                    == "permutations.random_perm"):
                return chain_update(acc, order, value)

            def looked_up(mask):
                self.counts["permutations.lookups"] += 1
                return value(mask)

            return chain_update(acc, order, looked_up)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in PATCH_POINTS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._patch(permutations, "_chain_update",
                    self._count_lookups(permutations._chain_update))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its children."""
        out = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self, calls: int) -> dict[str, tuple[float, str]]:
        """Every ``LAYER_METRICS`` entry, per call, plus the permutation
        cache hit ratio: 1 - (scalar conditional variances computed inside
        a random-ordering span) / (cache reads counted there)."""
        incl, self_t = Counter(), Counter()
        misses = 0
        for (name, parent, start, end), self_s in zip(self.spans,
                                                      self.self_times()):
            incl[name] += end - start
            self_t[name] += self_s
            if name == "conditional.scalar" and parent >= 0 \
                    and self.spans[parent][0] == "permutations.random_perm":
                misses += 1
        sources = {"incl": incl, "self": self_t, "count": self.counts}
        out = {metric: (sources[kind][src] / calls, unit)
               for metric, unit, kind, src in LAYER_METRICS}
        lookups = self.counts["permutations.lookups"]
        out["permutations.cache_hit_ratio"] = (
            (lookups - misses) / lookups if lookups else 0.0, "ratio")
        return out

    def dump(self, path: Path) -> None:
        """One JSON line per span: id, parent, name, start, end, self time."""
        with open(path, "w") as handle:
            for i, ((name, parent, start, end), self_s) in enumerate(
                    zip(self.spans, self.self_times())):
                handle.write(json.dumps(
                    {"id": i, "parent": parent, "name": name,
                     "start": start, "end": end, "self": self_s}) + "\n")
