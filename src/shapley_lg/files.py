"""Model, distribution, expression and report files.

Everything on disk is JSON. Floats are rendered by Python's shortest
round-trip representation, so reading a file back reproduces the exact
binary values that were written. Writers emit the layout of
``json.dumps(doc, indent=2)``, so repeated runs are byte-identical. Report
subset rows stay arrays (:class:`SubsetRows`), checked in numpy and
streamed to the file in chunks.
"""

from __future__ import annotations

import json
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from pathlib import Path

import jsonschema
import numpy as np

from .blocks import BlockPartition, GroupedReport
from .errors import FileFormatError
from .expressions import FUNCTIONS, compile_expression
from .indices import SensitivityReport
from .model import (LinearGaussianModel, _require_finite, validate_covariance,
                    validate_model)
from .montecarlo import BlackBoxModel, GaussianInput
from .permutations import CvSummary

MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "beta": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "gamma": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
            "minItems": 1,
        },
        "mu": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["beta", "gamma"],
    "additionalProperties": False,
}

DISTRIBUTION_SCHEMA = {
    "type": "object",
    "properties": {
        "gamma": MODEL_SCHEMA["properties"]["gamma"],
        "mu": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["gamma"],
    "additionalProperties": False,
}

EXPRESSION_SCHEMA = {
    "type": "object",
    "properties": {
        "f": {"type": "string"},
        "consts": {"type": "object", "additionalProperties": {"type": "number"}},
        "defs": {"type": "object", "additionalProperties": {"type": "string"}},
        "blocks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "inputs": {
                        "type": "array",
                        "items": {"type": "string"},
                        "minItems": 1,
                    },
                    "expr": {"type": "string"},
                },
                "required": ["inputs", "expr"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["f"],
    "additionalProperties": False,
}

_SUBSET_ROW_SCHEMA = {
    "type": "object",
    "properties": {
        "subset": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "mask": {"type": "integer", "minimum": 0},
        "value": {"type": "number"},
    },
    "required": ["subset", "mask", "value"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "var_y": {"type": "number"},
        "shapley": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "sobol": {"type": "array", "items": _SUBSET_ROW_SCHEMA},
        "closed_sobol": {"type": "array", "items": _SUBSET_ROW_SCHEMA},
        "metadata": {
            "type": "object",
            "properties": {
                "algorithm": {"type": "string"},
                "p": {"type": "integer", "minimum": 1},
                "eval_count": {"type": ["integer", "null"]},
                "partition": {
                    "type": ["array", "null"],
                    "items": {"type": "array", "items": {"type": "integer"}},
                },
                "seed": {"type": ["integer", "null"]},
                "config": {"type": ["object", "null"]},
            },
            "required": ["algorithm", "p", "eval_count", "partition", "seed",
                         "config"],
            "additionalProperties": False,
        },
        "cv_summary": {
            "type": "object",
            "properties": {
                "per_i_cv": {"type": "array",
                             "items": {"type": ["number", "null"]}},
                "mean_cv": {"type": ["number", "null"]},
                "m": {"type": "integer"},
                "reps": {"type": "integer"},
                "seed": {"type": "integer"},
                "excluded": {"type": "array", "items": {"type": "integer"}},
            },
            "required": ["per_i_cv", "mean_cv", "m", "reps", "seed", "excluded"],
            "additionalProperties": False,
        },
    },
    "required": ["var_y", "shapley", "sobol", "closed_sobol", "metadata"],
    "additionalProperties": False,
}


_MODEL_VALIDATOR = jsonschema.Draft202012Validator(MODEL_SCHEMA)
_DISTRIBUTION_VALIDATOR = jsonschema.Draft202012Validator(DISTRIBUTION_SCHEMA)
_EXPRESSION_VALIDATOR = jsonschema.Draft202012Validator(EXPRESSION_SCHEMA)
_REPORT_VALIDATOR = jsonschema.Draft202012Validator(REPORT_SCHEMA)

#: Report fields holding one row per subset; up to 2**p rows each.
_ROW_FAMILIES = ("sobol", "closed_sobol")
_ROW_KEYS = set(_SUBSET_ROW_SCHEMA["properties"])

#: Rows rendered and written at a time by :func:`write_report`.
CHUNK_ROWS = 1 << 14


@dataclass(frozen=True, eq=False)
class SubsetRows:
    """A report row family as arrays: ascending subset masks (an object
    array past 62 variables) and one float64 value per mask."""

    masks: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path} is not valid JSON: {err}") from err


def _check_schema(obj, validator, path, what: str) -> None:
    err = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if err is not None:
        raise FileFormatError(f"{path} is not a valid {what} file: "
                              f"{err.message}")


def _numbers_of(types, kinds) -> bool:
    return all(issubclass(t, kinds) and t is not bool for t in types)


def _array_error(rows: SubsetRows, p: int) -> str | None:
    """Why ``rows`` are not finite float64 values, one per mask, with masks
    increasing strictly within ``[0, 2**p)``; None if they are."""
    mask, value = rows.masks, rows.values
    if mask.shape != value.shape or value.dtype != np.float64:
        return "each mask needs one float64 value"
    if not np.isfinite(value).all():
        return "a row value is not finite"
    if mask.size and (mask[0] < 0 or mask[-1] >= 1 << p
                      or np.any(np.diff(mask) <= 0)):
        return f"row masks must increase strictly within [0, 2**{p})"
    return None


def _row_error(rows: list, p: int) -> str | None:
    """Why ``rows`` are not valid subset rows, or None.

    Besides what ``_SUBSET_ROW_SCHEMA`` requires and :func:`_array_error`
    checks, each subset must list the members of its mask in order.
    """
    if not rows:
        return None
    if not all(type(r) is dict and r.keys() == _ROW_KEYS for r in rows):
        return "each row needs exactly the keys 'subset', 'mask' and 'value'"
    masks = [r["mask"] for r in rows]
    subs = [r["subset"] for r in rows]
    values = [r["value"] for r in rows]
    if not (_numbers_of(set(map(type, masks)), int)
            and set(map(type, subs)) == {list}
            and _numbers_of(set(map(type, chain.from_iterable(subs))), int)
            and _numbers_of(set(map(type, values)), (int, float))):
        return "a row has a mask, subset or value of the wrong type"
    # Masks of more than 62 variables do not fit an int64.
    try:
        mask = np.array(masks, dtype=np.int64 if p < 63 else object)
        value = np.array(values, dtype=float)
    except OverflowError:
        return "a row holds a number out of range"
    why = _array_error(SubsetRows(mask, value), p)
    if why is None and subs != _subsets(masks, [], lambda i: [i]):
        why = "a row subset does not match its mask"
    return why


def _check_report(doc: dict, where) -> None:
    """Check the schema with the subset rows left out, then each family."""
    rows = {f: doc[f] for f in _ROW_FAMILIES
            if isinstance(doc.get(f), (list, SubsetRows))}
    _check_schema({**doc, **dict.fromkeys(rows, [])}, _REPORT_VALIDATOR,
                  where, "report")
    for family, family_rows in rows.items():
        why = (_array_error if isinstance(family_rows, SubsetRows)
               else _row_error)(family_rows, int(doc["metadata"]["p"]))
        if why is not None:
            raise FileFormatError(f"{where} is not a valid report file: "
                                  f"{family}: {why}")


def _subsets(masks: list, start, step) -> list:
    """:func:`_lattice` value of each subset in ``masks``, ascending."""
    if masks and masks[-1] == len(masks) - 1:    # 0 .. n - 1: one lattice
        return _lattice(range(1, masks[-1].bit_length() + 1), start,
                        step)[:len(masks)]
    return [reduce(add, (step(i + 1) for i in range(m.bit_length())
                         if m >> i & 1), start) for m in masks]


def _row_heads(masks: list) -> list[str]:
    """Text of each row up to its value; subset texts are lattice values."""
    texts = _subsets(masks, "", ",\n        {}".format)
    return [f'    {{\n      "subset": [{t[1:]}\n      ],\n      "mask": {m},'
            f'\n      "value": ' if m else
            '    {\n      "subset": [],\n      "mask": 0,\n      "value": '
            for t, m in zip(texts, masks)]


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def read_model(path) -> LinearGaussianModel:
    """Load and validate a model file."""
    obj = _load_json(path)
    _check_schema(obj, _MODEL_VALIDATOR, path, "model")
    return validate_model(obj["beta"], obj["gamma"], obj.get("mu"))


def write_model(model: LinearGaussianModel, path=None) -> None:
    """Write a model file; ``mu`` is included only when it is not zero."""
    obj = {
        "beta": [float(v) for v in model.beta],
        "gamma": [[float(v) for v in row] for row in model.gamma],
    }
    if np.any(model.mu):
        obj["mu"] = [float(v) for v in model.mu]
    with nullcontext(sys.stdout) if path is None else open(path, "w") as out:
        out.write(render_json(obj))


def read_distribution(path) -> GaussianInput:
    """Load a Gaussian input distribution (covariance plus optional mean)."""
    obj = _load_json(path)
    _check_schema(obj, _DISTRIBUTION_VALIDATOR, path, "distribution")
    gamma = validate_covariance(obj["gamma"])
    mu = obj.get("mu")
    if mu is None:
        mu = np.zeros(gamma.shape[0])
    mu = np.asarray(mu, dtype=float)
    if mu.size != gamma.shape[0]:
        raise FileFormatError(
            f"{path}: mu has length {mu.size} but gamma is "
            f"{gamma.shape[0]} x {gamma.shape[0]}"
        )
    _require_finite("mu", mu)
    return GaussianInput(mu=mu, gamma=gamma)


_INPUT_NAME_RE = re.compile(r"^x([1-9][0-9]*)$")


def input_names(p: int) -> list[str]:
    """Conventional input names ``x1 .. xp``."""
    return [f"x{i}" for i in range(1, p + 1)]


def read_expression_file(path) -> dict:
    """Load and schema-check an expression file; compilation happens later."""
    obj = _load_json(path)
    _check_schema(obj, _EXPRESSION_VALIDATOR, path, "expression")
    reserved = set(FUNCTIONS)
    declared = list(obj.get("consts", {})) + list(obj.get("defs", {}))
    for name in declared:
        if name in reserved or _INPUT_NAME_RE.match(name):
            raise FileFormatError(
                f"{path}: name {name!r} collides with a function or input name"
            )
    if len(set(declared)) != len(declared):
        raise FileFormatError(f"{path}: a name is declared twice")
    return obj


def _compile_with_defs(expr_obj: dict, text: str, names,
                       strict: bool) -> BlackBoxModel:
    """Black-box model of ``text`` over the inputs ``names``, with the
    file's constants and resolvable definitions in scope.

    Definitions are evaluated in file order; in non-strict mode ones that
    reference unavailable names (e.g. inputs outside a block) are dropped
    from scope instead of failing. Evaluation ignores floating-point
    warnings: a non-finite output is reported by the caller's checks.
    """
    consts = {k: float(v) for k, v in expr_obj.get("consts", {}).items()}
    names = tuple(names)
    available = set(names) | set(consts)
    resolved = []
    for name, body in expr_obj.get("defs", {}).items():
        try:
            fn = compile_expression(body, available)
        except FileFormatError:
            if strict:
                raise
            continue
        resolved.append((name, fn))
        available.add(name)
    main = compile_expression(text, available)

    def eval_batch(x: np.ndarray):
        scope = dict(consts)
        scope.update(zip(names, x.T))
        with np.errstate(all="ignore"):
            for name, fn in resolved:
                scope[name] = fn(scope)
            value = main(scope)
        # constant subexpressions may collapse to a scalar
        return np.broadcast_to(np.asarray(value, dtype=float), (x.shape[0],))

    return BlackBoxModel(eval=eval_batch, p=len(names))


def build_function(expr_obj: dict, p: int) -> BlackBoxModel:
    """Black-box model of the full expression over inputs ``x1 .. xp``."""
    return _compile_with_defs(expr_obj, expr_obj["f"], input_names(p),
                              strict=True)


def build_block_functions(expr_obj: dict,
                          p: int) -> tuple[list[BlackBoxModel], BlockPartition]:
    """Per-group black-box models and the partition they induce.

    Each block lists its inputs (ascending ``x<i>`` names) and an expression
    over them; the input lists must partition ``x1 .. xp``.
    """
    if "blocks" not in expr_obj:
        raise FileFormatError("expression file declares no blocks")
    entries = []
    for blk in expr_obj["blocks"]:
        indices = []
        for name in blk["inputs"]:
            match = _INPUT_NAME_RE.match(name)
            if match is None or int(match.group(1)) > p:
                raise FileFormatError(
                    f"block input {name!r} is not one of x1 .. x{p}"
                )
            indices.append(int(match.group(1)))
        if indices != sorted(indices):
            raise FileFormatError(
                f"block inputs {blk['inputs']} must be listed in ascending order"
            )
        entries.append((tuple(indices), blk))
    try:
        partition = BlockPartition.from_groups([g for g, _ in entries], p)
    except ValueError as err:
        raise FileFormatError(f"block inputs do not partition x1 .. x{p}: "
                              f"{err}") from err

    # Models must line up with partition.groups, which sorts by first member.
    entries.sort(key=lambda item: item[0][0])
    models = [_compile_with_defs(expr_obj, blk["expr"], blk["inputs"],
                                 strict=False) for _, blk in entries]
    return models, partition


def _lattice(members, start, step) -> list:
    """Entry ``j`` is ``start`` plus ``step(i)``, in ascending order, for
    each of the ascending variables ``members`` that the bits of ``j`` pick."""
    out = [start]
    for i in members:
        step_i = step(i)
        out += [v + step_i for v in out]
    return out


def _metadata(algorithm: str, p: int, *, eval_count=None, partition=None,
              seed=None, config=None) -> dict:
    if partition is not None:
        partition = [[int(i) for i in g] for g in partition.groups]
    return {
        "algorithm": algorithm,
        "p": int(p),
        "eval_count": None if eval_count is None else int(eval_count),
        "partition": partition,
        "seed": None if seed is None else int(seed),
        "config": config,
    }


def report_from_sensitivity(rep: SensitivityReport, algorithm: str) -> dict:
    """Report document for a full-lattice computation.

    Both row families hold every mask ``0 .. 2**p - 1``, sharing one array.
    """
    masks = np.arange(1 << rep.p, dtype=np.int64)
    return {
        "var_y": float(rep.var_y),
        "shapley": [float(v) for v in rep.shapley],
        "sobol": SubsetRows(masks, rep.sobol),
        "closed_sobol": SubsetRows(masks, rep.closed_sobol),
        "metadata": _metadata(algorithm, rep.p, eval_count=rep.eval_count),
    }


def report_from_grouped(grep: GroupedReport, algorithm: str) -> dict:
    """Report document for the per-group computation.

    Index rows cover the subsets contained in a single group; any other
    subset's Sobol index is zero by construction and not materialised.
    """
    masks, sobol, closed = [0], [np.zeros(1)], [np.zeros(1)]
    for j, group in enumerate(grep.partition.groups):
        weight = float(grep.group_weights[j])
        masks += _lattice(group, 0, lambda i: 1 << (i - 1))[1:]
        sobol.append(grep.scaled_sobol[j][1:])
        closed.append(weight * grep.group_reports[j].closed_sobol[1:])
    masks = np.array(masks, dtype=np.int64 if grep.p < 63 else object)
    order = np.argsort(masks)
    masks = masks[order]
    return {
        "var_y": float(grep.var_y),
        "shapley": [float(v) for v in grep.shapley],
        "sobol": SubsetRows(masks, np.concatenate(sobol)[order]),
        "closed_sobol": SubsetRows(masks, np.concatenate(closed)[order]),
        "metadata": _metadata(algorithm, grep.p, eval_count=grep.eval_count,
                              partition=grep.partition),
    }


def report_from_estimate(shapley, var_y: float, algorithm: str, *, seed=None,
                         config=None, cv: CvSummary | None = None) -> dict:
    """Report document for an estimator; index rows are left empty."""
    doc = {
        "var_y": float(var_y),
        "shapley": [float(v) for v in shapley],
        "sobol": [],
        "closed_sobol": [],
        "metadata": _metadata(algorithm, len(shapley), seed=seed, config=config),
    }
    if cv is not None:
        doc["cv_summary"] = {
            "per_i_cv": [None if math.isnan(v) else float(v)
                         for v in cv.per_i_cv],
            "mean_cv": None if math.isnan(cv.mean_cv) else float(cv.mean_cv),
            "m": int(cv.m),
            "reps": int(cv.reps),
            "seed": int(cv.seed),
            "excluded": [int(i) for i in cv.excluded],
        }
    return doc


def write_report(doc: dict, path=None) -> None:
    """Check and write a report document (stdout when no path).

    The text is ``json.dumps(doc, indent=2) + "\\n"`` with each
    :class:`SubsetRows` family spelled out as row dicts. Every check runs
    before the file is opened; the rows are then streamed in chunks.
    """
    where = path or "<stdout>"
    _check_report(doc, where)
    arrays = {k: v for k, v in doc.items() if isinstance(v, SubsetRows)}
    try:
        text = render_json({**doc, **dict.fromkeys(arrays, [])})
    except ValueError as err:                      # NaN or infinity
        raise FileFormatError(f"{where} is not a valid report file: "
                              f"{err}") from err
    heads = {id(rows.masks): rows.masks for rows in arrays.values()}
    heads = {key: _row_heads(masks.tolist()) for key, masks in heads.items()}
    with nullcontext(sys.stdout) if path is None else open(path, "w") as out:
        for family, rows in arrays.items():
            # At depth one, the key starts a line after two spaces.
            head, text = text.split(f'\n  "{family}": []', 1)
            out.write(f'{head}\n  "{family}": ')
            sep, family_heads = "[\n", heads[id(rows.masks)]
            for start in range(0, len(rows), CHUNK_ROWS):
                stop = start + CHUNK_ROWS
                out.write(sep + "\n    },\n".join(map(
                    add, family_heads[start:stop],
                    map(float.__repr__, rows.values[start:stop].tolist()))))
                sep = "\n    },\n"
            out.write("\n    }\n  ]" if len(rows) else "[]")
        out.write(text)


def read_report(path) -> dict:
    """Load a report file and check it, rows included."""
    obj = _load_json(path)
    _check_report(obj, path)
    return obj
