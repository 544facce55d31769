"""Model, distribution, expression and report files.

Everything on disk is JSON. Floats are written in Python's shortest
round-trip form, so a file read back gives the exact values written.
Writers emit the layout of ``json.dumps(doc, indent=2)``, so repeated runs
are byte-identical. Exact reports' subset rows are arrays
(:class:`SubsetRows`), never empty: both exact routes write the ascending
masks of one :class:`~shapley_lg.indices.SensitivityReport`, dense or
grouped. Estimate reports write plain empty lists. Rows are
streamed in chunks; both families of an exact report read one masks array,
so a chunk's row heads (each row's text up to its value) are built once and
serve both families when the report fits in one chunk. Each family adds
only the ``repr`` of its values, and its rows are joined in short slices.
The keys
and value types of each input file (model, distribution, expression) are
checked by plain code here; it accepts what the JSON Schemas in the tests
accept (``true`` is not a number). Numeric arrays are type-checked in one
pass in C and walked item by item only to name an offender. Reports are
laid out by their two builders, so the writer checks only that their
numbers are finite; no report is read back.
"""

from __future__ import annotations

import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import subsets
from .blocks import BlockPartition
from .errors import FileFormatError
from .expressions import FUNCTIONS, compile_expression
from .indices import SensitivityReport
# validate_covariance is not called here; perfbench/tracing.py wraps it by
# this name.
from .model import (LinearGaussianModel, _as_array, validate_covariance,
                    validate_model)
from .montecarlo import BlackBoxModel, GaussianInput
from .permutations import CvSummary

#: Rows rendered and written at a time by :func:`write_report`.
CHUNK_ROWS = 1 << 14
#: Rows joined into one string at a time within a chunk: about 170 kB of
#: text at p = 14. From 512 to 4,096 rows the writer runs equally fast;
#: at 1,024 and below the chunk's heads, not a slice, set its peak memory.
SLICE_ROWS = 1 << 10


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
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise FileFormatError(f"{path} is not UTF-8 text: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise FileFormatError(f"{path} is not valid JSON: it nests too "
                              "deeply") from err


# Each check below takes a JSON value and its path in the document
# (``gamma[1][0]``, ``consts.c``) and raises FileFormatError naming it.

def _kind(what: str, test):
    def check(value, where):
        if not test(value):
            raise FileFormatError(f"{where} is not {what}")
    return check


def _array(item, min_items=0, passes=None):
    """An array of at least ``min_items`` items that each pass ``item``.
    When ``passes(value)`` holds, every item would, and none is walked."""
    def check(value, where):
        if not isinstance(value, list):
            raise FileFormatError(f"{where} is not an array")
        if len(value) < min_items:
            raise FileFormatError(f"{where} is empty")
        if passes is not None and passes(value):
            return
        for i, v in enumerate(value):
            item(v, f"{where}[{i}]")
    return check


def _object(required: dict, optional: dict = {}, other=None):
    """An object holding each key of ``required``, any of ``optional``, and
    other keys only when ``other`` checks their values."""
    def check(value, where):
        if not isinstance(value, dict):
            raise FileFormatError(f"{where or 'the document'} is not an object")
        for key in {**required, **value}:       # the required keys first
            at = f"{where}.{key}" if where else key
            if key not in value:
                raise FileFormatError(f"missing key {at!r}")
            item = required.get(key) or optional.get(key, other)
            if item is None:
                raise FileFormatError(f"unknown key {at!r}")
            item(value[key], at)
    return check


def _all_numbers(values) -> bool:
    """Whether every value is an int or a float (not a bool), tested in C."""
    return {int, float}.issuperset(map(type, values))


_number = _kind("a number", lambda v: _all_numbers((v,)))
_string = _kind("a string", lambda v: isinstance(v, str))
_numbers = _array(_number, passes=_all_numbers)
_gamma = _array(_numbers, 1, lambda rows: {list}.issuperset(map(type, rows))
                and _all_numbers(chain.from_iterable(rows)))

_MODEL = _object({"beta": _array(_number, 1, _all_numbers), "gamma": _gamma},
                 {"mu": _numbers})
_DISTRIBUTION = _object({"gamma": _gamma}, {"mu": _numbers})
_EXPRESSION = _object({"f": _string}, {
    "consts": _object({}, other=_number),
    "defs": _object({}, other=_string),
    "blocks": _array(_object({"inputs": _array(_string, 1),
                              "expr": _string}), 1),
})


def _check(obj, check, path, what: str) -> None:
    try:
        check(obj, "")
    except FileFormatError as err:
        raise FileFormatError(f"{path} is not a valid {what} file: "
                              f"{err}") from None


#: Text of one subset member in a report row: a comma, then its own line.
_member = ",\n        {}".format


def _text(m: int) -> str:
    return "".join(map(_member, subsets.decode(m, m.bit_length())))


def _lattice(b: int) -> list[str]:
    """:func:`_text` of each mask below ``2**b``."""
    out = [""]
    for i in range(1, b + 1):
        step = _member(i)
        out += [t + step for t in out]
    return out


def _subsets(masks: list, lattice) -> list[str]:
    """:func:`_text` of each of the ascending ``masks`` (at least one).

    A run ``m0 .. m0 + n - 1`` with ``m0`` a multiple of ``2**b >= n`` takes
    the texts ``lattice(b)`` of its low bits, each followed by ``m0``'s text.
    Any other mask ``m`` extends the text of ``m & (m - 1)`` if that came
    earlier by its lowest member's text, read from a table of the members;
    the rest are spelled out from their bits.
    """
    b = (len(masks) - 1).bit_length()
    run = masks[-1] - masks[0] == len(masks) - 1
    if run and masks[0] % (1 << b) == 0:
        high = _text(masks[0])
        return [t + high for t in lattice(b)[:len(masks)]]
    member = list(map(_member, range(masks[-1].bit_length() + 1)))
    texts = {0: ""}
    for m in filter(None, masks):
        rest = m & (m - 1)
        texts[m] = (member[(m ^ rest).bit_length()] + texts[rest]
                    if rest in texts else _text(m))
    return [texts[m] for m in masks]


def _heads(masks: list, lattice) -> list[str]:
    """Text of each of the ascending ``masks``' rows up to its value."""
    return [f'    {{\n      "subset": [{t[1:]}\n      ],\n      "mask": {m},'
            '\n      "value": ' if m else
            '    {\n      "subset": [],\n      "mask": 0,\n      "value": '
            for t, m in zip(_subsets(masks, lattice), masks)]


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@contextmanager
def open_output(path):
    """``path`` opened for writing, or stdout, left open, when it is None.

    An error in writing or closing the file names ``path``, as one in
    opening it does: a failed ``write`` or ``close`` names no file.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as out:
            yield out
    except OSError as err:
        if err.filename is None:
            err.filename = path
        raise


def read_model(path) -> LinearGaussianModel:
    """Load and validate a model file."""
    obj = _load_json(path)
    _check(obj, _MODEL, path, "model")
    return validate_model(obj["beta"], obj["gamma"], obj.get("mu"))


def write_model(model: LinearGaussianModel, path=None) -> None:
    """Write a model file of ``beta`` and ``gamma``."""
    obj = {
        "beta": [float(v) for v in model.beta],
        "gamma": [[float(v) for v in row] for row in model.gamma],
    }
    with open_output(path) as out:
        out.write(render_json(obj))


def read_distribution(path) -> GaussianInput:
    """Load a Gaussian input distribution (covariance plus optional mean,
    zero by default), checked by :class:`GaussianInput` itself."""
    obj = _load_json(path)
    _check(obj, _DISTRIBUTION, path, "distribution")
    return GaussianInput(mu=obj.get("mu", np.zeros(len(obj["gamma"]))),
                         gamma=obj["gamma"])


_INPUT_NAME_RE = re.compile(r"^x([1-9][0-9]*)$")


def input_names(p: int) -> list[str]:
    """Conventional input names ``x1 .. xp``."""
    return [f"x{i}" for i in range(1, p + 1)]


def read_expression_file(path) -> dict:
    """Load and schema-check an expression file; compilation happens later."""
    obj = _load_json(path)
    _check(obj, _EXPRESSION, path, "expression")
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
    consts = expr_obj.get("consts", {})
    # float64, so constant arithmetic gives inf or NaN like the inputs'
    consts = dict(zip(consts, _as_array("consts", list(consts.values()))))
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


def report_from_sensitivity(rep: SensitivityReport) -> dict:
    """Report document for an exact computation, dense or grouped.

    Both row families name the report's ascending ``masks``, sharing one
    array; a grouped report also records its partition, and its algorithm
    is ``lg-groups-indices`` where a dense one's is ``lg-indices``.
    """
    algorithm = "lg-indices" if rep.partition is None else "lg-groups-indices"
    return {
        "var_y": float(rep.var_y),
        "shapley": [float(v) for v in rep.shapley],
        "sobol": SubsetRows(rep.masks, rep.sobol),
        "closed_sobol": SubsetRows(rep.masks, rep.closed_sobol),
        "metadata": _metadata(algorithm, rep.p, eval_count=rep.eval_count,
                              partition=rep.partition),
    }


# Not called here; perfbench/tracing.py wraps this name.
report_from_grouped = report_from_sensitivity


def report_from_estimate(shapley, var_y: float, algorithm: str, *, seed=None,
                         config=None, cv: CvSummary | None = None) -> dict:
    """Report document for an estimator; index rows are plain empty lists."""
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
    """Write a report document (stdout when no path).

    The text is ``json.dumps(doc, indent=2) + "\\n"`` with each
    :class:`SubsetRows` family spelled out as row dicts. The builders above
    fix the document's layout, so the only check is that every number is
    finite; it runs before the file is opened, and the rows are then
    streamed in chunks of :data:`CHUNK_ROWS`. The row heads of the last
    chunk are kept, and a family that reads the same masks array at the
    same offset reuses them, so no more than one chunk's heads stay alive.
    Each row is its head, the ``repr`` of its value and the text that ends
    it, and :data:`SLICE_ROWS` rows at a time are joined and written.
    """
    where = path or "<stdout>"
    arrays = {k: v for k, v in doc.items() if isinstance(v, SubsetRows)}
    for family, rows in arrays.items():
        if not np.isfinite(rows.values).all():
            raise FileFormatError(f"{where} is not a valid report file: "
                                  f"{family}: a row value is not finite")
    try:
        text = render_json({**doc, **dict.fromkeys(arrays, [])})
    except ValueError as err:                      # NaN or infinity
        raise FileFormatError(f"{where} is not a valid report file: "
                              f"{err}") from err
    lattice = cache(_lattice)       # each size at most once per report
    chunk = None, None, None        # the last chunk's masks, offset, heads
    with open_output(path) as out:
        for family, rows in arrays.items():
            # At depth one, the key starts a line after two spaces.
            head, text = text.split(f'\n  "{family}": []', 1)
            out.write(f'{head}\n  "{family}": [\n')
            for start in range(0, len(rows), CHUNK_ROWS):
                if chunk[0] is not rows.masks or chunk[1] != start:
                    chunk = None        # free the last heads first
                    chunk = rows.masks, start, _heads(
                        rows.masks[start:start + CHUNK_ROWS].tolist(), lattice)
                for i in range(0, len(chunk[2]), SLICE_ROWS):
                    heads = chunk[2][i:i + SLICE_ROWS]
                    end = start + i + len(heads)
                    # head, value, end of row; the family's last row closes it
                    parts = ["\n    },\n"] * (3 * len(heads))
                    parts[0::3] = heads
                    parts[1::3] = map(repr,
                                      rows.values[start + i:end].tolist())
                    if end == len(rows):
                        parts[-1] = "\n    }\n  ]"
                    out.write("".join(parts))
        out.write(text)
