import contextlib
import io
import json
import os
import sys
import tracemalloc
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from shapley_lg import (DimensionCapError, FileFormatError,
                        ModelValidationError, ValidationKind,
                        generate_block_instance, generate_random_instance,
                        lg_groups_indices, lg_indices, validate_model)
from shapley_lg import files, subsets
from shapley_lg.permutations import CvSummary

# The JSON Schemas (Draft 2020-12) of the four kinds of file. Those of the
# three input kinds are the oracle that the plain checks in ``files`` must
# agree with; the report's is the oracle for what the two report builders
# write, which the writer does not check.
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


def test_model_roundtrip(tmp_path):
    model = generate_random_instance(4, seed=3)
    path = tmp_path / "model.json"
    files.write_model(model, path)
    back = files.read_model(path)
    assert np.array_equal(back.beta, model.beta)
    assert np.array_equal(back.gamma, model.gamma)


def test_model_write_is_deterministic(tmp_path):
    model = generate_random_instance(3, seed=9)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    files.write_model(model, a)
    files.write_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_model_mu_roundtrip(tmp_path):
    # A model file's mu is checked on reading, then dropped.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**_MODEL, "mu": [0.5, -0.5]}))
    files.write_model(files.read_model(path), path)
    assert json.loads(path.read_text()) == _MODEL
    path.write_text(json.dumps({**_MODEL, "mu": [0.5]}))
    with pytest.raises(ModelValidationError) as exc:
        files.read_model(path)
    assert exc.value.kind is ValidationKind.DIMENSION_MISMATCH


def test_float_rendering_roundtrips_exactly():
    values = [0.1 + 0.2, 1.0 / 3.0, 1e-300, -2.5e17]
    text = files.render_json(values)
    assert json.loads(text) == values


def test_read_model_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"gamma": [[1.0]]}')
    with pytest.raises(FileFormatError):
        files.read_model(bad)
    bad.write_text("not json")
    with pytest.raises(FileFormatError):
        files.read_model(bad)
    with pytest.raises(FileFormatError):
        files.read_model(tmp_path / "missing.json")


def test_read_model_validation_errors(tmp_path):
    bad = tmp_path / "indefinite.json"
    bad.write_text('{"beta": [1.0, 0.0], "gamma": [[1.0, 2.0], [2.0, 1.0]]}')
    with pytest.raises(ModelValidationError):
        files.read_model(bad)


def _row_dicts(doc):
    """``doc`` with each array row family spelled out as row dicts; an
    estimate's plain lists pass through unchanged."""
    out, p = dict(doc), doc["metadata"]["p"]
    for family in ("sobol", "closed_sobol"):
        rows = doc[family]
        if isinstance(rows, list):
            continue
        out[family] = [{"subset": list(subsets.decode(m, p)), "mask": m,
                        "value": v}
                       for m, v in zip(rows.masks.tolist(),
                                       rows.values.tolist())]
    return out


def _read_back(path, doc):
    """The report at ``path``, which must pass the schema and spell out
    ``doc``."""
    back = json.loads(path.read_text())
    jsonschema.validate(back, REPORT_SCHEMA)
    assert back == _row_dicts(doc)
    return back


def test_report_rows_are_consistent(tmp_path):
    model = generate_random_instance(3, seed=4)
    doc = files.report_from_sensitivity(lg_indices(model))
    path = tmp_path / "report.json"
    files.write_report(doc, path)
    back = _read_back(path, doc)
    p = back["metadata"]["p"]
    assert back["metadata"]["eval_count"] == 1 << p
    for row in back["sobol"] + back["closed_sobol"]:
        assert row["mask"] == subsets.encode(row["subset"], p)


def test_grouped_report_skips_straddling_subsets(tmp_path):
    model = generate_block_instance(2, 2, seed=6)
    grouped = lg_groups_indices(model)
    doc = files.report_from_sensitivity(grouped)
    files.write_report(doc, tmp_path / "grouped.json")
    masks = set(doc["sobol"].masks.tolist())
    group_masks = grouped.partition.masks()
    for mask in masks:
        assert mask == 0 or any(mask & ~g == 0 for g in group_masks)
    # within-group subsets are all present: 1 + sum(2**n - 1)
    assert len(masks) == 1 + sum((1 << len(g)) - 1
                                 for g in grouped.partition.groups)
    assert doc["metadata"]["partition"] == [[1, 2], [3, 4]]
    assert doc["metadata"]["eval_count"] == 8


def test_grouped_report_closed_sobol_matches_full_route():
    model = generate_block_instance(2, 3, seed=13)
    grouped = lg_groups_indices(model)
    full = lg_indices(model)
    doc = files.report_from_sensitivity(grouped)
    for family in ("sobol", "closed_sobol"):
        rows = doc[family]
        np.testing.assert_allclose(rows.values,
                                   getattr(full, family)[rows.masks],
                                   rtol=0, atol=1e-10)


def test_estimate_report_with_cv_nan_round_trip(tmp_path):
    summary = CvSummary(
        per_i_cv=np.array([12.5, np.nan]), mean_cv=12.5, m=10, reps=20,
        seed=3, excluded=(2,),
    )
    doc = files.report_from_estimate([0.7, 0.3], 2.0, "random-permutations",
                                     seed=3, config={"m": 10}, cv=summary)
    path = tmp_path / "estimate.json"
    files.write_report(doc, path)
    back = _read_back(path, doc)
    assert back["cv_summary"]["per_i_cv"] == [12.5, None]
    assert back["cv_summary"]["excluded"] == [2]
    assert back["sobol"] == []


def test_schemas_are_valid():
    for schema in (MODEL_SCHEMA, DISTRIBUTION_SCHEMA, EXPRESSION_SCHEMA,
                   REPORT_SCHEMA):
        jsonschema.Draft202012Validator.check_schema(schema)


def _docs():
    model = generate_block_instance(2, 2, seed=6)
    return [
        files.report_from_sensitivity(lg_indices(model)),
        files.report_from_sensitivity(lg_groups_indices(model)),
        files.report_from_estimate([0.5, 0.25, 0.25, 0.0], 2.0,
                                   "random-permutations", seed=1),
    ]


def test_every_writer_passes_the_full_schema(tmp_path):
    for i, doc in enumerate(_docs()):
        files.write_report(doc, tmp_path / f"r{i}.json")
        _read_back(tmp_path / f"r{i}.json", doc)


_GAMMA = [[1.0, 0.0], [0.0, 1.0]]
_MODEL = {"beta": [1.0, 2.0], "gamma": _GAMMA}
_BLOCK = {"inputs": ["x1"], "expr": "x1"}
_BIG = 10 ** 400      # an integer literal no float can hold


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# (id, kind, document, None if valid else a text the error must name).
_CORPUS = [
    ("model", "model", _MODEL, None),
    ("model-mu", "model", {**_MODEL, "mu": [0.5, -1]}, None),
    ("model-integers", "model", {"beta": [1, 2], "gamma": [[1, 0], [0, 1]]},
     None),
    ("model-huge-integer", "model", {**_MODEL, "beta": [_BIG, 1.0]}, None),
    ("model-nan", "model", {**_MODEL, "beta": [float("nan"), 1.0]}, None),
    ("model-empty-gamma-row", "model", {**_MODEL, "gamma": [[], []]}, None),
    ("model-no-beta", "model", _without(_MODEL, "beta"), "'beta'"),
    ("model-no-gamma", "model", _without(_MODEL, "gamma"), "'gamma'"),
    ("model-extra-key", "model", {**_MODEL, "note": "x"}, "'note'"),
    ("model-empty-beta", "model", {**_MODEL, "beta": []}, "beta"),
    ("model-empty-gamma", "model", {**_MODEL, "gamma": []}, "gamma"),
    ("model-beta-not-array", "model", {**_MODEL, "beta": 1.0}, "beta"),
    ("model-true", "model", {**_MODEL, "beta": [True, 1.0]}, "beta[0]"),
    ("model-false", "model", {**_MODEL, "beta": [1.0, False]}, "beta[1]"),
    ("model-string", "model", {**_MODEL, "beta": ["1", 1.0]}, "beta[0]"),
    ("model-null", "model", {**_MODEL, "beta": [1.0, None]}, "beta[1]"),
    ("model-gamma-rows-not-arrays", "model", {**_MODEL, "gamma": [1.0, 0.0]},
     "gamma[0]"),
    ("model-gamma-string", "model",
     {**_MODEL, "gamma": [[1.0, 0.0], [0.0, "1"]]}, "gamma[1][1]"),
    ("model-mu-null", "model", {**_MODEL, "mu": None}, "mu"),
    # Offenders past the first item: the one-pass type test fails and the
    # walk names them.
    ("model-gamma-late-true", "model",
     {"beta": [1.0, 2.0, 3.0], "gamma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                         [0.0, True, 1.0]]}, "gamma[2][1]"),
    ("model-gamma-late-row-not-array", "model",
     {**_MODEL, "gamma": [[1.0, 0.0], 0.0]}, "gamma[1] is not an array"),
    ("model-mu-late-true", "model", {**_MODEL, "mu": [0.0, True]},
     "mu[1] is not a number"),
    ("model-mixed-int-float-rows", "model",
     {"beta": [1, 2.5], "gamma": [[1, 0.5], [0.5, 2]], "mu": [0, 1.5]},
     None),
    ("model-list", "model", [1.0, 2.0], "not an object"),
    ("model-string-document", "model", "beta", "not an object"),
    ("model-null-document", "model", None, "not an object"),
    ("dist", "distribution", {"gamma": _GAMMA}, None),
    ("dist-mu", "distribution", {"gamma": _GAMMA, "mu": [1.0, _BIG]}, None),
    ("dist-no-gamma", "distribution", {"mu": [0.0]}, "'gamma'"),
    ("dist-beta", "distribution", _MODEL, "'beta'"),
    ("dist-mu-true", "distribution", {"gamma": _GAMMA, "mu": [True, 0.0]},
     "mu[0]"),
    ("dist-empty-gamma", "distribution", {"gamma": []}, "gamma"),
    ("dist-gamma-late-null", "distribution",
     {"gamma": [[1.0, 0.0], [None, 1.0]]}, "gamma[1][0] is not a number"),
    ("dist-list", "distribution", [_GAMMA], "not an object"),
    ("expr", "expression", {"f": "x1"}, None),
    ("expr-all", "expression", {"f": "c*z", "consts": {"c": 2, "d": _BIG},
                                "defs": {"z": "x1"}, "blocks": [_BLOCK]},
     None),
    ("expr-empty-maps", "expression", {"f": "x1", "consts": {}, "defs": {}},
     None),
    ("expr-no-f", "expression", {"consts": {}}, "'f'"),
    ("expr-f-number", "expression", {"f": 1.0}, "f"),
    ("expr-extra-key", "expression", {"f": "x1", "g": "x2"}, "'g'"),
    ("expr-consts-string", "expression", {"f": "x1", "consts": {"c": "1"}},
     "consts.c"),
    ("expr-consts-true", "expression", {"f": "x1", "consts": {"c": True}},
     "consts.c"),
    ("expr-consts-list", "expression", {"f": "x1", "consts": [1.0]},
     "consts"),
    ("expr-defs-number", "expression", {"f": "x1", "defs": {"z": 1.0}},
     "defs.z"),
    ("expr-no-blocks", "expression", {"f": "x1", "blocks": []}, "blocks"),
    ("expr-block-extra-key", "expression",
     {"f": "x1", "blocks": [{**_BLOCK, "weight": 1.0}]}, "blocks[0].weight"),
    ("expr-block-no-expr", "expression",
     {"f": "x1", "blocks": [{"inputs": ["x1"]}]}, "blocks[0].expr"),
    ("expr-block-no-inputs", "expression",
     {"f": "x1", "blocks": [{**_BLOCK, "inputs": []}]}, "blocks[0].inputs"),
    ("expr-block-input-number", "expression",
     {"f": "x1", "blocks": [{**_BLOCK, "inputs": [1]}]},
     "blocks[0].inputs[0]"),
    ("expr-block-not-object", "expression", {"f": "x1", "blocks": ["x1"]},
     "blocks[0]"),
    ("expr-list", "expression", ["x1"], "not an object"),
]


_KINDS = {
    "model": (MODEL_SCHEMA, files.read_model),
    "distribution": (DISTRIBUTION_SCHEMA, files.read_distribution),
    "expression": (EXPRESSION_SCHEMA, files.read_expression_file),
}


@pytest.mark.parametrize("kind, doc, names", [case[1:] for case in _CORPUS],
                         ids=[case[0] for case in _CORPUS])
def test_checks_accept_what_the_schema_accepts(kind, doc, names, tmp_path):
    """The plain checks and the schema agree on each input document; a
    rejected one ends in the file-kind prefix and names the offending
    key."""
    schema, read = _KINDS[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert jsonschema.Draft202012Validator(schema).is_valid(
        json.loads(path.read_text())) == (names is None)
    # Reading goes on past the layout, so a later check may refuse a
    # document the layout check accepts.
    try:
        read(path)
        message = ""
    except (FileFormatError, ModelValidationError) as err:
        message = str(err)
    layout_error = message.startswith(f"{path} is not a valid {kind} file: ")
    assert layout_error == (names is not None)
    assert names is None or names in message


def test_rows_beyond_int64_masks_round_trip(tmp_path):
    # 33 groups of 2: masks reach 2**65, past what an int64 holds.
    grouped = lg_groups_indices(generate_block_instance(33, 2, seed=2))
    doc = files.report_from_sensitivity(grouped)
    assert doc["sobol"].masks[-1] >= 1 << 64
    files.write_report(doc, tmp_path / "wide.json")
    _read_back(tmp_path / "wide.json", doc)


@pytest.mark.parametrize("index", [0, 1], ids=["dense", "grouped"])
def test_write_rejects_bad_arrays(index, tmp_path):
    doc = _docs()[index]
    for family in ("sobol", "closed_sobol"):
        rows = doc[family]
        nan, inf = rows.values.copy(), rows.values.copy()
        nan[1], inf[-1] = float("nan"), float("-inf")
        for bad in (nan, inf):
            path = tmp_path / "bad.json"
            with pytest.raises(FileFormatError,
                               match=f"{family}: a row value is not finite"):
                files.write_report(
                    {**doc, family: files.SubsetRows(rows.masks, bad)}, path)
            assert not path.exists()


def test_mask_past_the_int_text_limit_is_a_cap_error(tmp_path):
    # At the default limit of 4,300 digits a grouped model of more than
    # about 14,280 variables reaches this; the writer raised ValueError
    # after writing the report's head.
    doc = files.report_from_estimate([1.0], 1.0, "mc-shapley")
    doc["sobol"] = files.SubsetRows(np.array([0, 1 << 2200], dtype=object),
                                    np.array([0.0, 1.0]))
    path = tmp_path / "wide.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(DimensionCapError,
                           match="sobol: a mask of 2201 bits has more than "
                                 "640 digits"):
            files.write_report(doc, path)
    finally:
        sys.set_int_max_str_digits(limit)
    assert not path.exists()


def test_write_rejects_non_finite_values_outside_rows(tmp_path):
    for field, value in [("var_y", float("nan")),
                         ("shapley", [0.5, float("inf")])]:
        doc = files.report_from_estimate([0.5, 0.5], 1.0, "mc-shapley")
        doc[field] = value
        path = tmp_path / "bad.json"
        with pytest.raises(FileFormatError, match="not a valid report"):
            files.write_report(doc, path)
        assert not path.exists()


def _render_cases():
    cases = {f"dense-p{p}": files.report_from_sensitivity(
        lg_indices(generate_random_instance(p, seed=p)))
        for p in range(1, 13)}
    for k, n in [(3, 2), (33, 2)]:
        cases[f"grouped-{k}x{n}"] = files.report_from_sensitivity(
            lg_groups_indices(generate_block_instance(k, n, seed=2)))
    interleaved = validate_model([1.0, 2.0, 3.0, 4.0], [
        [1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, -0.3],
        [0.5, 0.0, 1.0, 0.0], [0.0, -0.3, 0.0, 1.0]])
    cases["grouped-interleaved"] = files.report_from_sensitivity(
        lg_groups_indices(interleaved))
    summary = CvSummary(per_i_cv=np.array([12.5, np.nan, 0.25]),
                        mean_cv=np.nan, m=10, reps=20, seed=3, excluded=(2,))
    cases["estimate"] = files.report_from_estimate(
        [0.5, 0.25, 0.25], 2.0, "random-permutations", seed=1)
    cases["estimate-cv"] = files.report_from_estimate(
        [0.5, 0.25, 0.25], 2.0, "random-permutations", seed=1,
        config={"m": 10, "reps": 20}, cv=summary)
    awkward = files.report_from_estimate([-0.0, 5e-324, 1.0], 1e16, "rows")
    awkward["metadata"]["p"] = 3
    values = np.array([-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.0, 2.0, -3.0])
    awkward["sobol"] = files.SubsetRows(np.arange(8), values)
    awkward["closed_sobol"] = files.SubsetRows(np.array([0, 3, 6]),
                                               values[::3])
    cases["awkward-floats"] = awkward
    prefix = dict(awkward, sobol=files.SubsetRows(np.arange(5), values[:5]))
    cases["lattice-prefix"] = dict(prefix, closed_sobol=prefix["sobol"])
    # Same length and chunk offsets but other masks: shared texts would be
    # stale here.
    cases["other-masks"] = dict(
        awkward, sobol=files.SubsetRows(np.arange(4), values[:4]),
        closed_sobol=files.SubsetRows(np.array([0, 1, 2, 4]), values[4:]))
    masks = np.array([0, 3, 5, 6, 7])
    cases["equal-masks"] = dict(
        awkward, sobol=files.SubsetRows(masks, values[:5]),
        closed_sobol=files.SubsetRows(masks.copy(), values[3:]))
    return cases


@pytest.mark.parametrize("name", list(_render_cases()))
def test_render_matches_json_dumps(name, tmp_path, capsys):
    doc = _render_cases()[name]
    expected = json.dumps(_row_dicts(doc), indent=2, allow_nan=False) + "\n"
    path = tmp_path / "report.json"
    files.write_report(doc, path)
    assert path.read_text() == expected
    _read_back(path, doc)
    files.write_report(doc)
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("chunk_rows", [1, 3, 4, 64])
def test_chunk_boundaries_give_the_same_bytes(tmp_path, monkeypatch, capsys,
                                              chunk_rows):
    # With 4, aligned runs of a dense report take the cached text lattice;
    # 64 splits the 100 rows of 33x2, whose masks go past 2**64. Slices of
    # 2 rows end inside a chunk or with it.
    monkeypatch.setattr(files, "CHUNK_ROWS", chunk_rows)
    cases = _render_cases()
    for slice_rows in (2, files.SLICE_ROWS):
        monkeypatch.setattr(files, "SLICE_ROWS", slice_rows)
        for name in ["dense-p1", "dense-p2", "dense-p4", "dense-p5",
                     "grouped-3x2", "grouped-33x2", "grouped-interleaved",
                     "awkward-floats", "other-masks", "equal-masks"]:
            expected = json.dumps(_row_dicts(cases[name]), indent=2) + "\n"
            path = tmp_path / f"{name}.json"
            files.write_report(cases[name], path)
            assert path.read_text() == expected
            files.write_report(cases[name])
            assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name, chunk_rows, calls", [
    ("grouped-3x2", files.CHUNK_ROWS, 1),   # one chunk serves both families
    ("grouped-3x2", 5, 4),                  # 10 rows: once per family and chunk
    ("equal-masks", files.CHUNK_ROWS, 2),   # distinct arrays: once each
    ("other-masks", files.CHUNK_ROWS, 2),
])
def test_subset_texts_are_built_once_per_chunk(tmp_path, monkeypatch, name,
                                               chunk_rows, calls):
    # The row heads are built from the subset texts, once with them.
    texts = mock.Mock(wraps=files._subsets)
    heads = mock.Mock(wraps=files._heads)
    monkeypatch.setattr(files, "_subsets", texts)
    monkeypatch.setattr(files, "_heads", heads)
    monkeypatch.setattr(files, "CHUNK_ROWS", chunk_rows)
    files.write_report(_render_cases()[name], tmp_path / "report.json")
    assert texts.call_count == heads.call_count == calls


def test_dense_report_of_two_chunks_matches_json_dumps(tmp_path, capsys):
    # p = 15 at the default sizes: two chunks of 16 slices per family.
    doc = files.report_from_sensitivity(
        lg_indices(generate_random_instance(15, seed=15)))
    assert len(doc["sobol"]) == 2 * files.CHUNK_ROWS
    expected = json.dumps(_row_dicts(doc), indent=2) + "\n"
    path = tmp_path / "report.json"
    files.write_report(doc, path)
    assert path.read_text() == expected
    files.write_report(doc)
    assert capsys.readouterr().out == expected


def test_dense_report_memory_peak():
    # One chunk per family at p = 14, a 5.7-MB report. The chunk's row heads
    # and subset texts set the peak, 6.1 MiB; joining a family's whole chunk
    # of rows into one text would raise it past 9 MiB.
    doc = files.report_from_sensitivity(
        lg_indices(generate_random_instance(14, seed=14)))
    tracemalloc.start()
    try:
        files.write_report(doc, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


def test_writer_holds_one_chunk_of_text(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "CHUNK_ROWS", 256)
    doc = files.report_from_sensitivity(
        lg_indices(generate_random_instance(12, seed=12)))
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        files.write_report(doc, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 chunks of 256 rows per family
    assert peak < path.stat().st_size / 4


_AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.0, -3.0]


@st.composite
def _row_families(draw):
    """Ascending masks (scattered, or a run that may be aligned), some past
    2**64, with awkward values, for both families of one report."""
    def masks():
        scattered = st.lists(st.integers(0, 1 << 70), min_size=1,
                             max_size=12, unique=True).map(sorted)
        run = st.builds(lambda lo, shift, n: list(range(lo << shift,
                                                        (lo << shift) + n)),
                        st.integers(0, 64), st.sampled_from([0, 3, 64]),
                        st.integers(1, 12))
        m = draw(st.one_of(scattered, run))
        return np.array(m, dtype=object if m[-1] >> 62 else np.int64)

    def rows(masks):
        value = st.one_of(st.sampled_from(_AWKWARD),
                          st.floats(allow_nan=False, allow_infinity=False))
        values = draw(st.lists(value, min_size=len(masks),
                               max_size=len(masks)))
        return files.SubsetRows(masks, np.array(values, dtype=float))

    sobol = rows(masks())
    share = draw(st.sampled_from(["same", "copy", "other"]))
    closed = (sobol.masks if share == "same" else
              sobol.masks.copy() if share == "copy" else masks())
    return sobol, rows(closed)


@seed(20261020)
@settings(max_examples=60, deadline=None, database=None)
@given(_row_families(), st.integers(1, 5), st.integers(1, 5))
def test_write_report_matches_json_dumps(families, chunk_rows, slice_rows):
    sobol, closed = families
    doc = files.report_from_estimate([0.5, 0.5], 1.0, "rows")
    doc.update(sobol=sobol, closed_sobol=closed)
    doc["metadata"]["p"] = max(1, int(sobol.masks[-1]).bit_length(),
                               int(closed.masks[-1]).bit_length())
    out = io.StringIO()
    with mock.patch.object(files, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(files, "SLICE_ROWS", slice_rows), \
            contextlib.redirect_stdout(out):
        files.write_report(doc)
    assert out.getvalue() == json.dumps(_row_dicts(doc), indent=2) + "\n"


def test_distribution_loading(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text('{"gamma": [[2.0, 0.5], [0.5, 1.0]], "mu": [1.0, -1.0]}')
    inp = files.read_distribution(path)
    assert inp.p == 2
    assert np.array_equal(inp.mu, [1.0, -1.0])
    path.write_text('{"gamma": [[1.0, 2.0], [2.0, 1.0]]}')
    with pytest.raises(ModelValidationError):
        files.read_distribution(path)
    path.write_text('{"gamma": [[1.0]], "mu": [0.0, 0.0]}')
    with pytest.raises(ModelValidationError) as exc:
        files.read_distribution(path)
    assert exc.value.kind is ValidationKind.DIMENSION_MISMATCH


def test_expression_file_validation(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text('{"f": "x1 + x2", "consts": {"x1": 2.0}}')
    with pytest.raises(FileFormatError):
        files.read_expression_file(path)
    path.write_text('{"f": "x1", "defs": {"sin": "x1"}}')
    with pytest.raises(FileFormatError):
        files.read_expression_file(path)
    path.write_text('{"f": "x1 + x2"}')
    expr = files.read_expression_file(path)
    model = files.build_function(expr, 2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(model(x), [3.0, 7.0])


def test_expression_defs_and_consts(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({
        "consts": {"w": 2.0},
        "defs": {"z": "w*x1 + x2"},
        "f": "z^2 - z",
    }))
    expr = files.read_expression_file(path)
    model = files.build_function(expr, 2)
    x = np.array([[1.0, 1.0]])
    np.testing.assert_allclose(model(x), [9.0 - 3.0])


def _block_functions(tmp_path, obj, gamma):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(obj))
    return files.build_block_functions(files.read_expression_file(path),
                                       np.asarray(gamma, dtype=float))


def test_block_functions_align_with_partition(tmp_path):
    # Terms out of input order, x1 and x3 correlated: the blocks are
    # {x1, x3} and {x2}, each model folding its terms in f's order. The
    # constant term joins no block.
    gamma = np.eye(3)
    gamma[0, 2] = gamma[2, 0] = 0.5
    full, models, partition = _block_functions(
        tmp_path, {"f": "3*x3 + 7 + x1 - 2*x2"}, gamma)
    assert partition.groups == ((1, 3), (2,))
    x = np.array([[1.0, 10.0, 2.0], [-1.0, 0.5, 4.0]])
    np.testing.assert_array_equal(models[0](x[:, [0, 2]]), [7.0, 11.0])
    np.testing.assert_array_equal(models[1](x[:, [1]]), [-20.0, -1.0])
    np.testing.assert_array_equal(full(x), [-6.0, 17.0])


def test_block_functions_validate_inputs(tmp_path):
    # Every name a term or a definition reads is an input x1 .. xp, a
    # constant or an earlier definition.
    for obj in ({"f": "x1 + x3"}, {"defs": {"z": "x3"}, "f": "x1 + z"},
                {"defs": {"z": "y"}, "f": "x1"}):
        with pytest.raises(FileFormatError, match="unknown name"):
            _block_functions(tmp_path, obj, np.eye(2))
    # The blocks key is shape-checked but not read: neither a partition
    # that misses x2 nor no key at all changes the blocks.
    for blocks in ({"blocks": [{"inputs": ["x1"], "expr": "x1"}]}, {}):
        _, models, partition = _block_functions(
            tmp_path, {"f": "x1 + x2", **blocks}, np.eye(2))
        assert partition.groups == ((1,), (2,)) and len(models) == 2


def test_block_terms_read_inputs_through_defs(tmp_path):
    # w reads x3 and, through z, x1 and x2, so the terms w and z join one
    # block; x5, which no term reads, is a block of its own whose model
    # is 0, and the constant definition c joins no block.
    full, models, partition = _block_functions(tmp_path, {
        "consts": {"k": 2.0},
        "defs": {"z": "x1 + x2", "w": "z * x3", "c": "k^2"},
        "f": "w + x4 - z + c",
    }, np.eye(5))
    assert partition.groups == ((1, 2, 3), (4,), (5,))
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    assert [float(m(x[:, np.asarray(g) - 1])[0])
            for m, g in zip(models, partition.groups)] == [6.0, 4.0, 0.0]
    assert full(x).tolist() == [14.0]
