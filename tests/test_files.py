import json

import jsonschema
import numpy as np
import pytest

from shapley_lg import (FileFormatError, ModelValidationError,
                        generate_block_instance, generate_random_instance,
                        lg_groups_indices, lg_indices, validate_model)
from shapley_lg import files, subsets
from shapley_lg.permutations import CvSummary


def test_model_roundtrip(tmp_path):
    model = generate_random_instance(4, seed=3)
    path = tmp_path / "model.json"
    files.write_model(model, path)
    back = files.read_model(path)
    assert np.array_equal(back.beta, model.beta)
    assert np.array_equal(back.gamma, model.gamma)
    assert np.array_equal(back.mu, model.mu)


def test_model_write_is_deterministic(tmp_path):
    model = generate_random_instance(3, seed=9)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    files.write_model(model, a)
    files.write_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_model_mu_roundtrip(tmp_path):
    model = validate_model([1.0, 2.0], np.eye(2), mu=[0.5, -0.5])
    path = tmp_path / "model.json"
    files.write_model(model, path)
    raw = json.loads(path.read_text())
    assert raw["mu"] == [0.5, -0.5]
    back = files.read_model(path)
    assert np.array_equal(back.mu, [0.5, -0.5])


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
    """``doc`` with each array row family spelled out as row dicts."""
    out, p = dict(doc), doc["metadata"]["p"]
    for family in ("sobol", "closed_sobol"):
        rows = doc[family]
        if isinstance(rows, files.SubsetRows):
            out[family] = [{"subset": list(subsets.decode(m, p)), "mask": m,
                            "value": v}
                           for m, v in zip(rows.masks.tolist(),
                                           rows.values.tolist())]
    return out


def test_report_rows_are_consistent(tmp_path):
    model = generate_random_instance(3, seed=4)
    doc = files.report_from_sensitivity(lg_indices(model), "lg-indices")
    path = tmp_path / "report.json"
    files.write_report(doc, path)
    back = files.read_report(path)
    assert back == _row_dicts(doc)
    p = back["metadata"]["p"]
    assert back["metadata"]["eval_count"] == 1 << p
    for row in back["sobol"] + back["closed_sobol"]:
        assert row["mask"] == subsets.encode(row["subset"], p)


def test_grouped_report_skips_straddling_subsets(tmp_path):
    model = generate_block_instance(2, 2, seed=6)
    grouped = lg_groups_indices(model)
    doc = files.report_from_grouped(grouped, "lg-groups-indices")
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
    doc = files.report_from_grouped(grouped, "lg-groups-indices")
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
    back = files.read_report(path)
    assert back["cv_summary"]["per_i_cv"] == [12.5, None]
    assert back["cv_summary"]["excluded"] == [2]
    assert back["sobol"] == []


def test_schemas_are_valid():
    for schema in (files.MODEL_SCHEMA, files.DISTRIBUTION_SCHEMA,
                   files.EXPRESSION_SCHEMA, files.REPORT_SCHEMA):
        jsonschema.Draft202012Validator.check_schema(schema)


def _docs():
    model = generate_block_instance(2, 2, seed=6)
    return [
        files.report_from_sensitivity(lg_indices(model), "lg-indices"),
        files.report_from_grouped(lg_groups_indices(model),
                                  "lg-groups-indices"),
        files.report_from_estimate([0.5, 0.25, 0.25, 0.0], 2.0,
                                   "random-permutations", seed=1),
    ]


def test_every_writer_passes_the_full_schema(tmp_path):
    for i, doc in enumerate(_docs()):
        jsonschema.validate(_row_dicts(doc), files.REPORT_SCHEMA)
        files.write_report(doc, tmp_path / f"r{i}.json")
        assert files.read_report(tmp_path / f"r{i}.json") == _row_dicts(doc)


def test_rows_beyond_int64_masks_round_trip(tmp_path):
    # 33 groups of 2: masks reach 2**65, past what an int64 holds.
    grouped = lg_groups_indices(generate_block_instance(33, 2, seed=2))
    doc = files.report_from_grouped(grouped, "lg-groups-indices")
    assert doc["sobol"].masks[-1] >= 1 << 64
    files.write_report(doc, tmp_path / "wide.json")
    assert files.read_report(tmp_path / "wide.json") == _row_dicts(doc)


def _set(i, key, value):
    def corrupt(rows):
        rows[i] = dict(rows[i], **{key: value})
    return corrupt


def _swap(key):
    def corrupt(rows):
        rows[2][key], rows[3][key] = rows[3][key], rows[2][key]
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _set(1, "extra", 0),
    lambda rows: rows[1].pop("value"),
    lambda rows: rows.__setitem__(1, [1, [1], 0.5]),
    _set(1, "value", float("nan")),
    _set(1, "value", float("inf")),
    _set(1, "value", "0.5"),
    _set(1, "value", True),
    _set(1, "mask", 1.0),
    _set(1, "mask", 1 << 70),
    _set(0, "mask", -1),
    _set(15, "mask", 16),
    _set(3, "subset", [2, 1]),
    _set(1, "subset", [0]),
    _set(1, "subset", [1, 1]),
    _set(1, "subset", [5]),
    _set(1, "subset", (1,)),
    _swap("subset"),
    _swap("mask"),
    lambda rows: rows.__setitem__(slice(2, 4), rows[3:1:-1]),
], ids=["extra-key", "missing-key", "not-a-dict", "nan", "inf", "str-value",
        "bool-value", "float-mask", "huge-mask", "negative-mask",
        "mask-past-2**p", "unsorted-subset", "member-0", "repeated-member",
        "member-past-p", "tuple-subset", "swapped-subsets", "swapped-masks",
        "swapped-rows"])
def test_write_rejects_bad_rows(corrupt, tmp_path):
    """Rows given as dicts are checked on writing, and again on reading
    from a file that ``json.dumps`` wrote."""
    doc = _row_dicts(files.report_from_sensitivity(
        lg_indices(generate_random_instance(4, seed=1)), "lg-indices"))
    path = tmp_path / "bad.json"
    for family in ("sobol", "closed_sobol"):
        bad = json.loads(json.dumps(doc))
        corrupt(bad[family])
        with pytest.raises(FileFormatError, match=family):
            files.write_report(bad, path)
        assert not path.exists()
        text = json.dumps(bad, indent=2)
        if json.loads(text) != doc:     # a tuple subset reads back as a list
            path.write_text(text)
            with pytest.raises(FileFormatError, match=family):
                files.read_report(path)
            path.unlink()


def _bad_masks(masks, p):
    swapped, repeated = masks.copy(), masks.copy()
    at_top, negative = masks.copy(), masks.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    repeated[2] = repeated[1]
    at_top[-1] = 1 << p
    negative[0] = -1
    return [swapped, repeated, at_top, negative]


@pytest.mark.parametrize("index", [0, 1], ids=["dense", "grouped"])
def test_write_rejects_bad_arrays(index, tmp_path):
    doc = _docs()[index]
    for family in ("sobol", "closed_sobol"):
        rows = doc[family]
        nan, inf = rows.values.copy(), rows.values.copy()
        nan[1], inf[-1] = float("nan"), float("-inf")
        bad_rows = [files.SubsetRows(rows.masks, nan),
                    files.SubsetRows(rows.masks, inf),
                    files.SubsetRows(rows.masks, rows.values[:-1]),
                    files.SubsetRows(rows.masks[:-1], rows.values),
                    files.SubsetRows(rows.masks, rows.values.astype(int))]
        bad_rows += [files.SubsetRows(masks, rows.values)
                     for masks in _bad_masks(rows.masks,
                                             doc["metadata"]["p"])]
        for bad in bad_rows:
            path = tmp_path / "bad.json"
            with pytest.raises(FileFormatError, match=family):
                files.write_report({**doc, family: bad}, path)
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
        lg_indices(generate_random_instance(p, seed=p)), "lg-indices")
        for p in range(1, 13)}
    for k, n in [(3, 2), (33, 2)]:
        cases[f"grouped-{k}x{n}"] = files.report_from_grouped(
            lg_groups_indices(generate_block_instance(k, n, seed=2)),
            "lg-groups-indices")
    interleaved = validate_model([1.0, 2.0, 3.0, 4.0], [
        [1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, -0.3],
        [0.5, 0.0, 1.0, 0.0], [0.0, -0.3, 0.0, 1.0]])
    cases["grouped-interleaved"] = files.report_from_grouped(
        lg_groups_indices(interleaved), "lg-groups-indices")
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
    integers = _row_dicts(awkward)
    integers["sobol"][5]["value"] = 1
    cases["integer-value"] = integers
    return cases


@pytest.mark.parametrize("name", list(_render_cases()))
def test_render_matches_json_dumps(name, tmp_path, capsys):
    doc = _render_cases()[name]
    expected = json.dumps(_row_dicts(doc), indent=2, allow_nan=False) + "\n"
    path = tmp_path / "report.json"
    files.write_report(doc, path)
    assert path.read_text() == expected
    assert files.read_report(path) == json.loads(expected)
    files.write_report(doc)
    assert capsys.readouterr().out == expected


def test_chunk_boundaries_give_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(files, "CHUNK_ROWS", 3)
    cases = _render_cases()
    for name in ["dense-p1", "dense-p2", "dense-p4", "dense-p5",
                 "grouped-3x2", "grouped-interleaved", "awkward-floats"]:
        path = tmp_path / f"{name}.json"
        files.write_report(cases[name], path)
        assert path.read_text() == json.dumps(
            _row_dicts(cases[name]), indent=2) + "\n"


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
    with pytest.raises(FileFormatError):
        files.read_distribution(path)


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


def test_block_functions_align_with_partition(tmp_path):
    # blocks listed out of order in the file must still line up
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({
        "f": "x1 + 2*x2 + 3*x3",
        "blocks": [
            {"inputs": ["x3"], "expr": "3*x3"},
            {"inputs": ["x1", "x2"], "expr": "x1 + 2*x2"},
        ],
    }))
    expr = files.read_expression_file(path)
    models, partition = files.build_block_functions(expr, 3)
    assert partition.groups == ((1, 2), (3,))
    np.testing.assert_allclose(models[0](np.array([[1.0, 1.0]])), [3.0])
    np.testing.assert_allclose(models[1](np.array([[2.0]])), [6.0])


def test_block_functions_validate_inputs(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({
        "f": "x1 + x2",
        "blocks": [{"inputs": ["x1"], "expr": "x1"}],
    }))
    expr = files.read_expression_file(path)
    with pytest.raises(FileFormatError):
        files.build_block_functions(expr, 2)
    path.write_text(json.dumps({
        "f": "x1 + x2",
        "blocks": [{"inputs": ["x2", "x1"], "expr": "x1 + x2"}],
    }))
    with pytest.raises(FileFormatError):
        files.build_block_functions(files.read_expression_file(path), 2)
    path.write_text(json.dumps({"f": "x1 + x2"}))
    with pytest.raises(FileFormatError):
        files.build_block_functions(files.read_expression_file(path), 2)


def test_block_defs_outside_scope_are_dropped(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({
        "defs": {"z": "x1 + x2"},
        "f": "z",
        "blocks": [
            {"inputs": ["x1"], "expr": "x1"},
            {"inputs": ["x2"], "expr": "x2^2"},
        ],
    }))
    expr = files.read_expression_file(path)
    models, _ = files.build_block_functions(expr, 2)
    np.testing.assert_allclose(models[1](np.array([[3.0]])), [9.0])
