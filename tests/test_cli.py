import argparse
import csv
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:                 # not on Windows
    resource = None

import numpy as np
import pytest

import shapley_lg
from shapley_lg import cli, conditional, lg_indices, validate_model
from shapley_lg.cli import main


def run(args):
    return main([str(a) for a in args])


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


def test_generate_compute_pipeline_is_deterministic(tmp_path):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert run(["generate", "--p", 4, "--seed", 5, "--out", m1]) == 0
    assert run(["generate", "--p", 4, "--seed", 5, "--out", m2]) == 0
    assert m1.read_bytes() == m2.read_bytes()

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["compute", "--model", m1, "--out", r1]) == 0
    assert run(["compute", "--model", m2, "--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_generate_argument_validation(tmp_path):
    assert run(["generate", "--p", 3, "--k", 2, "--out",
                tmp_path / "x.json"]) == 4
    assert run(["generate", "--k", 2, "--out", tmp_path / "x.json"]) == 4
    assert run(["generate", "--out", tmp_path / "x.json"]) == 4


def test_compute_symmetric_correlated_model(tmp_path):
    model = write_json(tmp_path / "m.json", {
        "beta": [1.0, 1.0],
        "gamma": [[1.0, 0.5], [0.5, 1.0]],
    })
    out = tmp_path / "r.json"
    assert run(["compute", "--model", model, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["shapley"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert doc["var_y"] == pytest.approx(3.0)
    assert doc["metadata"]["algorithm"] == "lg-indices"


def test_compute_groups_eval_count_and_agreement(tmp_path):
    model = tmp_path / "block.json"
    assert run(["generate", "--k", 2, "--n", 6, "--seed", 1,
                "--out", model]) == 0
    grouped_out = tmp_path / "grouped.json"
    full_out = tmp_path / "full.json"
    assert run(["compute", "--model", model, "--groups",
                "--out", grouped_out]) == 0
    assert run(["compute", "--model", model, "--out", full_out]) == 0
    grouped = json.loads(grouped_out.read_text())
    full = json.loads(full_out.read_text())
    assert grouped["metadata"]["eval_count"] == 128
    assert full["metadata"]["eval_count"] == 4096
    assert np.abs(np.array(grouped["shapley"])
                  - np.array(full["shapley"])).max() <= 1e-10


def test_compute_groups_answers_a_zero_share_group(tmp_path, capsys):
    # Group (3,) has beta 0: no share of var(y), and no error.
    model = write_json(tmp_path / "m.json", {
        "beta": [1.0, 1.0, 0.0],
        "gamma": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]],
    })
    grouped_out, full_out = tmp_path / "g.json", tmp_path / "f.json"
    assert run(["compute", "--model", model, "--groups",
                "--out", grouped_out]) == 0
    assert run(["compute", "--model", model, "--out", full_out]) == 0
    assert capsys.readouterr().err == ""
    grouped = json.loads(grouped_out.read_text())
    full = json.loads(full_out.read_text())
    assert grouped["shapley"] == pytest.approx(full["shapley"], abs=1e-10)
    assert grouped["shapley"] == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    assert grouped["metadata"]["partition"] == [[1, 2], [3]]


@pytest.mark.parametrize("eps_block", [0.1, 0.0])
def test_compute_groups_says_when_eps_block_drops_covariance(
        eps_block, tmp_path, capsys):
    model = write_json(tmp_path / "m.json", {
        "beta": [1.0, 1.0, 1.0, 1.0],
        "gamma": [[1.0, 0.9, 0.05, 0.0], [0.9, 1.0, 0.0, 0.0],
                  [0.05, 0.0, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]],
    })
    out = tmp_path / "r.json"
    assert run(["compute", "--model", model, "--groups", "--eps-block",
                eps_block, "--out", out]) == 0
    shapley = json.loads(out.read_text())["shapley"]
    err = capsys.readouterr().err
    if eps_block == 0.0:
        assert err == ""
        assert sum(shapley) == pytest.approx(1.0, abs=1e-12)
    else:
        # var(y) = 6.9; the dropped entry 0.05 counts twice: 0.1 / 6.9.
        assert sum(shapley) == pytest.approx(6.8 / 6.9, abs=1e-12)
        assert err.count("\n") == 1
        assert "--eps-block 0.1" in err and f"{0.1 / 6.9:.6g}" in err


def test_compute_cap_error(tmp_path, capsys):
    # The message names the lattice's own size: all of p, or one group's.
    model = tmp_path / "big.json"
    for generate, groups in ((["--p", 26], []), (["--k", 2, "--n", 26],
                                                 ["--groups"])):
        assert run(["generate", *generate, "--seed", 0, "--out", model]) == 0
        capsys.readouterr()
        assert run(["compute", "--model", model, *groups]) == 3
        assert capsys.readouterr().err == ("error: 2**26 subsets of 26 "
                                           "variables pass the lattice cap "
                                           "of 25\n")


def test_compute_validation_error(tmp_path, capsys):
    model = write_json(tmp_path / "bad.json", {
        "beta": [1.0, 0.0],
        "gamma": [[1.0, 2.0], [2.0, 1.0]],
    })
    assert run(["compute", "--model", model]) == 2
    assert "NotPSD" in capsys.readouterr().err


def test_compute_parse_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert run(["compute", "--model", broken]) == 4


def _json_argv(tmp_path, verb, path):
    """``compute --model path``, or ``mc --dist path`` on ``x1 + x2``."""
    if verb == "compute":
        return ["compute", "--model", path]
    expr = write_json(tmp_path / "expr.json", {"f": "x1 + x2"})
    return ["mc", "--model", expr, "--dist", path]


@pytest.mark.parametrize("verb", ["compute", "mc"])
@pytest.mark.parametrize("content, says", [
    (b"[" * 100_000, "is not valid JSON: it nests too deeply"),
    (b"\xff\xfe{\x00}\x00", "is not UTF-8 text"),
], ids=["deep", "utf-16"])
def test_unreadable_json_exits_4_naming_the_file(tmp_path, capsys, verb,
                                                  content, says):
    # The decoder's RecursionError and the reader's UnicodeDecodeError are
    # file errors, not tracebacks.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run(_json_argv(tmp_path, verb, bad)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} {says}") and err.count("\n") == 1


def _deepest_json(text):
    """The largest ``d`` for which ``json.loads(text(d))`` succeeds here."""
    lo, hi = 1, 100_000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            json.loads(text(mid))
            lo = mid
        except RecursionError:
            hi = mid
    return lo


@pytest.mark.parametrize("verb, says", [
    ("compute", "beta[0] is not a number"),
    ("mc", "gamma[0][0] is not a number"),
])
def test_json_nested_just_under_the_decoder_limit_exits_4(tmp_path, capsys,
                                                           verb, says):
    # The decoder reads the file, a few frames deeper than here; the checks
    # then name the offender without recursing into it.
    key, rest = ("beta", ', "gamma": [[1.0]]') if verb == "compute" \
        else ("gamma", "")
    text = lambda d: f'{{"{key}": {"[" * d}1.0{"]" * d}{rest}}}'
    deep = tmp_path / "deep.json"
    deep.write_text(text(_deepest_json(text) - 50))
    assert run(_json_argv(tmp_path, verb, deep)) == 4
    err = capsys.readouterr().err
    assert says in err and str(deep) in err and err.count("\n") == 1


@pytest.mark.parametrize("field,values", [
    ("beta", [float("nan"), 1.0]),
    ("gamma", [[1.0, 0.0], [0.0, float("inf")]]),
])
def test_compute_rejects_non_finite_model(tmp_path, capsys, field, values):
    obj = {"beta": [1.0, 1.0], "gamma": [[1.0, 0.0], [0.0, 1.0]]}
    obj[field] = values
    # json.dumps writes NaN and Infinity, which Python's reader accepts.
    model = write_json(tmp_path / "m.json", obj)
    assert run(["compute", "--model", model]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotFinite:") and err.count("\n") == 1


def test_ragged_gamma_exits_2_with_one_line(tmp_path, capsys):
    gamma = [[1.0, 0.0], [0.0]]
    model = write_json(tmp_path / "m.json", {"beta": [1.0, 1.0],
                                             "gamma": gamma})
    expr = write_json(tmp_path / "expr.json", {"f": "x1 + x2"})
    dist = write_json(tmp_path / "dist.json", {"gamma": gamma})
    for args in (["compute", "--model", model],
                 ["mc", "--model", expr, "--dist", dist]):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch:")
        assert err.count("\n") == 1


_EYE = "[[1.0, 0.0], [0.0, 1.0]]"
# An integer literal past the float range, which json reads as an int.
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("verb, texts", [
    (["compute"], [f'{{"beta": [{_HUGE}, 1.0], "gamma": {_EYE}}}']),
    (["compute", "--groups"],
     [f'{{"beta": [1.0, 1.0], "gamma": [[{_HUGE}, 0.0], [0.0, 1.0]]}}']),
    (["estimate"], [f'{{"beta": [1.0, 1.0], "gamma": {_EYE}, '
                    f'"mu": [0.0, {_HUGE}]}}']),
    (["mc"], [f'{{"f": "c*x1 + x2", "consts": {{"c": {_HUGE}}}}}',
              f'{{"gamma": {_EYE}}}']),
    (["mc"], ['{"f": "x1 + x2"}', f'{{"gamma": {_EYE}, "mu": [{_HUGE}, 0]}}']),
], ids=["compute-beta", "groups-gamma", "estimate-mu", "mc-consts", "mc-mu"])
def test_integer_past_float_range_exits_2_with_one_line(tmp_path, capsys,
                                                        verb, texts):
    paths = [tmp_path / f"in{i}.json" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text)
    args = verb + ["--model", paths[0], "--out", tmp_path / "out.json"]
    if verb == ["mc"]:
        args += ["--dist", paths[1], "--m", 5, "--n-outer", 5]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotFinite:") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


_VAR_Y_OVERFLOWS = {"beta": [1e200, 1.0], "gamma": [[1e200, 0.0], [0.0, 1.0]]}
_SYMMETRISED_OVERFLOWS = [[1e308, 1e308], [1e308, 1e308]]
_EIGENVALUE_OVERFLOWS = {"beta": [1e-160] * 20, "gamma": [[1e307] * 20] * 20}
_ASYMMETRY_OVERFLOWS = {"beta": [1.0, 1.0],
                        "gamma": [[1.0, 1e308], [-1e308, 1.0]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb, docs, kind", [
    (["compute"], [_VAR_Y_OVERFLOWS], "NotFinite"),
    (["compute", "--groups"], [_VAR_Y_OVERFLOWS], "NotFinite"),
    (["estimate"], [_VAR_Y_OVERFLOWS], "NotFinite"),
    (["compute"], [{"beta": [1.0, 1.0], "gamma": _SYMMETRISED_OVERFLOWS}],
     "NotFinite"),
    (["mc"], [{"f": "x1 + x2"}, {"gamma": _SYMMETRISED_OVERFLOWS}],
     "NotFinite"),
    (["compute"], [_EIGENVALUE_OVERFLOWS], "NotFinite"),
    (["compute", "--groups"], [_EIGENVALUE_OVERFLOWS], "NotFinite"),
    (["compute"], [_ASYMMETRY_OVERFLOWS], "NotSymmetric"),
], ids=["compute-var-y", "groups-var-y", "estimate-var-y",
        "compute-symmetrise", "mc-symmetrise", "compute-eigenvalue",
        "groups-eigenvalue", "compute-asymmetry"])
def test_overflowing_model_exits_2_with_one_line(tmp_path, capsys, verb, docs,
                                                 kind):
    # Each passed validation, printed numpy warnings and ended in exit 4
    # (the asymmetric one exited 2, after a warning).
    paths = [write_json(tmp_path / f"in{i}.json", doc)
             for i, doc in enumerate(docs)]
    args = verb + ["--model", paths[0], "--out", tmp_path / "out.json"]
    if verb == ["mc"]:
        args += ["--dist", paths[1], "--m", 5, "--n-outer", 5]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {kind}:")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out.json").exists()


def test_mc_rejects_non_finite_mean(tmp_path, capsys):
    expr = write_json(tmp_path / "expr.json", {"f": "x1 + x2"})
    dist = write_json(tmp_path / "dist.json", {
        "gamma": [[1.0, 0.0], [0.0, 1.0]], "mu": [0.0, float("nan")]})
    assert run(["mc", "--model", expr, "--dist", dist]) == 2
    assert "NotFinite" in capsys.readouterr().err


# The root is not a term of its own: a block of x1 alone takes no nested
# draws, so none would meet its NaN.
_ROOT_OF_2_MINUS_X1 = {"f": "(2 - x1)^0.5 * x2 + x3"}


@pytest.mark.parametrize("blocks", [[], ["--blocks"]], ids=["mc", "blocks"])
@pytest.mark.parametrize("seed", range(4))
def test_mc_non_finite_estimate_exits_2_with_one_line(tmp_path, capsys,
                                                      blocks, seed):
    # The model is NaN for x1 > 2 but finite on the two --n-var draws, so
    # only the nested draws meet the NaN; it used to end in exit 4, when
    # the report writer refused the NaN estimate.
    expr = write_json(tmp_path / "expr.json", _ROOT_OF_2_MINUS_X1)
    dist = write_json(tmp_path / "dist.json", {"gamma": np.eye(3).tolist()})
    out = tmp_path / "out.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--m", 5, "--n-var", 2,
                "--seed", seed, "--out", out] + blocks) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: NotFinite: the Shapley estimate")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_estimate_exact_perm_is_a_usage_error(tmp_path, capsys):
    # Exact Shapley effects come from compute; estimate runs the
    # random-ordering estimator only.
    model = tmp_path / "m.json"
    assert run(["generate", "--p", 5, "--seed", 7, "--out", model]) == 0
    out = tmp_path / "e.json"
    assert run(["estimate", "--model", model, "--method", "exact-perm",
                "--out", out]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert captured.err.count("\n") == 1
    assert "argument --method: invalid choice: 'exact-perm'" in captured.err
    assert not out.exists()


def test_estimate_random_is_byte_deterministic(tmp_path):
    model = tmp_path / "m.json"
    assert run(["generate", "--p", 4, "--seed", 3, "--out", model]) == 0
    o1, o2 = tmp_path / "e1.json", tmp_path / "e2.json"
    for out in (o1, o2):
        assert run(["estimate", "--model", model, "--method", "random-perm",
                    "--m", 50, "--seed", 11, "--out", out]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    doc = json.loads(o1.read_text())
    assert doc["metadata"]["algorithm"] == "random-permutations"
    assert sum(doc["shapley"]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [64, 70])
def test_estimate_random_perm_on_64_or_more_variables(tmp_path, p):
    # Independent inputs: every ordering gives each variable its own
    # variance share, so the estimate is exact.
    rng = np.random.default_rng(p)
    beta = rng.standard_normal(p)
    variances = rng.uniform(0.5, 2.0, p)
    model = write_json(tmp_path / "m.json", {
        "beta": beta.tolist(), "gamma": np.diag(variances).tolist()})
    out = tmp_path / "e.json"
    assert run(["estimate", "--model", model, "--method", "random-perm",
                "--m", 5, "--seed", 1, "--out", out]) == 0
    share = beta ** 2 * variances
    shapley = json.loads(out.read_text())["shapley"]
    assert np.max(np.abs(np.array(shapley) - share / share.sum())) <= 1e-12


def test_estimate_replicates_emit_cv_summary(tmp_path, capsys):
    model = tmp_path / "m.json"
    assert run(["generate", "--p", 3, "--seed", 4, "--out", model]) == 0
    out = tmp_path / "cv.json"
    assert run(["estimate", "--model", model, "--method", "random-perm",
                "--m", 10, "--reps", 500, "--seed", 5, "--out", out]) == 0
    table = capsys.readouterr().out
    assert table.startswith("m,mean_cv_percent\n10,")
    doc = json.loads(out.read_text())
    assert doc["cv_summary"]["reps"] == 500
    assert 5.0 <= doc["cv_summary"]["mean_cv"] <= 120.0


def test_batch_cap_moves_no_report_byte(tmp_path, capsys, monkeypatch):
    # mc slices its orderings and estimate chunks its replicates by
    # BATCH_BYTES: at p = 9, 4 or 8 orderings a slice, at p = 3 48 or 96,
    # and 3 or 7 replicates a chunk. Reports and stdout keep every byte.
    rng = np.random.default_rng(31)
    gamma = np.zeros((9, 9))
    terms = []
    for g in range(0, 9, 3):
        a = rng.standard_normal((4, 3))
        gamma[g:g + 3, g:g + 3] = a.T @ a
        terms.append(f"x{g + 1} * x{g + 2} + x{g + 3}^2")
    dist = write_json(tmp_path / "dist.json", {
        "gamma": gamma.tolist(), "mu": rng.uniform(-1.0, 1.0, 9).tolist()})
    expr = write_json(tmp_path / "expr.json", {
        "f": " + ".join(terms),
        "blocks": [{"inputs": [f"x{g + j}" for j in (1, 2, 3)], "expr": t}
                   for g, t in zip(range(0, 9, 3), terms)]})
    model = tmp_path / "m.json"
    assert run(["generate", "--p", 16, "--seed", 3, "--out", model]) == 0
    mc = ["mc", "--model", expr, "--dist", dist, "--seed", 7]
    argvs = [mc, mc + ["--blocks"]] + [
        ["estimate", "--model", model, "--method", "random-perm", "--m", 2000,
         "--reps", reps, "--seed", 5] for reps in (1, 10)]
    seen = []
    for cap in (1 << 20, 1 << 21):
        monkeypatch.setattr(conditional, "BATCH_BYTES", cap)
        for i, argv in enumerate(argvs):
            out = tmp_path / f"{i}.{cap}.json"
            assert run(argv + ["--out", out]) == 0
            seen.append((out.read_bytes(), capsys.readouterr()))
    assert seen[:len(argvs)] == seen[len(argvs):]


def test_benchmark_csv_structure(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["benchmark", "--sizes", "3,4", "--repetitions", 1,
                "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    by_key = {(r["algorithm"], r["size"]): r for r in rows}
    assert int(by_key[("lg-indices", "3")]["eval_count"]) == 8
    assert int(by_key[("lg-indices", "4")]["eval_count"]) == 16
    assert int(by_key[("exact-permutations", "4")]["eval_count"]) \
        == math.factorial(4) * 4
    for row in rows:
        assert float(row["median_seconds"]) >= 0.0


def test_benchmark_groups_mode(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["benchmark", "--sizes", "2x2,3x2", "--groups",
                "--repetitions", 1, "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    by_key = {(r["algorithm"], r["size"]): r for r in rows}
    assert int(by_key[("lg-indices", "2x2")]["eval_count"]) == 16
    assert int(by_key[("lg-groups-indices", "2x2")]["eval_count"]) == 8
    assert int(by_key[("lg-groups-indices", "3x2")]["eval_count"]) == 12


def test_benchmark_groups_past_the_lattice_cap(tmp_path):
    # p = 30 is past the dense lattice cap: only the grouped route is timed.
    out = tmp_path / "bench.csv"
    assert run(["benchmark", "--sizes", "10x3", "--groups",
                "--repetitions", 1, "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["algorithm"], r["size"], r["eval_count"]) for r in rows] \
        == [("lg-groups-indices", "10x3", "80")]


@pytest.mark.parametrize("args", [["--sizes", "1000000"],
                                  ["--groups", "--sizes", "2x100000"]],
                         ids=["dense", "groups"])
def test_benchmark_checks_the_lattice_cap_before_building(capsys, args):
    # Building either instance would ask for terabytes.
    assert run(["benchmark", *args, "--repetitions", 1]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["generate", "--p", 10**7],
    ["generate", "--k", 10**7, "--n", 1],
    ["benchmark", "--groups", "--sizes", f"{10**7 // 3}x3"],
    ["generate", "--p", 2**32],
], ids=["generate-dense", "generate-groups", "benchmark-groups",
        "generate-past-address-space"])
def test_instances_past_the_size_cap_are_not_built(capsys, args):
    # Each passes the lattice cap, but its p x p covariance (over 700 TiB)
    # exceeds any address space; it is asked for before any draw, so the
    # verb fails at once with one line.
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_benchmark_bad_sizes(tmp_path):
    assert run(["benchmark", "--sizes", "2x2"]) == 4
    assert run(["benchmark", "--sizes", "abc"]) == 4


def test_benchmark_empty_sizes_exit_4_with_one_line(capsys):
    assert run(["benchmark", "--sizes", ","]) == 4
    assert capsys.readouterr().err == "error: --sizes is empty\n"


def test_benchmark_without_out_writes_the_csv_to_stdout(capsys):
    assert run(["benchmark", "--sizes", "2", "--repetitions", 1]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["algorithm"], r["eval_count"]) for r in rows] \
        == [("lg-indices", "4"), ("exact-permutations", "4")]


def _verb_inputs(tmp_path):
    """Input flags of each verb that reads files, on small valid files."""
    model = write_json(tmp_path / "m.json", {
        "beta": [1.0, 1.0, 0.5], "gamma": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]]})
    expr = write_json(tmp_path / "e.json", {
        "f": "x1 + 2*x2 + x3*x3",
        "blocks": [{"inputs": ["x1", "x2"], "expr": "x1 + 2*x2"},
                   {"inputs": ["x3"], "expr": "x3*x3"}]})
    dist = write_json(tmp_path / "d.json", {
        "gamma": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]]})
    return {"compute": ["--model", model], "estimate": ["--model", model],
            "mc": ["--model", expr, "--dist", dist]}


@pytest.mark.parametrize("args", [
    ["mc", "--m", 0],
    ["mc", "--n-inner", 1],
    ["mc", "--n-outer", 0],
    ["mc", "--n-var", 1],
    ["generate", "--p", 0],
    ["generate", "--k", 0, "--n", 2],
    ["compute", "--groups", "--eps-block", -1],
    ["compute", "--groups", "--eps-block", "nan"],
    ["compute", "--groups", "--eps-block", "inf"],
    ["benchmark", "--sizes", 0],
    ["benchmark", "--groups", "--sizes", "0x2"],
    ["benchmark", "--sizes", 3, "--repetitions", 0],
    ["estimate", "--m", 0],
    ["estimate", "--reps", 0],
    ["estimate", "--seed", -1],
], ids=lambda args: " ".join(map(str, args)))
def test_out_of_range_flag_exits_4_with_one_line(tmp_path, capsys, args):
    # Before the shared flag check most of these ended in a ValueError
    # traceback; --eps-block nan put every variable in its own group.
    out = tmp_path / "out"
    argv = [args[0], *_verb_inputs(tmp_path).get(args[0], []), *args[1:],
            "--out", out]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1
    assert " must be a finite number >= " in err
    assert not out.exists()


@pytest.mark.parametrize("args, says", [
    (["estimate", "--m", "abc"], "argument --m: invalid int value: 'abc'"),
    (["compute", "--model"], "argument --model: expected one argument"),
    (["compute"], "the following arguments are required: --model"),
    (["compute", "--model", "m.json", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    # Refused before the model file is read.
    (["compute", "--model", "m.json", "--eps-block", 0.5],
     "--eps-block needs --groups"),
    (["compute", "--model", "m.json", "--eps-block", 0],
     "--eps-block needs --groups"),
], ids=["bad-int", "flag-without-value", "missing-model", "unknown-flag",
        "unknown-verb", "no-verb", "eps-block-without-groups",
        "eps-block-0-without-groups"])
def test_usage_error_exits_4_with_one_line(capsys, args, says):
    # argparse exited 2, the validation code, after a usage block; an
    # --eps-block without --groups was ignored.
    assert run(args) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and says in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("args", [[], ["compute"], ["mc"]])
def test_help_exits_0_with_its_usage_on_stdout(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run([*args, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: shapley-lg") and captured.err == ""


@pytest.mark.parametrize("verb, flag", [
    ("compute", "--model"), ("compute", "--out"),
    ("estimate", "--model"), ("estimate", "--out"),
    ("generate", "--out"), ("benchmark", "--out"),
    ("mc", "--model"), ("mc", "--dist"), ("mc", "--out"),
], ids=lambda arg: arg)
def test_empty_path_flag_exits_4_naming_the_flag(tmp_path, capsys, verb,
                                                 flag):
    # An empty --out was reported as "cannot write <stdout>", an empty
    # input as "cannot read : [Errno 21] Is a directory: '.'".
    extra = {"generate": ["--p", 3], "benchmark": ["--sizes", 3]}
    argv = [verb, *_verb_inputs(tmp_path).get(verb, []), *extra.get(verb, []),
            "--out", tmp_path / "out", flag, ""]
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} is empty\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["compute"],
    ["compute", "--groups"],
    ["generate", "--p", 3],
    ["benchmark", "--sizes", 3, "--repetitions", 1],
    ["estimate"],
    ["estimate", "--reps", 3],
    ["mc", "--m", 5, "--n-outer", 5],
    ["mc", "--blocks", "--m", 5, "--n-outer", 5],
], ids=lambda args: " ".join(map(str, args)))
def test_unwritable_out_exits_4_with_one_line(tmp_path, capsys, args):
    # Each of these ended in a FileNotFoundError traceback.
    out = tmp_path / "missing" / "out.json"
    argv = [args[0], *_verb_inputs(tmp_path).get(args[0], []), *args[1:],
            "--out", out]
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    # estimate --reps prints its summary only after the report is written
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["compute"],
    ["compute", "--groups"],
    ["generate", "--p", 3],
    ["benchmark", "--sizes", 3, "--repetitions", 1],
    ["estimate"],
    ["mc", "--m", 5, "--n-outer", 5],
], ids=lambda args: " ".join(map(str, args)))
def test_failed_write_names_the_file(tmp_path, capsys, args):
    # The file opens, then writing or closing it fails; that error named
    # <stdout>, not the file.
    argv = [args[0], *_verb_inputs(tmp_path).get(args[0], []), *args[1:],
            "--out", "/dev/full"]
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == ("error: cannot write /dev/full: "
                            f"{os.strerror(errno.ENOSPC)}\n")
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["estimate", "--m", 10**15],
    ["mc", "--n-var", 10**15],
    ["mc", "--blocks", "--n-var", 10**15],
    ["mc", "--m", 10**15, "--budget", 10**18],
    ["mc", "--n-outer", 10**13, "--budget", 10**18],
    ["mc", "--blocks", "--n-outer", 10**13, "--budget", 10**18],
], ids=lambda args: " ".join(map(str, args)))
def test_unallocatable_sampling_size_exits_3_with_one_line(tmp_path, capsys,
                                                           args):
    # Each asks numpy for petabytes, past any address space, and ended in
    # a MemoryError traceback.
    out = tmp_path / "out.json"
    argv = [args[0], *_verb_inputs(tmp_path)[args[0]], *args[1:],
            "--out", out]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["estimate", "--m", 10**18],
    ["estimate", "--m", 2, "--reps", 10**18],
    ["mc", "--n-var", 10**18],
    ["mc", "--blocks", "--n-var", 10**18],
    ["mc", "--m", 10**18, "--budget", 10**22],
    ["mc", "--n-outer", 10**18, "--budget", 10**22],
], ids=lambda args: " ".join(map(str, args)))
def test_sizes_past_the_address_space_exit_3_with_one_line(tmp_path, capsys,
                                                           args):
    # numpy raises ValueError, not MemoryError, for these; each ended in a
    # traceback and exit 1.
    out = tmp_path / "out.json"
    argv = [args[0], *_verb_inputs(tmp_path)[args[0]], *args[1:],
            "--out", out]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: array is too big")
    assert err.count("\n") == 1
    assert not out.exists()


def test_bare_memory_error_exits_3_with_a_message(tmp_path, capsys,
                                                  monkeypatch):
    def exhausted(model):
        raise MemoryError
    monkeypatch.setattr(cli, "lg_indices", exhausted)
    assert run(["compute", *_verb_inputs(tmp_path)["compute"]]) == 3
    assert capsys.readouterr().err == \
        "error: out of memory: an array is too large\n"


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("reps", [10**8, 10**15])
def test_replicates_past_memory_exit_3_with_one_line(tmp_path, reps):
    # Under a 2 GiB address-space limit. The (reps, p) result is asked for
    # before any ordering is drawn, so it fails at once with one line.
    src = str(Path(shapley_lg.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = 2 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "shapley_lg", "estimate",
         *map(str, _verb_inputs(tmp_path)["estimate"]), "--m", "1",
         "--reps", str(reps), "--out", str(out)],
        capture_output=True, text=True, env=env,
        preexec_fn=cap_address_space, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: out of memory: Unable to allocate ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_mc_linear_expression_matches_compute(tmp_path):
    beta = [1.5, -0.5]
    gamma = [[1.0, 0.3], [0.3, 1.0]]
    expr = write_json(tmp_path / "expr.json", {
        "consts": {"b1": beta[0], "b2": beta[1]},
        "f": "b1*x1 + b2*x2",
    })
    dist = write_json(tmp_path / "dist.json", {"gamma": gamma})
    out = tmp_path / "mc.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--m", 400,
                "--n-outer", 200, "--n-inner", 2, "--seed", 3,
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    exact = lg_indices(validate_model(beta, gamma)).shapley
    assert np.abs(np.array(doc["shapley"]) - exact).max() < 0.05
    assert sum(doc["shapley"]) == pytest.approx(1.0, abs=1e-10)


def test_mc_blocks_expression(tmp_path):
    expr = write_json(tmp_path / "expr.json", {
        "defs": {
            "z1": "x1^2 + 1.2*x2^2",
            "z2": "1.4*x3^2 + 1.6*x4^2",
        },
        "f": "cos(z1) + z1 + cos(z2) + z2",
        "blocks": [
            {"inputs": ["x1", "x2"], "expr": "cos(z1) + z1"},
            {"inputs": ["x3", "x4"], "expr": "cos(z2) + z2"},
        ],
    })
    dist = write_json(tmp_path / "dist.json", {
        "gamma": [
            [1.0, 0.4, 0.0, 0.0],
            [0.4, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -0.3],
            [0.0, 0.0, -0.3, 1.0],
        ],
    })
    out = tmp_path / "mc.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--blocks",
                "--m", 50, "--n-outer", 50, "--seed", 1, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["algorithm"] == "block-additive-mc"
    assert sum(doc["shapley"]) == pytest.approx(1.0, abs=1e-10)


def test_mc_blocks_reads_slices_of_the_checked_distribution(tmp_path):
    # The second block's smallest eigenvalue, -1e-12, passes the whole
    # matrix's PSD tolerance but not its own: slicing the checked input
    # instead of checking each block again lets --blocks run as mc does.
    expr = write_json(tmp_path / "expr.json", {
        "f": "x1 + x2 + x3",
        "blocks": [{"inputs": ["x1"], "expr": "x1"},
                   {"inputs": ["x2", "x3"], "expr": "x2 + x3"}]})
    dist = write_json(tmp_path / "dist.json", {
        "gamma": [[1, 0, 0], [0, 1e-6, 1e-6], [0, 1e-6, 0.999998e-6]]})
    out = tmp_path / "mc.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--blocks",
                "--m", 20, "--n-outer", 20, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert sum(doc["shapley"]) == pytest.approx(1.0, abs=1e-10)


def test_mc_oscillatory_function_runs_and_normalizes(tmp_path):
    # cos(z) + z - 100 + 0.2 sin(10 z) with z a weighted square sum.
    p = 6
    weights = [1 + (i - 1) / (p - 1) for i in range(1, p + 1)]
    z_terms = " + ".join(f"{weights[i]!r}*x{i + 1}^2" for i in range(p))
    expr = write_json(tmp_path / "expr.json", {
        "defs": {"z": z_terms},
        "f": "cos(z) + z - 100 + 0.2*sin(10*z)",
    })
    rng = np.random.default_rng(0)
    gamma = np.zeros((p, p))
    for j in range(3):
        a = rng.standard_normal((2, 2))
        gamma[2 * j:2 * j + 2, 2 * j:2 * j + 2] = a @ a.T
    dist = write_json(tmp_path / "dist.json", {"gamma": gamma.tolist()})
    out = tmp_path / "mc.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--m", 20,
                "--n-outer", 40, "--n-var", 2000, "--seed", 2,
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert sum(doc["shapley"]) == pytest.approx(1.0, abs=1e-10)


def test_mc_parse_error(tmp_path):
    expr = write_json(tmp_path / "expr.json", {"f": "x1 +* x2"})
    dist = write_json(tmp_path / "dist.json", {"gamma": [[1.0, 0.0],
                                                         [0.0, 1.0]]})
    assert run(["mc", "--model", expr, "--dist", dist]) == 4


def test_mc_runs_a_20000_term_sum(tmp_path):
    expr = write_json(tmp_path / "expr.json",
                      {"f": " + ".join(["x1", "x2"] * 10_000)})
    dist = write_json(tmp_path / "dist.json", {"gamma": [[1.0, 0.0],
                                                         [0.0, 1.0]]})
    out = tmp_path / "mc.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--m", 4,
                "--n-outer", 4, "--n-var", 100, "--out", out]) == 0
    assert sum(json.loads(out.read_text())["shapley"]) == pytest.approx(1.0)


def test_mc_deep_nesting_exits_4_with_one_line(tmp_path, capsys):
    expr = write_json(tmp_path / "expr.json",
                      {"f": "(" * 5000 + "x1" + ")" * 5000})
    dist = write_json(tmp_path / "dist.json", {"gamma": [[1.0]]})
    assert run(["mc", "--model", expr, "--dist", dist]) == 4
    err = capsys.readouterr().err
    assert "nests too deeply" in err and err.count("\n") == 1


_EYE2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("verb, expr, gamma, code, text", [
    (["mc"], {"f": "x1 + a", "consts": {"a": 1.0}, "defs": {"a": "x1"}},
     _EYE2, 4, "a name is declared twice"),
    (["mc"], {"f": "x1 + x2 + d", "defs": {"d": "x1 * y"}},
     _EYE2, 4, "unknown name 'y'"),
    (["mc"], {"f": "x1 + x2"}, [[1.0, 0.0]], 2, "DimensionMismatch: "),
    # A constant's square root of -4 is NaN, not a complex number cast to
    # its real part.
    (["mc"], {"f": "x1 * c^0.5 + x2", "consts": {"c": -4}},
     _EYE2, 2, "error: NotFinite: "),
], ids=["declared-twice", "strict-defs", "gamma-not-square", "const-nan"])
def test_mc_bad_inputs_exit_with_one_line(tmp_path, capsys, verb, expr,
                                          gamma, code, text):
    model = write_json(tmp_path / "expr.json", expr)
    dist = write_json(tmp_path / "dist.json", {"gamma": gamma})
    out = tmp_path / "out.json"
    assert run([*verb, "--model", model, "--dist", dist, "--m", 5,
                "--n-outer", 5, "--out", out]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_mc_budget_error(tmp_path):
    expr = write_json(tmp_path / "expr.json", {"f": "x1"})
    dist = write_json(tmp_path / "dist.json", {"gamma": [[1.0]]})
    assert run(["mc", "--model", expr, "--dist", dist, "--m", 1000,
                "--budget", 10]) == 3


def test_mc_constant_expression_rejected(tmp_path):
    expr = write_json(tmp_path / "expr.json", {"f": "3 + 4"})
    dist = write_json(tmp_path / "dist.json", {"gamma": [[1.0]]})
    assert run(["mc", "--model", expr, "--dist", dist]) == 2


# numpy's overflow and division warnings would be lines of stderr of their
# own; as errors they fail the test.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", ["exp(1000*x1) + x2",
                               "x1 * (x2 - x2) / (x2 - x2)",
                               # Constant arithmetic follows numpy's rules:
                               # these were an OverflowError and a
                               # ZeroDivisionError traceback, and a complex
                               # constant cast to its real part.
                               "10^400 * x1 + x2",
                               "(1/0) * 0 + x1 + x2",
                               "x1 * (-8)^(1/3) + x2"])
def test_mc_rejects_non_finite_output_variance(tmp_path, capsys, f):
    expr = write_json(tmp_path / "expr.json", {"f": f})
    dist = write_json(tmp_path / "dist.json", {"gamma": [[1.0, 0.0],
                                                         [0.0, 1.0]]})
    out = tmp_path / "mc.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--m", 5,
                "--n-outer", 10, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotFinite:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("corr", [0.9, 0.0])
def test_mc_blocks_reads_its_blocks_off_the_terms_and_covariance(tmp_path,
                                                                 corr):
    # The declared blocks split the correlated x1 and x2, and their terms
    # do not sum to f; they are not read. Run on them, --blocks gave
    # (0.04, 0.04, 0.92) where the exact values are (0.066, 0.066, 0.868).
    gamma = [[1.0, corr, 0.0], [corr, 1.0, 0.0], [0.0, 0.0, 1.0]]
    expr = write_json(tmp_path / "expr.json", {
        "f": "x1 + x2 + 5*x3",
        "blocks": [{"inputs": ["x1"], "expr": "x1"},
                   {"inputs": ["x2", "x3"], "expr": "x2"}],
    })
    dist = write_json(tmp_path / "dist.json", {"gamma": gamma})
    out = tmp_path / "mc.json"
    assert run(["mc", "--model", expr, "--dist", dist, "--blocks",
                "--m", 200, "--n-outer", 50, "--out", out]) == 0
    shapley = np.array(json.loads(out.read_text())["shapley"])
    exact = lg_indices(validate_model([1.0, 1.0, 5.0], gamma)).shapley
    # Over seeds 0-9 the largest error was 0.0072.
    np.testing.assert_allclose(shapley, exact, atol=0.02)
    if corr:
        np.testing.assert_allclose(exact, [0.066, 0.066, 0.868], atol=5e-4)


def test_mc_blocks_constant_terms(tmp_path, capsys):
    # A constant block term gets weight 0; if every term is constant the
    # call exits 2 with one line and writes nothing.
    dist = write_json(tmp_path / "dist.json", {"gamma": [[1.0, 0.0],
                                                         [0.0, 1.0]]})

    def mc(f, blocks, out):
        expr = write_json(tmp_path / "expr.json", {
            "f": f, "blocks": [{"inputs": ["x1"], "expr": blocks[0]},
                               {"inputs": ["x2"], "expr": blocks[1]}]})
        return run(["mc", "--model", expr, "--dist", dist, "--blocks",
                    "--m", 5, "--n-outer", 10, "--out", out])

    assert mc("2*x1 + 3", ["2*x1", "3"], tmp_path / "one.json") == 0
    assert json.loads((tmp_path / "one.json").read_text())["shapley"] \
        == [1.0, 0.0]
    assert mc("3 + 4", ["3", "4"], tmp_path / "all.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ZeroOutputVariance:")
    assert err.count("\n") == 1
    assert not (tmp_path / "all.json").exists()


def _child_env():
    """The environment of a child process that imports the package these
    tests import, also when only pytest's ``pythonpath`` setting puts it on
    sys.path."""
    src = str(Path(shapley_lg.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(tmp_path):
    env = _child_env()
    model = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "shapley_lg", "generate", "--p", "3",
         "--seed", "1", "--out", str(model)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "shapley_lg", "compute", "--model", str(model)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert sum(doc["shapley"]) == pytest.approx(1.0, abs=1e-10)


def test_cli_import_leaves_scipy_and_jsonschema_out():
    # numpy is the one dependency of the runtime.
    code = ("import sys, shapley_lg.cli; print(sorted(name for name in "
            "sys.modules if name.split('.')[0] in ('scipy', 'jsonschema')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reused_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser; each call must still see only its own flags.
    assert cli.build_parser() is cli.build_parser()
    model = write_json(tmp_path / "m.json", {
        "beta": [1.0, 1.0, 1.0],
        "gamma": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]],
    })
    fresh = tmp_path / "fresh.json"
    proc = subprocess.run(
        [sys.executable, "-m", "shapley_lg", "compute", "--model",
         str(model), "--out", str(fresh)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0 and proc.stderr == ""

    r1, r2, r3 = (tmp_path / f"r{i}.json" for i in (1, 2, 3))
    assert run(["compute", "--model", model, "--groups", "--eps-block", 0.5,
                "--out", r1]) == 0
    assert "warning: --eps-block 0.5" in capsys.readouterr().err
    assert run(["compute", "--model", model, "--out", r2]) == 0
    assert capsys.readouterr().err == ""
    assert r2.read_bytes() == fresh.read_bytes()

    assert run(["compute", "--model", model, "--bogus"]) == 4
    assert run(["compute", "--model", model, "--out", r3]) == 0
    assert r3.read_bytes() == fresh.read_bytes()


def test_warm_calls_build_no_parser(tmp_path, monkeypatch):
    # Building the parser took about 30% of a compute --groups call on
    # 4x6 blocks; after the first call, no call may build it again.
    model = tmp_path / "m.json"
    assert run(["generate", "--k", 2, "--n", 3, "--out", model]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(20):
        assert run(["compute", "--model", model, "--groups",
                    "--out", tmp_path / "r.json"]) == 0
    assert built == []
