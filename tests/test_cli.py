import argparse
import filecmp
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import setn
from setn.cli import build_parser, main
from setn.training import TrainConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_args(out_dir, seed=7, n=60):
    return ["synth", "--out", str(out_dir), "--seed", str(seed), "--n", str(n),
            "--sectors", "3", "--industries", "5", "--vocab-size", "80",
            "--tokens-per-doc", "8", "--text-signal", "0.9", "--graph-signal", "0.8",
            "--theme-count", "4"]


@pytest.fixture
def dataset_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, stdout, _ = run_cli(capsys, *synth_args(out))
    assert code == 0
    return out


@pytest.fixture
def checkpoint(tmp_path, dataset_dir, capsys):
    model_path = tmp_path / "model.setn"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "hidden_dim": 8, "encoder_depth": 1,
                                  "max_tokens": 16, "seed": 1}))
    code, stdout, _ = run_cli(
        capsys, "train",
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--vocab", str(dataset_dir / "vocab.txt"),
        "--config", str(config),
        "--out", str(model_path))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["config"]["epochs"] == 2
    assert len(payload["epochs"]) == 2
    return model_path


def test_synth_is_byte_identical_per_seed(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *synth_args(a))[0] == 0
    assert run_cli(capsys, *synth_args(b))[0] == 0
    for name in ("nodes.jsonl", "edges.tsv", "themes.jsonl", "vocab.txt"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_synth_seed_changes_output(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, *synth_args(a, seed=1))
    run_cli(capsys, *synth_args(b, seed=2))
    assert not filecmp.cmp(a / "nodes.jsonl", b / "nodes.jsonl", shallow=False)


def test_train_then_eval_map_emits_six_values(dataset_dir, checkpoint, capsys):
    code, stdout, stderr = run_cli(
        capsys, "eval-map",
        "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--k", "2,3,5")
    assert code == 0
    payload = json.loads(stdout)
    values = [payload[level][f"map@{k}"] for level in ("topix17", "topix33")
              for k in (2, 3, 5)]
    assert len(values) == 6
    assert all(0.0 <= v <= 1.0 for v in values)
    # the human table carries the same numbers as the JSON
    for v in values:
        assert f"{v:.3f}" in stderr


def test_eval_theme_reports_random_baseline(dataset_dir, checkpoint, capsys):
    code, stdout, _ = run_cli(
        capsys, "eval-theme",
        "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--themes", str(dataset_dir / "themes.jsonl"),
        "--min-theme-size", "2")
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload["themes"]) == set(payload["random_guess"]["themes"])
    assert payload["universe_size"] == 12


def test_embed_exports_readable_tsv(dataset_dir, checkpoint, tmp_path, capsys):
    out = tmp_path / "emb.tsv"
    code, stdout, _ = run_cli(
        capsys, "embed",
        "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--out", str(out))
    assert code == 0
    from setn.data import load_embeddings
    ids, vectors = load_embeddings(out)
    assert len(ids) == 60
    assert vectors.shape == (60, 8)


def test_ablate_axis_rows(dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "hidden_dim": 8, "encoder_depth": 1,
                                  "max_tokens": 16}))
    code, stdout, stderr = run_cli(
        capsys, "ablate",
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--config", str(config),
        "--axes", "graph_type",
        "--k", "3")
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["rows"]) == 2
    assert "directed" in stderr and "undirected" in stderr


def test_flag_overrides_config_file(dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "hidden_dim": 8, "encoder_depth": 1,
                                  "max_tokens": 16, "gnn": "gcn"}))
    model_path = tmp_path / "model.setn"
    code, stdout, _ = run_cli(
        capsys, "train",
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--config", str(config),
        "--gnn", "none",
        "--out", str(model_path))
    assert code == 0
    assert json.loads(stdout)["config"]["gnn"] == "none"


def test_unknown_config_key_is_data_error(dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epoch": 1}))
    code, _, stderr = run_cli(
        capsys, "train",
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--config", str(config),
        "--out", str(tmp_path / "m.setn"))
    assert code == 1
    assert "epoch" in stderr


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "eval-map",
        "--model", str(tmp_path / "missing.setn"),
        "--nodes", str(tmp_path / "missing.jsonl"),
        "--edges", str(tmp_path / "missing.tsv"))
    assert code == 1
    assert "error" in stderr.lower()


@pytest.mark.parametrize("command, k, bad", [
    ("eval-map", "0", "0"),
    ("eval-map", "3,-1", "-1"),
    ("ablate", "5,0", "0"),
])
def test_k_below_one_is_one_error_line_before_any_model_work(tmp_path, capsys,
                                                             command, k, bad):
    # none of the files exist: the --k check must come first to be reported
    extra = (["--model", str(tmp_path / "missing.setn")] if command == "eval-map"
             else ["--axes", "residual"])
    code, _, stderr = run_cli(
        capsys, command, *extra,
        "--nodes", str(tmp_path / "missing.jsonl"),
        "--edges", str(tmp_path / "missing.tsv"),
        "--k", k)
    assert code == 1
    lines = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert lines == [f"error: --k values must be at least 1, got {bad}"]
    assert "Traceback" not in stderr


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "x", "--bogus"])
    assert exc.value.code == 2


def test_gnn_kind_mismatch_on_eval(dataset_dir, checkpoint, capsys):
    code, _, stderr = run_cli(
        capsys, "eval-map",
        "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--gnn", "gat")
    assert code == 1
    assert "gat" in stderr


@pytest.mark.parametrize("config_text, expected", [
    ('{"pooling": "avg"}', "unknown pooling strategy 'avg'"),
    ('{"dropout": 1.0}', "dropout rate must be in [0, 1)"),
    ('{bad', "malformed config JSON"),
    ('{"frozen_text_cache": true}', "unknown config keys"),
    ('5', "config must be a JSON object"),
    ('{"epochs": "x"}', f"config field 'epochs': must be an integer in [1, {sys.maxsize}], got 'x'"),
    ('{"hidden_dim": 0}', "config field 'hidden_dim': must be an integer of at least 1, got 0"),
    ('{"neighbor_direction": "sideways"}', "unknown neighbor direction 'sideways'"),
    ('{"encoder_train": "most"}', "unknown encoder training policy 'most'"),
    ('{"gnn": "gin"}', "unknown GNN kind 'gin'"),
    # integers past the float range, and past Python's digit limit
    pytest.param('{"learning_rate": 1' + "0" * 400 + "}",
                 "config field 'learning_rate': expected a finite number", id="learning_rate-1e400"),
    pytest.param('{"proportions": [1' + "0" * 400 + ", 1, 1]}",
                 "config field 'proportions'", id="proportions-1e400"),
    pytest.param('{"seed": 1' + "0" * 5000 + "}", "config JSON holds an integer of more than 4300 digits",
                 id="seed-5001-digits"),
    ('{"epochs": 3, "epochs": 5}', "config JSON repeats the key 'epochs'"),
])
def test_bad_config_is_one_honest_error_line(dataset_dir, tmp_path, capsys,
                                             config_text, expected):
    config = tmp_path / "config.json"
    config.write_text(config_text)
    code, _, stderr = run_cli(
        capsys, "train",
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--config", str(config),
        "--out", str(tmp_path / "m.setn"))
    assert code == 1
    lines = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert expected in lines[0]
    assert "non-finite" not in stderr
    assert "Traceback" not in stderr
    if config_text == '{bad':
        assert str(config) in lines[0]


@pytest.mark.parametrize("flag, choice, field, expected, in_file", [
    ("--seed", "5", "seed", 5, 1),
    ("--gnn", "gat", "gnn", "gat", "gcn"),
    ("--gnn", "none", "gnn", "none", "gcn"),
    ("--residual", "off", "residual", False, True),
    ("--residual", "on", "residual", True, False),
    ("--graph", "undirected", "directed", False, True),
    ("--graph", "directed", "directed", True, False),
    ("--encoder-train", "all", "encoder_train", "all", "last"),
    ("--encoder-train", "none", "encoder_train", "none", "last"),
    ("--pooling", "cls", "pooling", "cls", "mean"),
    ("--pooling", "max", "pooling", "max", "mean"),
])
def test_each_config_flag_sets_its_field_over_the_file(dataset_dir, tmp_path, capsys, flag,
                                                       choice, field, expected, in_file):
    base = {"epochs": 1, "hidden_dim": 8, "encoder_depth": 1, "max_tokens": 16,
            field: in_file}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base))
    code, stdout, _ = run_cli(
        capsys, "train",
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--config", str(config),
        flag, choice,
        "--out", str(tmp_path / "m.setn"))
    assert code == 0
    assert json.loads(stdout)["config"] == {**TrainConfig().to_dict(), **base, field: expected}


_REQUIRED = (None, None, True, None)
_OPTIONAL = (None, None, False, None)
_DATASET = {"--nodes": _REQUIRED, "--edges": _REQUIRED, "--taxonomy": _OPTIONAL}
_GNN = (["gcn", "gat", "none"], None, False, None)
_CONFIG = {
    "--config": _OPTIONAL,
    "--seed": (None, None, False, int),
    "--gnn": _GNN,
    "--residual": (["on", "off"], None, False, None),
    "--graph": (["directed", "undirected"], None, False, None),
    "--encoder-train": (["all", "last", "none"], None, False, None),
    "--pooling": (["cls", "mean", "max"], None, False, None),
}
_CHECKPOINT = {**_DATASET, "--model": _REQUIRED, "--gnn": _GNN}
_KS = (None, "5,10,50", False, None)

# (choices, default, required, type) of every option of every subcommand
_OPTIONS = {
    "synth": {
        "--out": _REQUIRED,
        "--seed": (None, 0, False, int),
        "--n": (None, 300, False, int),
        "--sectors": (None, 17, False, int),
        "--industries": (None, 33, False, int),
        "--vocab-size": (None, 400, False, int),
        "--tokens-per-doc": (None, 24, False, int),
        "--avg-degree": (None, 6, False, int),
        "--graph-signal": (None, 0.6, False, float),
        "--direction-signal": (None, 0.0, False, float),
        "--text-signal": (None, 0.6, False, float),
        "--theme-count": (None, 8, False, int),
    },
    "train": {**_DATASET, "--vocab": _OPTIONAL, "--out": _REQUIRED, **_CONFIG},
    "eval-map": {**_CHECKPOINT, "--k": _KS},
    "eval-theme": {**_CHECKPOINT, "--themes": _REQUIRED,
                   "--min-theme-size": (None, 16, False, int)},
    "embed": {**_CHECKPOINT, "--out": _REQUIRED,
              "--format": (["tsv", "binary"], "tsv", False, None),
              "--split": (["all", "train", "val", "test"], "all", False, None)},
    "ablate": {**_DATASET, "--axes": _REQUIRED, "--k": _KS, **_CONFIG},
}


def test_every_subcommand_keeps_its_options_and_choices():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(_OPTIONS)
    for name, sub in commands.items():
        options = {opt: (list(a.choices) if a.choices else None, a.default, a.required, a.type)
                   for a in sub._actions if not isinstance(a, argparse._HelpAction)
                   for opt in a.option_strings}
        assert options == _OPTIONS[name], name


def _error_lines(stderr):
    assert "Traceback" not in stderr
    return [line for line in stderr.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("command, directory_arg", [
    ("embed", "--model"),
    ("train", "--nodes"),
    ("train", "--config"),
])
def test_directory_in_place_of_a_file_is_one_error_line(dataset_dir, tmp_path, capsys,
                                                        command, directory_arg):
    args = {"--nodes": str(dataset_dir / "nodes.jsonl"),
            "--edges": str(dataset_dir / "edges.tsv"),
            "--out": str(tmp_path / "out")}
    if command == "embed":
        args["--model"] = str(tmp_path / "missing.setn")
    args[directory_arg] = str(tmp_path)
    code, _, stderr = run_cli(capsys, command, *[x for pair in args.items() for x in pair])
    assert code == 1
    lines = _error_lines(stderr)
    assert len(lines) == 1 and str(tmp_path) in lines[0]


@pytest.mark.parametrize("broken", ["no-model-key", "missing-parameter"])
def test_malformed_checkpoint_is_one_error_line(dataset_dir, checkpoint, tmp_path, capsys,
                                                broken):
    blob = checkpoint.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + header_len])
    blocks = blob[16 + header_len:-8]
    if broken == "no-model-key":
        del header["model"]
    else:
        entry = header["params"].pop()
        blocks = blocks[:-8 * math.prod(entry["shape"])]
    payload = json.dumps(header).encode("utf-8")
    body = blob[:8] + struct.pack("<Q", len(payload)) + payload + blocks
    checkpoint.write_bytes(body + hashlib.sha256(body).digest()[:8])
    code, _, stderr = run_cli(
        capsys, "embed", "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--out", str(tmp_path / "emb.tsv"))
    assert code == 1
    lines = _error_lines(stderr)
    assert len(lines) == 1 and str(checkpoint) in lines[0]


@pytest.mark.parametrize("axes, expected", [
    ("phase_of_moon", "unknown ablation axis 'phase_of_moon'"),
    ("residual,bogus", "unknown ablation axis 'bogus'"),
    (",", "ablation needs at least one axis"),
    ("residual,gnn_kind,residual", "repeated ablation axis 'residual'"),
])
def test_bad_axes_are_one_error_line_before_any_file_is_read(tmp_path, capsys, axes, expected):
    code, _, stderr = run_cli(
        capsys, "ablate", "--axes", axes,
        "--nodes", str(tmp_path / "missing.jsonl"),
        "--edges", str(tmp_path / "missing.tsv"),
        "--config", str(tmp_path / "missing.json"))
    assert code == 1
    lines = _error_lines(stderr)
    assert len(lines) == 1 and expected in lines[0]


@pytest.mark.parametrize("which", ["nodes", "edges", "themes", "vocab", "taxonomy", "config"])
def test_non_utf8_input_is_one_error_line_naming_the_file(dataset_dir, tmp_path, capsys,
                                                         request, which):
    files = {"nodes": dataset_dir / "nodes.jsonl", "edges": dataset_dir / "edges.tsv",
             "themes": dataset_dir / "themes.jsonl", "vocab": dataset_dir / "vocab.txt",
             "taxonomy": dataset_dir / "taxonomy.json", "config": tmp_path / "config.json"}
    files["config"].write_text(json.dumps({"epochs": 1, "hidden_dim": 8, "encoder_depth": 1,
                                           "max_tokens": 16}))
    checkpoint = request.getfixturevalue("checkpoint") if which == "themes" else None
    bad = files[which]
    bad.write_bytes(b"caf\xe9\n" + bad.read_bytes())  # a Latin-1 byte
    data = ["--nodes", str(files["nodes"]), "--edges", str(files["edges"])]
    if which == "themes":
        argv = ["eval-theme", "--model", str(checkpoint), *data,
                "--themes", str(files["themes"]), "--min-theme-size", "2"]
    else:
        argv = ["train", *data, "--out", str(tmp_path / "m.setn"),
                "--config", str(files["config"]), "--vocab", str(files["vocab"]),
                "--taxonomy", str(files["taxonomy"])]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 1
    lines = _error_lines(stderr)
    assert len(lines) == 1
    assert f"{bad}: not UTF-8 text" in lines[0]


@pytest.mark.parametrize("which", ["nodes", "themes", "taxonomy"])
def test_json_integer_past_the_digit_limit_is_one_error_line(dataset_dir, tmp_path, capsys,
                                                             request, which):
    long_int = "1" + "0" * sys.get_int_max_str_digits()
    files = {"nodes": dataset_dir / "nodes.jsonl", "edges": dataset_dir / "edges.tsv",
             "themes": dataset_dir / "themes.jsonl", "taxonomy": dataset_dir / "taxonomy.json"}
    checkpoint = request.getfixturevalue("checkpoint") if which == "themes" else None
    bad = files[which]
    if which == "taxonomy":
        bad.write_text('{"sectors": [' + long_int + "]}")
        where = f"{bad}: taxonomy JSON"
    else:
        bad.write_text('{"topix33": ' + long_int + "}\n" + bad.read_text())
        where = f"{bad}:1: JSON"
    data = ["--nodes", str(files["nodes"]), "--edges", str(files["edges"])]
    if which == "themes":
        argv = ["eval-theme", "--model", str(checkpoint), *data,
                "--themes", str(bad), "--min-theme-size", "2"]
    else:
        argv = ["train", *data, "--out", str(tmp_path / "m.setn"), "--taxonomy", str(files["taxonomy"])]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert _error_lines(stderr) == [
        f"error: {where} holds an integer of more than {sys.get_int_max_str_digits()} digits"]


@pytest.mark.parametrize("field, value", [("hidden_dim", 2 ** 62), ("max_tokens", 2 ** 62),
                                          ("encoder_depth", 2 ** 62)])
def test_config_sizes_no_array_can_hold_are_one_error_line(dataset_dir, tmp_path, capsys,
                                                           field, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    code, _, stderr = run_cli(
        capsys, "train", "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"), "--config", str(config),
        "--out", str(tmp_path / "m.setn"))
    assert code == 1
    lines = _error_lines(stderr)
    assert len(lines) == 1 and lines[0].startswith(f"error: config field {field!r}: ")
    assert "than one array can" in lines[0]


@pytest.mark.parametrize("members", [5, "S0001"])
def test_themes_line_whose_members_is_not_a_list_is_one_error_line(dataset_dir, checkpoint,
                                                                   capsys, members):
    themes = dataset_dir / "themes.jsonl"
    themes.write_text(json.dumps({"theme": "bad", "members": members}) + "\n"
                      + themes.read_text())
    code, _, stderr = run_cli(
        capsys, "eval-theme", "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--themes", str(themes), "--min-theme-size", "2")
    assert code == 1
    lines = _error_lines(stderr)
    assert len(lines) == 1
    assert f"{themes}:1: theme 'members' must be a JSON list" in lines[0]


@pytest.mark.parametrize("key, value", [("ticker", 7), ("text", None)])
def test_nodes_field_that_is_not_a_string_is_one_error_line(dataset_dir, tmp_path, capsys,
                                                            key, value):
    nodes = dataset_dir / "nodes.jsonl"
    lines = nodes.read_text().splitlines()
    first = json.loads(lines[0])
    first[key] = value
    nodes.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "hidden_dim": 8, "encoder_depth": 1,
                                  "max_tokens": 16}))
    code, _, stderr = run_cli(
        capsys, "train", "--nodes", str(nodes), "--edges", str(dataset_dir / "edges.tsv"),
        "--config", str(config), "--out", str(tmp_path / "m.setn"))
    assert code == 1
    lines = _error_lines(stderr)
    assert len(lines) == 1
    assert f"{nodes}:1: '{key}' must be a JSON string" in lines[0]


@pytest.mark.parametrize("key, bad", [("sectors", 1), ("industries", ["x"])])
def test_taxonomy_name_that_is_not_a_string_is_one_error_line(dataset_dir, tmp_path, capsys,
                                                              key, bad):
    taxonomy = tmp_path / "bad.json"
    content = {"sectors": ["A"], "industries": ["X"], "industry_to_sector": {"X": "A"}}
    content[key] = [bad]
    taxonomy.write_text(json.dumps(content))
    code, _, stderr = run_cli(
        capsys, "train", "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"), "--taxonomy", str(taxonomy),
        "--out", str(tmp_path / "m.setn"))
    assert code == 1
    assert _error_lines(stderr) == [
        f"error: {taxonomy}: each name in {key!r} must be a JSON string, got {json.dumps(bad)}"]


@pytest.mark.parametrize("flag", ["--seed", "--avg-degree", "--theme-count", "--tokens-per-doc"])
def test_synth_negative_count_is_one_error_line(tmp_path, capsys, flag):
    code, _, stderr = run_cli(capsys, "synth", "--out", str(tmp_path / "d"), flag, "-1")
    assert code == 1
    lines = _error_lines(stderr)
    field = flag[2:].replace("-", "_")
    assert lines == [f"error: {field} must be an integer of at least 0, got -1"]


def test_synth_signal_that_is_not_a_probability_is_one_error_line_and_no_file(tmp_path, capsys):
    out = tmp_path / "d"
    code, stdout, stderr = run_cli(capsys, "synth", "--out", str(out), "--graph-signal", "nan",
                                   "--text-signal", "-3", "--direction-signal", "inf")
    assert code == 1 and stdout == ""
    assert _error_lines(stderr) == ["error: graph_signal must be a number in [0, 1], got nan"]
    assert list(tmp_path.iterdir()) == []


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("flag, content, expected", [
    ("--nodes", _DEEP_JSON + "\n", "{path}:1: JSON nested too deeply"),
    ("--config", _DEEP_JSON, "{path}: config JSON nested too deeply"),
    ("--taxonomy", _DEEP_JSON, "{path}: taxonomy JSON nested too deeply"),
])
def test_json_nested_too_deeply_is_one_error_line(dataset_dir, tmp_path, capsys,
                                                  flag, content, expected):
    # deeper than the interpreter's recursion limit, where json raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text(content)
    args = {"--nodes": str(dataset_dir / "nodes.jsonl"), "--edges": str(dataset_dir / "edges.tsv"),
            "--out": str(tmp_path / "m.setn"), flag: str(path)}
    code, _, stderr = run_cli(capsys, "train", *[x for pair in args.items() for x in pair])
    assert code == 1
    assert _error_lines(stderr) == [f"error: {expected.format(path=path)}"]


@pytest.mark.parametrize("command, k, expected", [
    ("eval-map", "5,x", "--k expects a comma-separated integer list, got '5,x'"),
    ("ablate", "1.5", "--k expects a comma-separated integer list, got '1.5'"),
    ("eval-map", ",", "--k list is empty"),
    ("ablate", " , ", "--k list is empty"),
])
def test_k_that_is_not_an_integer_list_is_one_error_line(tmp_path, capsys, command, k, expected):
    extra = (["--model", str(tmp_path / "missing.setn")] if command == "eval-map"
             else ["--axes", "residual"])
    code, _, stderr = run_cli(
        capsys, command, *extra,
        "--nodes", str(tmp_path / "missing.jsonl"),
        "--edges", str(tmp_path / "missing.tsv"),
        "--k", k)
    assert code == 1
    assert _error_lines(stderr) == [f"error: {expected}"]


def test_eval_theme_with_no_theme_left_is_one_error_line(dataset_dir, checkpoint, capsys):
    code, stdout, stderr = run_cli(
        capsys, "eval-theme",
        "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--themes", str(dataset_dir / "themes.jsonl"),
        "--min-theme-size", "1000")
    assert code == 1 and stdout == ""
    assert _error_lines(stderr) == [
        "error: no themes with at least 1000 members in the test universe"]


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_embed_split_exports_that_split_only(dataset_dir, checkpoint, tmp_path, capsys, split):
    from setn.data import Taxonomy, load_embeddings, load_nodes
    from setn.training import split_records

    out = tmp_path / "emb.tsv"
    code, stdout, _ = run_cli(
        capsys, "embed", "--model", str(checkpoint),
        "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"),
        "--split", split, "--out", str(out))
    assert code == 0
    records, _ = load_nodes(dataset_dir / "nodes.jsonl",
                            Taxonomy.from_file(dataset_dir / "taxonomy.json"))
    expected = getattr(split_records(records, TrainConfig(seed=1)), split)
    assert json.loads(stdout)["count"] == len(expected)
    assert load_embeddings(out)[0] == [records[i].ticker for i in expected]


@pytest.mark.parametrize("ticker", ["a\tb", "a\nb", "a\rb"])
def test_embed_of_a_ticker_with_a_tab_or_line_break_is_one_error_line_and_no_file(
        dataset_dir, checkpoint, tmp_path, capsys, ticker):
    from setn.data import load_embeddings

    nodes = dataset_dir / "nodes.jsonl"
    lines = nodes.read_text().splitlines()
    first = json.loads(lines[0])
    lines[0] = json.dumps({**first, "ticker": ticker})
    nodes.write_text("\n".join(lines) + "\n")
    data = ["--model", str(checkpoint), "--nodes", str(nodes),
            "--edges", str(dataset_dir / "edges.tsv")]
    out = tmp_path / "emb.tsv"
    code, stdout, stderr = run_cli(capsys, "embed", *data, "--out", str(out))
    assert code == 1 and stdout == ""
    lines = _error_lines(stderr)
    assert len(lines) == 1 and repr(ticker) in lines[0] and "--format binary" in lines[0]
    assert not out.exists()
    code, _, _ = run_cli(capsys, "embed", *data, "--out", str(out), "--format", "binary")
    assert code == 0 and load_embeddings(out)[0][0] == ticker


@pytest.mark.parametrize("gnn", ["gcn", "gat"])
def test_embed_of_a_model_whose_gnn_overflows_is_one_error_line_and_no_file(
        dataset_dir, tmp_path, capsys, gnn):
    import numpy as np

    from setn.autodiff import writing
    from setn.data import Taxonomy
    from setn.text import Vocab
    from setn.training import build_model, save_model

    taxonomy = Taxonomy.from_file(dataset_dir / "taxonomy.json")
    config = TrainConfig(hidden_dim=8, encoder_depth=1, max_tokens=16, gnn=gnn, seed=1)
    model = build_model(config, Vocab.from_file(dataset_dir / "vocab.txt"),
                        taxonomy.n_sectors, taxonomy.n_industries)
    # any feature of magnitude above 1 times this weight overflows to inf
    with writing(model.gnn.weight):
        model.gnn.weight.data[...] = np.finfo(np.float64).max
    checkpoint = tmp_path / "overflow.setn"
    save_model(model, checkpoint, config)
    out = tmp_path / "emb.tsv"
    with np.errstate(over="ignore", invalid="ignore"):
        code, stdout, stderr = run_cli(
            capsys, "embed", "--model", str(checkpoint),
            "--nodes", str(dataset_dir / "nodes.jsonl"),
            "--edges", str(dataset_dir / "edges.tsv"), "--out", str(out))
    assert code == 1 and stdout == ""
    lines = _error_lines(stderr)
    assert len(lines) == 1 and "finite" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_train_with_an_out_path_it_cannot_write_fails_before_any_training(
        dataset_dir, tmp_path, capsys, monkeypatch, where):
    import setn.cli as cli_module

    def unreachable(*args, **kwargs):
        raise AssertionError("reached model building or training")

    monkeypatch.setattr(cli_module, "build_model", unreachable)
    monkeypatch.setattr(cli_module, "train", unreachable)
    out = tmp_path / "missing" / "m.setn" if where == "missing-directory" else tmp_path
    code, stdout, stderr = run_cli(
        capsys, "train", "--nodes", str(dataset_dir / "nodes.jsonl"),
        "--edges", str(dataset_dir / "edges.tsv"), "--out", str(out))
    assert code == 1 and stdout == ""
    lines = _error_lines(stderr)
    assert len(lines) == 1 and lines[0].startswith(f"error: --out {out}")


def _train_in_a_fresh_interpreter(dataset_dir, tmp_path, edges, epochs, level):
    """``setn train`` in a new interpreter, so that SETN_LOG (unset when
    ``level`` is None) sets up the real stderr handler."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": epochs, "hidden_dim": 8, "encoder_depth": 1,
                                  "max_tokens": 16}))
    src = str(Path(setn.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "SETN_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if level is not None:
        env["SETN_LOG"] = level
    done = subprocess.run(
        [sys.executable, "-m", "setn.cli", "train", "--nodes", str(dataset_dir / "nodes.jsonl"),
         "--edges", str(edges), "--config", str(config), "--out", str(tmp_path / "m.setn")],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return done


def test_train_at_log_level_info_reports_each_epoch_once_on_stderr(dataset_dir, tmp_path):
    done = _train_in_a_fresh_interpreter(dataset_dir, tmp_path, dataset_dir / "edges.tsv", 2, "info")
    epochs = json.loads(done.stdout.splitlines()[-1])["epochs"]
    assert len(epochs) == 2
    assert [json.loads(line) for line in done.stderr.splitlines()] == epochs


@pytest.mark.parametrize("level", [None, "error"])
def test_train_warns_of_dropped_edges_unless_the_log_level_is_error(dataset_dir, tmp_path, level):
    edges = tmp_path / "edges.tsv"
    first = (dataset_dir / "edges.tsv").read_text().splitlines()[0]
    edges.write_text((dataset_dir / "edges.tsv").read_text() + first + "\n")
    done = _train_in_a_fresh_interpreter(dataset_dir, tmp_path, edges, 1, level)
    expected = [] if level else [f"WARNING setn.data: {edges}: dropped 1 self-loop/duplicate edges"]
    assert done.stderr.splitlines() == expected


# ---------------------------------------------------------------------------
# the CLI contract on mutated inputs

# Each input file, and the commands that read it
_READERS = {
    "nodes.jsonl": ("train", "embed", "eval-map", "eval-theme"),
    "edges.tsv": ("train", "embed", "eval-map", "eval-theme"),
    "taxonomy.json": ("train", "embed", "eval-map", "eval-theme"),
    "themes.jsonl": ("eval-theme",),
    "vocab.txt": ("train",),
    "model.setn": ("embed", "eval-map", "eval-theme"),
    "config.json": ("train",),
}
# What a mutation writes: JSON values that are not objects, an overflowing
# float, a byte that is not UTF-8 and an integer too large for any index
_LONG_INT = b"12345678901234567890"
_TOKENS = [b"null", b"5", b"1e999", b"-1", b'"x"', b"[1]", b"true", b"\xff", _LONG_INT]
_JSON_SCALAR = re.compile(rb'-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|"[^"\\]*"|true|false|null')


def _mutate(blob: bytes, kind: str, token: bytes, where: int, flip: int) -> bytes:
    """``blob`` with one mutation of the given kind at the place ``where``
    picks (taken modulo the number of places)."""
    lines = blob.split(b"\n")
    line = where % len(lines)
    if kind == "flip":
        at = where % len(blob)
        return blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
    if kind == "cut":
        return blob[:where % len(blob)]
    if kind == "insert":
        at = where % (len(blob) + 1)
        return blob[:at] + token + blob[at:]
    if kind == "duplicate-line":
        return b"\n".join(lines[:line + 1] + lines[line:])
    if kind == "replace-line":
        return b"\n".join(lines[:line] + [token] + lines[line + 1:])
    scalars = list(_JSON_SCALAR.finditer(blob))  # "replace-scalar"
    if not scalars:
        return blob
    hit = scalars[where % len(scalars)]
    return blob[:hit.start()] + token + blob[hit.end():]


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """A 40-stock synthetic dataset with a config and a 1-epoch checkpoint."""
    base = tmp_path_factory.mktemp("contract")
    with redirect_stdout(io.StringIO()):
        assert main(synth_args(base, seed=3, n=40)) == 0
        (base / "config.json").write_text(json.dumps(
            {"epochs": 1, "hidden_dim": 8, "encoder_depth": 1, "max_tokens": 8, "seed": 1}))
        assert main(["train", "--nodes", str(base / "nodes.jsonl"),
                     "--edges", str(base / "edges.tsv"), "--vocab", str(base / "vocab.txt"),
                     "--config", str(base / "config.json"),
                     "--out", str(base / "model.setn")]) == 0
    return base


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_READERS)),
       kind=st.sampled_from(["replace-line", "replace-scalar", "insert", "flip", "cut",
                             "duplicate-line"]),
       token=st.sampled_from(_TOKENS), where=st.integers(0, 2 ** 16),
       flip=st.integers(1, 255), pick=st.integers(0, 3))
def test_every_run_on_a_mutated_input_exits_0_or_with_one_error_line_and_no_file(
        contract_inputs, name, kind, token, where, flip, pick):
    command = _READERS[name][pick % len(_READERS[name])]
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out_dir = Path(tmp) / "in", Path(tmp) / "out"
        shutil.copytree(contract_inputs, inputs)
        out_dir.mkdir()
        target = inputs / name
        target.write_bytes(_mutate(target.read_bytes(), kind, token, where, flip))
        argv = [command, "--nodes", str(inputs / "nodes.jsonl"),
                "--edges", str(inputs / "edges.tsv")]
        out = out_dir / ("model.setn" if command == "train" else "emb.tsv")
        if command == "train":
            argv += ["--vocab", str(inputs / "vocab.txt"),
                     "--config", str(inputs / "config.json"), "--out", str(out)]
        else:
            argv += ["--model", str(inputs / "model.setn")]
        if command == "embed":
            argv += ["--out", str(out)]
        elif command == "eval-map":
            argv += ["--k", "5"]
        elif command == "eval-theme":
            argv += ["--themes", str(inputs / "themes.jsonl"), "--min-theme-size", "2"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)  # an exception here is the traceback a user would see
        if code == 0:
            json.loads(stdout.getvalue().splitlines()[-1])
        else:
            assert code == 1
            assert len(_error_lines(stderr.getvalue())) == 1
            assert not out.exists()
        assert not list(out_dir.glob("*.tmp"))
