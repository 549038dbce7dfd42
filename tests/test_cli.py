import json
import filecmp

import pytest

from setn.cli import main


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
    ('{"epochs": "x"}', "config field 'epochs': expected an integer"),
    ('{"hidden_dim": 0}', "config field 'hidden_dim': must be at least 1"),
    ('{"neighbor_direction": "sideways"}', "unknown neighbor direction 'sideways'"),
    ('{"encoder_train": "most"}', "unknown encoder training policy 'most'"),
    ('{"gnn": "gin"}', "unknown GNN kind 'gin'"),
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
