"""Command-line entry point.

Subcommands: synth, train, eval-map, eval-theme, embed, ablate.
Machine-readable JSON goes to stdout; aligned human tables go to stderr.
Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import data as data_io
from . import evaluation as ev
from .errors import SetnError, open_text
from .model import GNN_KINDS
from .text import ENCODER_POLICIES, POOLING_STRATEGIES, Vocab
from .training import (AXIS_VALUES, TrainConfig, ablation_axes, build_model,
                       load_model, prepare_graph, run_ablation, save_model,
                       split_records, train)

logger = logging.getLogger("setn")

# Each config flag: the TrainConfig field it sets and the value of each of
# its choices; a flag without choices takes an integer as given.
_CONFIG_FLAGS = {
    "seed": ("seed", None),
    "gnn": ("gnn", {kind: kind for kind in GNN_KINDS}),
    "residual": ("residual", {"on": True, "off": False}),
    "graph": ("directed", {"directed": True, "undirected": False}),
    "encoder-train": ("encoder_train", {policy: policy for policy in ENCODER_POLICIES}),
    "pooling": ("pooling", {strategy: strategy for strategy in POOLING_STRATEGIES}),
}

# One synth flag per GeneratorSpec field, except the text-length spread,
# which only library callers set
_SYNTH_FIELDS = [f for f in fields(data_io.GeneratorSpec) if f.name != "min_tokens_per_doc"]


def _setup_logging() -> None:
    """Warnings, such as the loaders' dropped lines, print unless SETN_LOG
    is error; info and debug print more."""
    level = os.environ.get("SETN_LOG", "").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)


def _resolve_config(args) -> TrainConfig:
    """Config-file keys under flag overrides under dataclass defaults."""
    config = TrainConfig()
    if args.config:
        with open_text(args.config) as fh:
            config = TrainConfig.from_dict(data_io._parse_json(fh.read(), args.config, "config JSON"))
    return replace(config, **{
        field: value if labels is None else labels[value]
        for field, labels in _CONFIG_FLAGS.values()
        if (value := getattr(args, field)) is not None})


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SetnError(f"--k expects a comma-separated integer list, got {text!r}")
    if not ks:
        raise SetnError("--k list is empty")
    bad = [k for k in ks if k < 1]
    if bad:
        raise SetnError(f"--k values must be at least 1, got {bad[0]}")
    return ks


def _resolve_taxonomy(args) -> data_io.Taxonomy:
    explicit = getattr(args, "taxonomy", None)
    if explicit:
        return data_io.Taxonomy.from_file(explicit)
    sibling = os.path.join(os.path.dirname(os.path.abspath(args.nodes)), "taxonomy.json")
    if os.path.exists(sibling):
        return data_io.Taxonomy.from_file(sibling)
    return data_io.DEFAULT_TAXONOMY


def _load_dataset(args):
    taxonomy = _resolve_taxonomy(args)
    records, id_map = data_io.load_nodes(args.nodes, taxonomy)
    graph = data_io.load_edges(args.edges, len(records))
    return records, id_map, graph, taxonomy


def _load_for_eval(args):
    """The checkpoint, then the dataset with its graph prepared as the
    checkpoint was trained."""
    model, config = load_model(args.model, expected_gnn=args.gnn)
    records, id_map, graph, _ = _load_dataset(args)
    return model, config, records, id_map, prepare_graph(graph, config)


def _emit(payload: dict, table: str | None = None) -> None:
    print(json.dumps(payload, sort_keys=True))
    if table:
        print(table, file=sys.stderr)


def _cmd_synth(args) -> int:
    spec = data_io.GeneratorSpec(**{f.name: getattr(args, f.name) for f in _SYNTH_FIELDS})
    dataset = data_io.generate_synthetic(spec)
    files = data_io.write_dataset(dataset, args.out)
    _emit({"config": spec.__dict__, "files": files, "out": args.out})
    return 0


def _cmd_train(args) -> int:
    # a checkpoint that cannot be written should fail before the training, not after it
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        raise SetnError(f"--out {args.out}: directory {out_dir} does not exist")
    if os.path.isdir(args.out):
        raise SetnError(f"--out {args.out} is a directory")
    config = _resolve_config(args)
    records, _, graph, taxonomy = _load_dataset(args)
    if args.vocab:
        vocab = Vocab.from_file(args.vocab)
    else:
        vocab = Vocab.build(r.text for r in records)
    model = build_model(config, vocab, n_sectors=taxonomy.n_sectors,
                        n_industries=taxonomy.n_industries)
    history = train(model, graph, records, split_records(records, config), config,
                    log_stream=sys.stderr if logger.isEnabledFor(logging.INFO) else None)
    save_model(model, args.out, config)
    _emit({"config": config.to_dict(), "checkpoint": args.out, "epochs": history})
    return 0


def _cmd_eval_map(args) -> int:
    ks = _parse_ks(args.k)
    model, config, records, _, g = _load_for_eval(args)
    test_ids = split_records(records, config).test
    metrics = ev.evaluate_map(model, g, records, test_ids, ks)
    payload = {
        "config": config.to_dict(),
        "universe_size": len(test_ids),
        "topix17": {f"map@{k}": v for k, v in metrics["topix17"].items()},
        "topix33": {f"map@{k}": v for k, v in metrics["topix33"].items()},
    }
    row = {k: payload[k] for k in ("topix17", "topix33")}
    _emit(payload, ev.format_map_table([row]))
    return 0


def _cmd_eval_theme(args) -> int:
    model, config, records, id_map, g = _load_for_eval(args)
    test_ids = split_records(records, config).test
    themes = data_io.load_themes(args.themes, id_map, universe=test_ids,
                                 min_size=args.min_theme_size)
    if not len(themes):
        raise SetnError(f"no themes with at least {args.min_theme_size} members in the test universe")
    emb = ev.embed_universe(model, g, records, test_ids, config.neighbor_direction)
    overall, per_theme = ev.theme_metric(emb, themes)

    # random-guess baseline: same universe and themes, seeded random embeddings
    rng = np.random.default_rng(config.seed)
    random_emb = ev.EmbeddingMatrix(list(test_ids), rng.normal(size=emb.vectors.shape))
    rand_overall, rand_per_theme = ev.theme_metric(random_emb, themes)

    payload = {
        "config": config.to_dict(),
        "universe_size": len(test_ids),
        "overall": overall,
        "themes": per_theme,
        "random_guess": {"overall": rand_overall, "themes": rand_per_theme},
    }
    width = max(len("OVERALL"), max(len(n) for n in per_theme))
    lines = [f"{'theme'.ljust(width)}  model  random"]
    for name in per_theme:
        lines.append(f"{name.ljust(width)}  {per_theme[name]:.3f}  {rand_per_theme[name]:.3f}")
    lines.append(f"{'OVERALL'.ljust(width)}  {overall:.3f}  {rand_overall:.3f}")
    _emit(payload, "\n".join(lines))
    return 0


def _cmd_embed(args) -> int:
    model, config, records, _, g = _load_for_eval(args)
    if args.split == "all":
        ids = [r.stock_id for r in records]
    else:
        ids = getattr(split_records(records, config), args.split)
    emb = ev.embed_universe(model, g, records, ids, config.neighbor_direction)
    tickers = {r.stock_id: r.ticker for r in records}
    data_io.export_embeddings([tickers[i] for i in emb.ids], emb.vectors, args.out, args.format)
    _emit({"config": config.to_dict(), "out": args.out, "format": args.format,
           "count": len(ids), "dim": int(emb.vectors.shape[1])})
    return 0


def _cmd_ablate(args) -> int:
    ks = _parse_ks(args.k)
    axes = ablation_axes(a.strip() for a in args.axes.split(",") if a.strip())
    config = _resolve_config(args)
    records, _, graph, taxonomy = _load_dataset(args)
    dataset = data_io.Dataset(records, graph, {}, taxonomy)
    rows = run_ablation(dataset, config, axes, ks)
    _emit({"config": config.to_dict(), "axes": axes, "rows": rows},
          ev.format_map_table(rows))
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring the training settings")
    for flag, (field, labels) in _CONFIG_FLAGS.items():
        if labels is None:
            p.add_argument(f"--{flag}", dest=field, type=int)
        else:
            p.add_argument(f"--{flag}", dest=field, choices=list(labels))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setn",
                                     description="Stock embeddings from text and relation graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--nodes", required=True)
    dataset.add_argument("--edges", required=True)
    dataset.add_argument("--taxonomy",
                         help="taxonomy JSON (default: taxonomy.json beside nodes, else built-in)")
    checkpoint = argparse.ArgumentParser(add_help=False, parents=[dataset])
    checkpoint.add_argument("--model", required=True)
    checkpoint.add_argument("--gnn", choices=GNN_KINDS, help="assert the checkpoint's GNN kind")

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    for f in _SYNTH_FIELDS:
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", parents=[dataset], help="fit a model and write a checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval-map", parents=[checkpoint],
                       help="related-company MAP@K on the test split")
    p.add_argument("--k", default="5,10,50")
    p.set_defaults(func=_cmd_eval_map)

    p = sub.add_parser("eval-theme", parents=[checkpoint],
                       help="thematic-fund metric on the test split")
    p.add_argument("--themes", required=True)
    p.add_argument("--min-theme-size", type=int, default=16)
    p.set_defaults(func=_cmd_eval_theme)

    p = sub.add_parser("embed", parents=[checkpoint], help="export stock embeddings")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["tsv", "binary"], default="tsv")
    p.add_argument("--split", choices=["all", "train", "val", "test"], default="all")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("ablate", parents=[dataset],
                       help="train and evaluate a configuration grid")
    p.add_argument("--axes", required=True,
                   help=f"comma list from {','.join(AXIS_VALUES)}")
    p.add_argument("--k", default="5,10,50")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SetnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
