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
from dataclasses import replace

import numpy as np

from . import data as data_io
from . import evaluation as ev
from .errors import DataError, SetnError
from .text import Vocab
from .training import (TrainConfig, build_model, load_model, prepare_graph,
                       save_model, split_dataset, train)

logger = logging.getLogger("setn")

_FLAG_TO_FIELD = {
    "seed": "seed",
    "gnn": "gnn",
    "pooling": "pooling",
    "encoder_train": "encoder_train",
}


def _setup_logging() -> None:
    level = os.environ.get("SETN_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)


def _resolve_config(args) -> TrainConfig:
    """Config-file keys under flag overrides under dataclass defaults."""
    config = TrainConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{args.config}: malformed config JSON: {exc}") from exc
        config = TrainConfig.from_dict(obj)
    overrides = {}
    for flag, fld in _FLAG_TO_FIELD.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[fld] = value
    if getattr(args, "residual", None) is not None:
        overrides["residual"] = args.residual == "on"
    if getattr(args, "graph", None) is not None:
        overrides["directed"] = args.graph == "directed"
    return replace(config, **overrides) if overrides else config


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


def _load_dataset(args, config: TrainConfig):
    taxonomy = _resolve_taxonomy(args)
    records, id_map = data_io.load_nodes(args.nodes, taxonomy)
    graph = data_io.load_edges(args.edges, len(records))
    return records, id_map, graph, taxonomy


def _emit(payload: dict, table: str | None = None) -> None:
    print(json.dumps(payload, sort_keys=True))
    if table:
        print(table, file=sys.stderr)


def _cmd_synth(args) -> int:
    spec = data_io.GeneratorSpec(
        n=args.n, sectors=args.sectors, industries=args.industries,
        vocab_size=args.vocab_size, tokens_per_doc=args.tokens_per_doc,
        avg_degree=args.avg_degree, graph_signal=args.graph_signal,
        direction_signal=args.direction_signal, text_signal=args.text_signal,
        theme_count=args.theme_count, seed=args.seed if args.seed is not None else 0,
    )
    dataset = data_io.generate_synthetic(spec)
    files = data_io.write_dataset(dataset, args.out)
    _emit({"config": spec.__dict__, "files": files, "out": args.out})
    return 0


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    records, _, graph, taxonomy = _load_dataset(args, config)
    if args.vocab:
        vocab = Vocab.from_file(args.vocab)
    else:
        vocab = Vocab.build(r.text for r in records)
    n_sectors = taxonomy.n_sectors
    n_industries = taxonomy.n_industries
    split = split_dataset([r.stock_id for r in records], config.proportions, config.seed)
    model = build_model(config, vocab, n_sectors=n_sectors, n_industries=n_industries)
    history = train(model, graph, records, split, config,
                    log_stream=sys.stderr if logger.isEnabledFor(logging.INFO) else None)
    save_model(model, args.out, config)
    _emit({"config": config.to_dict(), "checkpoint": args.out, "epochs": history})
    return 0


def _eval_universe(config: TrainConfig, records) -> list:
    return split_dataset([r.stock_id for r in records], config.proportions, config.seed).test


def _cmd_eval_map(args) -> int:
    ks = _parse_ks(args.k)
    model, config = load_model(args.model, expected_gnn=args.gnn)
    records, _, graph, _ = _load_dataset(args, config)
    g = prepare_graph(graph, config)
    test_ids = _eval_universe(config, records)
    metrics = ev.evaluate_map(model, g, records, test_ids, ks, config.neighbor_direction)
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
    model, config = load_model(args.model, expected_gnn=args.gnn)
    records, id_map, graph, _ = _load_dataset(args, config)
    g = prepare_graph(graph, config)
    test_ids = _eval_universe(config, records)
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
    model, config = load_model(args.model, expected_gnn=args.gnn)
    records, _, graph, _ = _load_dataset(args, config)
    g = prepare_graph(graph, config)
    if args.split == "all":
        ids = [r.stock_id for r in records]
    else:
        split = split_dataset([r.stock_id for r in records], config.proportions, config.seed)
        ids = getattr(split, args.split)
    emb = ev.embed_universe(model, g, records, ids, config.neighbor_direction)
    tickers = {r.stock_id: r.ticker for r in records}
    data_io.export_embeddings([tickers[i] for i in emb.ids], emb.vectors, args.out, args.format)
    _emit({"config": config.to_dict(), "out": args.out, "format": args.format,
           "count": len(ids), "dim": int(emb.vectors.shape[1])})
    return 0


def _cmd_ablate(args) -> int:
    ks = _parse_ks(args.k)
    config = _resolve_config(args)
    records, id_map, graph, taxonomy = _load_dataset(args, config)
    dataset = data_io.Dataset(records, graph, data_io.ThemeSet({}), taxonomy)
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    rows = ev.run_ablation(dataset, config, axes, ks)
    _emit({"config": config.to_dict(), "axes": axes, "rows": rows},
          ev.format_map_table(rows))
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring the training settings")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gnn", choices=["gcn", "gat", "none"], default=None)
    p.add_argument("--residual", choices=["on", "off"], default=None)
    p.add_argument("--graph", choices=["directed", "undirected"], default=None)
    p.add_argument("--encoder-train", dest="encoder_train",
                   choices=["all", "last", "none"], default=None)
    p.add_argument("--pooling", choices=["cls", "mean", "max"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setn",
                                     description="Stock embeddings from text and relation graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--sectors", type=int, default=17)
    p.add_argument("--industries", type=int, default=33)
    p.add_argument("--vocab-size", type=int, default=400)
    p.add_argument("--tokens-per-doc", type=int, default=24)
    p.add_argument("--avg-degree", type=int, default=6)
    p.add_argument("--graph-signal", type=float, default=0.6)
    p.add_argument("--direction-signal", type=float, default=0.0)
    p.add_argument("--text-signal", type=float, default=0.6)
    p.add_argument("--theme-count", type=int, default=8)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--taxonomy", help="taxonomy JSON (default: taxonomy.json beside nodes, else built-in)")
    p.add_argument("--vocab")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval-map", help="related-company MAP@K on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--taxonomy")
    p.add_argument("--k", default="5,10,50")
    p.add_argument("--gnn", choices=["gcn", "gat", "none"], default=None,
                   help="assert the checkpoint's GNN kind")
    p.set_defaults(func=_cmd_eval_map)

    p = sub.add_parser("eval-theme", help="thematic-fund metric on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--themes", required=True)
    p.add_argument("--taxonomy")
    p.add_argument("--min-theme-size", type=int, default=16)
    p.add_argument("--gnn", choices=["gcn", "gat", "none"], default=None)
    p.set_defaults(func=_cmd_eval_theme)

    p = sub.add_parser("embed", help="export stock embeddings")
    p.add_argument("--model", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--taxonomy")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["tsv", "binary"], default="tsv")
    p.add_argument("--split", choices=["all", "train", "val", "test"], default="all")
    p.add_argument("--gnn", choices=["gcn", "gat", "none"], default=None)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("ablate", help="train and evaluate a configuration grid")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--taxonomy")
    p.add_argument("--axes", required=True,
                   help="comma list from graph_type,encoder_policy,gnn_kind,residual")
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
    except SetnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
