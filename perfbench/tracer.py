"""Span tracer that wraps the public entry points of each ``setn`` layer.

The wrappers live only in this benchmark: ``Tracer`` patches the functions
and methods named in ``TRACE_POINTS`` wherever ``setn`` binds them, records
one span per call (name, start, end, parent span, run id), and restores
every original binding when the ``with`` block exits. Self time of a span
is its duration minus the time covered by its child spans, so the self
times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name). A span name of None means a counter
# only: no span is recorded, the call is just counted.
TRACE_POINTS = (
    ("text", "tokenize", "text.tokenize"),
    ("text", "Vocab.build", "text.vocab_build"),
    ("text", "TextEncoder.encode", "text.encode"),
    ("text", "EncoderBlock.forward", "text.block"),
    ("text", "pool", "text.pool"),
    ("graph", "sample_subgraph", "graph.sample_subgraph"),
    ("graph", "gcn_layer", "graph.gnn_layer"),
    ("graph", "gat_layer", "graph.gnn_layer"),
    ("model", "SetnModel.forward", "model.forward"),
    ("model", "SetnModel.encode_text", "model.encode_text"),
    ("model", "compute_loss", "model.compute_loss"),
    ("autodiff", "backward", "autodiff.backward"),
    ("autodiff", "Adam.step", "autodiff.adam_step"),
    ("autodiff", "Tensor.__init__", None),
    ("training", "train", "training.train"),
    ("training", "build_model", "training.build_model"),
    ("training", "split_dataset", "training.split_dataset"),
    ("training", "save_model", "training.save_model"),
    ("training", "load_model", "training.load_model"),
    ("evaluation", "embed_universe", "evaluation.embed_universe"),
    ("evaluation", "map_at_k", "evaluation.map_at_k"),
    ("evaluation", "theme_metric", "evaluation.theme_metric"),
    ("evaluation", "EmbeddingMatrix.ranked_neighbors", "evaluation.ranked_neighbors"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "export_embeddings", "data.export_embeddings"),
    ("data", "load_embeddings", "data.load_embeddings"),
)

LAYERS = ("text", "graph", "model", "autodiff", "training", "evaluation", "data")


class Tracer:
    """Context manager: patch the trace points on entry, restore on exit.

    Spans are kept in memory as ``[span_id, name, start, end, parent_id,
    run_id]`` lists; ``parent_id`` is -1 for a root span.
    """

    def __init__(self, setn_package, run_id: str):
        self.setn = setn_package
        self.run_id = run_id
        self.spans: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.wall_s = 0.0
        self._stack: list[list] = []      # open frames: [span_id, child_seconds]
        self._patches: list[tuple] = []   # (owner, attribute, original)
        self._block_names: dict[int, str] = {}
        self._depth = 0
        self._entered_at = 0.0

    # -- span bookkeeping -------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        span_id = len(self.spans)
        record = [span_id, name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(record)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            record[2], record[3] = start, end
            self.self_s[name] += duration - frame[1]
            self.total_s[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def span_durations(self, name: str, parent_name: str | None = None) -> float:
        """Summed duration of spans called ``name`` (optionally under a parent)."""
        total = 0.0
        for _, span_name, start, end, parent, _ in self.spans:
            if span_name != name:
                continue
            if parent_name is not None and (parent < 0 or self.spans[parent][1] != parent_name):
                continue
            total += end - start
        return total

    def dump(self, path) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, module: str, attr: str, name: str | None, original):
        tracer = self
        if name is None:  # counter only (Tensor.__init__)
            counter = f"{module}.{attr}"

            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.counts[counter] += 1
                return original(*args, **kwargs)
            return counted

        if attr == "EncoderBlock.forward":
            @functools.wraps(original)
            def block_forward(block, *args, **kwargs):
                label = tracer._block_names.get(id(block), "text.block?")
                return tracer._call(label, original, (block, *args), kwargs)
            return block_forward

        if attr == "TextEncoder.encode":
            @functools.wraps(original)
            def encode(encoder, *args, **kwargs):
                for i, block in enumerate(encoder.blocks):
                    tracer._block_names[id(block)] = f"text.block{i}"
                return tracer._call(name, original, (encoder, *args), kwargs)
            return encode

        if attr == "train":
            @functools.wraps(original)
            def train(*args, **kwargs):
                before = tracer.counts["autodiff.Tensor.__init__"]
                try:
                    return tracer._call(name, original, args, kwargs)
                finally:
                    tracer.counts["training.tensors"] += (
                        tracer.counts["autodiff.Tensor.__init__"] - before)
            return train

        if attr == "sample_subgraph":
            @functools.wraps(original)
            def sample(*args, **kwargs):
                sub = tracer._call(name, original, args, kwargs)
                tracer.counts["graph.subgraph_members"] += sub.size
                return sub
            return sample

        if attr == "EmbeddingMatrix.ranked_neighbors":
            @functools.wraps(original)
            def ranked(emb, stock_id):
                if stock_id in emb._ranked_cache:
                    tracer.counts["evaluation.ranked_cache_hits"] += 1
                return tracer._call(name, original, (emb, stock_id), {})
            return ranked

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer._call(name, original, args, kwargs)
        return traced

    def _install(self) -> None:
        for module_name, attr, name in TRACE_POINTS:
            module = importlib.import_module(f"{self.setn.__name__}.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrapper(module_name, attr, name,
                                                        original.__func__))
                else:
                    wrapper = self._wrapper(module_name, attr, name, original)
                self._patch(owner, meth, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(module_name, attr, name, original)
            # rebind in every setn module that imported the function by name
            for owner in self._setn_modules():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)

    def _setn_modules(self):
        prefix = self.setn.__name__
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == prefix or key.startswith(prefix + "."))]

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        # re-entrant: only the outermost block installs and restores
        if self._depth == 0:
            try:
                self._install()
            except BaseException:
                self.restore()
                raise
            self._entered_at = time.perf_counter()
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.wall_s += time.perf_counter() - self._entered_at
            self.restore()
