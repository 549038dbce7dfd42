"""Checks over the package's source text."""

import ast
import re
from pathlib import Path

import setn
from setn import errors

EXEMPT = {"self", "cls"}
SOURCES = sorted(Path(setn.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Definitions that nothing in the package or the benchmark calls, each kept
# for a stated reason; every other one must be used
KEPT_UNCALLED = {
    "cosine_knn": "the public one-query retrieval API",
    "average_precision_at_k": "the per-query reference that map_at_k is tested against",
    "embed_stock": "the per-stock reference that embed_universe rows equal",
    "gat_attention": "the public attention coefficients, checked by acceptance criterion 2",
    "to_file": "the public writer of a Vocab or Taxonomy file, the inverse of from_file",
}


def _params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = fn.args
    names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
    return [n for n in names if n not in EXEMPT and not n.startswith("_")]


def _idle_params(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    idle = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        idle += [f"{path.name}:{fn.lineno} {fn.name}({name})"
                 for name in _params(fn) if name not in read]
    return idle


def test_every_function_reads_each_of_its_parameters():
    # a parameter nothing reads still costs every caller an argument;
    # prefix it with ``_`` where an interface requires it
    assert SOURCES
    idle = [entry for path in SOURCES for entry in _idle_params(path)]
    assert idle == []


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of
    top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_definition_is_used_or_kept_for_a_reason():
    # used: loaded as a name or an attribute in the package outside its own
    # definition, or named anywhere in the benchmark
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES}
    loads = [(path, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
             for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    unused = {defn.name: f"{path.name}:{defn.lineno}"
              for path, tree in trees.items() for defn in _definitions(tree)
              if not re.search(rf"\b{defn.name}\b", bench)
              and not any(name == defn.name
                          and not (where == path and defn.lineno <= line <= defn.end_lineno)
                          for where, name, line in loads)}
    assert sorted(set(unused) - set(KEPT_UNCALLED)) == []
    assert sorted(set(KEPT_UNCALLED) - set(unused)) == []


def test_the_op_by_op_oracle_stays_out_of_the_package():
    # linear, the encoder block and the GNN layers are fused ops; these
    # single ops serve only as their oracle, in tests/op_by_op.py
    defined = {node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert defined & {"mul", "matmul", "transpose", "leaky_relu", "softmax_rows"} == set()


def test_integer_types_are_named_only_by_the_integer_rule():
    # errors.is_int_type and errors.require_int hold the one rule for an
    # integer argument; every other module calls them
    naming = [path.name for path in SOURCES if "np.integer" in path.read_text(encoding="utf-8")]
    assert naming == ["errors.py"]


def _functions_where(match) -> list[str]:
    """``module.function`` for each node of the package that ``match``
    accepts: the innermost function around it, or ``<module>``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = [fn for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if match(node):
                inside = [fn for fn in functions if fn.lineno <= node.lineno <= fn.end_lineno]
                name = max(inside, key=lambda fn: fn.lineno).name if inside else "<module>"
                found.append(f"{path.stem}.{name}")
    return found


def test_json_text_is_parsed_only_by_parse_json():
    # every JSON input, the checkpoint header too, goes through
    # ``data._parse_json``, so each failure gets one message
    assert _functions_where(lambda node: isinstance(node, ast.ImportFrom)
                            and node.module == "json") == []
    parsers = _functions_where(lambda node: isinstance(node, ast.Attribute)
                               and node.attr == "loads" and isinstance(node.value, ast.Name)
                               and node.value.id == "json")
    assert set(parsers) == {"data._parse_json"}


def test_the_token_memo_is_read_only_by_the_token_key_helper():
    # ``tokenize`` and the model's text stage both take their ids from
    # ``text._token_keys``, so the two cannot map a text differently
    readers = _functions_where(lambda node: isinstance(node, ast.Attribute)
                               and node.attr == "_memo" and isinstance(node.ctx, ast.Load))
    assert set(readers) == {"text._token_keys"}


def _calls(name: str):
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_no_caller_symmetrizes_the_graph_a_model_samples():
    # ``sample_subgraph`` reads the model's ``directed`` flag; ``prepare_graph``
    # is kept for the benchmark's workloads alone
    assert _functions_where(_calls("prepare_graph")) == []
    assert _functions_where(_calls("to_undirected")) == ["training.prepare_graph"]


def test_only_the_block_ranking_partially_sorts():
    # the near-tie loop of ``EmbeddingMatrix._rank`` takes only a k-th value
    # (``np.partition``), so ``_sorted_top`` stays the one top-k partition
    assert _functions_where(lambda node: isinstance(node, ast.Attribute)
                            and node.attr == "argpartition") == ["evaluation._sorted_top"]


def _opens_to_write(node: ast.AST) -> bool:
    """Whether ``node`` calls ``open`` with a mode that is not a string
    literal free of "w", "a", "x" and "+"."""
    if not (isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "open")):
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
    return any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")) for mode in modes)


def test_every_file_is_written_through_replacing():
    # ``errors.replacing`` writes a new file beside the target and renames it
    # over the target, so a write that fails leaves the old file as it was
    assert _functions_where(_opens_to_write) == ["errors.replacing"]


def test_every_raise_re_raises_or_names_a_package_error():
    # callers catch what the package raises on purpose with ``except SetnError``
    named = {node.name for node in ast.parse(Path(errors.__file__).read_text(encoding="utf-8")).body
             if isinstance(node, ast.ClassDef)}
    others = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in named):
                others.append(f"{path.name}:{node.lineno} {ast.unparse(node.exc)}")
    assert others == []


def test_only_autodiff_sets_a_writeable_flag_or_a_version():
    # a parameter changes only through ``autodiff.writing`` or ``Adam``, which
    # bump its version; the encoder's cache relies on that
    def sets(node: ast.AST) -> bool:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        return any(isinstance(t, ast.Attribute) and t.attr in ("writeable", "version")
                   for t in targets)

    assert {where.split(".")[0] for where in _functions_where(sets)} == {"autodiff"}


def test_only_train_opens_prefix_keeping_and_only_the_encoder_reads_its_flags():
    # the encoder's prefix level keeps what is encoded while ``train`` runs;
    # no other caller decides what it keeps
    def attribute(*names):
        return lambda node: isinstance(node, ast.Attribute) and node.attr in names

    assert _functions_where(attribute("keeping_prefixes")) == ["training.train"]
    assert {where.split(".")[0] for where in _functions_where(attribute("_kept", "_keeping"))} == {
        "text"}
