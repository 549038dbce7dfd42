"""Checks over the package's source text."""

import ast
from pathlib import Path

import setn

EXEMPT = {"self", "cls"}


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
    sources = sorted(Path(setn.__file__).parent.glob("*.py"))
    assert sources
    idle = [entry for path in sources for entry in _idle_params(path)]
    assert idle == []
