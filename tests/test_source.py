"""Every function of `ucz` has a caller.

A function is live when its name is read somewhere in `src/ucz` outside its
own body, when `perfbench/tracing.py` wraps it, or, at module level, when
an `__all__` lists it.  Dunder methods are called by the language.  A helper
that only tests call fails here: tests call it through the constructor or
the operator it wraps instead.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ucz").glob("*.py"))


def _names(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _functions(module: str, body, prefix: str = ""):
    """(qualified name, def node) for every function and method, nested classes included."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{prefix}{node.name}", node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(module, node.body, f"{prefix}{node.name}.")


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = {f"{layer}.{path}" for layer, paths in tracing.TIMED.values() for path in paths}
    return out | {f"{layer}.{path}" for layer, path in tracing.COUNTED.values()}


def test_every_function_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    exported = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
    traced = _traced()
    assert len(trees) > 5 and traced
    dead = []
    for module, tree in trees.items():
        for qualified, node in _functions(module, tree.body):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualified in traced or (qualified.count(".") == 1 and name in exported):
                continue
            if read[name] == _names(node)[name]:
                dead.append(qualified)
    assert dead == []
