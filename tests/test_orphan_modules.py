"""Every module under ``src/repro`` is reached from a root, statically.

A model module that no experiment, command or benchmark reaches has
outputs nothing pins: it either backs a registered experiment's claim
or leaves the tree.  The roots are the registered experiments (the
``repro.experiments`` export table), every ``__main__`` module or module
with an ``if __name__ == "__main__"`` block, and whatever
``benchmarks/bench_perf.py`` and ``benchmarks/e2e/`` import.  Tests and
the per-model ``benchmarks/bench_*.py`` files are not roots.

The scan parses with :mod:`ast` and imports nothing.  An edge is an
``import`` / ``from ... import`` anywhere in a module (function bodies
included) or a string naming a ``repro.x.y`` module (``python -m``
targets, span tables); docstrings are prose, not edges.  A name
imported from a package resolves through the package's lazy
``_EXPORTS`` table to the submodule defining it; the table itself is
not an edge, since a package loads nothing at import.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

DOTTED_NAME = re.compile(r"\brepro(?:[.:][A-Za-z_]\w*)+")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {
    _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
}
TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def _exports(package: str) -> dict:
    """A package's ``_EXPORTS`` table (name -> submodule), or ``{}``."""
    if MODULES[package].name != "__init__.py":
        return {}
    for node in TREES[package].body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_EXPORTS"
                        for t in node.targets)):
            value = node.value
            if isinstance(value, ast.DictComp):  # {name: name for name in ...}
                names = ast.literal_eval(value.generators[0].iter)
                return {name: name for name in names}
            return ast.literal_eval(value)
    return {}


def _resolve(dotted: str) -> set:
    """Modules loaded by importing (or naming) ``dotted``."""
    parts = dotted.replace(":", ".").split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        if name in MODULES:
            break
    else:
        return set()
    reached = {".".join(parts[:n]) for n in range(1, cut + 1)}
    rest = parts[cut:]
    submodule = _exports(name).get(rest[0]) if rest else None
    if submodule is not None:
        reached |= _resolve(f"{name}.{submodule}")
    return reached


def _edges(tree: ast.AST) -> set:
    """Modules one parsed file imports or names (absolute imports only;
    the tree has no relative or star imports)."""
    edges = set()
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges |= _resolve(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                edges |= _resolve(f"{node.module}.{alias.name}")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            for match in DOTTED_NAME.findall(node.value):
                edges |= _resolve(match)
    return edges


def _is_main(module: str, tree: ast.AST) -> bool:
    if module.endswith(".__main__"):
        return True
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == "__name__"
                and any(isinstance(c, ast.Constant) and c.value == "__main__"
                        for c in node.comparators)):
            return True
    return False


def roots() -> set:
    found = {
        f"repro.experiments.{name}"
        for name in _exports("repro.experiments").values()
    }
    found |= {name for name, tree in TREES.items() if _is_main(name, tree)}
    bench_files = [REPO / "benchmarks" / "bench_perf.py",
                   *sorted((REPO / "benchmarks" / "e2e").glob("*.py"))]
    for path in bench_files:
        found |= _edges(ast.parse(path.read_text()))
    return found


def unreached_modules() -> list:
    reached, frontier = set(), roots()
    while frontier:
        module = frontier.pop()
        if module in reached or module not in MODULES:
            continue
        reached.add(module)
        frontier |= _edges(TREES[module]) - reached
    return sorted(set(MODULES) - reached)


def test_every_module_is_reached_from_a_root():
    unreached = unreached_modules()
    assert not unreached, "unreached modules: " + ", ".join(unreached)
