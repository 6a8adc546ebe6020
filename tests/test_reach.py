"""Every function, class and method in ``src/memesent`` is used.

A definition counts as used when its name is referenced somewhere in
``src/memesent`` outside its own body: as a ``Name``, as the attribute of
an ``Attribute``, or in an import. Dunder methods are called by Python
itself and are not checked. What no code of the package references has to
be on ``ALLOWED``, and an entry there that is referenced, or no longer
defined, fails too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "memesent"

# Defined for readers outside the package, so nothing inside it refers to them.
ALLOWED = {
    "base.Estimator.predict",  # the README's library API
    "base.SavedModel.load",  # the README's library API
    "embeddings.EmbeddingTable.vectors",  # read by perfbench/layers.py
    "nn.grad_check",  # the dense net's gradient check, kept as a tool
    "models.cnn.cnn_grad_check",  # the CNN's gradient check, kept as a tool
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of each module-level function and
    class, and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """(name, line) of each Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno


def unreferenced() -> set[str]:
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        trees[module] = ast.parse(path.read_text(), filename=str(path))
    refs = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((module, line))
    found = set()
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            if all(m == module and node.lineno <= line <= node.end_lineno
                   for m, line in refs.get(name, ())):
                found.add(qualname)
    return found


def test_no_unreferenced_definitions():
    extra = unreferenced() - ALLOWED
    assert not extra, f"referenced nowhere in src/memesent: {sorted(extra)}"


def test_allowlist_is_not_stale():
    stale = ALLOWED - unreferenced()
    assert not stale, f"referenced or gone, drop from ALLOWED: {sorted(stale)}"
