"""The package's modules import one another in layers, and only at module level.
Each layer names its public objects once, in its ``__all__``, and the package
re-exports exactly those."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import meadows

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "meadows"

# A module imports, at run time, only from modules of a lower rank.
RANK = {
    "approx": 0,
    "finite": 0,
    "terms": 1,
    "exact": 2,
    "complexes": 3,
    "axioms": 4,
    "simplify": 4,
    "cli": 5,
    "__init__": 6,
}
# The modules whose public names the package re-exports, in rank order.
LAYERS = [name for name in sorted(RANK, key=RANK.get) if name not in ("cli", "__init__")]


def _modules():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _is_type_checking(node):
    return isinstance(node, ast.If) and (
        isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
        or isinstance(node.test, ast.Attribute) and node.test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree):
    return [
        node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _package_targets(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return [node.module] if node.module else [a.name for a in node.names]
        if node.level == 0 and (node.module or "").startswith("meadows."):
            return [node.module.split(".")[1]]
        return []
    return [a.name.split(".")[1] for a in node.names if a.name.startswith("meadows.")]


def test_every_module_has_a_rank():
    assert set(_modules()) == set(RANK)


def test_imports_only_at_module_level():
    misplaced = []
    for name, tree in _modules().items():
        allowed = set(map(id, _runtime_imports(tree)))
        for block in filter(_is_type_checking, tree.body):
            allowed |= {id(node) for node in block.body}
        misplaced += [
            f"{name}.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in allowed
        ]
    assert misplaced == []


def test_imports_follow_the_layers():
    upward = [
        f"{name}.py:{node.lineno} imports {target}"
        for name, tree in _modules().items()
        for node in _runtime_imports(tree)
        for target in _package_targets(node)
        if RANK[target] >= RANK[name]
    ]
    assert upward == []


def test_only_exact_touches_the_radical_memo():
    touching = {
        name
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_radicals"
    }
    assert touching == {"exact"}


def test_the_kernel_takes_only_literals_from_the_term_layer():
    # printing a value is the kernel's job; reading it back as a term is not
    names = [
        alias.name
        for node in _runtime_imports(_modules()["exact"])
        if "terms" in _package_targets(node)
        for alias in node.names
    ]
    assert names == ["_literal"]


def _public_names(name):
    return importlib.import_module(f"meadows.{name}").__all__


def _top_level_bindings(tree):
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound


def test_every_layer_states_its_public_names():
    modules = _modules()
    assert [name for name in LAYERS if "__all__" not in _top_level_bindings(modules[name])] == []


def test_a_layer_exports_only_what_it_defines():
    modules = _modules()
    borrowed = [
        f"{name}.{public}"
        for name in LAYERS
        for public in _public_names(name)
        if public not in _top_level_bindings(modules[name])
    ]
    assert borrowed == []


def test_the_package_exports_the_layers_names_once():
    stated = Counter(n for name in LAYERS for n in _public_names(name))
    assert [n for n, count in stated.items() if count > 1] == []
    assert len(meadows.__all__) == len(set(meadows.__all__))
    assert set(meadows.__all__) == {"__version__", *stated}
    # no per-name list in the package: it imports each layer by ``*``
    imports = _runtime_imports(_modules()["__init__"])
    assert [alias.name for node in imports for alias in node.names] == ["*"] * len(LAYERS)


def test_a_star_import_binds_each_layers_own_objects():
    namespace: dict = {}
    exec("from meadows import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(meadows.__all__)
    assert namespace.pop("__version__") is meadows.__version__
    owner = {n: name for name in LAYERS for n in _public_names(name)}
    assert [
        n
        for n, obj in namespace.items()
        if obj is not getattr(importlib.import_module(f"meadows.{owner[n]}"), n)
    ] == []
