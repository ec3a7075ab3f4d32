"""The package's modules import one another in layers, and only at module level."""

import ast
from pathlib import Path

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
