"""No function of the term layer lies on a call cycle.

A recursive pass over a term takes one frame per nesting level, so it fails
on terms nested deeper than CPython's recursion limit, a limit that also
moves with the interpreter and the caller's own depth.  ``terms.py`` and
``simplify.py`` run every such pass as a loop.  This test reads their source
and fails if a function there can reach itself through the calls and
references it makes.  Calls made implicitly (``==``, ``hash``) do not show
up here; ``tests/test_deep_terms.py`` covers them on deep terms.  Nor does
the code ``simplify`` generates for its rule matchers, which calls only
constructors and ``==``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "meadows"
MODULES = ("terms", "simplify")
SCOPES = (ast.FunctionDef, ast.ClassDef)

# The recursion that stays, each bounded by something other than the depth
# of a term that is read, evaluated or rewritten.
ALLOWED = {
    "terms._gen": (
        "recurses as deep as the term it generates; each level stops with "
        "probability at least 0.3, and each binary node splits the size budget"
    ),
}


def _own_nodes(function):
    """The nodes of ``function``'s body; a nested function or class is
    yielded, but not its body (a lambda's body is its enclosing function's)."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack += ast.iter_child_nodes(node)


def _reference(node):
    """The name a node refers to: ``f`` or ``self.f``, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _call_graph():
    """Each function, method and nested function, by qualified name, to the
    functions it calls or refers to, resolved through the names in its scope:
    its module's functions, those imported from the other module, its
    class's methods (as ``self.f``) and its enclosing functions' nested ones."""
    graph = {}
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        scope = {
            node.name: f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                scope.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        todo = [(node, module, scope) for node in tree.body]
        while todo:
            node, prefix, scope = todo.pop()
            if isinstance(node, ast.ClassDef):
                methods = {
                    f"self.{item.name}": f"{prefix}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
                inside = f"{prefix}.{node.name}"
                todo += [(item, inside, {**scope, **methods}) for item in node.body]
            elif isinstance(node, ast.FunctionDef):
                name = f"{prefix}.{node.name}"
                own = list(_own_nodes(node))
                inner = {n.name: f"{name}.{n.name}" for n in own if isinstance(n, ast.FunctionDef)}
                visible = {**scope, **inner}
                graph[name] = {visible[r] for r in map(_reference, own) if r in visible}
                todo += [(n, name, visible) for n in own if isinstance(n, SCOPES)]
    return {name: targets & graph.keys() for name, targets in graph.items()}


def _on_cycles(graph):
    """The functions that can reach themselves."""
    on_cycles = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            name = stack.pop()
            if name == start:
                on_cycles.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack += graph[name]
    return on_cycles


def test_the_graph_sees_the_passes():
    graph = _call_graph()
    assert "terms._read" in graph["terms.parse"]
    assert "terms._error" in graph["terms._read"]
    assert "terms._fold" in graph["terms.eval_exact"]
    assert "terms.eval_exact.leave" in graph["terms.eval_exact"]
    assert "simplify._matchers" in graph["simplify.rewrite_simplify"]
    assert "terms._fold" in graph["simplify._matchers"]


def test_the_guard_finds_recursion_where_it_stays():
    assert _on_cycles(_call_graph()) >= set(ALLOWED)


def test_no_other_function_lies_on_a_call_cycle():
    assert _on_cycles(_call_graph()) - set(ALLOWED) == set()
