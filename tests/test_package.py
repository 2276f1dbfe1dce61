"""The package's public names and module-level bindings."""

import ast
from pathlib import Path

import chowline


def test_every_public_name_resolves():
    missing = [name for name in chowline.__all__
               if not hasattr(chowline, name)]
    assert missing == []
    assert len(set(chowline.__all__)) == len(chowline.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chowline import *", namespace)
    assert set(chowline.__all__) <= set(namespace)


def _module_level_names(tree):
    """The names a module binds outside its functions and classes, by
    assignment, by a ``for`` or ``with`` target or by an import."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).partition(".")[0]
                      for alias in node.names]
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_only_chern_ring_binds_the_declaration_limits():
    # A second module-level binding of a limit is a copy that lowering
    # ``chern_ring``'s leaves as it was; a function-local import reads
    # the current value.
    package = Path(chowline.__file__).parent
    found = [f"{path.name}: {name}"
             for path in sorted(package.glob("*.py"))
             if path.name != "chern_ring.py"
             for name in _module_level_names(ast.parse(path.read_text()))
             if name in ("TRUNCATION_LIMIT", "ROOT_MONOMIAL_LIMIT")]
    assert found == []
