"""No code that nothing calls: every top-level function and class of the
package, and every method that is not a dunder, is referenced by name
somewhere in the package or its tests."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qsuperalg")
TESTS = os.path.join(ROOT, "tests")


def _trees(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _definitions(module, tree):
    """(qualified name, bare name) of each definition the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (module, node.name), node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield ("%s.%s.%s" % (module, node.name, item.name),
                           item.name)


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_definition_is_referenced():
    defs, refs = [], set()
    for directory in (PACKAGE, TESTS):
        for name, tree in _trees(directory):
            if directory == PACKAGE:
                defs += _definitions(name[:-len(".py")], tree)
            refs.update(_references(tree))
    assert defs
    assert [q for q, bare in defs if bare not in refs] == []
