"""No code that nothing calls: every top-level function and class of the
package, and every method that is not a dunder, is referenced by name
somewhere in the package, the benchmark harness (``bench/``) or the python
examples of README.md.  A name that only tests reach does not count as
used.  And no package module reaches into another for a ``_``-prefixed
name."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qsuperalg")
BENCH = os.path.join(ROOT, "bench")
README = os.path.join(ROOT, "README.md")


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
    for name, tree in _trees(PACKAGE):
        defs += _definitions(name[:-len(".py")], tree)
        refs.update(_references(tree))
    for _, tree in _trees(BENCH):
        refs.update(_references(tree))
    with open(README, encoding="utf-8") as fh:
        for code in re.findall(r"```python\n(.*?)```", fh.read(), re.S):
            refs.update(_references(ast.parse(code)))
    assert defs
    assert [q for q, bare in defs if bare not in refs] == []


def test_no_module_imports_another_modules_private_names():
    found = []
    for name, tree in _trees(PACKAGE):
        # local names bound to sibling modules, as in ``from . import x as y``
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.append("%s: from .%s import %s"
                                     % (name, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in siblings):
                found.append("%s: %s.%s" % (name, node.value.id, node.attr))
    assert found == []
