"""Every name a package module imports is used in that module, or is
re-exported through its __all__, so a deletion leaves no stale import
behind; and every function and class the package defines is named
outside the tests, so none is reached by tests alone.  Static checks
over the source, with the standard ast module."""

import ast
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "parsilab")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def unused_imports(source):
    """The names that source imports and neither reads nor lists in a
    top-level __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nfrom .hst import RHst, ROOT\n"
              "from .model import Cliques\n__all__ = ['Cliques']\n"
              "print(np.pi, ROOT)\n")
    assert unused_imports(source) == ["RHst", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PACKAGE, module)) as f:
        assert unused_imports(f.read()) == []


def python_sources(directory):
    """The text of every .py file under directory."""
    sources = []
    for parent, _, names in sorted(os.walk(directory)):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(parent, name)) as f:
                    sources.append(f.read())
    return sources


def unnamed_definitions(package, others):
    """The functions and classes that the package sources define and no
    source names other than by their own def: as no name, no attribute
    and no word of a string that is not a docstring.  Dunder methods are
    called by the language, so they are left out."""
    defined, named = set(), set()
    for source in package + others:
        tree = ast.parse(source)
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))]
        docstrings = {id(node.body[0].value) for node in scopes
                      if node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in docstrings):
                named.update(re.findall(r"\w+", node.value))
        if source in package:
            defined.update(node.name for node in scopes
                           if not isinstance(node, ast.Module)
                           and not (node.name.startswith("__")
                                    and node.name.endswith("__")))
    return sorted(defined - named)


def test_unnamed_definitions_are_found():
    package = ['"""Uses _helper and Shape."""\n'
               "class Shape:\n"
               "    def __repr__(self):\n        return 'a shape'\n"
               "    def area(self):\n        return 0\n"
               "def _helper():\n    \"\"\"Not _helper.\"\"\"\n"
               "def traced():\n    pass\n"
               "def solve(shape):\n    return shape.area()\n"]
    others = ["LAYERS = [('mod', 'traced')]\nsolve(None)\n"]
    assert unnamed_definitions(package, others) == ["Shape", "_helper"]


def test_every_definition_is_named_outside_the_tests():
    """A function or class that only tests reach belongs in the tests'
    reference code, not in the package."""
    assert unnamed_definitions(
        python_sources(PACKAGE),
        python_sources(os.path.join(ROOT, "perfbench"))) == []
