"""Every name a package module imports is used in that module, or is
re-exported through its __all__, so a deletion leaves no stale import
behind.  A static check over the source, with the standard ast module."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "parsilab")
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
