"""Every name a source file imports is used in that file.

No linter is installed, so this walks the syntax tree of each ``.py`` file
under ``src/``, ``tests/`` and ``demos/``.  A name listed in ``__all__``
counts as used: the package re-exports it.  So each ``__all__`` entry under
``src/`` must also be a name its module defines.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """The imported names that the module never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom .macro import MacroState, init_macro\n"
              "__all__ = ['init_macro']\n"
              "np.zeros(1)\n")
    assert unused_imports(source) == ["os", "MacroState"]


def test_every_import_is_used():
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert {path: names for path, names in unused.items() if names} == {}


def exported_names(source):
    """The strings of the module's ``__all__``, or None when it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_name_in_all_exists():
    # a stale entry passes the import check above but breaks `from swarmscale import *`
    missing = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        names = exported_names(path.read_text())
        if names is not None:
            dotted = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
            module = importlib.import_module(dotted.removesuffix(".__init__"))
            missing[dotted] = [name for name in names if not hasattr(module, name)]
    assert "swarmscale.__init__" in missing
    assert {dotted: names for dotted, names in missing.items() if names} == {}
