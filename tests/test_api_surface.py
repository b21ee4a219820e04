"""Every name the benchmark and the scripts import from the package exists.

``perfbench/`` and ``scripts/`` run outside the test suite, so a library
change that deletes or renames a name they import would otherwise only show
when they are run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLIENTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("perfbench/tests/*.py"),
                  *ROOT.glob("scripts/*.py")])


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from vielbein... import name`` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "vielbein"
            for alias in node.names]


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:   # a submodule, as in ``from vielbein import cli``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_clients_import_from_the_package():
    assert sum(len(_package_imports(p)) for p in CLIENTS) > 0


@pytest.mark.parametrize("path", CLIENTS, ids=[str(p.relative_to(ROOT)) for p in CLIENTS])
def test_imported_names_resolve(path):
    missing = [f"{m}.{n}" for m, n in _package_imports(path) if not _resolves(m, n)]
    assert not missing, f"{path.relative_to(ROOT)} imports missing names: {missing}"
