"""Every name the benchmark and the scripts import from the package exists,
and so does every class attribute they reach.

``perfbench/`` and ``scripts/`` run outside the test suite, so a library
change that deletes or renames a name they import, or an attribute or
keyword they read off a package object, would otherwise only show when they
are run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLIENTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("perfbench/tests/*.py"),
                  *ROOT.glob("scripts/*.py")])

# The attribute and keyword names used in perfbench/ and scripts/ that a class
# under src/vielbein defines, frozen from an AST scan of both: a name that only
# coincides with a package attribute (``path``, ``seed``) is kept, so the list
# errs toward pinning more.  Extend it when a client reaches a new attribute.
CLIENT_ATTRIBUTES = (
    "T", "arg", "check", "contains", "cp", "de", "det", "dim", "e", "einstein",
    "einstein_deviations", "einstein_forms", "einv", "entries", "eval_jets", "gamma",
    "holonomic", "invariant", "k", "kaluza_config", "left", "maxwell_deviations",
    "maxwell_forms", "name", "omega", "operand", "params", "path", "potential", "random",
    "riemann", "right", "sample_points", "scalar", "seed", "signature", "solution", "sp",
    "tetrad", "to_expr", "tolerance",
)


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


def _class_attributes() -> set[str]:
    """The names the classes under src/vielbein define: methods, class-level
    and dataclass fields, and attributes their methods set on ``self``."""
    names = set()
    for path in sorted((ROOT / "src" / "vielbein").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names.add(node.target.id)
                elif isinstance(node, ast.Assign):
                    names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            names |= {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return names


def test_client_attributes_are_still_defined():
    missing = sorted(set(CLIENT_ATTRIBUTES) - _class_attributes())
    assert not missing, f"perfbench/ or scripts/ reach attributes no class defines: {missing}"
