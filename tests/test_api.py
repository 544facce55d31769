"""Each public name, and each module-level function and class, is there for
a user, not only for the tests that cross-check it: a module of the package
besides ``__init__``, the acceptance suite or the benchmark's tracer."""

import ast
import importlib.util
from pathlib import Path

import shapley_lg

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(shapley_lg.__file__).parent
MODULES = sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})
#: The attribute of each kind of node that names what it uses.
_USES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _nodes(path):
    return ast.walk(ast.parse(path.read_text()))


def _reads(path):
    return {getattr(node, _USES[type(node)]) for node in _nodes(path)
            if type(node) in _USES}


def _package_users():
    """Names the package's modules and the tracer's patch points read."""
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {attr for _, attr, _ in tracing.PATCH_POINTS}.union(
        *map(_reads, MODULES))


def test_every_public_name_has_a_user():
    users = _package_users() | {
        alias.name for node in _nodes(ROOT / "tests" / "test_acceptance.py")
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(set(shapley_lg.__all__) - {"__version__"} - users) == []


def test_every_definition_has_a_user():
    users = _package_users() | _reads(ROOT / "tests" / "test_acceptance.py")
    unused = [f"{path.stem}.{node.name}" for path in MODULES
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in users]
    assert unused == []
