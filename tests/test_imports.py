"""Every module-level import in `src/fedchain` is used in its module, and
every private function or class defined in `src/fedchain` is used there.
`import fedchain` leaves PyYAML unloaded.

No linter ships with the project, so this walks each module's syntax tree
instead. `__init__.py` is skipped for imports: its imports are the
package's exports. A private helper that only the tests call belongs in
`tests/`, not in the package.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fedchain"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no `Name` node in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_catches_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = 0\n"
    )
    assert unused_imports(source) == ["line 1: field", "line 2: np"]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private (`_name`, not dunder) functions and classes, at any depth,
    that no `Name` or `Attribute` node in any of `sources` refers to."""
    defined, used = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name} line {line}: {fn}" for name, line, fn in defined if fn not in used]


def test_every_private_definition_is_used_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_check_catches_an_unused_private_definition():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "\n"
            "def _only_tests_call_me():\n"
            "    return _used()\n"
            "\n"
            "class _Helper:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "\n"
            "    def _method(self):\n"
            "        return self.x\n"
        ),
        "b.py": "from .a import _Helper\n\nvalue = _Helper()\n",
    }
    assert unused_private_definitions(sources) == [
        "a.py line 4: _only_tests_call_me", "a.py line 11: _method"]


def test_import_leaves_yaml_unloaded():
    # PyYAML is loaded only when a config file is read
    # (`ExperimentConfig.from_file`; `tests/test_cli.py` runs `--config`)
    code = "import sys, fedchain; print(sorted(m for m in sys.modules if m.split('.')[0] == 'yaml'))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
