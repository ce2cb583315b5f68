"""Import layering: each kdbench module may import only the kdbench modules
listed for it here, read from its source with `ast`.

File formats sit below the metrics, so the formats module takes and returns
plain arrays; the generator and feature extraction know only the data model.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import kdbench

SRC = Path(kdbench.__file__).parent

# "__init__" stands for the package itself (`from . import __version__`).
ALLOWED = {
    "errors": set(),
    "core": {"errors"},
    "features": {"core", "errors"},
    "synthgen": {"core", "errors"},
    "protocol": {"core", "errors"},
    "formats": {"core", "errors", "protocol"},
    "baseline": {"core", "errors", "features", "protocol"},
    "verifmetrics": {"errors", "protocol"},
    "fairmetrics": {"core", "errors", "protocol", "verifmetrics"},
    "cli": {
        "__init__", "baseline", "core", "errors", "fairmetrics", "features",
        "formats", "protocol", "synthgen", "verifmetrics",
    },
    "__init__": {"core", "features", "protocol", "synthgen"},
}


def kdbench_imports(path: Path) -> set[str]:
    """The kdbench modules a source file imports, relative or absolute."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names = [f"kdbench.{node.module}"]
            else:
                names = [f"kdbench.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] != "kdbench":
                continue
            module = parts[1] if len(parts) > 1 else "__init__"
            found.add(module if (SRC / f"{module}.py").is_file() else "__init__")
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_lower_layers(module):
    imported = kdbench_imports(SRC / f"{module}.py") - {module}
    assert imported <= ALLOWED[module], f"{module} imports {sorted(imported - ALLOWED[module])}"
