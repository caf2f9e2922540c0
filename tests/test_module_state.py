"""No library module rebinds its own globals: state that steers a build is
passed in or kept by a cache the caller can clear, never a ``global``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heatsource"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Global)]
    assert lines == [], f"{path.name}: global statement on lines {lines}"
