"""Every Python source of the project parses as Python 3.10, the oldest
version CI runs, whatever interpreter runs the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py")
)


def test_sources_found():
    assert any(p.name == "wordsolver.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
