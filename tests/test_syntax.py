"""Every Python source of the project parses as Python 3.10, the oldest
version CI runs, whatever interpreter runs the tests, the runtime
imports nothing outside the standard library nor the regex module,
and no runtime module but the command line interface and the
generator writes to the standard streams."""

import ast
import sys
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


RUNTIME = [p for p in SOURCES if p.is_relative_to(ROOT / "src" / "seqsolve")]


def _absolute_imports(path):
    """(line, module) for each module a source imports by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: str(p.relative_to(ROOT)))
def test_runtime_imports_only_the_stdlib(path):
    # the runtime has no third-party dependency; tests and the bench may
    for line, m in _absolute_imports(path):
        assert m.split(".")[0] in sys.stdlib_module_names, (line, m)


def test_runtime_uses_no_regexes():
    # formulas and programs are read by one tokenizer, parser.tokenize;
    # no runtime module matches or rewrites text with regexes
    importers = [
        f"{path.name}:{line}" for path in RUNTIME for line, m in _absolute_imports(path)
        if m == "re"
    ]
    assert importers == []


QUIET = [p for p in RUNTIME if p.name not in ("cli.py", "randgen.py")]


@pytest.mark.parametrize("path", QUIET, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_does_not_print(path):
    # only the command line interface and the generator's script write
    # to the standard streams; the library returns what it finds
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Name) and node.id == "print"), node.lineno
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert (node.value.id, node.attr) not in (
                ("sys", "stdout"), ("sys", "stderr")
            ), node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "sys":
            assert not {a.name for a in node.names} & {"stdout", "stderr"}, node.lineno


def _package_imports(name: str) -> set[str]:
    """The package modules a runtime module imports. They can only be
    relative imports: an absolute one fails the stdlib test above."""
    tree = ast.parse((ROOT / "src" / "seqsolve" / name).read_text(encoding="utf-8"))
    return {
        node.module or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
    }


def test_oracle_and_rewriting_stay_independent():
    # the interpreter that checks the solver's answers shares only the
    # AST with the pipeline, and elaboration never consults it
    assert _package_imports("oracle.py") == {"ast"}
    assert "oracle" not in _package_imports("elaborate.py")
