"""Rules on the package source itself."""

import ast
import sys
from pathlib import Path

import zsseq

SOURCES = sorted(Path(zsseq.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips ``assert``, so a broken invariant must raise
    # CrossCheckError (or another ZsseqError) instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []


def test_runtime_imports_only_the_standard_library():
    # The package runs on a bare Python; an absolute import names a
    # standard-library module, a relative one names the package itself.
    outside = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert len(SOURCES) >= 8
    assert outside == []
