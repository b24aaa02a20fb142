"""Rules on the library source that no runtime test would catch.

Runtime checks raise the package's own errors: an ``assert`` vanishes under
``python -O`` and reports an AssertionError instead of a DomainError.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "szegolab"


def test_no_assert_statements():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
