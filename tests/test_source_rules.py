"""Rules on the library source and its README that no runtime test would
catch.

Runtime checks raise the package's own errors: an ``assert`` vanishes under
``python -O`` and reports an AssertionError instead of a DomainError.  The
README's command table is the CLI's user documentation, so it names exactly
the flags each command declares.
"""

import ast
import re
from pathlib import Path

from szegolab import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "szegolab"


def test_no_assert_statements():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def readme_command_flags():
    """{command: flags named in its row} from README's command/flag table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| command | flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names, rest = line.split(" | ", 1)
        flags = set(re.findall(r"--([a-z0-9][a-z0-9-]*)", rest))
        for name in re.findall(r"`([a-z0-9-]+)`", names):
            assert name not in table, f"{name} has two rows"
            table[name] = flags
    return table


def test_readme_lists_each_commands_flags():
    table = readme_command_flags()
    assert sorted(table) == sorted(cli.COMMANDS)
    for name, (_, _, defaults) in cli.COMMANDS.items():
        assert table[name] == set(defaults), name
