"""Rules on the library source and its README that no runtime test would
catch.

Runtime checks raise the package's own errors: an ``assert`` vanishes under
``python -O`` and reports an AssertionError instead of a DomainError.  The
README's command table is the CLI's user documentation, so it names exactly
the flags each command declares, and the private helpers it names exist.
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


def module_names():
    """Module-level names the package defines, the names it reads (loads and
    attributes) and the names it imports."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))]
    defined, read, imported = set(), set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                imported.add(node.name)
    return defined, read, imported


def test_no_unused_private_names():
    # A module-level private function or constant that nothing in the
    # package uses besides its definition is a helper a change left behind.
    defined, read, imported = module_names()
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert sorted(private - read - imported) == []


def test_no_unread_constants():
    # A module-level UPPER_CASE constant that no code in the package reads
    # (an import alone is not a read) is a setting a change left behind.
    defined, read, _ = module_names()
    assert sorted(name for name in defined if name.isupper() and name not in read) == []


def readme_private_names(text):
    """The ``_private`` identifiers that README text names in backticks,
    alone or as the last part of a dotted name."""
    return set(re.findall(r"`(?:[A-Za-z]\w*\.)*(_[A-Za-z]\w*)[`(]", text))


def test_readme_private_names_exist():
    # A helper renamed or deleted in the package leaves README describing
    # a name that no longer exists.
    defined, _, _ = module_names()
    named = readme_private_names((ROOT / "README.md").read_text())
    assert sorted(named - defined) == []
