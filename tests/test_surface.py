"""The shipped surface: every name ``src/`` defines is used by the program,
and every module in ``src/`` and ``tests/`` reads each name it imports.

Code that only the tests call belongs in ``tests/helpers.py`` beside the
other oracles, so ``src/`` holds what the CLI and the benchmark run.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nefqvf").glob("*.py"))
PROGRAM = SRC + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree) -> Counter:
    """Names read as a plain name, an attribute or an import, counted.

    The AST sees names inside f-strings, which ``tokenize`` does not.
    """
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_in_src_has_a_use_in_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = []
    for path in SRC:
        for node in ast.walk(trees[path]):
            if not isinstance(node, _DEFS) or _is_dunder(node.name):
                continue
            # a recursive call or a method naming its own class does not count
            if uses[node.name] - _uses(node)[node.name] < 1:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"defined in src/ but used only by tests: {sorted(unused)}"


# perfbench/tracing.py patches cli.mixed_test by this name, so cli imports it
# without reading it; ROADMAP item 15 would drop the patch and the import
_UNREAD_IMPORTS = {("cli", "mixed_test")}


def _imported(tree):
    """Names that the module's imports bind, but the ``__future__`` one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_import_is_read():
    stale = []
    for path in SRC + TESTS:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale += [f"{path.stem}.{name}" for name in _imported(tree)
                  if name not in read and (path.stem, name) not in _UNREAD_IMPORTS]
    assert not stale, f"imported but never read: {sorted(stale)}"
