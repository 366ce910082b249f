"""The shipped surface: every name ``src/`` defines is used by the program,
every helper ``tests/`` defines is read by the tests, and every module in
``src/`` and ``tests/`` reads each name it imports.

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


def _uses(tree, members: bool = False) -> Counter:
    """Names read as a plain name, an attribute or an import, counted; with
    ``members``, attribute reads alone, the one way a method or a property
    is used (a parameter or a local of the same name is not a use).

    The AST sees names inside f-strings, which ``tokenize`` does not.
    """
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif members:
            continue
        elif isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_in_src_has_a_use_in_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    uses = {members: sum((_uses(tree, members) for tree in trees.values()), Counter())
            for members in (False, True)}
    unused = []
    for path in SRC:
        for scope in ast.walk(trees[path]):
            member = isinstance(scope, ast.ClassDef)
            for node in ast.iter_child_nodes(scope):
                if not isinstance(node, _DEFS) or _is_dunder(node.name):
                    continue
                # a recursive call or a method naming its own class does not count
                if uses[member][node.name] - _uses(node, member)[node.name] < 1:
                    owner = f"{scope.name}." if member else ""
                    unused.append(f"{path.stem}.{owner}{node.name}")
    assert not unused, f"defined in src/ but used only by tests: {sorted(unused)}"


def test_every_helper_in_tests_is_read():
    # a fixture is read where a test or another fixture names it as an argument
    trees = {path: ast.parse(path.read_text(), str(path)) for path in TESTS}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    uses.update(node.arg for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.arg))
    unread = [f"{path.stem}.{node.name}" for path, tree in trees.items() for node in tree.body
              if isinstance(node, _DEFS) and not node.name.startswith("test_")
              and uses[node.name] - _uses(node)[node.name] < 1]
    assert not unread, f"defined in tests/ but read by no test: {sorted(unread)}"


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
