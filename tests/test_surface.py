"""The shipped surface: every name ``src/`` defines is used by the program.

Code that only the tests call belongs in ``tests/helpers.py`` beside the
other oracles, so ``src/`` holds what the CLI and the benchmark run.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nefqvf").glob("*.py"))
PROGRAM = SRC + sorted((ROOT / "perfbench").glob("*.py"))

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
