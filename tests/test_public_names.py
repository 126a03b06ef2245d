"""The package defines no helper that only the tests use, or that nothing
uses: every module-level function or class of src/phasediff, public or
private, is named somewhere in the package outside its own definition, or
is a target of the benchmark's tracing.  Read statically, with ast; nothing
is imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phasediff"
TRACING = ROOT / "perfbench" / "tracing.py"


def _names(node: ast.AST) -> list[str]:
    """Every name node uses: variables, attributes and imported names."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.append(sub.attr)
        elif isinstance(sub, ast.alias):
            found.append(sub.name.rsplit(".", 1)[-1])
    return found


def _traced_targets() -> set[tuple[str, str]]:
    """The ("module", "name") pairs the tracing names in its string literals."""
    tree = ast.parse(TRACING.read_text())
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) == 2 and all(part.isidentifier() for part in parts):
                pairs.add((parts[0], parts[1]))
    return pairs


def test_every_definition_is_used_by_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    traced = _traced_targets()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if (module, node.name) in traced:
                continue
            own = _names(node).count(node.name)  # a recursive call is no use
            if uses.get(node.name, 0) - own == 0:
                unused.append(f"{module}.{node.name}")
    assert unused == []
