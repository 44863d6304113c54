import ast
import re
from pathlib import Path

import eigencubic

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(eigencubic.__file__).parent


def _layout_order():
    """The modules of README's library layout, in the order listed."""
    text = README.read_text()
    block = text[text.index("## Library layout"):]
    block = block[block.index("```"):]
    block = block[:block.index("```", 3)]
    return re.findall(r"^  (\w+)\.py\b", block, re.M)


def _imported_modules(node):
    """The package modules an import node names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return parts[1:2] if parts[0] == "eigencubic" else []
        base = node.module.split(".")[0] if node.module else None
        return [base] if base else [a.name for a in node.names]
    return [a.name.split(".")[1] for a in node.names
            if a.name.startswith("eigencubic.")]


def test_modules_import_only_earlier_layers_at_module_top():
    # each module of src/ is listed once in README's layout, imports only
    # at module level (no import inside a function or class), and imports
    # only package modules listed before it
    order = _layout_order()
    assert sorted(order) == sorted(p.stem for p in PACKAGE.glob("*.py"))
    for pos, name in enumerate(order):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            assert id(node) in top, (name, node.lineno)
            for dep in _imported_modules(node):
                assert dep in order[:pos], (name, dep)
