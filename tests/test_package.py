"""The package as its users see it: the public names and the README example."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import quadosc

ROOT = Path(__file__).resolve().parent.parent

# Public names with no caller in the program, each kept for what it pins or
# what is planned on it.
KEPT = {
    "gamma_coefficient": "the paper's printed chain coefficients are pinned through it",
    "oscillator_matrix_element": "the planned spectral oracle assembles its basis matrix from it",
    "pde_residual": "the planned per-run certificate against the transport equations",
}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names read in ``tree`` as a name or an attribute, outside any def or
    class of the same name."""
    found: set[str] = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    paths = [p for p in (ROOT / "src" / "quadosc").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    loaded: set[str] = set()
    for path in paths:
        loaded |= _loaded_names(ast.parse(path.read_text(), str(path)))
    uncalled = {name for name in quadosc.__all__ if name not in loaded}
    # a kept name that gains a caller leaves KEPT
    assert uncalled == set(KEPT)


def test_readme_library_block_states_its_values():
    text = (ROOT / "README.md").read_text()
    [block] = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    namespace: dict = {}
    exec(block, namespace)
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.split(",")[0].strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == value, line
        stated.append(value)
    assert stated == [7.524729166666667, True, True]
