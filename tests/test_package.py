"""The package as its users see it: the public names and the README example."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import quadosc

ROOT = Path(__file__).resolve().parent.parent

SRC = ROOT / "src" / "quadosc"

# The paper's construction: the plane solve is checked against it, and the
# benchmark tracer wraps these by name (a string, which the rule cannot see).
_ROUTE = "the trajectory route: the tests' reference, wrapped by the benchmark tracer"

# Public names, module-level functions and classes, and public methods of the
# package with no reader in the program or the benchmark, each kept for what
# it pins.
KEPT = {
    "solve_classical_trajectory": _ROUTE,
    "invert_endpoint_constants": _ROUTE,
    "action_integral": _ROUTE,
}

# Dataclass fields of the package that the program and the benchmark never
# read, each kept for what it pins.
KEPT_FIELDS = {
    "SpectralEstimate.psi": "the quarter-box checks compare the grid state with the full box's",
    "SpectralEstimate.residual": "the quarter-box checks hold each solve to its residual bound",
}


def _program_trees() -> list[ast.AST]:
    """The package's modules but `__init__`, the scripts and the benchmark."""
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text(), str(path)) for path in paths]


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
    loaded: set[str] = set()
    for tree in _program_trees():
        loaded |= _loaded_names(tree)
    names = set(quadosc.__all__)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (*defs, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                # a method is read as an attribute: .name anywhere counts
                names |= {
                    item.name
                    for item in node.body
                    if isinstance(item, defs) and not item.name.startswith("_")
                }
    uncalled = {name for name in names if name not in loaded}
    # a kept name that gains a caller, or leaves the package, leaves KEPT
    assert uncalled == set(KEPT)


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def test_every_dataclass_field_is_read_outside_the_tests():
    read = {
        node.attr
        for tree in _program_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                unread |= {
                    f"{node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and field.target.id not in read
                }
    # a kept field that gains a reader, or leaves its class, leaves KEPT_FIELDS
    assert unread == set(KEPT_FIELDS)


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
