"""The library holds only what its commands run.

Every public top-level function, class or constant in ``src/symgrowth``
must be used somewhere in the package besides its own definition.  Code
that only tests call belongs under ``tests/``.
"""

import ast
from pathlib import Path

import symgrowth

PACKAGE = Path(symgrowth.__file__).resolve().parent

# Definitions by brute force that no command calls: tests compare the fast
# path against them, and keeping them beside the other oracles is their job.
ALLOWED = {
    "oracle_conv_value",  # tests compare the lengths of conv_table's entries against it
    "oracle_conv_table",  # tests compare conv_table's entry lengths against it
    "oracle_quadruples",  # tests compare quadruple counts from conv_table against it
    "oracle_overlap",  # tests compare oracle_overlaps and conv_table's overlap entries against it
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unused_public_names():
    """(module, name) of each public top-level definition no other statement uses."""
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            used = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            statements.append((path.name, node, used))
    return [
        (module, name)
        for module, node, _ in statements
        for name in _defined_names(node)
        if not name.startswith("_")
        and not any(name in used for _, other, used in statements if other is not node)
    ]


def test_every_public_name_in_src_is_used_in_src():
    unused = [(module, name) for module, name in unused_public_names() if name not in ALLOWED]
    assert unused == [], f"public names only tests reach; move them to tests/: {unused}"


def test_every_allowed_name_is_still_unused():
    # an oracle reference that a command starts to call needs no exemption
    assert {name for _, name in unused_public_names()} == ALLOWED
