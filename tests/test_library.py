"""The library holds only what its commands run.

Every public top-level function, class or constant in ``src/symgrowth``
must be used somewhere in the package besides its own definition, where a
use is a name.  So must every public method or property of a class there,
where a use is an attribute (``x.name``) only: a local variable or
parameter that shares a method's name does not call it.  A method that
overrides one of a base class outside the package
(``argparse.ArgumentParser.error``) is called from there and needs no use
inside.  Code that only tests call belongs under ``tests/``.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import symgrowth

PACKAGE = Path(symgrowth.__file__).resolve().parent

# Names no command reaches that the library keeps anyway, each with its reason.
ALLOWED: set[str] = set()

# Class members no command reaches that the library keeps anyway, each with its reason.
ALLOWED_MEMBERS = {
    # the law on encodings, for callers that hold encodings: the benchmark
    # harness times it and builds its table groups with it, and CI builds an
    # S4 table with it
    "Group.multiply",
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _modules():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def unused_public_names():
    """(module, name) of each public top-level definition no other statement uses."""
    statements = []
    for module, tree in _modules():
        for node in tree.body:
            used = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            statements.append((module, node, used))
    return [
        (module, name)
        for module, node, _ in statements
        for name in _defined_names(node)
        if not name.startswith("_")
        and not any(name in used for _, other, used in statements if other is not node)
    ]


def _mentions(node) -> Counter:
    """How often each name occurs under ``node`` as an attribute (``x.name``)."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _overrides_outside(module: str, cls: str, name: str) -> bool:
    mro = getattr(importlib.import_module(f"symgrowth.{module}"), cls).__mro__
    return any(not base.__module__.startswith("symgrowth") and hasattr(base, name) for base in mro[1:])


def unused_public_members():
    """(module, "Class.member") of each public method or property no code outside it uses."""
    modules = _modules()
    everywhere = sum((_mentions(tree) for _, tree in modules), Counter())
    return [
        (module, f"{cls.name}.{item.name}")
        for module, tree in modules
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and everywhere[item.name] == _mentions(item)[item.name]
        and not _overrides_outside(module, cls.name, item.name)
    ]


def test_every_public_name_in_src_is_used_in_src():
    unused = [(module, name) for module, name in unused_public_names() if name not in ALLOWED]
    assert unused == [], f"public names only tests reach; move them to tests/: {unused}"


def test_every_public_class_member_in_src_is_used_in_src():
    unused = [(module, name) for module, name in unused_public_members() if name not in ALLOWED_MEMBERS]
    assert unused == [], f"public methods or properties only tests reach; move them to tests/: {unused}"


def test_every_allowed_name_is_still_unused():
    # an exemption whose name a command starts to use is no longer needed
    assert {name for _, name in unused_public_names()} == ALLOWED


def test_every_allowed_member_is_still_unused():
    # likewise for a member: once a command calls it, its exemption goes
    assert ALLOWED_MEMBERS <= {name for _, name in unused_public_members()}


def test_the_member_rule_sees_attribute_uses_and_outside_overrides():
    tree = ast.parse("class A:\n    def f(self):\n        return self.g()\n    def g(self):\n        pass\n")
    counts = _mentions(tree)
    assert counts["g"] == 1 and counts["f"] == 0
    # a local variable or a bare name that shares a method's name is no use of it
    shadow = ast.parse("def h(x):\n    f = x\n    return f(g)\n")
    assert _mentions(shadow)["f"] == 0 and _mentions(shadow)["g"] == 0
    assert _overrides_outside("cli", "_Parser", "error")
    assert not _overrides_outside("oracle", "VerificationReport", "as_dict")
