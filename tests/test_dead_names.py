"""Code that nothing reads is deleted: every module-level function, class and
assigned name of the package is read somewhere outside its own definition,
in the package, its tests, demos, tools or benchmark.

A read is a loaded name or an attribute of that name, matched by name alone.
Dunder names are exempt, and so are the ``cli.cmd_*`` commands, which
``cli.main`` looks up by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sheafgauge"
READERS = ("src", "tests", "demos", "tools", "perfbench")


def _definitions(tree):
    """(name, node) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(tree, skip):
    """Names loaded, and attribute names, in ``tree`` outside the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unread(package: Path, readers):
    """The module-level names of the modules in ``package`` that no file of
    ``readers``, the package's own among them, reads."""
    trees = {path: ast.parse(path.read_text()) for path in readers}
    readers_of = {}
    for path, tree in trees.items():
        for name in _reads(tree, None):
            readers_of.setdefault(name, set()).add(path)
    unread = []
    for module in sorted(package.glob("*.py")):
        for name, node in _definitions(trees[module]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if module.stem == "cli" and name.startswith("cmd_"):
                continue
            paths = readers_of.get(name, set())
            if paths - {module} or module in paths and name in _reads(trees[module], node):
                continue
            unread.append(f"{module.stem}.{name}")
    return unread


def _python_files():
    return [path for top in READERS for path in sorted((ROOT / top).rglob("*.py"))]


def test_every_module_level_name_of_the_package_is_read():
    assert _unread(PACKAGE, _python_files()) == []


def test_the_guard_finds_a_name_read_only_by_its_own_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "Cell = tuple\n\n\ndef walk(n):\n    return walk(n - 1) if n else Cell\n\n\n"
        "def cmd_go():\n    pass\n\n\n__version__ = '1'\n")
    (tmp_path / "cli.py").write_text("def cmd_go():\n    pass\n")
    assert _unread(tmp_path, sorted(tmp_path.glob("*.py"))) == ["mod.walk", "mod.cmd_go"]
