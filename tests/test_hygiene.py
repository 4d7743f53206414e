"""Dead-code checks on the package source, with the standard library's ast.

Every name a module of src/injres imports must be used in that module,
every top-level private definition (a name starting with "_") must be
referenced somewhere in src/ or tests/, and every command-line flag must be
read by the CLI.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "injres"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree):
    """Names read anywhere in the tree: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported_names(tree):
    """(bound name, line) of every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = _loaded_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_private_definition_is_referenced():
    trees = {path: _parse(path) for path in
             sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        referenced |= {name for name, _ in _imported_names(tree)}
    dead = [f"{path.name}:{line} {name}"
            for path, tree in trees.items() if path.parent == PACKAGE
            for name, line in _private_definitions(tree)
            if name not in referenced]
    assert not dead, "unreferenced private definitions: " + ", ".join(dead)


def test_every_cli_flag_is_read():
    # a flag is read as an attribute of the parsed namespace, args.<dest>;
    # bare names do not count (suite_bass has a local variable "table")
    from injres.cli import build_parser
    read = {node.attr for node in ast.walk(_parse(PACKAGE / "cli.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    parsers, unread = [build_parser()], []
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action.choices, dict):  # the subcommands
                parsers += action.choices.values()
            if action.dest != "help" and action.dest not in read:
                unread.append(action.dest)
    assert not unread, "flags never read: " + ", ".join(unread)
