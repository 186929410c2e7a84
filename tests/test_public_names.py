"""No dead public names: every public module-level function, class or
constant of `conelab` is used by the package's own code, or exported in
`conelab.__all__`."""

import ast
import pathlib

import conelab

SRC = pathlib.Path(conelab.__file__).resolve().parent


def _public_definitions(tree: ast.Module):
    """Names of the module-level functions, classes and assigned constants
    that do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(tree: ast.Module):
    """Names the code reads, as a bare name, an attribute or an import;
    docstrings and comments are not code, and an assignment is not a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module}.{name}" for module, tree in trees.items()
            for name in _public_definitions(tree)
            if name not in used and name not in conelab.__all__]
    assert dead == [], f"public names no conelab code uses: {dead}"
