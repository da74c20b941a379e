"""No ``repro`` module imports a name it never uses.

An unused import is dead code: it still runs when the module is imported,
and it hides what the module really depends on.  This test walks the
syntax tree of every module in the ``repro`` package and lists each
imported name that nothing in the module reads: no name in its code, no
string annotation and no ``__all__`` entry.  ``__init__.py`` files are
exempt, because their imports are the package's re-exports, and so is
``from __future__ import annotations``.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            yield node.returns
            for argument in (arguments.posonlyargs + arguments.args
                             + arguments.kwonlyargs
                             + [arguments.vararg, arguments.kwarg]):
                if argument is not None:
                    yield argument.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    """Every name *tree* reads, the names in string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _read_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass  # a Literal[...] string, not a forward reference
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree):
    """(line, bound name) of every import in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    modules = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        modules += 1
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree) | _exported(tree)
        unused += [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
                   for line, name in _imported(tree) if name not in read]
    assert modules > 80
    assert not unused, "unused imports:\n" + "\n".join(unused)
