"""Every public top-level function and class of the package is reached,
every defaulted parameter of a public top-level function is passed, and
every name a package module imports is used.

A definition counts as reached when some code in src/ or bench/, outside
the definition itself, names it: as an identifier (a call, an attribute,
an import) or as a string, which is how bench/tracing.py lists the
functions it wraps. Code that only tests name is dead weight in src/.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name -> why it may stay unreached from src/ and bench/
ALLOWED = {}

# function.parameter -> why no call in src/ or bench/ need pass it
UNPASSED_ALLOWED = {}


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rpartition(".")[2], node.asname]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def test_every_public_definition_is_named_outside_itself():
    definitions, uses = [], {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "taskaff":
            definitions += [(path, node) for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                            and not node.name.startswith("_")]
        for node in ast.walk(tree):
            for name in _names(node):
                uses.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    assert definitions
    unreached = [f"{path.stem}.{node.name}" for path, node in definitions
                 if node.name not in ALLOWED
                 and all(p == path and node.lineno <= line <= node.end_lineno
                         for p, line in uses.get(node.name, []))]
    assert unreached == []


def _defaulted_parameters(func):
    """(name, position or None) of each parameter of ``func`` with a default;
    a keyword-only parameter has no position."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    return ([(arg.arg, k) for k, arg in enumerate(positional) if k >= first]
            + [(arg.arg, None) for arg, default in zip(func.args.kwonlyargs,
                                                       func.args.kw_defaults)
               if default is not None])


def test_every_defaulted_parameter_is_passed():
    # A default that no caller overrides is a knob nobody turns: it belongs in
    # the function's body, or as a module constant. A call passes a parameter
    # by keyword, by a positional argument at its place, or possibly by
    # unpacking (*args, **kwargs). An allowed entry must still be unpassed.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in
             sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))]
    functions = [node for path in sorted((ROOT / "src" / "taskaff").glob("*.py"))
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    unpassed = {f"{func.name}.{arg}": k for func in functions
                for arg, k in _defaulted_parameters(func)}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Name, ast.Attribute)):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(kw.arg is None for kw in node.keywords))
        keywords = {kw.arg for kw in node.keywords}
        for key, k in list(unpassed.items()):
            function, _, arg = key.partition(".")
            if function == name and (unpacks or arg in keywords
                                     or (k is not None and len(node.args) > k)):
                del unpassed[key]
    assert sorted(unpassed) == sorted(UNPASSED_ALLOWED)


def test_no_module_imports_a_name_it_never_uses():
    # An import on a line marked "# noqa" is exempt: bench/tracing.py wraps
    # train_subset in each module that imports it so.
    unused = []
    for path in sorted((ROOT / "src" / "taskaff").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(source), source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.stem}:{alias.lineno} {name}")
    assert unused == []
