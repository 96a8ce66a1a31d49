"""src/ holds what a command runs: every module-level function and class of
the engine is used by the engine.

A name is used when it is loaded (called, passed or read) somewhere in
src/scrollinflect outside its own definition, in its own module or in one
that imports it from there; the import alone does not count.  A reference
that only tests compare against belongs beside them (tests/references.py),
and a name nothing loads is deleted.  Two kinds of name are exempt: the
[project.scripts] entry of pyproject.toml, which the installed console
script calls, and the module-level names perfbench/tracer.py wraps
(TARGETS), which the benchmark binds.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scrollinflect"

sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402


def _script_entries():
    """(module, name) of each [project.scripts] entry.  Read line by line:
    Python 3.10 has no tomllib."""
    out, section = set(), None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            module, name = line.split("=", 1)[1].strip().strip("\"'").split(":")
            out.add((module.rsplit(".", 1)[-1], name))
    return out


def _traced_names():
    """(module, module-level name) of each tracer target."""
    return {(module, path.split(".")[0]) for module, path, _, _ in tracer.TARGETS}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(trees):
    """The (module, name) of every top-level def and class."""
    return {(module, node.name)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _bindings(trees, defs):
    """Per module, {bound name: (module, name) of the definition it names},
    following `from .module import name [as alias]` chains."""
    raw = {}
    for module, tree in trees.items():
        table = {name: (module, name) for (mod, name) in defs if mod == module}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    table[alias.asname or alias.name] = (node.module, alias.name)
        raw[module] = table

    def resolve(key):
        seen = set()
        while key not in defs and key not in seen and key[0] in raw:
            seen.add(key)
            key = raw[key[0]].get(key[1], key)
        return key

    return {module: {bound: resolve(key) for bound, key in table.items()}
            for module, table in raw.items()}


def _used(trees, defs):
    """The (module, name) definitions loaded outside their own definition."""
    bindings = _bindings(trees, defs)
    used = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = (module, getattr(stmt, "name", None))     # a def's own name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    target = bindings[module].get(node.id)
                    if target in defs and target != own:
                        used.add(target)
    return used


def unused_engine_names():
    trees = _modules()
    defs = _definitions(trees)
    exempt = _script_entries() | _traced_names()
    return sorted(f"{module}.{name}" for module, name in defs - _used(trees, defs) - exempt)


def test_the_exemptions_name_engine_definitions():
    defs = _definitions(_modules())
    assert ("cli", "main") in _script_entries()
    assert _script_entries() <= defs
    assert ("bundle", "normalized_series") in _traced_names()
    assert _traced_names() <= defs


def test_every_engine_name_is_used_by_the_engine():
    unused = unused_engine_names()
    assert not unused, "no engine code loads " + ", ".join(unused)
