"""Every public module-level name in src/tsembed is used somewhere.

A name counts as used when the package refers to it outside its own
definition, when a script under scripts/ or perfbench/ refers to it (a
string constant counts, since perfbench's tracer patches functions by
name), or when README.md names it in backticks or a fenced code block. Code that no path reaches
and no document offers belongs in tests/ as an oracle, or nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tsembed"


def defined_names(tree):
    """Public names a module binds at its top level: functions, classes and
    assigned constants, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def referenced_names(tree, strings=False):
    """Identifiers a module loads, reads as attributes or imports; with
    strings, also every string constant that is an identifier."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_public_name_is_used():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in modules.values():
        used |= referenced_names(tree)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used |= referenced_names(parse(path), strings=True)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"```.*?```|`[^`]+`", readme, re.S):  # fenced blocks and code spans
        used |= set(re.findall(r"[A-Za-z_]\w*", span))
    unused = sorted(f"{path.stem}.{name}" for path, tree in modules.items()
                    for name in defined_names(tree) - used)
    assert unused == [], unused
