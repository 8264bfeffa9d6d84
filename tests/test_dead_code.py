"""Every top-level definition of the package is used somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "operad_forge"
SEARCHED = ("src", "tests", "scripts", "perfbench")
WORD = re.compile(r"\w+")


def test_every_top_level_definition_is_named_elsewhere():
    # a name counts once it appears in src, tests, scripts or perfbench on
    # any line but its own def or class line
    words = Counter(word for top in SEARCHED
                    for path in (ROOT / top).rglob("*.py")
                    for word in WORD.findall(path.read_text()))
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        text = module.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = WORD.findall(lines[node.lineno - 1]).count(node.name)
                if words[node.name] <= own:
                    unused.append(f"{module.name}:{node.lineno} {node.name}")
    assert unused == []


def _annotation_words(tree) -> set:
    """The words of the string annotations in ``tree``."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
            args = node.args
            notes.extend(a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg) if a is not None)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    return {word for note in notes
            if isinstance(note, ast.Constant) and isinstance(note.value, str)
            for word in WORD.findall(note.value)}


def test_every_import_is_used():
    # a name a module imports, at top level or in a function, must be read
    # somewhere in that module, in code or in a string annotation
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _annotation_words(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations" and name not in used:
                    unused.append(f"{module.name}:{node.lineno} {name}")
    assert unused == []
