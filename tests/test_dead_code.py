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
