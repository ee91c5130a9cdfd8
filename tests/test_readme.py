"""The README's library quick tour runs as documented, and every name it
puts in backticks exists in the program."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# a name in backticks: dotted identifiers, optionally called with no arguments
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def test_quick_tour_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.S | re.M)
    exec(compile(block, str(README), "exec"), {})


def program_names() -> set[str]:
    """Every name that the package, the scripts and the benchmark define or
    mention: module names, definitions, variables, attributes, imports, and
    strings that are (dotted) identifiers, split at the dots."""
    names = set()
    for folder in (ROOT / "src" / "linkmorse", ROOT / "scripts", ROOT / "perfbench"):
        for path in folder.glob("*.py"):
            names.add(path.stem)
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                    names.add(n.name)
                elif isinstance(n, ast.alias):
                    names.update(n.name.split("."))
                elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and NAME.fullmatch(n.value)):
                    names.update(n.value.split("."))
    return names


def test_backticked_names_exist():
    # a README that still names a deleted or renamed function or class fails
    tokens = {t.removesuffix("()") for t in
              re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
              if NAME.fullmatch(t.removesuffix("()"))}
    assert len(tokens) > 40
    names = program_names()
    assert sorted(t for t in tokens if not set(t.split(".")) <= names) == []
