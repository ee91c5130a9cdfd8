"""Every top-level function, class and constant in ``src/linkmorse`` is run
by the program: the command line (``cli.main``), the scripts, the benchmark in
``perfbench`` or the README's quick tour.

Reachability is by name over the syntax trees.  A top-level definition
reaches every name that it mentions as a variable, an attribute, an imported
name or a string that is an identifier (``perfbench/tracing.py`` names the
functions it wraps as strings); a class reaches through all of its methods.
A name reaches every top-level definition of that name in any module, so the
check errs only towards keeping a name.  ``__init__`` is not a root: its
imports are the package's exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linkmorse"

# kept although nothing in the program calls them
EXEMPT = {
    "make_polygon": "builds the plain polygon linkages that users and tests start from",
    "distance_oracle": "the oracle for the vertex-distance objective, kept for its planned use",
    "VertexDistanceObjective": "the objective that distance_oracle builds",
    "euler_sum": "Euler bookkeeping over records, kept until the Euler check ships",
    "EulerReport": "the result of euler_sum",
    "max16_three_chain": "study instance: the three-chain with 16 critical points",
    "bott_morse_three_chain": "study instance: the three-chain with critical circles",
    "non_ptt_example": "study instance: a linkage that is not a partial two-tree",
}


def mentions(tree: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def definitions() -> dict[str, set[str]]:
    """The names that each top-level function, class and assigned name of
    the package mentions."""
    defs: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, set()).update(mentions(stmt))
    return defs


def roots() -> set[str]:
    out = {"main"}  # cli.main, the command line's entry point
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        out |= mentions(ast.parse(path.read_text(encoding="utf-8")))
    (tour,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                         flags=re.S | re.M)
    return out | mentions(ast.parse(tour))


def reached(defs: dict[str, set[str]], names: set[str]) -> set[str]:
    seen = set()
    todo = [n for n in names if n in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [n for n in defs[name] if n in defs]
    return seen


def test_every_top_level_name_is_run():
    defs = definitions()
    unrun = sorted(set(defs) - reached(defs, roots() | set(EXEMPT)))
    assert not unrun, f"the program runs none of these top-level names of src/linkmorse: {unrun}"


def test_every_exemption_is_needed():
    defs = definitions()
    assert set(EXEMPT) <= set(defs)
    assert not set(EXEMPT) & reached(defs, roots())
