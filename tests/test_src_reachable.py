"""Every top-level function, class and constant in ``src/linkmorse``, and
every method and property of its classes, is run by the program: the command
line (``cli.main``), the scripts, the benchmark in ``perfbench`` or the
README's quick tour.

Reachability is by name over the syntax trees.  A definition reaches every
name that it mentions as a variable, an attribute, an imported name or a
string that is an identifier (``perfbench/tracing.py`` names the functions it
wraps as strings).  A class reaches only what its body mentions outside its
members: its bases, decorators, fields and dunders (``__init__``,
``__post_init__``, ``__len__`` ...), which Python runs for it.  A member is
reached when its name is.  A name reaches every definition of that name in
any module, so the check errs only towards keeping a name.  ``__init__`` is
not a root: its imports are the package's exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linkmorse"

# kept although nothing in the program calls them; a member as Class.member
EXEMPT = {
    "make_polygon": "builds the plain polygon linkages that users and tests start from",
    "distance_oracle": "the oracle for the vertex-distance objective, kept for its planned use",
    "VertexDistanceObjective": "the objective that distance_oracle builds",
    "euler_sum": "Euler bookkeeping over records, kept until the Euler check ships",
    "EulerReport": "the result of euler_sum",
    "max16_three_chain": "study instance: the three-chain with 16 critical points",
    "bott_morse_three_chain": "study instance: the three-chain with critical circles",
    "non_ptt_example": "study instance: a linkage that is not a partial two-tree",
    "ChartOracle.fd_check": "the finite-difference check of acceptance criterion 9, "
                            "run by TestFdCheck",
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


def is_member(stmt: ast.stmt) -> bool:
    """A method or property of a class: a function in its body that is not
    a dunder."""
    return (isinstance(stmt, ast.FunctionDef)
            and not (stmt.name.startswith("__") and stmt.name.endswith("__")))


def definitions() -> dict[str, tuple[str, set[str]]]:
    """For each top-level function, class and assigned name of the package,
    and each member of its classes (labelled ``Class.member``): the name that
    reaches it and the names that it mentions."""
    defs: dict[str, tuple[str, set[str]]] = {}

    def add(label, name, trees):
        defs.setdefault(label, (name, set()))[1].update(*map(mentions, trees))

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                add(stmt.name, stmt.name, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                add(stmt.name, stmt.name, [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                                           *(s for s in stmt.body if not is_member(s))])
                for member in filter(is_member, stmt.body):
                    add(f"{stmt.name}.{member.name}", member.name, [member])
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                for name in names:
                    add(name, name, [stmt])
    return defs


def roots() -> set[str]:
    out = {"main"}  # cli.main, the command line's entry point
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        out |= mentions(ast.parse(path.read_text(encoding="utf-8")))
    (tour,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                         flags=re.S | re.M)
    return out | mentions(ast.parse(tour))


def reached(defs: dict[str, tuple[str, set[str]]], start: set[str]) -> set[str]:
    """The labels of the definitions reached from ``start``, a set of names
    and labels."""
    by_name: dict[str, set[str]] = {}
    for label, (name, _) in defs.items():
        by_name.setdefault(name, set()).add(label)
        by_name.setdefault(label, set()).add(label)
    seen = set()
    todo = list(start)
    while todo:
        for label in by_name.get(todo.pop(), ()):
            if label not in seen:
                seen.add(label)
                todo += defs[label][1]
    return seen


def test_every_top_level_name_is_run():
    defs = definitions()
    unrun = sorted(set(defs) - reached(defs, roots() | set(EXEMPT)))
    assert not unrun, f"the program runs none of these definitions of src/linkmorse: {unrun}"


def test_every_exemption_is_needed():
    defs = definitions()
    assert set(EXEMPT) <= set(defs)
    assert not set(EXEMPT) & reached(defs, roots())
