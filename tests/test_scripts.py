"""Every script in ``scripts/`` runs to completion on small arguments.

The scripts call the package the way a user would (enumeration, oracle
sweeps, continuation), so each one runs in its own interpreter with the
checkout's ``src`` on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# worked_example_report.py's standard output, without --dump-linkage
WORKED_EXAMPLE_REPORT = """\
edges: 16, wall margin: 0.0008831972950353872
critical: True
index: 8  breakdown: [('cell0', 1), ('cell1', 0), ('cell2', 5), ('chain0', 1), ('chain1', 1)]
chains: ['A++', 'A++-']
cells (eps, omega, R): [((1, 1, 1, 1), 1, 0.670035), ((1, 1, 1), 1, 0.845678), \
((1, 1, 1, 1, 1, 1, 1, 1), 1, 1.0)]
chart dimension: 9
oracle inertia (neg, zero, pos): (8, 0, 1)
"""


def run_script(tmp_path, script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("script, args, writes", [
    ("worked_example_report.py", ["--dump-linkage", "worked.json"], ["worked.json"]),
    ("search_max_criticals.py", ["--trials", "20", "--verify-seeds", "50"], []),
    ("pitchfork_scan.py", ["--steps", "2", "--n-seeds", "40", "--out", "pitchfork"],
     ["pitchfork.json", "pitchfork.csv"]),
])
def test_script_exits_0(tmp_path, script, args, writes):
    proc = run_script(tmp_path, script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in writes:
        assert (tmp_path / name).stat().st_size > 0


def test_worked_example_report_stdout(tmp_path):
    proc = run_script(tmp_path, "worked_example_report.py", [])
    assert (proc.returncode, proc.stdout) == (0, WORKED_EXAMPLE_REPORT), proc.stderr
