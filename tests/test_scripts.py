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


@pytest.mark.parametrize("script, args, writes", [
    ("worked_example_report.py", ["--dump-linkage", "worked.json"], ["worked.json"]),
    ("search_max_criticals.py", ["--trials", "20", "--verify-seeds", "50"], []),
    ("pitchfork_scan.py", ["--steps", "2", "--n-seeds", "40", "--out", "pitchfork"],
     ["pitchfork.json", "pitchfork.csv"]),
])
def test_script_exits_0(tmp_path, script, args, writes):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in writes:
        assert (tmp_path / name).stat().st_size > 0
