"""The benchmark runs every workload and passes its own output checks.

One short run per workload (``--seconds 1`` makes a single pass), in a fresh
interpreter as the benchmark is run.  A program change that makes an item
fail or its output wrong fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify_sweep", "symbolic_records",
                                      "pitchfork_continuation"])
def test_one_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout[-2000:]
    assert result["attempted"] > 0
