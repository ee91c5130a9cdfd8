"""The README's library quick tour runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
