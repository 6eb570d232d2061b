"""Every demo, and the README's Python example, runs to completion against
the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_python_examples(tmp_path):
    # The blocks run in order in one process, as a reader would paste them.
    # Each print writes one line; a print with a trailing comment shows
    # that line.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M))
    assert code
    shown = [
        m.group(1) if m else None
        for line in code.splitlines()
        if line.startswith("print(")
        for m in [re.search(r"\)\s+#\s*(.*)$", line)]
    ]
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    printed = proc.stdout.splitlines()
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        if want is not None:
            assert got == want
