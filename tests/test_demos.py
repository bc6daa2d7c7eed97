"""Smoke test: every script in ``demos/`` and the README's library example
run to completion against the sources, each in its own child process and
scratch directory."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 7


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(script, tmp_path):
    out = _run([script], tmp_path)
    assert out.returncode == 0, out.stderr[-2000:]


def test_readme_library_example_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    out = _run(["-c", blocks[0]], tmp_path)
    assert out.returncode == 0, out.stderr[-2000:]
