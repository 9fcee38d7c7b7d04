"""Every demo, and every Python example in README.md, runs to completion
against the package in this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latentgraph

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(encoding="utf-8"),
                             re.MULTILINE | re.DOTALL)


def run_python(args):
    # absolute source directory first, so a relative PYTHONPATH cannot
    # pick up another copy of the package
    src = str(Path(latentgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_are_found():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_has_python_examples():
    assert README_EXAMPLES, "no ```python block in README.md"


@pytest.mark.parametrize("example", README_EXAMPLES,
                         ids=lambda code: code.splitlines()[0])
def test_readme_example_runs(example):
    result = run_python(["-c", example])
    assert result.returncode == 0, result.stderr
