"""The Python examples in README.md run as written, and the package names it
cites exist."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import phasediff

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert printed
    # the last value each block prints is a dispersion
    assert 0.0 <= float(printed[-1]) <= 1.0  # also rejects NaN


def test_readme_names_exist():
    # every `module.name` README cites from the package resolves, so a README
    # that still names a deleted function fails
    modules = {info.name for info in pkgutil.iter_modules(phasediff.__path__)}
    cited = [pair for pair in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
             if pair[0] in modules]
    assert cited
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"phasediff.{module}"), name)]
    assert not missing
