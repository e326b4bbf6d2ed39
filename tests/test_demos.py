"""The demos and documented examples run, and every exported name exists.

Each script in demos/ runs to completion against the package in src/,
README's python blocks run in order in one namespace, each ``fgfilter``
command in the ``fgfilter.cli`` docstring exits 0, and every name in
an ``__all__`` of the package or one of its modules is defined.
"""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fgfilter
from fgfilter import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
CLI_EXAMPLES = re.findall(r"^ +fgfilter (.+)$", cli.__doc__, re.M)
MODULES = [fgfilter] + [
    importlib.import_module(f"fgfilter.{info.name}")
    for info in pkgutil.iter_modules(fgfilter.__path__)
]


def test_demos_are_found():
    # An empty glob would leave the parametrized test below with nothing to run.
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_readme_python_blocks_run_in_order():
    assert README_BLOCKS, "no python blocks found in README.md"
    namespace = {"__name__": "readme"}
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)


def test_cli_examples_are_found():
    assert CLI_EXAMPLES, "no fgfilter commands found in the fgfilter.cli docstring"


@pytest.mark.parametrize("example", CLI_EXAMPLES, ids=lambda line: line.split()[0])
def test_cli_docstring_example_exits_zero(example, tmp_path):
    assert cli.cli_main([*shlex.split(example), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
