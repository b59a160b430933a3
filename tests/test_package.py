"""The package namespace is the submodules' __all__ lists, re-exported in order,
the README's library example runs against it, and the code-line counter
that CI reports the source size with."""

import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import boxnodes
from boxnodes import analysis, cli, nodes, output, verify, well

REEXPORTED = (well, nodes, analysis, verify)


def test_all_has_no_duplicates():
    assert len(set(boxnodes.__all__)) == len(boxnodes.__all__)


def test_all_is_the_submodule_lists_in_order():
    assert boxnodes.__all__ == [name for mod in REEXPORTED for name in mod.__all__]


def test_names_are_the_submodule_objects():
    for mod in REEXPORTED:
        for name in mod.__all__:
            assert getattr(boxnodes, name) is getattr(mod, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from boxnodes import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(boxnodes.__all__)


@pytest.mark.parametrize("mod", [*REEXPORTED, cli, output], ids=lambda m: m.__name__)
def test_submodule_all_lists_exactly_its_public_definitions(mod):
    # every name in __all__ is defined in mod, not imported from a sibling,
    # and every public class or function defined in mod is listed
    for name in mod.__all__:
        assert getattr(mod, name).__module__ == mod.__name__, name
    defined = [name for name, obj in vars(mod).items()
               if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
               and (inspect.isclass(obj) or inspect.isfunction(obj))]
    assert sorted(defined) == sorted(mod.__all__)


def test_readme_library_example_runs():
    # the one python block of README.md runs as written, so a renamed public
    # name cannot leave it stale
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == "", out.stderr


def test_code_lines_skip_docstrings_comments_and_blanks():
    spec = importlib.util.spec_from_file_location(
        "code_lines", Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = ('"""A docstring\nover two lines."""\nimport math  # a comment\n\n\n'
              'def f(x):\n    """One line."""\n    # a comment alone\n'
              '    return math.hypot(x,\n                      1.0)\n')
    # import, def, and both lines of the return
    assert code_lines.code_lines(source) == 4
