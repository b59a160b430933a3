"""The package namespace is the submodules' __all__ lists, re-exported in order,
the README's library example runs against it, the code-line counter that CI
reports the source size with, and the test settings report every failure and
draw the same examples on every run."""

import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import boxnodes
from boxnodes import analysis, cli, nodes, output, verify, well

REEXPORTED = (well, nodes, analysis, verify)
ROOT = Path(__file__).resolve().parents[1]


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
    spec = importlib.util.spec_from_file_location("code_lines",
                                                  ROOT / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = ('"""A docstring\nover two lines."""\nimport math  # a comment\n\n\n'
              'def f(x):\n    """One line."""\n    # a comment alone\n'
              '    return math.hypot(x,\n                      1.0)\n')
    # import, def, and both lines of the return
    assert code_lines.code_lines(source) == 4


def test_code_lines_of_a_directory_and_of_no_path(tmp_path):
    # a directory counts as its *.py files, nested ones too, in sorted order
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    for name, source in (("pkg/b.py", "x = 1\n"), ("pkg/a.py", "y = 2\nz = 3\n"),
                         ("pkg/sub/c.py", "# only a comment\n"), ("pkg/notes.txt", "w = 4\n")):
        (tmp_path / name).write_text(source)
    script = [sys.executable, str(ROOT / "scripts" / "code_lines.py")]
    out = subprocess.run([*script, "pkg"], cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == [f"{2:8d} pkg/a.py", f"{1:8d} pkg/b.py",
                                       f"{0:8d} pkg/sub/c.py", f"{3:8d} total", ""]
    out = subprocess.run([*script, "pkg/a.py", "missing"], cwd=tmp_path,
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert "missing" in out.stderr and "Traceback" not in out.stderr


_FAILING_HYPOTHESIS_TEST = """
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, max_examples=1, phases=[Phase.generate])
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis imports libcst to report a failure, and that "
                           "import's warning is what this test checks")
def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # under the warning filters of pyproject.toml: the libcst import warns
    # inside a pytest hook, and an error there would stop the session with
    # INTERNALERROR (exit 3) before the second test runs
    (tmp_path / "test_two.py").write_text(_FAILING_HYPOTHESIS_TEST)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          "test_two.py"], cwd=tmp_path, capture_output=True, text=True)
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert re.search(r"^1 failed, 1 passed\b", out.stdout, re.MULTILINE), report


def test_default_hypothesis_profile_draws_the_same_examples_on_every_run():
    # tests/conftest.py: two runs of one commit report the same failures,
    # with no example database carried between them; HYPOTHESIS_PROFILE=explore
    # keeps random draws
    fixed, explore = settings.get_profile("fixed"), settings.get_profile("explore")
    assert fixed.derandomize and fixed.database is None
    assert not explore.derandomize
    if "HYPOTHESIS_PROFILE" not in os.environ:
        assert settings.default.derandomize and settings.default.database is None


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_conftest_sets_one_openblas_thread_before_numpy(given, expected):
    # tests/conftest.py run as the session starts: with no value from the
    # caller OpenBLAS gets one thread, a caller's value is kept, and nothing
    # it imports has loaded numpy, which reads the variable when it loads
    # OpenBLAS
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = ("import os, runpy, sys; runpy.run_path(sys.argv[1]); "
            "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests" / "conftest.py")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", expected]
    assert os.environ.get("OPENBLAS_NUM_THREADS")
