"""The package namespace is the submodules' __all__ lists, re-exported in order."""

import inspect

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
