"""Every name a module of the package exports resolves.

A stale `__all__` entry breaks only `from abeforge.<module> import *`, which
nothing else in the tests runs."""

import importlib
import pkgutil

import pytest

import abeforge

MODULES = [info.name for info in pkgutil.iter_modules(abeforge.__path__, "abeforge.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
