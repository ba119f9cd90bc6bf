"""Package-level consistency checks."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import tandem

MODULES = sorted(m.name for m in pkgutil.iter_modules(tandem.__path__, "tandem."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
