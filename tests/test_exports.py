"""Every name a tastas subpackage lists in `__all__` resolves, so a stale
entry fails here and not only in `from tastas.<subpackage> import *`."""

import importlib
import pkgutil

import pytest

import tastas

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(tastas.__path__, "tastas.") if m.ispkg)


def test_every_subpackage_is_found():
    assert SUBPACKAGES == ["tastas.audio", "tastas.idnet", "tastas.numerics", "tastas.pipeline", "tastas.sepnet"]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
