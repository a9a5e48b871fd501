import importlib
import pkgutil

import pytest

import slowvary

MODULES = ["slowvary", *sorted(m.name for m in pkgutil.iter_modules(slowvary.__path__,
                                                                    "slowvary."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A deleted function that stays in an ``__all__`` list breaks
    ``from slowvary import *`` and nothing else; catch it here."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []
