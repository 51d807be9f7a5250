import importlib
import pkgutil

import pytest

import bottleneck_lab

MODULES = [bottleneck_lab] + [
    importlib.import_module(f"bottleneck_lab.{info.name}")
    for info in pkgutil.iter_modules(bottleneck_lab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
