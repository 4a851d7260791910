"""The package's exports: every public name resolves and no module exports more."""

import importlib

import pytest

import diskbem

LIBRARY_MODULES = ("geometry", "kernels", "quadrature", "problems", "assembly", "solver", "analysis")


def test_every_exported_name_resolves():
    for name in diskbem.__all__:
        assert hasattr(diskbem, name), f"diskbem.__all__ lists {name!r}, which is not defined"


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_exports_are_package_exports(module):
    exported = set(importlib.import_module(f"diskbem.{module}").__all__)
    assert exported <= set(diskbem.__all__), sorted(exported - set(diskbem.__all__))
