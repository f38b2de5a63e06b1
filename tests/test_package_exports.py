"""Every ``repro`` package's lazy export table resolves what it names.

Package ``__init__`` modules import nothing at load; each lists its
public names in ``_EXPORTS`` (name -> defining submodule) and resolves
them on first access.  A typo in a table used to fail at import time;
these checks catch it instead.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.apps",
    "repro.area",
    "repro.controller",
    "repro.core",
    "repro.cost",
    "repro.dft",
    "repro.dram",
    "repro.experiments",
    "repro.inject",
    "repro.obs",
    "repro.power",
    "repro.reporting",
    "repro.serve",
    "repro.sim",
    "repro.traffic",
    "repro.verify",
)


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_name_is_its_submodules_object(package):
    table = package._EXPORTS
    assert len(package.__all__) == len(set(package.__all__))
    assert set(table) <= set(package.__all__)
    for name, submodule in table.items():
        module = importlib.import_module(f"{package.__name__}.{submodule}")
        expected = module if name == submodule else module.__dict__[name]
        assert getattr(package, name) is expected, name
    for name in set(package.__all__) - set(table):
        assert getattr(package, name) is not None, name


def test_dir_lists_every_export(package):
    assert sorted(set(package.__all__) - set(dir(package))) == []


def test_unknown_name_raises_naming_the_package(package):
    with pytest.raises(AttributeError, match=repr(package.__name__)):
        getattr(package, "no_such_export")


def test_star_import_binds_every_export(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert sorted(set(package.__all__) - set(namespace)) == []

