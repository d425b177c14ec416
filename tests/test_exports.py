"""The package root re-exports the public names of every layer module."""

import importlib

import pytest

import polariton_lab

_LAYERS = ["models", "fields", "driven", "hopfield", "ensemble", "material", "units"]


@pytest.mark.parametrize("layer", _LAYERS)
def test_layer_public_names_are_exported_from_the_package(layer):
    module = importlib.import_module(f"polariton_lab.{layer}")
    missing = [name for name in module.__all__ if name not in polariton_lab.__all__]
    assert missing == []
    for name in module.__all__:
        assert getattr(polariton_lab, name) is getattr(module, name)


def test_every_package_export_resolves():
    unresolved = [name for name in polariton_lab.__all__ if not hasattr(polariton_lab, name)]
    assert unresolved == []
    assert len(set(polariton_lab.__all__)) == len(polariton_lab.__all__)


def test_package_all_lists_the_layers_in_order():
    layers = ["units", "models", "hopfield", "driven", "fields", "ensemble", "material", "scenarios"]
    expected = ["__version__", "PolaritonError", "PoleError", "SchemaError"]
    for layer in layers:
        expected += importlib.import_module(f"polariton_lab.{layer}").__all__
    assert polariton_lab.__all__ == expected


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polariton_lab import *", namespace)
    assert [name for name in polariton_lab.__all__ if name not in namespace] == []
    assert namespace["branch_frequencies"] is polariton_lab.models.branch_frequencies
